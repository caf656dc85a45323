//! One-shot value handoff between a communication thread and a compute
//! team.
//!
//! The paper's multicore-aware overlap dedicates one core to MPI traffic
//! while the remaining cores advance the interior. The two sides meet at
//! exactly one point per cycle — "the halos are ready" — which needs a
//! flag plus a value slot, not a full barrier: the comm thread never
//! waits for the compute team, and the compute team waits only if it
//! finishes the interior before the transfers complete.
//!
//! [`Handoff`] is that primitive: `signal(value)` publishes once,
//! `take()` spin-waits (bounded backoff, then yielding — safe when
//! oversubscribed) and consumes. It is reusable: after `take` the slot
//! is empty again and a later cycle may `signal` anew.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use super::lock;
use super::spin::spin_wait_until;

/// Flag + slot handoff ("halos ready") between two threads.
pub struct Handoff<T> {
    ready: AtomicBool,
    slot: Mutex<Option<T>>,
}

impl<T: Send> Handoff<T> {
    pub fn new() -> Self {
        Self {
            ready: AtomicBool::new(false),
            slot: Mutex::new(None),
        }
    }

    /// Publish `value` and raise the ready flag (release ordering: every
    /// write the signaling thread made before this call is visible to
    /// the taker).
    ///
    /// # Panics
    /// Panics if a previous signal has not been taken yet — a protocol
    /// error: each cycle has exactly one handoff.
    pub fn signal(&self, value: T) {
        let mut slot = lock(&self.slot);
        assert!(slot.is_none(), "handoff signaled twice without a take");
        *slot = Some(value);
        drop(slot);
        self.ready.store(true, Ordering::Release);
    }

    /// True once a value is waiting (acquire ordering).
    pub fn is_ready(&self) -> bool {
        self.ready.load(Ordering::Acquire)
    }

    /// Spin until a value is available, consume it, and reset the
    /// handoff for the next cycle.
    pub fn take(&self) -> T {
        spin_wait_until(|| self.is_ready());
        let mut slot = lock(&self.slot);
        let value = slot.take().expect("ready flag raised without a value");
        // Clear the flag while still holding the slot lock: a racing
        // `signal` for the next cycle serializes behind the lock, so its
        // flag store cannot be clobbered by this reset.
        self.ready.store(false, Ordering::Release);
        drop(slot);
        value
    }
}

impl<T: Send> Default for Handoff<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn not_ready_until_signaled() {
        let h: Handoff<u32> = Handoff::new();
        assert!(!h.is_ready());
        h.signal(7);
        assert!(h.is_ready());
        assert_eq!(h.take(), 7);
        assert!(!h.is_ready(), "take resets the handoff");
    }

    #[test]
    fn take_blocks_until_the_comm_thread_signals() {
        let h: Handoff<Vec<u64>> = Handoff::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(15));
                h.signal(vec![1, 2, 3]);
            });
            assert_eq!(h.take(), vec![1, 2, 3]);
        });
    }

    #[test]
    fn reusable_across_cycles() {
        let h: Handoff<usize> = Handoff::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                for cycle in 0..50 {
                    h.signal(cycle);
                    // Wait until the consumer took it before signaling
                    // again (one handoff per cycle).
                    crate::sync::spin::spin_wait_until(|| !h.is_ready());
                }
            });
            for cycle in 0..50 {
                assert_eq!(h.take(), cycle);
            }
        });
    }

    #[test]
    #[should_panic(expected = "signaled twice")]
    fn double_signal_is_a_protocol_error() {
        let h: Handoff<u8> = Handoff::new();
        h.signal(1);
        h.signal(2);
    }

    #[test]
    fn publishes_writes_before_the_flag() {
        // The value carried through the handoff is itself the proof of
        // ordering here; heavier litmus tests belong to the atomics, not
        // this wrapper.
        let h: Handoff<Box<[f64; 4]>> = Handoff::new();
        std::thread::scope(|s| {
            s.spawn(|| h.signal(Box::new([1.0, 2.0, 3.0, 4.0])));
            assert_eq!(*h.take(), [1.0, 2.0, 3.0, 4.0]);
        });
    }
}
