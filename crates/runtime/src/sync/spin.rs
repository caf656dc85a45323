//! Bounded-backoff spin waiting, and the two building blocks the spinning
//! primitives share: [`CachePadded`] and [`Backoff`].

use std::cell::Cell;
use std::ops::{Deref, DerefMut};

/// Pads and aligns a value to 128 bytes so that adjacent instances never
/// share a cache line (two lines, covering adjacent-line prefetchers).
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    pub(crate) const fn new(value: T) -> Self {
        Self { value }
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

/// Exponential backoff for spin loops: spin-hint a growing number of
/// times, then report completion so callers can switch to yielding.
pub(crate) struct Backoff {
    step: Cell<u32>,
}

const SPIN_LIMIT: u32 = 6;
const YIELD_LIMIT: u32 = 10;

impl Backoff {
    #[allow(clippy::new_without_default)]
    pub(crate) fn new() -> Self {
        Self { step: Cell::new(0) }
    }

    /// Back off one step: busy-spin while cheap, then yield to the OS.
    pub(crate) fn snooze(&self) {
        let step = self.step.get();
        if step <= SPIN_LIMIT {
            for _ in 0..1u32 << step {
                std::hint::spin_loop();
            }
        } else {
            std::thread::yield_now();
        }
        if step <= YIELD_LIMIT {
            self.step.set(step + 1);
        }
    }

    /// True once backing off further would not help (caller should block
    /// or yield instead).
    pub(crate) fn is_completed(&self) -> bool {
        self.step.get() > YIELD_LIMIT
    }
}

/// Spin until `cond()` returns true, backing off progressively
/// (`pause` instructions first, then `thread::yield_now`).
///
/// Yielding keeps the executors livelock-free when there are more worker
/// threads than cores — the normal situation both in CI and on the
/// oversubscribed cluster simulations.
#[inline]
pub(crate) fn spin_wait_until(mut cond: impl FnMut() -> bool) {
    let backoff = Backoff::new();
    while !cond() {
        if backoff.is_completed() {
            std::thread::yield_now();
        } else {
            backoff.snooze();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn returns_immediately_when_already_true() {
        spin_wait_until(|| true);
    }

    #[test]
    fn wakes_up_when_flag_flips() {
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = flag.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            f2.store(true, Ordering::Release);
        });
        spin_wait_until(|| flag.load(Ordering::Acquire));
        h.join().unwrap();
        assert!(flag.load(Ordering::Relaxed));
    }

    #[test]
    fn condition_is_polled_multiple_times() {
        let calls = AtomicUsize::new(0);
        spin_wait_until(|| calls.fetch_add(1, Ordering::Relaxed) >= 3);
        assert!(calls.load(Ordering::Relaxed) >= 4);
    }

    #[test]
    fn cache_padded_is_aligned_and_transparent() {
        let xs: Vec<CachePadded<u64>> = (0..4).map(CachePadded::new).collect();
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(**x, i as u64);
            assert_eq!(x as *const _ as usize % 128, 0);
        }
    }

    #[test]
    fn backoff_completes_after_enough_snoozes() {
        let b = Backoff::new();
        assert!(!b.is_completed());
        for _ in 0..32 {
            b.snooze();
        }
        assert!(b.is_completed());
    }
}
