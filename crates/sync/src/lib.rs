//! # tb-sync — synchronization substrate for pipelined temporal blocking
//!
//! The paper (§"Relaxed synchronization") observes that a global barrier
//! after every block update costs hundreds to thousands of cycles and
//! replaces it with per-thread progress counters and two "soft" distance
//! conditions (Eq. 3):
//!
//! ```text
//! c_{i-1} - c_i >= d_l   (averts data races: predecessor stays ahead)
//! c_i - c_{i+1} <= d_u   (bounds the lead: blocks must stay in cache)
//! ```
//!
//! This crate implements both synchronization styles:
//!
//! * [`SpinBarrier`] — a sense-reversing spin barrier (the "global
//!   barrier" variant of the paper, and the team-sweep separator),
//! * [`ProgressCounters`] — cache-line-padded per-thread counters (the
//!   paper's `volatile` counters, here with release/acquire atomics),
//! * [`PipelineSync`] — the full relaxed scheme with lower/upper distances
//!   `d_l`/`d_u` and the team delay `d_t` applied at team boundaries,
//! * [`Handoff`] — the flag/slot handoff a dedicated communication
//!   thread uses to tell the compute team "halos ready" without a full
//!   barrier (the distributed overlap's §2.3 coupling point).
//!
//! It also owns the two building blocks every spinning primitive in the
//! workspace shares — [`CachePadded`] (128-byte alignment against false
//! sharing) and [`Backoff`] (spin, then yield) — and the workspace's
//! mutex **poison policy**, stated once in [`lock`].

#![forbid(unsafe_code)]

pub mod barrier;
pub mod counter;
pub mod handoff;
pub mod pipeline;
pub mod spin;

pub use barrier::SpinBarrier;
pub use counter::ProgressCounters;
pub use handoff::Handoff;
pub use pipeline::{PipelineSync, SyncMode};
pub use spin::{spin_wait_until, Backoff, CachePadded};

use std::sync::{Mutex, MutexGuard};

/// Lock `m`, ignoring poison: a panicking holder releases the lock and the
/// protected state is taken as is. Every mutex locked through here guards
/// data that is valid after each single statement of its critical sections
/// (a slot, a list, a sample vector), and the panic itself is not lost:
/// the runtime re-raises a worker's panic at the dispatch that joined it.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::lock;
    use std::sync::{Arc, Mutex};

    #[test]
    fn lock_survives_a_panicking_holder_with_the_value_intact() {
        let m = Arc::new(Mutex::new(1u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let mut g = lock(&m2);
            *g = 2;
            panic!("poison attempt");
        })
        .join();
        assert!(m.is_poisoned(), "std did poison it; `lock` looks past that");
        assert_eq!(*lock(&m), 2);
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 3, "still usable after the panic");
    }
}
