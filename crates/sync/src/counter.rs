//! Cache-line padded per-thread progress counters.
//!
//! Each pipeline thread `t_i` owns counter `c_i`, incremented after every
//! completed block update. Only `t_i` writes `c_i`; all other threads read
//! it through the cache-coherence protocol — exactly the paper's scheme,
//! with Rust release/acquire atomics playing the role of `volatile`
//! (which in C merely *happened* to work on x86). Each counter sits in its
//! own cache line to avoid false sharing (`CachePadded`).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::spin::CachePadded;

/// A fixed array of padded monotonic counters, one per pipeline thread.
#[derive(Debug)]
pub struct ProgressCounters {
    counters: Vec<CachePadded<AtomicU64>>,
}

impl ProgressCounters {
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one counter");
        Self {
            counters: (0..n)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.counters.len()
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Read `c_i` with acquire ordering (pairs with [`Self::increment`]'s
    /// release: a reader that observes the new count also observes the
    /// block data written before it).
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        self.counters[i].load(Ordering::Acquire)
    }

    /// Publish one completed block for thread `i` (release).
    #[inline]
    pub fn increment(&self, i: usize) {
        // Only thread i writes counter i, so a plain add would do; fetch_add
        // keeps the invariant safe even under misuse.
        self.counters[i].fetch_add(1, Ordering::Release);
    }

    /// Reset all counters to zero. Must only be called while no thread is
    /// concurrently waiting on the counters (between team sweeps, inside a
    /// barrier-protected window).
    pub fn reset(&self) {
        for c in &self.counters {
            c.store(0, Ordering::Release);
        }
    }

    /// Set counter `i` to an absolute value (used to mark threads that sit
    /// out a partial team sweep as "already done").
    #[inline]
    pub fn set(&self, i: usize, v: u64) {
        self.counters[i].store(v, Ordering::Release);
    }

    /// Snapshot of all counters (diagnostics / tests).
    pub fn snapshot(&self) -> Vec<u64> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_counts() {
        let c = ProgressCounters::new(3);
        assert_eq!(c.snapshot(), vec![0, 0, 0]);
        c.increment(1);
        c.increment(1);
        c.increment(2);
        assert_eq!(c.snapshot(), vec![0, 2, 1]);
    }

    #[test]
    fn reset_clears_everything() {
        let c = ProgressCounters::new(2);
        c.increment(0);
        c.increment(1);
        c.reset();
        assert_eq!(c.snapshot(), vec![0, 0]);
    }

    #[test]
    fn set_overrides() {
        let c = ProgressCounters::new(2);
        c.set(1, 99);
        assert_eq!(c.get(1), 99);
    }

    #[test]
    fn counters_occupy_distinct_cache_lines() {
        let c = ProgressCounters::new(4);
        let addrs: Vec<usize> = c.counters.iter().map(|p| p as *const _ as usize).collect();
        for w in addrs.windows(2) {
            assert!(w[1] - w[0] >= 64, "counters share a cache line");
        }
    }

    #[test]
    fn cross_thread_visibility() {
        let c = ProgressCounters::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..1000 {
                    c.increment(0);
                }
            });
            s.spawn(|| {
                // Monotone reads only.
                let mut last = 0;
                loop {
                    let v = c.get(0);
                    assert!(v >= last);
                    last = v;
                    if v == 1000 {
                        break;
                    }
                    std::hint::spin_loop();
                }
            });
        });
        assert_eq!(c.get(0), 1000);
    }

    #[test]
    #[should_panic(expected = "at least one counter")]
    fn zero_counters_panics() {
        let _ = ProgressCounters::new(0);
    }
}
