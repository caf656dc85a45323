//! Sense-reversing spin barrier with a spin-then-park fallback.
//!
//! `std::sync::Barrier` parks threads through a mutex/condvar, which costs
//! microseconds per crossing; the pipelined-with-barrier executor crosses a
//! barrier after *every block update*, so a spinning implementation is
//! required to reproduce the paper's "pipeline w/ barrier" data point
//! faithfully. The barrier spins with backoff and yields when
//! oversubscribed.
//!
//! Pure spinning is the wrong trade once a crossing takes long — a worker
//! stalled behind a slow teammate (an imbalanced diamond tile, a comm
//! worker mid-exchange, an oversubscribed CI box) burns a core that the
//! slow thread may need. After a bounded spin budget, waiters therefore
//! *park* and the leader unparks them: fast crossings never leave the
//! spin path, slow ones stop burning cycles.

use std::mem;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::{self, Thread};
use std::time::Duration;

use crate::lock;
use crate::spin::{Backoff, CachePadded};

/// Spin iterations a waiter performs before parking. Generous enough
/// that back-to-back block updates (the hot path this barrier exists
/// for) never park; small enough that a genuinely stalled crossing
/// stops burning its core within tens of microseconds.
pub const DEFAULT_SPIN_BUDGET: usize = 10_000;

/// Parked waiters re-check the generation on this period even without
/// an unpark, so a wakeup lost to the register/take race only costs one
/// timeout instead of a hang.
const PARK_TIMEOUT: Duration = Duration::from_micros(100);

/// A reusable spin barrier for a fixed set of `n` threads.
pub struct SpinBarrier {
    n: usize,
    spin_budget: usize,
    arrived: CachePadded<AtomicUsize>,
    generation: CachePadded<AtomicUsize>,
    /// Waiters that exhausted their spin budget this generation. The
    /// leader takes the whole list and unparks everyone. A waiter whose
    /// generation flips between registering and parking leaves a stale
    /// entry behind; the next leader's unpark of it is a benign no-op
    /// (`std::thread::park` tolerates spurious wakeups by contract).
    parked: Mutex<Vec<Thread>>,
}

impl SpinBarrier {
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "barrier needs at least one participant");
        Self {
            n,
            spin_budget: DEFAULT_SPIN_BUDGET,
            arrived: CachePadded::new(AtomicUsize::new(0)),
            generation: CachePadded::new(AtomicUsize::new(0)),
            parked: Mutex::new(Vec::new()),
        }
    }

    /// Override the spin budget ([`DEFAULT_SPIN_BUDGET`]): iterations a
    /// waiter spins before parking. `0` parks immediately (exercises the
    /// parked path deterministically — used by the contention tests);
    /// `usize::MAX` never parks (the historical pure-spin behaviour).
    pub fn with_spin_budget(mut self, budget: usize) -> Self {
        self.spin_budget = budget;
        self
    }

    pub fn participants(&self) -> usize {
        self.n
    }

    /// Block until all `n` threads have called `wait` for this
    /// generation — spinning with backoff up to the spin budget, parked
    /// beyond it. Returns `true` on exactly one thread per generation
    /// (the "leader", the last to arrive).
    pub fn wait(&self) -> bool {
        let gen = self.generation.load(Ordering::Acquire);
        let prior = self.arrived.fetch_add(1, Ordering::AcqRel);
        if prior + 1 == self.n {
            // Last thread: reset, release everyone, wake the parked.
            self.arrived.store(0, Ordering::Release);
            self.generation.store(gen + 1, Ordering::Release);
            let waiters = mem::take(&mut *lock(&self.parked));
            for t in waiters {
                t.unpark();
            }
            true
        } else {
            let backoff = Backoff::new();
            let mut spins = 0usize;
            while self.generation.load(Ordering::Acquire) == gen {
                if spins < self.spin_budget {
                    spins += 1;
                    if backoff.is_completed() {
                        thread::yield_now();
                    } else {
                        backoff.snooze();
                    }
                } else {
                    // Register once, then park until the generation
                    // advances. The leader may have taken the list just
                    // before we registered — the timeout bounds that
                    // lost wakeup to one PARK_TIMEOUT.
                    lock(&self.parked).push(thread::current());
                    while self.generation.load(Ordering::Acquire) == gen {
                        thread::park_timeout(PARK_TIMEOUT);
                    }
                    break;
                }
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn single_thread_barrier_is_noop() {
        let b = SpinBarrier::new(1);
        for _ in 0..100 {
            assert!(b.wait());
        }
    }

    #[test]
    fn counts_participants() {
        assert_eq!(SpinBarrier::new(4).participants(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participants_panics() {
        let _ = SpinBarrier::new(0);
    }

    /// Runs the leader-uniqueness contention check for one spin budget.
    fn leaders_are_unique_with_budget(budget: usize, rounds: usize) {
        const THREADS: usize = 4;
        let barrier = SpinBarrier::new(THREADS).with_spin_budget(budget);
        let leaders = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..rounds {
                        if barrier.wait() {
                            leaders.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(leaders.load(Ordering::Relaxed), rounds, "budget {budget}");
    }

    #[test]
    fn exactly_one_leader_per_generation() {
        leaders_are_unique_with_budget(DEFAULT_SPIN_BUDGET, 200);
    }

    #[test]
    fn exactly_one_leader_per_generation_on_the_parked_path() {
        // Budget 0: every non-leader parks every round, so the whole
        // register/park/unpark protocol is exercised 200 times.
        leaders_are_unique_with_budget(0, 200);
        // Budget 1: threads race between the spin and park paths, the
        // mixed case an imbalanced real crossing produces.
        leaders_are_unique_with_budget(1, 200);
    }

    #[test]
    fn barrier_orders_phased_increments() {
        // Each round, every thread increments a shared counter, then the
        // barrier; after the barrier all THREADS increments of the round
        // must be visible. A broken barrier shows partial sums. Covers
        // both the spin path (default budget) and the parked path
        // (budget 0), which must provide the same ordering guarantee.
        const THREADS: usize = 4;
        const ROUNDS: usize = 100;
        for budget in [DEFAULT_SPIN_BUDGET, 0] {
            let barrier = SpinBarrier::new(THREADS).with_spin_budget(budget);
            let counter = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..THREADS {
                    s.spawn(|| {
                        for round in 1..=ROUNDS {
                            counter.fetch_add(1, Ordering::AcqRel);
                            barrier.wait();
                            let seen = counter.load(Ordering::Acquire);
                            assert!(
                                seen >= round * THREADS,
                                "budget {budget} round {round}: saw {seen}, expected >= {}",
                                round * THREADS
                            );
                            barrier.wait();
                        }
                    });
                }
            });
            assert_eq!(counter.load(Ordering::Relaxed), THREADS * ROUNDS);
        }
    }

    #[test]
    fn oversubscribed_parked_barrier_makes_progress() {
        // More threads than any CI runner has cores, all parking
        // immediately: the barrier must still advance generation by
        // generation without livelock or lost wakeups.
        const THREADS: usize = 32;
        const ROUNDS: usize = 50;
        let barrier = SpinBarrier::new(THREADS).with_spin_budget(0);
        let leaders = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..ROUNDS {
                        if barrier.wait() {
                            leaders.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(leaders.load(Ordering::Relaxed), ROUNDS);
    }
}
