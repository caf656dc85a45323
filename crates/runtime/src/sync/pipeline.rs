//! The relaxed pipeline synchronization scheme of the paper (Eq. 3).
//!
//! Threads `t_0 … t_{n-1}` form one long pipeline (across all teams).
//! Thread `t_i` may start its next block only when
//!
//! ```text
//! c_{i-1} - c_i >= d_l    and    c_i - c_{i+1} <= d_u
//! ```
//!
//! where `c_i` counts blocks completed by `t_i` in the current team sweep.
//! The first condition keeps the predecessor far enough ahead to avert
//! data races (the plan geometry needs `d_l >= 1`); the second stops a
//! thread from racing ahead so far that blocks fall out of the shared
//! cache before the team's rear thread has used them.
//!
//! The *team delay* `d_t` enforces extra distance between teams, which
//! the paper found mildly beneficial (~3 % at `d_t = 8`): it is added to
//! `d_l` on every team's front thread and to `d_u` on every team's rear
//! thread. The overall front thread ignores the first condition, the
//! overall rear thread the second.

use super::counter::ProgressCounters;
use super::spin::spin_wait_until;

/// Which synchronization style an executor should use.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SyncMode {
    /// Global barrier after each block update (Fig. 1 of the paper).
    Barrier,
    /// Relaxed counter-based synchronization (Eq. 3).
    Relaxed {
        /// Lower distance `d_l >= 1` between consecutive threads.
        dl: u64,
        /// Upper distance `d_u >= d_l`.
        du: u64,
        /// Team delay `d_t` (0 disables).
        dt: u64,
    },
}

impl SyncMode {
    /// The paper's default relaxed configuration (`d_l = 1`, `d_u = 4`),
    /// which Fig. 3 (right) identifies as the sweet spot.
    pub fn relaxed_default() -> Self {
        SyncMode::Relaxed {
            dl: 1,
            du: 4,
            dt: 0,
        }
    }
}

/// Relaxed synchronization state for one pipeline of `n` threads.
#[derive(Debug)]
pub struct PipelineSync {
    counters: ProgressCounters,
    n: usize,
    /// Effective lower distance for thread `i` vs `i-1` (index 0 unused).
    dl_eff: Vec<u64>,
    /// Effective upper distance for thread `i` vs `i+1` (index n-1 unused).
    du_eff: Vec<u64>,
}

impl PipelineSync {
    /// Build the synchronization state for `n` threads grouped into teams
    /// of `team_size` (the last team may be smaller if `n` is not a
    /// multiple — the executors never do that, but the state supports it).
    ///
    /// # Panics
    /// Panics unless `1 <= dl <= du` and `team_size >= 1`.
    pub fn new(n: usize, team_size: usize, dl: u64, du: u64, dt: u64) -> Self {
        assert!(n > 0, "pipeline needs at least one thread");
        assert!(team_size >= 1, "team size must be >= 1");
        assert!(dl >= 1, "d_l must be >= 1 to avert data races");
        assert!(du >= dl, "d_u must be >= d_l or the pipeline deadlocks");
        let mut dl_eff = vec![dl; n];
        let mut du_eff = vec![du; n];
        for i in 0..n {
            let is_team_front = i % team_size == 0;
            let is_team_rear = (i + 1) % team_size == 0;
            if is_team_front && i > 0 {
                dl_eff[i] = dl + dt;
            }
            if is_team_rear && i + 1 < n {
                du_eff[i] = du + dt;
            }
        }
        Self {
            counters: ProgressCounters::new(n),
            n,
            dl_eff,
            du_eff,
        }
    }

    pub fn from_mode(n: usize, team_size: usize, mode: SyncMode) -> Option<Self> {
        match mode {
            SyncMode::Barrier => None,
            SyncMode::Relaxed { dl, du, dt } => Some(Self::new(n, team_size, dl, du, dt)),
        }
    }

    pub fn threads(&self) -> usize {
        self.n
    }

    #[cfg(test)]
    fn effective_dl(&self, i: usize) -> u64 {
        self.dl_eff[i]
    }

    #[cfg(test)]
    fn effective_du(&self, i: usize) -> u64 {
        self.du_eff[i]
    }

    /// Block (spinning) until thread `i` may start its next block, out of
    /// `total` blocks in this team sweep.
    ///
    /// The lower-distance requirement saturates at `total`: once the
    /// predecessor has completed *every* block it can no longer race with
    /// anyone, so waiting for a lead of `d_l` would deadlock the tail of
    /// the sweep (visible already at `d_l = 2` or with team delays).
    ///
    /// Both conditions are monotone in the other threads' counters, so
    /// checking them one after the other is sound.
    #[inline]
    pub fn wait_for_turn(&self, i: usize, total: u64) {
        let my = self.counters.get(i);
        if i > 0 {
            let need = (my + self.dl_eff[i]).min(total);
            spin_wait_until(|| self.counters.get(i - 1) >= need);
        }
        if i + 1 < self.n {
            let du = self.du_eff[i];
            spin_wait_until(|| my <= self.counters.get(i + 1) + du);
        }
    }

    /// Publish completion of one block by thread `i`.
    #[inline]
    pub fn complete_block(&self, i: usize) {
        self.counters.increment(i);
    }

    /// Current count of thread `i` (diagnostics).
    pub fn count(&self, i: usize) -> u64 {
        self.counters.get(i)
    }

    /// Reset all counters for the next team sweep. Caller must guarantee
    /// quiescence (every executor wraps this in a barrier window).
    pub fn reset(&self) {
        self.counters.reset();
    }

    /// Mark thread `i` as having completed all `total` blocks without doing
    /// work — used for threads whose stages fall outside a partial team
    /// sweep, so their successors and predecessors never wait on them.
    pub fn mark_complete(&self, i: usize, total: u64) {
        self.counters.set(i, total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn effective_distances_apply_team_delay() {
        // 6 threads, teams of 3, dl=1, du=4, dt=8.
        let p = PipelineSync::new(6, 3, 1, 4, 8);
        // Thread 3 is the front of team 1 -> dl + dt.
        assert_eq!(p.effective_dl(3), 9);
        // Thread 2 is the rear of team 0 -> du + dt.
        assert_eq!(p.effective_du(2), 12);
        // Interior threads keep the base distances.
        assert_eq!(p.effective_dl(1), 1);
        assert_eq!(p.effective_du(1), 4);
        // Overall front's dl and overall rear's du are unused but benign.
        assert_eq!(p.effective_dl(0), 1);
        assert_eq!(p.effective_du(5), 4);
    }

    #[test]
    #[should_panic(expected = "d_u must be >= d_l")]
    fn du_smaller_than_dl_rejected() {
        let _ = PipelineSync::new(4, 2, 3, 2, 0);
    }

    #[test]
    #[should_panic(expected = "d_l must be >= 1")]
    fn zero_dl_rejected() {
        let _ = PipelineSync::new(4, 2, 0, 2, 0);
    }

    #[test]
    fn single_thread_never_waits() {
        let p = PipelineSync::new(1, 1, 1, 1, 0);
        for _ in 0..10 {
            p.wait_for_turn(0, 10);
            p.complete_block(0);
        }
        assert_eq!(p.count(0), 10);
    }

    /// Run a full pipeline over `blocks` blocks and assert Eq. 3 held at
    /// every step: a thread observed starting block j had its predecessor
    /// at >= j + dl_eff, and never led its successor by more than
    /// du_eff + 1 (the +1 because the lead is checked before starting,
    /// then one more completion happens).
    fn run_pipeline_and_check(n: usize, team: usize, dl: u64, du: u64, dt: u64, blocks: u64) {
        let p = PipelineSync::new(n, team, dl, du, dt);
        // stage_progress[b] = number of stages completed on block b.
        let progress: Vec<AtomicU64> = (0..blocks).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|s| {
            for i in 0..n {
                let p = &p;
                let progress = &progress;
                s.spawn(move || {
                    for j in 0..blocks {
                        p.wait_for_turn(i, blocks);
                        if i > 0 {
                            let pred = p.count(i - 1);
                            assert!(
                                pred >= (j + p.effective_dl(i)).min(blocks),
                                "thread {i} started block {j} with pred at {pred}"
                            );
                        }
                        // The block must have been through exactly the
                        // previous stages: stage ordering is the property
                        // the executors' memory safety rests on.
                        let seen = progress[j as usize].load(Ordering::Acquire);
                        assert_eq!(seen, i as u64, "block {j} reached thread {i} early");
                        progress[j as usize].store(i as u64 + 1, Ordering::Release);
                        p.complete_block(i);
                        if i + 1 < n {
                            let lead = p.count(i) - p.count(i + 1).min(p.count(i));
                            assert!(
                                lead <= p.effective_du(i) + 1,
                                "thread {i} lead {lead} exceeds du+1"
                            );
                        }
                    }
                });
            }
        });
        for (j, st) in progress.iter().enumerate() {
            assert_eq!(st.load(Ordering::Relaxed), n as u64, "block {j} incomplete");
        }
    }

    #[test]
    fn pipeline_orders_stages_lockstep() {
        run_pipeline_and_check(4, 2, 1, 1, 0, 50);
    }

    #[test]
    fn pipeline_orders_stages_loose() {
        run_pipeline_and_check(4, 2, 1, 4, 0, 50);
    }

    #[test]
    fn pipeline_orders_stages_with_team_delay() {
        run_pipeline_and_check(6, 3, 1, 4, 3, 40);
    }

    #[test]
    fn pipeline_orders_stages_wide_and_loose() {
        run_pipeline_and_check(8, 4, 2, 6, 1, 30);
    }

    #[test]
    fn mark_complete_lets_successors_finish() {
        // Thread 1 sits out; thread 2 must still be able to run when the
        // harness marks thread 1 as complete.
        let p = PipelineSync::new(3, 3, 1, 2, 0);
        p.mark_complete(1, 10);
        std::thread::scope(|s| {
            let p = &p;
            s.spawn(move || {
                for _ in 0..10 {
                    p.wait_for_turn(0, 10);
                    p.complete_block(0);
                }
            });
            s.spawn(move || {
                for _ in 0..10 {
                    p.wait_for_turn(2, 10);
                    p.complete_block(2);
                }
            });
        });
        assert_eq!(p.count(0), 10);
        assert_eq!(p.count(2), 10);
    }

    #[test]
    fn reset_restores_zero_state() {
        let p = PipelineSync::new(2, 2, 1, 1, 0);
        p.complete_block(0);
        p.complete_block(0);
        p.reset();
        assert_eq!(p.count(0), 0);
        assert_eq!(p.count(1), 0);
    }

    #[test]
    fn relaxed_default_matches_paper() {
        assert_eq!(
            SyncMode::relaxed_default(),
            SyncMode::Relaxed {
                dl: 1,
                du: 4,
                dt: 0
            }
        );
    }
}
