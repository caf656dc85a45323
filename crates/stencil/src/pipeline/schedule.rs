//! The per-worker block schedule of one pipelined team sweep, shared by
//! the two-grid and compressed executors (and, through the safe
//! [`super::exec::run_team_sweep_op_on`], by the distributed solver's
//! shrinking-domain team sweeps),
//! and the one place that decides which sweeps a team sweep holds and
//! which of its stages a thread applies.
//!
//! Before this helper existed the barrier-vs-relaxed dispatch below was
//! copy-pasted into every executor; the schedules must stay literally
//! identical for the bitwise guarantees to mean anything, so they now
//! live in exactly one place.
//!
//! # `T` is a cap, not a quota
//!
//! `PipelineConfig::updates_per_thread` fixes the deepest team sweep
//! (`depth = n·t·T` stages) and nothing else. A run of `sweeps` sweeps is
//! cut by [`team_sweeps`] into `⌈sweeps / depth⌉` team sweeps whose
//! depths differ by at most one, and [`thread_stages`] gives every thread
//! of a team sweep a contiguous, near-equal run of its stages (counts
//! differ by at most one, never above `T`). With a fixed quota of `T`
//! stages per thread, 12 sweeps at depth 8 ran their last 4 stages on
//! thread 0 alone while the rest of the team idled.

use std::ops::Range;

use tb_runtime::sync::{PipelineSync, SpinBarrier};

use crate::baseline::slab;

/// The team sweeps of a run of `sweeps` sweeps on a pipeline `depth`
/// stages deep: team sweep `i` performs global sweeps `out[i]`. As few
/// team sweeps as the depth allows, as equal as possible (the deeper
/// ones first).
pub(crate) fn team_sweeps(sweeps: usize, depth: usize) -> impl Iterator<Item = Range<usize>> {
    let n = sweeps.div_ceil(depth);
    (0..n).map(move |i| {
        let (lo, hi) = slab(sweeps, n, i);
        lo..hi
    })
}

/// The stages pipeline thread `tid` of `threads` applies to every block
/// of a team sweep `stages_now` deep: the same contiguous near-equal
/// split the baseline uses for z-slabs. Empty for the trailing threads
/// of a team sweep shallower than the team.
fn thread_stages(tid: usize, threads: usize, stages_now: usize) -> Range<usize> {
    let (lo, hi) = slab(stages_now, threads, tid);
    lo..hi
}

/// Execute worker `tid`'s share of one team sweep over `nblocks` blocks.
///
/// The worker applies its [`thread_stages`] of the `stages_now` stages
/// to every block.
///
/// * With relaxed sync (`psync = Some`): a barrier pair brackets the
///   counter reset, a worker with no stage of its own in a shallow team
///   sweep reports completion so neighbours never wait for it, and the
///   rest walk the blocks in `order`, gated by Eq. 3 distances.
/// * With a global barrier (`psync = None`): lock-step rounds, worker
///   `tid` handles block `order(r - tid)` in round `r`, one barrier per
///   round.
///
/// `order` maps the worker's k-th turn to a block index (identity for
/// the two-grid executor, reversed on the compressed executor's up
/// sweeps); `work(block, stages)` applies those stages to the block and
/// returns cells updated. Returns this worker's total.
#[allow(clippy::too_many_arguments)]
pub(crate) fn team_sweep_schedule(
    barrier: &SpinBarrier,
    psync: Option<&PipelineSync>,
    tid: usize,
    threads: usize,
    nblocks: usize,
    stages_now: usize,
    order: impl Fn(usize) -> usize,
    mut work: impl FnMut(usize, Range<usize>) -> u64,
) -> u64 {
    let stages = thread_stages(tid, threads, stages_now);
    let mut cells = 0u64;
    match psync {
        Some(psync) => {
            barrier.wait();
            if tid == 0 {
                psync.reset();
            }
            barrier.wait();
            if stages.is_empty() {
                psync.mark_complete(tid, nblocks as u64);
            } else {
                for k in 0..nblocks {
                    let j = order(k);
                    psync.wait_for_turn(tid, nblocks as u64);
                    cells += work(j, stages.clone());
                    psync.complete_block(tid);
                }
            }
        }
        None => {
            // Global barrier after every block update: lock-step rounds,
            // thread `tid` handles turn `r - tid` in round `r`.
            let rounds = nblocks + threads - 1;
            for r in 0..rounds {
                if let Some(k) = r.checked_sub(tid) {
                    if k < nblocks && !stages.is_empty() {
                        cells += work(order(k), stages.clone());
                    }
                }
                barrier.wait();
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn team_sweeps_are_few_near_equal_and_cover_the_run() {
        for depth in 1..=16 {
            for sweeps in 0..=3 * depth + 1 {
                let parts: Vec<_> = team_sweeps(sweeps, depth).collect();
                assert_eq!(parts.len(), sweeps.div_ceil(depth));
                let mut next = 0;
                for r in &parts {
                    assert_eq!(
                        r.start, next,
                        "contiguous: {sweeps} sweeps at depth {depth}"
                    );
                    next = r.end;
                }
                assert_eq!(next, sweeps, "every sweep runs exactly once");
                let lens = parts.iter().map(|r| r.len());
                if let (Some(lo), Some(hi)) = (lens.clone().min(), lens.max()) {
                    assert!(1 <= lo && hi <= depth && hi - lo <= 1, "{parts:?}");
                }
            }
        }
        // The issue's example: 12 sweeps at depth 8 run as 6 + 6, not 8 + 4.
        assert_eq!(team_sweeps(12, 8).collect::<Vec<_>>(), [0..6, 6..12]);
    }

    #[test]
    fn thread_stages_are_contiguous_near_equal_and_capped() {
        for threads in 1..=8 {
            for upt in 1..=4 {
                for stages_now in 1..=threads * upt {
                    let runs: Vec<_> = (0..threads)
                        .map(|tid| thread_stages(tid, threads, stages_now))
                        .collect();
                    let mut next = 0;
                    for r in &runs {
                        assert_eq!(r.start, next);
                        next = r.end;
                    }
                    assert_eq!(next, stages_now, "every stage has one owner");
                    let lens = runs.iter().map(|r| r.len());
                    let (lo, hi) = (lens.clone().min().unwrap(), lens.max().unwrap());
                    assert!(hi <= upt && hi - lo <= 1, "T={upt}: {runs:?}");
                    // Idle threads, if any, are the rear of the pipeline.
                    let first_idle = runs.iter().position(|r| r.is_empty());
                    assert_eq!(first_idle, (stages_now < threads).then_some(stages_now));
                }
            }
        }
        // 4 stages on a team of 2 with T = 4: two each, not four on thread 0.
        assert_eq!(thread_stages(0, 2, 4), 0..2);
        assert_eq!(thread_stages(1, 2, 4), 2..4);
    }
}
