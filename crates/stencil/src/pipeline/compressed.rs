//! Compressed-grid pipelined executor (paper §1.3).
//!
//! One allocation holds the whole state; every update writes its result
//! displaced by −1 in each coordinate during *down* team sweeps and by +1
//! during *up* team sweeps, which run in reversed block order with
//! descending row loops (the paper used SSE intrinsics here because its
//! compiler refused to vectorize backward loops; LLVM has no such
//! trouble). Boundary cells are carried along by copying — each stage's
//! region is extended with the adjacent boundary "shell"
//! ([`PipelinePlan::region_with_shell`]), so every frame a reader ever
//! consults contains valid Dirichlet values.
//!
//! Besides saving nearly half the memory, the paper notes non-temporal
//! stores are pointless here: blocks are evicted naturally after their
//! `n·t·T` in-cache updates.
//!
//! Like the two-grid executor, the one entry point takes the operator
//! and the persistent [`tb_runtime::Runtime`] it runs on.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use tb_grid::{AccessKind, CompressedGrid, Real, Region3, RegionAuditor};
use tb_runtime::Runtime;
use tb_sync::{PipelineSync, SpinBarrier};

use crate::config::PipelineConfig;
use crate::kernel;
use crate::op::StencilOp;
use crate::pipeline::plan::PipelinePlan;
use crate::pipeline::schedule::{team_sweep_schedule, team_sweeps};
use crate::stats::RunStats;

/// Run `sweeps` sweeps of `op` on a compressed grid with pipelined
/// temporal blocking, executing on the given persistent runtime (at
/// least `cfg.threads()` workers). The grid must start at displacement 0
/// and have `margin >= cfg.stages()`; on return its displacement records
/// where the data landed.
pub fn run_compressed_op_on<T: Real, Op: StencilOp<T>>(
    rt: &Runtime,
    op: &Op,
    cg: &mut CompressedGrid<T>,
    cfg: &PipelineConfig,
    sweeps: usize,
) -> Result<RunStats, String> {
    let logical = cg.logical_dims();
    cfg.validate(logical)?;
    let depth = cfg.stages();
    if cg.margin() < depth {
        return Err(format!(
            "compressed grid margin {} is smaller than pipeline depth {depth}",
            cg.margin()
        ));
    }
    if cg.displacement() != 0 {
        return Err("compressed run must start at displacement 0".into());
    }
    if sweeps == 0 {
        return Ok(RunStats::new(0, std::time::Duration::ZERO));
    }
    let threads = cfg.threads();
    if rt.threads() < threads {
        return Err(format!(
            "runtime has {} workers but the pipeline needs {threads}",
            rt.threads()
        ));
    }

    let interior = Region3::interior_of(logical);
    let plan = PipelinePlan::uniform(interior, cfg.block, depth);
    let nblocks = plan.num_blocks();
    let margin = cg.margin();

    let barrier = SpinBarrier::new(threads);
    let psync = PipelineSync::from_mode(threads, cfg.team_size, cfg.sync);
    let auditor = cfg.audit.then(RegionAuditor::new);
    let total_cells = AtomicU64::new(0);
    let view = cg.shared();

    let frames: Vec<_> = frames(sweeps, depth, margin).collect();
    let t0 = Instant::now();
    rt.run(threads, &|tid| {
        let mut my_cells = 0u64;
        for &(ref ts, frame) in &frames {
            let down = frame.down;
            my_cells += team_sweep_schedule(
                &barrier,
                psync.as_ref(),
                tid,
                threads,
                nblocks,
                ts.len(),
                |k| if down { k } else { nblocks - 1 - k },
                |j, stages| {
                    update_block(
                        op,
                        &view,
                        &plan,
                        auditor.as_ref(),
                        logical,
                        frame,
                        tid,
                        j,
                        stages,
                    )
                },
            );
        }
        total_cells.fetch_add(my_cells, Ordering::Relaxed);
    });
    let elapsed = t0.elapsed();

    // Record where the data ended up: one past the last team sweep.
    let (ts, last) = frames
        .last()
        .expect("sweeps > 0 gives at least one team sweep");
    cg.set_displacement(last.offset(ts.len()) as i64 - margin as i64);
    Ok(RunStats::new(total_cells.load(Ordering::Relaxed), elapsed))
}

/// Where a team sweep finds the data: the frame offset (`physical =
/// logical + offset`) its stage 0 reads, and which way its stages move.
#[derive(Clone, Copy)]
struct Frame {
    start: usize,
    down: bool,
}

impl Frame {
    /// Offset of the frame stage `stage` reads; it writes
    /// `offset(stage + 1)`.
    fn offset(self, stage: usize) -> usize {
        if self.down {
            self.start - stage
        } else {
            self.start + stage
        }
    }
}

/// The team sweeps of a run with the frame each starts from: down and up
/// alternate from offset `margin` (displacement 0). [`team_sweeps`] never
/// follows a team sweep by a deeper one, so the offset stays within
/// `margin - depth ..= margin`.
fn frames(
    sweeps: usize,
    depth: usize,
    margin: usize,
) -> impl Iterator<Item = (Range<usize>, Frame)> {
    let mut start = margin;
    team_sweeps(sweeps, depth).enumerate().map(move |(i, ts)| {
        let frame = Frame {
            start,
            down: i % 2 == 0,
        };
        start = frame.offset(ts.len());
        (ts, frame)
    })
}

/// Apply thread `tid`'s `stages` to block `j`; returns cells produced
/// (stencil updates only, boundary copies excluded from the LUP count).
#[allow(clippy::too_many_arguments)]
fn update_block<T: Real, Op: StencilOp<T>>(
    op: &Op,
    view: &tb_grid::SharedGrid<T>,
    plan: &PipelinePlan,
    auditor: Option<&RegionAuditor>,
    logical: tb_grid::Dims3,
    frame: Frame,
    tid: usize,
    j: usize,
    stages: Range<usize>,
) -> u64 {
    let mut cells = 0u64;
    let dir: i64 = if frame.down { -1 } else { 1 };
    for stage in stages {
        let (src_off, dst_off) = (frame.offset(stage), frame.offset(stage + 1));
        let shell = plan.region_with_shell(j, stage, dir);
        if shell.is_empty() {
            continue;
        }
        let claims = auditor.map(|a| {
            let s = shell.shifted([src_off as i64; 3]);
            let d = shell.shifted([dst_off as i64; 3]);
            let r1 = a.claim(tid, 0, AccessKind::Read, s.expand(1));
            let w = a.claim(tid, 0, AccessKind::Write, d);
            (r1, w)
        });
        // SAFETY: plan geometry + sync distances give the disjointness
        // contract (see plan docs); iteration order matches the shift
        // direction as update_region_compressed requires.
        unsafe {
            kernel::update_region_compressed_op(
                op,
                view,
                logical,
                &shell,
                src_off,
                dst_off,
                !frame.down,
            );
        }
        if let (Some(a), Some((r1, w))) = (auditor, claims) {
            a.release(r1);
            a.release(w);
        }
        cells += plan.region(j, stage, dir).count() as u64;
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline;
    use crate::config::GridScheme;
    use crate::op::Jacobi6;
    use tb_grid::{init, norm, Dims3, GridPair};
    use tb_sync::SyncMode;

    fn reference(dims: Dims3, seed: u64, sweeps: usize) -> tb_grid::Grid3<f64> {
        let mut pair = GridPair::from_initial(init::random(dims, seed));
        baseline::seq_sweeps_op(&Jacobi6, &mut pair, sweeps);
        pair.current(sweeps).clone()
    }

    fn cfg(
        team: usize,
        teams: usize,
        upt: usize,
        sync: SyncMode,
        block: [usize; 3],
    ) -> PipelineConfig {
        PipelineConfig {
            team_size: team,
            n_teams: teams,
            updates_per_thread: upt,
            block,
            sync,
            scheme: GridScheme::Compressed,
            audit: true,
        }
    }

    fn assert_compressed_matches(dims: Dims3, sweeps: usize, cfg: &PipelineConfig) {
        let want = reference(dims, 77, sweeps);
        let initial = init::random(dims, 77);
        let mut cg = CompressedGrid::from_grid(&initial, cfg.stages());
        let rt = Runtime::with_threads(cfg.threads());
        run_compressed_op_on(&rt, &Jacobi6, &mut cg, cfg, sweeps).unwrap();
        let got = cg.to_grid();
        norm::assert_grids_identical(
            &want,
            &got,
            &Region3::whole(dims),
            &format!("compressed {sweeps} sweeps"),
        );
    }

    #[test]
    fn one_full_down_sweep() {
        let c = cfg(2, 1, 1, SyncMode::relaxed_default(), [8, 8, 8]);
        assert_compressed_matches(Dims3::cube(18), 2, &c); // depth 2
    }

    #[test]
    fn down_and_up_sweeps() {
        let c = cfg(2, 1, 1, SyncMode::relaxed_default(), [8, 8, 8]);
        assert_compressed_matches(Dims3::cube(18), 4, &c); // two team sweeps
    }

    #[test]
    fn odd_number_of_team_sweeps() {
        let c = cfg(2, 1, 1, SyncMode::relaxed_default(), [8, 8, 8]);
        assert_compressed_matches(Dims3::cube(18), 6, &c); // down,up,down
    }

    #[test]
    fn partial_final_down_sweep() {
        let c = cfg(2, 1, 2, SyncMode::relaxed_default(), [8, 8, 8]);
        // depth 4: 4 full (down) + partial up? 7 = down(4) + up(3 partial)
        assert_compressed_matches(Dims3::cube(20), 7, &c);
    }

    #[test]
    fn partial_first_sweep_smaller_than_depth() {
        let c = cfg(2, 1, 2, SyncMode::relaxed_default(), [8, 8, 8]);
        assert_compressed_matches(Dims3::cube(20), 3, &c); // partial down only
    }

    #[test]
    fn short_and_odd_requests_on_the_default_deep_pipeline() {
        // depth 8 on a team of 2: 12 sweeps run as down 6 + up 6, 17 as
        // 6 + 6 + 5, 3 as one shallow down sweep (2 + 1 stages).
        let mut c = PipelineConfig::default_for(2, 1);
        c.audit = true;
        for sweeps in [1, 3, 5, 8, 12, 17] {
            assert_compressed_matches(Dims3::new(21, 20, 19), sweeps, &c);
        }
    }

    #[test]
    fn frames_alternate_and_stay_inside_the_margin() {
        for depth in 1..=9usize {
            for sweeps in 1..=4 * depth + 1 {
                let mut at = depth; // margin = depth, displacement 0
                for (i, (ts, frame)) in frames(sweeps, depth, depth).enumerate() {
                    assert_eq!((frame.start, frame.down), (at, i % 2 == 0));
                    at = frame.offset(ts.len());
                    assert!(at <= depth, "{sweeps} sweeps at depth {depth}: offset {at}");
                }
            }
        }
    }

    #[test]
    fn barrier_mode_compressed() {
        let c = cfg(3, 1, 1, SyncMode::Barrier, [8, 8, 8]);
        assert_compressed_matches(Dims3::cube(18), 6, &c);
    }

    #[test]
    fn two_teams_compressed() {
        let c = cfg(2, 2, 1, SyncMode::relaxed_default(), [10, 10, 10]);
        assert_compressed_matches(Dims3::cube(24), 8, &c); // depth 4
    }

    #[test]
    fn displacement_bookkeeping() {
        let dims = Dims3::cube(18);
        let c = cfg(2, 1, 1, SyncMode::relaxed_default(), [8, 8, 8]); // depth 2
        let initial: tb_grid::Grid3<f64> = init::random(dims, 1);
        let rt = Runtime::with_threads(c.threads());

        let mut cg = CompressedGrid::from_grid(&initial, 2);
        run_compressed_op_on(&rt, &Jacobi6, &mut cg, &c, 2).unwrap();
        assert_eq!(cg.displacement(), -2); // one down sweep

        let mut cg = CompressedGrid::from_grid(&initial, 2);
        run_compressed_op_on(&rt, &Jacobi6, &mut cg, &c, 4).unwrap();
        assert_eq!(cg.displacement(), 0); // down + up

        let mut cg = CompressedGrid::from_grid(&initial, 2);
        run_compressed_op_on(&rt, &Jacobi6, &mut cg, &c, 3).unwrap();
        assert_eq!(cg.displacement(), -1); // down + partial up
    }

    #[test]
    fn rejects_insufficient_margin() {
        let dims = Dims3::cube(18);
        let c = cfg(2, 1, 2, SyncMode::relaxed_default(), [8, 8, 8]); // depth 4
        let mut cg = CompressedGrid::from_grid(&init::random::<f64>(dims, 1), 2);
        let rt = Runtime::with_threads(c.threads());
        assert!(run_compressed_op_on(&rt, &Jacobi6, &mut cg, &c, 4).is_err());
    }

    #[test]
    fn rejects_nonzero_start_displacement() {
        let dims = Dims3::cube(18);
        let c = cfg(2, 1, 1, SyncMode::relaxed_default(), [8, 8, 8]);
        let mut cg = CompressedGrid::from_grid(&init::random::<f64>(dims, 1), 2);
        cg.set_displacement(-1);
        let rt = Runtime::with_threads(c.threads());
        assert!(run_compressed_op_on(&rt, &Jacobi6, &mut cg, &c, 2).is_err());
    }

    #[test]
    fn memory_usage_is_single_grid() {
        let dims = Dims3::cube(40);
        let cg: CompressedGrid<f64> = CompressedGrid::zeroed(dims, 4);
        let pair_bytes = 2 * dims.bytes(8);
        assert!(cg.bytes() < (pair_bytes as f64 * 0.7) as usize);
    }
}
