//! Two-grid pipelined temporal blocking executor (paper §1.3, Fig. 1).
//!
//! `n` teams of `t` threads form one pipeline of `n·t` threads; pipeline
//! thread `i` applies a contiguous run of at most `T` updates (stages)
//! to every block, after thread `i - 1`'s and before thread `i + 1`'s.
//! Synchronization is either a global [`SpinBarrier`] after each block
//! update, or the relaxed counter scheme ([`PipelineSync`], Eq. 3).
//!
//! Team sweeps (each advancing the whole grid by up to `n·t·T` Jacobi
//! sweeps) are separated by barriers. `pipeline::schedule` cuts a request
//! into as few team sweeps as the depth allows, of near-equal depth, and
//! deals each one's stages evenly over the threads, so [`run_op_on`]
//! performs *exactly* `sweeps` sweeps for any request and no request
//! leaves part of the team idle.
//!
//! Both entry points ([`run_op_on`], [`run_team_sweep_op_on`]) are safe:
//! each takes `&mut GridPair`, checks what the plan's race-freedom
//! argument needs, builds its own plan and shared views, and makes
//! exactly one dispatch on the persistent [`tb_runtime::Runtime`] whose
//! workers it runs on (the paper's long-lived pinned thread groups —
//! share one runtime across repeated solves to pay the spawn/pin cost
//! once). Core pinning belongs to the runtime: for a one-shot pinned
//! team, build `Runtime::new(&layout)` on the line above the call.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use tb_grid::{AccessKind, GridPair, Real, Region3, RegionAuditor, SharedGrid};
use tb_runtime::Runtime;
use tb_sync::{PipelineSync, SpinBarrier};

use crate::config::PipelineConfig;
use crate::kernel::{self, StoreMode};
use crate::op::StencilOp;
use crate::pipeline::plan::PipelinePlan;
use crate::pipeline::schedule::{team_sweep_schedule, team_sweeps};
use crate::stats::RunStats;

/// Run `sweeps` sweeps of `op` over `pair` with pipelined temporal
/// blocking on the given persistent runtime (which must have at least
/// `cfg.threads()` workers, pinned or not as it was built). On return the
/// result lives in `pair.current(sweeps)`.
pub fn run_op_on<T: Real, Op: StencilOp<T>>(
    rt: &Runtime,
    op: &Op,
    pair: &mut GridPair<T>,
    cfg: &PipelineConfig,
    sweeps: usize,
) -> Result<RunStats, String> {
    cfg.validate(pair.dims())?;
    if sweeps == 0 {
        return Ok(RunStats::new(0, std::time::Duration::ZERO));
    }
    if rt.threads() < cfg.threads() {
        return Err(format!(
            "runtime has {} workers but the pipeline needs {}",
            rt.threads(),
            cfg.threads()
        ));
    }
    let plan = PipelinePlan::uniform(Region3::interior_of(pair.dims()), cfg.block, cfg.stages());
    let sweeps: Vec<Range<usize>> = team_sweeps(sweeps, cfg.stages()).collect();
    let views = pair.shared_views();
    let t0 = Instant::now();
    // SAFETY: the views come from the pair, which stays exclusively
    // borrowed for the call; the uniform plan over the validated
    // interior satisfies the plan geometry contract, `team_sweeps` cuts
    // no team sweep deeper than it, and the runtime size is checked
    // above.
    let cells = unsafe { run_team_sweeps(rt, op, &views, &plan, cfg, &sweeps) };
    Ok(RunStats::new(cells, t0.elapsed()))
}

/// One pipelined team sweep of `pair` over per-stage domains — the entry
/// point for the distributed solver, whose stage domains are shrinking
/// ghost rings. Stage `s` is global sweep `base_sweep + s` over
/// `domains[s]` (at most `cfg.stages()` of them), dealt over the threads
/// like any team sweep's, on a runtime of at least `cfg.threads()`
/// workers. Returns the cells updated, or `None` without a dispatch when
/// the chain cannot host a plan ([`PipelinePlan::with_domains`] would
/// panic) or the operator's radius is not the plan's 1.
///
/// Safe: the domains, the plan and the sync distances are checked before
/// the dispatch, which is race-free for any interior chain (see
/// [`super::plan`]); the values are the oracle's when the chain nests as
/// `with_domains` says.
///
/// # Panics
/// Panics if a domain is not interior to `pair`, relaxed sync breaks
/// `1 <= d_l <= d_u`, or there are more than `cfg.stages()` domains or
/// fewer than `cfg.threads()` runtime workers.
pub fn run_team_sweep_op_on<T: Real, Op: StencilOp<T>>(
    rt: &Runtime,
    op: &Op,
    pair: &mut GridPair<T>,
    domains: &[Region3],
    cfg: &PipelineConfig,
    base_sweep: usize,
) -> Option<u64> {
    kernel::assert_interior(pair.dims(), domains);
    if Op::RADIUS != 1 {
        return None;
    }
    let plan = PipelinePlan::try_with_domains(domains.to_vec(), cfg.block)?;
    let threads = cfg.threads();
    assert!(
        rt.threads() >= threads,
        "runtime has {} workers but the team sweep needs {threads}",
        rt.threads()
    );
    assert!(
        domains.len() <= cfg.stages(),
        "{} stages exceed the pipeline depth {}",
        domains.len(),
        cfg.stages()
    );
    let team_sweep = base_sweep..base_sweep + domains.len();
    let views = pair.shared_views();
    // SAFETY: the views come from the pair, which stays exclusively
    // borrowed for the call; the domains are interior and the plan over
    // them is constructible, so its regions satisfy the plan's
    // disjointness argument; the team sweep is no deeper than the plan
    // and the runtime size are checked above, and `PipelineSync::new`
    // asserts `d_l >= 1` before the dispatch.
    let cells = unsafe { run_team_sweeps(rt, op, &views, &plan, cfg, &[team_sweep]) };
    Some(cells)
}

/// The dispatch body of both entry points: one [`Runtime::run`] of
/// `cfg.threads()` workers that performs the team sweeps `sweeps` in
/// order — team sweep `ts` applies stages `0..ts.len()` of `plan` as
/// global sweeps `ts` — with the barrier, [`PipelineSync`], auditor and
/// cell counter set up once. Returns the number of cell updates.
///
/// # Safety
/// `views` must point at live allocations of the plan's grid extents
/// that no other thread accesses during the call, the plan's domains
/// must be interior to them, the runtime must have at least
/// `cfg.threads()` workers and no team sweep may be deeper than `plan`.
unsafe fn run_team_sweeps<T: Real, Op: StencilOp<T>>(
    rt: &Runtime,
    op: &Op,
    views: &[SharedGrid<T>; 2],
    plan: &PipelinePlan,
    cfg: &PipelineConfig,
    sweeps: &[Range<usize>],
) -> u64 {
    let threads = cfg.threads();
    let nblocks = plan.num_blocks();
    let barrier = SpinBarrier::new(threads);
    let psync = PipelineSync::from_mode(threads, cfg.team_size, cfg.sync);
    let auditor = cfg.audit.then(RegionAuditor::new);
    let total_cells = AtomicU64::new(0);
    rt.run(threads, &|tid| {
        let mut cells = 0u64;
        for ts in sweeps {
            cells += team_sweep_schedule(
                &barrier,
                psync.as_ref(),
                tid,
                threads,
                nblocks,
                ts.len(),
                |k| k,
                |j, stages| {
                    update_block(op, views, plan, auditor.as_ref(), tid, j, ts.start, stages)
                },
            );
        }
        total_cells.fetch_add(cells, Ordering::Relaxed);
    });
    total_cells.into_inner()
}

/// Apply this thread's consecutive `stages` to block `j` of the team
/// sweep starting at global sweep `base`. Returns cells updated.
#[allow(clippy::too_many_arguments)]
fn update_block<T: Real, Op: StencilOp<T>>(
    op: &Op,
    views: &[SharedGrid<T>; 2],
    plan: &PipelinePlan,
    auditor: Option<&RegionAuditor>,
    tid: usize,
    j: usize,
    base: usize,
    stages: Range<usize>,
) -> u64 {
    let mut cells = 0u64;
    for stage in stages {
        let sweep = base + stage;
        let region = plan.region(j, stage, -1);
        if region.is_empty() {
            continue;
        }
        let (sg, dg) = (sweep % 2, (sweep + 1) % 2);
        let claims = auditor.map(|a| {
            let written = kernel::written_box(&region, views[dg].dims().nx);
            let read = a.claim(tid, sg, AccessKind::Read, region.expand(1));
            let write = a.claim(tid, dg, AccessKind::Write, written);
            (read, write)
        });
        // SAFETY: the plan geometry plus the synchronization distances
        // guarantee the disjointness contract of `update_region_shared_op`
        // (see plan module docs; re-checked here when auditing is on).
        unsafe {
            kernel::update_region_shared_op(op, &views[sg], &views[dg], &region, StoreMode::Normal)
        };
        if let (Some(a), Some((r, w))) = (auditor, claims) {
            a.release(r);
            a.release(w);
        }
        cells += region.count() as u64;
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline;
    use crate::op::{Avg27, Jacobi6, Jacobi7};
    use tb_grid::{init, norm, Dims3, GridPair};
    use tb_sync::SyncMode;

    fn reference(dims: Dims3, seed: u64, sweeps: usize) -> tb_grid::Grid3<f64> {
        let mut pair = GridPair::from_initial(init::random(dims, seed));
        baseline::seq_sweeps_op(&Jacobi6, &mut pair, sweeps);
        pair.current(sweeps).clone()
    }

    fn run_cfg(dims: Dims3, seed: u64, sweeps: usize, cfg: &PipelineConfig) -> tb_grid::Grid3<f64> {
        let mut pair = GridPair::from_initial(init::random(dims, seed));
        let rt = Runtime::with_threads(cfg.threads());
        run_op_on(&rt, &Jacobi6, &mut pair, cfg, sweeps).unwrap();
        pair.current(sweeps).clone()
    }

    fn assert_matches_reference(dims: Dims3, sweeps: usize, cfg: &PipelineConfig) {
        let want = reference(dims, 42, sweeps);
        let got = run_cfg(dims, 42, sweeps, cfg);
        norm::assert_grids_identical(
            &want,
            &got,
            &Region3::whole(dims),
            &format!("pipelined {sweeps} sweeps vs reference"),
        );
    }

    fn audit_cfg(
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
            scheme: crate::config::GridScheme::TwoGrid,
            audit: true,
        }
    }

    #[test]
    fn exact_multiple_of_depth_relaxed() {
        let cfg = audit_cfg(
            2,
            1,
            1,
            SyncMode::Relaxed {
                dl: 1,
                du: 2,
                dt: 0,
            },
            [8, 8, 8],
        );
        // depth = 2; 4 sweeps = 2 team sweeps.
        assert_matches_reference(Dims3::cube(20), 4, &cfg);
    }

    #[test]
    fn partial_final_team_sweep() {
        let cfg = audit_cfg(2, 1, 2, SyncMode::relaxed_default(), [8, 8, 8]);
        // depth = 4; 6 sweeps = two team sweeps of 3 stages (2 + 1).
        assert_matches_reference(Dims3::cube(20), 6, &cfg);
    }

    #[test]
    fn short_and_odd_requests_on_the_default_deep_pipeline() {
        // depth 8 on a team of 2: 1 and 3 sweeps leave thread 1 with
        // fewer stages than thread 0 (or none), 12 runs as 6 + 6, 17 as
        // 6 + 6 + 5.
        let mut cfg = PipelineConfig::default_for(2, 1);
        cfg.audit = true;
        for sweeps in [1, 3, 5, 8, 12, 17] {
            assert_matches_reference(Dims3::new(21, 20, 19), sweeps, &cfg);
        }
    }

    #[test]
    fn barrier_mode_matches() {
        let cfg = audit_cfg(3, 1, 1, SyncMode::Barrier, [8, 8, 8]);
        assert_matches_reference(Dims3::cube(20), 5, &cfg);
    }

    #[test]
    fn two_teams_with_team_delay() {
        let cfg = audit_cfg(
            2,
            2,
            1,
            SyncMode::Relaxed {
                dl: 1,
                du: 4,
                dt: 2,
            },
            [8, 8, 8],
        );
        // depth = 4.
        assert_matches_reference(Dims3::cube(22), 8, &cfg);
    }

    #[test]
    fn deep_pipeline_multiple_updates() {
        let cfg = audit_cfg(2, 2, 2, SyncMode::relaxed_default(), [10, 10, 10]);
        // depth = 8 on a 24^3 grid (interior 22, blocks 10 >= 8).
        assert_matches_reference(Dims3::cube(24), 11, &cfg);
    }

    #[test]
    fn lockstep_du_equals_dl() {
        let cfg = audit_cfg(
            4,
            1,
            1,
            SyncMode::Relaxed {
                dl: 1,
                du: 1,
                dt: 0,
            },
            [8, 8, 8],
        );
        assert_matches_reference(Dims3::cube(18), 4, &cfg);
    }

    #[test]
    fn loose_pipeline_large_du() {
        let cfg = audit_cfg(
            4,
            1,
            1,
            SyncMode::Relaxed {
                dl: 1,
                du: 16,
                dt: 0,
            },
            [8, 8, 8],
        );
        assert_matches_reference(Dims3::cube(18), 4, &cfg);
    }

    #[test]
    fn asymmetric_paper_style_blocks() {
        let cfg = audit_cfg(2, 1, 2, SyncMode::relaxed_default(), [16, 5, 5]);
        assert_matches_reference(Dims3::new(20, 17, 13), 9, &cfg);
    }

    #[test]
    fn single_thread_pipeline_degenerates_to_blocked_sweeps() {
        let cfg = audit_cfg(1, 1, 3, SyncMode::relaxed_default(), [8, 8, 8]);
        assert_matches_reference(Dims3::cube(16), 7, &cfg);
    }

    #[test]
    fn zero_sweeps_is_noop() {
        let dims = Dims3::cube(16);
        let initial: tb_grid::Grid3<f64> = init::random(dims, 1);
        let mut pair = GridPair::from_initial(initial.clone());
        let cfg = PipelineConfig::default_for(2, 1);
        let rt = Runtime::with_threads(cfg.threads());
        let stats = run_op_on(&rt, &Jacobi6, &mut pair, &cfg, 0).unwrap();
        assert_eq!(stats.cell_updates, 0);
        norm::assert_grids_identical(&initial, pair.current(0), &Region3::whole(dims), "noop");
    }

    #[test]
    fn stats_count_matches_sweeps_times_interior() {
        let dims = Dims3::cube(20);
        let mut pair: GridPair<f64> = GridPair::from_initial(init::random(dims, 3));
        let cfg = audit_cfg(2, 1, 1, SyncMode::relaxed_default(), [9, 9, 9]);
        let sweeps = 6;
        let rt = Runtime::with_threads(cfg.threads());
        let stats = run_op_on(&rt, &Jacobi6, &mut pair, &cfg, sweeps).unwrap();
        assert_eq!(stats.cell_updates, (sweeps * dims.interior_len()) as u64);
    }

    #[test]
    fn invalid_config_is_reported() {
        let dims = Dims3::cube(10);
        let mut pair: GridPair<f64> = GridPair::zeroed(dims);
        let mut cfg = PipelineConfig::default_for(2, 1);
        cfg.updates_per_thread = 50;
        let rt = Runtime::with_threads(cfg.threads());
        assert!(run_op_on(&rt, &Jacobi6, &mut pair, &cfg, 2).is_err());
    }

    #[test]
    fn reused_runtime_reproduces_the_reference_every_round() {
        let dims = Dims3::cube(20);
        let cfg = audit_cfg(2, 1, 2, SyncMode::relaxed_default(), [8, 8, 8]);
        let want = reference(dims, 9, 6);
        let rt = Runtime::with_threads(cfg.threads());
        for _ in 0..3 {
            let mut pair = GridPair::from_initial(init::random(dims, 9));
            run_op_on(&rt, &Jacobi6, &mut pair, &cfg, 6).unwrap();
            norm::assert_grids_identical(
                &want,
                pair.current(6),
                &Region3::whole(dims),
                "shared runtime",
            );
        }
    }

    #[test]
    fn undersized_runtime_is_rejected() {
        let dims = Dims3::cube(20);
        let mut pair: GridPair<f64> = GridPair::from_initial(init::random(dims, 1));
        let cfg = audit_cfg(3, 1, 1, SyncMode::relaxed_default(), [8, 8, 8]);
        let rt = Runtime::with_threads(2);
        let err = run_op_on(&rt, &Jacobi6, &mut pair, &cfg, 2).unwrap_err();
        assert!(err.contains("workers"), "{err}");
    }

    /// Runs [`run_team_sweep_op_on`] over `chain` from sweep 1 (the state
    /// in B) on a 20³ pair and returns whether the chain was accepted.
    /// An accepted chain must give, in both buffers, bitwise what plain
    /// region sweeps over the same chain give, and count its cells; a
    /// refused one must leave the pair untouched.
    fn team_sweep_accepts<T: Real, Op: StencilOp<T>>(
        op: &Op,
        cfg: &PipelineConfig,
        chain: &[Region3],
    ) -> bool {
        let dims = Dims3::cube(20);
        let start = || {
            let mut pair = GridPair::from_initial(init::random::<T>(dims, 61));
            pair.swap();
            pair
        };
        let mut got = start();
        let rt = Runtime::with_threads(cfg.threads());
        let Some(cells) = run_team_sweep_op_on(&rt, op, &mut got, chain, cfg, 1) else {
            let untouched = start();
            for s in 0..2 {
                norm::assert_grids_identical(
                    untouched.current(s),
                    got.current(s),
                    &Region3::whole(dims),
                    "refused chain",
                );
            }
            return false;
        };
        let mut want = start();
        for (s, domain) in chain.iter().enumerate() {
            let (src, dst) = want.src_dst(1 + s);
            kernel::update_region_op(op, src, dst, domain);
        }
        let total: usize = chain.iter().map(Region3::count).sum();
        assert_eq!(cells, total as u64, "{}", op.name());
        for s in 0..2 {
            norm::assert_grids_identical(
                want.current(s),
                got.current(s),
                &Region3::whole(dims),
                &format!("team sweep {} over {chain:?}", op.name()),
            );
        }
        true
    }

    /// `stages` domains of the 20³ interior, shrinking by one cell per
    /// stage on the faces of `axes` (the distributed solver's rings).
    fn shrinking(stages: usize, axes: &[usize]) -> Vec<Region3> {
        let interior = Region3::interior_of(Dims3::cube(20));
        (0..stages)
            .map(|s| {
                let mut d = interior;
                for &a in axes {
                    d.lo[a] += s;
                    d.hi[a] -= s;
                }
                d
            })
            .collect()
    }

    #[test]
    fn team_sweep_matches_region_sweeps_on_shrinking_chains() {
        let configs = [
            audit_cfg(2, 1, 2, SyncMode::relaxed_default(), [8, 8, 8]),
            audit_cfg(2, 2, 1, SyncMode::Barrier, [6, 5, 7]),
        ];
        let chains = [
            shrinking(4, &[]),
            shrinking(4, &[0, 1, 2]),
            shrinking(4, &[0]),
            shrinking(4, &[2]),
            shrinking(2, &[1, 2]), // a partial final cycle
        ];
        for cfg in &configs {
            for chain in &chains {
                assert!(team_sweep_accepts::<f64, _>(&Jacobi6, cfg, chain));
                assert!(team_sweep_accepts::<f64, _>(&Avg27, cfg, chain));
                assert!(team_sweep_accepts::<f32, _>(
                    &Jacobi7::heat(0.12),
                    cfg,
                    chain
                ));
            }
        }
    }

    #[test]
    fn team_sweep_answers_constructible_as_the_distributed_fallback_did() {
        // The distributed solver used to decide this itself, before the
        // call: no empty stage domain, and per dimension a block edge
        // (clamped to the first domain) at least the stage count, or a
        // single block.
        let cfg = |block| audit_cfg(2, 1, 2, SyncMode::relaxed_default(), block);
        let mut thin = shrinking(4, &[1]);
        for d in &mut thin {
            d.hi[0] = d.lo[0] + 5; // one 3-cell block absorbs x
        }
        let table = [
            (
                "empty domain",
                cfg([8; 3]),
                vec![shrinking(1, &[])[0], Region3::empty()],
                false,
            ),
            (
                "block edge < stages",
                cfg([3, 8, 8]),
                shrinking(4, &[0, 1, 2]),
                false,
            ),
            (
                "single block per dim",
                cfg([64; 3]),
                shrinking(4, &[0, 1, 2]),
                true,
            ),
            (
                "normal shrinking ring",
                cfg([8; 3]),
                shrinking(4, &[0, 1, 2]),
                true,
            ),
            ("short edge, one block", cfg([3, 8, 8]), thin, true),
            (
                "short edge, partial cycle",
                cfg([3, 8, 8]),
                shrinking(3, &[0, 1, 2]),
                true,
            ),
        ];
        for (what, cfg, chain, was_constructible) in table {
            let accepted = team_sweep_accepts::<f64, _>(&Jacobi6, &cfg, &chain);
            assert_eq!(accepted, was_constructible, "{what}");
        }
    }

    #[test]
    fn team_sweep_rejects_a_domain_outside_the_interior() {
        let dims = Dims3::cube(12);
        let chain = [Region3::interior_of(dims), Region3::whole(dims)];
        let cfg = audit_cfg(2, 1, 1, SyncMode::relaxed_default(), [4; 3]);
        let rt = Runtime::with_threads(2);
        kernel::assert_rejects_sweep_1(dims, |pair| {
            run_team_sweep_op_on(&rt, &Jacobi6, pair, &chain, &cfg, 0);
        });
    }

    #[test]
    #[should_panic(expected = "d_l must be >= 1")]
    fn team_sweep_rejects_a_zero_lower_distance() {
        let sync = SyncMode::Relaxed {
            dl: 0,
            du: 2,
            dt: 0,
        };
        let cfg = audit_cfg(2, 1, 1, sync, [8; 3]);
        team_sweep_accepts::<f64, _>(&Jacobi6, &cfg, &shrinking(2, &[]));
    }

    #[test]
    fn team_sweep_on_a_chain_that_is_not_nested_claims_disjoint_regions() {
        // Stages that grow and shift: the values are not the oracle's,
        // but the auditor must see no overlapping claims (see the plan's
        // race-freedom argument).
        let chain = [
            Region3::new([3, 3, 3], [15, 15, 15]),
            Region3::new([1, 2, 4], [17, 16, 17]),
            Region3::new([5, 1, 1], [12, 17, 14]),
            Region3::new([2, 4, 2], [16, 13, 16]),
        ];
        let cfg = audit_cfg(4, 1, 1, SyncMode::relaxed_default(), [4, 5, 4]);
        let mut pair: GridPair<f64> = GridPair::from_initial(init::random(Dims3::cube(20), 7));
        let rt = Runtime::with_threads(4);
        let cells = run_team_sweep_op_on(&rt, &Jacobi6, &mut pair, &chain, &cfg, 0);
        let total: usize = chain.iter().map(Region3::count).sum();
        assert_eq!(cells, Some(total as u64));
    }
}
