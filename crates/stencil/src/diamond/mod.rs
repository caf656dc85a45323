//! Wavefront-diamond temporal blocking (Malas, Hager et al. 2015).
//!
//! The successor of the paper's pipelined scheme: instead of pushing
//! spatial blocks through a thread pipeline (which needs a block size,
//! per-thread update counts and `d_l`/`d_u` distances, and wastes
//! wind-up/wind-down work at team-sweep boundaries), the z × sweep
//! plane is tiled with *diamonds* whose edges follow the stencil's
//! dependence slopes. Geometry and its correctness argument live in
//! [`geometry`]; this module executes the schedule:
//!
//! * tiles of one diamond **row** are mutually independent, so the team
//!   walks the rows in order — one [`tb_sync::SpinBarrier`] epoch per
//!   row — with tiles assigned to workers statically (round-robin, no
//!   work stealing, no per-tile synchronization);
//! * within a tile, a wavefront of `B` rows ([`front_rows`]) travels
//!   along `y` and the tile's sweeps follow it on the two-grid buffers,
//!   each trailing its predecessor by `R` rows
//!   ([`DiamondTile::front_steps`]).
//!
//! Exactly like the pipelined executors, the whole run is one dispatch
//! on a persistent [`tb_runtime::Runtime`] team and results are **bitwise
//! identical** to the sequential oracle for every operator. The
//! in-cache working set is one front window per time level of a tile —
//! `≈ nx·(B + 2R)·(w²/2R + 2R·n)` cells for `n` sweeps, independent of
//! `ny` (see `tb-model`'s diamond estimate) — tuned by the single width
//! parameter `w`.

pub mod geometry;

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use tb_grid::{AccessKind, Dims3, GridPair, Real, Region3, RegionAuditor, SharedGrid};
use tb_runtime::Runtime;
use tb_sync::SpinBarrier;

use crate::kernel::{self, StoreMode};
use crate::op::StencilOp;
use crate::stats::RunStats;

pub use geometry::{front_rows, DiamondRow, DiamondTile, DiamondTiling};

/// Parameters of a diamond-blocked run. Compared to
/// [`crate::PipelineConfig`] there is deliberately little to tune: the
/// team size and one width.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiamondConfig {
    /// Workers executing each diamond row.
    pub threads: usize,
    /// Diamond width `w` in transformed coordinates (`z + R·s`); the
    /// widest z-slab of a tile. Larger widths raise in-cache reuse
    /// (`w / 2R` updates per memory traversal) and the working set (a
    /// few rows of `≈ w²/2R` planes, see the module docs) together.
    pub width: usize,
    /// MWD (Malas et al.'s multi-dimensional intra-tile
    /// parallelization): workers cooperating on *one* tile. `1` is the
    /// classic one-thread-per-tile schedule; larger values split each
    /// tile's z-extent into a per-lane wavefront (one intra-tile
    /// barrier per front step), so `threads / threads_per_tile` tiles run
    /// concurrently and they *share* one tile working set in cache
    /// instead of each dragging in their own. Must divide `threads`.
    pub threads_per_tile: usize,
    /// Run the debug region auditor (serializes claims; test/debug only).
    pub audit: bool,
}

impl DiamondConfig {
    /// The library default for a team of `threads` — the one place the
    /// shape is decided: width 16, one thread per tile, auditing off.
    /// With the in-tile front a w-16 tile of 288-cell rows keeps ~2 MB
    /// live, so the width buys reuse (8 sweeps cross 2 diamond rows, not
    /// 3) without leaving a private L2; sub-teams pay a barrier per
    /// front step and lose where caches are private
    /// (`diamond.tpt2_mlups`).
    pub fn default_for(threads: usize) -> Self {
        Self::with_width(threads, 16)
    }

    /// Config with explicit team size and width, one thread per tile,
    /// auditing off.
    pub fn with_width(threads: usize, width: usize) -> Self {
        Self {
            threads,
            width,
            threads_per_tile: 1,
            audit: false,
        }
    }

    /// Builder-style override of the MWD sub-team size.
    pub fn with_threads_per_tile(mut self, threads_per_tile: usize) -> Self {
        self.threads_per_tile = threads_per_tile;
        self
    }

    /// Validate against a grid and operator radius. Unlike the
    /// pipelined scheme there is no depth/block-size coupling to check —
    /// diamonds clamp to the domain, and any sweep count works.
    pub fn validate(&self, dims: Dims3, radius: usize) -> Result<(), String> {
        if self.threads == 0 {
            return Err("diamond needs at least one thread".into());
        }
        if self.threads_per_tile == 0 {
            return Err("threads_per_tile must be >= 1".into());
        }
        if self.threads_per_tile > self.threads
            || !self.threads.is_multiple_of(self.threads_per_tile)
        {
            return Err(format!(
                "threads_per_tile {} must divide the team size {}",
                self.threads_per_tile, self.threads
            ));
        }
        if radius == 0 {
            return Err("operator radius must be >= 1".into());
        }
        if self.width < 2 * radius {
            return Err(format!(
                "diamond width {} is narrower than 2·radius = {}; \
                 reads would skip a diamond row",
                self.width,
                2 * radius
            ));
        }
        if Region3::interior_of(dims).is_empty() {
            return Err(format!("grid {dims} has no interior"));
        }
        Ok(())
    }
}

/// Advance `pair` by a diamond schedule on the runtime's workers, sweep
/// `base_sweep + s` over `domains[s]` (`base_sweep` fixes which buffer
/// each sweep reads): one dispatch, one barrier epoch per diamond row,
/// tiles round-robin per sub-team. Returns cells updated; an all-empty
/// chain returns 0 without a dispatch.
///
/// Safe: the domains are checked interior before the dispatch and the
/// tiling is built here with the operator's radius. Tiles clamp to the
/// domains, which keeps same-row tiles disjoint for any chain (see
/// [`geometry`]). The result is the oracle's when the domains satisfy
/// the trapezoid contract documented there (uniform domains do); a
/// chain that breaks it gives wrong values, never undefined behaviour.
///
/// # Panics
/// Panics if a domain is not interior to `pair`, if `cfg` is invalid for
/// the grid and operator ([`DiamondConfig::validate`]) or if the runtime
/// has fewer than `cfg.threads` workers.
pub fn run_diamond_schedule_on<T: Real, Op: StencilOp<T>>(
    rt: &Runtime,
    op: &Op,
    pair: &mut GridPair<T>,
    domains: &[Region3],
    cfg: &DiamondConfig,
    base_sweep: usize,
) -> u64 {
    kernel::assert_interior(pair.dims(), domains);
    if domains.iter().all(Region3::is_empty) {
        return 0;
    }
    cfg.validate(pair.dims(), Op::RADIUS)
        .unwrap_or_else(|e| panic!("{e}"));
    let threads = cfg.threads;
    assert!(
        rt.threads() >= threads,
        "runtime has {} workers but the diamond team needs {threads}",
        rt.threads()
    );
    let tiling = DiamondTiling::new(domains.to_vec(), cfg.width, Op::RADIUS);
    let views = pair.shared_views();
    // MWD: the team splits into `groups` sub-teams of `tpt` lanes; each
    // sub-team advances one tile cooperatively, so only `groups` tile
    // working sets are live in cache at a time. tpt == 1 degenerates to
    // the classic one-thread-per-tile schedule (same tile assignment,
    // no intra-tile barriers).
    let tpt = cfg.threads_per_tile;
    let groups = threads / tpt;
    let barrier = SpinBarrier::new(threads);
    let intra: Vec<SpinBarrier> = (0..groups).map(|_| SpinBarrier::new(tpt)).collect();
    let auditor = cfg.audit.then(RegionAuditor::new);
    let total_cells = AtomicU64::new(0);
    rt.run(threads, &|tid| {
        let (group, lane) = (tid / tpt, tid % tpt);
        let intra_b = (tpt > 1).then(|| &intra[group]);
        let mut my_cells = 0u64;
        for row in tiling.rows() {
            for tile in row.tiles.iter().skip(group).step_by(groups) {
                // SAFETY: the pair is exclusively borrowed, the tiles
                // clamp to the domains checked interior above, and the
                // static row-major assignment hands concurrent sub-teams
                // tiles of the same row only, whose lanes partition each
                // sweep's z-extent disjointly.
                my_cells += unsafe {
                    update_tile(
                        op,
                        &views,
                        &tiling,
                        auditor.as_ref(),
                        tid,
                        tile,
                        base_sweep,
                        lane,
                        tpt,
                        intra_b,
                    )
                };
            }
            // Row epoch: every dependency of the next row is sealed once
            // all workers pass this barrier.
            barrier.wait();
        }
        total_cells.fetch_add(my_cells, Ordering::Relaxed);
    });
    total_cells.load(Ordering::Relaxed)
}

/// [`run_diamond_schedule_on`] on the calling thread: the diamond
/// schedule of width `width` over `domains`, tiles in row order, each
/// advanced along its y-front exactly as one worker of the team
/// advances it, on `pair` directly — no runtime, no barrier. Returns
/// cells updated.
///
/// Safe throughout: every step goes through the safe driver
/// [`kernel::update_region_op`], which hands the operator one row run
/// per plane exactly as the team's shared views do, at the same speed.
/// Every domain is checked to lie inside the grid's interior before the
/// walk starts. The same trapezoid contract decides whether the result
/// is the oracle's.
///
/// # Panics
/// Panics if a domain is not interior to `pair` or `width` is narrower
/// than twice the operator's radius.
pub fn run_diamond_schedule<T: Real, Op: StencilOp<T>>(
    op: &Op,
    pair: &mut GridPair<T>,
    domains: &[Region3],
    width: usize,
    base_sweep: usize,
) -> u64 {
    kernel::assert_interior(pair.dims(), domains);
    let tiling = DiamondTiling::new(domains.to_vec(), width, Op::RADIUS);
    let mut cells = 0u64;
    for tile in tiling.rows().iter().flat_map(|row| &row.tiles) {
        // The steps one lane of a one-lane sub-team takes in `update_tile`.
        for (k, step) in tile.front_steps(tiling.radius(), front_rows(tile.row_len())) {
            let (src, dst) = pair.src_dst(base_sweep + tile.s_lo + k);
            kernel::update_region_op(op, src, dst, &step);
            cells += step.count() as u64;
        }
    }
    cells
}

/// Advance one tile along its y-front ([`DiamondTile::front_steps`],
/// [`front_rows`] rows per lane: a sub-team of two meets half as often,
/// on twice the rows) — lane `lane` of a `tpt`-lane sub-team updates its
/// `geometry::split_z` chunk of each step, with one intra-tile barrier
/// *between* consecutive steps (`intra`, present iff `tpt > 1`): a
/// chunk's reads reach `radius` planes past its bounds, i.e. into
/// neighboring lanes' sweep-`k−1` writes, and its writes retire values
/// those lanes read, both of which the barrier seals. No barrier is
/// needed after the last step — same-row tiles are disjoint at
/// arbitrary relative progress (see `geometry`), so sub-teams never
/// wait on each other's tiles. Returns cells updated by this lane.
///
/// Every lane of a sub-team walks the same tiles and the same steps
/// (the windows do not depend on the lane; empty chunks are skipped
/// *after* the barrier), so the barrier participation count always
/// matches.
///
/// # Safety
/// `views` must point at live allocations covering every region of the
/// tiling (domains interior to them), nothing outside the schedule may
/// access them during the call, the tiling must carry the operator's
/// radius, concurrent sub-teams must hold tiles of the same row only,
/// and lanes of one sub-team must call this for the same tiles in the
/// same order.
#[allow(clippy::too_many_arguments)]
unsafe fn update_tile<T: Real, Op: StencilOp<T>>(
    op: &Op,
    views: &[SharedGrid<T>; 2],
    tiling: &DiamondTiling,
    auditor: Option<&RegionAuditor>,
    tid: usize,
    tile: &DiamondTile,
    base_sweep: usize,
    lane: usize,
    tpt: usize,
    intra: Option<&SpinBarrier>,
) -> u64 {
    let mut cells = 0u64;
    let steps = tile.front_steps(tiling.radius(), front_rows(tile.row_len()) * tpt);
    for (n, (k, step)) in steps.enumerate() {
        if let (Some(b), true) = (intra, n > 0) {
            // Seal the other lanes' earlier steps before any lane reads
            // or overwrites across a chunk boundary.
            b.wait();
        }
        let chunk = geometry::split_z(&step, tpt, lane);
        if chunk.is_empty() {
            continue;
        }
        let sweep = base_sweep + tile.s_lo + k;
        let (sg, dg) = (sweep % 2, (sweep + 1) % 2);
        let claims = auditor.map(|a| {
            let written = kernel::written_box(&chunk, views[dg].dims().nx);
            let read = a.claim(tid, sg, AccessKind::Read, chunk.expand(tiling.radius()));
            let write = a.claim(tid, dg, AccessKind::Write, written);
            (read, write)
        });
        // SAFETY: row ordering seals every cross-row dependency, the
        // same-row disjointness argument in `geometry` covers concurrent
        // tiles, the front's skew orders the steps of one lane and the
        // intra-tile barrier above those of its neighbors — re-checked
        // by the auditor when enabled.
        kernel::update_region_shared_op(op, &views[sg], &views[dg], &chunk, StoreMode::Normal);
        if let (Some(a), Some((r, w))) = (auditor, claims) {
            a.release(r);
            a.release(w);
        }
        cells += chunk.count() as u64;
    }
    cells
}

/// Run `sweeps` sweeps of `op` with wavefront-diamond temporal blocking
/// on the given persistent runtime (which must have at least
/// `cfg.threads` workers). On return the result is in
/// `pair.current(sweeps)`.
pub fn run_diamond_op_on<T: Real, Op: StencilOp<T>>(
    rt: &Runtime,
    op: &Op,
    pair: &mut GridPair<T>,
    cfg: &DiamondConfig,
    sweeps: usize,
) -> Result<RunStats, String> {
    let dims = pair.dims();
    cfg.validate(dims, Op::RADIUS)?;
    if rt.threads() < cfg.threads {
        return Err(format!(
            "runtime has {} workers but the diamond team needs {}",
            rt.threads(),
            cfg.threads
        ));
    }
    if sweeps == 0 {
        return Ok(RunStats::new(0, std::time::Duration::ZERO));
    }
    let domains = vec![Region3::interior_of(dims); sweeps];
    let t0 = Instant::now();
    let cells = run_diamond_schedule_on(rt, op, pair, &domains, cfg, 0);
    Ok(RunStats::new(cells, t0.elapsed()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline;
    use crate::op::{Avg27, Jacobi6, Jacobi7, VarCoeff7};
    use tb_grid::{init, norm, Dims3, Grid3};

    fn reference(dims: Dims3, seed: u64, sweeps: usize) -> tb_grid::Grid3<f64> {
        let mut pair = GridPair::from_initial(init::random(dims, seed));
        baseline::seq_sweeps_op(&Jacobi6, &mut pair, sweeps);
        pair.current(sweeps).clone()
    }

    /// One-shot team sized to `cfg`, classic Jacobi.
    fn run_j6(
        pair: &mut GridPair<f64>,
        cfg: &DiamondConfig,
        sweeps: usize,
    ) -> Result<RunStats, String> {
        run_diamond_op_on(
            &Runtime::with_threads(cfg.threads),
            &Jacobi6,
            pair,
            cfg,
            sweeps,
        )
    }

    fn audit_cfg(threads: usize, width: usize) -> DiamondConfig {
        DiamondConfig {
            threads,
            width,
            threads_per_tile: 1,
            audit: true,
        }
    }

    fn check(dims: Dims3, threads: usize, width: usize, sweeps: usize) {
        let want = reference(dims, 23, sweeps);
        let mut pair = GridPair::from_initial(init::random(dims, 23));
        run_j6(&mut pair, &audit_cfg(threads, width), sweeps).unwrap();
        norm::assert_grids_identical(
            &want,
            pair.current(sweeps),
            &Region3::whole(dims),
            &format!("diamond t={threads} w={width} sweeps={sweeps}"),
        );
    }

    #[test]
    fn single_thread_matches_sequential() {
        check(Dims3::cube(12), 1, 4, 5);
    }

    #[test]
    fn team_matches_sequential_various_widths() {
        for width in [2, 4, 6, 8, 16] {
            check(Dims3::cube(16), 3, width, 6);
        }
    }

    #[test]
    fn width_larger_than_grid_is_fine() {
        // One diamond column swallows the whole z-extent: degenerates to
        // plain multi-sweep blocking, still exact.
        check(Dims3::new(10, 12, 8), 2, 64, 5);
    }

    #[test]
    fn thin_grids_and_odd_widths() {
        check(Dims3::new(14, 6, 20), 2, 5, 7);
        check(Dims3::new(6, 14, 4), 4, 3, 4);
    }

    #[test]
    fn fronts_clip_skew_and_end_on_short_and_tall_y() {
        // Rows long enough for a 4-row front (the cubes above are one
        // front high: short rows degenerate to sweep order), and row
        // counts around that height: windows that clip to nothing, a last
        // partial front, fewer rows than the skew of the tile's sweeps,
        // and a y tall enough for many fronts — one thread per tile and
        // sub-teams (whose front is `tpt` times taller), auditor on.
        let (nx, sweeps) = (258, 7);
        let b = front_rows(nx - 2);
        assert_eq!(b, 4);
        for ny in [3, 4, b + 1, 2 * b - 1, 2 * b + 3, 31] {
            let dims = Dims3::new(nx, ny, 9);
            let want = reference(dims, 77, sweeps);
            for (threads, tpt, width) in [(1, 1, 4), (2, 1, 7), (2, 2, 6), (3, 3, 16)] {
                let cfg = audit_cfg(threads, width).with_threads_per_tile(tpt);
                let mut pair = GridPair::from_initial(init::random(dims, 77));
                let s = run_j6(&mut pair, &cfg, sweeps).unwrap();
                norm::assert_grids_identical(
                    &want,
                    pair.current(sweeps),
                    &Region3::whole(dims),
                    &format!("front ny={ny} t={threads} tpt={tpt} w={width}"),
                );
                assert_eq!(s.cell_updates, (sweeps * dims.interior_len()) as u64);
            }
        }
    }

    #[test]
    fn every_operator_matches_its_oracle() {
        let dims = Dims3::cube(14);
        let initial: tb_grid::Grid3<f64> = init::random(dims, 31);
        fn run_both<Op: StencilOp<f64>>(op: &Op, initial: &tb_grid::Grid3<f64>, sweeps: usize) {
            let dims = initial.dims();
            let mut want = GridPair::from_initial(initial.clone());
            baseline::seq_sweeps_op(op, &mut want, sweeps);
            let mut pair = GridPair::from_initial(initial.clone());
            let rt = Runtime::with_threads(2);
            run_diamond_op_on(&rt, op, &mut pair, &audit_cfg(2, 6), sweeps).unwrap();
            norm::assert_grids_identical(
                want.current(sweeps),
                pair.current(sweeps),
                &Region3::whole(dims),
                &format!("diamond {}", op.name()),
            );
        }
        run_both(&Jacobi6, &initial, 5);
        run_both(&Jacobi7::heat(0.12), &initial, 5);
        run_both(&VarCoeff7::banded(dims), &initial, 5);
        run_both(&Avg27, &initial, 5);
    }

    /// [`run_diamond_schedule`] on one operator and element type: a
    /// uniform chain must reproduce `seq_sweeps_op`, and chains shrinking
    /// along x, y or z (the distributed cycle's sweep domains) the
    /// one-worker team schedule, started at an odd base sweep so the
    /// buffer parity is exercised — at widths below the z-extent, equal
    /// to it and above it. The returned count is the chain's cell total.
    fn check_one_thread_walk<T: Real, Op: StencilOp<T>>(op: &Op, dims: Dims3, sweeps: usize) {
        let initial: Grid3<T> = init::random(dims, 19);
        let whole = Region3::whole(dims);
        let interior = Region3::interior_of(dims);
        let mut oracle = GridPair::from_initial(initial.clone());
        baseline::seq_sweeps_op(op, &mut oracle, sweeps);
        let shrinking = |axis: usize| -> Vec<Region3> {
            (0..sweeps)
                .map(|s| {
                    let mut d = interior;
                    d.lo[axis] += s * Op::RADIUS;
                    d.hi[axis] = d.hi[axis].saturating_sub(s * Op::RADIUS);
                    d
                })
                .collect()
        };
        let rt = Runtime::with_threads(1);
        let nz = interior.extent(2);
        for width in [2 * Op::RADIUS, 5, nz, 2 * nz + 3] {
            let what = |chain: &str| format!("{} w={width} {chain} {dims}", op.name());
            let uniform = vec![interior; sweeps];
            let mut pair = GridPair::from_initial(initial.clone());
            let cells = run_diamond_schedule(op, &mut pair, &uniform, width, 0);
            assert_eq!(
                cells,
                (sweeps * interior.count()) as u64,
                "{}",
                what("uniform")
            );
            norm::assert_grids_identical(
                oracle.current(sweeps),
                pair.current(sweeps),
                &whole,
                &what("uniform"),
            );
            let team = audit_cfg(1, width);
            for axis in 0..3 {
                let chain = shrinking(axis);
                let start = || {
                    let mut pair = GridPair::from_initial(initial.clone());
                    pair.swap(); // the state in B: sweep 1 reads it
                    pair
                };
                let mut want = start();
                run_diamond_schedule_on(&rt, op, &mut want, &chain, &team, 1);
                let mut got = start();
                let cells = run_diamond_schedule(op, &mut got, &chain, width, 1);
                let what = what(&format!("shrinking along {axis}"));
                let total: usize = chain.iter().map(Region3::count).sum();
                assert_eq!(cells, total as u64, "{what}");
                let end = 1 + sweeps;
                norm::assert_grids_identical(want.current(end), got.current(end), &whole, &what);
            }
        }
    }

    fn check_one_thread_walk_every_operator<T: Real>(dims: Dims3, sweeps: usize) {
        check_one_thread_walk::<T, _>(&Jacobi6, dims, sweeps);
        check_one_thread_walk::<T, _>(&Jacobi7::heat(0.12), dims, sweeps);
        check_one_thread_walk::<T, _>(&VarCoeff7::<T>::banded(dims), dims, sweeps);
        check_one_thread_walk::<T, _>(&Avg27, dims, sweeps);
    }

    #[test]
    fn one_thread_walk_matches_oracle_and_team_schedule() {
        // Short rows (one front per tile), then 256-cell rows whose
        // 4-row fronts clip every tile into several steps.
        assert_eq!(front_rows(256), 4);
        for (dims, sweeps) in [(Dims3::new(11, 12, 13), 5), (Dims3::new(258, 13, 10), 4)] {
            check_one_thread_walk_every_operator::<f64>(dims, sweeps);
            check_one_thread_walk_every_operator::<f32>(dims, sweeps);
        }
    }

    #[test]
    fn one_thread_walk_rejects_a_domain_outside_the_interior() {
        // Both diamond entries, on a chain whose sweep 1 reaches into the
        // boundary layer.
        let dims = Dims3::cube(8);
        let chain = [Region3::interior_of(dims), Region3::whole(dims)];
        kernel::assert_rejects_sweep_1(dims, |pair| {
            run_diamond_schedule(&Jacobi6, pair, &chain, 4, 0);
        });
        let rt = Runtime::with_threads(2);
        kernel::assert_rejects_sweep_1(dims, |pair| {
            run_diamond_schedule_on(&rt, &Jacobi6, pair, &chain, &audit_cfg(2, 4), 0);
        });
    }

    #[test]
    fn team_schedule_on_a_chain_that_is_not_nested_claims_disjoint_regions() {
        // Stages that grow and shift: the values are not the oracle's,
        // but clamped tiles stay disjoint, so the auditor must see no
        // overlapping claims — one thread per tile and two-lane sub-teams.
        let chain = [
            Region3::new([3, 3, 3], [15, 15, 15]),
            Region3::new([1, 2, 4], [17, 16, 17]),
            Region3::new([5, 1, 1], [12, 17, 14]),
            Region3::new([2, 4, 2], [16, 13, 16]),
        ];
        let total: usize = chain.iter().map(Region3::count).sum();
        let rt = Runtime::with_threads(4);
        for tpt in [1, 2] {
            let cfg = audit_cfg(4, 2).with_threads_per_tile(tpt);
            let mut pair: GridPair<f64> = GridPair::from_initial(init::random(Dims3::cube(20), 7));
            let cells = run_diamond_schedule_on(&rt, &Jacobi6, &mut pair, &chain, &cfg, 0);
            assert_eq!(cells, total as u64, "tpt={tpt}");
        }
    }

    #[test]
    #[should_panic(expected = "threads_per_tile 3 must divide the team size 4")]
    fn team_schedule_rejects_an_invalid_config() {
        let dims = Dims3::cube(8);
        let mut pair: GridPair<f64> = GridPair::zeroed(dims);
        let cfg = audit_cfg(4, 4).with_threads_per_tile(3);
        let domains = [Region3::interior_of(dims)];
        run_diamond_schedule_on(
            &Runtime::with_threads(4),
            &Jacobi6,
            &mut pair,
            &domains,
            &cfg,
            0,
        );
    }

    #[test]
    fn team_schedule_of_an_all_empty_chain_dispatches_nothing() {
        let dims = Dims3::cube(8);
        let mut pair: GridPair<f64> = GridPair::zeroed(dims);
        // One worker: a dispatch of the four-thread team would panic.
        let rt = Runtime::with_threads(1);
        let chain = [Region3::empty(); 3];
        assert_eq!(
            run_diamond_schedule_on(&rt, &Jacobi6, &mut pair, &chain, &audit_cfg(4, 4), 0),
            0
        );
    }

    #[test]
    fn oversized_reused_runtime_reproduces_the_reference_every_round() {
        let dims = Dims3::cube(16);
        let cfg = audit_cfg(2, 6);
        let want = reference(dims, 3, 6);
        let rt = Runtime::with_threads(4); // oversized: subset dispatch
        for round in 0..3 {
            let mut pair = GridPair::from_initial(init::random(dims, 3));
            run_diamond_op_on(&rt, &Jacobi6, &mut pair, &cfg, 6).unwrap();
            norm::assert_grids_identical(
                &want,
                pair.current(6),
                &Region3::whole(dims),
                &format!("shared runtime round {round}"),
            );
        }
    }

    #[test]
    fn mwd_matches_sequential_for_every_subteam_shape() {
        // threads_per_tile ∈ {1, 2, 3, 4, 6} over a 6-thread team (audit
        // on): the intra-tile wavefront must stay bitwise-exact however
        // the team is split between tiles and lanes.
        let dims = Dims3::new(14, 10, 18);
        let sweeps = 6;
        let want = reference(dims, 41, sweeps);
        for tpt in [1usize, 2, 3, 6] {
            for width in [3usize, 6, 10] {
                let cfg = audit_cfg(6, width).with_threads_per_tile(tpt);
                let mut pair = GridPair::from_initial(init::random(dims, 41));
                run_j6(&mut pair, &cfg, sweeps).unwrap();
                norm::assert_grids_identical(
                    &want,
                    pair.current(sweeps),
                    &Region3::whole(dims),
                    &format!("mwd tpt={tpt} w={width}"),
                );
            }
        }
        // Whole team on one tile at a time (threads == threads_per_tile).
        let cfg = audit_cfg(4, 5).with_threads_per_tile(4);
        let mut pair = GridPair::from_initial(init::random(dims, 41));
        let s = run_j6(&mut pair, &cfg, sweeps).unwrap();
        norm::assert_grids_identical(
            &want,
            pair.current(sweeps),
            &Region3::whole(dims),
            "mwd full-team tile",
        );
        assert_eq!(s.cell_updates, (sweeps * dims.interior_len()) as u64);
    }

    #[test]
    fn mwd_every_operator_matches_its_oracle() {
        let dims = Dims3::cube(13);
        let initial: tb_grid::Grid3<f64> = init::random(dims, 53);
        fn run_both<Op: StencilOp<f64>>(op: &Op, initial: &tb_grid::Grid3<f64>, sweeps: usize) {
            let dims = initial.dims();
            let mut want = GridPair::from_initial(initial.clone());
            baseline::seq_sweeps_op(op, &mut want, sweeps);
            let mut pair = GridPair::from_initial(initial.clone());
            let cfg = audit_cfg(4, 6).with_threads_per_tile(2);
            let rt = Runtime::with_threads(4);
            run_diamond_op_on(&rt, op, &mut pair, &cfg, sweeps).unwrap();
            norm::assert_grids_identical(
                want.current(sweeps),
                pair.current(sweeps),
                &Region3::whole(dims),
                &format!("mwd diamond {}", op.name()),
            );
        }
        run_both(&Jacobi6, &initial, 5);
        run_both(&Jacobi7::heat(0.12), &initial, 5);
        run_both(&VarCoeff7::banded(dims), &initial, 5);
        run_both(&Avg27, &initial, 5); // corner reads cross chunk bounds
    }

    #[test]
    fn mwd_invalid_subteam_rejected() {
        let dims = Dims3::cube(10);
        let mut pair: GridPair<f64> = GridPair::zeroed(dims);
        for (threads, tpt) in [(4, 3), (2, 4), (3, 0)] {
            let cfg = DiamondConfig::with_width(threads, 6).with_threads_per_tile(tpt);
            let err = run_j6(&mut pair, &cfg, 1).unwrap_err();
            assert!(err.contains("threads_per_tile"), "({threads},{tpt}): {err}");
        }
    }

    #[test]
    fn stats_account_all_updates() {
        let dims = Dims3::cube(14);
        let mut pair: GridPair<f64> = GridPair::from_initial(init::random(dims, 8));
        let s = run_j6(&mut pair, &DiamondConfig::with_width(2, 4), 5).unwrap();
        assert_eq!(s.cell_updates, (5 * dims.interior_len()) as u64);
    }

    #[test]
    fn zero_sweeps_noop() {
        let dims = Dims3::cube(10);
        let initial: tb_grid::Grid3<f64> = init::random(dims, 4);
        let mut pair = GridPair::from_initial(initial.clone());
        let s = run_j6(&mut pair, &DiamondConfig::default_for(2), 0).unwrap();
        assert_eq!(s.cell_updates, 0);
        norm::assert_grids_identical(&initial, pair.current(0), &Region3::whole(dims), "noop");
    }

    #[test]
    fn invalid_configs_rejected() {
        let dims = Dims3::cube(10);
        let mut pair: GridPair<f64> = GridPair::zeroed(dims);
        let mut cfg = DiamondConfig::default_for(2);
        cfg.threads = 0;
        assert!(run_j6(&mut pair, &cfg, 1).is_err());
        let mut cfg = DiamondConfig::default_for(2);
        cfg.width = 1;
        let err = run_j6(&mut pair, &cfg, 1).unwrap_err();
        assert!(err.contains("2·radius"), "{err}");
        assert!(DiamondConfig::default_for(2)
            .validate(Dims3::new(2, 8, 8), 1)
            .is_err());
    }

    #[test]
    fn undersized_runtime_rejected() {
        let dims = Dims3::cube(12);
        let mut pair: GridPair<f64> = GridPair::from_initial(init::random(dims, 2));
        let rt = Runtime::with_threads(1);
        let err = run_diamond_op_on(
            &rt,
            &Jacobi6,
            &mut pair,
            &DiamondConfig::with_width(3, 4),
            2,
        )
        .unwrap_err();
        assert!(err.contains("workers"), "{err}");
    }
}
