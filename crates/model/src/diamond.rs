//! In-cache working-set and memory-traffic estimate for wavefront-
//! diamond temporal blocking, alongside the paper's Eq. 4 pipeline
//! model.
//!
//! A diamond of width `w` (stencil radius `R`) updates `w²/(4R²)·2R =
//! w²/(2R)` z-planes worth of cells while spanning `w` distinct planes
//! of `z`, so each memory traversal of the grid performs
//!
//! ```text
//! u(w) = w / (2R)
//! ```
//!
//! sweeps — the diamond analogue of the pipeline's `t·T` updates per
//! traversal, but achieved without wind-up/wind-down waste and
//! controlled by the single width parameter. The Eq. 4 cost structure
//! carries over: the first update of a tile streams its cells from
//! memory at the operator's streaming code balance, every further
//! update moves one load + one store (plus the operator's extra read
//! streams) through the cache. That structure holds while what the
//! tile keeps live stays cached. The executor walks a tile with a
//! time-skewed front of `B` rows along `y` — `B·nx ≈ 1024` cells,
//! [`tb_stencil::diamond::front_rows`] — so the live set is one
//! `(B + 2R)`-row window per time level over that level's z-extent plus
//! its read halo — summed over the `n = 2⌈w/2R⌉ − 1` sweeps of a tile,
//! whose z-extents add up to the diamond's area `w²/(2R)`, the
//! **working set**
//!
//! ```text
//! W(w) = (1 + extra_read_streams) · nx · (B + 2R) · (w²/(2R) + 2R·n) · bytes
//! ```
//!
//! (the levels alternate between the two grid buffers, so each window
//! is counted once; a coefficient grid adds the same cells again). It
//! grows with the diamond's *area*, only through the `2R` halo rows
//! with the row length, and not at all with `ny`: 0.6 MB at `w = 8` and
//! 2.2 MB at `w = 16` on 288-cell f64 rows (`B = 4`), where whole x·y
//! planes were 13 MB and 24 MB. [`max_cached_width`] inverts the bound
//! — the tuner's cache-sized width candidate.

use tb_grid::Real;
use tb_stencil::diamond::front_rows;
use tb_stencil::kernel::StoreMode;
use tb_stencil::StencilOp;

use crate::machine::MachineParams;

/// Sweeps one memory traversal performs at diamond width `w`:
/// `u = w / (2R)`. The diamond analogue of the pipeline's `t·T`.
pub fn diamond_reuse(width: usize, radius: usize) -> f64 {
    assert!(radius >= 1 && width >= 2 * radius);
    width as f64 / (2.0 * radius as f64)
}

/// In-cache working set of one active diamond tile, in bytes: one
/// `(B + 2R)`-row front window per time level over that level's
/// z-extent plus its `R`-deep read halo (module docs), plus the
/// operator's extra read streams (e.g. a coefficient grid) over the
/// same cells. Independent of `ny`. A sub-team of `threads_per_tile`
/// lanes walks a front that many times taller (`B` rows per lane).
/// Each sub-team of a team holds one such tile live.
pub fn diamond_working_set_bytes<T: Real, Op: StencilOp<T>>(
    op: &Op,
    nx: usize,
    width: usize,
    threads_per_tile: usize,
) -> usize {
    let radius = Op::RADIUS;
    assert!(radius >= 1 && width >= 2 * radius);
    let sweeps = 2 * width.div_ceil(2 * radius) - 1;
    let planes = (width * width).div_ceil(2 * radius) + 2 * radius * sweeps;
    let front = front_rows(nx.saturating_sub(2 * radius));
    let rows = front * threads_per_tile.max(1) + 2 * radius;
    let cells = nx * rows * planes;
    ((1.0 + op.extra_read_streams()) * (cells * T::bytes()) as f64) as usize
}

/// Largest diamond width whose per-tile working set (times the team
/// size, one live tile per worker) fits the machine's shared cache;
/// never below the legal minimum `2R`.
pub fn max_cached_width<T: Real, Op: StencilOp<T>>(
    machine: &MachineParams,
    op: &Op,
    nx: usize,
    team: usize,
) -> usize {
    max_cached_width_mwd::<T, Op>(machine, op, nx, team, 1)
}

/// Number of tiles a team holds live at once under MWD: with
/// `threads_per_tile` lanes cooperating on each tile, only
/// `⌈team / threads_per_tile⌉` tile working sets compete for the shared
/// cache (Malas et al.'s multi-dimensional intra-tile parallelization).
/// Each of them is the taller front of its sub-team
/// ([`diamond_working_set_bytes`]), so what the team saves in total is
/// the windows' read halos, not their bulk.
pub fn concurrent_tiles(team: usize, threads_per_tile: usize) -> usize {
    let team = team.max(1);
    let tpt = threads_per_tile.max(1).min(team);
    team.div_ceil(tpt)
}

/// [`max_cached_width`] under MWD: the shared cache is split between
/// [`concurrent_tiles`] live tiles, each the working set of a
/// `threads_per_tile`-lane front. `threads_per_tile = 1` is
/// [`max_cached_width`].
///
/// Note what the lane count of the SIMD row kernels does *not* do here:
/// vectorization raises the in-cache compute ceiling but moves no extra
/// bytes, so it enters neither the working set nor the code balance —
/// see the module docs of `tb-model`.
pub fn max_cached_width_mwd<T: Real, Op: StencilOp<T>>(
    machine: &MachineParams,
    op: &Op,
    nx: usize,
    team: usize,
    threads_per_tile: usize,
) -> usize {
    let budget = machine.cache_bytes / concurrent_tiles(team, threads_per_tile);
    let fits =
        |w: &usize| diamond_working_set_bytes::<T, Op>(op, nx, *w, threads_per_tile) <= budget;
    // W(w) is quadratic in w: the answer is O(√budget), walk up to it.
    let narrowest = 2 * Op::RADIUS;
    (narrowest..).take_while(fits).last().unwrap_or(narrowest)
}

/// Eq. 4 transplanted to diamond tiles: wall time (seconds per lattice
/// site × `u`) for the `u = w/(2R)` updates a tile performs per memory
/// traversal. First update streams from memory, the rest hit the
/// cache — valid while [`diamond_working_set_bytes`] fits.
pub fn diamond_block_time_op<T: Real, Op: StencilOp<T>>(
    machine: &MachineParams,
    op: &Op,
    width: usize,
) -> f64 {
    let u = diamond_reuse(width, Op::RADIUS);
    let bytes_mem = op.bytes_per_lup(StoreMode::Streaming);
    let bytes_cache = (2.0 + op.extra_read_streams()) * T::bytes() as f64;
    bytes_mem / machine.ms1 + (u - 1.0) * bytes_cache / machine.mc
}

/// Expected speedup of diamond blocking over the standard solver — the
/// Eq. 5 form with `t·T` replaced by the diamond reuse `w/(2R)`:
///
/// `T_0/T_d = (M_{s,1}/M_s) · u / (1 + (u−1)·M_{s,1}/M_c)`
pub fn diamond_speedup(machine: &MachineParams, width: usize, radius: usize) -> f64 {
    let u = diamond_reuse(width, radius);
    let r = machine.ms1 / machine.mc;
    (machine.ms1 / machine.ms) * u / (1.0 + (u - 1.0) * r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::pipeline_speedup;
    use tb_stencil::{Jacobi6, VarCoeff7};

    #[test]
    fn reuse_counts_sweeps_per_traversal() {
        assert_eq!(diamond_reuse(2, 1), 1.0); // minimal width: no reuse
        assert_eq!(diamond_reuse(8, 1), 4.0);
        assert_eq!(diamond_reuse(8, 2), 2.0);
    }

    #[test]
    fn speedup_matches_pipeline_model_at_equal_reuse() {
        // Same cost structure ⟹ same predicted speedup when the
        // diamond reuse u equals the pipeline depth t·T.
        let m = MachineParams::nehalem_ep();
        for (t, upd) in [(1usize, 1usize), (4, 1), (4, 2), (2, 8)] {
            let width = 2 * t * upd; // u = w/2 = t·T at radius 1
            let d = diamond_speedup(&m, width, 1);
            let p = pipeline_speedup(&m, t, upd);
            assert!((d - p).abs() < 1e-12, "w={width}: {d} vs {p}");
        }
    }

    #[test]
    fn minimal_width_gains_nothing() {
        let m = MachineParams::nehalem_ep();
        let s = diamond_speedup(&m, 2, 1);
        assert!((s - m.ms1 / m.ms).abs() < 1e-12, "u = 1 is a plain sweep");
    }

    #[test]
    fn limit_is_mc_over_ms() {
        let m = MachineParams::nehalem_ep();
        let s = diamond_speedup(&m, 1 << 20, 1);
        assert!((s - m.max_speedup()).abs() / m.max_speedup() < 1e-3);
    }

    #[test]
    fn block_time_monotone_in_width() {
        let m = MachineParams::nehalem_ep();
        let t4: f64 = diamond_block_time_op::<f64, _>(&m, &Jacobi6, 4);
        let t8: f64 = diamond_block_time_op::<f64, _>(&m, &Jacobi6, 8);
        assert!(t8 > t4, "more in-cache updates per traversal cost time");
        // Width 2 (u = 1) is exactly the streaming memory fetch.
        let base: f64 = diamond_block_time_op::<f64, _>(&m, &Jacobi6, 2);
        assert!((base - 16.0 / m.ms1).abs() < 1e-18);
    }

    #[test]
    fn working_set_is_front_windows_over_the_diamond_area() {
        let j = Jacobi6;
        // w 8, R 1: 7 sweeps whose z-extents sum to 32 planes, each level
        // with a 2-plane halo, in (B + 2)-row windows, B = 4 on 288-cell
        // rows — no ny anywhere.
        let w8 = diamond_working_set_bytes::<f64, _>(&j, 288, 8, 1);
        assert_eq!(w8, 288 * (4 + 2) * (32 + 2 * 7) * 8);
        let w16 = diamond_working_set_bytes::<f64, _>(&j, 288, 16, 1);
        assert_eq!(w16, 288 * (4 + 2) * (128 + 2 * 15) * 8);
        // The sizes the default width was chosen on: both inside a 4 MB L2.
        assert!(w8 < 700_000 && w16 < 2_300_000, "{w8} {w16}");
        // The coefficient grid adds one stream over the same cells.
        let v: VarCoeff7<f64> = VarCoeff7::banded(tb_grid::Dims3::cube(8));
        assert_eq!(diamond_working_set_bytes::<f64, _>(&v, 288, 8, 1), 2 * w8);
        // f32 halves it.
        assert_eq!(diamond_working_set_bytes::<f32, _>(&j, 288, 8, 1), w8 / 2);
        // Two lanes walk a front of 2·B rows: taller, not twice the set.
        let w8x2 = diamond_working_set_bytes::<f64, _>(&j, 288, 8, 2);
        assert_eq!(w8x2, 288 * (2 * 4 + 2) * (32 + 2 * 7) * 8);
        // The front holds a cell budget: on rows 3.5× longer it is 2 rows
        // high and only the 2R halo rows grow with nx.
        let long = diamond_working_set_bytes::<f64, _>(&j, 1002, 8, 1);
        assert_eq!(long, 1002 * (2 + 2) * (32 + 2 * 7) * 8);
    }

    #[test]
    fn max_cached_width_inverts_the_working_set() {
        let m = MachineParams::nehalem_ep();
        let w = max_cached_width::<f64, _>(&m, &Jacobi6, 100, 1);
        assert!(w >= 2);
        assert!(diamond_working_set_bytes::<f64, _>(&Jacobi6, 100, w, 1) <= m.cache_bytes);
        assert!(diamond_working_set_bytes::<f64, _>(&Jacobi6, 100, w + 1, 1) > m.cache_bytes);
        // A team splits the cache; huge rows degrade to the minimum.
        let w4 = max_cached_width::<f64, _>(&m, &Jacobi6, 100, 4);
        assert!(w4 < w);
        let tiny = max_cached_width::<f64, _>(&m, &Jacobi6, 4_000_000, 4);
        assert_eq!(tiny, 2);
    }

    #[test]
    fn mwd_trades_tile_count_for_front_height() {
        assert_eq!(concurrent_tiles(8, 1), 8);
        assert_eq!(concurrent_tiles(8, 2), 4);
        assert_eq!(concurrent_tiles(8, 8), 1);
        assert_eq!(concurrent_tiles(6, 4), 2); // non-divisor rounds up
        assert_eq!(concurrent_tiles(0, 0), 1); // degenerate clamps
        let m = MachineParams::nehalem_ep();
        let at = |team, tpt| max_cached_width_mwd::<f64, _>(&m, &Jacobi6, 100, team, tpt);
        assert_eq!(at(8, 1), max_cached_width::<f64, _>(&m, &Jacobi6, 100, 8));
        // Fewer, taller fronts: the team as a whole saves read halos only,
        // so the cacheable width grows slowly with the sub-team size and a
        // full-team tile never reaches what one thread alone could hold.
        assert!(at(8, 1) <= at(8, 2) && at(8, 2) <= at(8, 8));
        assert!(at(8, 8) <= at(1, 1));
    }
}
