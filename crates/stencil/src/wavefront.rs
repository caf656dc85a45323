//! The wavefront temporal blocking method of Wellein et al. (the paper's
//! ref. 2, COMPSAC 2009), kept as a comparator.
//!
//! A team of `t` threads marches through the grid along z, thread `i`
//! applying sweep `i` a fixed distance behind thread `i - 1`, so `t`
//! updates happen per memory traversal while the planes in flight stay
//! in the shared cache. That is the paper's own relaxed pipeline (Eq. 3)
//! with whole x·y planes as blocks and one update per thread, so it has
//! no schedule of its own: [`run_wavefront_op_on`] runs
//! [`PipelineConfig::wavefront`] through [`pipeline::run_op_on`], and
//! its results are bitwise identical to the baseline.

use tb_grid::{GridPair, Real, Region3};
use tb_runtime::Runtime;

use crate::config::PipelineConfig;
use crate::op::StencilOp;
use crate::pipeline;
use crate::stats::RunStats;

/// Run `sweeps` sweeps of `op` with wavefront temporal blocking using
/// `threads` workers (= updates per traversal) of the given persistent
/// runtime. On return the result is in `pair.current(sweeps)`.
///
/// Any grid with an interior runs: where the interior is thinner than
/// `threads` cells in some dimension, the wavefront is as deep as that
/// dimension and the rest of the team idles.
pub fn run_wavefront_op_on<T: Real, Op: StencilOp<T>>(
    rt: &Runtime,
    op: &Op,
    pair: &mut GridPair<T>,
    threads: usize,
    sweeps: usize,
) -> Result<RunStats, String> {
    if threads == 0 {
        return Err("wavefront needs at least one thread".into());
    }
    if rt.threads() < threads {
        return Err(format!(
            "runtime has {} workers but the wavefront needs {threads}",
            rt.threads()
        ));
    }
    let interior = Region3::interior_of(pair.dims());
    let thinnest = (0..3).map(|d| interior.extent(d)).min().unwrap_or(0);
    let cfg = PipelineConfig::wavefront(threads.min(thinnest).max(1));
    pipeline::run_op_on(rt, op, pair, &cfg, sweeps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline;
    use crate::op::Jacobi6;
    use tb_grid::{init, norm, Dims3};

    fn reference(dims: Dims3, seed: u64, sweeps: usize) -> tb_grid::Grid3<f64> {
        let mut pair = GridPair::from_initial(init::random(dims, seed));
        baseline::seq_sweeps_op(&Jacobi6, &mut pair, sweeps);
        pair.current(sweeps).clone()
    }

    fn check(dims: Dims3, threads: usize, sweeps: usize) {
        let want = reference(dims, 13, sweeps);
        let mut pair = GridPair::from_initial(init::random(dims, 13));
        let rt = Runtime::with_threads(threads);
        run_wavefront_op_on(&rt, &Jacobi6, &mut pair, threads, sweeps).unwrap();
        norm::assert_grids_identical(
            &want,
            pair.current(sweeps),
            &Region3::whole(dims),
            &format!("wavefront t={threads} sweeps={sweeps}"),
        );
    }

    #[test]
    fn single_thread_is_plain_sweeps() {
        check(Dims3::cube(12), 1, 3);
    }

    #[test]
    fn two_threads_exact_traversals() {
        check(Dims3::cube(14), 2, 4);
    }

    #[test]
    fn three_threads_partial_traversal() {
        check(Dims3::cube(14), 3, 7);
    }

    #[test]
    fn four_threads_thin_grid() {
        // Six planes for a team of four: two blocks, the last one short.
        check(Dims3::new(10, 10, 8), 4, 5);
    }

    #[test]
    fn interiors_thinner_than_the_team_still_run() {
        // Thinner than the team in z, in y, and one cell wide in x: the
        // wavefront is as deep as the thinnest dimension.
        check(Dims3::new(10, 10, 4), 4, 5);
        check(Dims3::new(12, 4, 12), 3, 4);
        check(Dims3::new(3, 9, 9), 2, 3);
    }

    #[test]
    fn grids_without_interior_and_small_runtimes_rejected() {
        let mut pair: GridPair<f64> = GridPair::zeroed(Dims3::new(2, 8, 8));
        let rt = Runtime::with_threads(2);
        assert!(run_wavefront_op_on(&rt, &Jacobi6, &mut pair, 2, 1).is_err());
        let mut pair: GridPair<f64> = GridPair::zeroed(Dims3::cube(8));
        assert!(run_wavefront_op_on(&rt, &Jacobi6, &mut pair, 3, 1).is_err());
    }

    #[test]
    fn stats_account_all_updates() {
        let dims = Dims3::cube(12);
        let mut pair: GridPair<f64> = GridPair::from_initial(init::random(dims, 2));
        let rt = Runtime::with_threads(2);
        let s = run_wavefront_op_on(&rt, &Jacobi6, &mut pair, 2, 5).unwrap();
        assert_eq!(s.cell_updates, (5 * dims.interior_len()) as u64);
    }

    #[test]
    fn zero_threads_rejected() {
        let mut pair: GridPair<f64> = GridPair::zeroed(Dims3::cube(8));
        let rt = Runtime::with_threads(1);
        assert!(run_wavefront_op_on(&rt, &Jacobi6, &mut pair, 0, 1).is_err());
    }

    #[test]
    fn zero_sweeps_noop() {
        let dims = Dims3::cube(8);
        let initial: tb_grid::Grid3<f64> = init::random(dims, 6);
        let mut pair = GridPair::from_initial(initial.clone());
        let rt = Runtime::with_threads(2);
        run_wavefront_op_on(&rt, &Jacobi6, &mut pair, 2, 0).unwrap();
        norm::assert_grids_identical(&initial, pair.current(0), &Region3::whole(dims), "noop");
    }
}
