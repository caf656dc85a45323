//! The wavefront temporal blocking method of Wellein et al. (the paper's
//! ref. 2, COMPSAC 2009), implemented as a comparator.
//!
//! A team of `t` threads marches through the grid along z: thread `i`
//! applies sweep-stage `i` to plane `z_front - 2i`, so `t` updates happen
//! per memory traversal while planes stay in the shared cache. In
//! contrast to pipelined blocking this scheme keeps a fixed plane
//! distance (here 2, the minimum that averts races) and performs whole
//! planes per step — the paper's criticism is that it needs extra
//! boundary handling in the general blocked case and offers fewer tuning
//! knobs; our implementation uses full planes, which sidesteps boundary
//! copies but caps the in-cache working set at `t` z-planes.
//!
//! Results are bitwise identical to the baseline (same kernel, disjoint
//! planes per stage).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use tb_grid::{GridPair, Real, Region3};
use tb_runtime::Runtime;
use tb_sync::{PipelineSync, SpinBarrier};

use crate::kernel::{self, StoreMode};
use crate::op::StencilOp;
use crate::stats::RunStats;

/// Minimum lead (in planes) of thread `i-1` over thread `i`: plane `z` at
/// stage `s` reads planes `z-1..=z+1` of stage `s-1`, so the predecessor
/// must have completed plane `z+1`, i.e. lead >= 2.
const PLANE_DISTANCE: u64 = 2;

/// Run `sweeps` sweeps of `op` with wavefront temporal blocking using
/// `threads` workers (= updates per traversal) of the given persistent
/// runtime. On return the result is in `pair.current(sweeps)`.
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
    let dims = pair.dims();
    let interior = Region3::interior_of(dims);
    if interior.is_empty() {
        return Err(format!("grid {dims} has no interior"));
    }
    if sweeps == 0 {
        return Ok(RunStats::new(0, std::time::Duration::ZERO));
    }
    let nplanes = interior.extent(2);
    let traversals = sweeps.div_ceil(threads);
    let barrier = SpinBarrier::new(threads);
    // Relaxed sync with the wavefront's fixed lower distance; du is
    // effectively unbounded (planes falling out of cache cost performance,
    // not correctness, and the comparator keeps the scheme minimal).
    let psync = PipelineSync::new(threads, threads, PLANE_DISTANCE, u64::MAX / 2, 0);
    let total_cells = AtomicU64::new(0);
    let views = pair.shared_views();

    let t0 = Instant::now();
    rt.run(threads, &|tid| {
        let mut my_cells = 0u64;
        for tr in 0..traversals {
            let base = tr * threads;
            let stages_now = threads.min(sweeps - base);
            barrier.wait();
            if tid == 0 {
                psync.reset();
            }
            barrier.wait();
            let stage = tid;
            if stage >= stages_now {
                psync.mark_complete(tid, nplanes as u64);
                continue;
            }
            let sweep = base + stage;
            let (sg, dg) = (sweep % 2, (sweep + 1) % 2);
            for p in 0..nplanes {
                psync.wait_for_turn(tid, nplanes as u64);
                let z = interior.lo[2] + p;
                let mut plane = interior;
                plane.lo[2] = z;
                plane.hi[2] = z + 1;
                // SAFETY: thread i works on plane p while thread
                // i-1 (stage s-1) has completed plane p+1 (lead
                // >= 2) — all reads of planes z-1..=z+1 in the
                // source grid (corners included: plane claims
                // cover whole planes) are sealed, and writes of
                // distinct stages go to alternating grids at
                // plane distance >= 2.
                unsafe {
                    kernel::update_region_shared_op(
                        op,
                        &views[sg],
                        &views[dg],
                        &plane,
                        StoreMode::Normal,
                    );
                }
                my_cells += plane.count() as u64;
                psync.complete_block(tid);
            }
        }
        total_cells.fetch_add(my_cells, Ordering::Relaxed);
    });
    Ok(RunStats::new(
        total_cells.load(Ordering::Relaxed),
        t0.elapsed(),
    ))
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
        // More threads than... planes is fine (nplanes=6 > distance*t? it
        // must still complete and match).
        check(Dims3::new(10, 10, 8), 4, 5);
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
