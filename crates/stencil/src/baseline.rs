//! The "standard" baseline solvers (paper §1.1), generic over the
//! stencil operator.
//!
//! These implement the paper's baseline: out-of-place sweeps over two
//! grids with spatial blocking and (optionally) non-temporal stores,
//! parallelized by splitting the outer (z) dimension across threads with
//! a barrier per sweep — structurally the OpenMP code of the paper.
//! They double as the *reference oracle*: every temporally blocked solver
//! is verified bitwise against [`seq_sweeps_op`] instantiated with the
//! same operator.
//!
//! One entry per solver: the operator is always an argument, and the
//! parallel sweep always takes the [`Runtime`] it runs on — a caller that
//! wants a one-shot team writes `Runtime::with_threads(n)` on the line
//! above.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use tb_grid::{BlockPartition, GridPair, Real, Region3};
use tb_runtime::Runtime;
use tb_sync::SpinBarrier;

use crate::kernel::{self, StoreMode};
use crate::op::StencilOp;
use crate::stats::RunStats;

/// Sequential reference: plain full-interior sweeps of `op`.
pub fn seq_sweeps_op<T: Real, Op: StencilOp<T>>(
    op: &Op,
    pair: &mut GridPair<T>,
    sweeps: usize,
) -> RunStats {
    let interior = Region3::interior_of(pair.dims());
    let t0 = Instant::now();
    for s in 0..sweeps {
        let (src, dst) = pair.src_dst(s);
        kernel::update_region_op(op, src, dst, &interior);
    }
    RunStats::new((sweeps * interior.count()) as u64, t0.elapsed())
}

/// Sequential sweeps with spatial blocking: each sweep visits the interior
/// block by block (better cache behaviour for large grids). Bitwise equal
/// to [`seq_sweeps_op`] because blocks are disjoint within a sweep.
pub fn seq_blocked_sweeps_op<T: Real, Op: StencilOp<T>>(
    op: &Op,
    pair: &mut GridPair<T>,
    sweeps: usize,
    block: [usize; 3],
) -> RunStats {
    let interior = Region3::interior_of(pair.dims());
    let partition = BlockPartition::new(interior, block);
    let t0 = Instant::now();
    for s in 0..sweeps {
        let (src, dst) = pair.src_dst(s);
        for (_, _, region) in partition.iter() {
            kernel::update_region_op(op, src, dst, &region);
        }
    }
    RunStats::new((sweeps * interior.count()) as u64, t0.elapsed())
}

/// Thread-parallel standard sweeps on `threads` workers of a persistent
/// runtime: the interior is split into contiguous z-slabs, one per
/// worker; every worker sweeps its slab and a barrier separates sweeps.
/// `store` selects plain or non-temporal stores (the paper's baseline
/// uses the latter; operators without a streaming row fall back to plain
/// stores, bitwise identically).
///
/// # Panics
/// Panics if `threads == 0` or `threads > rt.threads()`.
pub fn par_sweeps_op_on<T: Real, Op: StencilOp<T>>(
    rt: &Runtime,
    op: &Op,
    pair: &mut GridPair<T>,
    sweeps: usize,
    threads: usize,
    store: StoreMode,
) -> RunStats {
    assert!(threads >= 1);
    let dims = pair.dims();
    let interior = Region3::interior_of(dims);
    if interior.is_empty() || sweeps == 0 {
        return RunStats::new(0, std::time::Duration::ZERO);
    }
    let barrier = SpinBarrier::new(threads);
    let total = AtomicU64::new(0);
    let views = pair.shared_views();

    // Contiguous z-slabs, remainder spread over the first slabs.
    let nz = interior.extent(2);
    let t0 = Instant::now();
    rt.run(threads, &|k| {
        let (z0, z1) = slab(nz, threads, k);
        let mut slab_region = interior;
        slab_region.lo[2] = interior.lo[2] + z0;
        slab_region.hi[2] = interior.lo[2] + z1;
        let mut cells = 0u64;
        for s in 0..sweeps {
            let (sg, dg) = (s % 2, (s + 1) % 2);
            if !slab_region.is_empty() {
                // SAFETY: slabs are disjoint between workers and
                // the barrier separates sweeps, so no cell is
                // concurrently written while read: reads of
                // sweep s come from the grid written in sweep
                // s-1, sealed by the barrier below.
                unsafe {
                    kernel::update_region_shared_op(
                        op,
                        &views[sg],
                        &views[dg],
                        &slab_region,
                        store,
                    );
                }
                cells += slab_region.count() as u64;
            }
            barrier.wait();
        }
        total.fetch_add(cells, Ordering::Relaxed);
    });
    RunStats::new(total.load(Ordering::Relaxed), t0.elapsed())
}

/// Split `n` items into `threads` contiguous chunks; chunk `k` gets the
/// half-open range returned.
pub fn slab(n: usize, threads: usize, k: usize) -> (usize, usize) {
    let base = n / threads;
    let rem = n % threads;
    let lo = k * base + k.min(rem);
    let hi = lo + base + usize::from(k < rem);
    (lo, hi.min(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Avg27, Jacobi6, Jacobi7, VarCoeff7};
    use tb_grid::{init, norm, Dims3};

    fn reference(dims: Dims3, seed: u64, sweeps: usize) -> tb_grid::Grid3<f64> {
        let mut pair = GridPair::from_initial(init::random(dims, seed));
        seq_sweeps_op(&Jacobi6, &mut pair, sweeps);
        pair.current(sweeps).clone()
    }

    #[test]
    fn slab_partition_covers_exactly() {
        for n in [1usize, 2, 7, 16, 33] {
            for threads in [1usize, 2, 3, 5, 8] {
                let mut covered = 0;
                let mut prev_hi = 0;
                for k in 0..threads {
                    let (lo, hi) = slab(n, threads, k);
                    assert_eq!(lo, prev_hi, "gap at chunk {k}");
                    covered += hi - lo;
                    prev_hi = hi;
                }
                assert_eq!(covered, n, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn blocked_equals_plain_sequential() {
        let dims = Dims3::new(14, 11, 9);
        let want = reference(dims, 5, 4);
        let mut pair = GridPair::from_initial(init::random(dims, 5));
        seq_blocked_sweeps_op(&Jacobi6, &mut pair, 4, [5, 4, 3]);
        norm::assert_grids_identical(&want, pair.current(4), &Region3::whole(dims), "blocked");
    }

    #[test]
    fn parallel_equals_sequential_various_thread_counts() {
        let dims = Dims3::cube(16);
        let want = reference(dims, 8, 5);
        let rt = Runtime::with_threads(7);
        for threads in [1, 2, 3, 4, 7] {
            let mut pair = GridPair::from_initial(init::random(dims, 8));
            par_sweeps_op_on(&rt, &Jacobi6, &mut pair, 5, threads, StoreMode::Normal);
            norm::assert_grids_identical(
                &want,
                pair.current(5),
                &Region3::whole(dims),
                &format!("par {threads} threads"),
            );
        }
    }

    #[test]
    fn streaming_stores_bitwise_equal() {
        let dims = Dims3::cube(18);
        let want = reference(dims, 2, 3);
        let mut pair = GridPair::from_initial(init::random(dims, 2));
        let rt = Runtime::with_threads(2);
        par_sweeps_op_on(&rt, &Jacobi6, &mut pair, 3, 2, StoreMode::Streaming);
        norm::assert_grids_identical(&want, pair.current(3), &Region3::whole(dims), "nt");
    }

    #[test]
    fn more_threads_than_slabs_is_safe() {
        let dims = Dims3::new(10, 10, 5); // interior nz = 3 < 6 threads
        let want = reference(dims, 4, 2);
        let mut pair = GridPair::from_initial(init::random(dims, 4));
        let rt = Runtime::with_threads(6);
        par_sweeps_op_on(&rt, &Jacobi6, &mut pair, 2, 6, StoreMode::Normal);
        norm::assert_grids_identical(&want, pair.current(2), &Region3::whole(dims), "thin");
    }

    #[test]
    fn stats_account_updates() {
        let dims = Dims3::cube(10);
        let mut pair: GridPair<f64> = GridPair::from_initial(init::random(dims, 1));
        let rt = Runtime::with_threads(2);
        let s = par_sweeps_op_on(&rt, &Jacobi6, &mut pair, 3, 2, StoreMode::Normal);
        assert_eq!(s.cell_updates, (3 * dims.interior_len()) as u64);
    }

    #[test]
    fn f32_grids_work_too() {
        let dims = Dims3::cube(12);
        let mut a: GridPair<f32> = GridPair::from_initial(init::random(dims, 9));
        let mut b: GridPair<f32> = GridPair::from_initial(init::random(dims, 9));
        seq_sweeps_op(&Jacobi6, &mut a, 3);
        let rt = Runtime::with_threads(2);
        // f32 => plain-store fallback
        par_sweeps_op_on(&rt, &Jacobi6, &mut b, 3, 2, StoreMode::Streaming);
        norm::assert_grids_identical(a.current(3), b.current(3), &Region3::whole(dims), "f32");
    }

    #[test]
    fn every_operator_parallel_equals_its_sequential_oracle() {
        fn check<Op: StencilOp<f64>>(rt: &Runtime, op: &Op, dims: Dims3, sweeps: usize) {
            let mut a = GridPair::from_initial(init::random(dims, 31));
            seq_sweeps_op(op, &mut a, sweeps);
            for store in [StoreMode::Normal, StoreMode::Streaming] {
                let mut b = GridPair::from_initial(init::random(dims, 31));
                par_sweeps_op_on(rt, op, &mut b, sweeps, 3, store);
                norm::assert_grids_identical(
                    a.current(sweeps),
                    b.current(sweeps),
                    &Region3::whole(dims),
                    &format!("{} par {store:?}", op.name()),
                );
            }
            let mut c = GridPair::from_initial(init::random(dims, 31));
            seq_blocked_sweeps_op(op, &mut c, sweeps, [5, 4, 6]);
            norm::assert_grids_identical(
                a.current(sweeps),
                c.current(sweeps),
                &Region3::whole(dims),
                &format!("{} blocked", op.name()),
            );
        }
        let dims = Dims3::new(14, 12, 11);
        let rt = Runtime::with_threads(3);
        check(&rt, &Jacobi6, dims, 4);
        check(&rt, &Jacobi7::heat(0.1), dims, 4);
        check(&rt, &VarCoeff7::banded(dims), dims, 4);
        check(&rt, &Avg27, dims, 4);
    }
}
