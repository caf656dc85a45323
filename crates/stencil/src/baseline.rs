//! The "standard" baseline solvers (paper §1.1), generic over the
//! stencil operator.
//!
//! [`par_sweeps_op_on`] is the paper's baseline: out-of-place sweeps
//! over two grids with spatial blocking and (optionally) non-temporal
//! stores, parallelized by splitting the outer (z) dimension across
//! threads with a barrier per sweep — structurally the OpenMP code of the
//! paper. Its spatial blocking is the layer condition (arXiv:1004.1741):
//! each worker walks its own z-slab one y-block at a time, z innermost,
//! so the `2R + 1` source planes of a block stay in cache while the block
//! moves through z, and a sweep reads each source cell from memory about
//! once. That is the traffic Eq. 2 (`tb-model`'s roofline) assumes. The
//! block height follows from the row length alone (`y_blocks`); a plane
//! that fits the window whole is swept whole.
//!
//! [`seq_sweeps_op`] deliberately does not block: it is the *reference
//! oracle*, a plain full-interior traversal that every blocked and every
//! temporally blocked solver is verified bitwise against (instantiated
//! with the same operator), so each blocked traversal is checked against
//! an independent one.
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

/// Sequential reference: plain full-interior sweeps of `op`, unblocked
/// on purpose (module docs).
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
/// worker, and a barrier separates sweeps. Each worker sweeps its own
/// slab one y-block at a time, z innermost; the y-blocks partition the
/// slab, and their height comes from the row length (module docs), so
/// there is nothing to configure. `store` selects plain or non-temporal
/// stores (the paper's baseline uses the latter; operators without a
/// streaming row fall back to plain stores, bitwise identically).
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

    // Contiguous z-slabs and y-blocks, remainders spread over the first.
    let nz = interior.extent(2);
    let ny = interior.extent(1);
    let blocks = y_blocks(ny, dims.nx * size_of::<T>(), Op::RADIUS);
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
                for b in 0..blocks {
                    let (y0, y1) = slab(ny, blocks, b);
                    let mut block = slab_region;
                    block.lo[1] = interior.lo[1] + y0;
                    block.hi[1] = interior.lo[1] + y1;
                    // SAFETY: the y-blocks partition this worker's
                    // slab and slabs are disjoint between workers, so
                    // every destination cell has one writer per sweep;
                    // the barrier separates sweeps, so no cell is
                    // concurrently written while read: reads of sweep s
                    // come from the grid written in sweep s-1, sealed by
                    // the barrier below.
                    unsafe {
                        kernel::update_region_shared_op(op, &views[sg], &views[dg], &block, store);
                    }
                }
                cells += slab_region.count() as u64;
            }
            barrier.wait();
        }
        total.fetch_add(cells, Ordering::Relaxed);
    });
    RunStats::new(total.load(Ordering::Relaxed), t0.elapsed())
}

/// Source bytes one worker of [`par_sweeps_op_on`] keeps live: the
/// `2R + 1` planes × `(height + 2R)` rows of one y-block. The executor's
/// own constant, not a tuning knob (as diamond's front size is). It
/// makes 9 blocks of 31–32 rows at 288³ f64. On Jacobi6 288³ with 2 MiB
/// of L2 per core, heights from 16 to 143 rows measured within ~7 % of
/// each other, 4–8 rows ~10 % lower, and whole 286-row planes (a 2 MB
/// window) ~1.45× slower.
const WINDOW_BYTES: usize = 256 * 1024;

/// Number of near-equal y-blocks (split by [`slab`]) for an interior of
/// `ny` rows of `row_bytes` bytes and an operator of radius `radius`: the
/// fewest whose window fits `WINDOW_BYTES`. One when the whole plane
/// fits, and `ny` one-row blocks when not even a single row does.
fn y_blocks(ny: usize, row_bytes: usize, radius: usize) -> usize {
    let rows = WINDOW_BYTES / ((2 * radius + 1) * row_bytes.max(1));
    let height = rows.saturating_sub(2 * radius).max(1);
    ny.div_ceil(height)
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
    fn y_block_rule_partitions_rows_by_row_length() {
        let heights = |ny: usize, row_bytes: usize| -> Vec<usize> {
            let blocks = y_blocks(ny, row_bytes, 1);
            (0..blocks)
                .map(|b| {
                    let (lo, hi) = slab(ny, blocks, b);
                    hi - lo
                })
                .collect()
        };
        for (ny, row_bytes) in [(286, 288 * 8), (286, 288 * 4), (37, 1030 * 8), (94, 96 * 8)] {
            let h = heights(ny, row_bytes);
            assert_eq!(h.iter().sum::<usize>(), ny, "ny {ny}, row {row_bytes} B");
            let (lo, hi) = (h.iter().min().unwrap(), h.iter().max().unwrap());
            assert!(hi - lo <= 1, "ny {ny}, row {row_bytes} B: {h:?}");
        }
        // Not even one row fits: one-row blocks.
        assert_eq!(heights(10, WINDOW_BYTES), vec![1; 10]);
        // 64³ and 96³ f64 planes fit whole; 288³ f64 planes do not.
        assert_eq!(y_blocks(62, 64 * 8, 1), 1);
        assert_eq!(y_blocks(94, 96 * 8, 1), 1);
        assert!(y_blocks(286, 288 * 8, 1) > 1);
        // Half the bytes per row, about twice the rows per block.
        let tall = |row_bytes| 286.0 / y_blocks(286, row_bytes, 1) as f64;
        let ratio = tall(288 * 4) / tall(288 * 8);
        assert!((1.6..=2.4).contains(&ratio), "f32 / f64 height {ratio}");
    }

    /// Rows so long that a block holds a few of them, with a remainder in
    /// both precisions (f64: 5 blocks of 7–8 rows, f32: 2 of 18–19), and 7
    /// interior planes, so four workers leave one slab a single plane.
    #[test]
    fn wide_rows_block_bitwise_for_every_operator() {
        fn check<T: Real, Op: StencilOp<T>>(rt: &Runtime, op: &Op, dims: Dims3) {
            let ny = dims.ny - 2;
            let blocks = y_blocks(ny, dims.nx * size_of::<T>(), Op::RADIUS);
            assert!(
                blocks > 1 && !ny.is_multiple_of(blocks),
                "{blocks} blocks of {ny} rows"
            );
            let sweeps = 3;
            let mut want = GridPair::from_initial(init::random::<T>(dims, 41));
            seq_sweeps_op(op, &mut want, sweeps);
            for threads in 1..=4 {
                for store in [StoreMode::Normal, StoreMode::Streaming] {
                    let mut got = GridPair::from_initial(init::random::<T>(dims, 41));
                    par_sweeps_op_on(rt, op, &mut got, sweeps, threads, store);
                    norm::assert_grids_identical(
                        want.current(sweeps),
                        got.current(sweeps),
                        &Region3::whole(dims),
                        &format!(
                            "{} {} B/cell, {threads} threads, {store:?}",
                            op.name(),
                            size_of::<T>()
                        ),
                    );
                }
            }
        }
        let dims = Dims3::new(1030, 39, 9);
        let rt = Runtime::with_threads(4);
        check::<f64, _>(&rt, &Jacobi6, dims);
        check::<f32, _>(&rt, &Jacobi6, dims);
        check::<f64, _>(&rt, &Jacobi7::heat(0.1), dims);
        check::<f32, _>(&rt, &Jacobi7::heat(0.1), dims);
        check(&rt, &VarCoeff7::<f64>::banded(dims), dims);
        check(&rt, &VarCoeff7::<f32>::banded(dims), dims);
        check::<f64, _>(&rt, &Avg27, dims);
        check::<f32, _>(&rt, &Avg27, dims);
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
