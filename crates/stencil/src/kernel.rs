//! Region-update drivers: apply a [`StencilOp`] to grid regions in all
//! the storage schemes the solvers need.
//!
//! The canonical Jacobi operand order — `(west + east + south + north +
//! bottom + top) * (1/6)` — is fixed in [`jacobi_row`]; every other
//! operator fixes its order in its [`StencilOp::apply_rows`] impl. All
//! solvers funnel through the drivers here, which is what makes
//! cross-solver bitwise verification possible.
//!
//! Three drivers exist, one per storage scheme:
//!
//! * [`update_region_op`] — safe two-grid reference path,
//! * `update_region_shared_op` — crate-private unsafe [`SharedGrid`]
//!   path for the multi-threaded executors, with optional streaming
//!   stores,
//! * `update_region_compressed_op` — the crate-private single-allocation
//!   diagonally-shifted path of the compressed-grid scheme (§1.3).
//!
//! # One row-run kernel
//!
//! [`StencilOp::apply_rows`] is the only row kernel: it sweeps a
//! [`RowRun`] — rows `y0..y1` of one plane, cells `[x0, x1)`, given as a
//! source and a destination pointer and their strides — with a plain
//! indexed loop per row that LLVM vectorizes. The safe and the shared
//! driver hand over one run per z-plane, built after the driver's
//! single argument check, so a row costs a few stride additions and no
//! slice checks. The compressed driver hands over one-row runs: its
//! in-place shift writes each row over a source row of the row before,
//! and a run's source rows must not change while the run lives.
//!
//! # The x-faces travel with the rows
//!
//! The two-grid drivers write one cell more at each end of a row that
//! reaches the grid's x-face: after a plane's run, every row of a
//! region starting at `x = 1` gets its `x = 0` cell copied from source
//! to destination, and every row ending at `x = nx − 2` its
//! `x = nx − 1` cell. Those cells share cache lines the row loop reads
//! and writes anyway (a row's last cell and the next row's first are
//! neighbours in memory, so a region spanning x moves them as one
//! two-cell copy per row), and after a sweep over the interior both
//! buffers hold the same x-faces by construction — a pair needs only
//! its contiguous shell (the `z` planes and `y` rows) made equal before
//! the first sweep. The compressed driver copies its boundary cells
//! itself and carries nothing.
//!
//! The carry needs no ordering of its own:
//!
//! 1. a carried cell `(0, y, z)` is read only by the cells
//!    `(1, y ± R, z ± R)`, whose read box contains `(1, y, z)`, the
//!    carrying row's first interior cell (and symmetrically at
//!    `x = nx − 1`); no cell of the interior reads the carried cell of
//!    a row it does not neighbour;
//! 2. every executor runs `(cell, sweep)` after
//!    `(cell.expand(R), sweep − 1)` — the two-grid scheme's own
//!    ordering, for reads and for overwrites alike;
//! 3. so a carried write is ordered against its readers exactly like
//!    the write of `(1, y, z)` (or `(nx − 2, y, z)`) in the same call.
//!
//! A call's written cells are therefore `written_box(region, nx)`,
//! which is what the executors' debug `RegionAuditor` claims.
//!
//! # One row loop, two instruction sets
//!
//! What width the row loop vectorizes *to* is decided per region, not
//! per row. Each driver checks its arguments and then runs one
//! `#[inline(always)]` row-loop body, either directly — compiled
//! for the build target, SSE2 on a stock x86-64 build — or, when
//! [`StencilOp::WIDEN`] holds and the host CPU reports AVX, through a
//! three-line `#[target_feature(enable = "avx")]` wrapper into which
//! the same body is inlined and therefore compiled again at 256 bits.
//! `avx` only, never `fma`: contracting `a * b + c` would change bits.
//! Element-wise adds and multiplies give the same result at any vector
//! width, so the two compilations agree bitwise; [`ScalarPath`] sets
//! `WIDEN = false` and is the build-target twin the tests compare
//! against.
//!
//! **The rule a future edit must not break:** everything between a
//! wrapper and the arithmetic — the row-loop body, `plane_run`,
//! [`RowRun::src`] and [`RowRun::dst`], the operator's `apply_rows` and
//! its row function ([`jacobi_row`] for `Jacobi6`) — is
//! `#[inline(always)]`. A callee that is *not* inlined into the wrapper
//! is a separate function without the `avx` feature: it is silently
//! compiled at the build-target ISA, the results stay right, and the
//! widening is gone (`kernel.simd_gain` in the benchmark falls to 1).
//! How far above 1 a healthy gain sits depends on the operator: on
//! `Avg27` the build-target copy of the column sums vectorizes too
//! (SSE2), so a healthy gain there is only about 1.15–1.4 on an AVX
//! x86-64 host.
//!
//! [`ScalarPath`]: crate::op::ScalarPath

use tb_grid::{Dims3, Grid3, Real, Region3, SharedGrid};

use crate::op::{RowRun, StencilOp};

/// Update one row segment of `n = dst.len()` cells with the classic
/// 6-point Jacobi average.
///
/// * `dst` — destination cells `x0..x1` of row `(y, z)`,
/// * `c` — source center row covering `x0-1 ..= x1` (length `n + 2`),
/// * `ym`/`yp` — source rows `(y∓1, z)` covering `x0..x1`,
/// * `zm`/`zp` — source rows `(y, z∓1)` covering `x0..x1`.
///
/// This is Eq. 1, written once. The paper's SIMD requirement is met by
/// the compiler: the loop below vectorizes at whatever width the
/// enclosing region driver is compiled for (see the module docs).
#[inline(always)]
pub fn jacobi_row<T: Real>(dst: &mut [T], c: &[T], ym: &[T], yp: &[T], zm: &[T], zp: &[T]) {
    let n = dst.len();
    assert_eq!(c.len(), n + 2, "center row must cover x0-1..=x1");
    assert!(ym.len() == n && yp.len() == n && zm.len() == n && zp.len() == n);
    // Derived once per row; `1/6` of exact constants is the same bit
    // pattern everywhere, preserving cross-solver bitwise equality.
    let sixth = T::ONE / T::from_f64(6.0);
    for i in 0..n {
        dst[i] = (c[i] + c[i + 2] + ym[i] + yp[i] + zm[i] + zp[i]) * sixth;
    }
}

/// Non-temporal-store variant of [`jacobi_row`] for `f64` on x86-64.
///
/// The paper's baseline uses streaming stores to avoid the read-for-
/// ownership on the write stream, cutting the code balance from 24 to
/// 16 B/LUP. `_mm_stream_pd` requires 16-byte alignment, so a scalar head
/// runs until `dst` is aligned and a scalar tail mops up. On other
/// architectures this falls back to the plain kernel.
#[inline]
pub fn jacobi_row_nt_f64(
    dst: &mut [f64],
    c: &[f64],
    ym: &[f64],
    yp: &[f64],
    zm: &[f64],
    zp: &[f64],
) {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: slice lengths are checked inside; SSE2 is part of the
        // x86-64 baseline.
        unsafe { jacobi_row_nt_f64_sse2(dst, c, ym, yp, zm, zp) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        jacobi_row(dst, c, ym, yp, zm, zp);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn jacobi_row_nt_f64_sse2(
    dst: &mut [f64],
    c: &[f64],
    ym: &[f64],
    yp: &[f64],
    zm: &[f64],
    zp: &[f64],
) {
    use std::arch::x86_64::*;
    let n = dst.len();
    assert_eq!(c.len(), n + 2);
    assert!(ym.len() == n && yp.len() == n && zm.len() == n && zp.len() == n);

    let mut i = 0usize;
    // Scalar head until dst is 16-byte aligned.
    while i < n && !(dst.as_ptr().add(i) as usize).is_multiple_of(16) {
        dst[i] = (c[i] + c[i + 2] + ym[i] + yp[i] + zm[i] + zp[i]) * (1.0 / 6.0);
        i += 1;
    }
    let sixth = _mm_set1_pd(1.0 / 6.0);
    while i + 2 <= n {
        let w = _mm_loadu_pd(c.as_ptr().add(i));
        let e = _mm_loadu_pd(c.as_ptr().add(i + 2));
        let s = _mm_loadu_pd(ym.as_ptr().add(i));
        let nn = _mm_loadu_pd(yp.as_ptr().add(i));
        let b = _mm_loadu_pd(zm.as_ptr().add(i));
        let t = _mm_loadu_pd(zp.as_ptr().add(i));
        // Fixed association: ((((w+e)+s)+n)+b)+t — identical to the scalar
        // kernel's left-to-right sum, so results stay bitwise equal.
        let sum = _mm_add_pd(
            _mm_add_pd(_mm_add_pd(_mm_add_pd(_mm_add_pd(w, e), s), nn), b),
            t,
        );
        _mm_stream_pd(dst.as_mut_ptr().add(i), _mm_mul_pd(sum, sixth));
        i += 2;
    }
    while i < n {
        dst[i] = (c[i] + c[i + 2] + ym[i] + yp[i] + zm[i] + zp[i]) * (1.0 / 6.0);
        i += 1;
    }
    _mm_sfence();
}

/// Storage behaviour for the write stream of baseline sweeps.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum StoreMode {
    /// Plain stores (cache-allocating; incurs read-for-ownership).
    #[default]
    Normal,
    /// Non-temporal stores where the operator provides them (classic
    /// Jacobi on x86-64 `f64`; elsewhere falls back to plain stores).
    Streaming,
}

/// Whether the host CPU has AVX — the one runtime fact the drivers
/// below consult, once per call (std caches the CPUID answer).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn host_has_avx() -> bool {
    std::arch::is_x86_feature_detected!("avx")
}

/// Apply one sweep of `op` to `region`, reading `src` and writing `dst`.
///
/// `region` must lie within the interior of the grids (every cell needs
/// its full radius-1 neighborhood). Rows reaching an x-face also carry
/// its cell from `src` to `dst` (see "The x-faces travel with the
/// rows"). This is the safe reference implementation that all
/// concurrent executors are verified against.
pub fn update_region_op<T: Real, Op: StencilOp<T>>(
    op: &Op,
    src: &Grid3<T>,
    dst: &mut Grid3<T>,
    region: &Region3,
) {
    let dims = src.dims();
    assert_eq!(dims, dst.dims());
    assert!(
        Region3::interior_of(dims).contains_region(region),
        "region {region} not interior to {dims}"
    );
    if region.is_empty() {
        return;
    }
    let (sp, dp, store) = (src.as_ptr(), dst.as_mut_ptr(), StoreMode::Normal);
    #[cfg(target_arch = "x86_64")]
    if Op::WIDEN && host_has_avx() {
        // The source view is only read.
        let [sv, dv] = [sp.cast_mut(), dp].map(|p| SharedGrid::from_raw(p, dims));
        // SAFETY: the host CPU reports AVX; the region is interior, and
        // `dst` is exclusively borrowed, so no other access overlaps.
        return unsafe { two_grid_rows_avx(op, &sv, &dv, region, store) };
    }
    // SAFETY: as above.
    unsafe { two_grid_rows(op, sp, dp, dims, region, store) }
}

/// Panics unless every one of `domains` is interior to `dims`, which
/// keeps a region update's radius-1 reads inside the grid: the temporal
/// executors' safe entries check their sweep domains with it first.
pub(crate) fn assert_interior(dims: Dims3, domains: &[Region3]) {
    let interior = Region3::interior_of(dims);
    for (s, domain) in domains.iter().enumerate() {
        assert!(
            interior.contains_region(domain),
            "sweep {s}: domain {domain} not interior to {dims}"
        );
    }
}

/// Test oracle for the executors' [`assert_interior`] check: `run` on a
/// pair over random data must panic naming sweep 1 as not interior, and
/// leave both buffers untouched — the check runs before any dispatch.
#[cfg(test)]
pub(crate) fn assert_rejects_sweep_1(dims: Dims3, run: impl FnOnce(&mut tb_grid::GridPair<f64>)) {
    let initial: Grid3<f64> = tb_grid::init::random(dims, 5);
    let mut pair = tb_grid::GridPair::from_initial(initial.clone());
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&mut pair)))
        .expect_err("a domain outside the interior must panic");
    let msg = err
        .downcast_ref::<String>()
        .expect("a formatted panic message");
    assert!(
        msg.starts_with("sweep 1: ") && msg.contains("not interior"),
        "{msg}"
    );
    for buffer in [pair.current(0), pair.current(1)] {
        tb_grid::norm::assert_grids_identical(&initial, buffer, &Region3::whole(dims), "untouched");
    }
}

/// The run of `block`'s rows (`block` one plane thick) between two
/// grids laid out as `dims`: read from the allocation at `src`, written
/// to the one at `dst`, physical cell = logical cell + `off[0]` on the
/// source side and `off[1]` on the destination side.
///
/// # Safety
/// `block.expand(1)` shifted by `off[0]` lies inside the source
/// allocation and `block` shifted by `off[1]` inside the destination's,
/// and the [`RowRun::new`] contract holds for the returned run's
/// lifetime (`corners` as there).
#[inline(always)]
unsafe fn plane_run<'a, T: Real>(
    src: *const T,
    dst: *mut T,
    dims: Dims3,
    block: &Region3,
    off: [usize; 2],
    corners: bool,
) -> RowRun<'a, T> {
    let [x0, y0, z] = block.lo;
    let (s, d) = (off[0], off[1]);
    RowRun::new(
        src.add(dims.idx(x0 - 1 + s, y0 - 1 + s, z - 1 + s)),
        [dims.nx, dims.nx * dims.ny],
        dst.add(dims.idx(x0 + d, y0 + d, z + d)),
        dims.nx,
        block,
        corners,
    )
}

/// Plane `z` of `region`.
#[inline(always)]
fn plane(region: &Region3, z: usize) -> Region3 {
    Region3::new(
        [region.lo[0], region.lo[1], z],
        [region.hi[0], region.hi[1], z + 1],
    )
}

/// The cells a two-grid driver call over `region` writes in a grid
/// `nx` cells wide: `region` plus the x-faces its rows carry (see "The
/// x-faces travel with the rows").
pub(crate) fn written_box(region: &Region3, nx: usize) -> Region3 {
    let mut written = *region;
    if written.is_empty() {
        return written;
    }
    if written.lo[0] == 1 {
        written.lo[0] = 0;
    }
    if written.hi[0] + 1 == nx {
        written.hi[0] = nx;
    }
    written
}

/// Copy the x-faces `block`'s rows carry (`block` one plane thick) from
/// the allocation at `src` to the one at `dst`, both laid out as `dims`:
/// cell `x = 0` of every row when `block` starts at `x = 1`, cell
/// `x = nx − 1` when it ends at `x = nx − 2`.
///
/// # Safety
/// `block` is interior to `dims`, both allocations hold `dims` cells,
/// and for the call nothing else accesses the carried destination cells
/// or writes the carried source cells.
#[inline(always)]
unsafe fn carry_x_faces<T: Real>(src: *const T, dst: *mut T, dims: Dims3, block: &Region3) {
    let ([x0, y0, z], [x1, y1, _]) = (block.lo, block.hi);
    let (nx, rows) = (dims.nx, y1 - y0);
    // Cell (0, y0 + r, z) is `first + r·nx`.
    let first = dims.idx(0, y0, z);
    match (x0 == 1, x1 + 1 == nx) {
        (true, true) => {
            // Row `r − 1`'s last cell and row `r`'s first are neighbours
            // in memory: one two-cell copy per pair of rows.
            *dst.add(first) = *src.add(first);
            for r in 1..rows {
                let i = first + r * nx - 1;
                std::ptr::copy_nonoverlapping(src.add(i), dst.add(i), 2);
            }
            let i = first + rows * nx - 1;
            *dst.add(i) = *src.add(i);
        }
        (true, false) => {
            for r in 0..rows {
                let i = first + r * nx;
                *dst.add(i) = *src.add(i);
            }
        }
        (false, true) => {
            for r in 1..=rows {
                let i = first + r * nx - 1;
                *dst.add(i) = *src.add(i);
            }
        }
        (false, false) => {}
    }
}

/// The row loop of both two-grid drivers ([`update_region_op`] and
/// [`update_region_shared_op`]) between the allocations at `src` and
/// `dst`, both laid out as `dims`: one run per plane, then the plane's
/// carried x-faces.
///
/// # Safety
/// `region` is non-empty and interior to `dims`; `src` and `dst` are
/// distinct allocations of `dims` cells; for the call nothing else
/// writes a cell of `region.expand(1)` at `src` nor accesses a cell of
/// [`written_box`]`(region, nx)` at `dst`.
#[inline(always)]
unsafe fn two_grid_rows<T: Real, Op: StencilOp<T>>(
    op: &Op,
    src: *const T,
    dst: *mut T,
    dims: Dims3,
    region: &Region3,
    store: StoreMode,
) {
    for z in region.lo[2]..region.hi[2] {
        let block = plane(region, z);
        // SAFETY: the caller's contract, which covers the carried
        // x-faces too; the grids are distinct, so no source row overlaps
        // a destination row, and the run is done before its row ends
        // are carried.
        let mut run = plane_run(src, dst, dims, &block, [0, 0], true);
        match store {
            StoreMode::Normal => op.apply_rows(&mut run),
            StoreMode::Streaming => op.apply_rows_streaming(&mut run),
        }
        carry_x_faces(src, dst, dims, &block);
    }
}

/// [`two_grid_rows`] compiled at AVX width, between the views' grids.
/// It takes the views and derives pointers and dims inside: handing
/// those across the call instead measured 2–4 % slower on the diamond's
/// short chunk-per-call updates (`Avg27`, 64³, two threads).
///
/// # Safety
/// As [`two_grid_rows`] for the views' allocations (`dst`'s built from
/// a mutable pointer), and the host CPU must support AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn two_grid_rows_avx<T: Real, Op: StencilOp<T>>(
    op: &Op,
    src: &SharedGrid<T>,
    dst: &SharedGrid<T>,
    region: &Region3,
    store: StoreMode,
) {
    let (sp, dp) = (src.row_ptr(0, 0, 0), dst.row_ptr(0, 0, 0).cast_mut());
    two_grid_rows(op, sp, dp, src.dims(), region, store)
}

/// Concurrent-executor version of [`update_region_op`] over shared views.
///
/// # Safety
/// Caller must guarantee that, for the duration of the call, no other
/// thread writes any cell of `region.expand(1)` in `src` nor reads/writes
/// any cell of [`written_box`]`(region, nx)` — `region` and its carried
/// x-faces — in `dst` (the pipeline plan's disjointness invariant; the
/// module docs' ordering argument extends it from `region` to the
/// carried cells).
pub(crate) unsafe fn update_region_shared_op<T: Real, Op: StencilOp<T>>(
    op: &Op,
    src: &SharedGrid<T>,
    dst: &SharedGrid<T>,
    region: &Region3,
    store: StoreMode,
) {
    let dims = src.dims();
    debug_assert_eq!(dims, dst.dims());
    debug_assert!(Region3::interior_of(dims).contains_region(region));
    if region.is_empty() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if Op::WIDEN && host_has_avx() {
        // SAFETY: the host CPU reports AVX; the rest is the caller's.
        return two_grid_rows_avx(op, src, dst, region, store);
    }
    // `dst`'s view was built from a mutable pointer.
    let (sp, dp) = (src.row_ptr(0, 0, 0), dst.row_ptr(0, 0, 0).cast_mut());
    two_grid_rows(op, sp, dp, dims, region, store)
}

/// Compressed-grid stage kernel: stencil-update the interior cells of
/// `region` and *copy* its boundary cells, reading the frame displaced by
/// `src_off` and writing the frame displaced by `dst_off` of one shared
/// allocation.
///
/// * `op` — the stencil operator,
/// * `view` — the compressed grid's physical allocation,
/// * `logical` — extents of the logical domain (incl. Dirichlet layer),
/// * `region` — logical cells to produce, possibly including boundary
///   cells (the "shell" the executor assigns to this stage),
/// * `src_off`/`dst_off` — physical frame offsets (`physical = logical +
///   off`; the caller folds margin + displacement into them),
/// * `descending` — row iteration order. In-place safety requires
///   ascending rows when the frame moves down (`dst_off = src_off - 1`)
///   and descending rows when it moves up (`dst_off = src_off + 1`).
///
/// For cross-shaped operators the x order within a row never matters
/// because the diagonal shift moves writes onto different `(y, z)` lines.
/// Corner-reading operators ([`StencilOp::READS_CORNERS`]) *do* have one
/// source row coinciding with the write row — for those, the nine source
/// rows are staged through a scratch buffer before any write, which keeps
/// the result exact and the borrows disjoint.
///
/// # Safety
/// The physical source cells `region.expand(1) + src_off` must not be
/// concurrently written, and the physical destination cells `region +
/// dst_off` must not be concurrently accessed at all. The compressed
/// pipeline plan guarantees both (see `pipeline::plan`).
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn update_region_compressed_op<T: Real, Op: StencilOp<T>>(
    op: &Op,
    view: &SharedGrid<T>,
    logical: Dims3,
    region: &Region3,
    src_off: usize,
    dst_off: usize,
    descending: bool,
) {
    if region.is_empty() {
        return;
    }
    debug_assert!(
        (dst_off + 1 == src_off && !descending) || (dst_off == src_off + 1 && descending),
        "iteration order must match shift direction"
    );
    #[cfg(target_arch = "x86_64")]
    if Op::WIDEN && host_has_avx() {
        // SAFETY: the host CPU reports AVX; the rest is the caller's.
        return compressed_rows_avx(op, view, logical, region, src_off, dst_off, descending);
    }
    compressed_rows(op, view, logical, region, src_off, dst_off, descending)
}

/// The row loop of [`update_region_compressed_op`].
///
/// # Safety
/// As [`update_region_compressed_op`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn compressed_rows<T: Real, Op: StencilOp<T>>(
    op: &Op,
    view: &SharedGrid<T>,
    logical: Dims3,
    region: &Region3,
    src_off: usize,
    dst_off: usize,
    descending: bool,
) {
    let (x0, x1) = (region.lo[0], region.hi[0]);
    let interior = Region3::interior_of(logical);
    let (phys, base) = (view.dims(), view.row_ptr(0, 0, 0).cast_mut());
    // Scratch for the corner-reading path: nine rows of the widest
    // possible segment, staged before the (aliasing) write.
    let mut scratch: Vec<T> = if Op::READS_CORNERS {
        vec![T::ZERO; 9 * (region.extent(0) + 2)]
    } else {
        Vec::new()
    };
    // k-th index of `lo..hi` in the iteration order.
    let nth = |lo: usize, hi: usize, k: usize| if descending { hi - 1 - k } else { lo + k };
    for kz in 0..region.extent(2) {
        let z = nth(region.lo[2], region.hi[2], kz);
        for ky in 0..region.extent(1) {
            let y = nth(region.lo[1], region.hi[1], ky);
            let row_is_boundary = y == 0 || z == 0 || y + 1 == logical.ny || z + 1 == logical.nz;
            if row_is_boundary {
                // Pure copy of the whole segment.
                copy_row(view, x0, x1, y, z, src_off, dst_off);
                continue;
            }
            // Boundary cells at the x ends are copied, the rest is the
            // stencil segment xs..xe.
            let lead = x0 == 0;
            let trail = x1 == logical.nx;
            let xs = if lead { 1 } else { x0 };
            let xe = if trail { logical.nx - 1 } else { x1 };
            let has_stencil = xs < xe;
            // Corner-reading operators: stage all nine source rows
            // *before any write to this row's destination line* — one
            // corner source row shares that physical line, and even the
            // x-end boundary copies below land inside its x-range.
            let len = xe.saturating_sub(xs) + 2;
            if has_stencil && Op::READS_CORNERS {
                for dz in 0..3usize {
                    for dy in 0..3usize {
                        let s = view.row(
                            xs - 1 + src_off,
                            xe + 1 + src_off,
                            y + dy - 1 + src_off,
                            z + dz - 1 + src_off,
                        );
                        let k = dz * 3 + dy;
                        scratch[k * len..(k + 1) * len].copy_from_slice(s);
                    }
                }
            }
            if lead {
                copy_row(view, 0, 1, y, z, src_off, dst_off);
            }
            if trail {
                copy_row(view, logical.nx - 1, logical.nx, y, z, src_off, dst_off);
            }
            if !has_stencil {
                continue;
            }
            debug_assert!(interior.contains(xs, y, z) && interior.contains(xe - 1, y, z));
            let row = Region3::new([xs, y, z], [xe, y + 1, z + 1]);
            let mut run = if Op::READS_CORNERS {
                // The staged rows: a 3×3-row run, rows `len` and planes
                // `3·len` apart, none of them in the grid.
                let d = base.add(phys.idx(xs + dst_off, y + dst_off, z + dst_off));
                RowRun::new(scratch.as_ptr(), [len, 3 * len], d, 0, &row, true)
            } else {
                // In place: one corner source row is the write row, and
                // the run refuses to hand it out.
                plane_run(base, base, phys, &row, [src_off, dst_off], false)
            };
            op.apply_rows(&mut run);
        }
    }
}

/// [`compressed_rows`] compiled at AVX width.
///
/// # Safety
/// As [`update_region_compressed_op`], and the host CPU must support AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[allow(clippy::too_many_arguments)]
unsafe fn compressed_rows_avx<T: Real, Op: StencilOp<T>>(
    op: &Op,
    view: &SharedGrid<T>,
    logical: Dims3,
    region: &Region3,
    src_off: usize,
    dst_off: usize,
    descending: bool,
) {
    compressed_rows(op, view, logical, region, src_off, dst_off, descending)
}

/// Copy logical cells `[x0, x1) x {y} x {z}` from frame `src_off` to frame
/// `dst_off`.
///
/// # Safety
/// Same aliasing requirements as [`update_region_compressed_op`]. Source
/// and destination rows never overlap because the frames differ by exactly
/// one in every coordinate (diagonal displacement), which moves the row to
/// a different `(y, z)` line.
unsafe fn copy_row<T: Real>(
    view: &SharedGrid<T>,
    x0: usize,
    x1: usize,
    y: usize,
    z: usize,
    src_off: usize,
    dst_off: usize,
) {
    debug_assert_ne!(src_off, dst_off);
    let s = view.row(x0 + src_off, x1 + src_off, y + src_off, z + src_off);
    let d = view.row_mut(x0 + dst_off, x1 + dst_off, y + dst_off, z + dst_off);
    d.copy_from_slice(s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Avg27, Jacobi6, Jacobi7, ScalarPath, VarCoeff7};
    use tb_grid::{init, norm, CompressedGrid};

    fn reference_cell(src: &Grid3<f64>, x: usize, y: usize, z: usize) -> f64 {
        (src.get(x - 1, y, z)
            + src.get(x + 1, y, z)
            + src.get(x, y - 1, z)
            + src.get(x, y + 1, z)
            + src.get(x, y, z - 1)
            + src.get(x, y, z + 1))
            * (1.0 / 6.0)
    }

    /// One sweep of `regions`, in order, from `src` into `dst`: through
    /// the shared driver with store mode `shared`, or through the safe
    /// driver when `shared` is `None`.
    fn sweep_into<T: Real, Op: StencilOp<T>>(
        op: &Op,
        src: &Grid3<T>,
        mut dst: Grid3<T>,
        regions: &[Region3],
        shared: Option<StoreMode>,
    ) -> Grid3<T> {
        let Some(store) = shared else {
            for region in regions {
                update_region_op(op, src, &mut dst, region);
            }
            return dst;
        };
        let mut src = src.clone();
        let sv = SharedGrid::from_raw(src.as_mut_ptr(), src.dims());
        let dv = SharedGrid::from_raw(dst.as_mut_ptr(), src.dims());
        for region in regions {
            // SAFETY: single-threaded; `src` and `dst` are distinct grids.
            unsafe { update_region_shared_op(op, &sv, &dv, region, store) };
        }
        dst
    }

    /// One sweep of `regions`, in order, through the shared driver into
    /// a zeroed grid.
    fn shared_sweep<T: Real, Op: StencilOp<T>>(
        op: &Op,
        src: &Grid3<T>,
        regions: &[Region3],
        store: StoreMode,
    ) -> Grid3<T> {
        sweep_into(op, src, Grid3::zeroed(src.dims()), regions, Some(store))
    }

    /// One sweep of `regions`, in order, through the safe driver into a
    /// zeroed grid.
    fn safe_sweep<T: Real, Op: StencilOp<T>>(
        op: &Op,
        src: &Grid3<T>,
        regions: &[Region3],
    ) -> Grid3<T> {
        sweep_into(op, src, Grid3::zeroed(src.dims()), regions, None)
    }

    /// One down sweep (frame 0 -> -1, margin 1, ascending rows) of
    /// `regions`, in order, through the compressed driver; the new frame
    /// as a grid (cells outside `regions` are stale storage).
    fn compressed_down<T: Real, Op: StencilOp<T>>(
        op: &Op,
        initial: &Grid3<T>,
        regions: &[Region3],
    ) -> Grid3<T> {
        let dims = initial.dims();
        let mut cg = CompressedGrid::from_grid(initial, 1);
        let view = cg.shared();
        for region in regions {
            // SAFETY: single-threaded; rows ascend within a region and
            // regions come in x-fastest order, so every source cell is
            // read before the shifted frame overwrites it.
            unsafe { update_region_compressed_op(op, &view, dims, region, 1, 0, false) };
        }
        cg.set_displacement(-1);
        cg.to_grid()
    }

    /// Two whole-domain sweeps through the compressed driver, margin 1:
    /// down (frame 0 -> -1, offsets 1 -> 0, ascending rows), then up
    /// (frame -1 -> 0, offsets 0 -> 1, descending rows).
    fn compressed_down_up<T: Real, Op: StencilOp<T>>(op: &Op, initial: &Grid3<T>) -> Grid3<T> {
        let dims = initial.dims();
        let mut cg = CompressedGrid::from_grid(initial, 1);
        let view = cg.shared();
        let whole = Region3::whole(dims);
        // SAFETY: single-threaded; row order matches the shift direction.
        unsafe {
            update_region_compressed_op(op, &view, dims, &whole, 1, 0, false);
            update_region_compressed_op(op, &view, dims, &whole, 0, 1, true);
        }
        cg.set_displacement(0);
        cg.to_grid()
    }

    #[test]
    fn row_kernel_matches_pointwise_formula() {
        let dims = Dims3::new(8, 5, 5);
        let src: Grid3<f64> = init::random(dims, 11);
        let mut dst: Grid3<f64> = Grid3::zeroed(dims);
        let region = Region3::interior_of(dims);
        update_region_op(&Jacobi6, &src, &mut dst, &region);
        for (x, y, z) in region.iter() {
            assert_eq!(
                dst.get(x, y, z),
                reference_cell(&src, x, y, z),
                "at ({x},{y},{z})"
            );
        }
    }

    #[test]
    fn update_region_leaves_outside_untouched() {
        let dims = Dims3::cube(6);
        let src: Grid3<f64> = init::random(dims, 3);
        let mut dst: Grid3<f64> = Grid3::filled(dims, -1.0);
        let region = Region3::new([2, 2, 2], [4, 4, 4]);
        update_region_op(&Jacobi6, &src, &mut dst, &region);
        assert_eq!(dst.get(1, 1, 1), -1.0);
        assert_eq!(dst.get(4, 4, 4), -1.0);
        assert_ne!(dst.get(2, 2, 2), -1.0);
    }

    #[test]
    fn linear_field_is_fixed_point_to_rounding() {
        // Multiplying by 1/6 (inexact) instead of dividing by 6 leaves
        // ~1 ulp of slack, hence a tolerance here (bitwise determinism is
        // across solvers, not against the algebraic formula).
        let dims = Dims3::cube(7);
        let src: Grid3<f64> = init::linear(dims, 1.0, 2.0, -0.5, 3.0);
        let mut dst = src.clone();
        update_region_op(&Jacobi6, &src, &mut dst, &Region3::interior_of(dims));
        let d = norm::max_abs_diff(&src, &dst, &Region3::interior_of(dims));
        assert!(d < 1e-12, "linear field drifted by {d}");
    }

    #[test]
    fn shared_version_matches_safe_version_for_every_op() {
        let dims = Dims3::new(14, 9, 8);
        let src: Grid3<f64> = init::random(dims, 21);
        let region = Region3::interior_of(dims);

        fn check<Op: StencilOp<f64>>(op: &Op, src: &Grid3<f64>, region: &Region3) {
            let mut want: Grid3<f64> = Grid3::zeroed(src.dims());
            update_region_op(op, src, &mut want, region);
            for store in [StoreMode::Normal, StoreMode::Streaming] {
                let got = shared_sweep(op, src, &[*region], store);
                let ctx = format!("{} shared {store:?}", op.name());
                norm::assert_grids_identical(&want, &got, &Region3::whole(src.dims()), &ctx);
            }
        }
        check(&Jacobi6, &src, &region);
        check(&Jacobi7::heat(0.05), &src, &region);
        check(&VarCoeff7::banded(dims), &src, &region);
        check(&Avg27, &src, &region);
    }

    #[test]
    fn nt_store_row_is_bitwise_equal_to_plain_row() {
        let n = 37; // odd length to exercise head/tail handling
        let c: Vec<f64> = (0..n + 2).map(|i| (i as f64).sin()).collect();
        let ym: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let yp: Vec<f64> = (0..n).map(|i| (i as f64 * 0.5).sin()).collect();
        let zm: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        let zp: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let mut d1 = vec![0.0; n];
        let mut d2 = vec![0.0; n];
        jacobi_row(&mut d1, &c, &ym, &yp, &zm, &zp);
        jacobi_row_nt_f64(&mut d2, &c, &ym, &yp, &zm, &zp);
        assert_eq!(d1, d2);
    }

    #[test]
    fn compressed_kernel_matches_two_grid_kernel() {
        // One full sweep through the compressed path (shift -1) must equal
        // the plain sweep.
        let dims = Dims3::cube(8);
        let initial: Grid3<f64> = init::random(dims, 9);
        // Plain reference.
        let mut ref_dst = initial.clone();
        update_region_op(
            &Jacobi6,
            &initial,
            &mut ref_dst,
            &Region3::interior_of(dims),
        );

        // Compressed: margin 1, one stage. src frame disp 0 => offset
        // margin + 0 = 1; dst frame disp -1 => offset 0.
        let mut cg = CompressedGrid::from_grid(&initial, 1);
        let view = cg.shared();
        let whole = Region3::whole(dims);
        unsafe { update_region_compressed_op(&Jacobi6, &view, dims, &whole, 1, 0, false) };
        cg.set_displacement(-1);
        let got = cg.to_grid();
        norm::assert_grids_identical(&ref_dst, &got, &Region3::whole(dims), "compressed sweep");
    }

    #[test]
    fn compressed_down_then_up_matches_two_plain_sweeps_per_op() {
        fn check<Op: StencilOp<f64>>(op: &Op, dims: Dims3) {
            let initial: Grid3<f64> = init::random(dims, 21);
            // Reference: two out-of-place sweeps.
            let a = initial.clone();
            let mut b = initial.clone();
            update_region_op(op, &a, &mut b, &Region3::interior_of(dims));
            let mut c = b.clone();
            update_region_op(op, &b, &mut c, &Region3::interior_of(dims));

            let got = compressed_down_up(op, &initial);
            let ctx = format!("{} down+up", op.name());
            norm::assert_grids_identical(&c, &got, &Region3::whole(dims), &ctx);
        }
        let dims = Dims3::cube(7);
        check(&Jacobi6, dims);
        check(&Jacobi7::heat(0.08), dims);
        check(&VarCoeff7::banded(dims), dims);
        check(&Avg27, dims); // exercises the corner scratch path
    }

    /// The AVX copy of the row loop is bitwise identical to the
    /// build-target copy ([`ScalarPath`]) at deliberately awkward
    /// offsets and row lengths, one row at a time. On hosts without AVX
    /// both sides run the same code and this degenerates to a check
    /// that exactly the row is written.
    #[test]
    fn kernels_match_scalar_rows() {
        fn check<T: Real, Op: StencilOp<T>>(op: &Op, dims: Dims3, seed: u64) {
            let g: Grid3<T> = init::random(dims, seed);
            for (x0, x1) in [(1, dims.nx - 1), (2, dims.nx - 2), (5, 5 + 9)] {
                for (y, z) in [(1, 1), (2, 3)] {
                    let row = Region3::new([x0, y, z], [x1, y + 1, z + 1]);
                    let mut wide: Grid3<T> = Grid3::zeroed(dims);
                    let mut base: Grid3<T> = Grid3::zeroed(dims);
                    update_region_op(op, &g, &mut wide, &row);
                    update_region_op(&ScalarPath(op.clone()), &g, &mut base, &row);
                    let ctx = format!("{} x0={x0} x1={x1} y={y} z={z}", op.name());
                    norm::assert_grids_identical(&base, &wide, &Region3::whole(dims), &ctx);
                }
            }
        }
        // The full-width rows span three Avg27 chunks.
        let dims = Dims3::new(2 * Avg27::CHUNK + 7, 6, 6);
        check::<f64, _>(&Jacobi6, dims, 1);
        check::<f64, _>(&Jacobi7::heat(0.12), dims, 2);
        check::<f64, _>(&VarCoeff7::banded(dims), dims, 3);
        check::<f64, _>(&Avg27, dims, 4);
        check::<f32, _>(&Jacobi6, dims, 5);
        check::<f32, _>(&Jacobi7::heat(0.12), dims, 6);
        check::<f32, _>(&VarCoeff7::banded(dims), dims, 7);
        check::<f32, _>(&Avg27, dims, 8);
    }

    /// The same widened-vs-build-target comparison through the other
    /// two drivers, on multi-row regions: shared (both store modes) and
    /// compressed (down + up sweep; `Avg27` takes the scratch path).
    #[test]
    fn widened_shared_and_compressed_match_scalar_path() {
        fn check<T: Real, Op: StencilOp<T>>(op: &Op, dims: Dims3, seed: u64) {
            let g: Grid3<T> = init::random(dims, seed);
            let base = ScalarPath(op.clone());
            let whole = Region3::whole(dims);
            // An inner box, so rows start and end off the vector grid.
            let inner = Region3::new([2, 1, 1], [dims.nx - 3, 5, 6]);
            for store in [StoreMode::Normal, StoreMode::Streaming] {
                let want = shared_sweep(&base, &g, &[inner], store);
                let got = shared_sweep(op, &g, &[inner], store);
                let ctx = format!("{} shared {store:?}", op.name());
                norm::assert_grids_identical(&want, &got, &whole, &ctx);
            }
            let (want, got) = (compressed_down_up(&base, &g), compressed_down_up(op, &g));
            let ctx = format!("{} compressed down+up", op.name());
            norm::assert_grids_identical(&want, &got, &whole, &ctx);
        }
        // Inner-box and compressed rows span three Avg27 chunks.
        let dims = Dims3::new(2 * Avg27::CHUNK + 11, 7, 8);
        check::<f64, _>(&Jacobi6, dims, 11);
        check::<f64, _>(&Jacobi7::heat(0.12), dims, 12);
        check::<f64, _>(&VarCoeff7::banded(dims), dims, 13);
        check::<f64, _>(&Avg27, dims, 14);
        check::<f32, _>(&Jacobi6, dims, 15);
        check::<f32, _>(&Jacobi7::heat(0.12), dims, 16);
        check::<f32, _>(&VarCoeff7::banded(dims), dims, 17);
        check::<f32, _>(&Avg27, dims, 18);
    }

    /// Degenerate regions — one or two cells wide, one row high, one
    /// plane thick — and the `Blocked{[16,8,8]}` partition of a 48³ grid
    /// through all three drivers (the shared one in both store modes):
    /// every written cell, carried x-faces included, is the sequential
    /// oracle's, bitwise, for the widened operator and its
    /// [`ScalarPath`] twin alike.
    #[test]
    fn degenerate_regions_and_blocks_match_the_oracle_in_every_driver() {
        fn check<T: Real, Op: StencilOp<T>>(op: &Op, seed: u64) {
            let dims = Dims3::cube(48);
            let initial: Grid3<T> = init::random(dims, seed);
            let mut pair = tb_grid::GridPair::from_initial(initial.clone());
            crate::baseline::seq_sweeps_op(op, &mut pair, 1);
            let oracle = pair.current(1);
            let interior = Region3::interior_of(dims);
            let blocks = |domain| -> Vec<Region3> {
                let partition = tb_grid::BlockPartition::new(domain, [16, 8, 8]);
                partition.iter().map(|(_, _, block)| block).collect()
            };
            let sets: Vec<(&str, Vec<Region3>)> = vec![
                ("one cell", vec![Region3::new([5, 7, 9], [6, 8, 10])]),
                (
                    "two cells, low corner",
                    vec![Region3::new([1, 1, 1], [3, 2, 2])],
                ),
                (
                    "two cells, high corner",
                    vec![Region3::new([45, 46, 46], [47, 47, 47])],
                ),
                ("one row", vec![Region3::new([1, 3, 4], [47, 4, 5])]),
                (
                    "x-extent 1, one plane",
                    vec![Region3::new([2, 1, 6], [3, 47, 7])],
                ),
                (
                    "x-extent 2, all planes",
                    vec![Region3::new([9, 2, 1], [11, 46, 47])],
                ),
                ("one plane", vec![Region3::new([1, 1, 20], [47, 47, 21])]),
                ("blocked [16,8,8]", blocks(interior)),
            ];
            let base = ScalarPath(op.clone());
            let whole = Region3::whole(dims);
            for (what, regions) in &sets {
                let mut want: Grid3<T> = Grid3::zeroed(dims);
                for region in regions {
                    want.copy_region_from(oracle, &written_box(region, dims.nx));
                }
                let ctx = |driver: &str| format!("{} {what}: {driver}", op.name());
                for (got, driver) in [
                    (safe_sweep(op, &initial, regions), "safe"),
                    (safe_sweep(&base, &initial, regions), "safe, scalar path"),
                ] {
                    norm::assert_grids_identical(&want, &got, &whole, &ctx(driver));
                }
                for store in [StoreMode::Normal, StoreMode::Streaming] {
                    for (got, path) in [
                        (shared_sweep(op, &initial, regions, store), ""),
                        (
                            shared_sweep(&base, &initial, regions, store),
                            ", scalar path",
                        ),
                    ] {
                        let driver = format!("shared {store:?}{path}");
                        norm::assert_grids_identical(&want, &got, &whole, &ctx(&driver));
                    }
                }
                for (got, driver) in [
                    (compressed_down(op, &initial, regions), "compressed"),
                    (
                        compressed_down(&base, &initial, regions),
                        "compressed, scalar path",
                    ),
                ] {
                    for region in regions {
                        norm::assert_grids_identical(oracle, &got, region, &ctx(driver));
                    }
                }
            }
            // The compressed driver copies boundary cells, so it also
            // takes the partition of the whole grid and yields the whole
            // next time step.
            let all = blocks(whole);
            for (got, path) in [
                (compressed_down(op, &initial, &all), ""),
                (compressed_down(&base, &initial, &all), ", scalar path"),
            ] {
                let ctx = format!(
                    "{} blocked [16,8,8] whole grid: compressed{path}",
                    op.name()
                );
                norm::assert_grids_identical(oracle, &got, &whole, &ctx);
            }
        }
        check::<f64, _>(&Jacobi6, 61);
        check::<f64, _>(&Jacobi7::heat(0.1), 62);
        check::<f64, _>(&VarCoeff7::banded(Dims3::cube(48)), 63);
        check::<f64, _>(&Avg27, 64);
        check::<f32, _>(&Jacobi6, 65);
        check::<f32, _>(&Jacobi7::heat(0.1), 66);
        check::<f32, _>(&VarCoeff7::banded(Dims3::cube(48)), 67);
        check::<f32, _>(&Avg27, 68);
    }

    /// The x-faces travel with the rows: with the destination's x-faces
    /// poisoned with NaN, one call of either two-grid driver (the shared
    /// one in both store modes), for the widened operator and its
    /// [`ScalarPath`] twin, leaves cell `x = 0` of exactly the rows of a
    /// region starting at `x = 1` holding the source's cell, and cell
    /// `x = nx − 1` of exactly the rows of a region ending at
    /// `x = nx − 2`; every other x-face cell stays NaN.
    #[test]
    fn drivers_carry_exactly_the_x_faces_their_rows_reach() {
        fn check<T: Real, Op: StencilOp<T>>(op: &Op, dims: Dims3, seed: u64) {
            let Dims3 { nx, ny, nz } = dims;
            let low = Region3::new([0, 0, 0], [1, ny, nz]);
            let high = Region3::new([nx - 1, 0, 0], [nx, ny, nz]);
            // A random interior between x-faces of distinct non-zero
            // values (`init::random` leaves them zero).
            let mut src: Grid3<T> = init::random(dims, seed);
            for (x, y, z) in low.iter().chain(high.iter()) {
                src.set(x, y, z, T::from_f64((2 + x + 7 * y + 31 * z) as f64));
            }
            let mut poisoned: Grid3<T> = Grid3::zeroed(dims);
            poisoned.fill_region(&low, T::from_f64(f64::NAN));
            poisoned.fill_region(&high, T::from_f64(f64::NAN));
            // (what, region, touches x = 1, touches x = nx − 2)
            let mut cases = vec![
                ("interior", Region3::interior_of(dims), true, true),
                ("low end", Region3::new([1, 2, 1], [2, 4, 3]), true, nx == 3),
                (
                    "high end",
                    Region3::new([nx - 2, 1, 2], [nx - 1, 3, 3]),
                    nx == 3,
                    true,
                ),
            ];
            if nx > 4 {
                cases.extend([
                    (
                        "low end, wide",
                        Region3::new([1, 1, 2], [nx - 3, 6, 5]),
                        true,
                        false,
                    ),
                    (
                        "high end, wide",
                        Region3::new([3, 2, 1], [nx - 1, 3, 5]),
                        false,
                        true,
                    ),
                    (
                        "neither",
                        Region3::new([2, 1, 1], [nx - 2, 6, 5]),
                        false,
                        false,
                    ),
                ]);
            }
            for (what, region, lo, hi) in cases {
                let mut want = poisoned.clone();
                let rows = |x: usize| {
                    Region3::new(
                        [x, region.lo[1], region.lo[2]],
                        [x + 1, region.hi[1], region.hi[2]],
                    )
                };
                if lo {
                    want.copy_region_from(&src, &rows(0));
                }
                if hi {
                    want.copy_region_from(&src, &rows(nx - 1));
                }
                let base = ScalarPath(op.clone());
                for shared in [None, Some(StoreMode::Normal), Some(StoreMode::Streaming)] {
                    for (got, path) in [
                        (
                            sweep_into(op, &src, poisoned.clone(), &[region], shared),
                            "",
                        ),
                        (
                            sweep_into(&base, &src, poisoned.clone(), &[region], shared),
                            ", scalar path",
                        ),
                    ] {
                        let ctx = format!("{} {dims} {what}: {shared:?}{path}", op.name());
                        for face in [&low, &high] {
                            norm::assert_grids_identical(&want, &got, face, &ctx);
                        }
                    }
                }
            }
        }
        fn every_operator<T: Real>(seed: u64) {
            for dims in [Dims3::new(19, 7, 6), Dims3::new(3, 5, 4)] {
                check::<T, _>(&Jacobi6, dims, seed);
                check::<T, _>(&Jacobi7::heat(0.1), dims, seed + 1);
                check::<T, _>(&VarCoeff7::banded(dims), dims, seed + 2);
                check::<T, _>(&Avg27, dims, seed + 3);
            }
        }
        every_operator::<f64>(71);
        every_operator::<f32>(75);
    }

    #[test]
    #[should_panic(expected = "not interior")]
    fn update_region_rejects_boundary_region() {
        let dims = Dims3::cube(5);
        let src: Grid3<f64> = Grid3::zeroed(dims);
        let mut dst: Grid3<f64> = Grid3::zeroed(dims);
        update_region_op(&Jacobi6, &src, &mut dst, &Region3::whole(dims));
    }
}
