//! The stencil-operator layer: what *one row update* computes, for a
//! run of rows at a time.
//!
//! The paper presents pipelined temporal blocking for the 6-point Jacobi
//! kernel (Eq. 1), but the machinery — block schedules, relaxed
//! synchronization, compressed grids, multi-layer halos — is independent
//! of the operator. Its follow-ups (Wittmann et al. 2010, Malas et al.
//! 2014) apply the same scheduling to richer operators. This module
//! factors the operator out: every executor in the workspace is generic
//! over [`StencilOp`], so a new workload is one `impl` here instead of a
//! fork of seven modules.
//!
//! # Determinism contract
//!
//! An operator must evaluate its update in **one fixed operand order**
//! regardless of how the executor tiles, shifts or parallelizes the
//! traversal. That is what lets the test-suite hold every execution
//! strategy (sequential, blocked, parallel ± streaming stores, pipelined,
//! compressed, wavefront, distributed/hybrid) to *bitwise* equality with
//! the operator's own sequential oracle.
//!
//! # One kernel source
//!
//! [`StencilOp::apply_rows`] is the only place an operator's arithmetic
//! is written: a loop over the rows of a [`RowRun`] — a run of rows of
//! one plane, given as a source and a destination pointer and their
//! strides — whose body is a plain indexed loop over the row's cells,
//! marked `#[inline(always)]`. The drivers hand over a whole plane of a
//! region per call, so per-row work is a few stride additions, and
//! [`Avg27`]'s column buffer is zero-filled once per run.
//! There is no vector twin to keep in step — the region drivers in
//! [`crate::kernel`] inline the loop into a body they compile once for
//! the build target and once for AVX, and pick per region at runtime
//! ([`StencilOp::WIDEN`], which only [`ScalarPath`] turns off).
//!
//! # Shipped operators
//!
//! | op | stencil | notes |
//! |----|---------|-------|
//! | [`Jacobi6`] | 6-point cross | the paper's Eq. 1; streaming-store SSE2 path on x86-64 `f64` |
//! | [`Jacobi7`] | 7-point cross with center weight | explicit-Euler heat step `u + k·(Σnb − 6u)` |
//! | [`VarCoeff7`] | 7-point cross, per-cell coefficient | reads a conductivity grid (one extra stream) |
//! | [`Avg27`] | dense 27-point radius-1 average | maximal radius-1 neighborhood (corners); each 9-row column sum computed once, 11 flop/LUP |

use std::marker::PhantomData;
use std::sync::Arc;

use tb_grid::{Dims3, Grid3, Real, Region3};

use crate::kernel::{self, StoreMode};

/// A run of rows to update: rows `y0 .. y0 + rows` of plane `z`, cells
/// `[x0, x0 + cells)` of each, with the radius-1 source rows around them.
///
/// A run is two pointers and their strides — the source at cell
/// `(x0 − 1, y0 − 1, z − 1)` with a row and a plane stride, the
/// destination at `(x0, y0, z)` with a row stride — so an operator steps
/// from one row to the next by adding a stride, and a row's slices need
/// no bounds checks. The neighbor at offset `(dx, dy, dz)` of cell `i`
/// of run row `r` is `run.src(r, dy, dz)[i + 1 + dx]`, and the cell
/// itself is written at `run.dst(r)[i]`.
///
/// Source rows are materialized **lazily**: [`RowRun::src`] forms the
/// slice on demand. This matters for the compressed-grid executor, where
/// the in-place diagonal shift makes the write row coincide with one
/// *corner* source row — an operator that never asks for `src(r, ±1,
/// ±1)` (see [`StencilOp::READS_CORNERS`]) never creates a slice
/// overlapping the live destination, and a run built for such an
/// operator panics instead of handing one out.
///
/// Runs are built only inside this crate, by the region drivers in
/// [`crate::kernel`].
pub struct RowRun<'a, T> {
    /// Source cell `(x0 − 1, y0 − 1, z − 1)`.
    src: *const T,
    /// Source row and plane strides, in elements.
    src_strides: [usize; 2],
    /// Destination cell `(x0, y0, z)`.
    dst: *mut T,
    /// Destination row stride, in elements.
    dst_row: usize,
    /// Logical `(x0, y0, z)`.
    origin: [usize; 3],
    cells: usize,
    rows: usize,
    /// Whether [`RowRun::src`] may hand out the diagonal rows.
    corners: bool,
    _borrow: PhantomData<&'a mut [T]>,
}

impl<'a, T> RowRun<'a, T> {
    /// The run over the logical cells of `block` (a box one plane thick),
    /// reading from `src` — source cell `(x0 − 1, y0 − 1, z − 1)`, rows
    /// `src_strides[0]` and planes `src_strides[1]` elements apart — and
    /// writing to `dst` — destination cell `(x0, y0, z)`, rows `dst_row`
    /// elements apart. `corners` says whether [`RowRun::src`] may hand
    /// out the four diagonal rows `(±1, ±1)`.
    ///
    /// # Safety
    /// For the lifetime `'a` and every run row `r`:
    /// * destination row `r` (`cells` elements at `dst + r·dst_row`) is
    ///   accessed by nothing but the run;
    /// * every source row the run may hand out — `cells + 2` elements at
    ///   `src + (r + dy + 1)·src_strides[0] + (dz + 1)·src_strides[1]`
    ///   for `dy, dz ∈ {−1, 0, 1}`, the corners only if `corners` — is
    ///   initialized, not concurrently written and overlaps no
    ///   destination row of the run;
    /// * every one of those source rows, corners included, lies inside
    ///   the source allocation (the offset is computed even when the
    ///   slice is never formed).
    #[inline(always)]
    pub(crate) unsafe fn new(
        src: *const T,
        src_strides: [usize; 2],
        dst: *mut T,
        dst_row: usize,
        block: &Region3,
        corners: bool,
    ) -> Self {
        debug_assert!(!block.is_empty() && block.extent(2) == 1);
        Self {
            src,
            src_strides,
            dst,
            dst_row,
            origin: block.lo,
            cells: block.extent(0),
            rows: block.extent(1),
            corners,
            _borrow: PhantomData,
        }
    }

    /// Cells per row.
    #[inline(always)]
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// Rows in the run.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical coordinates `(x0, y0 + r, z)` of the first cell of run row
    /// `r`. Executors that shift or relocate storage pass logical
    /// coordinates, so operators may use them to address auxiliary
    /// per-cell data.
    #[inline(always)]
    pub fn origin(&self, r: usize) -> [usize; 3] {
        let [x0, y0, z] = self.origin;
        [x0, y0 + r, z]
    }

    /// The source row at offset `(dy, dz)` from run row `r`, covering
    /// `x0 − 1 ..= x0 + cells` (length `cells + 2`).
    ///
    /// # Panics
    /// Panics if `r` is not a row of the run, `dy` or `dz` is outside
    /// `−1 ..= 1`, or the row is a diagonal one and the run was built for
    /// an operator that does not read corners.
    #[inline(always)]
    pub fn src(&self, r: usize, dy: i32, dz: i32) -> &'a [T] {
        assert!(r < self.rows && dy.unsigned_abs() <= 1 && dz.unsigned_abs() <= 1);
        assert!(
            self.corners || dy == 0 || dz == 0,
            "corner row of a cross-only run"
        );
        let [row, plane] = self.src_strides;
        let at = (r + (dy + 1) as usize) * row + (dz + 1) as usize * plane;
        // SAFETY: per the constructor contract this row is valid for
        // `cells + 2` reads for 'a and overlaps no destination row.
        unsafe { std::slice::from_raw_parts(self.src.add(at), self.cells + 2) }
    }

    /// The five cross-shaped source rows of run row `r`, in the cross
    /// operators' order: center, south, north, bottom, top (`src(r, dy,
    /// dz)` at `(0, 0)`, `(−1, 0)`, `(1, 0)`, `(0, −1)`, `(0, 1)`).
    #[inline(always)]
    pub fn cross(&self, r: usize) -> [&'a [T]; 5] {
        [
            self.src(r, 0, 0),
            self.src(r, -1, 0),
            self.src(r, 1, 0),
            self.src(r, 0, -1),
            self.src(r, 0, 1),
        ]
    }

    /// Destination row `r`: element `i` is cell `(x0 + i, y0 + r, z)`.
    ///
    /// # Panics
    /// Panics if `r` is not a row of the run.
    #[inline(always)]
    pub fn dst(&mut self, r: usize) -> &mut [T] {
        assert!(r < self.rows);
        // SAFETY: per the constructor contract the row is the run's
        // alone; `&mut self` keeps two of them from coexisting.
        unsafe { std::slice::from_raw_parts_mut(self.dst.add(r * self.dst_row), self.cells) }
    }
}

/// A stencil operator: the row-update primitive plus the metadata the
/// solvers, the distributed layer and the performance models need.
///
/// Implementations must be cheap to clone (threads and ranks clone the
/// operator freely) and must uphold the module-level determinism
/// contract.
pub trait StencilOp<T: Real>: Clone + Send + Sync + 'static {
    /// Halo layers one sweep consumes (Chebyshev radius of the stencil).
    /// The distributed solver derives exchange depths and pipeline-depth
    /// limits from this; the row machinery currently ships radius-1
    /// operators only.
    const RADIUS: usize = 1;

    /// Whether [`StencilOp::apply_rows`] reads the diagonal rows
    /// `src(r, ±1, ±1)`. Cross-shaped operators override this to `false`,
    /// which lets the compressed-grid executor use the copy-free in-place
    /// path (whose runs refuse to hand out a corner row); the
    /// conservative default routes corner-reading operators through a
    /// scratch buffer instead.
    const READS_CORNERS: bool = true;

    /// Whether the region drivers in [`crate::kernel`] may compile this
    /// operator's row loops at the host's vector width (AVX where the CPU
    /// has it) instead of the build target's. Results are bitwise the
    /// same either way; only [`ScalarPath`] turns it off, to stay the
    /// build-target twin the widened code is checked against.
    const WIDEN: bool = true;

    /// The x index of the row cell this operator's row loop wants on a
    /// cache line. The facade and the distributed solver bring every
    /// grid they sweep with this operator to that phase
    /// ([`Grid3::set_phase`](tb_grid::Grid3::set_phase)); when rows are
    /// whole lines, every row's cell `ALIGNED_CELL` then starts a line.
    /// The default is the first interior cell, which the cross-shaped
    /// operators stream from; an operator whose loads start elsewhere
    /// (`Avg27`'s column loads start one cell earlier) overrides it.
    /// Results never depend on it.
    const ALIGNED_CELL: usize = Self::RADIUS;

    /// Short identifier for reports and benchmark output.
    fn name(&self) -> &'static str;

    /// Floating-point operations per lattice-site update.
    fn flops_per_lup(&self) -> f64;

    /// Memory read streams beyond the source grid (e.g. a coefficient
    /// grid), in grid words per update.
    fn extra_read_streams(&self) -> f64 {
        0.0
    }

    /// Code balance in bytes per lattice-site update (paper §1.1): source
    /// read + write (+ read-for-ownership unless streaming stores), plus
    /// any operator-specific extra read streams. The roofline (Eq. 2) and
    /// the Fig. 5 halo model consume this instead of hardcoded 16/24.
    fn bytes_per_lup(&self, store: StoreMode) -> f64 {
        let grid_streams = match store {
            StoreMode::Normal => 3.0,    // read + RFO + write
            StoreMode::Streaming => 2.0, // read + write
        };
        (grid_streams + self.extra_read_streams()) * T::bytes() as f64
    }

    /// Update every cell of `run`: `run.dst(r)[i]` becomes the next time
    /// step of cell `run.origin(r) + (i, 0, 0)`, computed from the run's
    /// source rows. Coordinates are *logical* grid coordinates (executors
    /// that shift or relocate storage translate before calling), so
    /// operators may use them to address auxiliary per-cell data.
    ///
    /// This is the operator's only row kernel. Loop the run's rows and
    /// write each row as a plain indexed loop, in the same per-cell
    /// operand order for every row, inside an `#[inline(always)]` row
    /// function that takes the destination row as a `&mut [T]` argument
    /// (so LLVM knows no source row overlaps it), as the shipped
    /// operators do. Mark the impl `#[inline(always)]` too: the region
    /// drivers inline it into a body that is compiled once for the build
    /// target and once for AVX (see [`crate::kernel`]), and an impl that
    /// is not inlined silently stays at the build target.
    fn apply_rows(&self, run: &mut RowRun<'_, T>);

    /// Variant for the baseline's non-temporal-store write stream. The
    /// default falls back to plain stores — results must stay bitwise
    /// identical either way.
    #[inline(always)]
    fn apply_rows_streaming(&self, run: &mut RowRun<'_, T>) {
        self.apply_rows(run);
    }

    /// Operator for a sub-box of the global problem whose local cell
    /// `(0,0,0)` sits at `local_box.lo` in global coordinates. The
    /// distributed decomposition calls this once per rank; operators with
    /// per-cell data re-anchor their lookup, coordinate-free operators
    /// return themselves.
    fn restricted(&self, local_box: &Region3) -> Self {
        let _ = local_box;
        self.clone()
    }
}

/// Adapter that pins an operator to the build target's instruction
/// set: it delegates everything to the wrapped operator but sets
/// [`StencilOp::WIDEN`] to `false`, so every region driver runs the row
/// loops as compiled for the build target instead of the AVX copy.
///
/// This is the oracle side of the widening verification story — the
/// `simd_property` suite and the kernel tests run with `op` and
/// `ScalarPath(op)` and assert bitwise equality — and doubles as the
/// benchmark's `kernel.row_scalar_mlups` rung. No global toggle, no
/// config plumbing: the choice is in the operator type.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScalarPath<Op>(pub Op);

impl<T: Real, Op: StencilOp<T>> StencilOp<T> for ScalarPath<Op> {
    const RADIUS: usize = Op::RADIUS;
    const READS_CORNERS: bool = Op::READS_CORNERS;
    const ALIGNED_CELL: usize = Op::ALIGNED_CELL;
    const WIDEN: bool = false;

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn flops_per_lup(&self) -> f64 {
        self.0.flops_per_lup()
    }

    fn extra_read_streams(&self) -> f64 {
        self.0.extra_read_streams()
    }

    fn bytes_per_lup(&self, store: StoreMode) -> f64 {
        self.0.bytes_per_lup(store)
    }

    #[inline(always)]
    fn apply_rows(&self, run: &mut RowRun<'_, T>) {
        self.0.apply_rows(run);
    }

    #[inline(always)]
    fn apply_rows_streaming(&self, run: &mut RowRun<'_, T>) {
        self.0.apply_rows_streaming(run);
    }

    fn restricted(&self, local_box: &Region3) -> Self {
        ScalarPath(self.0.restricted(local_box))
    }
}

fn is_f64<T: 'static>() -> bool {
    std::any::TypeId::of::<T>() == std::any::TypeId::of::<f64>()
}

/// The paper's Eq. 1: `(west + east + south + north + bottom + top) / 6`,
/// evaluated in exactly that operand order everywhere.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Jacobi6;

impl Jacobi6 {
    pub fn new() -> Self {
        Self
    }
}

impl<T: Real> StencilOp<T> for Jacobi6 {
    const READS_CORNERS: bool = false;

    fn name(&self) -> &'static str {
        "jacobi6"
    }

    fn flops_per_lup(&self) -> f64 {
        6.0 // 5 adds + 1 multiply
    }

    #[inline(always)]
    fn apply_rows(&self, run: &mut RowRun<'_, T>) {
        let n = run.cells();
        for r in 0..run.rows() {
            let [c, ym, yp, zm, zp] = run.cross(r);
            kernel::jacobi_row(
                run.dst(r),
                c,
                &ym[1..n + 1],
                &yp[1..n + 1],
                &zm[1..n + 1],
                &zp[1..n + 1],
            );
        }
    }

    #[inline(always)]
    fn apply_rows_streaming(&self, run: &mut RowRun<'_, T>) {
        if !is_f64::<T>() {
            self.apply_rows(run);
            return;
        }
        let n = run.cells();
        for r in 0..run.rows() {
            let [c, ym, yp, zm, zp] = run.cross(r);
            // SAFETY of the transmutes: guarded by `is_f64`.
            unsafe {
                kernel::jacobi_row_nt_f64(
                    std::mem::transmute::<&mut [T], &mut [f64]>(run.dst(r)),
                    std::mem::transmute::<&[T], &[f64]>(c),
                    std::mem::transmute::<&[T], &[f64]>(&ym[1..n + 1]),
                    std::mem::transmute::<&[T], &[f64]>(&yp[1..n + 1]),
                    std::mem::transmute::<&[T], &[f64]>(&zm[1..n + 1]),
                    std::mem::transmute::<&[T], &[f64]>(&zp[1..n + 1]),
                );
            }
        }
    }
}

/// 7-point cross with an explicit center weight:
/// `u' = center·u + neighbor·(w + e + s + n + b + t)`.
///
/// With `center = 1 − 6k, neighbor = k` this is one explicit-Euler step
/// of the heat equation `∂u/∂t = κ∇²u` (stable for `k < 1/6`); with
/// `center = 0, neighbor = 1/6` it degenerates to [`Jacobi6`] (up to the
/// different operand order — it is *not* bitwise-interchangeable).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Jacobi7 {
    /// Weight of the center cell.
    pub center: f64,
    /// Weight of each of the six face neighbors.
    pub neighbor: f64,
}

impl Jacobi7 {
    /// Explicit-Euler heat step with diffusion number `k` (stability
    /// requires `k < 1/6`).
    pub fn heat(k: f64) -> Self {
        assert!(k > 0.0 && k < 1.0 / 6.0, "heat step needs 0 < k < 1/6");
        Self {
            center: 1.0 - 6.0 * k,
            neighbor: k,
        }
    }
}

impl<T: Real> StencilOp<T> for Jacobi7 {
    const READS_CORNERS: bool = false;

    fn name(&self) -> &'static str {
        "jacobi7"
    }

    fn flops_per_lup(&self) -> f64 {
        8.0 // 5 + 1 adds + 2 multiplies
    }

    #[inline(always)]
    fn apply_rows(&self, run: &mut RowRun<'_, T>) {
        let cw = T::from_f64(self.center);
        let nw = T::from_f64(self.neighbor);
        for r in 0..run.rows() {
            let cross = run.cross(r);
            jacobi7_row(run.dst(r), cross, cw, nw);
        }
    }
}

/// One row of [`Jacobi7`], from the [`RowRun::cross`] rows.
///
/// A function of its own, like every operator's row body, so that `dst`
/// arrives as a `&mut` argument: LLVM then knows it overlaps no source
/// row and vectorizes without runtime overlap checks, which short rows
/// would pay for.
#[inline(always)]
fn jacobi7_row<T: Real>(dst: &mut [T], [c, ym, yp, zm, zp]: [&[T]; 5], cw: T, nw: T) {
    let n = dst.len();
    let (c, ym, yp, zm, zp) = (
        &c[..n + 2],
        &ym[..n + 2],
        &yp[..n + 2],
        &zm[..n + 2],
        &zp[..n + 2],
    );
    for i in 0..n {
        let sum = c[i] + c[i + 2] + ym[i + 1] + yp[i + 1] + zm[i + 1] + zp[i + 1];
        dst[i] = c[i + 1] * cw + sum * nw;
    }
}

/// Variable-coefficient 7-point stencil: `u' = u + k(x,y,z)·(Σnb − 6u)`,
/// one explicit diffusion step with per-cell conductivity `k` read from a
/// coefficient grid (an extra memory stream, raising the code balance).
///
/// The coefficient grid always lives in **global** coordinates;
/// [`StencilOp::restricted`] re-anchors the lookup for a rank's local
/// box, so distributed runs read exactly the same coefficients as the
/// sequential oracle.
#[derive(Clone, Debug)]
pub struct VarCoeff7<T: Real> {
    kappa: Arc<Grid3<T>>,
    /// Global coordinate of local cell (0, 0, 0).
    origin: [usize; 3],
}

impl<T: Real> VarCoeff7<T> {
    /// Wrap a conductivity grid (same dims as the problem grid; stability
    /// of the diffusion step requires all values in `[0, 1/6)`).
    pub fn new(kappa: Grid3<T>) -> Self {
        Self {
            kappa: Arc::new(kappa),
            origin: [0; 3],
        }
    }

    /// A deterministic, integer-derived coefficient field in
    /// `[1/60, 2/15]` — convenient for tests and benches: reproducible
    /// bitwise on every platform, safely inside the stability bound.
    pub fn banded(dims: Dims3) -> Self {
        Self::new(Grid3::from_fn(dims, |x, y, z| {
            T::from_f64(((x + 2 * y + 3 * z) % 8 + 1) as f64 / 60.0)
        }))
    }

    /// The wrapped coefficient grid.
    pub fn kappa(&self) -> &Grid3<T> {
        &self.kappa
    }
}

impl<T: Real> StencilOp<T> for VarCoeff7<T> {
    const READS_CORNERS: bool = false;

    fn name(&self) -> &'static str {
        "varcoeff7"
    }

    fn flops_per_lup(&self) -> f64 {
        9.0 // 5 adds + (6u: 1 mul) + 1 sub + 1 mul + 1 add
    }

    fn extra_read_streams(&self) -> f64 {
        1.0 // the coefficient grid
    }

    #[inline(always)]
    fn apply_rows(&self, run: &mut RowRun<'_, T>) {
        let n = run.cells();
        let six = T::from_f64(6.0);
        // The run's coefficient rows, one slice check per run: row `r`
        // starts `r·nx` elements past the first.
        let [x0, y0, z] = run.origin(0);
        let nx = self.kappa.dims().nx;
        let start = self
            .kappa
            .idx(x0 + self.origin[0], y0 + self.origin[1], z + self.origin[2]);
        let kappa = &self.kappa.as_slice()[start..start + (run.rows() - 1) * nx + n];
        for r in 0..run.rows() {
            let cross = run.cross(r);
            varcoeff7_row(run.dst(r), cross, &kappa[r * nx..r * nx + n], six);
        }
    }

    fn restricted(&self, local_box: &Region3) -> Self {
        Self {
            kappa: self.kappa.clone(),
            origin: [
                self.origin[0] + local_box.lo[0],
                self.origin[1] + local_box.lo[1],
                self.origin[2] + local_box.lo[2],
            ],
        }
    }
}

/// One row of [`VarCoeff7`], from the [`RowRun::cross`] rows and the
/// row's coefficients `k` (a function of its own for the reason
/// [`jacobi7_row`] gives).
#[inline(always)]
fn varcoeff7_row<T: Real>(dst: &mut [T], [c, ym, yp, zm, zp]: [&[T]; 5], k: &[T], six: T) {
    let n = dst.len();
    let (c, ym, yp, zm, zp) = (
        &c[..n + 2],
        &ym[..n + 2],
        &yp[..n + 2],
        &zm[..n + 2],
        &zp[..n + 2],
    );
    let k = &k[..n];
    for i in 0..n {
        let u = c[i + 1];
        let sum = c[i] + c[i + 2] + ym[i + 1] + yp[i + 1] + zm[i + 1] + zp[i + 1];
        dst[i] = u + (sum - u * six) * k[i];
    }
}

/// Dense 27-point radius-1 average: the mean of the full 3×3×3
/// neighborhood (center included). The only shipped operator that reads
/// the diagonal rows, exercising the corner paths of every executor.
///
/// The summation order *is* the operator. With `u(x, dy, dz)` the source
/// value at `(x, y + dy, z + dz)`, source column `x` has the 9-row sum
/// `c(x)`, added plane by plane (`dz = -1, 0, 1`), row by row
/// (`dy = -1, 0, 1`), left to right, and the update reads three of them:
///
/// ```text
/// c(x)  = u(x,-1,-1) + u(x,0,-1) + u(x,1,-1)
///       + u(x,-1, 0) + u(x,0, 0) + u(x,1, 0)
///       + u(x,-1, 1) + u(x,0, 1) + u(x,1, 1)     (left-associated)
/// u'(x) = ((c(x-1) + c(x)) + c(x+1)) * (1/27)
/// ```
///
/// Each column sum has exactly one definition, so the row kernel
/// computes it once and shares it between the three outputs that read
/// it (11 flop/LUP), and the result does not depend on how a caller
/// splits rows, where they start, or the vector width.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Avg27;

impl Avg27 {
    /// Cells per x-chunk of [`Avg27`]'s row kernel: its column sums live
    /// in a stack buffer of `CHUNK + 2` elements.
    pub const CHUNK: usize = 128;

    pub fn new() -> Self {
        Self
    }
}

impl<T: Real> StencilOp<T> for Avg27 {
    const READS_CORNERS: bool = true;
    /// The column loads of a row start at the cell before the first
    /// interior one. With the first interior cell on a line instead,
    /// its row loop ran 3–15 % slower (ROADMAP item 23(d)).
    const ALIGNED_CELL: usize = 0;

    fn name(&self) -> &'static str {
        "avg27"
    }

    fn flops_per_lup(&self) -> f64 {
        11.0 // 8 column adds + 2 adds + 1 multiply
    }

    #[inline(always)]
    fn apply_rows(&self, run: &mut RowRun<'_, T>) {
        let w = T::ONE / T::from_f64(27.0);
        // Zero-filled once per run; every chunk overwrites the part it reads.
        let mut col = [T::ZERO; Avg27::CHUNK + 2];
        for r in 0..run.rows() {
            // Planes bottom / center / top (dz), rows south / center / north (dy).
            let nine = [
                run.src(r, -1, -1),
                run.src(r, 0, -1),
                run.src(r, 1, -1),
                run.src(r, -1, 0),
                run.src(r, 0, 0),
                run.src(r, 1, 0),
                run.src(r, -1, 1),
                run.src(r, 0, 1),
                run.src(r, 1, 1),
            ];
            avg27_row(run.dst(r), nine, &mut col, w);
        }
    }
}

/// One row of [`Avg27`] in x-chunks of [`Avg27::CHUNK`] cells, from the
/// nine source rows in `(dz, dy)` order and the column-sum buffer `col`
/// (a function of its own for the reason [`jacobi7_row`] gives).
#[inline(always)]
fn avg27_row<T: Real>(dst: &mut [T], nine: [&[T]; 9], col: &mut [T; Avg27::CHUNK + 2], w: T) {
    let n = dst.len();
    let [bs, bc, bn, cs, cc, cn, ts, tc, tn] = nine;
    let mut i0 = 0;
    while i0 < n {
        // Cells `i0 .. i0 + m` read source columns `i0 .. i0 + m + 2`
        // (row index `i + 1 + dx` for cell `i`).
        let m = (n - i0).min(Avg27::CHUNK);
        let (lo, hi) = (i0, i0 + m + 2);
        let (bs, bc, bn) = (&bs[lo..hi], &bc[lo..hi], &bn[lo..hi]);
        let (cs, cc, cn) = (&cs[lo..hi], &cc[lo..hi], &cn[lo..hi]);
        let (ts, tc, tn) = (&ts[lo..hi], &tc[lo..hi], &tn[lo..hi]);
        let col = &mut col[..m + 2];
        for j in 0..m + 2 {
            col[j] = bs[j] + bc[j] + bn[j] + cs[j] + cc[j] + cn[j] + ts[j] + tc[j] + tn[j];
        }
        let d = &mut dst[i0..i0 + m];
        for i in 0..m {
            d[i] = (col[i] + col[i + 1] + col[i + 2]) * w;
        }
        i0 += m;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_grid::init;

    /// The run over the logical cells of `block` (one plane thick) that
    /// reads `g` with the block's first cell at `at` and writes `out`,
    /// whose rows are `block.extent(0)` elements apart.
    fn run_at<'a, T: Real>(
        g: &'a Grid3<T>,
        at: [usize; 3],
        block: &Region3,
        out: &'a mut [T],
    ) -> RowRun<'a, T> {
        let dims = g.dims();
        let shifted = Region3::new(at, [0, 1, 2].map(|a| at[a] + block.extent(a)));
        assert!(Region3::interior_of(dims).contains_region(&shifted) && block.extent(2) == 1);
        let n = block.extent(0);
        assert_eq!(out.len(), n * block.extent(1));
        let [x, y, z] = at;
        // SAFETY: the shifted block and its radius-1 neighborhood lie in
        // `g`, which is only read; `out` holds exactly the run's rows and
        // is borrowed exclusively for the run's lifetime.
        unsafe {
            RowRun::new(
                g.as_ptr().add(dims.idx(x - 1, y - 1, z - 1)),
                [dims.nx, dims.nx * dims.ny],
                out.as_mut_ptr(),
                n,
                block,
                true,
            )
        }
    }

    /// `op` over rows `y0 .. y0 + k`, cells `[x0, x0 + n)`, of plane `z`
    /// of `g`, as one run. Row `r` of the result (`n` cells from `r·n`)
    /// is run row `r`; cells the operator leaves unwritten stay NaN.
    #[allow(clippy::too_many_arguments)]
    fn apply_run<T: Real, Op: StencilOp<T>>(
        op: &Op,
        g: &Grid3<T>,
        x0: usize,
        n: usize,
        y0: usize,
        k: usize,
        z: usize,
    ) -> Vec<T> {
        let mut out = vec![T::from_f64(f64::NAN); n * k];
        let block = Region3::new([x0, y0, z], [x0 + n, y0 + k, z + 1]);
        op.apply_rows(&mut run_at(g, block.lo, &block, &mut out));
        out
    }

    /// `Avg27`'s documented order, evaluated at one point.
    fn avg27_point<T: Real>(g: &Grid3<T>, x: usize, y: usize, z: usize) -> T {
        let col = |x: usize| {
            let mut nine =
                (z - 1..=z + 1).flat_map(|zz| (y - 1..=y + 1).map(move |yy| g.get(x, yy, zz)));
            let first = nine.next().unwrap();
            nine.fold(first, |s, v| s + v)
        };
        (col(x - 1) + col(x) + col(x + 1)) * (T::ONE / T::from_f64(27.0))
    }

    /// The six face neighbors of `(x, y, z)` summed in the cross
    /// operators' order: west, east, south, north, bottom, top.
    fn face_sum<T: Real>(g: &Grid3<T>, x: usize, y: usize, z: usize) -> T {
        g.get(x - 1, y, z)
            + g.get(x + 1, y, z)
            + g.get(x, y - 1, z)
            + g.get(x, y + 1, z)
            + g.get(x, y, z - 1)
            + g.get(x, y, z + 1)
    }

    #[test]
    fn row_run_addressing() {
        let dims = Dims3::new(8, 6, 5);
        let g: Grid3<f64> = Grid3::from_fn(dims, |x, y, z| (x + 10 * y + 100 * z) as f64);
        let block = Region3::new([2, 2, 3], [6, 4, 4]);
        let mut out = vec![0.0; 8];
        let mut run = run_at(&g, block.lo, &block, &mut out);
        assert_eq!((run.cells(), run.rows()), (4, 2));
        assert_eq!(run.origin(1), [2, 3, 3]);
        // Neighbor (dx,dy,dz) of cell i of run row r at x0=2, y0=2 has
        // value x0+i+dx + 10(y0+r+dy) + 100(z+dz), at index i + 1 + dx.
        assert_eq!(run.src(0, 0, 0)[1], (2 + 20 + 300) as f64); // r=0, i=0, dx=0
        assert_eq!(run.src(0, -1, 1)[0], (1 + 10 + 400) as f64); // r=0, i=0, dx=-1
        assert_eq!(run.src(1, 1, -1)[5], (6 + 40 + 200) as f64); // r=1, i=3, dx=+1
        run.dst(1)[3] = 7.0;
        assert_eq!(out[4 + 3], 7.0);
    }

    #[test]
    #[should_panic(expected = "corner row of a cross-only run")]
    fn cross_only_run_refuses_corner_rows() {
        let dims = Dims3::cube(5);
        let g: Grid3<f64> = init::random(dims, 1);
        let mut out = vec![0.0; 3];
        let block = Region3::new([1, 2, 2], [4, 3, 3]);
        // SAFETY: as `run_at`, cross rows only.
        let run = unsafe {
            RowRun::new(
                g.as_ptr().add(dims.idx(0, 1, 1)),
                [dims.nx, dims.nx * dims.ny],
                out.as_mut_ptr(),
                3,
                &block,
                false,
            )
        };
        let _ = run.src(0, 0, 1);
        let _ = run.src(0, 1, 1);
    }

    /// `apply_rows` over runs of 1, 2 and 5 rows equals each operator's
    /// pointwise formula, bitwise, in `f64` and `f32`: row lengths at and
    /// around vector widths and [`Avg27::CHUNK`], two x offsets. A run
    /// that carried state from one row to the next (a stale column
    /// buffer) or stepped by the wrong stride fails on its second row.
    #[test]
    fn runs_of_rows_match_pointwise_formulas() {
        fn check<T: Real, Op: StencilOp<T>>(
            op: &Op,
            g: &Grid3<T>,
            point: impl Fn(usize, usize, usize) -> T,
        ) {
            let c = Avg27::CHUNK;
            let (y0, z) = (2, 3);
            for k in [1, 2, 5] {
                for n in [1, 2, 3, 14, 16, 17, c - 1, c, c + 1, 2 * c + 3] {
                    for x0 in [1, 3] {
                        let got = apply_run(op, g, x0, n, y0, k, z);
                        for (j, v) in got.iter().enumerate() {
                            let (r, i) = (j / n, j % n);
                            let want = point(x0 + i, y0 + r, z);
                            assert!(
                                v.to_f64().to_bits() == want.to_f64().to_bits(),
                                "{} k={k} n={n} x0={x0} r={r} i={i}: {v} != {want}",
                                op.name()
                            );
                        }
                    }
                }
            }
        }
        fn all<T: Real>(seed: u64) {
            // Every source row of every run is interior, none a constant
            // boundary row.
            let dims = Dims3::new(2 * Avg27::CHUNK + 8, 9, 6);
            let g: Grid3<T> = init::random(dims, seed);
            let g = &g;
            let sixth = T::ONE / T::from_f64(6.0);
            check(&Jacobi6, g, |x, y, z| face_sum(g, x, y, z) * sixth);
            let heat = Jacobi7::heat(0.07);
            let (cw, nw) = (T::from_f64(heat.center), T::from_f64(heat.neighbor));
            check(&heat, g, |x, y, z| {
                g.get(x, y, z) * cw + face_sum(g, x, y, z) * nw
            });
            let vc = VarCoeff7::<T>::banded(dims);
            let six = T::from_f64(6.0);
            check(&vc, g, |x, y, z| {
                let u = g.get(x, y, z);
                u + (face_sum(g, x, y, z) - u * six) * vc.kappa().get(x, y, z)
            });
            check(&Avg27, g, |x, y, z| avg27_point(g, x, y, z));
        }
        all::<f64>(51);
        all::<f32>(52);
    }

    #[test]
    fn jacobi6_row_matches_pointwise() {
        let dims = Dims3::cube(7);
        let g: Grid3<f64> = init::random(dims, 3);
        let dst = apply_run(&Jacobi6, &g, 1, 5, 3, 1, 3);
        for (i, x) in (1..6).enumerate() {
            let want = (g.get(x - 1, 3, 3)
                + g.get(x + 1, 3, 3)
                + g.get(x, 2, 3)
                + g.get(x, 4, 3)
                + g.get(x, 3, 2)
                + g.get(x, 3, 4))
                * (1.0 / 6.0);
            assert_eq!(dst[i], want, "cell {x}");
        }
    }

    #[test]
    fn jacobi6_streaming_is_bitwise_equal() {
        let dims = Dims3::new(41, 7, 5); // odd width exercises NT head/tail
        let g: Grid3<f64> = init::random(dims, 17);
        let block = Region3::new([1, 2, 2], [40, 5, 3]);
        let mut a = vec![0.0; 39 * 3];
        let mut b = vec![0.0; 39 * 3];
        StencilOp::<f64>::apply_rows(&Jacobi6, &mut run_at(&g, block.lo, &block, &mut a));
        StencilOp::<f64>::apply_rows_streaming(&Jacobi6, &mut run_at(&g, block.lo, &block, &mut b));
        assert_eq!(a, b);
    }

    #[test]
    fn jacobi7_heat_weights() {
        let op = Jacobi7::heat(0.1);
        assert!((op.center - 0.4).abs() < 1e-15);
        assert_eq!(op.neighbor, 0.1);
        let dims = Dims3::cube(5);
        let g: Grid3<f64> = init::random(dims, 5);
        let dst = apply_run(&op, &g, 1, 3, 2, 1, 2);
        let x = 2usize;
        let sum = g.get(x - 1, 2, 2)
            + g.get(x + 1, 2, 2)
            + g.get(x, 1, 2)
            + g.get(x, 3, 2)
            + g.get(x, 2, 1)
            + g.get(x, 2, 3);
        assert_eq!(dst[1], g.get(x, 2, 2) * 0.4 + sum * 0.1);
    }

    #[test]
    #[should_panic(expected = "0 < k < 1/6")]
    fn unstable_heat_step_rejected() {
        let _ = Jacobi7::heat(0.2);
    }

    /// Rows `y = 3, 4` of plane `z = 4`, cells `2..6`, evaluated by `op`
    /// and by its restriction to the local box anchored at `(1, 2, 2)`,
    /// whose runs carry local coordinates (global − anchor).
    fn restricted_runs_agree<Op: StencilOp<f64>>(op: &Op, g: &Grid3<f64>) {
        let global = Region3::new([2, 3, 4], [6, 5, 5]);
        let mut want = vec![0.0; 8];
        op.apply_rows(&mut run_at(g, global.lo, &global, &mut want));
        let local_op = op.restricted(&Region3::new([1, 2, 2], [8, 8, 8]));
        let local = Region3::new([1, 1, 2], [5, 3, 3]);
        let mut got = vec![0.0; 8];
        local_op.apply_rows(&mut run_at(g, global.lo, &local, &mut got));
        assert_eq!(want, got);
    }

    #[test]
    fn varcoeff_restriction_reanchors_lookup() {
        let dims = Dims3::cube(8);
        let op: VarCoeff7<f64> = VarCoeff7::banded(dims);
        let g: Grid3<f64> = init::random(dims, 9);
        restricted_runs_agree(&op, &g);
    }

    #[test]
    fn banded_coefficients_are_stable() {
        let op: VarCoeff7<f64> = VarCoeff7::banded(Dims3::cube(6));
        for v in op.kappa().as_slice() {
            assert!(*v > 0.0 && *v < 1.0 / 6.0, "{v}");
        }
    }

    #[test]
    fn avg27_is_neighborhood_mean() {
        let dims = Dims3::cube(5);
        let g: Grid3<f64> = init::random(dims, 11);
        let dst = apply_run(&Avg27, &g, 1, 3, 2, 1, 2);
        let x = 2usize;
        let mut sum = 0.0;
        for dz in 0..3 {
            for dy in 0..3 {
                for dx in 0..3 {
                    sum += g.get(x + dx - 1, 2 + dy - 1, 2 + dz - 1);
                }
            }
        }
        // Same value to rounding; bitwise equality is only promised
        // across executors, not against a reordered sum.
        assert!((dst[1] - sum / 27.0).abs() < 1e-12);
    }

    /// `Avg27::apply_rows` is bitwise its documented order, evaluated
    /// point by point, on rows that end just before, at, and just past
    /// a chunk boundary and on rows spanning three chunks.
    #[test]
    fn avg27_row_is_its_documented_order_across_chunks() {
        fn check<T: Real>(seed: u64) {
            let c = Avg27::CHUNK;
            // All nine source rows of (y, z) = (2, 3) are interior, so
            // none of them is a constant boundary row.
            let dims = Dims3::new(2 * c + 8, 6, 6);
            let g: Grid3<T> = init::random(dims, seed);
            for n in [1, 2, c - 1, c, c + 1, 2 * c + 3] {
                for x0 in [1, 3] {
                    let dst = apply_run(&Avg27, &g, x0, n, 2, 1, 3);
                    for (i, got) in dst.iter().enumerate() {
                        let want = avg27_point(&g, x0 + i, 2, 3);
                        assert!(
                            got.to_f64().to_bits() == want.to_f64().to_bits(),
                            "n={n} x0={x0} i={i}: {got} != {want}"
                        );
                    }
                }
            }
        }
        check::<f64>(41);
        check::<f32>(42);
    }

    /// Widened row loop ≡ build-target row loop ≡ the bare `apply_rows`,
    /// bitwise, for every shipped operator — including offsets and row
    /// lengths that leave the vector body a head and a tail.
    #[test]
    fn simd_rows_bitwise_equal_scalar_rows() {
        fn check<Op: StencilOp<f64>>(op: &Op, dims: Dims3) {
            let g: Grid3<f64> = init::random(dims, 31);
            let whole = Region3::whole(dims);
            for (x0, x1) in [(1, dims.nx - 1), (3, dims.nx - 2), (5, 5 + 8 + 3)] {
                let row = Region3::new([x0, 2, 3], [x1, 3, 4]);
                let mut wide: Grid3<f64> = Grid3::zeroed(dims);
                let mut base: Grid3<f64> = Grid3::zeroed(dims);
                kernel::update_region_op(op, &g, &mut wide, &row);
                kernel::update_region_op(&ScalarPath(op.clone()), &g, &mut base, &row);
                let ctx = format!("{} x0={x0} n={}", op.name(), x1 - x0);
                tb_grid::norm::assert_grids_identical(&base, &wide, &whole, &ctx);
                let direct = apply_run(op, &g, x0, x1 - x0, 2, 1, 3);
                assert_eq!(&base.row(2, 3)[x0..x1], &direct[..], "{ctx} apply_rows");
            }
        }
        // nx not a vector multiple; the longest row spans three Avg27 chunks.
        let dims = Dims3::new(2 * Avg27::CHUNK + 9, 6, 7);
        check(&Jacobi6, dims);
        check(&Jacobi7::heat(0.07), dims);
        check(&VarCoeff7::banded(dims), dims);
        check(&Avg27, dims);
    }

    #[test]
    fn scalar_path_preserves_metadata_and_restriction() {
        let dims = Dims3::cube(8);
        let op = ScalarPath(VarCoeff7::<f64>::banded(dims));
        assert_eq!(op.name(), "varcoeff7");
        assert_eq!(op.extra_read_streams(), 1.0);
        assert_eq!(
            op.bytes_per_lup(StoreMode::Normal),
            VarCoeff7::<f64>::banded(dims).bytes_per_lup(StoreMode::Normal)
        );
        const {
            assert!(<ScalarPath<Avg27> as StencilOp<f64>>::READS_CORNERS);
            assert!(!<ScalarPath<Jacobi6> as StencilOp<f64>>::READS_CORNERS);
        }
        // Restriction re-anchors through the wrapper.
        let g: Grid3<f64> = init::random(dims, 13);
        restricted_runs_agree(&op, &g);
    }

    #[test]
    fn code_balance_per_operator() {
        let j = Jacobi6;
        assert_eq!(StencilOp::<f64>::bytes_per_lup(&j, StoreMode::Normal), 24.0);
        assert_eq!(
            StencilOp::<f64>::bytes_per_lup(&j, StoreMode::Streaming),
            16.0
        );
        assert_eq!(
            StencilOp::<f32>::bytes_per_lup(&j, StoreMode::Streaming),
            8.0
        );
        let v: VarCoeff7<f64> = VarCoeff7::banded(Dims3::cube(4));
        assert_eq!(v.bytes_per_lup(StoreMode::Normal), 32.0);
        assert_eq!(v.bytes_per_lup(StoreMode::Streaming), 24.0);
        assert_eq!(StencilOp::<f64>::flops_per_lup(&Avg27), 11.0);
    }

    #[test]
    fn corner_declarations() {
        const {
            assert!(!<Jacobi6 as StencilOp<f64>>::READS_CORNERS);
            assert!(!<Jacobi7 as StencilOp<f64>>::READS_CORNERS);
            assert!(!<VarCoeff7<f64> as StencilOp<f64>>::READS_CORNERS);
            assert!(<Avg27 as StencilOp<f64>>::READS_CORNERS);
            assert!(<Avg27 as StencilOp<f64>>::RADIUS == 1);
            assert!(<Jacobi6 as StencilOp<f64>>::ALIGNED_CELL == 1);
            assert!(<Jacobi7 as StencilOp<f32>>::ALIGNED_CELL == 1);
            assert!(<VarCoeff7<f64> as StencilOp<f64>>::ALIGNED_CELL == 1);
            assert!(<Avg27 as StencilOp<f64>>::ALIGNED_CELL == 0);
            assert!(<ScalarPath<Avg27> as StencilOp<f32>>::ALIGNED_CELL == 0);
            assert!(<Jacobi6 as StencilOp<f64>>::WIDEN);
            assert!(<Jacobi7 as StencilOp<f64>>::WIDEN);
            assert!(<VarCoeff7<f64> as StencilOp<f64>>::WIDEN);
            assert!(<Avg27 as StencilOp<f64>>::WIDEN);
            assert!(!<ScalarPath<Jacobi6> as StencilOp<f64>>::WIDEN);
            assert!(!<ScalarPath<Avg27> as StencilOp<f32>>::WIDEN);
        }
    }
}
