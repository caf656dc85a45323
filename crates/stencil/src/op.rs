//! The stencil-operator layer: what *one row update* computes.
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
//! [`StencilOp::apply_row`] is the only place an operator's arithmetic
//! is written: a plain indexed loop, marked `#[inline(always)]`. There
//! is no vector twin to keep in step — the region drivers in
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

/// The nine radius-1 source row segments available to update cells
/// `x0 .. x0 + n` of row `(y, z)`.
///
/// Each row covers the x-range `x0-1 ..= x0+n` (length `n + 2`), so the
/// neighbor at offset `(dx, dy, dz)` of cell `i` is
/// `rows.row(dy, dz)[i + 1 + dx]`.
///
/// Rows are materialized **lazily**: the table stores raw row pointers and
/// [`Rows9::row`] forms the slice on demand. This matters for the
/// compressed-grid executor, where the in-place diagonal shift makes the
/// write row coincide with one *corner* source row — an operator that
/// never calls `row(±1, ±1)` (see [`StencilOp::READS_CORNERS`]) never
/// creates a slice overlapping the live `&mut` destination.
#[derive(Clone, Copy)]
pub struct Rows9<'a, T> {
    /// `ptrs[dz + 1][dy + 1]` points at the first element (x = x0-1).
    ptrs: [[*const T; 3]; 3],
    /// Row segment length, `n + 2`.
    len: usize,
    _src: PhantomData<&'a [T]>,
}

impl<'a, T> Rows9<'a, T> {
    /// Build from nine explicit, equally long slices, indexed
    /// `rows[dz + 1][dy + 1]`. Fully safe: the borrows prove validity.
    #[inline(always)]
    pub fn from_slices(rows: [[&'a [T]; 3]; 3]) -> Self {
        let len = rows[0][0].len();
        assert!(len >= 2, "rows must cover x0-1 ..= x0+n (length n+2)");
        for plane in &rows {
            for r in plane {
                assert_eq!(r.len(), len, "all nine rows must have equal length");
            }
        }
        // Spelled out: `array::map` is not reliably inlined, and this
        // runs once per row inside the region drivers.
        let [[a, b, c], [d, e, f], [g, h, i]] = rows;
        Self {
            ptrs: [
                [a.as_ptr(), b.as_ptr(), c.as_ptr()],
                [d.as_ptr(), e.as_ptr(), f.as_ptr()],
                [g.as_ptr(), h.as_ptr(), i.as_ptr()],
            ],
            len,
            _src: PhantomData,
        }
    }

    /// Build the nine rows for updating cells `[x0, x1)` of row `(y, z)`
    /// from a plain grid — the one definition of the slice↔offset
    /// convention for safe callers. `(x0, y, z)` must be interior
    /// (slice bounds enforce it).
    #[inline(always)]
    pub fn from_grid(g: &'a Grid3<T>, x0: usize, x1: usize, y: usize, z: usize) -> Self
    where
        T: Real,
    {
        let seg = |dy: usize, dz: usize| &g.row(y + dy - 1, z + dz - 1)[x0 - 1..x1 + 1];
        Self::from_slices([
            [seg(0, 0), seg(1, 0), seg(2, 0)],
            [seg(0, 1), seg(1, 1), seg(2, 1)],
            [seg(0, 2), seg(1, 2), seg(2, 2)],
        ])
    }

    /// Build from raw row pointers (`ptrs[dz + 1][dy + 1]`, each valid
    /// for `len` reads).
    ///
    /// # Safety
    /// For the lifetime `'a`, every row the consuming operator
    /// materializes via [`Rows9::row`] must point at `len` initialized
    /// elements that are neither concurrently written nor overlapped by
    /// the operator's destination slice. Operators declare which rows
    /// they touch through [`StencilOp::READS_CORNERS`]; callers use that
    /// to decide whether corner rows need these guarantees.
    #[inline(always)]
    pub(crate) unsafe fn from_raw(ptrs: [[*const T; 3]; 3], len: usize) -> Self {
        debug_assert!(len >= 2);
        Self {
            ptrs,
            len,
            _src: PhantomData,
        }
    }

    /// Number of *destination* cells these rows can update (`len - 2`).
    #[inline(always)]
    pub fn cells(&self) -> usize {
        self.len - 2
    }

    /// The source row at offset `(dy, dz)`, covering `x0-1 ..= x0+n`.
    #[inline(always)]
    pub fn row(&self, dy: i32, dz: i32) -> &'a [T] {
        // SAFETY: per the constructor contracts, this row is valid for
        // `len` reads for 'a.
        unsafe {
            std::slice::from_raw_parts(self.ptrs[(dz + 1) as usize][(dy + 1) as usize], self.len)
        }
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

    /// Whether [`StencilOp::apply_row`] reads the diagonal rows
    /// `row(±1, ±1)`. Cross-shaped operators override this to `false`,
    /// which lets the compressed-grid executor use the copy-free in-place
    /// path; the conservative default routes corner-reading operators
    /// through a scratch buffer instead.
    const READS_CORNERS: bool = true;

    /// Whether the region drivers in [`crate::kernel`] may compile this
    /// operator's row loop at the host's vector width (AVX where the CPU
    /// has it) instead of the build target's. Results are bitwise the
    /// same either way; only [`ScalarPath`] turns it off, to stay the
    /// build-target twin the widened code is checked against.
    const WIDEN: bool = true;

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

    /// Update cells `x0 .. x0 + dst.len()` of row `(y, z)`: `dst[i]`
    /// becomes the next time step of cell `(x0 + i, y, z)`, computed from
    /// `src`. Coordinates are *logical* grid coordinates (executors that
    /// shift or relocate storage translate before calling), so operators
    /// may use them to address auxiliary per-cell data.
    ///
    /// This is the operator's only row kernel. Write it as a plain
    /// indexed loop and mark the impl `#[inline(always)]`: the region
    /// drivers inline it into a body that is compiled once for the
    /// build target and once for AVX (see [`crate::kernel`]), and an
    /// impl that is not inlined silently stays at the build target.
    fn apply_row(&self, dst: &mut [T], src: &Rows9<'_, T>, x0: usize, y: usize, z: usize);

    /// Variant for the baseline's non-temporal-store write stream. The
    /// default falls back to plain stores — results must stay bitwise
    /// identical either way.
    #[inline(always)]
    fn apply_row_streaming(
        &self,
        dst: &mut [T],
        src: &Rows9<'_, T>,
        x0: usize,
        y: usize,
        z: usize,
    ) {
        self.apply_row(dst, src, x0, y, z);
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
/// loop as compiled for the build target instead of the AVX copy.
///
/// This is the oracle side of the widening verification story — the
/// `simd_property` suite and the kernel tests run with `op` and
/// `ScalarPath(op)` and assert bitwise equality — and doubles as
/// `Plan::simd = false` and the `simd: off` rows in the sweep bins. No
/// global toggle, no config plumbing: the choice is in the operator
/// type.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScalarPath<Op>(pub Op);

impl<T: Real, Op: StencilOp<T>> StencilOp<T> for ScalarPath<Op> {
    const RADIUS: usize = Op::RADIUS;
    const READS_CORNERS: bool = Op::READS_CORNERS;
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
    fn apply_row(&self, dst: &mut [T], src: &Rows9<'_, T>, x0: usize, y: usize, z: usize) {
        self.0.apply_row(dst, src, x0, y, z);
    }

    #[inline(always)]
    fn apply_row_streaming(
        &self,
        dst: &mut [T],
        src: &Rows9<'_, T>,
        x0: usize,
        y: usize,
        z: usize,
    ) {
        self.0.apply_row_streaming(dst, src, x0, y, z);
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
    fn apply_row(&self, dst: &mut [T], src: &Rows9<'_, T>, _x0: usize, _y: usize, _z: usize) {
        let n = dst.len();
        kernel::jacobi_row(
            dst,
            src.row(0, 0),
            &src.row(-1, 0)[1..n + 1],
            &src.row(1, 0)[1..n + 1],
            &src.row(0, -1)[1..n + 1],
            &src.row(0, 1)[1..n + 1],
        );
    }

    #[inline(always)]
    fn apply_row_streaming(
        &self,
        dst: &mut [T],
        src: &Rows9<'_, T>,
        x0: usize,
        y: usize,
        z: usize,
    ) {
        if !is_f64::<T>() {
            self.apply_row(dst, src, x0, y, z);
            return;
        }
        let n = dst.len();
        // SAFETY of the transmutes: guarded by `is_f64`.
        unsafe {
            kernel::jacobi_row_nt_f64(
                std::mem::transmute::<&mut [T], &mut [f64]>(dst),
                std::mem::transmute::<&[T], &[f64]>(src.row(0, 0)),
                std::mem::transmute::<&[T], &[f64]>(&src.row(-1, 0)[1..n + 1]),
                std::mem::transmute::<&[T], &[f64]>(&src.row(1, 0)[1..n + 1]),
                std::mem::transmute::<&[T], &[f64]>(&src.row(0, -1)[1..n + 1]),
                std::mem::transmute::<&[T], &[f64]>(&src.row(0, 1)[1..n + 1]),
            );
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
    fn apply_row(&self, dst: &mut [T], src: &Rows9<'_, T>, _x0: usize, _y: usize, _z: usize) {
        let n = dst.len();
        let cw = T::from_f64(self.center);
        let nw = T::from_f64(self.neighbor);
        let c = src.row(0, 0);
        let ym = src.row(-1, 0);
        let yp = src.row(1, 0);
        let zm = src.row(0, -1);
        let zp = src.row(0, 1);
        for i in 0..n {
            let sum = c[i] + c[i + 2] + ym[i + 1] + yp[i + 1] + zm[i + 1] + zp[i + 1];
            dst[i] = c[i + 1] * cw + sum * nw;
        }
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
    fn apply_row(&self, dst: &mut [T], src: &Rows9<'_, T>, x0: usize, y: usize, z: usize) {
        let n = dst.len();
        let six = T::from_f64(6.0);
        let gx = x0 + self.origin[0];
        let k = &self.kappa.row(y + self.origin[1], z + self.origin[2])[gx..gx + n];
        let c = src.row(0, 0);
        let ym = src.row(-1, 0);
        let yp = src.row(1, 0);
        let zm = src.row(0, -1);
        let zp = src.row(0, 1);
        for i in 0..n {
            let u = c[i + 1];
            let sum = c[i] + c[i + 2] + ym[i + 1] + yp[i + 1] + zm[i + 1] + zp[i + 1];
            dst[i] = u + (sum - u * six) * k[i];
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

    fn name(&self) -> &'static str {
        "avg27"
    }

    fn flops_per_lup(&self) -> f64 {
        11.0 // 8 column adds + 2 adds + 1 multiply
    }

    #[inline(always)]
    fn apply_row(&self, dst: &mut [T], src: &Rows9<'_, T>, _x0: usize, _y: usize, _z: usize) {
        let n = dst.len();
        let w = T::ONE / T::from_f64(27.0);
        // Planes bottom / center / top (dz), rows south / center / north (dy).
        let (bs, bc, bn) = (src.row(-1, -1), src.row(0, -1), src.row(1, -1));
        let (cs, cc, cn) = (src.row(-1, 0), src.row(0, 0), src.row(1, 0));
        let (ts, tc, tn) = (src.row(-1, 1), src.row(0, 1), src.row(1, 1));
        let mut col = [T::ZERO; Avg27::CHUNK + 2];
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_grid::init;

    fn rows_from_grid<T: Real>(
        g: &Grid3<T>,
        x0: usize,
        x1: usize,
        y: usize,
        z: usize,
    ) -> Rows9<'_, T> {
        Rows9::from_grid(g, x0, x1, y, z)
    }

    #[test]
    fn rows9_addressing() {
        let dims = Dims3::new(8, 5, 5);
        let g: Grid3<f64> = Grid3::from_fn(dims, |x, y, z| (x + 10 * y + 100 * z) as f64);
        let rows = rows_from_grid(&g, 2, 6, 2, 3);
        assert_eq!(rows.cells(), 4);
        // Neighbor (dx,dy,dz) of cell i at x0=2 has value
        // x0+i+dx + 10(y+dy) + 100(z+dz), at row index i + 1 + dx.
        assert_eq!(rows.row(0, 0)[1], (2 + 20 + 300) as f64); // i=0, dx=0
        assert_eq!(rows.row(-1, 1)[0], (1 + 10 + 400) as f64); // i=0, dx=-1
        assert_eq!(rows.row(1, -1)[5], (6 + 30 + 200) as f64); // i=3, dx=+1
    }

    #[test]
    fn jacobi6_row_matches_pointwise() {
        let dims = Dims3::cube(7);
        let g: Grid3<f64> = init::random(dims, 3);
        let rows = rows_from_grid(&g, 1, 6, 3, 3);
        let mut dst = vec![0.0; 5];
        StencilOp::<f64>::apply_row(&Jacobi6, &mut dst, &rows, 1, 3, 3);
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
        let dims = Dims3::new(41, 5, 5); // odd width exercises NT head/tail
        let g: Grid3<f64> = init::random(dims, 17);
        let rows = rows_from_grid(&g, 1, 40, 2, 2);
        let mut a = vec![0.0; 39];
        let mut b = vec![0.0; 39];
        StencilOp::<f64>::apply_row(&Jacobi6, &mut a, &rows, 1, 2, 2);
        StencilOp::<f64>::apply_row_streaming(&Jacobi6, &mut b, &rows, 1, 2, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn jacobi7_heat_weights() {
        let op = Jacobi7::heat(0.1);
        assert!((op.center - 0.4).abs() < 1e-15);
        assert_eq!(op.neighbor, 0.1);
        let dims = Dims3::cube(5);
        let g: Grid3<f64> = init::random(dims, 5);
        let rows = rows_from_grid(&g, 1, 4, 2, 2);
        let mut dst = vec![0.0; 3];
        StencilOp::<f64>::apply_row(&op, &mut dst, &rows, 1, 2, 2);
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

    #[test]
    fn varcoeff_restriction_reanchors_lookup() {
        let dims = Dims3::cube(8);
        let op: VarCoeff7<f64> = VarCoeff7::banded(dims);
        let g: Grid3<f64> = init::random(dims, 9);

        // Global evaluation of row (y=3, z=4), cells 2..6.
        let rows = rows_from_grid(&g, 2, 6, 3, 4);
        let mut want = vec![0.0; 4];
        op.apply_row(&mut want, &rows, 2, 3, 4);

        // The same cells seen from a local box anchored at (1, 2, 2):
        // local coords are global - origin.
        let local = op.restricted(&Region3::new([1, 2, 2], [8, 8, 8]));
        let mut got = vec![0.0; 4];
        local.apply_row(&mut got, &rows, 1, 1, 2);
        assert_eq!(want, got);
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
        let rows = rows_from_grid(&g, 1, 4, 2, 2);
        let mut dst = vec![0.0; 3];
        StencilOp::<f64>::apply_row(&Avg27, &mut dst, &rows, 1, 2, 2);
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

    /// `Avg27::apply_row` is bitwise its documented order, evaluated
    /// point by point, on rows that end just before, at, and just past
    /// a chunk boundary and on rows spanning three chunks.
    #[test]
    fn avg27_row_is_its_documented_order_across_chunks() {
        fn naive<T: Real>(g: &Grid3<T>, x: usize, y: usize, z: usize) -> T {
            let col = |x: usize| {
                let mut nine =
                    (z - 1..=z + 1).flat_map(|zz| (y - 1..=y + 1).map(move |yy| g.get(x, yy, zz)));
                let first = nine.next().unwrap();
                nine.fold(first, |s, v| s + v)
            };
            (col(x - 1) + col(x) + col(x + 1)) * (T::ONE / T::from_f64(27.0))
        }
        fn check<T: Real>(seed: u64) {
            let c = Avg27::CHUNK;
            // All nine source rows of (y, z) = (2, 3) are interior, so
            // none of them is a constant boundary row.
            let dims = Dims3::new(2 * c + 8, 6, 6);
            let g: Grid3<T> = init::random(dims, seed);
            for n in [1, 2, c - 1, c, c + 1, 2 * c + 3] {
                for x0 in [1, 3] {
                    let mut dst = vec![T::ZERO; n];
                    let rows = rows_from_grid(&g, x0, x0 + n, 2, 3);
                    StencilOp::<T>::apply_row(&Avg27, &mut dst, &rows, x0, 2, 3);
                    for (i, got) in dst.iter().enumerate() {
                        let want = naive(&g, x0 + i, 2, 3);
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

    /// Widened row loop ≡ build-target row loop ≡ the bare `apply_row`,
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
                let mut direct = vec![0.0; x1 - x0];
                op.apply_row(&mut direct, &rows_from_grid(&g, x0, x1, 2, 3), x0, 2, 3);
                assert_eq!(&base.row(2, 3)[x0..x1], &direct[..], "{ctx} apply_row");
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
        let rows = rows_from_grid(&g, 2, 6, 3, 4);
        let mut want = vec![0.0; 4];
        op.apply_row(&mut want, &rows, 2, 3, 4);
        let local = op.restricted(&Region3::new([1, 2, 2], [8, 8, 8]));
        let mut got = vec![0.0; 4];
        local.apply_row(&mut got, &rows, 1, 1, 2);
        assert_eq!(want, got);
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
            assert!(<Jacobi6 as StencilOp<f64>>::WIDEN);
            assert!(<Jacobi7 as StencilOp<f64>>::WIDEN);
            assert!(<VarCoeff7<f64> as StencilOp<f64>>::WIDEN);
            assert!(<Avg27 as StencilOp<f64>>::WIDEN);
            assert!(!<ScalarPath<Jacobi6> as StencilOp<f64>>::WIDEN);
            assert!(!<ScalarPath<Avg27> as StencilOp<f32>>::WIDEN);
        }
    }
}
