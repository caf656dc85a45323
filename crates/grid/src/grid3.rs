//! Dense 3D grid with x-fastest layout.

use crate::aligned::ALIGN;
use crate::{AlignedVec, Dims3, Real, Region3};

/// The phase of a new grid: cell 1 starts a cache line. For an x-extent
/// of whole lines that is the first interior cell of every row, the
/// cell the cross-shaped operators' row loops stream from.
pub const DEFAULT_PHASE: usize = 1;

/// Cells of `T` per cache line ([`ALIGN`] bytes).
const fn line<T>() -> usize {
    ALIGN / std::mem::size_of::<T>()
}

/// Position of cell 0 in the storage that puts cell `phase` on a line.
const fn origin_for<T>(phase: usize) -> usize {
    let l = line::<T>();
    (l - phase % l) % l
}

/// A dense 3D array of `T` with unit stride along x.
///
/// The grid makes no assumption about which cells are boundary, ghost, or
/// interior — that interpretation belongs to the solver layer. Helper
/// constructors for the common "interior + 1 boundary layer" Jacobi setup
/// live in [`crate::init`].
///
/// # Row phase
///
/// The cells live in an [`AlignedVec`] with one cache line of slack,
/// behind an *origin* smaller than one line, so the grid chooses which
/// cell starts a line: its [`phase`](Grid3::phase). Every accessor goes
/// through the origin; the phase decides where the cells sit, never
/// what they hold. A new grid has [`DEFAULT_PHASE`] (cell 1 on a line).
/// The facade brings a grid to the phase of the operator that sweeps it
/// (`tb_stencil::StencilOp::ALIGNED_CELL`: the first interior cell for
/// the cross operators, the cell before it for `Avg27`, whose column
/// loads start one cell earlier): [`Grid3::set_phase`] moves the cells
/// in one pass, [`Grid3::set_phase_stale`] re-points a buffer whose
/// cells are about to be overwritten. Executors called directly run on
/// whatever phase they are given: `Avg27`'s row loop on a default-phase
/// grid runs 10–15 % below its rate in `Avg27`'s phase (`kernel.row_mlups`
/// on the benchmark's `cache-a27` traced pass).
#[derive(Clone, Debug)]
pub struct Grid3<T: Copy> {
    dims: Dims3,
    /// `dims.len()` cells from `origin` on, plus one line of slack.
    data: AlignedVec<T>,
    /// Index of cell 0 in `data`; below one line.
    origin: usize,
}

impl<T: Real> Grid3<T> {
    /// Zero-filled grid of the given extents.
    pub fn zeroed(dims: Dims3) -> Self {
        Self {
            dims,
            data: AlignedVec::zeroed(Self::storage_len(dims)),
            origin: origin_for::<T>(DEFAULT_PHASE),
        }
    }

    /// Grid filled with a constant.
    pub fn filled(dims: Dims3, value: T) -> Self {
        Self {
            dims,
            data: AlignedVec::filled(Self::storage_len(dims), value),
            origin: origin_for::<T>(DEFAULT_PHASE),
        }
    }

    /// Grid initialized from a function of the coordinates, called in
    /// memory order (x fastest); each cell is written once.
    pub fn from_fn(dims: Dims3, mut f: impl FnMut(usize, usize, usize) -> T) -> Self {
        let origin = origin_for::<T>(DEFAULT_PHASE);
        let cells = origin..origin + dims.len();
        let (mut x, mut y, mut z) = (0, 0, 0);
        let data = AlignedVec::from_fn(Self::storage_len(dims), |i| {
            if !cells.contains(&i) {
                return T::ZERO;
            }
            let v = f(x, y, z);
            x += 1;
            if x == dims.nx {
                x = 0;
                y += 1;
                if y == dims.ny {
                    y = 0;
                    z += 1;
                }
            }
            v
        });
        Self { dims, data, origin }
    }

    /// Storage for `dims`: its cells plus one line of slack.
    fn storage_len(dims: Dims3) -> usize {
        assert!(!dims.is_empty(), "Grid3 of zero cells is not supported");
        dims.len() + line::<T>()
    }

    /// The cell index that starts a cache line, below one line's cells
    /// (see "Row phase" above).
    pub fn phase(&self) -> usize {
        let l = line::<T>();
        (l - self.origin) % l
    }

    /// Put cell `phase` (taken modulo one line) on a cache line, moving
    /// the cells within the storage in one pass if the phase changes.
    /// Every cell keeps its value.
    pub fn set_phase(&mut self, phase: usize) {
        let origin = origin_for::<T>(phase);
        if origin != self.origin {
            let n = self.dims.len();
            self.data.copy_within(self.origin..self.origin + n, origin);
            self.origin = origin;
        }
    }

    /// [`Grid3::set_phase`] without moving anything: for a buffer whose
    /// every cell is written before it is read (a pooled B buffer, an
    /// output about to be overwritten). The cells then hold whatever the
    /// storage held at their new places; a zeroed grid stays zeroed.
    pub fn set_phase_stale(&mut self, phase: usize) {
        self.origin = origin_for::<T>(phase);
    }

    pub fn dims(&self) -> Dims3 {
        self.dims
    }

    #[inline(always)]
    pub fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        self.dims.idx(x, y, z)
    }

    #[inline(always)]
    pub fn get(&self, x: usize, y: usize, z: usize) -> T {
        self.as_slice()[self.dims.idx(x, y, z)]
    }

    #[inline(always)]
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: T) {
        let i = self.dims.idx(x, y, z);
        self.as_mut_slice()[i] = v;
    }

    /// The cells, x fastest.
    #[inline(always)]
    pub fn as_slice(&self) -> &[T] {
        &self.data[self.origin..self.origin + self.dims.len()]
    }

    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        let n = self.dims.len();
        &mut self.data[self.origin..self.origin + n]
    }

    /// Raw pointer to cell 0 (the storage's own pointer moved to the
    /// origin, so it may address every cell).
    pub fn as_ptr(&self) -> *const T {
        self.data.as_ptr().wrapping_add(self.origin)
    }

    pub fn as_mut_ptr(&mut self) -> *mut T {
        self.data.as_mut_ptr().wrapping_add(self.origin)
    }

    /// One x-row: the cells `(0..nx, y, z)`.
    #[inline]
    pub fn row(&self, y: usize, z: usize) -> &[T] {
        let start = self.dims.idx(0, y, z);
        &self.as_slice()[start..start + self.dims.nx]
    }

    /// One mutable x-row.
    #[inline]
    pub fn row_mut(&mut self, y: usize, z: usize) -> &mut [T] {
        let start = self.dims.idx(0, y, z);
        let nx = self.dims.nx;
        &mut self.as_mut_slice()[start..start + nx]
    }

    /// Fill every cell of `region` with `v`.
    pub fn fill_region(&mut self, region: &Region3, v: T) {
        let r = region.intersect(&Region3::whole(self.dims));
        for z in r.lo[2]..r.hi[2] {
            for y in r.lo[1]..r.hi[1] {
                let row = self.row_mut(y, z);
                row[r.lo[0]..r.hi[0]].fill(v);
            }
        }
    }

    /// Copy the cells of `region` from `src` (same dims required).
    pub fn copy_region_from(&mut self, src: &Grid3<T>, region: &Region3) {
        assert_eq!(self.dims, src.dims, "copy_region_from requires equal dims");
        let r = region.intersect(&Region3::whole(self.dims));
        for z in r.lo[2]..r.hi[2] {
            for y in r.lo[1]..r.hi[1] {
                let s = src.dims.idx(r.lo[0], y, z);
                let e = s + (r.hi[0] - r.lo[0]);
                let d = self.dims.idx(r.lo[0], y, z);
                let (dst_s, dst_e) = (d, d + (r.hi[0] - r.lo[0]));
                self.as_mut_slice()[dst_s..dst_e].copy_from_slice(&src.as_slice()[s..e]);
            }
        }
    }

    /// Copy every cell *outside* `inner` from `src` (same dims required)
    /// — with `inner = Region3::interior_of(dims)`, the Dirichlet shell:
    /// two contiguous z planes, two rows per remaining z, two row ends
    /// per remaining row. An `inner` spanning x (the interior's rows
    /// widened to the x-faces, which the sweeps carry) makes no per-row
    /// copy: one contiguous span between each two planes' inner rows.
    /// An empty `inner` copies the whole grid.
    pub fn copy_outside_from(&mut self, src: &Grid3<T>, inner: &Region3) {
        assert_eq!(self.dims, src.dims, "copy_outside_from requires equal dims");
        let r = inner.intersect(&Region3::whole(self.dims));
        if r.is_empty() {
            return self.as_mut_slice().copy_from_slice(src.as_slice());
        }
        let Dims3 { nx, ny, nz } = self.dims;
        let (dst, src) = (self.as_mut_slice(), src.as_slice());
        let mut copy = |from: usize, to: usize| dst[from..to].copy_from_slice(&src[from..to]);
        let plane = nx * ny;
        if r.extent(0) == nx {
            // Each span between two planes' inner rows is contiguous.
            let mut from = 0;
            for z in r.lo[2]..r.hi[2] {
                copy(from, z * plane + r.lo[1] * nx);
                from = z * plane + r.hi[1] * nx;
            }
            return copy(from, nz * plane);
        }
        copy(0, r.lo[2] * plane);
        copy(r.hi[2] * plane, nz * plane);
        for z in r.lo[2]..r.hi[2] {
            let z0 = z * plane;
            copy(z0, z0 + r.lo[1] * nx);
            copy(z0 + r.hi[1] * nx, z0 + plane);
            for y in r.lo[1]..r.hi[1] {
                let row = z0 + y * nx;
                copy(row, row + r.lo[0]);
                copy(row + r.hi[0], row + nx);
            }
        }
    }

    /// Sum over a region (deterministic order: x fastest).
    pub fn sum_region(&self, region: &Region3) -> T {
        let r = region.intersect(&Region3::whole(self.dims));
        let mut acc = T::ZERO;
        for z in r.lo[2]..r.hi[2] {
            for y in r.lo[1]..r.hi[1] {
                let row = self.row(y, z);
                for &v in &row[r.lo[0]..r.hi[0]] {
                    acc += v;
                }
            }
        }
        acc
    }

    /// Memory footprint of the payload in bytes.
    pub fn bytes(&self) -> usize {
        self.dims.bytes(std::mem::size_of::<T>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_and_set_get() {
        let mut g: Grid3<f64> = Grid3::zeroed(Dims3::new(4, 5, 6));
        assert_eq!(g.get(3, 4, 5), 0.0);
        g.set(2, 3, 4, 9.5);
        assert_eq!(g.get(2, 3, 4), 9.5);
        assert_eq!(g.as_slice()[g.idx(2, 3, 4)], 9.5);
    }

    #[test]
    fn from_fn_matches_coordinates() {
        let g: Grid3<f64> =
            Grid3::from_fn(Dims3::new(3, 4, 5), |x, y, z| (x + 10 * y + 100 * z) as f64);
        assert_eq!(g.get(2, 3, 4), 432.0);
        assert_eq!(g.get(0, 0, 0), 0.0);
    }

    #[test]
    fn rows_are_contiguous() {
        let g: Grid3<f64> = Grid3::from_fn(Dims3::new(5, 2, 2), |x, _, _| x as f64);
        assert_eq!(g.row(1, 1), &[0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn fill_region_only_touches_region() {
        let mut g: Grid3<f64> = Grid3::zeroed(Dims3::cube(5));
        let r = Region3::new([1, 1, 1], [4, 4, 4]);
        g.fill_region(&r, 1.0);
        let total = g.sum_region(&Region3::whole(g.dims()));
        assert_eq!(total, 27.0);
        assert_eq!(g.get(0, 0, 0), 0.0);
        assert_eq!(g.get(1, 1, 1), 1.0);
        assert_eq!(g.get(4, 4, 4), 0.0);
    }

    #[test]
    fn copy_region_from_copies_exactly() {
        let src: Grid3<f64> = Grid3::from_fn(Dims3::cube(4), |x, y, z| (x + y + z) as f64);
        let mut dst: Grid3<f64> = Grid3::zeroed(Dims3::cube(4));
        let r = Region3::new([1, 1, 1], [3, 3, 3]);
        dst.copy_region_from(&src, &r);
        for (x, y, z) in Region3::whole(src.dims()).iter() {
            if r.contains(x, y, z) {
                assert_eq!(dst.get(x, y, z), src.get(x, y, z));
            } else {
                assert_eq!(dst.get(x, y, z), 0.0);
            }
        }
    }

    #[test]
    fn copy_outside_from_copies_exactly_the_complement() {
        let dims = Dims3::new(6, 5, 4);
        let src: Grid3<f64> = Grid3::from_fn(dims, |x, y, z| (1 + x + 10 * y + 100 * z) as f64);
        for inner in [
            Region3::interior_of(dims),
            Region3::new([2, 0, 1], [6, 3, 2]),
            Region3::whole(dims),
            Region3::empty(),
            Region3::interior_of(Dims3::new(2, 5, 4)),
            Region3::new([0, 1, 1], [6, 4, 3]),
            Region3::new([0, 2, 0], [6, 3, 4]),
        ] {
            let mut dst: Grid3<f64> = Grid3::zeroed(dims);
            dst.copy_outside_from(&src, &inner);
            for (x, y, z) in Region3::whole(dims).iter() {
                let want = if inner.contains(x, y, z) {
                    0.0
                } else {
                    src.get(x, y, z)
                };
                assert_eq!(dst.get(x, y, z), want, "({x},{y},{z}) inner {inner}");
            }
        }
    }

    #[test]
    fn fill_region_clamps_to_grid() {
        let mut g: Grid3<f32> = Grid3::zeroed(Dims3::cube(3));
        g.fill_region(&Region3::new([0, 0, 0], [10, 10, 10]), 2.0);
        assert_eq!(g.sum_region(&Region3::whole(g.dims())), 27.0 * 2.0);
    }

    /// Whether cell `i` of `g` starts a cache line.
    fn on_line<T: Real>(g: &Grid3<T>, i: usize) -> bool {
        (&g.as_slice()[i] as *const T as usize).is_multiple_of(ALIGN)
    }

    fn phases_move_cells_and_keep_values<T: Real>() {
        let dims = Dims3::new(2 * line::<T>(), 3, 2);
        let fresh = Grid3::<T>::from_fn(dims, |x, y, z| {
            T::from_f64((1 + x + 10 * y) as f64 * (z + 1) as f64)
        });
        assert_eq!(fresh.phase(), DEFAULT_PHASE);
        for g in [
            fresh.clone(),
            Grid3::zeroed(dims),
            Grid3::filled(dims, T::ONE),
        ] {
            assert!(
                on_line(&g, DEFAULT_PHASE),
                "a new grid puts cell 1 on a line"
            );
        }
        let mut g = fresh.clone();
        for phase in [0, 5, line::<T>() - 1, line::<T>() + 3, 1] {
            g.set_phase(phase);
            let want = phase % line::<T>();
            assert_eq!(g.phase(), want);
            // Every row starts a line plus the phase, and keeps its cells.
            for (y, z) in [(0, 0), (2, 1)] {
                let row = g.row(y, z);
                assert!((&row[want] as *const T as usize).is_multiple_of(ALIGN));
                assert_eq!(row, fresh.row(y, z), "phase {phase}");
            }
            assert_eq!(g.as_ptr(), g.as_slice().as_ptr());
            let copy = g.clone();
            assert_eq!(copy.phase(), want, "a clone keeps its phase");
            assert_eq!(copy.as_slice(), fresh.as_slice());
        }
        let mut z = Grid3::<T>::zeroed(dims);
        z.set_phase_stale(0);
        assert!(on_line(&z, 0));
        assert!(
            z.as_slice().iter().all(|&v| v == T::ZERO),
            "stale zeroed stays zeroed"
        );
    }

    #[test]
    fn phases_move_cells_and_keep_values_f64_f32() {
        phases_move_cells_and_keep_values::<f64>();
        phases_move_cells_and_keep_values::<f32>();
    }
}
