//! Dense 3D grid with x-fastest layout.

use crate::{AlignedVec, Dims3, Real, Region3};

/// A dense 3D array of `T` with unit stride along x.
///
/// The grid makes no assumption about which cells are boundary, ghost, or
/// interior — that interpretation belongs to the solver layer. Helper
/// constructors for the common "interior + 1 boundary layer" Jacobi setup
/// live in [`crate::init`].
#[derive(Clone, Debug)]
pub struct Grid3<T: Copy> {
    dims: Dims3,
    data: AlignedVec<T>,
}

impl<T: Real> Grid3<T> {
    /// Zero-filled grid of the given extents.
    pub fn zeroed(dims: Dims3) -> Self {
        Self {
            dims,
            data: AlignedVec::zeroed(dims.len()),
        }
    }

    /// Grid filled with a constant.
    pub fn filled(dims: Dims3, value: T) -> Self {
        Self {
            dims,
            data: AlignedVec::filled(dims.len(), value),
        }
    }

    /// Grid initialized from a function of the coordinates.
    pub fn from_fn(dims: Dims3, mut f: impl FnMut(usize, usize, usize) -> T) -> Self {
        let mut g = Self::zeroed(dims);
        for z in 0..dims.nz {
            for y in 0..dims.ny {
                let row = g.row_mut(y, z);
                for (x, cell) in row.iter_mut().enumerate() {
                    *cell = f(x, y, z);
                }
            }
        }
        g
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
        self.data[self.dims.idx(x, y, z)]
    }

    #[inline(always)]
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: T) {
        let i = self.dims.idx(x, y, z);
        self.data[i] = v;
    }

    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    pub fn as_ptr(&self) -> *const T {
        self.data.as_ptr()
    }

    pub fn as_mut_ptr(&mut self) -> *mut T {
        self.data.as_mut_ptr()
    }

    /// One x-row: the cells `(0..nx, y, z)`.
    #[inline]
    pub fn row(&self, y: usize, z: usize) -> &[T] {
        let start = self.dims.idx(0, y, z);
        &self.data[start..start + self.dims.nx]
    }

    /// One mutable x-row.
    #[inline]
    pub fn row_mut(&mut self, y: usize, z: usize) -> &mut [T] {
        let start = self.dims.idx(0, y, z);
        let nx = self.dims.nx;
        &mut self.data[start..start + nx]
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
                self.data[dst_s..dst_e].copy_from_slice(&src.data[s..e]);
            }
        }
    }

    /// Copy every cell *outside* `inner` from `src` (same dims required)
    /// — with `inner = Region3::interior_of(dims)`, the Dirichlet shell
    /// the sweeps read and never write: two contiguous z planes, two rows
    /// per remaining z, two row ends per remaining row. An empty `inner`
    /// copies the whole grid.
    pub fn copy_outside_from(&mut self, src: &Grid3<T>, inner: &Region3) {
        assert_eq!(self.dims, src.dims, "copy_outside_from requires equal dims");
        let r = inner.intersect(&Region3::whole(self.dims));
        if r.is_empty() {
            return self.data.copy_from_slice(&src.data);
        }
        let Dims3 { nx, ny, nz } = self.dims;
        let (dst, src) = (&mut self.data[..], &src.data[..]);
        let mut copy = |from: usize, to: usize| dst[from..to].copy_from_slice(&src[from..to]);
        let plane = nx * ny;
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
}
