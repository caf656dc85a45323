//! The "compressed grid" single-array storage scheme (paper §1.3).
//!
//! Instead of double-buffering two full grids, each sweep writes its result
//! shifted by (-1,-1,-1) relative to the read position; alternate *team
//! sweeps* shift by (+1,+1,+1) with reversed loops, so the data slides down
//! and up inside one allocation that is only `max_shift` cells larger per
//! dimension. This saves almost half the memory and reduces bandwidth
//! pressure.
//!
//! The struct stores the *logical* extents (the Jacobi domain including its
//! Dirichlet boundary layer) plus the current displacement of logical
//! coordinate (0,0,0) inside the allocation. Solvers that run sweeps
//! mid-flight track per-stage displacements themselves and call
//! [`CompressedGrid::set_displacement`] once a team sweep completes.
//!
//! Displacement convention: `physical = logical + margin + displacement`,
//! with `displacement ∈ [-margin, 0]`. A fresh grid has displacement 0.

use crate::{Dims3, Grid3, Real, SharedGrid};

/// Single-allocation grid supporting diagonal shift sweeps.
#[derive(Clone, Debug)]
pub struct CompressedGrid<T: Copy> {
    storage: Grid3<T>,
    logical: Dims3,
    margin: usize,
    displacement: i64,
}

impl<T: Real> CompressedGrid<T> {
    /// Allocate for a logical domain of `logical` cells and a maximum
    /// accumulated shift of `margin` cells (= updates per team sweep,
    /// `t*T` in the paper's notation).
    pub fn zeroed(logical: Dims3, margin: usize) -> Self {
        Self {
            storage: Grid3::zeroed(Self::alloc_dims_for(logical, margin)),
            logical,
            margin,
            displacement: 0,
        }
    }

    /// Build from an initial state (displacement 0).
    pub fn from_grid(initial: &Grid3<T>, margin: usize) -> Self {
        Self::from_grid_in(
            initial,
            margin,
            Grid3::zeroed(Self::alloc_dims_for(initial.dims(), margin)),
        )
    }

    /// Allocation extents for a logical domain with the given margin.
    pub fn alloc_dims_for(logical: Dims3, margin: usize) -> Dims3 {
        Dims3::new(
            logical.nx + margin,
            logical.ny + margin,
            logical.nz + margin,
        )
    }

    /// [`CompressedGrid::from_grid`] into caller-provided storage (e.g.
    /// recycled from a staging pool — reclaim it afterwards with
    /// [`CompressedGrid::into_storage`]). Stale storage contents outside
    /// the logical frame are harmless: every frame an executor reads was
    /// written either here or by an earlier stage of the run.
    ///
    /// # Panics
    /// Panics if `storage.dims()` is not exactly
    /// [`CompressedGrid::alloc_dims_for`]`(initial.dims(), margin)`.
    pub fn from_grid_in(initial: &Grid3<T>, margin: usize, storage: Grid3<T>) -> Self {
        assert_eq!(
            storage.dims(),
            Self::alloc_dims_for(initial.dims(), margin),
            "storage extents must match logical dims + margin"
        );
        let mut cg = Self {
            storage,
            logical: initial.dims(),
            margin,
            displacement: 0,
        };
        for z in 0..initial.dims().nz {
            for y in 0..initial.dims().ny {
                let (px, py, pz) = cg.physical(0, y, z);
                let src = initial.row(y, z);
                let start = cg.storage.idx(px, py, pz);
                cg.storage.as_mut_slice()[start..start + src.len()].copy_from_slice(src);
            }
        }
        cg
    }

    /// Give the backing allocation back (e.g. to a pool).
    pub fn into_storage(self) -> Grid3<T> {
        self.storage
    }

    pub fn logical_dims(&self) -> Dims3 {
        self.logical
    }

    pub fn alloc_dims(&self) -> Dims3 {
        self.storage.dims()
    }

    pub fn margin(&self) -> usize {
        self.margin
    }

    /// Current displacement of the logical origin (`∈ [-margin, 0]`).
    pub fn displacement(&self) -> i64 {
        self.displacement
    }

    /// Record the displacement after a completed (team) sweep.
    ///
    /// # Panics
    /// Panics if `d` is outside `[-margin, 0]`.
    pub fn set_displacement(&mut self, d: i64) {
        assert!(
            -(self.margin as i64) <= d && d <= 0,
            "displacement {d} outside [-{}, 0]",
            self.margin
        );
        self.displacement = d;
    }

    /// Physical coordinates of logical `(x, y, z)` at the current
    /// displacement.
    #[inline]
    pub fn physical(&self, x: usize, y: usize, z: usize) -> (usize, usize, usize) {
        let off = self.margin as i64 + self.displacement;
        (
            (x as i64 + off) as usize,
            (y as i64 + off) as usize,
            (z as i64 + off) as usize,
        )
    }

    /// Read logical cell at current displacement.
    #[inline]
    pub fn get(&self, x: usize, y: usize, z: usize) -> T {
        let (px, py, pz) = self.physical(x, y, z);
        self.storage.get(px, py, pz)
    }

    /// Write logical cell at current displacement.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: T) {
        let (px, py, pz) = self.physical(x, y, z);
        self.storage.set(px, py, pz, v);
    }

    /// Unsynchronized view over the *allocation* (physical coordinates).
    /// Executors combine this with per-stage displacements.
    pub fn shared(&mut self) -> SharedGrid<T> {
        SharedGrid::from_raw(self.storage.as_mut_ptr(), self.storage.dims())
    }

    /// Expand the logical domain at the current displacement into `out`,
    /// overwriting every cell of it.
    ///
    /// # Panics
    /// Panics if `out.dims()` is not [`CompressedGrid::logical_dims`].
    pub fn write_to(&self, out: &mut Grid3<T>) {
        assert_eq!(
            out.dims(),
            self.logical,
            "output must have the logical dims"
        );
        for z in 0..self.logical.nz {
            for y in 0..self.logical.ny {
                let (px, py, pz) = self.physical(0, y, z);
                let start = self.storage.idx(px, py, pz);
                let src = &self.storage.as_slice()[start..start + self.logical.nx];
                out.row_mut(y, z).copy_from_slice(src);
            }
        }
    }

    /// [`CompressedGrid::write_to`] a freshly allocated grid.
    pub fn to_grid(&self) -> Grid3<T> {
        let mut out = Grid3::zeroed(self.logical);
        self.write_to(&mut out);
        out
    }

    /// Memory footprint in bytes; compare with `2 * logical` for the
    /// double-buffer scheme to see the saving.
    pub fn bytes(&self) -> usize {
        self.storage.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_at_zero_displacement() {
        let init: Grid3<f64> =
            Grid3::from_fn(Dims3::cube(5), |x, y, z| (x + 10 * y + 100 * z) as f64);
        let cg = CompressedGrid::from_grid(&init, 4);
        assert_eq!(cg.alloc_dims(), Dims3::cube(9));
        for (x, y, z) in crate::Region3::whole(init.dims()).iter() {
            assert_eq!(cg.get(x, y, z), init.get(x, y, z));
        }
        let back = cg.to_grid();
        assert_eq!(back.as_slice(), init.as_slice());
        // `write_to` overwrites whatever the target held.
        let mut stale = Grid3::filled(init.dims(), f64::NAN);
        cg.write_to(&mut stale);
        assert_eq!(stale.as_slice(), init.as_slice());
    }

    #[test]
    fn displacement_moves_window() {
        let mut cg: CompressedGrid<f64> = CompressedGrid::zeroed(Dims3::cube(4), 2);
        // Write a marker at logical (0,0,0), displacement 0 => physical (2,2,2).
        cg.set(0, 0, 0, 7.0);
        let (px, py, pz) = cg.physical(0, 0, 0);
        assert_eq!((px, py, pz), (2, 2, 2));
        // After shifting down by 2, logical (2,2,2) lands on physical (2,2,2).
        cg.set_displacement(-2);
        assert_eq!(cg.get(2, 2, 2), 7.0);
        let (px, py, pz) = cg.physical(0, 0, 0);
        assert_eq!((px, py, pz), (0, 0, 0));
    }

    #[test]
    #[should_panic(expected = "displacement")]
    fn displacement_out_of_range_panics() {
        let mut cg: CompressedGrid<f64> = CompressedGrid::zeroed(Dims3::cube(4), 2);
        cg.set_displacement(-3);
    }

    #[test]
    fn memory_saving_vs_double_buffer() {
        let n = 64;
        let margin = 8;
        let cg: CompressedGrid<f64> = CompressedGrid::zeroed(Dims3::cube(n), margin);
        let double = 2 * Dims3::cube(n).bytes(8);
        // (n+m)^3 < 2 n^3 for m << n: the paper's "nearly half the memory".
        assert!(cg.bytes() < double);
        assert!((cg.bytes() as f64) / (double as f64) < 0.75);
    }

    #[test]
    fn shared_view_matches_physical_layout() {
        let init: Grid3<f64> = Grid3::from_fn(Dims3::cube(3), |x, _, _| x as f64);
        let mut cg = CompressedGrid::from_grid(&init, 1);
        let dims = cg.alloc_dims();
        let view = cg.shared();
        // logical (1,0,0) at displacement 0 sits at physical (2,1,1).
        let v = unsafe { view.get(2, 1, 1) };
        assert_eq!(v, 1.0);
        assert_eq!(dims, Dims3::cube(4));
    }
}
