//! The A/B grid pair used by out-of-place Jacobi sweeps.

use crate::{Dims3, Grid3, Real, SharedGrid};

/// Double buffer of two equally sized grids.
///
/// Sweep `s` (0-based) reads `grid(s % 2)` and writes `grid((s+1) % 2)`, so
/// after `n` sweeps the current solution lives in `grid(n % 2)`. Keeping the
/// parity arithmetic in one place avoids an entire class of off-by-one bugs
/// in the pipelined executors, where many sweeps are in flight at once.
#[derive(Clone, Debug)]
pub struct GridPair<T: Copy> {
    a: Grid3<T>,
    b: Grid3<T>,
}

impl<T: Real> GridPair<T> {
    /// Two zero-filled grids.
    pub fn zeroed(dims: Dims3) -> Self {
        Self {
            a: Grid3::zeroed(dims),
            b: Grid3::zeroed(dims),
        }
    }

    /// Start from an initial state: grid A gets `initial`, grid B a copy.
    ///
    /// B must be a copy (not zeros) so that boundary cells — which sweeps
    /// never compute — carry the correct Dirichlet values in both buffers.
    pub fn from_initial(initial: Grid3<T>) -> Self {
        let b = initial.clone();
        Self { a: initial, b }
    }

    /// Assemble a pair from two existing buffers (e.g. recycled from a
    /// staging pool). `b` must hold the same z planes and y rows of the
    /// boundary as `a` — sweeps never write them;
    /// [`Grid3::copy_outside_from`] brings them over without copying the
    /// interior, which the first sweep overwrites anyway. `b`'s x-faces
    /// need not match: the two-grid drivers carry each interior row's
    /// x-face cells from source to destination along with the row.
    ///
    /// # Panics
    /// Panics if the dims differ.
    pub fn from_parts(a: Grid3<T>, b: Grid3<T>) -> Self {
        assert_eq!(a.dims(), b.dims(), "pair buffers must match");
        Self { a, b }
    }

    /// Disassemble into `(a, b)`, e.g. to keep the result buffer and
    /// return the other one to a pool.
    pub fn into_parts(self) -> (Grid3<T>, Grid3<T>) {
        (self.a, self.b)
    }

    pub fn dims(&self) -> Dims3 {
        self.a.dims()
    }

    /// Buffer holding the state after `sweeps_done` sweeps.
    pub fn current(&self, sweeps_done: usize) -> &Grid3<T> {
        if sweeps_done.is_multiple_of(2) {
            &self.a
        } else {
            &self.b
        }
    }

    /// Source and destination for sweep number `sweep` (0-based).
    pub fn src_dst(&mut self, sweep: usize) -> (&Grid3<T>, &mut Grid3<T>) {
        let (a, b) = (&mut self.a, &mut self.b);
        if sweep.is_multiple_of(2) {
            (&*a, b)
        } else {
            (&*b, a)
        }
    }

    pub fn a(&self) -> &Grid3<T> {
        &self.a
    }

    pub fn b(&self) -> &Grid3<T> {
        &self.b
    }

    pub fn a_mut(&mut self) -> &mut Grid3<T> {
        &mut self.a
    }

    pub fn b_mut(&mut self) -> &mut Grid3<T> {
        &mut self.b
    }

    /// Both raw base pointers, indexed by parity: `ptrs()[s % 2]` is the
    /// grid read by sweep `s`. Used by the unsafe shared executors.
    pub fn base_ptrs(&mut self) -> [*mut T; 2] {
        [self.a.as_mut_ptr(), self.b.as_mut_ptr()]
    }

    /// Both buffers as unsynchronized [`SharedGrid`] views, indexed by
    /// parity like [`GridPair::base_ptrs`]: `views[s % 2]` is the buffer
    /// sweep `s` reads, `views[(s + 1) % 2]` the one it writes. The one
    /// definition of the view↔parity convention for every multi-threaded
    /// executor. Constructing the views is safe; the disjointness
    /// contract of their unsafe accessors falls on the executor (see
    /// [`SharedGrid`]).
    pub fn shared_views(&mut self) -> [SharedGrid<T>; 2] {
        let dims = self.dims();
        let ptrs = self.base_ptrs();
        [
            SharedGrid::from_raw(ptrs[0], dims),
            SharedGrid::from_raw(ptrs[1], dims),
        ]
    }

    /// Swap the two buffers (an O(1) pointer swap). Lets a caller that
    /// ran an odd number of sweeps re-normalize so the current state is
    /// in grid A again — the distributed solver does this between
    /// exchange cycles.
    pub fn swap(&mut self) {
        std::mem::swap(&mut self.a, &mut self.b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parity_bookkeeping() {
        let mut p: GridPair<f64> = GridPair::zeroed(Dims3::cube(4));
        p.a_mut().set(1, 1, 1, 5.0);
        assert_eq!(p.current(0).get(1, 1, 1), 5.0);
        assert_eq!(p.current(2).get(1, 1, 1), 5.0);
        assert_eq!(p.current(1).get(1, 1, 1), 0.0);

        let (src, dst) = p.src_dst(0);
        assert_eq!(src.get(1, 1, 1), 5.0);
        dst.set(1, 1, 1, 6.0); // simulate sweep 0 writing
        assert_eq!(p.current(1).get(1, 1, 1), 6.0);

        let (src, dst) = p.src_dst(1);
        assert_eq!(src.get(1, 1, 1), 6.0);
        dst.set(1, 1, 1, 7.0);
        assert_eq!(p.current(2).get(1, 1, 1), 7.0);
    }

    #[test]
    fn swap_renormalizes_parity() {
        let mut p: GridPair<f64> = GridPair::zeroed(Dims3::cube(4));
        p.b_mut().set(1, 1, 1, 3.0); // state after one sweep lives in B
        assert_eq!(p.current(1).get(1, 1, 1), 3.0);
        p.swap();
        assert_eq!(p.current(0).get(1, 1, 1), 3.0, "state is in A after swap");
    }

    #[test]
    fn from_initial_copies_boundary_into_both() {
        let g: Grid3<f64> = Grid3::filled(Dims3::cube(3), 4.0);
        let p = GridPair::from_initial(g);
        assert_eq!(p.a().get(0, 0, 0), 4.0);
        assert_eq!(p.b().get(0, 0, 0), 4.0);
    }
}
