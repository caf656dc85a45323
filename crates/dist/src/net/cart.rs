//! 3D Cartesian rank topology (the solver-facing analogue of
//! `MPI_Cart_create`).
//!
//! Ranks are arranged x-fastest on a `px × py × pz` grid. The topology is
//! non-periodic: the Jacobi domain has physical Dirichlet boundaries, so
//! edge ranks simply have no neighbor there.

use super::comm::Comm;

/// Coordinates of linear rank `rank` on a `dims` process grid, x-fastest
/// — the one rank order of [`CartComm`] and of the decomposition.
pub(crate) fn coords_of(rank: usize, dims: [usize; 3]) -> [usize; 3] {
    debug_assert!(rank < dims.iter().product());
    [
        rank % dims[0],
        (rank / dims[0]) % dims[1],
        rank / (dims[0] * dims[1]),
    ]
}

/// Linear rank of coordinates `c` on a `dims` process grid: the inverse
/// of [`coords_of`].
fn rank_of(c: [usize; 3], dims: [usize; 3]) -> usize {
    debug_assert!((0..3).all(|d| c[d] < dims[d]));
    c[0] + dims[0] * (c[1] + dims[1] * c[2])
}

/// Cartesian view over a [`Comm`].
pub struct CartComm<'a> {
    pub comm: &'a mut Comm,
    dims: [usize; 3],
    coords: [usize; 3],
}

impl<'a> CartComm<'a> {
    /// # Panics
    /// Panics unless `dims` multiply to the communicator size.
    pub fn new(comm: &'a mut Comm, dims: [usize; 3]) -> Self {
        let n: usize = dims.iter().product();
        assert_eq!(n, comm.size(), "dims {dims:?} != {} ranks", comm.size());
        let coords = coords_of(comm.rank(), dims);
        Self { comm, dims, coords }
    }

    pub(crate) fn dims(&self) -> [usize; 3] {
        self.dims
    }

    pub fn coords(&self) -> [usize; 3] {
        self.coords
    }

    /// Neighbor along dimension `d` in direction `dir` (−1 or +1);
    /// `None` at the physical boundary.
    pub(crate) fn neighbor(&self, d: usize, dir: i64) -> Option<usize> {
        debug_assert!(d < 3 && (dir == -1 || dir == 1));
        let c = self.coords[d] as i64 + dir;
        if c < 0 || c >= self.dims[d] as i64 {
            return None;
        }
        let mut n = self.coords;
        n[d] = c as usize;
        Some(rank_of(n, self.dims))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Universe;

    #[test]
    fn coords_roundtrip() {
        Universe::run(12, None, |comm| {
            let cart = CartComm::new(comm, [3, 2, 2]);
            let c = cart.coords();
            assert_eq!(rank_of(c, cart.dims()), cart.comm.rank());
            c
        });
    }

    #[test]
    fn neighbors_are_mutual() {
        let infos = Universe::run(8, None, |comm| {
            let cart = CartComm::new(comm, [2, 2, 2]);
            let mut nbrs = Vec::new();
            for d in 0..3 {
                for dir in [-1i64, 1] {
                    nbrs.push(cart.neighbor(d, dir));
                }
            }
            (cart.comm.rank(), nbrs)
        });
        // If a sees b along (d,+1), then b sees a along (d,-1).
        for (rank, nbrs) in &infos {
            for d in 0..3 {
                if let Some(b) = nbrs[2 * d + 1] {
                    let back = &infos[b].1[2 * d];
                    assert_eq!(*back, Some(*rank), "asymmetric neighbor at dim {d}");
                }
            }
        }
    }

    #[test]
    fn boundary_detection() {
        Universe::run(4, None, |comm| {
            let cart = CartComm::new(comm, [4, 1, 1]);
            let x = cart.coords()[0];
            assert_eq!(cart.neighbor(0, -1).is_none(), x == 0);
            assert_eq!(cart.neighbor(0, 1).is_none(), x == 3);
            // Singleton dims are always at both boundaries.
            assert!(cart.neighbor(1, -1).is_none() && cart.neighbor(1, 1).is_none());
            0
        });
    }

    #[test]
    #[should_panic(expected = "rank panicked")]
    fn wrong_dims_rejected() {
        Universe::run(5, None, |comm| {
            let _ = CartComm::new(comm, [2, 2, 2]);
            0
        });
    }
}
