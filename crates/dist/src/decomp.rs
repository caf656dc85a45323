//! Overlapping domain decomposition over a Cartesian rank grid.
//!
//! The global grid (including its outermost Dirichlet layer) is split
//! into disjoint **owned** boxes, one per rank, by near-even division
//! along each dimension. Each rank *stores* its owned box expanded by
//! the halo width `h` on every internal face — the overlap that lets a
//! rank run `h` sweeps between exchanges (paper §2.1).

use tb_grid::{Dims3, Region3};

/// One rank's view of the decomposition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LocalDomain {
    /// Rank coordinates on the process grid.
    pub coords: [usize; 3],
    /// The disjointly owned cells, in **global** coordinates.
    pub owned: Region3,
    /// The stored box — `owned` expanded by `h`, clamped to the global
    /// grid — in **global** coordinates.
    pub region: Region3,
    /// Extents of `region`; the dims of this rank's local grids.
    pub dims: Dims3,
    /// The cells this rank is responsible for updating (owned ∩ global
    /// interior), in **local** coordinates.
    pub interior: Region3,
}

impl LocalDomain {
    /// Translate a global-coordinate region into this rank's local frame
    /// (caller guarantees it lies inside `self.region`).
    pub fn to_local(&self, r: &Region3) -> Region3 {
        debug_assert!(
            self.region.contains_region(r),
            "{r} outside local box {}",
            self.region
        );
        let o = self.region.lo;
        Region3::new(
            [r.lo[0] - o[0], r.lo[1] - o[1], r.lo[2] - o[2]],
            [r.hi[0] - o[0], r.hi[1] - o[1], r.hi[2] - o[2]],
        )
    }

    /// The owned box in **local** coordinates.
    pub fn owned_local(&self) -> Region3 {
        self.to_local(&self.owned)
    }

    /// The interior core of the overlapped schedule: the owned box moved
    /// in by `depth = c × radius` on every face that has a **neighbour**
    /// (where the stored box extends past the owned box), in local
    /// coordinates. Physical faces stay put: their cells are Dirichlet
    /// values that never go stale, so nothing behind them waits for the
    /// exchange. May be empty (tiny boxes or deep cycles: nothing can be
    /// hidden).
    pub fn interior_core(&self, depth: usize) -> Region3 {
        let mut core = self.owned_local();
        for d in 0..3 {
            if self.owned.lo[d] > self.region.lo[d] {
                core.lo[d] += depth;
            }
            if self.owned.hi[d] < self.region.hi[d] {
                core.hi[d] = core.hi[d].saturating_sub(depth);
            }
        }
        core
    }

    /// The boundary shells of width `depth = c × Op::RADIUS`: the owned
    /// cells outside [`LocalDomain::interior_core`], split into disjoint
    /// slabs (at most one per neighbour face), in local coordinates.
    /// Every owned cell a halo message of that depth carries lies in one
    /// of them, so these are what the overlapped schedule stages for the
    /// comm side; a rank without neighbours has none.
    pub fn boundary_shells(&self, depth: usize) -> Vec<Region3> {
        annulus_slabs(&self.owned_local(), &self.interior_core(depth))
    }

    /// Interior trapezoid of sweep `j` (1-based) of an overlapped cycle:
    /// the updatable part of `interior_core(j × radius)`. Sweep `j` may
    /// update exactly this region using only pre-exchange data —
    /// staleness from the unexchanged ghosts propagates inward one
    /// `radius` per sweep from the neighbour faces only, so after sweep
    /// `j` every cell of this region holds the true step-`t+j` value. On
    /// physical faces the cores do not shrink, they clamp to the
    /// interior: `sweep_core(j + 1).expand(radius)` lies inside
    /// `sweep_core(j)` plus the never-written Dirichlet layer.
    pub fn sweep_core(&self, j: usize, radius: usize) -> Region3 {
        self.interior_core(j * radius)
            .intersect(&Region3::interior_of(self.dims))
    }

    /// Full update domain of sweep `j` (1-based) of a `c`-sweep cycle:
    /// the owned box expanded by `(c − j) × radius`, clamped to the
    /// updatable interior of the local grid. Together with
    /// [`LocalDomain::sweep_core`] this defines the shell annulus the
    /// post-exchange phase must recompute:
    /// `shell_j = sweep_domain(j) \ sweep_core(j)`.
    pub fn sweep_domain(&self, j: usize, c: usize, radius: usize) -> Region3 {
        debug_assert!(j >= 1 && j <= c);
        self.owned_local()
            .expand((c - j) * radius)
            .intersect(&Region3::interior_of(self.dims))
    }
}

/// Split the annulus `outer \ inner` into at most six disjoint slabs
/// (z-low, z-high, then y-low/high within inner's z-range, then x-low/
/// high within inner's y- and z-ranges). Returns `[outer]` when `inner`
/// is empty and nothing when `outer` is.
pub fn annulus_slabs(outer: &Region3, inner: &Region3) -> Vec<Region3> {
    if outer.is_empty() {
        return Vec::new();
    }
    let inner = inner.intersect(outer);
    if inner.is_empty() {
        return vec![*outer];
    }
    let mut out = Vec::with_capacity(6);
    let mut push = |lo: [usize; 3], hi: [usize; 3]| {
        let r = Region3::new(lo, hi);
        if !r.is_empty() {
            out.push(r);
        }
    };
    let (o, i) = (outer, &inner);
    // Full-extent z slabs.
    push(o.lo, [o.hi[0], o.hi[1], i.lo[2]]);
    push([o.lo[0], o.lo[1], i.hi[2]], o.hi);
    // y slabs within inner's z range.
    push([o.lo[0], o.lo[1], i.lo[2]], [o.hi[0], i.lo[1], i.hi[2]]);
    push([o.lo[0], i.hi[1], i.lo[2]], [o.hi[0], o.hi[1], i.hi[2]]);
    // x slabs within inner's y and z ranges.
    push([o.lo[0], i.lo[1], i.lo[2]], [i.lo[0], i.hi[1], i.hi[2]]);
    push([i.hi[0], i.lo[1], i.lo[2]], [o.hi[0], i.hi[1], i.hi[2]]);
    out
}

/// Partition of a global grid over a `px × py × pz` rank grid with halo
/// width `h`.
#[derive(Clone, Debug)]
pub struct Decomposition {
    dims: Dims3,
    pgrid: [usize; 3],
    h: usize,
    /// `splits[d]` holds the `pgrid[d] + 1` cut positions along `d`.
    splits: [Vec<usize>; 3],
}

/// Near-even 1D split of `n` cells into `p` parts: the first `n % p`
/// parts get one extra cell. Returns the `p + 1` cut positions.
fn cuts(n: usize, p: usize) -> Vec<usize> {
    let base = n / p;
    let rem = n % p;
    let mut out = Vec::with_capacity(p + 1);
    let mut pos = 0;
    out.push(0);
    for i in 0..p {
        pos += base + usize::from(i < rem);
        out.push(pos);
    }
    debug_assert_eq!(pos, n);
    out
}

impl Decomposition {
    /// Validating constructor. Rejects empty rank grids, rank grids
    /// larger than the domain, `h = 0`, and halos deeper than the
    /// smallest owned edge along any communicated dimension (an exchange
    /// only reaches the *adjacent* rank, so a rank must own at least `h`
    /// layers to serve its neighbor's ghost cells).
    pub fn try_new(dims: Dims3, pgrid: [usize; 3], h: usize) -> Result<Self, String> {
        if pgrid.contains(&0) {
            return Err(format!("process grid {pgrid:?} has a zero extent"));
        }
        if h == 0 {
            return Err("halo width h must be >= 1".into());
        }
        let ext = dims.as_array();
        for d in 0..3 {
            if ext[d] < pgrid[d] {
                return Err(format!(
                    "cannot split {} cells over {} ranks along dim {d}",
                    ext[d], pgrid[d]
                ));
            }
        }
        let splits = [
            cuts(ext[0], pgrid[0]),
            cuts(ext[1], pgrid[1]),
            cuts(ext[2], pgrid[2]),
        ];
        for d in 0..3 {
            if pgrid[d] < 2 {
                continue; // no exchange along this dimension
            }
            let min_owned = (0..pgrid[d])
                .map(|i| splits[d][i + 1] - splits[d][i])
                .min()
                .unwrap();
            if min_owned < h {
                return Err(format!(
                    "halo width {h} exceeds the smallest owned edge {min_owned} \
                     along dim {d} ({} cells over {} ranks); use fewer ranks, a \
                     larger grid, or a shallower halo",
                    ext[d], pgrid[d]
                ));
            }
        }
        Ok(Self {
            dims,
            pgrid,
            h,
            splits,
        })
    }

    /// Like [`Self::try_new`] but panics on invalid input (the form the
    /// tests and examples use for known-good geometry).
    ///
    /// # Panics
    /// Panics when `try_new` would return an error.
    pub fn new(dims: Dims3, pgrid: [usize; 3], h: usize) -> Self {
        match Self::try_new(dims, pgrid, h) {
            Ok(d) => d,
            Err(e) => panic!("invalid decomposition: {e}"),
        }
    }

    /// Global grid extents.
    pub fn dims(&self) -> Dims3 {
        self.dims
    }

    /// The process grid.
    pub fn pgrid(&self) -> [usize; 3] {
        self.pgrid
    }

    /// Halo width (= sweeps per exchange cycle).
    pub fn h(&self) -> usize {
        self.h
    }

    /// Total rank count, `px · py · pz`.
    pub fn ranks(&self) -> usize {
        self.pgrid.iter().product()
    }

    /// Rank coordinates of linear rank `r` (x-fastest, the rank order of
    /// [`crate::net::CartComm`]).
    pub fn coords_of(&self, r: usize) -> [usize; 3] {
        crate::net::coords_of(r, self.pgrid)
    }

    /// The owned (disjoint) box of the rank at `coords`, in global
    /// coordinates.
    pub fn owned(&self, coords: [usize; 3]) -> Region3 {
        debug_assert!((0..3).all(|d| coords[d] < self.pgrid[d]), "{coords:?}");
        let mut lo = [0; 3];
        let mut hi = [0; 3];
        for d in 0..3 {
            lo[d] = self.splits[d][coords[d]];
            hi[d] = self.splits[d][coords[d] + 1];
        }
        Region3::new(lo, hi)
    }

    /// The full local view of the rank at `coords`.
    pub fn local(&self, coords: [usize; 3]) -> LocalDomain {
        let owned = self.owned(coords);
        let whole = Region3::whole(self.dims);
        let region = owned.expand(self.h).intersect(&whole);
        let dims = Dims3::new(region.extent(0), region.extent(1), region.extent(2));
        let global_interior = owned.intersect(&Region3::interior_of(self.dims));
        let o = region.lo;
        let interior = Region3::new(
            [
                global_interior.lo[0] - o[0],
                global_interior.lo[1] - o[1],
                global_interior.lo[2] - o[2],
            ],
            [
                global_interior.hi[0] - o[0],
                global_interior.hi[1] - o[1],
                global_interior.hi[2] - o[2],
            ],
        );
        LocalDomain {
            coords,
            owned,
            region,
            dims,
            interior,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_count_arithmetic() {
        assert_eq!(Decomposition::new(Dims3::cube(24), [1, 1, 1], 1).ranks(), 1);
        assert_eq!(
            Decomposition::new(Dims3::cube(24), [3, 2, 2], 2).ranks(),
            12
        );
        assert_eq!(
            Decomposition::new(Dims3::cube(24), [2, 4, 3], 2).ranks(),
            24
        );
        let d = Decomposition::new(Dims3::cube(24), [3, 2, 4], 2);
        for r in 0..d.ranks() {
            let c = d.coords_of(r);
            assert_eq!(
                c[0] + d.pgrid()[0] * (c[1] + d.pgrid()[1] * c[2]),
                r,
                "coords_of must invert the x-fastest rank order"
            );
        }
    }

    #[test]
    fn owned_boxes_partition_the_grid_anisotropically() {
        // 26 over 3 -> 9,9,8; 18 over 2 -> 9,9; 14 over 4 -> 4,4,3,3.
        let dims = Dims3::new(26, 18, 14);
        let dec = Decomposition::new(dims, [3, 2, 4], 2);
        let mut covered = 0usize;
        for r in 0..dec.ranks() {
            let o = dec.owned(dec.coords_of(r));
            covered += o.count();
            for r2 in 0..r {
                let o2 = dec.owned(dec.coords_of(r2));
                assert!(!o.intersects(&o2), "owned boxes {o} and {o2} overlap");
            }
        }
        assert_eq!(covered, dims.len(), "owned boxes must tile the global grid");
        // Remainder goes to the low-coordinate ranks.
        assert_eq!(dec.owned([0, 0, 0]).extent(0), 9);
        assert_eq!(dec.owned([2, 0, 0]).extent(0), 8);
        assert_eq!(dec.owned([0, 0, 0]).extent(2), 4);
        assert_eq!(dec.owned([0, 0, 3]).extent(2), 3);
    }

    #[test]
    fn overlap_clamps_at_domain_faces() {
        let dims = Dims3::cube(20);
        let dec = Decomposition::new(dims, [2, 2, 1], 3);
        // Corner rank: expansion only reaches inward.
        let lo = dec.local([0, 0, 0]);
        assert_eq!(lo.owned, Region3::new([0, 0, 0], [10, 10, 20]));
        assert_eq!(lo.region, Region3::new([0, 0, 0], [13, 13, 20]));
        assert_eq!(lo.dims, Dims3::new(13, 13, 20));
        // Its updatable cells in local coordinates: global interior
        // starts at 1, owned ends at 10.
        assert_eq!(lo.interior, Region3::new([1, 1, 1], [10, 10, 19]));
        // High corner: ghost layers sit on the low sides, shifting the
        // local frame.
        let hi = dec.local([1, 1, 0]);
        assert_eq!(hi.owned, Region3::new([10, 10, 0], [20, 20, 20]));
        assert_eq!(hi.region, Region3::new([7, 7, 0], [20, 20, 20]));
        assert_eq!(hi.interior, Region3::new([3, 3, 1], [12, 12, 19]));
        // An interior rank of a 3-wide grid expands both ways.
        let dec3 = Decomposition::new(Dims3::new(30, 10, 10), [3, 1, 1], 2);
        let mid = dec3.local([1, 0, 0]);
        assert_eq!(mid.owned, Region3::new([10, 0, 0], [20, 10, 10]));
        assert_eq!(mid.region, Region3::new([8, 0, 0], [22, 10, 10]));
    }

    #[test]
    fn local_to_local_roundtrip() {
        let dec = Decomposition::new(Dims3::cube(24), [2, 2, 2], 2);
        let l = dec.local([1, 0, 1]);
        let r = Region3::new([12, 3, 14], [20, 8, 22]);
        let local = l.to_local(&r);
        assert_eq!(local.count(), r.count());
        assert!(Region3::whole(l.dims).contains_region(&local));
    }

    #[test]
    fn deep_halo_rejected_against_smallest_owned_edge() {
        // 24 over 2 -> owned edge 12: h = 12 fits, h = 13 cannot be
        // served by one adjacent neighbor.
        let dims = Dims3::cube(24);
        assert!(Decomposition::try_new(dims, [2, 1, 1], 12).is_ok());
        let err = Decomposition::try_new(dims, [2, 1, 1], 13).unwrap_err();
        assert!(err.contains("halo width 13"), "{err}");
        // The limit binds on the *smallest* owned edge: 26 over 3 ->
        // 9,9,8.
        assert!(Decomposition::try_new(Dims3::new(26, 8, 8), [3, 1, 1], 9).is_err());
        assert!(Decomposition::try_new(Dims3::new(26, 8, 8), [3, 1, 1], 8).is_ok());
        // Dimensions without communication are exempt.
        assert!(Decomposition::try_new(Dims3::new(4, 64, 64), [1, 2, 2], 16).is_ok());
    }

    #[test]
    fn degenerate_inputs_rejected() {
        let dims = Dims3::cube(8);
        assert!(Decomposition::try_new(dims, [0, 1, 1], 1).is_err());
        assert!(Decomposition::try_new(dims, [1, 1, 1], 0).is_err());
        assert!(
            Decomposition::try_new(dims, [9, 1, 1], 1).is_err(),
            "more ranks than cells"
        );
    }

    #[test]
    #[should_panic(expected = "invalid decomposition")]
    fn new_panics_on_invalid() {
        let _ = Decomposition::new(Dims3::cube(8), [1, 1, 1], 0);
    }

    #[test]
    fn core_and_shells_partition_the_owned_box() {
        let dec = Decomposition::new(Dims3::new(26, 18, 14), [2, 2, 1], 3);
        for r in 0..dec.ranks() {
            let l = dec.local(dec.coords_of(r));
            for depth in 1..=3 {
                let core = l.interior_core(depth);
                let shells = l.boundary_shells(depth);
                let owned = l.owned_local();
                let total: usize = core.count() + shells.iter().map(Region3::count).sum::<usize>();
                assert_eq!(total, owned.count(), "rank {r} depth {depth}");
                assert!(shells.len() <= 6);
                for (i, s) in shells.iter().enumerate() {
                    assert!(owned.contains_region(s));
                    assert!(!s.intersects(&core), "shell {i} overlaps the core");
                    for s2 in &shells[..i] {
                        assert!(!s.intersects(s2), "shells overlap");
                    }
                }
            }
        }
    }

    #[test]
    fn shells_have_the_exchange_depth_width() {
        // x-split: one neighbour, on the +x face of rank 0. The core
        // moves in there by the exchange depth and nowhere else.
        let dec = Decomposition::new(Dims3::cube(24), [2, 1, 1], 4);
        let l = dec.local([0, 0, 0]);
        let depth = 4;
        let owned = l.owned_local();
        let core = l.interior_core(depth);
        assert_eq!(core.lo, owned.lo);
        assert_eq!(core.hi, [owned.hi[0] - depth, owned.hi[1], owned.hi[2]]);
        // One shell, hugging that face over the full y/z extents (the
        // Dirichlet cells of the slab travel with the halo message).
        assert_eq!(
            l.boundary_shells(depth),
            vec![Region3::new([core.hi[0], 0, 0], owned.hi)]
        );
        // A middle rank of a 3-wide split has two; a lone rank none.
        let mid = Decomposition::new(Dims3::new(30, 10, 10), [3, 1, 1], 2).local([1, 0, 0]);
        let (o, shells) = (mid.owned_local(), mid.boundary_shells(2));
        assert_eq!(shells.len(), 2);
        assert_eq!(shells[0], Region3::new(o.lo, [o.lo[0] + 2, 10, 10]));
        assert_eq!(shells[1], Region3::new([o.hi[0] - 2, 0, 0], o.hi));
        let lone = Decomposition::new(Dims3::cube(12), [1, 1, 1], 3).local([0, 0, 0]);
        assert_eq!(lone.interior_core(3), lone.owned_local());
        assert!(lone.boundary_shells(3).is_empty());
        assert_eq!(lone.sweep_core(3, 1), lone.interior);
    }

    #[test]
    fn deep_split_leaves_an_empty_core() {
        // A middle rank owning 8 planes, depth 4 from both neighbours:
        // nothing is interior, the whole box is shell.
        let dec = Decomposition::new(Dims3::new(24, 10, 10), [3, 1, 1], 4);
        let l = dec.local([1, 0, 0]);
        assert!(l.interior_core(4).is_empty());
        assert_eq!(l.boundary_shells(4), vec![l.owned_local()]);
        assert!(l.sweep_core(4, 1).is_empty());
        // The corner rank of a [2,2,2] split with the same depth keeps
        // the half of every axis that faces the physical boundary.
        let corner = Decomposition::new(Dims3::cube(16), [2, 2, 2], 4).local([0, 0, 0]);
        assert_eq!(corner.interior_core(4), Region3::new([0, 0, 0], [4, 4, 4]));
        assert_eq!(corner.sweep_core(4, 1), Region3::new([1, 1, 1], [4, 4, 4]));
    }

    #[test]
    fn trapezoid_sweeps_nest_and_clamp() {
        let (c, radius) = (3, 1);
        for (dims, pgrid) in [
            (Dims3::cube(24), [2, 1, 1]),
            (Dims3::new(30, 14, 12), [3, 1, 2]),
        ] {
            let dec = Decomposition::new(dims, pgrid, c);
            for r in 0..dec.ranks() {
                let l = dec.local(dec.coords_of(r));
                let interior = Region3::interior_of(l.dims);
                for j in 1..=c {
                    let a = l.sweep_core(j, radius);
                    let u = l.sweep_domain(j, c, radius);
                    assert!(u.contains_region(&a), "core ⊆ domain at sweep {j}");
                    assert!(
                        interior.contains_region(&u),
                        "domains never touch Dirichlet or outermost ghost cells"
                    );
                    // The executors' dependency contract: a core reads
                    // the previous core and the Dirichlet layer of the
                    // physical faces (the owned cells outside the
                    // interior) — never a ghost, never a cell the
                    // previous trapezoid sweep left stale.
                    let reads = a.expand(radius);
                    assert!(l.owned_local().contains_region(&reads), "sweep {j}");
                    if j > 1 {
                        let prev = l.sweep_core(j - 1, radius);
                        assert!(
                            prev.contains_region(&reads.intersect(&interior)),
                            "rank {r} sweep {j}: {reads} vs {prev}"
                        );
                        assert!(l.sweep_domain(j - 1, c, radius).contains_region(&u));
                    }
                    // Neighbour faces shrink, physical faces clamp.
                    let o = l.owned_local();
                    for d in 0..3 {
                        let lo = if l.owned.lo[d] > l.region.lo[d] {
                            o.lo[d] + j * radius
                        } else {
                            1
                        };
                        let hi = if l.owned.hi[d] < l.region.hi[d] {
                            o.hi[d] - j * radius
                        } else {
                            o.hi[d] - 1
                        };
                        assert_eq!((a.lo[d], a.hi[d]), (lo, hi), "rank {r} sweep {j} dim {d}");
                    }
                }
                // The final sweep covers exactly the owned updatable cells.
                assert_eq!(l.sweep_domain(c, c, radius), l.interior);
            }
        }
    }

    #[test]
    fn annulus_slab_edge_cases() {
        let outer = Region3::new([2, 2, 2], [10, 10, 10]);
        // Empty inner: one slab, the outer box itself.
        assert_eq!(annulus_slabs(&outer, &Region3::empty()), vec![outer]);
        // Inner == outer: no slabs.
        assert!(annulus_slabs(&outer, &outer).is_empty());
        // Empty outer: nothing.
        assert!(annulus_slabs(&Region3::empty(), &outer).is_empty());
        // Inner flush against one face: five slabs.
        let inner = Region3::new([2, 4, 4], [8, 8, 8]);
        let slabs = annulus_slabs(&outer, &inner);
        assert_eq!(slabs.len(), 5);
        let total: usize = slabs.iter().map(Region3::count).sum();
        assert_eq!(total, outer.count() - inner.count());
    }
}
