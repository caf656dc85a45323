//! Pure diamond-tiling geometry over the z × sweep plane.
//!
//! # The tessellation
//!
//! Wavefront-diamond blocking (Malas, Hager et al. 2015) tiles the
//! space-time plane spanned by the slowest spatial axis `z` and the
//! sweep index `s` with *diamonds* whose edges follow the stencil's
//! dependence slopes `±R` (`R` = operator radius). In the transformed
//! coordinates
//!
//! ```text
//! a = z + R·s,    b = z − R·s
//! ```
//!
//! the dependence cone becomes axis-aligned, and the diamonds are plain
//! `w×w` squares: tile `(i, j)` is the set of `(z, s)` cells with
//!
//! ```text
//! i·w <= z + R·s < (i+1)·w    and    j·w <= z − R·s < (j+1)·w.
//! ```
//!
//! Because the map is injective on the cell lattice, the squares cover
//! every `(z, s)` cell **exactly once** — in particular every interior
//! cell is updated exactly once per sweep, with no wind-up/wind-down
//! waste and no overlap at equal time level. Each tile spans at most
//! `2·⌈w/(2R)⌉ − 1` sweeps, expanding by `R` cells of `z` per sweep up
//! to width `w`, then contracting.
//!
//! # Rows and the execution order
//!
//! The *row* of a tile is `r = i − j` (proportional to its center time
//! `r·w/(2R)`). Provided `w >= 2R`, a cell's reads at sweep `s − 1` land
//! either in its own tile or in tiles of **strictly earlier rows** (see
//! the tile-lookup `(⌊(z + R·s)/w⌋, ⌊(z − R·s)/w⌋)` and the unit tests,
//! which verify this exhaustively): executing rows in increasing order
//! with a barrier between rows satisfies every dependency, and all
//! tiles *within* one
//! row are mutually independent — they may run concurrently at
//! arbitrary relative paces without synchronization. The two-grid
//! disjointness argument (same-row tiles `X = (i,j)` and
//! `Y = (i+k, j+k)`, `k >= 1`):
//!
//! * `Y`'s slab at sweep `s_y` lies at `z >= max((i+k)·w − R·s_y,
//!   (j+k)·w + R·s_y)`, while `X`'s slab at `s_x` (expanded by `R` for
//!   its reads) ends at `z < min((i+1)·w − R·s_x, (j+1)·w + R·s_x) + R`;
//! * a read/write conflict needs opposite sweep parity, so
//!   `|s_x − s_y| >= 1`, which separates the two bounds by at least `R`
//!   in whichever transformed coordinate binds — the regions are
//!   disjoint for **any** radius;
//! * a write/write conflict needs equal parity, so `|s_x − s_y| >= 2`
//!   and the margin is `2R`.
//!
//! This is what removes the pipelined scheme's tuning burden: no block
//! size, no `d_l`/`d_u` distances, no per-thread update count — one
//! width parameter controls the cache working set, and the schedule is
//! a static row-major walk.
//!
//! # Per-sweep domains
//!
//! Like [`crate::pipeline::PipelinePlan`], the tiling takes one domain
//! per sweep. The shared-memory solver passes the grid interior for
//! every sweep; the distributed solver passes its shrinking interior
//! trapezoid (`domains[s].expand(R) ⊆ domains[s−1] ∪ never-written
//! cells` is the caller's contract, exactly as for the pipeline plan).
//! Tiles are clamped to the domains, which preserves both exact
//! coverage and disjointness.
//!
//! # Inside a tile: the time-skewed y-front
//!
//! Everything above orders *tiles*. Inside one tile the executor does not
//! sweep whole x·y planes (a live tile would then hold `2·(w + 2R)`
//! planes, far past a private cache on any grid worth blocking); it
//! walks the tile with a wavefront along `y` (Malas et al.'s second
//! blocked axis). With `y_lo`/`y_hi` the union of the tile's non-empty
//! regions, `B` the front height ([`front_rows`]) and `n` the tile's
//! sweep count, step `(f, k)` updates
//!
//! ```text
//! regions[k] ∩ { y_lo + f·B − k·R <= y < y_lo + (f+1)·B − k·R }
//! ```
//!
//! in the order `for f { for k { … } }` until sweep `n − 1`'s window has
//! passed `y_hi` ([`DiamondTile::front_steps`], the one place the
//! arithmetic lives). x stays whole (long unit-stride rows) and every
//! step covers its sweep's full z-extent, so the z-arguments above are
//! untouched; the cross-tile and cross-row arguments never mention `y`
//! and hold verbatim for sub-boxes of the regions. What is new is the
//! intra-tile order, and a skew of `R` rows per sweep covers it:
//!
//! * **flow** — step `(f, k)` reads sweep `k − 1` on rows
//!   `< y_lo + (f+1)·B − k·R + R = y_lo + (f+1)·B − (k−1)·R`, exactly
//!   the rows steps `(0..=f, k − 1)` have completed;
//! * **anti (two-grid)** — its writes land in buffer `(k+1) % 2` on rows
//!   `< y_lo + (f+1)·B − k·R`, over level-`k−1` values whose last
//!   readers are sweep `k − 1` on rows up to `R` further, i.e. again
//!   rows `< y_lo + (f+1)·B − (k−1)·R` — already done; and the next
//!   front's sweep `k − 1` starts reading at
//!   `y_lo + (f+1)·B − (k−1)·R − R`, the first row this step did *not*
//!   write;
//! * **output** — sweep `k − 2` reached every row of this window by the
//!   same front (its window is `2R` rows ahead), so level `k + 1` never
//!   lands under a late level-`k − 1` write.
//!
//! Per-sweep domains that shrink in `y` (the distributed trapezoid
//! cores) only clip a window; `B >= y_hi − y_lo + (n−1)·R` degenerates
//! to whole-region sweeps in sweep order. Under MWD every step is split
//! across the sub-team's `tpt` lanes by [`split_z`] with one intra-tile
//! barrier between consecutive steps, which turns "completed" above
//! into "completed by every lane"; the sub-team's front is `B·tpt` rows
//! high, so rows per lane and barrier stay what one thread has.
//! `front_steps_respect_every_dependence` replays the sequence cell by
//! cell instead of trusting this argument.
//!
//! With the front the live set of a tile is one `(B + 2R)`-row window
//! per time level — `≈ nx·(B + 2R)·(w²/2R + 2R·n)` cells, independent
//! of `ny` (see `tb-model`'s diamond estimate).

use tb_grid::Region3;

/// Cells of one x·y window of the in-tile front: what the front keeps
/// live per plane is this many cells however long the rows are. The
/// executor's own constant, not a tuning knob — it makes the front 4
/// rows high on 288-cell rows, where heights 4 and 8 measured alike and
/// 2 and 16 a few percent behind.
const FRONT_CELLS: usize = 1024;

/// Front height `B` of the in-tile y-wavefront (module docs), in rows
/// per lane, for rows of `row_len` cells: `FRONT_CELLS` (1024) worth of
/// them. Short rows get a front taller than any tile they occur in —
/// a grid whose planes are that small has nothing to block for, and
/// pays per step (16³ Jacobi6 ran 1.8× longer under a 4-row front) —
/// and long rows a lower one, so only the windows' `2R` halo rows grow
/// with `nx`. Public so `tb-model` sizes the working set on the height
/// that actually runs.
pub fn front_rows(row_len: usize) -> usize {
    FRONT_CELLS.div_ceil(row_len.max(1))
}

/// Floor division for the transformed-coordinate tile lookup.
#[inline]
fn floor_div(n: i64, d: i64) -> i64 {
    n.div_euclid(d)
}

/// One diamond tile: its `(i, j)` square in transformed coordinates and
/// the (clamped) update region per sweep it covers.
#[derive(Clone, Debug)]
pub struct DiamondTile {
    /// Square index along `a = z + R·s`.
    pub i: i64,
    /// Square index along `b = z − R·s`.
    pub j: i64,
    /// First sweep this tile covers (clamped to the schedule).
    pub s_lo: usize,
    /// `regions[k]` is the region sweep `s_lo + k` updates — full x/y
    /// extent of that sweep's domain, z clamped to the tile's slab. May
    /// be empty for individual sweeps (the executor skips those). The
    /// executor visits it in row windows, see [`Self::front_steps`].
    pub regions: Vec<Region3>,
}

impl DiamondTile {
    /// The tile's row `r = i − j`; rows execute in increasing order.
    pub fn row(&self) -> i64 {
        self.i - self.j
    }

    /// The region sweep `s` updates, if this tile covers sweep `s`.
    #[cfg(test)]
    fn region_at(&self, s: usize) -> Option<Region3> {
        s.checked_sub(self.s_lo)
            .and_then(|k| self.regions.get(k))
            .copied()
    }

    /// Cells this tile updates in total.
    pub fn cells(&self) -> usize {
        self.regions.iter().map(Region3::count).sum()
    }

    /// The tiles this one reads from (its dependency edges). A read at
    /// sweep `s − 1` moves `a = z + R·s` down by at most `2R` and
    /// `b = z − R·s` up by at most `2R`, so the immediate cross-tile
    /// producers are `(i−1, j)` and `(i, j+1)` — both in row `r − 1`.
    /// Reads also come from the tile itself (earlier sweeps), which
    /// needs no edge — intra-tile order is the front order.
    pub fn dependencies(&self) -> [(i64, i64); 2] {
        [(self.i - 1, self.j), (self.i, self.j + 1)]
    }

    /// Length of the tile's x-rows (its longest, should the per-sweep
    /// domains differ in x) — what [`front_rows`] sizes the front on.
    pub fn row_len(&self) -> usize {
        let extents = self.regions.iter().map(|r| r.extent(0));
        extents.max().unwrap_or(0)
    }

    /// The tile's traversal: its non-empty steps `(k, window)` in
    /// execution order — fronts of `height` rows outermost, sweeps `k`
    /// inside, sweep `k`'s window trailing sweep `k − 1`'s by `radius`
    /// rows (module docs, "Inside a tile"). The windows of one `k`
    /// partition `regions[k]`.
    pub fn front_steps(
        &self,
        radius: usize,
        height: usize,
    ) -> impl Iterator<Item = (usize, Region3)> + '_ {
        assert!(height >= 1, "front height must be positive");
        let live = || self.regions.iter().filter(|r| !r.is_empty());
        let y_lo = live().map(|r| r.lo[1]).min().unwrap_or(0);
        let y_hi = live().map(|r| r.hi[1]).max().unwrap_or(0);
        // Sweep n−1 trails by (n−1)·R rows; stop once it has passed y_hi.
        let skew = self.regions.len().saturating_sub(1) * radius;
        let fronts = (y_hi - y_lo + skew).div_ceil(height);
        (0..fronts)
            .flat_map(move |f| {
                let regions = self.regions.iter().enumerate();
                regions.map(move |(k, r)| (k, y_window(r, y_lo + f * height, height, k * radius)))
            })
            .filter(|(_, window)| !window.is_empty())
    }
}

/// `region` clipped to rows `[base − skew, base + height − skew)`; rows
/// below zero do not exist, so the bounds saturate.
fn y_window(region: &Region3, base: usize, height: usize, skew: usize) -> Region3 {
    let mut window = *region;
    window.lo[1] = window.lo[1].max(base.saturating_sub(skew));
    window.hi[1] = window.hi[1].min((base + height).saturating_sub(skew));
    window
}

/// One row of mutually independent tiles (equal `r = i − j`).
#[derive(Clone, Debug)]
pub struct DiamondRow {
    /// Row index `r`.
    pub r: i64,
    /// Tiles, ordered by increasing `z` center (`i + j`).
    pub tiles: Vec<DiamondTile>,
}

/// The complete static schedule of one diamond-blocked multi-sweep
/// advance: rows of independent tiles, executed row by row.
#[derive(Clone, Debug)]
pub struct DiamondTiling {
    radius: usize,
    rows: Vec<DiamondRow>,
    /// Read only by the unit tests' oracles.
    #[cfg(test)]
    width: usize,
    #[cfg(test)]
    domains: Vec<Region3>,
}

impl DiamondTiling {
    /// Tiling over per-sweep domains (`domains[s]` is what sweep `s`
    /// must update; `domains.len()` is the sweep count). The caller
    /// guarantees the trapezoid contract documented at module level.
    ///
    /// # Panics
    /// Panics unless `radius >= 1` and `width >= 2·radius` (narrower
    /// diamonds would let a read skip a row).
    pub fn new(domains: Vec<Region3>, width: usize, radius: usize) -> Self {
        assert!(radius >= 1, "diamond tiling needs a positive radius");
        assert!(
            width >= 2 * radius,
            "diamond width {width} must be at least 2·radius = {}",
            2 * radius
        );
        let rows = build_rows(&domains, width as i64, radius as i64);
        Self {
            radius,
            rows,
            #[cfg(test)]
            width,
            #[cfg(test)]
            domains,
        }
    }

    /// Tiling with the same `domain` for every sweep (shared memory).
    #[cfg(test)]
    pub fn uniform(domain: Region3, width: usize, radius: usize, sweeps: usize) -> Self {
        Self::new(vec![domain; sweeps], width, radius)
    }

    /// Tile width `w` in transformed coordinates.
    #[cfg(test)]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Stencil radius `R` the slopes were built for.
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Number of sweeps the schedule advances.
    #[cfg(test)]
    pub fn sweeps(&self) -> usize {
        self.domains.len()
    }

    /// Domain of sweep `s`.
    #[cfg(test)]
    pub fn domain(&self, s: usize) -> Region3 {
        self.domains[s]
    }

    /// The rows, in execution order.
    pub fn rows(&self) -> &[DiamondRow] {
        &self.rows
    }

    /// The `(i, j)` square owning space-time cell `(z, s)` — the pure
    /// tile-lookup function underlying the whole tessellation, kept as
    /// the oracle the unit tests check the enumerated tiles against.
    #[cfg(test)]
    fn tile_of(&self, z: usize, s: usize) -> (i64, i64) {
        let (w, r) = (self.width as i64, self.radius as i64);
        let (z, s) = (z as i64, s as i64);
        (floor_div(z + r * s, w), floor_div(z - r * s, w))
    }

    /// The z-interval (before domain clamping) tile `(i, j)` updates at
    /// sweep `s`; empty when the tile does not cover sweep `s` — the
    /// closed form the unit tests check the enumerated tiles against.
    #[cfg(test)]
    fn slab(&self, i: i64, j: i64, s: usize) -> Option<(i64, i64)> {
        let (w, r) = (self.width as i64, self.radius as i64);
        let s = s as i64;
        let lo = (i * w - r * s).max(j * w + r * s);
        let hi = ((i + 1) * w - r * s).min((j + 1) * w + r * s);
        (lo < hi).then_some((lo, hi))
    }

    /// Cells updated across the whole schedule (equals
    /// `Σ_s domains[s].count()` — coverage is exact).
    #[cfg(test)]
    pub fn cells(&self) -> usize {
        self.rows
            .iter()
            .flat_map(|row| row.tiles.iter())
            .map(DiamondTile::cells)
            .sum()
    }
}

/// Balanced contiguous z-partition of one tile region for the MWD
/// (multi-threaded wavefront diamond) executor: lane `part` of a
/// `parts`-lane sub-team gets the `part`-th of `parts` near-equal
/// z-chunks of `region` (the first `extent % parts` chunks are one
/// plane larger). Chunks of one region are pairwise disjoint and cover
/// it exactly; lanes whose chunk is empty get [`Region3::empty`].
///
/// # Intra-tile ordering
///
/// The partition is *per sweep*: each lane updates its chunk of the
/// tile's sweep-`k` region. A chunk's reads reach `radius` planes past
/// its z-bounds, i.e. possibly into a *neighboring lane's* chunk of
/// sweep `k − 1` — which is why the MWD executor runs one intra-tile
/// barrier between consecutive sweeps of a tile (and needs none within
/// a sweep: same-sweep chunks write disjoint planes of the destination
/// grid and only read the source grid, which no lane writes at that
/// sweep). Reads leaving the tile entirely land in strictly earlier
/// diamond rows, sealed by the row barrier exactly as in the
/// single-threaded-tile schedule; `mwd_chunk_reads_stay_ordered` below
/// verifies both claims exhaustively.
///
/// # Panics
/// Panics unless `parts >= 1` and `part < parts`.
pub fn split_z(region: &Region3, parts: usize, part: usize) -> Region3 {
    assert!(parts >= 1, "split_z needs at least one part");
    assert!(part < parts, "part {part} out of range for {parts} parts");
    if region.is_empty() {
        return Region3::empty();
    }
    let n = region.hi[2] - region.lo[2];
    let (base, rem) = (n / parts, n % parts);
    let lo = region.lo[2] + part * base + part.min(rem);
    let len = base + usize::from(part < rem);
    if len == 0 {
        return Region3::empty();
    }
    Region3 {
        lo: [region.lo[0], region.lo[1], lo],
        hi: [region.hi[0], region.hi[1], lo + len],
    }
}

/// Enumerate the rows intersecting sweeps `0..domains.len()` and their
/// non-empty tiles, clamped to the per-sweep domains.
fn build_rows(domains: &[Region3], w: i64, radius: i64) -> Vec<DiamondRow> {
    let sweeps = domains.len() as i64;
    let mut rows = Vec::new();
    if sweeps == 0 {
        return rows;
    }
    // Row r covers sweeps s with (r−1)·w < 2·R·s < (r+1)·w. Sweep 0
    // belongs to row 0 only; rows end once their first sweep >= sweeps.
    for r in 0.. {
        let s_lo = floor_div((r - 1) * w, 2 * radius) + 1;
        if s_lo >= sweeps {
            break;
        }
        // Exclusive: smallest s with 2·R·s >= (r+1)·w.
        let s_hi = floor_div((r + 1) * w - 1, 2 * radius) + 1;
        let s_lo = s_lo.max(0);
        let s_hi = s_hi.min(sweeps);
        if s_hi <= s_lo {
            continue;
        }
        // z bounds over the row's sweeps bound the tile centers to try:
        // every tile's slab satisfies c·w/2 <= z < c·w/2 + w, c = i + j.
        let (mut z_min, mut z_max) = (i64::MAX, i64::MIN);
        for s in s_lo..s_hi {
            let d = &domains[s as usize];
            if d.is_empty() {
                continue;
            }
            z_min = z_min.min(d.lo[2] as i64);
            z_max = z_max.max(d.hi[2] as i64);
        }
        let mut tiles = Vec::new();
        if z_min < z_max {
            let c_lo = floor_div(2 * (z_min - w) + 1, w);
            let c_hi = floor_div(2 * z_max, w);
            let mut c = c_lo + ((r + c_lo) % 2 + 2) % 2; // first c ≡ r (mod 2)
            while c <= c_hi {
                let (i, j) = ((c + r) / 2, (c - r) / 2);
                if let Some(tile) = build_tile(domains, w, radius, i, j, s_lo, s_hi) {
                    tiles.push(tile);
                }
                c += 2;
            }
        }
        rows.push(DiamondRow { r, tiles });
    }
    rows
}

/// Build tile `(i, j)`'s clamped per-sweep regions; `None` if every
/// sweep's region is empty.
fn build_tile(
    domains: &[Region3],
    w: i64,
    radius: i64,
    i: i64,
    j: i64,
    s_lo: i64,
    s_hi: i64,
) -> Option<DiamondTile> {
    let mut regions = Vec::with_capacity((s_hi - s_lo) as usize);
    let mut any = false;
    for s in s_lo..s_hi {
        let dom = &domains[s as usize];
        let lo = (i * w - radius * s).max(j * w + radius * s);
        let hi = ((i + 1) * w - radius * s).min((j + 1) * w + radius * s);
        let z_lo = lo.max(dom.lo[2] as i64);
        let z_hi = hi.min(dom.hi[2] as i64);
        if dom.is_empty() || z_hi <= z_lo {
            regions.push(Region3::empty());
            continue;
        }
        any = true;
        regions.push(Region3 {
            lo: [dom.lo[0], dom.lo[1], z_lo as usize],
            hi: [dom.hi[0], dom.hi[1], z_hi as usize],
        });
    }
    any.then_some(DiamondTile {
        i,
        j,
        s_lo: s_lo as usize,
        regions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_grid::Dims3;

    fn interior(n: usize) -> Region3 {
        Region3::interior_of(Dims3::cube(n))
    }

    /// Every domain cell of every sweep is covered by exactly one tile
    /// region — no gaps, no overlap at equal time level.
    fn check_exact_coverage(t: &DiamondTiling) {
        for s in 0..t.sweeps() {
            let dom = t.domain(s);
            let mut regions = Vec::new();
            for row in t.rows() {
                for tile in &row.tiles {
                    if let Some(r) = tile.region_at(s) {
                        if !r.is_empty() {
                            assert!(
                                dom.contains_region(&r),
                                "sweep {s}: tile ({},{}) leaks {r} outside {dom}",
                                tile.i,
                                tile.j
                            );
                            regions.push((tile.i, tile.j, r));
                        }
                    }
                }
            }
            let total: usize = regions.iter().map(|(_, _, r)| r.count()).sum();
            assert_eq!(total, dom.count(), "sweep {s}: wrong cell total");
            for (a, (ia, ja, ra)) in regions.iter().enumerate() {
                for (ib, jb, rb) in regions.iter().take(a) {
                    assert!(
                        !ra.intersects(rb),
                        "sweep {s}: tiles ({ia},{ja}) and ({ib},{jb}) overlap"
                    );
                }
            }
        }
    }

    /// `tile_of` agrees with the enumerated tile regions.
    fn check_tile_lookup(t: &DiamondTiling) {
        for row in t.rows() {
            for tile in &row.tiles {
                for (k, r) in tile.regions.iter().enumerate() {
                    if r.is_empty() {
                        continue;
                    }
                    let s = tile.s_lo + k;
                    for z in r.lo[2]..r.hi[2] {
                        assert_eq!(
                            t.tile_of(z, s),
                            (tile.i, tile.j),
                            "cell (z={z}, s={s}) owned by the wrong tile"
                        );
                    }
                }
            }
        }
    }

    /// Radius-correct, acyclic dependencies: every read of sweep `s − 1`
    /// data lands in the reader's own tile or in a strictly earlier row,
    /// and cross-tile producers are exactly the two declared dependency
    /// edges (or tiles even lower). Row order is therefore a topological
    /// order — the edge relation cannot contain a cycle.
    fn check_dependencies(t: &DiamondTiling) {
        let radius = t.radius() as i64;
        for row in t.rows() {
            for tile in &row.tiles {
                let deps = tile.dependencies();
                for (k, r) in tile.regions.iter().enumerate() {
                    let s = tile.s_lo + k;
                    if r.is_empty() || s == 0 {
                        continue;
                    }
                    for z in r.lo[2]..r.hi[2] {
                        for dz in -radius..=radius {
                            let zr = z as i64 + dz;
                            if zr < 0 {
                                continue;
                            }
                            let owner = t.tile_of(zr as usize, s - 1);
                            if owner == (tile.i, tile.j) {
                                continue; // intra-tile: sweep order
                            }
                            let owner_row = owner.0 - owner.1;
                            assert!(
                                owner_row < tile.row(),
                                "tile ({},{}) sweep {s} reads z={zr} of sweep {} \
                                 owned by same-or-later row {owner_row}",
                                tile.i,
                                tile.j,
                                s - 1
                            );
                            // Immediate cross-tile producers are the two
                            // declared edges (deeper rows were finished
                            // even earlier, so edges to them are implied).
                            if owner_row == tile.row() - 1 {
                                assert!(
                                    deps.contains(&owner),
                                    "tile ({},{}) reads ({},{}) which is not a declared edge",
                                    tile.i,
                                    tile.j,
                                    owner.0,
                                    owner.1
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Same-row tiles must be race-free under the two-grid scheme at
    /// arbitrary relative progress: opposite-parity sweeps may not
    /// read/write-overlap, equal-parity sweeps may not write/write-
    /// overlap.
    fn check_same_row_independence(t: &DiamondTiling) {
        for row in t.rows() {
            for (a, x) in row.tiles.iter().enumerate() {
                for y in row.tiles.iter().skip(a + 1) {
                    for (kx, rx) in x.regions.iter().enumerate() {
                        if rx.is_empty() {
                            continue;
                        }
                        let sx = x.s_lo + kx;
                        let read_x = rx.expand(t.radius());
                        for (ky, ry) in y.regions.iter().enumerate() {
                            if ry.is_empty() {
                                continue;
                            }
                            let sy = y.s_lo + ky;
                            if sx.abs_diff(sy) % 2 == 1 {
                                assert!(
                                    !read_x.intersects(ry) && !ry.expand(t.radius()).intersects(rx),
                                    "row {}: read/write race between ({},{})@{sx} and \
                                     ({},{})@{sy}",
                                    row.r,
                                    x.i,
                                    x.j,
                                    y.i,
                                    y.j
                                );
                            } else if sx != sy {
                                assert!(
                                    !rx.intersects(ry),
                                    "row {}: write/write race between ({},{})@{sx} and \
                                     ({},{})@{sy}",
                                    row.r,
                                    x.i,
                                    x.j,
                                    y.i,
                                    y.j
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    fn check_all(t: &DiamondTiling) {
        check_exact_coverage(t);
        check_tile_lookup(t);
        check_dependencies(t);
        check_same_row_independence(t);
    }

    #[test]
    fn exhaustive_small_geometries_radius_one() {
        for n in [3usize, 4, 5, 8, 11, 14] {
            for width in [2usize, 3, 4, 6, 8] {
                for sweeps in [1usize, 2, 3, 5, 8] {
                    let t = DiamondTiling::uniform(interior(n), width, 1, sweeps);
                    check_all(&t);
                }
            }
        }
    }

    #[test]
    fn exhaustive_small_geometries_radius_two() {
        // No shipped operator has radius 2 yet, but the geometry is
        // generic and must stay correct when one arrives.
        for n in [4usize, 7, 12] {
            for width in [4usize, 5, 8] {
                for sweeps in [1usize, 3, 6] {
                    let t = DiamondTiling::uniform(interior(n), width, 2, sweeps);
                    check_all(&t);
                }
            }
        }
    }

    #[test]
    fn shrinking_trapezoid_domains() {
        // Distributed-style: sweep s covers the owned box shrunk by s
        // cells — the overlapped interior trapezoid. Cores may empty out.
        for c in 1..=5usize {
            let domains: Vec<Region3> = (1..=c)
                .map(|jj| Region3::new([jj, jj, jj], [12 - jj, 12 - jj, 12 - jj]))
                .collect();
            let t = DiamondTiling::new(domains, 4, 1);
            check_all(&t);
        }
    }

    #[test]
    fn empty_and_mixed_domains_are_tolerated() {
        let t = DiamondTiling::new(vec![Region3::empty(); 3], 4, 1);
        assert_eq!(t.cells(), 0);
        let mixed = vec![
            Region3::new([1, 1, 1], [9, 9, 9]),
            Region3::empty(),
            Region3::new([3, 3, 3], [7, 7, 7]),
        ];
        // (Not a trapezoid chain, but coverage/disjointness per sweep
        // must still hold — the geometry treats domains independently.)
        let t = DiamondTiling::new(mixed, 4, 1);
        check_exact_coverage(&t);
        check_tile_lookup(&t);
    }

    #[test]
    fn zero_sweeps_yields_no_rows() {
        let t = DiamondTiling::uniform(interior(10), 4, 1, 0);
        assert!(t.rows().is_empty());
        assert_eq!(t.cells(), 0);
        assert_eq!(t.sweeps(), 0);
    }

    #[test]
    fn row_zero_covers_sweep_zero_only_tiles() {
        let t = DiamondTiling::uniform(interior(12), 4, 1, 6);
        let first = &t.rows()[0];
        assert_eq!(first.r, 0);
        // Row 0 spans sweeps 0..2 for w=4, R=1 (2·R·s < w).
        for tile in &first.tiles {
            assert_eq!(tile.s_lo, 0);
            assert!(tile.s_lo + tile.regions.len() <= 2);
        }
    }

    #[test]
    fn total_cells_equal_sweeps_times_interior() {
        for (n, w, s) in [(10, 4, 5), (13, 6, 7), (9, 2, 4)] {
            let t = DiamondTiling::uniform(interior(n), w, 1, s);
            assert_eq!(t.cells(), interior(n).count() * s);
        }
    }

    #[test]
    fn slabs_match_enumerated_regions() {
        let t = DiamondTiling::uniform(interior(14), 4, 1, 6);
        for row in t.rows() {
            for tile in &row.tiles {
                for (k, r) in tile.regions.iter().enumerate() {
                    if r.is_empty() {
                        continue;
                    }
                    let s = tile.s_lo + k;
                    let (lo, hi) = t
                        .slab(tile.i, tile.j, s)
                        .expect("non-empty region has a slab");
                    let dom = t.domain(s);
                    assert_eq!(r.lo[2] as i64, lo.max(dom.lo[2] as i64));
                    assert_eq!(r.hi[2] as i64, hi.min(dom.hi[2] as i64));
                }
            }
        }
    }

    #[test]
    fn dependency_edges_point_to_earlier_rows() {
        let t = DiamondTiling::uniform(interior(12), 4, 1, 8);
        for row in t.rows() {
            for tile in &row.tiles {
                for (di, dj) in tile.dependencies() {
                    assert_eq!(di - dj, tile.row() - 1, "edges drop exactly one row");
                }
            }
        }
    }

    #[test]
    fn split_z_partitions_exactly() {
        let base = Region3::new([1, 1, 3], [9, 7, 17]); // 14 z-planes
        for parts in 1..=6usize {
            let chunks: Vec<Region3> = (0..parts).map(|p| split_z(&base, parts, p)).collect();
            // Disjoint, ordered, covering exactly.
            let total: usize = chunks.iter().map(Region3::count).sum();
            assert_eq!(total, base.count(), "parts={parts}");
            let mut z = base.lo[2];
            for (p, c) in chunks.iter().enumerate() {
                if c.is_empty() {
                    continue;
                }
                assert_eq!(c.lo[2], z, "parts={parts} part={p} leaves a gap");
                assert_eq!(c.lo[0..2], base.lo[0..2]);
                assert_eq!(c.hi[0..2], base.hi[0..2]);
                z = c.hi[2];
            }
            assert_eq!(z, base.hi[2], "parts={parts} does not reach the end");
            // Balanced: extents differ by at most one plane.
            let extents: Vec<usize> = chunks.iter().map(|c| c.extent(2)).collect();
            let (lo, hi) = (extents.iter().min().unwrap(), extents.iter().max().unwrap());
            assert!(hi - lo <= 1, "parts={parts}: unbalanced {extents:?}");
        }
    }

    #[test]
    fn split_z_degenerate_inputs() {
        // More parts than planes: trailing lanes get empty chunks.
        let thin = Region3::new([0, 0, 5], [4, 4, 7]); // 2 planes
        let chunks: Vec<Region3> = (0..4).map(|p| split_z(&thin, 4, p)).collect();
        assert!(!chunks[0].is_empty() && !chunks[1].is_empty());
        assert!(chunks[2].is_empty() && chunks[3].is_empty());
        assert_eq!(chunks[0].count() + chunks[1].count(), thin.count());
        // Empty region in, empty chunks out.
        assert!(split_z(&Region3::empty(), 3, 1).is_empty());
        // One part is the identity.
        assert_eq!(split_z(&thin, 1, 0), thin);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn split_z_rejects_bad_part() {
        let _ = split_z(&Region3::new([0, 0, 0], [2, 2, 2]), 2, 2);
    }

    /// The MWD executor's ordering argument, checked exhaustively: for
    /// every tile, lane count and sweep, every read of lane `l`'s chunk
    /// at sweep `s` lands in (a) the tile's own sweep `s − 1` region —
    /// own chunk (program order) or another lane's chunk (sealed by the
    /// intra-tile barrier between consecutive sweeps) — or (b) a tile
    /// of a strictly earlier diamond row (sealed by the row barrier).
    /// Same-sweep chunks of one tile never overlap (two-grid writes are
    /// disjoint). The test also proves the intra-tile barrier is
    /// load-bearing: cross-lane sweep-(s−1) reads must actually occur.
    #[test]
    fn mwd_chunk_reads_stay_ordered() {
        let mut cross_lane_reads = 0usize;
        for (n, w, radius, sweeps) in [(14, 4, 1, 6), (12, 6, 1, 5), (12, 6, 2, 5)] {
            let dom = interior(n);
            let t = DiamondTiling::uniform(dom, w, radius, sweeps);
            for tpt in [2usize, 3, 4] {
                for row in t.rows() {
                    for tile in &row.tiles {
                        for (k, region) in tile.regions.iter().enumerate() {
                            let s = tile.s_lo + k;
                            let chunks: Vec<Region3> =
                                (0..tpt).map(|l| split_z(region, tpt, l)).collect();
                            for (a, ca) in chunks.iter().enumerate() {
                                for cb in chunks.iter().skip(a + 1) {
                                    assert!(
                                        !ca.intersects(cb),
                                        "same-sweep chunks overlap in tile ({},{})",
                                        tile.i,
                                        tile.j
                                    );
                                }
                            }
                            if s == 0 {
                                continue;
                            }
                            let prev = tile.region_at(s - 1).unwrap_or_else(Region3::empty);
                            for (l, chunk) in chunks.iter().enumerate() {
                                if chunk.is_empty() {
                                    continue;
                                }
                                let own_prev = split_z(&prev, tpt, l);
                                let r = radius as i64;
                                for dz in -r..=r {
                                    for z in chunk.lo[2]..chunk.hi[2] {
                                        let zr = z as i64 + dz;
                                        if zr < 0 {
                                            continue;
                                        }
                                        let zr = zr as usize;
                                        if zr < dom.lo[2] || zr >= dom.hi[2] {
                                            // Boundary plane: never written by
                                            // any sweep, no ordering needed.
                                            continue;
                                        }
                                        let owner = t.tile_of(zr, s - 1);
                                        if owner == (tile.i, tile.j) {
                                            // Intra-tile read: must lie in the
                                            // previous sweep's region...
                                            assert!(
                                                prev.lo[2] <= zr && zr < prev.hi[2],
                                                "tile ({},{}) sweep {s}: intra-tile read \
                                                 z={zr} outside the sweep-{} region",
                                                tile.i,
                                                tile.j,
                                                s - 1
                                            );
                                            // ...and cross-lane ones are what
                                            // the intra-tile barrier seals.
                                            if !(own_prev.lo[2] <= zr && zr < own_prev.hi[2])
                                                || own_prev.is_empty()
                                            {
                                                cross_lane_reads += 1;
                                            }
                                        } else {
                                            assert!(
                                                owner.0 - owner.1 < tile.row(),
                                                "tile ({},{}) lane {l} sweep {s} reads \
                                                 z={zr} owned by same-or-later row",
                                                tile.i,
                                                tile.j
                                            );
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(
            cross_lane_reads > 0,
            "no cross-lane intra-tile reads found — the intra-tile barrier \
             would be dead code and this test vacuous"
        );
    }

    #[test]
    fn front_height_holds_a_cell_budget() {
        assert_eq!(front_rows(286), 4); // the 288³ sizing case
        assert_eq!(front_rows(128), 8);
        assert_eq!(front_rows(1000), 2);
        assert_eq!(front_rows(1 << 20), 1); // never below one row
        assert!(
            front_rows(46) > 20,
            "short rows: one front spans a 48³ tile"
        );
        assert!(front_rows(0) >= 1);
    }

    /// The in-tile front's ordering argument, checked instead of argued:
    /// replay the executor's exact step sequence (rows in order, tiles in
    /// order, [`DiamondTile::front_steps`], lanes by [`split_z`]) on a
    /// model of the two buffers that records the time level each `(y, z)`
    /// cell holds. (i) Every read of sweep `s` must find level `s` — so
    /// its producer ran earlier, and (ii) no step in between overwrote
    /// the value with level `s + 2`; (iii) no cell is written twice at
    /// one level and the chunks of a tile add up to `tile.cells()`, so
    /// the steps partition the regions exactly. Lanes of one step only
    /// read the source buffer and write disjoint chunks of the other, so
    /// checking all of a step's reads before applying its writes is the
    /// faithful model of "one barrier between consecutive steps".
    #[test]
    fn front_steps_respect_every_dependence() {
        const SWEEPS: usize = 6;
        let mut clipped_steps = 0usize;
        for radius in [1usize, 2] {
            for (ny, nz) in [(11usize, 14usize), (5, 12)] {
                // A boundary layer as deep as the reads reach.
                let base = Region3::new([1, radius, radius], [3, ny - radius, nz - radius]);
                let shrinking: Vec<Region3> = (0..SWEEPS)
                    .map(|s| {
                        let d = s * radius;
                        let mut dom = base;
                        for axis in [1, 2] {
                            dom.lo[axis] += d;
                            dom.hi[axis] = dom.hi[axis].saturating_sub(d);
                        }
                        dom
                    })
                    .collect();
                for domains in [vec![base; SWEEPS], shrinking] {
                    for width in [2 * radius, 5, 8] {
                        let t = DiamondTiling::new(domains.clone(), width, radius);
                        for height in [1usize, 2, 3, 5, 64] {
                            for tpt in [1usize, 2, 3] {
                                clipped_steps += replay_front(&t, ny, nz, height, tpt);
                            }
                        }
                    }
                }
            }
        }
        assert!(
            clipped_steps > 0,
            "no step was a proper sub-window of its region — the front \
             never engaged and this test is vacuous"
        );
    }

    /// One replay of `front_steps_respect_every_dependence`; returns how
    /// many steps were proper sub-windows of their sweep's region.
    fn replay_front(t: &DiamondTiling, ny: usize, nz: usize, height: usize, tpt: usize) -> usize {
        let radius = t.radius();
        let what = format!("R={radius} w={} B={height} tpt={tpt}", t.width());
        // level[b][y·nz + z]: buffer 0 starts at level 0, buffer 1 undefined.
        let mut level = [vec![0i64; ny * nz], vec![-1i64; ny * nz]];
        let mut clipped = 0usize;
        for tile in t.rows().iter().flat_map(|row| &row.tiles) {
            let mut tile_cells = 0usize;
            for (k, step) in tile.front_steps(radius, height) {
                let s = tile.s_lo + k;
                assert!(tile.regions[k].contains_region(&step), "{what}");
                clipped += usize::from(step != tile.regions[k]);
                let chunks: Vec<Region3> = (0..tpt).map(|l| split_z(&step, tpt, l)).collect();
                let covered: usize = chunks.iter().map(Region3::count).sum();
                assert_eq!(covered, step.count(), "{what}: lanes do not cover the step");
                tile_cells += covered;
                for y in step.lo[1]..step.hi[1] {
                    for z in step.lo[2]..step.hi[2] {
                        for yr in y - radius..=y + radius {
                            for zr in z - radius..=z + radius {
                                if s > 0 && t.domain(s - 1).contains(step.lo[0], yr, zr) {
                                    assert_eq!(
                                        level[s % 2][yr * nz + zr],
                                        s as i64,
                                        "{what}: tile ({},{}) sweep {s} reads ({yr},{zr})",
                                        tile.i,
                                        tile.j
                                    );
                                } else {
                                    // Never written by any sweep (the
                                    // trapezoid contract), or the input.
                                    assert!(
                                        s == 0 || !t.domain(0).contains(step.lo[0], yr, zr),
                                        "{what}: sweep {s} reads ({yr},{zr}) past its producer"
                                    );
                                }
                            }
                        }
                    }
                }
                for y in step.lo[1]..step.hi[1] {
                    for z in step.lo[2]..step.hi[2] {
                        let cell = &mut level[(s + 1) % 2][y * nz + z];
                        assert!(*cell < s as i64, "{what}: ({y},{z}) rewritten");
                        *cell = s as i64 + 1;
                    }
                }
            }
            assert_eq!(
                tile_cells,
                tile.cells(),
                "{what}: steps do not partition the tile"
            );
        }
        clipped
    }

    #[test]
    #[should_panic(expected = "at least 2·radius")]
    fn too_narrow_width_rejected() {
        let _ = DiamondTiling::uniform(interior(10), 1, 1, 2);
    }

    #[test]
    #[should_panic(expected = "positive radius")]
    fn zero_radius_rejected() {
        let _ = DiamondTiling::uniform(interior(10), 4, 0, 2);
    }
}
