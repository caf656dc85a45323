//! The pipelined temporal blocking schedule: which cells each (block,
//! stage) pair updates.
//!
//! # Geometry
//!
//! A team sweep pushes every block of the domain through `S = n·t·T`
//! pipeline stages. Stage `s` re-applies the block partition *shifted
//! diagonally by `dir·s` cells* (`dir = -1` for normal/odd team sweeps,
//! `+1` for the reversed sweeps of the compressed-grid scheme):
//!
//! * interior block boundaries shift with the stage,
//! * the first block per dimension is pinned to the stage domain's low
//!   edge (it shrinks as the partition slides down),
//! * the last block per dimension is pinned to the high edge (it grows).
//!
//! This is the paper's "shifting the block by one cell in each direction
//! after an update avoids extra boundary copies" (Fig. 1).
//!
//! # Why `d_l >= 1` is race-free (two-grid scheme, `dir = -1`)
//!
//! Per dimension, an interior boundary between blocks `q` and `q+1` at
//! stage `s` sits at `B(q+1) - s`. Stage `s` updating block `q` reads the
//! source cells `[qB - s, (q+1)B - s + 1)` — exactly up to the last cell
//! stage `s-1` wrote for block `q` (`(q+1)B - s + 1 - 1 = (q+1)B - (s-1)
//! - 1`… the arithmetic telescopes so the read never needs block `q+1` of
//! stage `s-1`). Hence stage `s` may process block `j` (x-fastest linear
//! order) as soon as stage `s-1` has *completed* block `j`: counter
//! condition `c_{s-1} - c_s >= 1`. Concurrent accesses are disjoint: a
//! stage `s-δ` thread works on linear blocks `>= j + δ`, whose regions
//! are componentwise at least one cell beyond the reader's expanded
//! region in the dimension where they are ahead. The unit tests verify
//! this disjointness exhaustively over many geometries, and the runtime
//! [`tb_grid::RegionAuditor`] re-checks it during debug executions.
//!
//! Per-stage domains do not enter this argument: stage `s` of block `j`
//! is the shifted block (pinned edges left open) intersected with
//! `domains[s]`, and both bounds above are unpinned interior boundaries.
//! Any chain of interior domains is race-free; whether it nests decides
//! only whether the values are the oracle's.

use tb_grid::{BlockPartition, Region3};

/// Precomputed schedule for one team sweep.
#[derive(Clone, Debug)]
pub struct PipelinePlan {
    partition: BlockPartition,
    /// `domains[s]` is the region stage `s` must cover ("R_s"). For the
    /// shared-memory solver every stage covers the grid interior; the
    /// distributed solver passes shrinking rings.
    domains: Vec<Region3>,
}

impl PipelinePlan {
    /// Plan with one domain for every stage (shared-memory case).
    pub fn uniform(domain: Region3, block: [usize; 3], stages: usize) -> Self {
        Self::with_domains(vec![domain; stages.max(1)], block)
    }

    /// Plan over per-stage domains. `domains[0]` hosts the partition;
    /// the values are the oracle's when every later domain satisfies
    /// `domains[s].expand(1) ⊆ domains[s-1] ∪ never-written cells`
    /// (race-freedom holds regardless, see the module docs).
    ///
    /// # Panics
    /// Panics if the chain or a stage domain is empty, or if a block edge
    /// (clamped to `domains[0]`) is smaller than the stage count in a
    /// dimension cut into more than one block, which would disorder
    /// interior boundaries.
    pub fn with_domains(domains: Vec<Region3>, block: [usize; 3]) -> Self {
        let (stages, first) = (domains.len(), domains.first().copied());
        Self::try_with_domains(domains, block).unwrap_or_else(|| {
            panic!(
                "blocks {block:?} over {first:?} are smaller than the pipeline \
                 depth {stages} (or a stage domain is empty)"
            )
        })
    }

    /// [`Self::with_domains`], or `None` where it would panic — the one
    /// statement of which chains a pipelined team sweep can run on.
    pub(crate) fn try_with_domains(domains: Vec<Region3>, block: [usize; 3]) -> Option<Self> {
        let first = *domains.first()?;
        if domains.iter().any(Region3::is_empty) {
            return None;
        }
        let partition = BlockPartition::new(first, block);
        let (eff, counts) = (partition.block_size(), partition.counts());
        let fits = (0..3).all(|d| eff[d] >= domains.len() || counts[d] == 1);
        fits.then_some(Self { partition, domains })
    }

    pub fn stages(&self) -> usize {
        self.domains.len()
    }

    pub fn num_blocks(&self) -> usize {
        self.partition.len()
    }

    pub fn partition(&self) -> &BlockPartition {
        &self.partition
    }

    pub fn domain(&self, stage: usize) -> Region3 {
        self.domains[stage]
    }

    /// Region updated when block `linear` passes stage `stage`, shifted by
    /// `dir * stage` (`dir ∈ {-1, +1}`). May be empty (the executor then
    /// just advances its counter).
    pub fn region(&self, linear: usize, stage: usize, dir: i64) -> Region3 {
        debug_assert!(dir == -1 || dir == 1);
        let b = self.partition.block_idx(linear);
        let idx = [b.bx, b.by, b.bz];
        let counts = self.partition.counts();
        let base = self.partition.region(b);
        let rs = &self.domains[stage];
        let shift = dir * stage as i64;
        let mut lo = [0usize; 3];
        let mut hi = [0usize; 3];
        for d in 0..3 {
            let l = if idx[d] == 0 {
                rs.lo[d]
            } else {
                clamp_i64(base.lo[d] as i64 + shift, rs.lo[d], rs.hi[d])
            };
            let h = if idx[d] + 1 == counts[d] {
                rs.hi[d]
            } else {
                clamp_i64(base.hi[d] as i64 + shift, rs.lo[d], rs.hi[d])
            };
            if h <= l {
                return Region3::empty();
            }
            lo[d] = l;
            hi[d] = h;
        }
        Region3 { lo, hi }
    }

    /// [`Self::region`] extended to cover adjacent Dirichlet boundary
    /// cells of `logical_interior`'s bounding grid — the per-stage
    /// "shell" the compressed-grid executor must copy. `logical_interior`
    /// is the stage-0 domain of the shared-memory plan (i.e. cells
    /// `[1, n-1)`); the extension adds coordinate `lo-1`/`hi` where the
    /// region touches it.
    pub fn region_with_shell(&self, linear: usize, stage: usize, dir: i64) -> Region3 {
        let r = self.region(linear, stage, dir);
        if r.is_empty() {
            return r;
        }
        let interior = &self.domains[stage];
        let mut out = r;
        for d in 0..3 {
            if r.lo[d] == interior.lo[d] && interior.lo[d] > 0 {
                out.lo[d] = interior.lo[d] - 1;
            }
            if r.hi[d] == interior.hi[d] {
                out.hi[d] = interior.hi[d] + 1;
            }
        }
        out
    }
}

fn clamp_i64(v: i64, lo: usize, hi: usize) -> usize {
    v.clamp(lo as i64, hi as i64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interior(n: usize) -> Region3 {
        Region3::new([1, 1, 1], [n - 1, n - 1, n - 1])
    }

    /// Union of all block regions at a stage must tile the stage domain
    /// exactly (cover everything, overlap nothing).
    fn check_coverage(plan: &PipelinePlan, dir: i64) {
        for s in 0..plan.stages() {
            let dom = plan.domain(s);
            let total: usize = (0..plan.num_blocks())
                .map(|j| plan.region(j, s, dir).count())
                .sum();
            assert_eq!(total, dom.count(), "stage {s} dir {dir}: wrong cell total");
            for j in 0..plan.num_blocks() {
                let rj = plan.region(j, s, dir);
                assert!(dom.contains_region(&rj), "stage {s} block {j} leaks");
                for k in 0..j {
                    let rk = plan.region(k, s, dir);
                    assert!(!rj.intersects(&rk), "stage {s}: blocks {j},{k} overlap");
                }
            }
        }
    }

    /// The dependency invariant: the cells stage `s` reads for block `j`
    /// (expanded region), intersected with what stage `s-1` updates at
    /// all, must already be covered by stage `s-1`'s blocks `0..=j` (for
    /// dir=-1; mirrored for dir=+1 where block order is reversed).
    fn check_dependencies(plan: &PipelinePlan, dir: i64) {
        let nb = plan.num_blocks();
        for s in 1..plan.stages() {
            for j in 0..nb {
                let read = plan.region(j, s, dir).expand(1);
                // Completed predecessors in traversal order.
                let done: Vec<Region3> = if dir == -1 {
                    (0..=j).map(|k| plan.region(k, s - 1, dir)).collect()
                } else {
                    (j..nb).map(|k| plan.region(k, s - 1, dir)).collect()
                };
                let prev_dom = plan.domain(s - 1);
                // Every read cell inside the previous stage's domain must
                // be in a completed predecessor block.
                for (x, y, z) in read.intersect(&prev_dom).iter() {
                    assert!(
                        done.iter().any(|r| r.contains(x, y, z)),
                        "stage {s} block {j} dir {dir} reads ({x},{y},{z}) \
                         not yet produced by stage {}",
                        s - 1
                    );
                }
            }
        }
    }

    /// Concurrency safety: with counter distance >= 1 per stage gap, a
    /// thread at stage `s-δ` works on traversal position >= p+δ while the
    /// stage-`s` thread works on position p. Their claims must be
    /// disjoint wherever they touch the same grid (two-grid parity).
    fn check_race_freedom_two_grid(plan: &PipelinePlan, dir: i64) {
        let nb = plan.num_blocks();
        let order: Vec<usize> = if dir == -1 {
            (0..nb).collect()
        } else {
            (0..nb).rev().collect()
        };
        for s in 0..plan.stages() {
            for delta in 1..=s {
                let sp = s - delta;
                for pi in 0..nb {
                    let j = order[pi];
                    let r_read = plan.region(j, s, dir).expand(1);
                    let r_write = plan.region(j, s, dir);
                    // Writer thread is at traversal position >= pi + delta.
                    for &jw in order.iter().skip(pi + delta) {
                        let w_write = plan.region(jw, sp, dir);
                        let w_read = plan.region(jw, sp, dir).expand(1);
                        // write(s-δ) vs read-src(s): same grid iff δ odd.
                        if delta % 2 == 1 {
                            assert!(
                                !w_write.intersects(&r_read),
                                "stage {s} blk {j} read races stage {sp} blk {jw} write"
                            );
                            assert!(
                                !w_read.intersects(&r_write),
                                "stage {sp} blk {jw} read races stage {s} blk {j} write"
                            );
                        } else {
                            // write-write on the same grid iff δ even.
                            assert!(
                                !w_write.intersects(&r_write),
                                "stage {s} blk {j} write races stage {sp} blk {jw} write"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn uniform_plan_basic_shape() {
        let plan = PipelinePlan::uniform(interior(20), [6, 6, 6], 4);
        assert_eq!(plan.stages(), 4);
        assert_eq!(plan.num_blocks(), 27);
        // Stage 0 block 0 is the unshifted block.
        assert_eq!(plan.region(0, 0, -1), Region3::new([1, 1, 1], [7, 7, 7]));
        // Stage 2 block 0 shrinks at the pinned low edge.
        assert_eq!(plan.region(0, 2, -1), Region3::new([1, 1, 1], [5, 5, 5]));
        // Stage 2, last block grows at the pinned high edge.
        let last = plan.num_blocks() - 1;
        assert_eq!(
            plan.region(last, 2, -1),
            Region3::new([11, 11, 11], [19, 19, 19])
        );
    }

    #[test]
    fn coverage_down_direction() {
        for (n, b, s) in [(20, [6, 6, 6], 4), (18, [16, 4, 4], 4), (12, [10, 5, 3], 3)] {
            let plan = PipelinePlan::uniform(interior(n), b, s);
            check_coverage(&plan, -1);
        }
    }

    #[test]
    fn coverage_up_direction() {
        for (n, b, s) in [(20, [6, 6, 6], 4), (18, [16, 4, 4], 4), (12, [10, 5, 3], 3)] {
            let plan = PipelinePlan::uniform(interior(n), b, s);
            check_coverage(&plan, 1);
        }
    }

    #[test]
    fn dependencies_down() {
        let plan = PipelinePlan::uniform(interior(14), [4, 4, 4], 4);
        check_dependencies(&plan, -1);
    }

    #[test]
    fn dependencies_up() {
        let plan = PipelinePlan::uniform(interior(14), [4, 4, 4], 4);
        check_dependencies(&plan, 1);
    }

    #[test]
    fn race_freedom_down() {
        let plan = PipelinePlan::uniform(interior(14), [4, 4, 4], 4);
        check_race_freedom_two_grid(&plan, -1);
    }

    #[test]
    fn race_freedom_up() {
        let plan = PipelinePlan::uniform(interior(14), [4, 4, 4], 4);
        check_race_freedom_two_grid(&plan, 1);
    }

    #[test]
    fn race_freedom_asymmetric_blocks() {
        // Long-x blocks as in the paper (b_x >> b_y, b_z).
        let plan = PipelinePlan::uniform(interior(18), [16, 4, 4], 4);
        check_race_freedom_two_grid(&plan, -1);
        check_dependencies(&plan, -1);
    }

    #[test]
    fn shrinking_domains_cover_and_depend() {
        // Distributed-style: stage s covers interior + (2 - s) ring of a
        // 12^3 local grid with ghost width 3 => allocated 18^3, interior
        // [3,15), ring domains with lo/hi moving by 1 per stage.
        let domains = vec![
            Region3::new([1, 1, 1], [17, 17, 17]),
            Region3::new([2, 2, 2], [16, 16, 16]),
            Region3::new([3, 3, 3], [15, 15, 15]),
        ];
        let plan = PipelinePlan::with_domains(domains, [8, 8, 8]);
        check_coverage(&plan, -1);
        check_dependencies(&plan, -1);
        check_race_freedom_two_grid(&plan, -1);
    }

    #[test]
    fn race_freedom_holds_on_a_chain_that_is_not_nested() {
        // Stages that grow, shift and shrink out of order: the values
        // would be wrong, but no two concurrent claims may overlap.
        let domains = vec![
            Region3::new([3, 3, 3], [15, 15, 15]),
            Region3::new([1, 2, 4], [17, 16, 17]),
            Region3::new([5, 1, 1], [12, 17, 14]),
            Region3::new([2, 4, 2], [16, 13, 16]),
        ];
        let plan = PipelinePlan::with_domains(domains, [4, 5, 6]);
        check_coverage(&plan, -1);
        check_race_freedom_two_grid(&plan, -1);
    }

    #[test]
    fn shell_extension_touches_boundary_only_at_edges() {
        let plan = PipelinePlan::uniform(interior(12), [5, 5, 5], 2);
        // Block 0 at stage 0 touches the low edges everywhere.
        let shell = plan.region_with_shell(0, 0, -1);
        assert_eq!(shell.lo, [0, 0, 0]);
        // Its high side at 6 < 11 is not extended.
        assert_eq!(shell.hi, [6, 6, 6]);
        // Last block extends to include the high boundary.
        let last = plan.num_blocks() - 1;
        let shell = plan.region_with_shell(last, 0, -1);
        assert_eq!(shell.hi, [12, 12, 12]);
        assert_eq!(shell.lo, [6, 6, 6]);
    }

    #[test]
    fn shells_tile_the_whole_grid() {
        // Regions-with-shell at any stage must tile interior + boundary
        // exactly: every boundary cell copied exactly once per stage.
        let plan = PipelinePlan::uniform(interior(12), [5, 5, 5], 2);
        for s in 0..plan.stages() {
            let total: usize = (0..plan.num_blocks())
                .map(|j| plan.region_with_shell(j, s, -1).count())
                .sum();
            assert_eq!(total, 12 * 12 * 12, "stage {s}");
            for j in 0..plan.num_blocks() {
                for k in 0..j {
                    let rj = plan.region_with_shell(j, s, -1);
                    let rk = plan.region_with_shell(k, s, -1);
                    assert!(!rj.intersects(&rk), "shells {j},{k} overlap at stage {s}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "smaller than the pipeline depth")]
    fn too_small_blocks_rejected() {
        let _ = PipelinePlan::uniform(interior(20), [3, 3, 3], 6);
    }

    #[test]
    fn single_block_any_depth_allowed() {
        // counts == 1 in every dim: the whole domain is one block; any
        // stage count is fine (plain temporal blocking without pipelining).
        let plan = PipelinePlan::uniform(interior(8), [64, 64, 64], 5);
        check_coverage(&plan, -1);
    }
}
