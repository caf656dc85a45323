//! Configuration of the pipelined temporal blocking executors.

use tb_grid::Dims3;
use tb_runtime::sync::SyncMode;

/// Grid storage strategy for the pipeline.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum GridScheme {
    /// Two grids A/B written in turn (Fig. 1 of the paper).
    #[default]
    TwoGrid,
    /// Single "compressed" grid with alternating ±(1,1,1) shifts (§1.3).
    Compressed,
}

/// Block x edge meaning "the whole extent": [`PipelineConfig::validate`]
/// and `tb_grid::BlockPartition` clamp every edge to the domain, so any
/// value at least the grid's `nx` gives one block per x-row. A plain
/// number (not `usize::MAX`) so it survives the plan cache's JSON.
pub const WHOLE_EXTENT: usize = 1 << 20;

/// Pipeline depth `n·t·T` the default shape aims for.
const DEFAULT_DEPTH: usize = 8;

/// Full parameter set of a pipelined run. The paper's notation:
/// `t` = [`PipelineConfig::team_size`], `n` = [`PipelineConfig::n_teams`],
/// `T` = [`PipelineConfig::updates_per_thread`], `d_l`/`d_u`/`d_t` live
/// inside [`PipelineConfig::sync`], block size `b_x×b_y×b_z` in
/// [`PipelineConfig::block`]. CPU placement is not part of it: pin by
/// building the runtime from a `TeamLayout` (`Runtime::new`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Threads per team (`t`); a team shares one cache group.
    pub team_size: usize,
    /// Number of teams (`n`); one per cache group.
    pub n_teams: usize,
    /// Most consecutive updates a thread applies to a block (`T`). A
    /// **cap, not a quota**: it fixes the deepest team sweep, `n·t·T`
    /// stages; a request for `sweeps` sweeps runs `⌈sweeps / (n·t·T)⌉`
    /// team sweeps of near-equal depth and every team sweep hands each
    /// thread a near-equal contiguous run of stages, at most `T` of them
    /// (see `pipeline::schedule`), so a short or odd request never
    /// leaves part of the team idle.
    pub updates_per_thread: usize,
    /// Spatial block edges `[b_x, b_y, b_z]`.
    pub block: [usize; 3],
    /// Barrier or relaxed synchronization.
    pub sync: SyncMode,
    /// Storage scheme. The executors take their grids as arguments and
    /// never read it; the facade's `Method::Pipelined` dispatches on it.
    pub scheme: GridScheme,
    /// Run the debug region auditor (serializes claims; test/debug only).
    pub audit: bool,
}

impl PipelineConfig {
    /// The library's one default shape for `n_teams` teams of
    /// `team_size` threads — what `tb_plan::default_plan`, the examples
    /// and the benchmark all run. Valid on any grid whose interior is at least
    /// `max(8, n·t)` cells per dimension.
    ///
    /// * **x edge = whole extent** ([`WHOLE_EXTENT`]): the paper (§1.5)
    ///   and its follow-up (arXiv:1006.3148) keep the inner loop long for
    ///   the hardware prefetcher; a 32-cell x edge at depth 2 ran 3×
    ///   slower on Jacobi6 288³ (ROADMAP Open item 1 has the table).
    /// * **y/z edges 8** (`max(8, n·t)`, never below the depth): a block
    ///   of `nx·8·8` cells stays in the shared cache through all its
    ///   stages. 16×16 measured 5 % slower at 288³ and 16 % slower on an
    ///   in-cache 64³ grid, where it leaves only 16 blocks per team
    ///   sweep to fill the pipeline.
    /// * **depth 8**: `T = 8 / (n·t)` clamped to `1..=4`, so every block
    ///   is updated 8 times per trip through memory on teams of 2, 4 and
    ///   8 (6 on teams of 3 and 6, 4 on one thread), and the depth never
    ///   exceeds the block edge. `T` is a cap (see
    ///   [`PipelineConfig::updates_per_thread`]).
    /// * relaxed sync at the paper's `d_l = 1`, `d_u = 4`.
    pub fn default_for(team_size: usize, n_teams: usize) -> Self {
        let threads = (team_size * n_teams).max(1);
        let edge = DEFAULT_DEPTH.max(threads);
        Self {
            team_size,
            n_teams,
            updates_per_thread: (DEFAULT_DEPTH / threads).clamp(1, 4),
            block: [WHOLE_EXTENT, edge, edge],
            sync: SyncMode::relaxed_default(),
            scheme: GridScheme::TwoGrid,
            audit: false,
        }
    }

    /// The wavefront scheme of Wellein et al. (the paper's ref. 2) as a
    /// pipelined shape: one team of `threads`, each applying one update
    /// (`T = 1`) to blocks of whole x·y planes, `threads` planes deep
    /// (the shallowest block [`Self::validate`] admits at that depth),
    /// relaxed sync at `d_l = 1`: the paper's Eq. 3 pipeline with the
    /// block reduced to a stack of planes. Valid on any grid whose
    /// interior is at least `threads` cells per dimension.
    pub fn wavefront(threads: usize) -> Self {
        Self {
            team_size: threads,
            n_teams: 1,
            updates_per_thread: 1,
            block: [WHOLE_EXTENT, WHOLE_EXTENT, threads],
            sync: SyncMode::relaxed_default(),
            scheme: GridScheme::TwoGrid,
            audit: false,
        }
    }

    /// Total pipeline threads `n * t`.
    pub fn threads(&self) -> usize {
        self.team_size * self.n_teams
    }

    /// Total pipeline stages per team sweep, `n * t * T`.
    pub fn stages(&self) -> usize {
        self.threads() * self.updates_per_thread
    }

    /// Validate against a grid. Returns a human-readable complaint.
    ///
    /// The key geometric constraint (see `pipeline::plan`): every block
    /// edge must be at least the total stage count, or the per-stage
    /// diagonal shift would push interior block boundaries out of order.
    pub fn validate(&self, dims: Dims3) -> Result<(), String> {
        if self.team_size == 0 || self.n_teams == 0 || self.updates_per_thread == 0 {
            return Err("team_size, n_teams, updates_per_thread must be >= 1".into());
        }
        if self.block.contains(&0) {
            return Err("block edges must be >= 1".into());
        }
        if dims.nx < 3 || dims.ny < 3 || dims.nz < 3 {
            return Err(format!("grid {dims} has no interior"));
        }
        let stages = self.stages();
        let interior = [dims.nx - 2, dims.ny - 2, dims.nz - 2];
        for (d, &int_d) in interior.iter().enumerate() {
            let b = self.block[d].min(int_d);
            if b < stages {
                return Err(format!(
                    "block edge {} (dim {d}, clamped to interior {int_d}) is smaller \
                     than the pipeline depth n*t*T = {stages}; enlarge blocks or \
                     reduce teams/updates",
                    self.block[d]
                ));
            }
        }
        if let SyncMode::Relaxed { dl, du, .. } = self.sync {
            if dl < 1 {
                return Err("d_l must be >= 1".into());
            }
            if du < dl {
                return Err("d_u must be >= d_l".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> PipelineConfig {
        PipelineConfig::default_for(2, 1)
    }

    #[test]
    fn default_shape_is_valid_from_an_interior_of_its_block_edge() {
        for (team, depth) in [(1, 4), (2, 8), (3, 6), (4, 8), (6, 6), (8, 8), (16, 16)] {
            let c = PipelineConfig::default_for(team, 1);
            assert_eq!((c.threads(), c.stages()), (team, depth));
            assert_eq!(c.block, [WHOLE_EXTENT, 8.max(team), 8.max(team)]);
            assert!(c.updates_per_thread <= 4 && c.stages() <= c.block[1]);
            c.validate(Dims3::cube(8.max(team) + 2)).unwrap();
            c.validate(Dims3::cube(288)).unwrap();
        }
    }

    #[test]
    fn wavefront_shape_is_valid_down_to_an_interior_of_its_team() {
        for threads in [1, 2, 3, 5] {
            let c = PipelineConfig::wavefront(threads);
            assert_eq!((c.threads(), c.stages()), (threads, threads));
            c.validate(Dims3::cube(threads + 2)).unwrap();
            c.validate(Dims3::new(288, threads + 2, 64)).unwrap();
            if threads > 1 {
                assert!(c.validate(Dims3::new(64, 64, threads + 1)).is_err());
            }
        }
        assert!(PipelineConfig::wavefront(0)
            .validate(Dims3::cube(8))
            .is_err());
    }

    #[test]
    fn too_deep_pipeline_rejected() {
        let mut c = small();
        c.updates_per_thread = 64;
        let err = c.validate(Dims3::cube(34)).unwrap_err();
        assert!(err.contains("pipeline depth"), "{err}");
    }

    #[test]
    fn degenerate_grid_rejected() {
        assert!(small().validate(Dims3::new(2, 10, 10)).is_err());
    }

    #[test]
    fn bad_sync_rejected() {
        let mut c = small();
        c.sync = SyncMode::Relaxed {
            dl: 2,
            du: 1,
            dt: 0,
        };
        assert!(c.validate(Dims3::cube(34)).unwrap_err().contains("d_u"));
    }
}
