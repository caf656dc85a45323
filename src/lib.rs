//! # temporal-blocking
//!
//! A Rust reproduction of **"Multicore-aware parallel temporal blocking
//! of stencil codes for shared and distributed memory"** (M. Wittmann,
//! G. Hager, G. Wellein, IPPS/LSPP 2010, arXiv:0912.4506), generalized
//! over a stencil-operator layer.
//!
//! The workspace implements the paper end to end:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`grid`] | aligned 3D grids, grid pairs, compressed grids, regions, blocks, race auditor |
//! | [`runtime`] | **persistent core-pinned worker teams** (spawn once, dispatch per solve), comm worker, staging-grid pool; [`sync`]: spin barrier, relaxed pipeline sync (Eq. 3); [`topology`]: cache groups, Nehalem EP preset, team layout, affinity |
//! | [`stencil`] | **stencil operators**, baselines, **pipelined temporal blocking** (the wavefront comparator is one of its shapes), diamond tiles |
//! | [`model`] | Eq. 2 roofline, §1.4 diagnostic model, Fig. 5 halo model, Fig. 6 scaling model — all fed by per-operator code balance; [`membench`] (= `model::calibrate`): STREAM COPY/SCALE/ADD/TRIAD + machine calibration |
//! | [`dist`] | in-process ranks and their communicator on a Cartesian topology, optionally paced in wall time by [`model::NetworkParams`] ([`net`] = `dist::net`); domain decomposition, multi-layer halo exchange, operator-generic distributed/hybrid solver (sync or overlapped exchange; a runtime with a comm worker drives the overlapped one), cluster sim |
//!
//! ## The operator layer
//!
//! Every execution strategy is generic over [`StencilOp`] — the
//! row-update primitive plus radius, flops/LUP and bytes/LUP metadata —
//! and the operator is always an argument ([`solve_with`],
//! [`solve_with_on`]; pass `&Jacobi6` for the paper's Eq. 1). Four
//! operators ship:
//!
//! | operator | stencil | use case |
//! |----------|---------|----------|
//! | [`Jacobi6`] | 6-point cross, weight 1/6 | the paper's Eq. 1; Laplace relaxation |
//! | [`Jacobi7`] | 7-point cross with center weight | explicit-Euler heat stepping |
//! | [`VarCoeff7`] | 7-point cross + per-cell coefficient grid | heterogeneous diffusion (extra read stream) |
//! | [`Avg27`] | dense 27-point radius-1 average | corner-reading smoothing kernel |
//!
//! Each operator is held to **bitwise identity** across all execution
//! strategies (sequential, blocked, parallel ± streaming stores,
//! pipelined, compressed, wavefront, diamond, distributed/hybrid)
//! against its own sequential oracle.
//!
//! ## One way in
//!
//! [`Method`] is the one way to say how a solve runs: an executor and
//! all of its parameters (for the pipeline the paper's `t`, `n`, `T`,
//! block, `d_l`/`d_u` and grid scheme — two grids or one compressed
//! grid are one `Method::Pipelined`, told apart by
//! [`PipelineConfig::scheme`]; the wavefront comparator is the shape
//! [`PipelineConfig::wavefront`]). It is also the plan IR: a
//! [`plan::Plan`] wraps a `Method`, and that is what the plan cache
//! persists and the tuner enumerates.
//!
//! [`solve_with_on`] is the one dispatch ladder: it takes the operator,
//! the `Method` and the persistent [`Runtime`] whose workers and staging
//! pool the solve uses. Where those workers run is the runtime's
//! business alone — pin by building it with [`Runtime::new`] from a
//! [`TeamLayout`](topology::TeamLayout). [`solve_with`] is the same call
//! on a one-shot, unpinned runtime of [`Method::threads`] workers;
//! [`run_plan_on`] and [`solve_tuned_with_on`] reach it through a
//! `Plan`. Below the facade every executor of [`stencil`] likewise has
//! exactly one entry (`*_op_on`: operator and runtime are arguments).
//!
//! For serving many tenants' solves concurrently on one machine —
//! disjoint cache-group slices, admission control, warm plans per
//! slice shape — see the [`serve`] module.
//!
//! ## Quick start
//!
//! ```
//! use temporal_blocking::prelude::*;
//! use temporal_blocking::stencil::config::GridScheme;
//!
//! // A 3D heat problem: hot z=0 face, cold everywhere else.
//! let dims = Dims3::cube(34);
//! let initial = grid::init::hot_plate::<f64>(dims, 100.0, 0.0);
//!
//! // Solve 8 sweeps of the paper's Jacobi with pipelined temporal
//! // blocking, on a one-shot team...
//! let cfg = PipelineConfig::default_for(2, 1);
//! let pipelined = Method::Pipelined(cfg.clone());
//! let (solution, stats) = solve_with(&Jacobi6, initial.clone(), 8, pipelined).unwrap();
//!
//! // ...and it is bitwise identical to the plain sequential solver.
//! let (reference, _) = solve_with(&Jacobi6, initial.clone(), 8, Method::Sequential).unwrap();
//! grid::norm::assert_grids_identical(
//!     &reference,
//!     &solution,
//!     &Region3::whole(dims),
//!     "pipelined vs sequential",
//! );
//! assert!(stats.mlups() > 0.0);
//!
//! // Solving repeatedly? Build the runtime once — here pinned to the
//! // host's first cache group — and every `solve_with_on` reuses its
//! // workers and pooled buffers. Any operator drops in (one explicit
//! // Euler heat step per sweep), and the compressed grid is the same
//! // method on another scheme.
//! let machine = temporal_blocking::topology::detect::detect();
//! let rt = Runtime::new(&TeamLayout::new(&machine, cfg.threads(), 1));
//! let heat = Jacobi7::heat(0.1);
//! let compressed = PipelineConfig {
//!     scheme: GridScheme::Compressed,
//!     ..cfg
//! };
//! let (a, _) = solve_with_on(&rt, &heat, initial.clone(), 8, Method::Pipelined(compressed)).unwrap();
//! let (b, _) = solve_with_on(&rt, &heat, initial, 8, Method::Sequential).unwrap();
//! grid::norm::assert_grids_identical(&a, &b, &Region3::whole(dims), "heat op");
//! ```

#![forbid(unsafe_code)]

pub use tb_dist as dist;
pub use tb_dist::net;
pub use tb_grid as grid;
pub use tb_model as model;
pub use tb_model::calibrate as membench;
pub use tb_plan as plan;
pub use tb_runtime as runtime;
pub use tb_runtime::{sync, topology};
pub use tb_stencil as stencil;

pub use tb_plan::Method;
pub use tb_runtime::Runtime;
pub use tb_stencil::{
    Avg27, DiamondConfig, Jacobi6, Jacobi7, PipelineConfig, RunStats, ScalarPath, StencilOp,
    SyncMode, VarCoeff7,
};

use tb_grid::{CompressedGrid, Dims3, Grid3, GridPair, Real, Region3};
use tb_stencil::config::GridScheme;
use tb_stencil::kernel::StoreMode;
use tb_stencil::{baseline, diamond, pipeline};

pub mod serve;

/// Everything an application typically needs.
pub mod prelude {
    pub use crate::serve::{
        Admission, ClassStats, JobError, JobHandle, JobMethod, JobOp, JobPayload, JobReport,
        JobSpec, Priority, Rejected, SchedPolicy, Server, ServerConfig, ServerStats, SlicePolicy,
    };
    pub use crate::{
        solve_tuned_with_on, solve_with, solve_with_on, Method, TuneOptions, TunedSolve,
    };
    pub use tb_grid::{self as grid, Dims3, Grid3, GridPair, Real, Region3};
    pub use tb_model::MachineParams;
    pub use tb_plan::{MethodFamily, Plan, PlanCache};
    pub use tb_runtime::topology::{Machine, TeamLayout};
    pub use tb_runtime::Runtime;
    pub use tb_stencil::{
        Avg27, DiamondConfig, Jacobi6, Jacobi7, PipelineConfig, RunStats, ScalarPath, StencilOp,
        SyncMode, VarCoeff7,
    };
}

/// Run `sweeps` sweeps of the stencil operator `op` on `initial` with the
/// chosen method on a persistent [`Runtime`]. Returns the final grid and
/// the run statistics.
///
/// Parallel methods run on the runtime's (pinned) workers — which must
/// number at least the method's thread count — and every method's second
/// grid buffer / compressed storage comes from the runtime's staging
/// pool and goes back to it on every exit, `Err` included, so repeated
/// solves stop paying spawn-per-solve and allocation-per-solve.
/// `Sequential` and `Blocked` compute on the calling thread.
///
/// For a fixed operator, all methods produce bitwise identical results
/// (see crate docs). The result is in the operator's row phase
/// ([`StencilOp::ALIGNED_CELL`], see [`Grid3`]'s "Row phase"); the
/// two-grid methods first move an input in another phase to it in
/// place, in one pass.
pub fn solve_with_on<T: Real, Op: StencilOp<T>>(
    rt: &Runtime,
    op: &Op,
    initial: Grid3<T>,
    sweeps: usize,
    method: Method,
) -> Result<(Grid3<T>, RunStats), String> {
    /// The one acquire → run → release site of the two-grid methods:
    /// pair the initial grid with a pooled B buffer, run `exec`, keep
    /// the buffer holding the result and return the other to the pool.
    /// B gets the contiguous part of the Dirichlet shell only — planes
    /// `z = 0` and `z = nz − 1` and rows `y = 0` and `y = ny − 1` of the
    /// others, which sweeps read and never write. The rest of B may be
    /// stale: sweep 0 writes every interior cell of B before any sweep
    /// reads it, and carries the x-face cells at both ends of every
    /// interior row along with it (`tb_stencil::kernel`, "The x-faces
    /// travel with the rows"), under every executor (that is what
    /// bitwise identity with the oracle from a recycled buffer means;
    /// `pool_contract` poisons the buffer with NaN to prove it), and a
    /// pool miss comes zeroed from [`Runtime::acquire_grid`], its pages
    /// placed by the calling thread. A grid without interior is all
    /// shell and copied whole. An executor that returns `Err` has not
    /// swept, so the spare is still released and the pool keeps its
    /// warm buffer.
    ///
    /// Both buffers take the operator's row phase
    /// ([`StencilOp::ALIGNED_CELL`]): an input in another phase is moved
    /// in place, in one pass; B is re-pointed without moving anything,
    /// because its interior is rewritten and its shell copied after.
    fn on_pooled_pair<T: Real>(
        rt: &Runtime,
        phase: usize,
        mut initial: Grid3<T>,
        sweeps: usize,
        exec: impl FnOnce(&mut GridPair<T>) -> Result<RunStats, String>,
    ) -> Result<(Grid3<T>, RunStats), String> {
        initial.set_phase(phase);
        let mut b = rt.acquire_grid(initial.dims());
        b.set_phase_stale(phase);
        let dims = initial.dims();
        let interior = Region3::interior_of(dims);
        let rows = if interior.is_empty() {
            interior
        } else {
            Region3::new([0, 1, 1], [dims.nx, dims.ny - 1, dims.nz - 1])
        };
        b.copy_outside_from(&initial, &rows);
        let mut pair = GridPair::from_parts(initial, b);
        let stats = exec(&mut pair);
        let (a, b) = pair.into_parts();
        let (result, spare) = if stats.is_err() || sweeps.is_multiple_of(2) {
            (a, b)
        } else {
            (b, a)
        };
        rt.grid_pool::<T>().release(spare);
        stats.map(|stats| (result, stats))
    }
    let phase = Op::ALIGNED_CELL;
    match method {
        Method::Sequential => on_pooled_pair(rt, phase, initial, sweeps, |pair| {
            Ok(baseline::seq_sweeps_op(op, pair, sweeps))
        }),
        Method::Blocked { block } => on_pooled_pair(rt, phase, initial, sweeps, |pair| {
            Ok(baseline::seq_blocked_sweeps_op(op, pair, sweeps, block))
        }),
        Method::Parallel {
            threads,
            streaming_stores,
        } => {
            if threads == 0 {
                return Err("threads must be >= 1".into());
            }
            if threads > rt.threads() {
                return Err(format!(
                    "runtime has {} workers but the method needs {threads}",
                    rt.threads()
                ));
            }
            let store = if streaming_stores {
                StoreMode::Streaming
            } else {
                StoreMode::Normal
            };
            on_pooled_pair(rt, phase, initial, sweeps, |pair| {
                Ok(baseline::par_sweeps_op_on(
                    rt, op, pair, sweeps, threads, store,
                ))
            })
        }
        Method::Pipelined(cfg) if cfg.scheme == GridScheme::TwoGrid => {
            on_pooled_pair(rt, phase, initial, sweeps, |pair| {
                pipeline::run_op_on(rt, op, pair, &cfg, sweeps)
            })
        }
        Method::Pipelined(cfg) => {
            cfg.validate(initial.dims())?;
            let margin = cfg.stages();
            let storage =
                rt.acquire_grid(CompressedGrid::<T>::alloc_dims_for(initial.dims(), margin));
            let mut cg = CompressedGrid::from_grid_in(&initial, margin, storage);
            let stats = pipeline::run_compressed_op_on(rt, op, &mut cg, &cfg, sweeps);
            // Expand into the consumed input: no grid is allocated.
            let out = stats.map(|stats| {
                let mut out = initial;
                out.set_phase_stale(phase);
                cg.write_to(&mut out);
                (out, stats)
            });
            rt.grid_pool::<T>().release(cg.into_storage());
            out
        }
        Method::Diamond(cfg) => on_pooled_pair(rt, phase, initial, sweeps, |pair| {
            diamond::run_diamond_op_on(rt, op, pair, &cfg, sweeps)
        }),
    }
}

/// The one-shot runtime [`solve_with`] builds for `method`: one
/// unpinned worker per method thread ([`Method::threads`]; none for the
/// methods that compute on the calling thread) and no communication
/// worker.
fn runtime_for(method: &Method) -> Runtime {
    Runtime::with_threads(method.threads())
}

/// [`solve_with_on`] on a one-shot, unpinned runtime sized for `method`.
/// Build a [`Runtime`] — pinned with [`Runtime::new`] from a
/// [`TeamLayout`](topology::TeamLayout) — and call [`solve_with_on`]
/// directly when solving repeatedly or when placement matters.
pub fn solve_with<T: Real, Op: StencilOp<T>>(
    op: &Op,
    initial: Grid3<T>,
    sweeps: usize,
    method: Method,
) -> Result<(Grid3<T>, RunStats), String> {
    solve_with_on(&runtime_for(&method), op, initial, sweeps, method)
}

/// Convenience: dims of a cubic problem sized to roughly `mib` MiB for a
/// two-grid `f64` solver — used by examples to scale to the host.
pub fn cube_for_memory_budget(mib: usize) -> Dims3 {
    let bytes = mib * 1024 * 1024;
    let cells = bytes / (2 * 8);
    let edge = (cells as f64).cbrt() as usize;
    Dims3::cube(edge.max(8))
}

/// The persistent runtime for a tuning session: the layout's pinned
/// workers when they already cover `min_threads` (e.g. a full cache
/// group for calibration), otherwise the pin list grown with the
/// machine's remaining CPUs — keeping the layout's placement *and* its
/// carved-out comm core, instead of degrading to unpinned threads with
/// no comm worker.
pub fn tuning_runtime(
    machine: &topology::Machine,
    layout: &topology::TeamLayout,
    min_threads: usize,
) -> Runtime {
    if layout.threads() >= min_threads {
        return Runtime::new(layout);
    }
    let mut cpus = layout.cpus.clone();
    let mut used: std::collections::HashSet<usize> = cpus.iter().flatten().copied().collect();
    if let Some(c) = layout.comm_core {
        used.insert(c);
    }
    for socket in &machine.sockets {
        for &cpu in &socket.cpus {
            if cpus.len() >= min_threads {
                break;
            }
            if used.insert(cpu) {
                cpus.push(Some(cpu));
            }
        }
    }
    while cpus.len() < min_threads {
        cpus.push(None); // machine smaller than the request: unpinned tail
    }
    Runtime::from_cpus(cpus, layout.comm_core.map(Some))
}

/// Execute one reified [`tb_plan::Plan`] on a persistent runtime.
pub fn run_plan_on<T: Real, Op: StencilOp<T>>(
    rt: &Runtime,
    op: &Op,
    plan: &tb_plan::Plan,
    initial: Grid3<T>,
    sweeps: usize,
) -> Result<(Grid3<T>, RunStats), String> {
    solve_with_on(rt, op, initial, sweeps, plan.method.clone())
}

/// Options for [`solve_tuned_with_on`].
#[derive(Clone, Debug)]
pub struct TuneOptions {
    /// Cache file; `None` uses [`tb_plan::PlanCache::default_path`]
    /// (`$TB_PLAN_CACHE` overrides).
    pub cache_path: Option<std::path::PathBuf>,
    /// Measure at most this many model-ranked candidates on a cold tune.
    pub top_k: usize,
    /// Ignore any cached plan and tune afresh (the result still lands in
    /// the cache).
    pub force_retune: bool,
    /// Skip membench calibration and fingerprint with these parameters —
    /// for tests/benches and for hosts calibrated out of band.
    pub params: Option<MachineParams>,
    /// Restrict the candidate space to these families; empty means all.
    pub families: Vec<tb_plan::MethodFamily>,
    /// Tune for this machine (or sub-machine) instead of the detected
    /// host. The job scheduler passes each slice's
    /// [`Machine::restrict`](topology::Machine::restrict) sub-machine
    /// here, so plans are keyed per sub-machine fingerprint — identical
    /// slices share warm plans, different slice shapes never collide.
    pub machine: Option<topology::Machine>,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            cache_path: None,
            top_k: tb_plan::TuneConfig::default().top_k,
            force_retune: false,
            params: None,
            families: Vec::new(),
            machine: None,
        }
    }
}

/// How a tuned solve obtained its plan.
#[derive(Clone, Debug)]
pub struct TunedSolve {
    /// The plan that produced the returned grid.
    pub plan: tb_plan::Plan,
    /// `true` when the plan was replayed from the persistent cache —
    /// by contract such a solve performs **zero** measurements.
    pub cache_hit: bool,
    /// `true` when membench calibration ran (cold cache, no stored
    /// calibration, no [`TuneOptions::params`] override).
    pub calibrated: bool,
    /// Candidate measurements performed (0 on a warm hit).
    pub measurements: usize,
    /// The ranked tuning report (cold tunes only).
    pub report: Option<tb_plan::TuneReport>,
}

use tb_model::MachineParams;

/// [`solve_with_on`] with the method chosen by the plan-cache autotuner:
/// open the persistent cache (one shared in-process store per cache
/// file, so concurrent tenants never race the load-modify-save cycle),
/// replay the stored winner when the [`tb_plan::PlanKey`] matches (no
/// measurement of any kind — the calibration that feeds the fingerprint
/// is itself cached), otherwise enumerate candidates, score them with
/// the `tb-model` predictions, measure only the top-K including the
/// library defaults (parallel baseline and pipelined), persist the
/// winner, and solve with it.
pub fn solve_tuned_with_on<T: Real, Op: StencilOp<T>>(
    rt: &Runtime,
    op: &Op,
    initial: Grid3<T>,
    sweeps: usize,
    opts: &TuneOptions,
) -> Result<(Grid3<T>, RunStats, TunedSolve), String> {
    use tb_plan::{CacheEntry, MachineFingerprint, PlanKey, SharedPlanCache, TuneConfig};

    let dims = initial.dims();
    let machine = match &opts.machine {
        Some(m) => m.clone(),
        None => topology::detect::detect(),
    };
    let signature = machine.signature();
    let cache = match &opts.cache_path {
        Some(p) => SharedPlanCache::open(p.clone()),
        None => SharedPlanCache::open_default(),
    };

    // Machine parameters: explicit override, then the cached calibration
    // for this topology, then one membench run (cached for next time).
    let mut calibrated = false;
    let params = match opts.params {
        Some(p) => p,
        None => match cache.calibration(&signature) {
            Some(p) => p,
            None => {
                let group = machine.cores_per_socket().max(1);
                let profile = membench::CalibrationProfile::quick();
                let p = if rt.threads() >= group {
                    membench::calibrate_host_on(rt, &machine, profile)
                } else {
                    let layout = topology::TeamLayout::new(&machine, group, 1);
                    let cal_rt = tuning_runtime(&machine, &layout, group);
                    membench::calibrate_host_on(&cal_rt, &machine, profile)
                };
                calibrated = true;
                cache
                    .with(|c| {
                        c.store_calibration(&signature, p);
                        c.save()
                    })
                    .map_err(|e| format!("plan cache save: {e}"))?;
                p
            }
        },
    };

    let fingerprint = MachineFingerprint::new(&machine, &params);
    let key = PlanKey::new::<T>(fingerprint, op.name(), dims, sweeps);

    // Warm path: replay the stored winner. The entry re-validates
    // against the current dims, and must fit this runtime's workers.
    if !opts.force_retune {
        if let Some(entry) = cache.lookup(&key, dims, Op::RADIUS) {
            if entry.plan.method.threads() <= rt.threads() {
                let plan = entry.plan;
                let (out, stats) = run_plan_on(rt, op, &plan, initial, sweeps)?;
                return Ok((
                    out,
                    stats,
                    TunedSolve {
                        plan,
                        cache_hit: true,
                        calibrated,
                        measurements: 0,
                        report: None,
                    },
                ));
            }
        }
    }

    // Cold path: enumerate, score, measure top-K incl. incumbents.
    let team = rt.threads().max(1);
    let families: &[tb_plan::MethodFamily] = if opts.families.is_empty() {
        &tb_plan::MethodFamily::ALL
    } else {
        &opts.families
    };
    let candidates: Vec<tb_plan::Plan> = families
        .iter()
        .flat_map(|&f| tb_plan::enumerate_family::<T, Op>(f, &params, op, dims, team))
        .collect();
    // The defaults a caller who never tunes would run ride along: the
    // baseline and the pipelined default where the restriction admits
    // them, else the one family's own default.
    use tb_plan::MethodFamily::{Parallel, Pipelined};
    let mut incumbents: Vec<tb_plan::Plan> = [Parallel, Pipelined]
        .into_iter()
        .filter(|f| families.contains(f))
        .map(|f| tb_plan::default_plan(f, team))
        .collect();
    if incumbents.is_empty() {
        incumbents.push(tb_plan::default_plan(families[0], team));
    }
    let report = tb_plan::tune(
        &params,
        op,
        dims,
        candidates,
        &incumbents,
        &TuneConfig { top_k: opts.top_k },
        |plan| run_plan_on(rt, op, plan, initial.clone(), sweeps).map(|(_, stats)| stats.mlups()),
    );
    let winner = report
        .winner()
        .ok_or("tuning failed: no candidate could be measured")?;
    let plan = winner.plan.clone();
    cache
        .store_and_save(
            &key,
            CacheEntry {
                plan: plan.clone(),
                dims: [dims.nx, dims.ny, dims.nz],
                measured_mlups: winner.measured_mlups.unwrap_or(0.0),
                predicted_mlups: winner.predicted_mlups,
            },
        )
        .map_err(|e| format!("plan cache save: {e}"))?;

    let measurements = report.measured;
    let (out, stats) = run_plan_on(rt, op, &plan, initial, sweeps)?;
    Ok((
        out,
        stats,
        TunedSolve {
            plan,
            cache_hit: false,
            calibrated,
            measurements,
            report: Some(report),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_grid::{init, norm};

    fn compressed(cfg: PipelineConfig) -> Method {
        Method::Pipelined(PipelineConfig {
            scheme: GridScheme::Compressed,
            ..cfg
        })
    }

    fn all_methods() -> Vec<(&'static str, Method)> {
        vec![
            ("blocked", Method::Blocked { block: [7, 7, 7] }),
            (
                "par",
                Method::Parallel {
                    threads: 3,
                    streaming_stores: false,
                },
            ),
            (
                "par-nt",
                Method::Parallel {
                    threads: 2,
                    streaming_stores: true,
                },
            ),
            (
                "pipelined",
                Method::Pipelined(PipelineConfig::default_for(2, 1)),
            ),
            ("compressed", compressed(PipelineConfig::default_for(2, 1))),
            ("wavefront", Method::Pipelined(PipelineConfig::wavefront(2))),
            (
                "diamond",
                Method::Diamond(DiamondConfig {
                    threads: 2,
                    width: 6,
                    threads_per_tile: 1,
                    audit: true,
                }),
            ),
            (
                "diamond-mwd",
                Method::Diamond(DiamondConfig {
                    threads: 2,
                    width: 6,
                    threads_per_tile: 2,
                    audit: true,
                }),
            ),
        ]
    }

    /// `init::random`'s interior inside a non-zero Dirichlet shell taken
    /// from `init::linear`: a solver that drops or misplaces a face cell
    /// (which `init::random`'s all-zero shell would hide) differs.
    fn random_with_linear_shell(dims: Dims3, seed: u64) -> Grid3<f64> {
        let mut g = init::random(dims, seed);
        let shell = init::linear(dims, 0.25, 0.5, 0.75, 1.0);
        g.copy_outside_from(&shell, &Region3::interior_of(dims));
        g
    }

    #[test]
    fn all_methods_agree_bitwise() {
        let dims = Dims3::cube(20);
        let initial = random_with_linear_shell(dims, 7);
        let sweeps = 6;
        let (want, _) = solve_with(&Jacobi6, initial.clone(), sweeps, Method::Sequential).unwrap();
        for (name, m) in all_methods() {
            let (got, stats) = solve_with(&Jacobi6, initial.clone(), sweeps, m).unwrap();
            norm::assert_grids_identical(&want, &got, &Region3::whole(dims), name);
            assert_eq!(
                stats.cell_updates,
                (sweeps * dims.interior_len()) as u64,
                "{name}"
            );
        }
    }

    #[test]
    fn all_methods_agree_bitwise_for_every_operator() {
        let dims = Dims3::cube(20);
        let initial = random_with_linear_shell(dims, 13);
        let sweeps = 5;

        fn check<Op: StencilOp<f64>>(op: &Op, initial: &Grid3<f64>, sweeps: usize) {
            let dims = initial.dims();
            let (want, _) = solve_with(op, initial.clone(), sweeps, Method::Sequential).unwrap();
            for (name, m) in all_methods() {
                let (got, _) = solve_with(op, initial.clone(), sweeps, m).unwrap();
                norm::assert_grids_identical(
                    &want,
                    &got,
                    &Region3::whole(dims),
                    &format!("{} via {name}", op.name()),
                );
            }
        }
        check(&Jacobi7::heat(0.11), &initial, sweeps);
        check(&VarCoeff7::banded(dims), &initial, sweeps);
        check(&Avg27, &initial, sweeps);
    }

    #[test]
    fn solve_on_shared_runtime_agrees_with_solve_for_every_method() {
        let dims = Dims3::cube(20);
        let initial = random_with_linear_shell(dims, 21);
        let sweeps = 5;
        let (want, _) = solve_with(&Jacobi6, initial.clone(), sweeps, Method::Sequential).unwrap();
        let rt = Runtime::with_threads(3);
        for round in 0..2 {
            for (name, m) in all_methods() {
                let (got, stats) =
                    solve_with_on(&rt, &Jacobi6, initial.clone(), sweeps, m).unwrap();
                norm::assert_grids_identical(
                    &want,
                    &got,
                    &Region3::whole(dims),
                    &format!("{name} on shared runtime, round {round}"),
                );
                assert_eq!(stats.cell_updates, (sweeps * dims.interior_len()) as u64);
            }
        }
        // The staging pool is being reused, not grown per solve: at most
        // one two-grid B buffer and one compressed storage block parked.
        assert!(rt.grid_pool::<f64>().free_grids() <= 2);
    }

    #[test]
    fn solve_on_rejects_undersized_runtime() {
        let dims = Dims3::cube(20);
        let g: Grid3<f64> = init::random(dims, 1);
        let rt = Runtime::with_threads(1);
        assert!(solve_with_on(
            &rt,
            &Jacobi6,
            g,
            2,
            Method::Parallel {
                threads: 4,
                streaming_stores: false
            }
        )
        .is_err());
    }

    #[test]
    fn memory_budget_helper() {
        let d = cube_for_memory_budget(16);
        // 2 f64 grids of edge^3 must fit in ~16 MiB.
        assert!(2 * d.bytes(8) <= 17 * 1024 * 1024);
        assert!(d.nx >= 8);
    }

    #[test]
    fn errors_are_propagated() {
        let dims = Dims3::cube(10);
        let g: Grid3<f64> = init::random(dims, 1);
        assert!(solve_with(
            &Jacobi6,
            g.clone(),
            1,
            Method::Parallel {
                threads: 0,
                streaming_stores: false
            }
        )
        .is_err());
        let mut cfg = PipelineConfig::default_for(2, 1);
        cfg.updates_per_thread = 100;
        assert!(solve_with(&Jacobi6, g, 1, Method::Pipelined(cfg)).is_err());
    }

    #[test]
    fn failed_solves_return_their_buffer_to_the_pool() {
        // An `Err` solve must release the pooled buffer it acquired, or
        // the next valid job on this runtime pays a fresh allocation.
        let dims = Dims3::cube(20);
        let g: Grid3<f64> = init::random(dims, 5);
        let rt = Runtime::with_threads(2);
        let pool = rt.grid_pool::<f64>();
        let oversize = |team_size| PipelineConfig {
            team_size,
            ..PipelineConfig::default_for(2, 1)
        };
        let families: Vec<(&str, Method, Vec<Method>)> = vec![
            (
                "parallel",
                Method::Parallel {
                    threads: 2,
                    streaming_stores: false,
                },
                vec![
                    Method::Parallel {
                        threads: 0,
                        streaming_stores: false,
                    },
                    Method::Parallel {
                        threads: 3,
                        streaming_stores: false,
                    },
                ],
            ),
            (
                "pipelined",
                Method::Pipelined(PipelineConfig::default_for(2, 1)),
                vec![Method::Pipelined(oversize(3))],
            ),
            (
                "compressed",
                compressed(PipelineConfig::default_for(2, 1)),
                vec![compressed(oversize(3))],
            ),
            (
                "wavefront",
                Method::Pipelined(PipelineConfig::wavefront(2)),
                vec![
                    Method::Pipelined(PipelineConfig::wavefront(0)),
                    Method::Pipelined(PipelineConfig::wavefront(3)),
                ],
            ),
            (
                "diamond",
                Method::Diamond(DiamondConfig::with_width(2, 6)),
                vec![
                    Method::Diamond(DiamondConfig::with_width(2, 1)),
                    Method::Diamond(DiamondConfig::with_width(0, 6)),
                    Method::Diamond(DiamondConfig::with_width(3, 6)),
                ],
            ),
        ];
        for (name, valid, invalid) in families {
            for bad in invalid {
                // Round 0 warms the pool (the failing config may need a
                // storage shape of its own); round 1 must not allocate.
                let mut warm = None;
                for round in 0..2 {
                    let label = format!("{name} round {round}: {bad:?}");
                    solve_with_on(&rt, &Jacobi6, g.clone(), 3, valid.clone()).unwrap();
                    assert!(
                        solve_with_on(&rt, &Jacobi6, g.clone(), 3, bad.clone()).is_err(),
                        "{label}"
                    );
                    solve_with_on(&rt, &Jacobi6, g.clone(), 3, valid.clone()).unwrap();
                    let fresh = pool.fresh_allocations();
                    assert_eq!(*warm.get_or_insert(fresh), fresh, "{label}");
                }
            }
        }
    }

    #[test]
    fn runtime_for_sizes_the_one_shot_team_unpinned() {
        for m in [Method::Sequential, Method::Blocked { block: [7, 7, 7] }] {
            assert_eq!(runtime_for(&m).worker_count(), 0, "{m:?}");
        }
        for (threads, m) in [
            (
                3,
                Method::Parallel {
                    threads: 3,
                    streaming_stores: false,
                },
            ),
            (2, Method::Pipelined(PipelineConfig::default_for(2, 1))),
            (2, compressed(PipelineConfig::default_for(2, 1))),
            (2, Method::Pipelined(PipelineConfig::wavefront(2))),
            (4, Method::Diamond(DiamondConfig::with_width(4, 8))),
        ] {
            let rt = runtime_for(&m);
            assert_eq!(
                (rt.threads(), rt.worker_count()),
                (threads, threads),
                "{m:?}"
            );
            assert!(!rt.has_comm_worker(), "{m:?}");
        }
    }
}
