//! The solve cell group: one operator, one grid, a warm [`Runtime`] with
//! pooled buffers. End to end it times the facade three ways
//! (`baseline_mlups`, `diamond_mlups`, `pipelined_mlups`); in the traced
//! pass it also walks the ladder below the facade — row kernel, region
//! sweep, every team executor called directly, the tuner — on the same
//! problem. `stream-j6` and `cache-a27` run it at full size; the other
//! workloads run it as a control cell.

use std::time::Duration;

use temporal_blocking::grid::{init, norm, CompressedGrid};
use temporal_blocking::plan::{self, default_plan, MethodFamily};
use temporal_blocking::prelude::*;
use temporal_blocking::stencil::kernel::{self, StoreMode};
use temporal_blocking::stencil::{baseline, diamond, pipeline, wavefront};
use temporal_blocking::topology::Machine;
use temporal_blocking::{run_plan_on, solve_tuned_with_on, TuneOptions};

use crate::ctx::{gbs, out_dir, CellGroup, Ctx};
use crate::spec::{OpKind, SolveProblem};

pub trait SolveCells: CellGroup {
    /// The per-layer rungs (traced pass only), within about `budget`.
    fn layers(&mut self, ctx: &mut Ctx, budget: Duration);
}

/// Set-up: runtime spawn, allocation + first touch, init, oracle.
pub fn setup(ctx: &mut Ctx, machine: &Machine, problem: SolveProblem) -> Box<dyn SolveCells> {
    match problem.op {
        OpKind::Jacobi6 => Box::new(State::new(ctx, machine, Jacobi6, problem)),
        OpKind::Avg27 => Box::new(State::new(ctx, machine, Avg27, problem)),
    }
}

struct State<Op> {
    op: Op,
    sweeps: usize,
    min_reps: usize,
    dims: Dims3,
    /// Lattice-site updates of one solve.
    lups: f64,
    rt: Runtime,
    master: Grid3<f64>,
    /// The grid every rep hands to the facade and gets back.
    work: Option<Grid3<f64>>,
    /// Fingerprint of the sequential solve of `master`.
    oracle: u64,
    /// Pool allocations before the first timed set.
    fresh_before: u64,
}

fn fingerprint(ctx: &mut Ctx, g: &Grid3<f64>) -> u64 {
    let whole = Region3::whole(g.dims());
    let (fp, secs) = ctx
        .tracer
        .time("grid.fingerprint", |_| norm::fingerprint(g, &whole));
    if ctx.trace {
        ctx.sample("grid.fingerprint_gbs", gbs(g.bytes(), secs));
    }
    fp
}

impl<Op: StencilOp<f64> + StencilOp<f32>> State<Op> {
    fn new(ctx: &mut Ctx, machine: &Machine, op: Op, problem: SolveProblem) -> Self {
        let team = ctx.team;
        let dims = Dims3::cube(problem.edge);
        let (rt, secs) = ctx.tracer.time("runtime.new", |_| {
            Runtime::new(&TeamLayout::new(machine, team, 1))
        });
        let seed = ctx.seed;
        let (master, init_s) = ctx
            .tracer
            .time("grid.init_random", |_| init::random::<f64>(dims, seed));
        let (work, copy_s) = ctx.tracer.time("grid.clone", |_| master.clone());
        if ctx.trace {
            ctx.sample("runtime.spawn_ms", secs * 1e3);
            ctx.sample("grid.init_random_s", init_s);
            ctx.sample("grid.copy_gbs", gbs(2 * master.bytes(), copy_s));
        }
        // The oracle runs on the buffers the reps will use, so set-up
        // touches every page once and parks the B buffer in the pool.
        let mut b = rt.acquire_grid::<f64>(dims);
        b.as_mut_slice().copy_from_slice(master.as_slice());
        let mut pair = GridPair::from_parts(work, b);
        ctx.tracer.time("stencil.seq_sweeps_op", |_| {
            baseline::seq_sweeps_op(&op, &mut pair, problem.sweeps)
        });
        let oracle = fingerprint(ctx, pair.current(problem.sweeps));
        let (work, b) = pair.into_parts();
        let pool = rt.grid_pool::<f64>();
        pool.release(b);
        State {
            fresh_before: pool.fresh_allocations(),
            op,
            sweeps: problem.sweeps,
            min_reps: problem.min_reps,
            dims,
            lups: (problem.sweeps * dims.interior_len()) as f64,
            rt,
            master,
            work: Some(work),
            oracle: ctx.oracle(oracle),
        }
    }

    /// Restore the work grid to the initial state (untimed).
    fn fresh_input(&mut self, ctx: &mut Ctx) -> Grid3<f64> {
        let mut work = self.work.take().unwrap_or_else(|| self.master.clone());
        let (rt, master) = (&self.rt, &self.master);
        let (_, secs) = ctx.tracer.time("runtime.place_copy", |_| {
            rt.place_copy(work.as_mut_slice(), master.as_slice())
        });
        if ctx.trace {
            ctx.sample("runtime.place_copy_gbs", gbs(2 * master.bytes(), secs));
        }
        work
    }

    /// One timed facade call: wall clock outside the call, result
    /// verified against the oracle. Returns the wall seconds.
    fn facade_rep(
        &mut self,
        ctx: &mut Ctx,
        metric: Option<&'static str>,
        span: &'static str,
        call: impl FnOnce(&Runtime, &Op, Grid3<f64>, usize) -> Result<Grid3<f64>, String>,
    ) -> Option<f64> {
        let input = self.fresh_input(ctx);
        let (rt, op, sweeps) = (&self.rt, &self.op, self.sweeps);
        let (result, secs) = ctx.tracer.time(span, |_| call(rt, op, input, sweeps));
        match result {
            Ok(out) => {
                let ok = fingerprint(ctx, &out) == self.oracle;
                ctx.check(ok, || {
                    format!("{span}: result differs from the sequential oracle")
                });
                self.work = Some(out);
                if let Some(metric) = metric {
                    ctx.sample(metric, self.lups / secs / 1e6);
                }
                Some(secs)
            }
            Err(e) => {
                ctx.fail(format!("{span}: {e}"));
                None
            }
        }
    }

    /// One direct executor call on a pre-built pair, verified.
    fn exec_cell(
        &mut self,
        ctx: &mut Ctx,
        pair: &mut GridPair<f64>,
        metric: &'static str,
        span: &'static str,
        per_cell: Duration,
        mut call: impl FnMut(&Runtime, &Op, &mut GridPair<f64>, usize) -> Result<RunStats, String>,
    ) {
        let t0 = std::time::Instant::now();
        let mut rep = 0;
        while rep == 0 || (rep < 5 && t0.elapsed() < per_cell) {
            rep += 1;
            pair.a_mut()
                .as_mut_slice()
                .copy_from_slice(self.master.as_slice());
            pair.b_mut()
                .as_mut_slice()
                .copy_from_slice(self.master.as_slice());
            let (rt, op, sweeps) = (&self.rt, &self.op, self.sweeps);
            let (result, secs) = ctx.tracer.time(span, |_| call(rt, op, pair, sweeps));
            match result {
                Ok(_) => {
                    let ok = fingerprint(ctx, pair.current(self.sweeps)) == self.oracle;
                    ctx.check(ok, || {
                        format!("{span}: result differs from the sequential oracle")
                    });
                    ctx.sample(metric, self.lups / secs / 1e6);
                }
                Err(e) => return ctx.fail(format!("{span}: {e}")),
            }
        }
    }

    /// Single-thread row kernel on an L2-resident pair (2 × 1.2 MiB for
    /// f64): the top rung, no memory traffic, no synchronisation.
    fn kernel_cells(&self, ctx: &mut Ctx) {
        fn row_mlups<T: Real, K: StencilOp<T>>(ctx: &mut Ctx, span: &'static str, op: &K) -> f64 {
            let dims = Dims3::new(128, 34, 34);
            let interior = Region3::interior_of(dims);
            let mut pair = GridPair::from_initial(init::random::<T>(dims, 1));
            let sweeps = 200;
            let mut best = 0.0f64;
            for _ in 0..3 {
                let (_, secs) = ctx.tracer.time(span, |_| {
                    for s in 0..sweeps {
                        let (src, dst) = pair.src_dst(s);
                        kernel::update_region_op(op, src, dst, &interior);
                    }
                });
                best = best.max((sweeps * interior.count()) as f64 / secs / 1e6);
            }
            std::hint::black_box(pair.a().get(1, 1, 1));
            best
        }
        let simd = row_mlups::<f64, _>(ctx, "stencil.update_region_op", &self.op);
        let scalar = row_mlups::<f64, _>(
            ctx,
            "stencil.update_region_op",
            &ScalarPath(self.op.clone()),
        );
        let f32_ = row_mlups::<f32, _>(ctx, "stencil.update_region_op", &self.op);
        ctx.sample("kernel.row_mlups", simd);
        ctx.sample("kernel.row_scalar_mlups", scalar);
        ctx.sample("kernel.simd_gain", simd / scalar);
        ctx.sample("kernel.row_f32_mlups", f32_);
        // Computed from operator metadata, not measured.
        ctx.sample(
            "kernel.flops_per_lup",
            StencilOp::<f64>::flops_per_lup(&self.op),
        );
        ctx.sample(
            "kernel.bytes_per_lup",
            StencilOp::<f64>::bytes_per_lup(&self.op, StoreMode::Normal),
        );
    }

    /// Cold tune, warm hit, and replay of the tuned plan.
    fn plan_cells(&mut self, ctx: &mut Ctx, params: MachineParams) {
        let cache = out_dir().join(format!("plan-cache-solve-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&cache);
        let opts = TuneOptions {
            cache_path: Some(cache.clone()),
            // The tuner measures at problem size; two candidates plus the
            // incumbent keep a cold tune inside the run's time budget.
            top_k: 2,
            params: Some(params),
            ..TuneOptions::default()
        };
        let mut tuned_plan = None;
        for pass in 0..3 {
            let input = self.fresh_input(ctx);
            let (rt, op, sweeps) = (&self.rt, &self.op, self.sweeps);
            let (result, secs) = ctx.tracer.time("facade.solve_tuned_with_on", |_| {
                solve_tuned_with_on(rt, op, input, sweeps, &opts)
            });
            let (out, _, tuned) = match result {
                Ok(r) => r,
                Err(e) => return ctx.fail(format!("solve_tuned_with_on: {e}")),
            };
            let ok = fingerprint(ctx, &out) == self.oracle;
            ctx.check(ok, || {
                "tuned solve differs from the sequential oracle".into()
            });
            self.work = Some(out);
            if pass == 0 {
                ctx.check(!tuned.cache_hit, || "cold tune hit a fresh cache".into());
                ctx.sample("plan.cold_tune_s", secs);
                ctx.sample("plan.measured", tuned.measurements as f64);
                if let Some(report) = &tuned.report {
                    ctx.sample("plan.enumerated", report.enumerated as f64);
                }
            } else {
                ctx.check(tuned.cache_hit && tuned.measurements == 0, || {
                    format!(
                        "warm tuned solve measured {} candidates",
                        tuned.measurements
                    )
                });
                ctx.sample("plan.tuned_mlups", self.lups / secs / 1e6);
            }
            tuned_plan = Some(tuned.plan);
        }
        let _ = std::fs::remove_file(&cache);
        let plan = tuned_plan.expect("three passes ran");
        let mut replay = Vec::new();
        for _ in 0..2 {
            replay.extend(
                self.facade_rep(ctx, None, "facade.run_plan_on", |rt, op, g, s| {
                    run_plan_on(rt, op, &plan, g, s).map(|(g, _)| g)
                }),
            );
        }
        ctx.ratio(
            "plan.tuned_over_default",
            "plan.tuned_mlups",
            "baseline_mlups",
        );
        if let (Some(tuned), false) = (ctx.median("plan.tuned_mlups"), replay.is_empty()) {
            let warm_s = self.lups / (tuned * 1e6);
            ctx.sample(
                "plan.warm_hit_overhead_ms",
                (warm_s - crate::stats::median(&replay)) * 1e3,
            );
        }
    }
}

impl<Op: StencilOp<f64> + StencilOp<f32>> CellGroup for State<Op> {
    fn min_sets(&self) -> usize {
        self.min_reps
    }

    fn set(&mut self, ctx: &mut Ctx) {
        let team = ctx.team;
        self.facade_rep(
            ctx,
            Some("baseline_mlups"),
            "facade.solve_with_on",
            |rt, op, g, s| {
                let method = Method::Parallel {
                    threads: team,
                    streaming_stores: false,
                };
                solve_with_on(rt, op, g, s, method).map(|(g, _)| g)
            },
        );
        for (metric, family) in [
            ("diamond_mlups", MethodFamily::Diamond),
            ("pipelined_mlups", MethodFamily::Pipelined),
        ] {
            let plan = default_plan(family, team);
            self.facade_rep(ctx, Some(metric), "facade.run_plan_on", |rt, op, g, s| {
                run_plan_on(rt, op, &plan, g, s).map(|(g, _)| g)
            });
        }
    }

    /// Warm-path contract: the timed sets allocate nothing.
    fn finish(&mut self, ctx: &mut Ctx) {
        let fresh = self.rt.grid_pool::<f64>().fresh_allocations() - self.fresh_before;
        ctx.check(fresh == 0, || {
            format!("runtime.pool_fresh = {fresh} over the timed sets")
        });
    }
}

impl<Op: StencilOp<f64> + StencilOp<f32>> SolveCells for State<Op> {
    fn layers(&mut self, ctx: &mut Ctx, budget: Duration) {
        let team = ctx.team;
        let dims = self.dims;
        let per_cell = budget / 16;
        self.kernel_cells(ctx);

        // grid / runtime rungs at this problem's size.
        let (g, secs) = ctx
            .tracer
            .time("grid.filled", |_| Grid3::<f64>::filled(dims, 1.0));
        ctx.sample(
            "grid.alloc_gib_s",
            g.bytes() as f64 / secs / (1u64 << 30) as f64,
        );
        drop(g);
        let rt = &self.rt;
        let (_, secs) = ctx.tracer.time("runtime.acquire_grid", |_| {
            for _ in 0..200 {
                let g = rt.acquire_grid::<f64>(dims);
                rt.grid_pool::<f64>().release(g);
            }
        });
        ctx.sample("runtime.acquire_hit_us", secs / 200.0 * 1e6);
        for i in 1..=3 {
            let odd = Dims3::new(dims.nx, dims.ny, dims.nz + i);
            let (g, secs) = ctx
                .tracer
                .time("runtime.acquire_grid", |_| rt.acquire_grid::<f64>(odd));
            ctx.sample("runtime.acquire_miss_ms", secs * 1e3);
            drop(g);
        }

        // Every executor called directly on one pre-built pair.
        let b = self.rt.acquire_grid::<f64>(dims);
        let a = self.work.take().unwrap_or_else(|| self.master.clone());
        let mut pair = GridPair::from_parts(a, b);
        let p = &mut pair;
        self.exec_cell(
            ctx,
            p,
            "baseline.seq_mlups",
            "stencil.seq_sweeps_op",
            per_cell,
            |_, op, pair, s| Ok(baseline::seq_sweeps_op(op, pair, s)),
        );
        for (metric, store) in [
            ("baseline.par_mlups", StoreMode::Normal),
            ("baseline.par_nt_mlups", StoreMode::Streaming),
        ] {
            self.exec_cell(
                ctx,
                p,
                metric,
                "stencil.par_sweeps_op_on",
                per_cell,
                |rt, op, pair, s| Ok(baseline::par_sweeps_op_on(rt, op, pair, s, team, store)),
            );
        }
        let tpt = if team.is_multiple_of(2) { 2 } else { 1 };
        for (metric, cfg) in [
            ("diamond.exec_mlups", DiamondConfig::with_width(team, 8)),
            ("diamond.w16_mlups", DiamondConfig::with_width(team, 16)),
            (
                "diamond.tpt2_mlups",
                DiamondConfig::with_width(team, 8).with_threads_per_tile(tpt),
            ),
        ] {
            self.exec_cell(
                ctx,
                p,
                metric,
                "stencil.run_diamond_op_on",
                per_cell,
                |rt, op, pair, s| diamond::run_diamond_op_on(rt, op, pair, &cfg, s),
            );
        }
        let relaxed = default_plan(MethodFamily::Pipelined, team)
            .pipeline_config()
            .expect("pipelined plans carry a pipeline config");
        let mut barrier = relaxed.clone();
        barrier.sync = SyncMode::Barrier;
        for (metric, cfg) in [
            ("pipeline.exec_mlups", &relaxed),
            ("pipeline.barrier_mlups", &barrier),
        ] {
            self.exec_cell(
                ctx,
                p,
                metric,
                "stencil.pipeline.run_op_on",
                per_cell,
                |rt, op, pair, s| pipeline::run_op_on(rt, op, pair, cfg, s),
            );
        }
        self.exec_cell(
            ctx,
            p,
            "wavefront.exec_mlups",
            "stencil.run_wavefront_op_on",
            per_cell,
            |rt, op, pair, s| wavefront::run_wavefront_op_on(rt, op, pair, team, s),
        );
        let (a, b) = pair.into_parts();
        self.work = Some(a);
        self.rt.grid_pool::<f64>().release(b);

        // Compressed-grid pipeline: its own storage, result expanded to
        // verify.
        let mut cfg = relaxed.clone();
        cfg.scheme = temporal_blocking::stencil::config::GridScheme::Compressed;
        let margin = cfg.stages();
        let storage = self
            .rt
            .acquire_grid(CompressedGrid::<f64>::alloc_dims_for(dims, margin));
        let mut cg = CompressedGrid::from_grid_in(&self.master, margin, storage);
        let (rt, op, sweeps) = (&self.rt, &self.op, self.sweeps);
        let (result, secs) = ctx
            .tracer
            .time("stencil.pipeline.run_compressed_op_on", |_| {
                pipeline::run_compressed_op_on(rt, op, &mut cg, &cfg, sweeps)
            });
        match result {
            Ok(_) => {
                let ok = fingerprint(ctx, &cg.to_grid()) == self.oracle;
                ctx.check(ok, || {
                    "compressed pipeline differs from the sequential oracle".into()
                });
                ctx.sample("pipeline.compressed_mlups", self.lups / secs / 1e6);
            }
            Err(e) => ctx.fail(format!("run_compressed_op_on: {e}")),
        }
        drop(cg);

        ctx.ratio(
            "baseline.scaling",
            "baseline.par_mlups",
            "baseline.seq_mlups",
        );
        ctx.ratio(
            "pipeline.relaxed_gain",
            "pipeline.exec_mlups",
            "pipeline.barrier_mlups",
        );
        ctx.ratio("diamond.speedup", "diamond_mlups", "baseline_mlups");

        // Facade rungs: what each wrapper adds over the call below it.
        let parallel = default_plan(MethodFamily::Parallel, team);
        let mut via_plan = Vec::new();
        for _ in 0..2 {
            via_plan.extend(
                self.facade_rep(ctx, None, "facade.run_plan_on", |rt, op, g, s| {
                    run_plan_on(rt, op, &parallel, g, s).map(|(g, _)| g)
                }),
            );
        }
        let oneshot = self.facade_rep(ctx, None, "facade.solve_with", |_, op, g, s| {
            let method = Method::Parallel {
                threads: team,
                streaming_stores: false,
            };
            solve_with(op, g, s, method).map(|(g, _)| g)
        });
        let wall = |mlups: f64| self.lups / (mlups * 1e6);
        if let (Some(solve), Some(par)) = (
            ctx.median("baseline_mlups"),
            ctx.median("baseline.par_mlups"),
        ) {
            ctx.sample("facade.solve_overhead_ms", (wall(solve) - wall(par)) * 1e3);
            if !via_plan.is_empty() {
                let via_plan = crate::stats::median(&via_plan);
                ctx.sample(
                    "facade.run_plan_overhead_ms",
                    (via_plan - wall(solve)) * 1e3,
                );
            }
            if let Some(oneshot) = oneshot {
                ctx.sample("facade.oneshot_overhead_ms", (oneshot - wall(solve)) * 1e3);
            }
        }

        // Model rungs: measured ÷ tb-model prediction from this run's
        // own ms1 / ms / mc.
        if let Some(params) = ctx.params {
            let op = &self.op;
            let predicted = |family| {
                plan::predicted_mlups::<f64, Op>(&params, op, dims, &default_plan(family, team))
            };
            for (metric, measured, family) in [
                (
                    "model.baseline_residual",
                    "baseline.par_mlups",
                    MethodFamily::Parallel,
                ),
                (
                    "model.diamond_residual",
                    "diamond.exec_mlups",
                    MethodFamily::Diamond,
                ),
                (
                    "model.pipeline_residual",
                    "pipeline.exec_mlups",
                    MethodFamily::Pipelined,
                ),
            ] {
                if let Some(m) = ctx.median(measured) {
                    ctx.sample(metric, m / predicted(family));
                }
            }
            if let Some(par) = ctx.median("baseline.par_mlups") {
                let bytes = StencilOp::<f64>::bytes_per_lup(&self.op, StoreMode::Normal);
                ctx.sample("baseline.ms_frac", par * 1e6 * bytes / params.ms);
            }
            self.plan_cells(ctx, params);
        }
    }
}
