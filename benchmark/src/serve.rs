//! The serve cell group: a seeded mix of sub-millisecond solve jobs
//! through one [`Server`] (FIFO, default config), closed loop with a
//! window of four jobs and one generator thread. Dispatch/park, the
//! pool, plan-cache hits and the queue hand-off dominate; kernels run in
//! cache and stream bandwidth is irrelevant. The traced pass adds
//! open-loop Poisson phases and the direct (no server) loop.
//! `serve-mix` runs it at full size.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use temporal_blocking::grid::init;
use temporal_blocking::membench;
use temporal_blocking::plan::{default_plan, MethodFamily};
use temporal_blocking::prelude::*;
use temporal_blocking::topology::Machine;
use temporal_blocking::{run_plan_on, solve_tuned_with_on, TuneOptions};

use crate::ctx::{out_dir, CellGroup, Ctx};
use crate::rng::Rng;
use crate::spec::ServeProblem;
use crate::stats::{median, percentile};

/// Jobs in flight in the closed loop.
const WINDOW: usize = 4;
const SWEEPS: usize = 8;
const EDGES: [usize; 4] = [16, 24, 32, 48];
/// Fixed open-loop arrival rates (jobs/s) and the latency limit on p99.
const OPEN_RATES: [(f64, &str, &str); 2] = [
    (300.0, "serve.open_p50_ms.r300", "serve.open_p99_ms.r300"),
    (600.0, "serve.open_p50_ms.r600", "serve.open_p99_ms.r600"),
];
const OPEN_P99_LIMIT_MS: f64 = 20.0;
const ADMIT_TIMEOUT: Duration = Duration::from_secs(60);
/// Jobs per round whose `JobReport` is rebuilt into spans.
const SPANNED_JOBS: usize = 500;

/// The 240 specs: 4 ops × 4 edges × 5 methods, three times over with
/// every third spec in f32, inputs from `init::random(dims, seed + i)`.
pub fn job_mix(seed: u64, slice_threads: usize, tuned: &TuneOptions) -> Vec<JobSpec> {
    let ops = [
        JobOp::Jacobi6,
        JobOp::Jacobi7Heat(0.1),
        JobOp::VarCoeff7Banded,
        JobOp::Avg27,
    ];
    (0..240)
        .map(|i| {
            let dims = Dims3::cube(EDGES[(i / 4) % 4]);
            let input_seed = seed + 1000 + i as u64;
            let payload = if i % 3 == 2 {
                JobPayload::F32(init::random(dims, input_seed))
            } else {
                JobPayload::F64(init::random(dims, input_seed))
            };
            let method = match (i / 16) % 5 {
                0 => JobMethod::Fixed(Method::Sequential),
                1 => JobMethod::Fixed(Method::Parallel {
                    threads: slice_threads,
                    streaming_stores: false,
                }),
                2 => JobMethod::Fixed(Method::Diamond(DiamondConfig::with_width(slice_threads, 8))),
                3 => JobMethod::Fixed(Method::Blocked { block: [16, 8, 8] }),
                _ => JobMethod::Tuned(tuned.clone()),
            };
            let mut spec = JobSpec::new(ops[i % 4], payload, SWEEPS, method);
            spec.tag = i as u64;
            spec
        })
        .collect()
}

/// Which spec each job of a round runs: the specs in turn (`i % specs`),
/// shuffled. A round of `k × specs` jobs therefore runs every spec
/// exactly `k` times — seed and round change the order, never the work,
/// so rounds differ by what the server does and not by what was drawn.
pub fn job_order(seed: u64, round: u64, jobs: usize, specs: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ round.wrapping_mul(0xA076_1D64_78BD_642F));
    let mut order: Vec<usize> = (0..jobs).map(|i| i % specs).collect();
    for i in (1..jobs).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// Poisson arrival times (seconds from phase start) at `rate` jobs/s.
pub fn arrivals(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed ^ rate.to_bits());
    let mut t = 0.0;
    std::iter::from_fn(|| {
        t += rng.exponential(1.0 / rate);
        (t < seconds).then_some(t)
    })
    .collect()
}

/// Run `spec` without a server: sequentially (`rt = None`, the oracle)
/// or on a runtime with the spec's own method.
fn solve_spec(rt: Option<&Runtime>, spec: &JobSpec) -> Result<JobPayload, String> {
    fn with_op<T: Real>(
        rt: Option<&Runtime>,
        spec: &JobSpec,
        grid: Grid3<T>,
    ) -> Result<Grid3<T>, String> {
        fn go<T: Real, Op: StencilOp<T>>(
            rt: Option<&Runtime>,
            spec: &JobSpec,
            op: &Op,
            grid: Grid3<T>,
        ) -> Result<Grid3<T>, String> {
            let solved = match (rt, &spec.method) {
                (None, _) => solve_with(op, grid, spec.sweeps, Method::Sequential),
                (Some(rt), JobMethod::Fixed(m)) => {
                    solve_with_on(rt, op, grid, spec.sweeps, m.clone())
                }
                (Some(rt), JobMethod::Tuned(opts)) => {
                    return solve_tuned_with_on(rt, op, grid, spec.sweeps, opts).map(|(g, _, _)| g)
                }
            };
            solved.map(|(g, _)| g)
        }
        match spec.op {
            JobOp::Jacobi6 => go(rt, spec, &Jacobi6, grid),
            JobOp::Jacobi7Heat(k) => go(rt, spec, &Jacobi7::heat(k), grid),
            JobOp::VarCoeff7Banded => go(rt, spec, &VarCoeff7::<T>::banded(grid.dims()), grid),
            JobOp::Avg27 => go(rt, spec, &Avg27, grid),
            other => Err(format!("job mix never contains {}", other.name())),
        }
    }
    match &spec.payload {
        JobPayload::F64(g) => with_op(rt, spec, g.clone()).map(JobPayload::F64),
        JobPayload::F32(g) => with_op(rt, spec, g.clone()).map(JobPayload::F32),
    }
}

pub struct ServeCells {
    problem: ServeProblem,
    machine: Machine,
    server: Server,
    slice_threads: usize,
    specs: Vec<JobSpec>,
    /// Sequential-oracle fingerprint per spec.
    oracles: Vec<u64>,
    plan_cache: std::path::PathBuf,
    rounds_run: u64,
}

/// One finished job as its client saw it.
struct Done {
    spec: usize,
    submitted: Instant,
    /// `submit_blocking` entry → `wait()` return.
    client_s: f64,
    /// Time inside the submit call.
    submit_s: f64,
    report: JobReport,
}

struct Round {
    wall_s: f64,
    done: Vec<Done>,
}

impl Drop for ServeCells {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.plan_cache);
    }
}

impl ServeCells {
    /// Set-up: membench for the tuned jobs' fingerprint, server start,
    /// the specs and their oracles, and a warm pass (cold tunes, pools).
    pub fn setup(ctx: &mut Ctx, machine: &Machine, problem: ServeProblem) -> ServeCells {
        static SERIAL: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let serial = SERIAL.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let plan_cache = out_dir().join(format!(
            "plan-cache-serve-{}-{serial}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&plan_cache);
        let (params, _) = ctx.tracer.time("membench.calibrate_host", |_| {
            membench::calibrate_host(machine, membench::CalibrationProfile::quick())
        });
        let cfg = ServerConfig {
            policy: SchedPolicy::Fifo,
            ..ServerConfig::default()
        };
        let (server, start_s) = ctx
            .tracer
            .time("serve.Server.new", |_| Server::new(machine, cfg));
        if ctx.trace {
            ctx.sample("serve.start_ms", start_s * 1e3);
        }
        let slice_threads = server.slices().iter().map(|s| s.threads).min().unwrap_or(1);
        let tuned = TuneOptions {
            cache_path: Some(plan_cache.clone()),
            params: Some(params),
            ..TuneOptions::default()
        };
        let specs = job_mix(ctx.seed, slice_threads, &tuned);
        let mut oracles = Vec::with_capacity(specs.len());
        for spec in &specs {
            match solve_spec(None, spec) {
                Ok(p) => oracles.push(ctx.oracle(p.fingerprint())),
                Err(e) => {
                    ctx.fail(format!("oracle of spec {}: {e}", spec.tag));
                    oracles.push(0);
                }
            }
        }
        let cells = ServeCells {
            problem,
            machine: machine.clone(),
            server,
            slice_threads,
            specs,
            oracles,
            plan_cache,
            rounds_run: 0,
        };
        // Warm pass: every spec once, so tuned plans are cached and the
        // slice pools hold every shape before the first timed round.
        let order: Vec<usize> = (0..cells.specs.len()).collect();
        let warm = cells.closed_round(ctx, &order);
        cells.verify(ctx, &warm, false);
        cells
    }

    /// Closed loop: `WINDOW` jobs in flight, the next one is submitted
    /// when the oldest returns. Latency runs from `submit_blocking`
    /// entry to `wait()` return.
    fn closed_round(&self, ctx: &mut Ctx, order: &[usize]) -> Round {
        let mut inflight: VecDeque<(usize, Instant, f64, JobHandle)> =
            VecDeque::with_capacity(WINDOW);
        let mut done = Vec::with_capacity(order.len());
        let mut reap =
            |ctx: &mut Ctx,
             (spec, submitted, submit_s, handle): (usize, Instant, f64, JobHandle)| {
                match handle.wait() {
                    Ok((_, report)) => done.push(Done {
                        spec,
                        submitted,
                        client_s: submitted.elapsed().as_secs_f64(),
                        submit_s,
                        report,
                    }),
                    Err(e) => ctx.fail(format!("job of spec {spec} failed: {e}")),
                }
            };
        let t0 = Instant::now();
        for &spec in order {
            if inflight.len() == WINDOW {
                let oldest = inflight.pop_front().expect("window is full");
                reap(ctx, oldest);
            }
            let job = self.specs[spec].clone();
            let submitted = Instant::now();
            match self.server.submit_blocking(job, ADMIT_TIMEOUT) {
                Ok(handle) => {
                    let submit_s = submitted.elapsed().as_secs_f64();
                    inflight.push_back((spec, submitted, submit_s, handle));
                }
                Err(_) => ctx.fail(format!("job of spec {spec} was rejected")),
            }
        }
        for job in inflight {
            reap(ctx, job);
        }
        Round {
            wall_s: t0.elapsed().as_secs_f64(),
            done,
        }
    }

    /// Check every job of a round against its oracle; `warm` rounds must
    /// also allocate nothing and tune nothing.
    fn verify(&self, ctx: &mut Ctx, round: &Round, warm: bool) {
        let (mut fresh, mut measured) = (0u64, 0usize);
        for d in &round.done {
            let ok = d.report.verify_hash == self.oracles[d.spec];
            ctx.check(ok, || {
                format!("job of spec {} differs from the sequential oracle", d.spec)
            });
            fresh += d.report.pool_fresh;
            measured += d.report.tuned.as_ref().map_or(0, |t| t.measurements);
        }
        if warm {
            ctx.check(fresh == 0, || {
                format!("serve.pool_fresh = {fresh} in a warm round")
            });
            ctx.check(measured == 0, || {
                format!("serve.warm_measurements = {measured} in a warm round")
            });
        }
    }

    /// Rebuild the first jobs' server-side timeline from `JobReport`.
    fn rebuild_spans(&self, ctx: &mut Ctx, round: &Round) {
        if !ctx.tracer.enabled() {
            return;
        }
        for (i, d) in round.done.iter().take(SPANNED_JOBS).enumerate() {
            let lane = 100 + (i % WINDOW) as u32;
            let request = ctx.tracer.next_request();
            let ns = |d: Duration| d.as_nanos() as u64;
            let t0 = ctx.tracer.ns_of(d.submitted);
            let job = ctx.tracer.add(
                "serve.job",
                lane,
                request,
                t0,
                t0 + (d.client_s * 1e9) as u64,
                None,
            );
            let r = &d.report;
            let admitted = t0 + ns(r.admission_wait);
            let picked = admitted + ns(r.queue_wait);
            let finished = picked + ns(r.service);
            ctx.tracer
                .add("serve.admission_wait", lane, request, t0, admitted, job);
            ctx.tracer
                .add("serve.queue_wait", lane, request, admitted, picked, job);
            let service = ctx
                .tracer
                .add("serve.service", lane, request, picked, finished, job);
            ctx.tracer.add(
                "serve.ingest",
                lane,
                request,
                picked,
                picked + ns(r.ingest),
                service,
            );
            ctx.tracer.add(
                "serve.egress",
                lane,
                request,
                finished - ns(r.egress).min(ns(r.service)),
                finished,
                service,
            );
        }
    }

    /// Per-layer rungs of serve (traced pass only).
    pub fn layers(&mut self, ctx: &mut Ctx) {
        self.direct_loop(ctx);
        self.open_loop(ctx);
        self.big_job(ctx);
    }

    /// The same jobs through the facade in a plain loop: what the server
    /// adds on top (`serve.tax`). The loop rebuilds the banded
    /// coefficient grid per job, which the server caches per shape.
    fn direct_loop(&mut self, ctx: &mut Ctx) {
        let sub = self.machine.restrict(&self.server.slices()[0].cores);
        let rt = Runtime::new(&TeamLayout::new(&sub, self.slice_threads, 1)).with_pool_capacity(16);
        // Tuned specs must hit the plans the server's slice tuned.
        let specs: Vec<JobSpec> = self
            .specs
            .iter()
            .map(|s| {
                let mut s = s.clone();
                if let JobMethod::Tuned(opts) = &mut s.method {
                    opts.machine = Some(sub.clone());
                }
                s
            })
            .collect();
        let jobs = self.problem.jobs_per_round.min(2000);
        let order = job_order(ctx.seed, 0, jobs, specs.len());
        for pass in 0..2 {
            let (solved, secs) = ctx.tracer.time("facade.solve_with_on", |_| {
                order
                    .iter()
                    .map(|&i| (i, solve_spec(Some(&rt), &specs[i]).map(|p| p.fingerprint())))
                    .collect::<Vec<_>>()
            });
            if pass == 0 {
                continue; // warms this runtime's pool
            }
            for (i, fp) in solved {
                let ok = fp.as_ref().is_ok_and(|fp| *fp == self.oracles[i]);
                ctx.check(ok, || format!("direct solve of spec {i}: {fp:?}"));
            }
            ctx.sample("serve.direct_jobs_per_s", jobs as f64 / secs);
        }
        if let (Some(served), Some(direct)) = (
            ctx.median("jobs_per_s"),
            ctx.median("serve.direct_jobs_per_s"),
        ) {
            ctx.sample("serve.tax", 1.0 - served / direct);
        }
    }

    /// Open loop: jobs are due on a Poisson schedule whatever the server
    /// does; latency runs from the due time, so a stall is charged to
    /// every job it delays. The generator only sleeps and submits.
    fn open_loop(&mut self, ctx: &mut Ctx) {
        let mut max_ok = 0.0f64;
        let mut late_ms = Vec::new();
        for (rate, p50, p99) in OPEN_RATES {
            let due = arrivals(ctx.seed, rate, self.problem.open_s);
            let order = job_order(ctx.seed, rate as u64, due.len(), self.specs.len());
            let mut inflight: VecDeque<(usize, f64, JobHandle)> = VecDeque::new();
            let mut latency_ms = Vec::with_capacity(due.len());
            let mut reap =
                |ctx: &mut Ctx, (spec, lateness, handle): (usize, f64, JobHandle)| match handle
                    .wait()
                {
                    Ok((_, report)) => {
                        let ok = report.verify_hash == self.oracles[spec];
                        ctx.check(ok, || {
                            format!("open-loop job of spec {spec} differs from the oracle")
                        });
                        latency_ms.push((lateness + report.latency().as_secs_f64()) * 1e3);
                    }
                    Err(e) => ctx.fail(format!("open-loop job of spec {spec} failed: {e}")),
                };
            let t0 = Instant::now();
            for (&due_s, &spec) in due.iter().zip(&order) {
                let job = self.specs[spec].clone();
                if let Some(wait) = Duration::from_secs_f64(due_s).checked_sub(t0.elapsed()) {
                    std::thread::sleep(wait);
                }
                let lateness = t0.elapsed().as_secs_f64() - due_s;
                late_ms.push(lateness * 1e3);
                match self.server.submit(job) {
                    Ok(handle) => inflight.push_back((spec, lateness, handle)),
                    // A shed job misses every latency limit.
                    Err(_) => ctx.fail(format!(
                        "open-loop job of spec {spec} was shed at {rate} jobs/s"
                    )),
                }
                while inflight.front().is_some_and(|(_, _, h)| h.is_done()) {
                    let finished = inflight.pop_front().expect("front exists");
                    reap(ctx, finished);
                }
            }
            let backlog = self.server.queue_len();
            for job in inflight {
                reap(ctx, job);
            }
            if latency_ms.is_empty() {
                continue;
            }
            let tail = percentile(&latency_ms, 99.0);
            ctx.sample(p50, median(&latency_ms));
            ctx.sample(p99, tail);
            if tail <= OPEN_P99_LIMIT_MS && backlog <= WINDOW && latency_ms.len() == due.len() {
                max_ok = max_ok.max(rate);
            }
        }
        ctx.sample("serve.max_rate_ok", max_ok);
        if !late_ms.is_empty() {
            ctx.sample("serve.open_late_ms", median(&late_ms));
        }
    }

    /// One job far larger than the mix, through the server and directly.
    fn big_job(&mut self, ctx: &mut Ctx) {
        let dims = Dims3::cube(self.problem.big_edge);
        let input = init::random::<f64>(dims, ctx.seed + 3);
        let plan = default_plan(MethodFamily::Diamond, self.slice_threads);
        let sub = self.machine.restrict(&self.server.slices()[0].cores);
        let rt = Runtime::new(&TeamLayout::new(&sub, self.slice_threads, 1));
        let mut direct = Vec::new();
        let mut served = Vec::new();
        let mut want;
        for _ in 0..3 {
            let g = input.clone();
            let (result, secs) = ctx.tracer.time("facade.run_plan_on", |_| {
                run_plan_on(&rt, &Jacobi6, &plan, g, SWEEPS)
            });
            match result {
                Ok((g, _)) => {
                    want = JobPayload::F64(g).fingerprint();
                    direct.push(secs);
                }
                Err(e) => return ctx.fail(format!("big job direct: {e}")),
            }
            let method = JobMethod::Fixed(Method::Diamond(
                plan.diamond_config().expect("diamond plan"),
            ));
            let spec = JobSpec::new(
                JobOp::Jacobi6,
                JobPayload::F64(input.clone()),
                SWEEPS,
                method,
            );
            let t0 = Instant::now();
            let outcome = self
                .server
                .submit_blocking(spec, ADMIT_TIMEOUT)
                .map_err(|_| "rejected".to_string())
                .and_then(|h| h.wait().map_err(|e| e.to_string()));
            let client_s = t0.elapsed().as_secs_f64();
            match outcome {
                Ok((_, report)) => {
                    ctx.check(report.verify_hash == want, || {
                        "big job differs from the direct solve".into()
                    });
                    served.push(client_s);
                }
                Err(e) => return ctx.fail(format!("big job: {e}")),
            }
        }
        // The first pass of each side pays its pool miss; keep the rest.
        ctx.sample(
            "serve.big_job_tax_ms",
            (median(&served[1..]) - median(&direct[1..])) * 1e3,
        );
    }
}

impl CellGroup for ServeCells {
    fn min_sets(&self) -> usize {
        self.problem.min_rounds
    }

    /// One closed-loop round: `jobs_per_s`, and `job_p50_ms` /
    /// `job_p95_ms` pooled over the round's jobs.
    fn set(&mut self, ctx: &mut Ctx) {
        let slices = self.server.slices().len() as f64;
        self.rounds_run += 1;
        let order = job_order(
            ctx.seed,
            self.rounds_run,
            self.problem.jobs_per_round,
            self.specs.len(),
        );
        let round = self.closed_round(ctx, &order);
        self.verify(ctx, &round, true);
        self.rebuild_spans(ctx, &round);
        if round.done.is_empty() {
            return;
        }
        let ms = |f: &dyn Fn(&Done) -> f64| -> Vec<f64> {
            round.done.iter().map(|d| f(d) * 1e3).collect()
        };
        let client = ms(&|d| d.client_s);
        ctx.sample("jobs_per_s", round.done.len() as f64 / round.wall_s);
        ctx.sample("job_p50_ms", median(&client));
        ctx.sample("job_p95_ms", percentile(&client, 95.0));
        if ctx.trace {
            let service = ms(&|d| d.report.service.as_secs_f64());
            let queue = ms(&|d| d.report.queue_wait.as_secs_f64());
            ctx.sample("serve.submit_us", median(&ms(&|d| d.submit_s)) * 1e3);
            ctx.sample(
                "serve.admission_ms_p50",
                median(&ms(&|d| d.report.admission_wait.as_secs_f64())),
            );
            ctx.sample("serve.queue_ms_p50", median(&queue));
            ctx.sample("serve.queue_ms_p95", percentile(&queue, 95.0));
            ctx.sample("serve.service_ms_p50", median(&service));
            ctx.sample("serve.service_ms_p99", percentile(&service, 99.0));
            ctx.sample(
                "serve.handoff_ms_p50",
                median(&ms(&|d| d.client_s - d.report.latency().as_secs_f64())),
            );
            let busy: f64 = round
                .done
                .iter()
                .map(|d| d.report.service.as_secs_f64())
                .sum();
            ctx.sample("serve.busy_frac", busy / (round.wall_s * slices));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_mix_and_schedules_depend_on_the_seed_only() {
        let tuned = TuneOptions::default();
        let fp = |seed| -> Vec<u64> {
            job_mix(seed, 2, &tuned)
                .iter()
                .map(|s| s.payload.fingerprint())
                .collect()
        };
        assert_eq!(fp(7), fp(7));
        assert_ne!(fp(7), fp(8));
        let mix = job_mix(7, 2, &tuned);
        assert_eq!(mix.len(), 240);
        assert_eq!(
            mix.iter().filter(|s| s.payload.element() == "f32").count(),
            80
        );
        assert_eq!(
            mix.iter()
                .filter(|s| matches!(s.method, JobMethod::Tuned(_)))
                .count(),
            48
        );
        // Every (op, edge, method) combination appears three times.
        let combos: std::collections::HashSet<_> = (0..240)
            .map(|i| (i % 4, (i / 4) % 4, (i / 16) % 5))
            .collect();
        assert_eq!(combos.len(), 80);

        assert_eq!(job_order(7, 1, 500, 240), job_order(7, 1, 500, 240));
        assert_ne!(job_order(7, 1, 500, 240), job_order(8, 1, 500, 240));
        assert_ne!(job_order(7, 1, 500, 240), job_order(7, 2, 500, 240));
        assert!(job_order(7, 1, 500, 240).iter().all(|&i| i < 240));
        // A round of k x 240 jobs runs every spec exactly k times.
        let mut twice = job_order(7, 3, 480, 240);
        twice.sort_unstable();
        assert!(twice.iter().enumerate().all(|(i, &spec)| spec == i / 2));

        let a = arrivals(7, 300.0, 2.0);
        assert_eq!(a, arrivals(7, 300.0, 2.0));
        assert_ne!(a, arrivals(8, 300.0, 2.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]) && *a.last().unwrap() < 2.0);
        // A Poisson process at 300/s over 2 s: 600 ± a few sigma (24.5).
        assert!((a.len() as f64 - 600.0).abs() < 125.0, "{}", a.len());
    }
}
