//! The benchmark's definition as data: workloads, problem sizes, and
//! every metric with unit, direction and (end to end) regression bound.
//! `BENCHMARK.json` at the repo root is generated from this table
//! (`--print-benchmark-json`) and a self-test holds the two together.

use temporal_blocking::plan::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only; per-layer metrics carry no bound).
    pub bound: Option<f64>,
    /// The cell group that measures an end-to-end metric (`setup_s` is
    /// the whole workload's; per-layer metrics are not attributed).
    pub group: Option<Group>,
}

impl Metric {
    /// `true` for the end-to-end metrics a cell group samples once per
    /// rep or round: their reported value is the best-side decile of the
    /// samples (README "Reported value"). `setup_s` (three samples) and
    /// every per-layer metric report the median.
    pub fn reports_best_decile(&self) -> bool {
        self.bound.is_some() && self.group.is_some()
    }

    /// The one value of this metric a pass reports.
    pub fn reported(&self, s: &crate::stats::Summary) -> f64 {
        if self.reports_best_decile() {
            s.best_decile(self.better == Better::Higher)
        } else {
            s.median
        }
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    group: Option<Group>,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        group,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
        bound: None,
        group: None,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        group: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, wall clock outside the call, tracing
/// off. Every bound is the contract's maximum: the reference VM's speed
/// shifts under the benchmark, all cells together (README "Noise"), so
/// the spread of ten runs is 3-9 % in a quiet series and 8-11 % in a
/// drifting one, and a third of a bound has to stay above that.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25, None),
    e2e("baseline_mlups", "MLUP/s", Higher, 0.25, Some(Group::Solve)),
    e2e("diamond_mlups", "MLUP/s", Higher, 0.25, Some(Group::Solve)),
    e2e(
        "pipelined_mlups",
        "MLUP/s",
        Higher,
        0.25,
        Some(Group::Solve),
    ),
    e2e("dist_mlups", "MLUP/s", Higher, 0.25, Some(Group::Dist)),
    e2e(
        "dist_overlap_mlups",
        "MLUP/s",
        Higher,
        0.25,
        Some(Group::Dist),
    ),
    e2e("jobs_per_s", "jobs/s", Higher, 0.25, Some(Group::Serve)),
    e2e("job_p50_ms", "ms", Lower, 0.25, Some(Group::Serve)),
    e2e("job_p95_ms", "ms", Lower, 0.25, Some(Group::Serve)),
];

/// One rung per layer (crate or module), from the traced pass.
pub const PER_LAYER: &[Metric] = &[
    // membench — the ceilings the fractions below divide by.
    hi("membench.ms1_gbs", "GB/s"),
    hi("membench.ms_gbs", "GB/s"),
    hi("membench.mc_gbs", "GB/s"),
    // grid
    hi("grid.alloc_gib_s", "GiB/s"),
    hi("grid.copy_gbs", "GB/s"),
    hi("grid.fingerprint_gbs", "GB/s"),
    lo("grid.init_random_s", "s"),
    // topology
    lo("topology.detect_ms", "ms"),
    // sync
    lo("sync.barrier_ns", "ns"),
    lo("sync.barrier_parked_us", "us"),
    // runtime
    lo("runtime.spawn_ms", "ms"),
    lo("runtime.dispatch_us", "us"),
    lo("runtime.dispatch_parked_us", "us"),
    lo("runtime.acquire_hit_us", "us"),
    lo("runtime.acquire_miss_ms", "ms"),
    hi("runtime.place_copy_gbs", "GB/s"),
    // stencil.kernel
    hi("kernel.row_mlups", "MLUP/s"),
    hi("kernel.row_scalar_mlups", "MLUP/s"),
    hi("kernel.simd_gain", "ratio"),
    hi("kernel.row_f32_mlups", "MLUP/s"),
    lo("kernel.flops_per_lup", "flop/LUP"),
    lo("kernel.bytes_per_lup", "B/LUP"),
    // stencil.baseline
    hi("baseline.seq_mlups", "MLUP/s"),
    hi("baseline.par_mlups", "MLUP/s"),
    hi("baseline.par_nt_mlups", "MLUP/s"),
    hi("baseline.scaling", "ratio"),
    hi("baseline.ms_frac", "ratio"),
    // stencil.diamond
    hi("diamond.exec_mlups", "MLUP/s"),
    hi("diamond.w16_mlups", "MLUP/s"),
    hi("diamond.tpt2_mlups", "MLUP/s"),
    hi("diamond.speedup", "ratio"),
    // stencil.pipeline
    hi("pipeline.exec_mlups", "MLUP/s"),
    hi("pipeline.barrier_mlups", "MLUP/s"),
    hi("pipeline.relaxed_gain", "ratio"),
    hi("pipeline.compressed_mlups", "MLUP/s"),
    // stencil.wavefront
    hi("wavefront.exec_mlups", "MLUP/s"),
    // model — measured ÷ predicted; 1.0 is a perfect model.
    hi("model.baseline_residual", "ratio"),
    hi("model.diamond_residual", "ratio"),
    hi("model.pipeline_residual", "ratio"),
    // plan
    lo("plan.cold_tune_s", "s"),
    lo("plan.enumerated", "count"),
    lo("plan.measured", "count"),
    hi("plan.tuned_mlups", "MLUP/s"),
    hi("plan.tuned_over_default", "ratio"),
    lo("plan.warm_hit_overhead_ms", "ms"),
    // facade
    lo("facade.solve_overhead_ms", "ms"),
    lo("facade.run_plan_overhead_ms", "ms"),
    lo("facade.oneshot_overhead_ms", "ms"),
    // net
    lo("net.pingpong_us", "us"),
    hi("net.bandwidth_gbs", "GB/s"),
    lo("net.barrier_us", "us"),
    // dist
    lo("dist.setup_ms", "ms"),
    hi("dist.pack_x_gbs", "GB/s"),
    hi("dist.pack_z_gbs", "GB/s"),
    hi("dist.unpack_x_gbs", "GB/s"),
    hi("dist.unpack_z_gbs", "GB/s"),
    lo("dist.halo_bytes", "bytes"),
    lo("dist.cycles", "count"),
    hi("dist.compute_only_mlups", "MLUP/s"),
    lo("dist.exchange_share", "ratio"),
    hi("dist.zsplit_mlups", "MLUP/s"),
    hi("dist.h1_mlups", "MLUP/s"),
    hi("dist.efficiency", "ratio"),
    lo("dist.gather_ms", "ms"),
    // serve
    lo("serve.start_ms", "ms"),
    lo("serve.submit_us", "us"),
    lo("serve.admission_ms_p50", "ms"),
    lo("serve.queue_ms_p50", "ms"),
    lo("serve.queue_ms_p95", "ms"),
    lo("serve.service_ms_p50", "ms"),
    lo("serve.service_ms_p99", "ms"),
    lo("serve.handoff_ms_p50", "ms"),
    hi("serve.busy_frac", "ratio"),
    hi("serve.direct_jobs_per_s", "jobs/s"),
    lo("serve.tax", "ratio"),
    lo("serve.open_p50_ms.r300", "ms"),
    lo("serve.open_p99_ms.r300", "ms"),
    lo("serve.open_p50_ms.r600", "ms"),
    lo("serve.open_p99_ms.r600", "ms"),
    lo("serve.open_late_ms", "ms"),
    hi("serve.max_rate_ok", "jobs/s"),
    lo("serve.big_job_tax_ms", "ms"),
    // trace
    lo("trace.overhead_frac", "ratio"),
    lo("trace.spans", "count"),
];

pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The stencil operator a solve problem applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Jacobi6,
    Avg27,
}

/// One solve problem: `sweeps` sweeps of `op` on an `edge`³ f64 grid.
#[derive(Clone, Copy, Debug)]
pub struct SolveProblem {
    pub op: OpKind,
    pub edge: usize,
    pub sweeps: usize,
    pub min_reps: usize,
}

/// Jacobi6 on a global `edge`³ grid split `[2,1,1]` with halo width 4.
#[derive(Clone, Copy, Debug)]
pub struct DistProblem {
    pub edge: usize,
    pub sweeps: usize,
    pub min_reps: usize,
}

/// Closed-loop rounds of `jobs_per_round` jobs — the 240-spec mix in
/// turn, shuffled; `open_s` seconds per open-loop phase in the traced pass.
#[derive(Clone, Copy, Debug)]
pub struct ServeProblem {
    pub jobs_per_round: usize,
    pub min_rounds: usize,
    pub open_s: f64,
    /// Edge of the one "big" job `serve.big_job_tax_ms` times.
    pub big_edge: usize,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Group {
    Solve,
    Dist,
    Serve,
}

/// A workload runs one cell group at full size — the group whose
/// metrics ISSUE 11 assigns to it — and the other two as short *control
/// cells* on small fixed problems, because the driver's contract wants every
/// end-to-end metric from every run. See README "Control cells".
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub native: Group,
    pub solve: SolveProblem,
    pub dist: DistProblem,
    pub serve: ServeProblem,
    /// `MemAvailable` below which the workload refuses to run.
    pub min_mem_mib: u64,
}

const SOLVE_CONTROL: SolveProblem = SolveProblem {
    op: OpKind::Jacobi6,
    edge: 96,
    sweeps: 8,
    min_reps: 2,
};
const DIST_CONTROL: DistProblem = DistProblem {
    edge: 96,
    sweeps: 16,
    min_reps: 2,
};
const SERVE_CONTROL: ServeProblem = ServeProblem {
    jobs_per_round: 240,
    min_rounds: 2,
    open_s: 0.3,
    big_edge: 64,
};
/// `--smoke` sizes of the dist and serve groups.
const DIST_SMOKE: DistProblem = DistProblem {
    edge: 48,
    sweeps: 32,
    min_reps: 2,
};
const SERVE_SMOKE: ServeProblem = ServeProblem {
    jobs_per_round: 200,
    min_rounds: 2,
    open_s: 0.3,
    big_edge: 64,
};

/// Share of `--seconds` the native group measures for; the two control
/// groups split the rest.
pub const NATIVE_SHARE: f64 = 0.7;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "stream-j6",
        why: "Jacobi6 288^3 x 8 sweeps, DRAM-bound: executors, store policy, placement and \
              the facade's per-solve place_copy matter; the row kernel does not",
        native: Group::Solve,
        solve: SolveProblem {
            op: OpKind::Jacobi6,
            edge: 288,
            sweeps: 8,
            min_reps: 5,
        },
        dist: DIST_CONTROL,
        serve: SERVE_CONTROL,
        min_mem_mib: 2048,
    },
    Workload {
        name: "cache-a27",
        why: "Avg27 64^3 x 250 sweeps, L2-resident: SIMD row kernel and one barrier per \
              sweep dominate; temporal blocking and NT stores must show no gain",
        native: Group::Solve,
        solve: SolveProblem {
            op: OpKind::Avg27,
            edge: 64,
            sweeps: 250,
            min_reps: 7,
        },
        dist: DIST_CONTROL,
        serve: SERVE_CONTROL,
        min_mem_mib: 512,
    },
    Workload {
        name: "dist-x2",
        why: "Jacobi6 128^3 split [2,1,1] h=4, 2 ranks x Seq, 32 sweeps: every halo face is \
              strided, so pack/unpack/exchange get their largest share; team executors bypassed",
        native: Group::Dist,
        solve: SOLVE_CONTROL,
        dist: DistProblem {
            edge: 128,
            sweeps: 32,
            min_reps: 5,
        },
        serve: SERVE_CONTROL,
        min_mem_mib: 1024,
    },
    Workload {
        name: "serve-mix",
        why: "closed loop of sub-millisecond mixed jobs (4 ops, 4 edges, f64/f32, 5 methods): \
              dispatch, pool, plan-cache hit and queue hand-off dominate; bandwidth irrelevant",
        native: Group::Serve,
        solve: SOLVE_CONTROL,
        dist: DIST_CONTROL,
        serve: ServeProblem {
            jobs_per_round: 480,
            min_rounds: 3,
            open_s: 2.0,
            big_edge: 192,
        },
        min_mem_mib: 512,
    },
];

/// `--smoke`: every group tiny (96³ / 32³ / 48³ / 200 jobs), for
/// self-tests only.
pub fn smoke(mut w: Workload) -> Workload {
    w.solve = SolveProblem {
        op: w.solve.op,
        edge: if w.solve.op == OpKind::Avg27 { 32 } else { 96 },
        sweeps: if w.solve.op == OpKind::Avg27 { 200 } else { 8 },
        min_reps: 2,
    };
    w.dist = DIST_SMOKE;
    w.serve = SERVE_SMOKE;
    w.min_mem_mib = 256;
    w
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Seconds one driver run measures for.
pub const RUN_SECONDS: usize = 24;

/// The `BENCHMARK.json` document this table defines.
pub fn benchmark_json() -> Json {
    let metric = |m: &Metric| {
        let mut pairs = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.name())),
        ];
        if let Some(b) = m.bound {
            pairs.push(("bound", Json::Num(b)));
        }
        Json::obj(pairs)
    };
    Json::obj(vec![
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--offline",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .iter()
                .map(|s| Json::str(*s))
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::usize(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn table_respects_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = metric("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for w in WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn benchmark_json_at_the_repo_root_matches_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
        // Round-trip through the writer so number formatting is equal.
        let want = Json::parse(&benchmark_json().to_json()).unwrap();
        assert_eq!(on_disk, want, "regenerate with --print-benchmark-json");
        assert!(text.len() <= 64 * 1024);
    }
}
