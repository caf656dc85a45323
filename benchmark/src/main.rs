//! The repo benchmark (ISSUE 11): four named workloads, nine end-to-end
//! metrics plus the failure tally, a per-layer ladder and a bench-side
//! trace. Every layer is measured from outside, through the public API
//! of the root `temporal-blocking` package; nothing in the library is
//! touched. See `benchmark/README.md`.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --workload all --seed 1
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --workload dist-x2 --trace
//! cargo run --release --manifest-path benchmark/Cargo.toml -- compare a.json b.json
//! ```

mod compare;
mod ctx;
mod dist;
mod machine;
mod provenance;
mod report;
mod rng;
mod serve;
mod solve;
mod spec;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use temporal_blocking::plan::Json;

use ctx::{out_dir, CellGroup, Ctx};
use report::PassResult;
use spec::{Better, Group, Workload, NATIVE_SHARE};

/// Set-ups per run (`--smoke`: two); `setup_s` is their median.
const SETUPS: usize = 3;

const USAGE: &str = "usage:
  tb-benchmark [--workload <name|all>] [--seed N] [--seconds S] [--trace [0|1|both]]
               [--smoke] [--out FILE]
  tb-benchmark compare <a.json> <b.json>
  tb-benchmark --print-benchmark-json

  --trace 0     untraced pass: the end-to-end metrics (default)
  --trace 1     traced pass: the per-layer metrics, spans to benchmark/out/
  --trace       both passes, one after the other
  --smoke       tiny sizes, for self-tests only; never a source of BENCHMARK numbers";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Passes {
    Untraced,
    Traced,
    Both,
}

struct Opts {
    workloads: Vec<Workload>,
    label: String,
    seed: u64,
    seconds: f64,
    passes: Passes,
    smoke: bool,
    corrupt_oracle: bool,
    out: Option<String>,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workloads: spec::WORKLOADS.to_vec(),
        label: "all".into(),
        seed: 1,
        seconds: f64::NAN,
        passes: Passes::Untraced,
        smoke: false,
        corrupt_oracle: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if name != "all" {
                    let w = spec::workload(&name).ok_or(format!("unknown workload {name}"))?;
                    o.workloads = vec![*w];
                }
                o.label = name;
            }
            "--seed" => {
                o.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                o.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                o.passes = match it.peek().map(|s| s.as_str()) {
                    Some("0") => Passes::Untraced,
                    Some("1") => Passes::Traced,
                    Some("both") => Passes::Both,
                    _ => {
                        o.passes = Passes::Both;
                        continue;
                    }
                };
                it.next();
            }
            "--smoke" => o.smoke = true,
            // Self-test hook: flips every oracle hash, so the run must fail.
            "--self-test-corrupt-oracle" => o.corrupt_oracle = true,
            "--out" => o.out = Some(value("a file")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if o.seconds.is_nan() {
        o.seconds = if o.smoke {
            1.0
        } else {
            spec::RUN_SECONDS as f64
        };
    }
    if o.smoke {
        o.workloads = o.workloads.into_iter().map(spec::smoke).collect();
    }
    Ok(o)
}

/// Everything a pass measures with, built by one set-up.
struct Cells {
    machine: temporal_blocking::topology::Machine,
    solve: Box<dyn solve::SolveCells>,
    dist: dist::DistCells,
    serve: serve::ServeCells,
}

/// One full set-up: detect, runtime spawn, allocation + first touch,
/// init, oracles, membench, server start and warm pass.
fn setup(ctx: &mut Ctx, w: &Workload) -> Cells {
    let machine = machine::detect_machine(ctx);
    Cells {
        solve: solve::setup(ctx, &machine, w.solve),
        dist: dist::DistCells::setup(ctx, w.dist),
        serve: serve::ServeCells::setup(ctx, &machine, w.serve),
        machine,
    }
}

fn setups(o: &Opts) -> usize {
    if o.smoke {
        2
    } else {
        SETUPS
    }
}

fn run_pass(w: &Workload, o: &Opts, trace: bool) -> PassResult {
    let mut ctx = Ctx::new(o.seed, o.smoke, trace, o.corrupt_oracle);
    let jiffies_before = provenance::cpu_jiffies();
    if ctx.team < 2 {
        ctx.skip(
            "every team cell",
            "one CPU: team of 1, the two dist ranks oversubscribe it",
        );
    }

    let mut cells: Option<Cells> = None;
    for _ in 0..setups(o) {
        drop(cells.take()); // free the previous set-up's grids before allocating again
        let t0 = Instant::now();
        ctx.tracer.next_request();
        cells = Some(setup(&mut ctx, w));
        ctx.sample("setup_s", t0.elapsed().as_secs_f64());
    }
    let mut cells = cells.expect("SETUPS >= 1");

    // The native group measures for most of `--seconds`, the two control
    // groups split the rest; the traced pass spends half the time on the
    // per-layer rungs.
    let share = |g: Group| {
        if o.smoke {
            1.0 / 3.0
        } else if g == w.native {
            NATIVE_SHARE
        } else {
            (1.0 - NATIVE_SHARE) / 2.0
        }
    };
    let e2e_seconds = if trace { o.seconds / 2.0 } else { o.seconds };
    if trace {
        machine::layers(&mut ctx, &cells.machine);
    }
    ctx::measure(
        &mut ctx,
        e2e_seconds,
        &mut [
            (&mut *cells.solve as &mut dyn CellGroup, share(Group::Solve)),
            (&mut cells.dist, share(Group::Dist)),
            (&mut cells.serve, share(Group::Serve)),
        ],
    );
    if trace {
        let budget = Duration::from_secs_f64(o.seconds / 2.0 * share(Group::Solve));
        cells.solve.layers(&mut ctx, budget);
        cells.dist.layers(&mut ctx, &cells.machine);
        cells.serve.layers(&mut ctx);
    }
    drop(cells);

    let mut trace_file = None;
    if trace {
        // Tracing overhead: the same cells, same minute, spans off vs on.
        let slowdowns: Vec<f64> = spec::END_TO_END
            .iter()
            .filter(|m| !ctx.samples(m.name).is_empty() && !ctx.traced_samples(m.name).is_empty())
            .map(|m| {
                let (off, on) = (
                    stats::median(ctx.samples(m.name)),
                    stats::median(ctx.traced_samples(m.name)),
                );
                match m.better {
                    Better::Higher => (off - on) / off,
                    Better::Lower => (on - off) / off,
                }
            })
            .collect();
        if !slowdowns.is_empty() {
            ctx.sample(
                "trace.overhead_frac",
                slowdowns.iter().sum::<f64>() / slowdowns.len() as f64,
            );
        }
        ctx.sample("trace.spans", ctx.tracer.spans().len() as f64);
        let path = out_dir().join(format!("trace-{}-seed{}.json", w.name, o.seed));
        match std::fs::write(&path, trace::chrome_trace(ctx.tracer.spans()).to_json()) {
            Ok(()) => trace_file = Some(path.display().to_string()),
            Err(e) => ctx.fail(format!("write {}: {e}", path.display())),
        }
    }
    let steal_frac = match (jiffies_before, provenance::cpu_jiffies()) {
        (Some((all0, steal0)), Some((all1, steal1))) if all1 > all0 => {
            Some((steal1 - steal0) as f64 / (all1 - all0) as f64)
        }
        _ => None,
    };
    PassResult::collect(&ctx, w, o.seconds, steal_frac, trace_file)
}

fn run(o: &Opts) -> ExitCode {
    let t0 = Instant::now();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut results = Vec::new();
    let mut ok = true;
    for w in &o.workloads {
        if let Some(have) = provenance::mem_available_mib() {
            if have < w.min_mem_mib {
                eprintln!(
                    "{}: needs {} MiB MemAvailable, the host has {have}; refusing rather than shrinking",
                    w.name, w.min_mem_mib
                );
                return ExitCode::from(2);
            }
        }
        let passes: &[bool] = match o.passes {
            Passes::Untraced => &[false],
            Passes::Traced => &[true],
            Passes::Both => &[false, true],
        };
        for &trace in passes {
            let result = run_pass(w, o, trace);
            result.print();
            ok &= result.correct() && result.missing().is_empty();
            results.push(result);
        }
    }

    let suffix = match o.passes {
        Passes::Untraced => "",
        Passes::Traced => "-traced",
        Passes::Both => "-both",
    };
    let path = o.out.clone().unwrap_or_else(|| {
        let smoke = if o.smoke { "-smoke" } else { "" };
        let name = format!("result-{}-seed{}{suffix}{smoke}.json", o.label, o.seed);
        out_dir().join(name).display().to_string()
    });
    let provenance = provenance::collect(vec![
        ("nproc", Json::usize(nproc)),
        ("team", Json::usize(nproc.min(4))),
        ("seed", Json::Num(o.seed as f64)),
        ("seconds", Json::Num(o.seconds)),
        ("setups", Json::usize(setups(o))),
        ("smoke", Json::Bool(o.smoke)),
    ]);
    let doc = Json::obj(vec![
        ("schema", Json::usize(1)),
        ("provenance", provenance),
        (
            "runs",
            Json::Arr(results.iter().map(PassResult::to_json).collect()),
        ),
    ]);
    if let Err(e) = std::fs::write(&path, doc.to_json()) {
        eprintln!("write {path}: {e}");
        ok = false;
    }
    println!(
        "\nresult file: {path}  ({:.1} s)",
        t0.elapsed().as_secs_f64()
    );
    // The driver reads the last line of standard output.
    if let Some(last) = results.last() {
        println!("{}", last.driver_line());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => match args.as_slice() {
            [_, a, b] => match compare::run(a, b) {
                Ok(code) => ExitCode::from(code),
                Err(e) => {
                    eprintln!("compare: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        },
        Some("--print-benchmark-json") => {
            println!("{}", spec::benchmark_json().to_json());
            ExitCode::SUCCESS
        }
        Some("--help" | "-h") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        _ => match parse(&args) {
            Ok(opts) => run(&opts),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
    }
}
