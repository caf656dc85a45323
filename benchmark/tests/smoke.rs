//! Drives the built binary the way the PR driver does. One test, run in
//! sequence: the steps time real kernels and would disturb each other on
//! parallel test threads.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::Instant;

use temporal_blocking::plan::Json;

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tb-benchmark"))
        .args(args)
        .output()
        .expect("run tb-benchmark")
}

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// The driver's contract: the last line of stdout is one JSON object.
fn driver_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("stdout has a last line");
    let line = Json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"));
    let keys: Vec<&str> = line
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    line
}

fn metric_names(line: &Json) -> Vec<String> {
    let metrics = line
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object");
    for (name, m) in metrics {
        let value = m.get("value").and_then(Json::as_f64).expect("value");
        assert!(value.is_finite(), "{name}");
        assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name}");
    }
    metrics.iter().map(|(k, _)| k.clone()).collect()
}

/// The names `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names = doc.get(key).and_then(Json::as_arr).unwrap().iter();
    names
        .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
        .collect()
}

#[test]
fn smoke_run_trace_corrupted_oracle_and_compare() {
    // 1. `--smoke` over all four workloads: correct, every end-to-end
    //    metric on the driver line, under 30 s.
    let result = tmp("smoke-all.json");
    let t0 = Instant::now();
    let out = bench(&[
        "--smoke",
        "--workload",
        "all",
        "--seed",
        "3",
        "--trace",
        "0",
        "--out",
        result.to_str().unwrap(),
    ]);
    let took = t0.elapsed();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(took.as_secs() < 30, "--smoke took {took:?}");
    let line = driver_line(&out);
    assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(metric_names(&line), declared("end_to_end"));

    // The result file carries provenance and one run per workload, each
    // with rep statistics and the skipped-cell list.
    let doc = Json::parse(&std::fs::read_to_string(&result).unwrap()).unwrap();
    let provenance = doc.get("provenance").expect("provenance");
    for key in [
        "machine",
        "nproc",
        "team",
        "caches",
        "mem_available_mib",
        "commit",
        "rustc",
        "target_features",
        "seed",
    ] {
        assert!(provenance.get(key).is_some(), "provenance.{key}");
    }
    let runs = doc.get("runs").and_then(Json::as_arr).unwrap();
    assert_eq!(runs.len(), 4);
    for run in runs {
        assert_eq!(run.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(run.get("skipped").and_then(Json::as_arr).is_some());
        let setup = run
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s on every workload");
        for stat in [
            "value", "n", "min", "p10", "q1", "median", "q3", "p90", "max", "bound",
        ] {
            assert!(
                setup.get(stat).and_then(Json::as_f64).is_some(),
                "setup_s.{stat}"
            );
        }
    }

    // 2. A file compared with itself has nothing regressed.
    let same = bench(&[
        "compare",
        result.to_str().unwrap(),
        result.to_str().unwrap(),
    ]);
    assert!(
        same.status.success(),
        "{}",
        String::from_utf8_lossy(&same.stdout)
    );

    // 3. The traced pass: every per-layer metric, a loadable Chrome trace.
    let traced = tmp("smoke-traced.json");
    let out = bench(&[
        "--smoke",
        "--workload",
        "dist-x2",
        "--seed",
        "3",
        "--trace",
        "1",
        "--out",
        traced.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let line = driver_line(&out);
    assert_eq!(metric_names(&line), declared("per_layer"));
    let doc = Json::parse(&std::fs::read_to_string(&traced).unwrap()).unwrap();
    let run = &doc.get("runs").and_then(Json::as_arr).unwrap()[0];
    let trace_file = run
        .get("trace_file")
        .and_then(Json::as_str)
        .expect("trace file");
    let trace =
        Json::parse(&std::fs::read_to_string(trace_file).unwrap()).expect("Chrome trace parses");
    let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
    assert!(events.len() > 100);
    for layer in [
        "dist", "net", "stencil", "facade", "runtime", "serve", "grid", "membench", "sync",
        "topology",
    ] {
        assert!(
            run.get("layer_self_time")
                .and_then(|t| t.get(layer))
                .is_some(),
            "layer {layer}"
        );
        assert!(
            events
                .iter()
                .any(|e| e.get("cat").and_then(Json::as_str) == Some(layer)),
            "spans of {layer}"
        );
    }

    // 4. A corrupted oracle hash fails the run.
    let out = bench(&[
        "--smoke",
        "--workload",
        "cache-a27",
        "--self-test-corrupt-oracle",
        "--out",
        tmp("smoke-corrupt.json").to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    let line = driver_line(&out);
    assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
    assert!(line.get("failed").and_then(Json::as_f64).unwrap() > 0.0);

    // 5. `compare` exits non-zero when a metric regressed past its bound.
    let slower = tmp("smoke-slower.json");
    let text = std::fs::read_to_string(&result).unwrap();
    let mut doc = Json::parse(&text).unwrap();
    scale_metric(&mut doc, "jobs_per_s", 0.5);
    std::fs::write(&slower, doc.to_json()).unwrap();
    let out = bench(&[
        "compare",
        result.to_str().unwrap(),
        slower.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("regressed"));
}

/// Multiply every statistic of `name` in every run by `factor`.
fn scale_metric(doc: &mut Json, name: &str, factor: f64) {
    let Json::Obj(top) = doc else {
        panic!("result file is an object")
    };
    let Some((_, Json::Arr(runs))) = top.iter_mut().find(|(k, _)| k == "runs") else {
        panic!("runs")
    };
    for run in runs {
        let Json::Obj(run) = run else { continue };
        let Some((_, Json::Obj(metrics))) = run.iter_mut().find(|(k, _)| k == "metrics") else {
            continue;
        };
        let Some((_, Json::Obj(stats))) = metrics.iter_mut().find(|(k, _)| k == name) else {
            continue;
        };
        for (key, value) in stats {
            let stat = matches!(
                key.as_str(),
                "value" | "min" | "p10" | "q1" | "median" | "q3" | "p90" | "max"
            );
            if let (Json::Num(v), true) = (value, stat) {
                *v *= factor;
            }
        }
    }
}
