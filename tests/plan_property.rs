//! End-to-end contract of the plan-cache autotuner: serialization,
//! fingerprint stability, warm-hit economics, stale-entry rejection,
//! and bitwise identity of tuned solves for every operator.

use std::path::PathBuf;

use temporal_blocking::plan::{
    CacheEntry, Json, MachineFingerprint, MethodFamily, Plan, PlanCache, PlanKey,
};
use temporal_blocking::prelude::*;
use temporal_blocking::stencil::config::{GridScheme, WHOLE_EXTENT};
use temporal_blocking::{solve_tuned_with_on, solve_with, Method, TuneOptions};

fn tmp_cache(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tb-plan-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::remove_file(&path).ok();
    path
}

/// Fast, deterministic tuning options: fixed machine parameters (no
/// membench), private cache file, small measurement budget.
fn quick_opts(name: &str) -> TuneOptions {
    TuneOptions {
        cache_path: Some(tmp_cache(name)),
        top_k: 3,
        params: Some(MachineParams::nehalem_ep()),
        ..TuneOptions::default()
    }
}

#[test]
fn plan_json_roundtrips_every_method_variant() {
    let pipe = PipelineConfig {
        team_size: 3,
        n_teams: 2,
        updates_per_thread: 2,
        block: [64, 16, 16],
        sync: SyncMode::Relaxed {
            dl: 1,
            du: 2,
            dt: 4,
        },
        scheme: GridScheme::TwoGrid,
        audit: false,
    };
    let methods = vec![
        Method::Sequential,
        Method::Blocked { block: [9, 7, 8] },
        Method::Parallel {
            threads: 4,
            streaming_stores: true,
        },
        Method::Pipelined(pipe.clone()),
        Method::Pipelined(PipelineConfig {
            sync: SyncMode::Barrier,
            scheme: GridScheme::Compressed,
            ..pipe
        }),
        Method::Pipelined(PipelineConfig::wavefront(2)),
        Method::Diamond(DiamondConfig::with_width(4, 16).with_threads_per_tile(2)),
    ];
    for method in methods {
        let plan = Plan::new(method);
        let text = plan.to_json().to_json();
        let back = Plan::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, plan, "{text}");
    }
}

/// Cache entries exactly as the plan cache writes them, each with the
/// plan it must parse to.
fn golden_plans() -> Vec<(&'static str, Plan)> {
    let pipe = PipelineConfig {
        team_size: 2,
        n_teams: 1,
        updates_per_thread: 4,
        block: [WHOLE_EXTENT, 8, 8],
        sync: SyncMode::Relaxed {
            dl: 1,
            du: 4,
            dt: 0,
        },
        scheme: GridScheme::TwoGrid,
        audit: false,
    };
    vec![
        (
            r#"{"method":{"kind":"parallel","threads":2,"streaming_stores":false}}"#,
            Plan::new(Method::Parallel {
                threads: 2,
                streaming_stores: false,
            }),
        ),
        (
            r#"{"method":{"kind":"parallel","threads":2,"streaming_stores":true}}"#,
            Plan::new(Method::Parallel {
                threads: 2,
                streaming_stores: true,
            }),
        ),
        (
            r#"{"method":{"kind":"pipelined","team_size":2,"n_teams":1,"updates_per_thread":4,"block":[1048576,8,8],"sync":{"mode":"relaxed","dl":1,"du":4,"dt":0}}}"#,
            Plan::new(Method::Pipelined(pipe.clone())),
        ),
        (
            r#"{"method":{"kind":"compressed","team_size":2,"n_teams":1,"updates_per_thread":4,"block":[1048576,8,8],"sync":{"mode":"barrier"}}}"#,
            Plan::new(Method::Pipelined(PipelineConfig {
                sync: SyncMode::Barrier,
                scheme: GridScheme::Compressed,
                ..pipe
            })),
        ),
        (
            r#"{"method":{"kind":"pipelined","team_size":2,"n_teams":1,"updates_per_thread":1,"block":[1048576,1048576,2],"sync":{"mode":"relaxed","dl":1,"du":4,"dt":0}}}"#,
            Plan::new(Method::Pipelined(PipelineConfig::wavefront(2))),
        ),
        (
            r#"{"method":{"kind":"diamond","threads":2,"width":8,"threads_per_tile":2}}"#,
            Plan::new(Method::Diamond(
                DiamondConfig::with_width(2, 8).with_threads_per_tile(2),
            )),
        ),
    ]
}

#[test]
fn golden_plan_entries_parse_reserialise_and_replay_warm() {
    // The on-disk plan format is pinned: every entry parses to its plan,
    // re-serialises byte for byte, and a cache file holding them replays
    // every one as a warm hit.
    let dims = Dims3::cube(20);
    let initial: Grid3<f64> = grid::init::random(dims, 23);
    let rt = Runtime::with_threads(2);
    let opts = quick_opts("golden.json");
    let path = opts.cache_path.clone().unwrap();
    let fingerprint = MachineFingerprint::new(
        &temporal_blocking::topology::detect::detect(),
        &opts.params.unwrap(),
    );
    // One sweep-count class per entry, so each has its own key.
    let sweeps = |i: usize| 1usize << i;
    let mut entries = Vec::new();
    for (i, (text, want)) in golden_plans().into_iter().enumerate() {
        let plan = Plan::from_json(&Json::parse(text).unwrap()).unwrap();
        assert_eq!(plan, want, "{text}");
        assert_eq!(plan.to_json().to_json(), text, "byte-identical");
        let key = PlanKey::new::<f64>(fingerprint.clone(), "jacobi6", dims, sweeps(i));
        entries.push(format!(
            r#""{}":{{"plan":{text},"dims":[20,20,20],"measured_mlups":812.5,"predicted_mlups":900}}"#,
            key.as_string()
        ));
    }
    let file = format!(
        r#"{{"schema":1,"calibrations":{{}},"plans":{{{}}}}}"#,
        entries.join(",")
    );
    std::fs::write(&path, &file).unwrap();
    let cache = PlanCache::load(&path);
    assert_eq!(cache.len(), entries.len());
    cache.save().unwrap();
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        file,
        "resaved as is"
    );

    for (i, (text, want)) in golden_plans().into_iter().enumerate() {
        let (oracle, _) =
            solve_with(&Jacobi6, initial.clone(), sweeps(i), Method::Sequential).unwrap();
        let (got, _, tuned) =
            solve_tuned_with_on(&rt, &Jacobi6, initial.clone(), sweeps(i), &opts).unwrap();
        assert!(tuned.cache_hit, "{text}");
        assert_eq!(tuned.measurements, 0, "{text}");
        assert_eq!(tuned.plan, want, "{text}");
        grid::norm::assert_grids_identical(&oracle, &got, &Region3::whole(dims), text);
    }
}

#[test]
fn older_format_cache_files_load_validate_and_replay_warm() {
    // Older cache files hold entries of kind `"wavefront"` and plans with
    // a `"simd"` switch; here one of each, plus a compressed entry and a
    // diamond with two threads per tile. The tuner proposes none of
    // them, yet each loads, validates on the requested dims and replays
    // as a warm hit, bitwise equal to the oracle. The next save writes
    // them in the current format.
    let pipe = PipelineConfig::default_for(2, 1);
    let entries: [(&str, Plan); 4] = [
        (
            r#"{"method":{"kind":"wavefront","threads":2},"simd":true}"#,
            Plan::new(Method::Pipelined(PipelineConfig::wavefront(2))),
        ),
        (
            r#"{"method":{"kind":"compressed","team_size":2,"n_teams":1,"updates_per_thread":4,"block":[1048576,8,8],"sync":{"mode":"relaxed","dl":1,"du":4,"dt":0}},"simd":true}"#,
            Plan::new(Method::Pipelined(PipelineConfig {
                scheme: GridScheme::Compressed,
                ..pipe.clone()
            })),
        ),
        (
            r#"{"method":{"kind":"diamond","threads":2,"width":8,"threads_per_tile":2},"simd":true}"#,
            Plan::new(Method::Diamond(
                DiamondConfig::with_width(2, 8).with_threads_per_tile(2),
            )),
        ),
        (
            r#"{"method":{"kind":"pipelined","team_size":2,"n_teams":1,"updates_per_thread":4,"block":[1048576,8,8],"sync":{"mode":"relaxed","dl":1,"du":4,"dt":0}},"simd":false}"#,
            Plan::new(Method::Pipelined(pipe)),
        ),
    ];
    let dims = Dims3::cube(20);
    let initial: Grid3<f64> = grid::init::random(dims, 29);
    let rt = Runtime::with_threads(2);
    let opts = quick_opts("older-format.json");
    let path = opts.cache_path.clone().unwrap();
    let fingerprint = MachineFingerprint::new(
        &temporal_blocking::topology::detect::detect(),
        &opts.params.unwrap(),
    );
    // One sweep-count class per entry, so each has its own key.
    let sweeps = |i: usize| 2usize << i;
    let keys: Vec<PlanKey> = (0..entries.len())
        .map(|i| PlanKey::new::<f64>(fingerprint.clone(), "jacobi6", dims, sweeps(i)))
        .collect();
    let body: Vec<String> = entries
        .iter()
        .zip(&keys)
        .map(|((text, _), key)| {
            format!(
                r#""{}":{{"plan":{text},"dims":[20,20,20],"measured_mlups":812.5,"predicted_mlups":900}}"#,
                key.as_string()
            )
        })
        .collect();
    std::fs::write(
        &path,
        format!(
            r#"{{"schema":1,"calibrations":{{}},"plans":{{{}}}}}"#,
            body.join(",")
        ),
    )
    .unwrap();

    let cache = PlanCache::load(&path);
    assert_eq!(cache.len(), entries.len());
    for ((text, want), key) in entries.iter().zip(&keys) {
        let entry = cache
            .lookup(key, dims, 1)
            .unwrap_or_else(|| panic!("{text}"));
        assert_eq!(entry.plan, *want, "{text}");
        entry.plan.validate_for(dims, 1).unwrap();
    }
    for (i, (text, want)) in entries.iter().enumerate() {
        let (oracle, _) =
            solve_with(&Jacobi6, initial.clone(), sweeps(i), Method::Sequential).unwrap();
        let (got, _, tuned) =
            solve_tuned_with_on(&rt, &Jacobi6, initial.clone(), sweeps(i), &opts).unwrap();
        assert!(tuned.cache_hit, "{text}");
        assert_eq!(tuned.measurements, 0, "{text}");
        assert_eq!(tuned.plan, *want, "{text}");
        grid::norm::assert_grids_identical(&oracle, &got, &Region3::whole(dims), text);
    }

    cache.save().unwrap();
    let resaved = std::fs::read_to_string(&path).unwrap();
    assert!(
        !resaved.contains("simd") && !resaved.contains("wavefront"),
        "{resaved}"
    );
    let reloaded = PlanCache::load(&path);
    for ((text, want), key) in entries.iter().zip(&keys) {
        assert_eq!(reloaded.lookup(key, dims, 1).unwrap().plan, *want, "{text}");
    }
}

#[test]
fn fingerprint_is_stable_across_detect_runs() {
    let params = MachineParams::nehalem_ep();
    let a = MachineFingerprint::new(&temporal_blocking::topology::detect::detect(), &params);
    let b = MachineFingerprint::new(&temporal_blocking::topology::detect::detect(), &params);
    assert_eq!(a.as_string(), b.as_string());
}

#[test]
fn second_tuned_solve_is_a_warm_hit_with_zero_measurements() {
    let dims = Dims3::cube(20);
    let initial: Grid3<f64> = grid::init::random(dims, 3);
    let rt = Runtime::with_threads(2);
    let opts = quick_opts("warm-hit.json");

    let (_, _, cold) = solve_tuned_with_on(&rt, &Jacobi6, initial.clone(), 4, &opts).unwrap();
    assert!(!cold.cache_hit);
    assert!(cold.measurements > 0, "cold tune must measure");
    let report = cold.report.as_ref().expect("cold tune reports");
    assert!(report.pruning_ratio() <= 0.5, "{}", report.pruning_ratio());
    // Streaming stores left the search space (they lose on every
    // measured workload); see `hand_written_streaming_plans_still_replay`.
    for row in &report.rows {
        let nt = Method::Parallel {
            threads: row.plan.method.threads(),
            streaming_stores: true,
        };
        assert_ne!(row.plan.method, nt, "{}", row.plan.label());
    }

    let (_, _, warm) = solve_tuned_with_on(&rt, &Jacobi6, initial, 4, &opts).unwrap();
    assert!(warm.cache_hit, "second solve replays the cache");
    assert_eq!(warm.measurements, 0, "a warm hit costs no measurement");
    assert!(!warm.calibrated, "a warm hit runs no membench");
    assert!(warm.report.is_none());
    assert_eq!(warm.plan, cold.plan, "deterministic replay");
}

#[test]
fn cache_entries_with_the_retired_exchange_key_replay_warm_and_resave_without_it() {
    // Plans used to carry an `"exchange"` mode no executor read; files
    // written then must keep loading, and lose the key on the next save.
    let dims = Dims3::cube(20);
    let initial: Grid3<f64> = grid::init::random(dims, 3);
    let rt = Runtime::with_threads(2);
    let opts = quick_opts("retired-exchange.json");
    let path = opts.cache_path.clone().unwrap();

    let (_, _, cold) = solve_tuned_with_on(&rt, &Jacobi6, initial.clone(), 4, &opts).unwrap();
    assert!(!cold.cache_hit);
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(!text.contains("exchange"), "{text}");
    // The plan object closes right before the entry's dims; older files
    // also carried a `"simd"` switch there.
    assert_eq!(text.matches("},\"dims\"").count(), 1, "{text}");
    let old = text.replace(
        "},\"dims\"",
        ",\"simd\":true,\"exchange\":\"overlapped-comm-thread\"},\"dims\"",
    );
    std::fs::write(&path, &old).unwrap();

    let (_, _, warm) = solve_tuned_with_on(&rt, &Jacobi6, initial, 4, &opts).unwrap();
    assert!(warm.cache_hit, "an old-format entry is still a warm hit");
    assert_eq!(warm.measurements, 0);
    assert_eq!(warm.plan, cold.plan);

    let reloaded = PlanCache::load(&path);
    assert_eq!(reloaded.len(), 1);
    reloaded.save().unwrap();
    let resaved = std::fs::read_to_string(&path).unwrap();
    assert!(!resaved.contains("exchange"), "{resaved}");
    assert_eq!(
        resaved, text,
        "re-serialised exactly as a fresh tune writes it"
    );
}

#[test]
fn hand_written_streaming_plans_still_replay() {
    // The tuner no longer proposes NT stores, but a cached or
    // hand-written plan that asks for them parses, replays as a warm hit
    // and stays bitwise identical to the oracle.
    let dims = Dims3::cube(20);
    let initial: Grid3<f64> = grid::init::random(dims, 17);
    let rt = Runtime::with_threads(2);
    let opts = quick_opts("hand-written-nt.json");
    let params = opts.params.unwrap();
    let machine = temporal_blocking::topology::detect::detect();
    let key = PlanKey::new::<f64>(
        MachineFingerprint::new(&machine, &params),
        StencilOp::<f64>::name(&Jacobi6),
        dims,
        4,
    );
    let nt = Plan::new(Method::Parallel {
        threads: 2,
        streaming_stores: true,
    });
    let mut cache = PlanCache::load(opts.cache_path.clone().unwrap());
    cache.store(
        &key,
        CacheEntry {
            plan: nt.clone(),
            dims: [dims.nx, dims.ny, dims.nz],
            measured_mlups: 1.0,
            predicted_mlups: 1.0,
        },
    );
    cache.save().unwrap();

    let (want, _) = solve_with(&Jacobi6, initial.clone(), 4, Method::Sequential).unwrap();
    let (got, _, tuned) = solve_tuned_with_on(&rt, &Jacobi6, initial, 4, &opts).unwrap();
    assert!(tuned.cache_hit);
    assert_eq!(tuned.plan, nt);
    grid::norm::assert_grids_identical(&want, &got, &Region3::whole(dims), "cached nt plan");
}

#[test]
fn stale_schema_cache_entries_are_rejected() {
    let dims = Dims3::cube(20);
    let initial: Grid3<f64> = grid::init::random(dims, 5);
    let rt = Runtime::with_threads(2);
    let opts = quick_opts("stale-schema.json");
    let path = opts.cache_path.clone().unwrap();

    let (_, _, cold) = solve_tuned_with_on(&rt, &Jacobi6, initial.clone(), 4, &opts).unwrap();
    assert!(!cold.cache_hit);
    // Corrupt the schema version on disk: the whole file is distrusted
    // and the next solve re-tunes (then heals the file).
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, text.replace("\"schema\":1", "\"schema\":999")).unwrap();
    let (_, _, again) = solve_tuned_with_on(&rt, &Jacobi6, initial.clone(), 4, &opts).unwrap();
    assert!(!again.cache_hit, "stale schema must force a re-tune");
    assert!(again.measurements > 0);
    let (_, _, healed) = solve_tuned_with_on(&rt, &Jacobi6, initial, 4, &opts).unwrap();
    assert!(healed.cache_hit, "the re-tune rewrote a valid cache");
}

#[test]
fn wrong_dims_cache_entries_are_rejected() {
    let dims = Dims3::cube(20);
    let params = MachineParams::nehalem_ep();
    let machine = temporal_blocking::topology::detect::detect();
    let key = PlanKey::new::<f64>(
        MachineFingerprint::new(&machine, &params),
        "jacobi6",
        dims,
        4,
    );
    // An entry recorded for other dims under this key (hand-edited
    // file): lookup refuses it.
    let mut cache = PlanCache::in_memory();
    cache.store(
        &key,
        CacheEntry {
            plan: Plan::new(Method::Pipelined(PipelineConfig::wavefront(2))),
            dims: [64, 64, 64],
            measured_mlups: 1.0,
            predicted_mlups: 1.0,
        },
    );
    assert!(cache.lookup(&key, dims, 1).is_none());
    // And a plan that no longer validates on the requested dims.
    cache.store(
        &key,
        CacheEntry {
            plan: Plan::new(Method::Diamond(DiamondConfig::with_width(2, 2))),
            dims: [dims.nx, dims.ny, dims.nz],
            measured_mlups: 1.0,
            predicted_mlups: 1.0,
        },
    );
    assert!(cache.lookup(&key, dims, 2).is_none());
}

#[test]
fn tuned_solves_are_bitwise_identical_to_the_oracle_for_every_operator() {
    let dims = Dims3::cube(18);
    let initial: Grid3<f64> = grid::init::random(dims, 11);
    let sweeps = 4;
    let rt = Runtime::with_threads(2);

    fn check<Op: StencilOp<f64>>(
        rt: &Runtime,
        op: &Op,
        initial: &Grid3<f64>,
        sweeps: usize,
        cache: &str,
    ) {
        let dims = initial.dims();
        let (want, _) = solve_with(op, initial.clone(), sweeps, Method::Sequential).unwrap();
        let opts = quick_opts(cache);
        for round in 0..2 {
            let (got, _, tuned) =
                solve_tuned_with_on(rt, op, initial.clone(), sweeps, &opts).unwrap();
            assert_eq!(tuned.cache_hit, round == 1);
            grid::norm::assert_grids_identical(
                &want,
                &got,
                &Region3::whole(dims),
                &format!("tuned {} ({})", op.name(), tuned.plan.label()),
            );
        }
    }
    check(&rt, &Jacobi6, &initial, sweeps, "oracle-jacobi6.json");
    check(
        &rt,
        &Jacobi7::heat(0.12),
        &initial,
        sweeps,
        "oracle-jacobi7.json",
    );
    check(
        &rt,
        &VarCoeff7::banded(dims),
        &initial,
        sweeps,
        "oracle-varcoeff7.json",
    );
    check(&rt, &Avg27, &initial, sweeps, "oracle-avg27.json");
}

#[test]
fn family_restriction_and_force_retune_are_honored() {
    let dims = Dims3::cube(20);
    let initial: Grid3<f64> = grid::init::random(dims, 9);
    let rt = Runtime::with_threads(2);
    let mut opts = quick_opts("family.json");
    opts.families = vec![MethodFamily::Diamond];

    let (_, _, tuned) = solve_tuned_with_on(&rt, &Jacobi6, initial.clone(), 4, &opts).unwrap();
    assert_eq!(tuned.plan.method.family(), MethodFamily::Diamond);
    // Every measured row stayed inside the requested family (the
    // incumbent included).
    for row in &tuned.report.unwrap().rows {
        assert_eq!(row.plan.method.family(), MethodFamily::Diamond);
    }

    opts.force_retune = true;
    let (_, _, retuned) = solve_tuned_with_on(&rt, &Jacobi6, initial, 4, &opts).unwrap();
    assert!(!retuned.cache_hit, "force_retune bypasses the cache");
    assert!(retuned.measurements > 0);
}

#[test]
fn concurrent_tuned_solves_share_one_cache_entry_and_never_corrupt_the_file() {
    // N tenants tuning the same problem against the same cache file at
    // once (the job server does exactly this from its slices) must end
    // with ONE winner entry and a parseable file — the shared in-process
    // store serializes the load-modify-save cycle that a per-caller
    // `PlanCache` used to race.
    let path = tmp_cache("concurrent.json");
    let dims = Dims3::cube(12);
    let initial: Grid3<f64> = grid::init::random(dims, 5);
    let opts = TuneOptions {
        cache_path: Some(path.clone()),
        top_k: 1,
        params: Some(MachineParams::nehalem_ep()),
        families: vec![MethodFamily::Parallel],
        ..TuneOptions::default()
    };

    let (want, _) = solve_with(&Jacobi6, initial.clone(), 3, Method::Sequential).unwrap();
    let threads: Vec<_> = (0..6)
        .map(|_| {
            let (initial, opts, want) = (initial.clone(), opts.clone(), want.clone());
            std::thread::spawn(move || {
                let rt = Runtime::with_threads(2);
                let (got, _, tuned) =
                    solve_tuned_with_on(&rt, &Jacobi6, initial, 3, &opts).unwrap();
                grid::norm::assert_grids_identical(
                    &want,
                    &got,
                    &Region3::whole(dims),
                    "concurrent tuned solve",
                );
                tuned.cache_hit
            })
        })
        .collect();
    let hits = threads
        .into_iter()
        .map(|t| t.join().expect("no tuner thread may panic"))
        .filter(|hit| *hit)
        .count();

    // Exactly one entry made it to disk, and the file parses cleanly.
    let on_disk = PlanCache::load(&path);
    assert_eq!(
        on_disk.len(),
        1,
        "six racing tuners must collapse to one winner entry"
    );
    // Every thread either tuned or hit the single shared entry; a rerun
    // is now warm for everyone.
    let rt = Runtime::with_threads(2);
    let (_, _, tuned) = solve_tuned_with_on(&rt, &Jacobi6, initial, 3, &opts).unwrap();
    assert!(tuned.cache_hit, "after the race the cache must be warm");
    assert_eq!(tuned.measurements, 0);
    let _ = hits; // any count 0..=5 is legal; ordering is the OS's call
}
