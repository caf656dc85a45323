//! Contract of the multi-tenant solve server (`temporal_blocking::serve`):
//!
//! 1. **Isolation is bitwise** — K jobs running concurrently on disjoint
//!    core-set slices return exactly the grids the sequential oracle
//!    produces one at a time. Randomized over operators, dims, element
//!    types, methods, sweep counts and slice counts.
//! 2. **Admission control is deterministic** — a full bounded queue
//!    rejects with the spec returned to the caller; the blocking form
//!    really waits out its deadline; everything admitted is served.
//! 3. **Failures don't spread** — a job that panics fails its own
//!    handle; every other job (including ones submitted afterwards)
//!    completes and verifies, on every slice.
//! 4. **Warm plans transfer** — a tuned job repeated on the same server
//!    replays the cached plan with zero measurements.
//! 5. **Jobs compute on the client's pages** — a slice solves the
//!    payload grid in place: every operator × element type returns the
//!    exact oracle bits, and every report prices zero ingest and egress.
//! 6. **The deadline policy keeps its promises** — on synthetic traces
//!    through [`deadline_pick`]: EDF meets every deadline FIFO meets
//!    (Jackson's rule — it minimizes maximum lateness), aging bounds
//!    how long a `Batch` job waits under a continuous urgent stream,
//!    cancelled jobs never execute, and `Rejected::Infeasible` jobs
//!    really would have missed their deadline.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use temporal_blocking::grid::{init, norm, Dims3, Grid3, Region3};
use temporal_blocking::prelude::*;
use temporal_blocking::serve::{deadline_pick, SchedFacts};
use temporal_blocking::topology::Machine;
use temporal_blocking::{solve_with, Method, TuneOptions};

/// A fixed method that fits a 2-core slice.
fn method_for(kind: u8) -> Method {
    match kind % 4 {
        0 => Method::Sequential,
        1 => Method::Parallel {
            threads: 1,
            streaming_stores: false,
        },
        2 => Method::Parallel {
            threads: 2,
            streaming_stores: true,
        },
        _ => Method::Wavefront { threads: 2 },
    }
}

fn op_pool() -> Vec<JobOp> {
    vec![
        JobOp::Jacobi6,
        JobOp::Jacobi7Heat(0.1),
        JobOp::VarCoeff7Banded,
        JobOp::Avg27,
    ]
}

/// The sequential oracle for a spec, run completely outside the server.
fn oracle(op: JobOp, payload: &JobPayload, sweeps: usize) -> JobPayload {
    fn run<T: temporal_blocking::grid::Real>(op: JobOp, g: Grid3<T>, sweeps: usize) -> Grid3<T> {
        match op {
            JobOp::Jacobi6 => solve_with(&Jacobi6, g, sweeps, Method::Sequential),
            JobOp::Jacobi7Heat(k) => solve_with(&Jacobi7::heat(k), g, sweeps, Method::Sequential),
            JobOp::VarCoeff7Banded => {
                let dims = g.dims();
                solve_with(&VarCoeff7::<T>::banded(dims), g, sweeps, Method::Sequential)
            }
            _ => solve_with(&Avg27, g, sweeps, Method::Sequential),
        }
        .unwrap()
        .0
    }
    match payload {
        JobPayload::F64(g) => JobPayload::F64(run(op, g.clone(), sweeps)),
        JobPayload::F32(g) => JobPayload::F32(run(op, g.clone(), sweeps)),
    }
}

fn assert_payload_identical(want: &JobPayload, got: &JobPayload, ctx: &str) {
    match (want, got) {
        (JobPayload::F64(a), JobPayload::F64(b)) => {
            norm::assert_grids_identical(a, b, &Region3::whole(a.dims()), ctx)
        }
        (JobPayload::F32(a), JobPayload::F32(b)) => {
            norm::assert_grids_identical(a, b, &Region3::whole(a.dims()), ctx)
        }
        _ => panic!("{ctx}: element type changed in flight"),
    }
}

/// Deterministic per-job parameter stream (the vendored proptest has no
/// collection strategies, so jobs derive from one drawn master seed).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run a single-server trace in the given static order; returns each
/// job's lateness in seconds (negative = early) for jobs released
/// simultaneously at `t0` with the given service times and deadlines.
fn lateness_in_order(order: &[usize], service: &[Duration], deadline: &[Duration]) -> Vec<f64> {
    let mut done = Duration::ZERO;
    let mut lateness = vec![0.0; service.len()];
    for &j in order {
        done += service[j];
        lateness[j] = done.as_secs_f64() - deadline[j].as_secs_f64();
    }
    lateness
}

/// The order `deadline_pick` serves a simultaneously-released queue in.
fn edf_order(facts: &[SchedFacts], aging: Duration) -> Vec<usize> {
    let mut remaining: Vec<(usize, SchedFacts)> = facts.iter().copied().enumerate().collect();
    let mut order = Vec::with_capacity(facts.len());
    while !remaining.is_empty() {
        let queue: Vec<SchedFacts> = remaining.iter().map(|(_, f)| *f).collect();
        let picked = deadline_pick(&queue, aging);
        order.push(remaining.remove(picked).0);
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// K concurrent jobs on disjoint slices == K serial oracle runs,
    /// bitwise, with the verify hash agreeing in every case.
    #[test]
    fn concurrent_jobs_on_disjoint_slices_match_serial_runs_bitwise(
        slices in 1usize..4,
        njobs in 3usize..8,
        master in any::<u64>(),
    ) {
        // Two cores per slice so every method in `method_for` fits.
        let machine = Machine::flat(2 * slices);
        let server = Server::new(&machine, ServerConfig {
            slices: SlicePolicy::Fixed(slices),
            ..ServerConfig::default()
        });
        prop_assert_eq!(server.slices().len(), slices);

        let ops = op_pool();
        let mut rng = master;
        let specs: Vec<JobSpec> = (0..njobs)
            .map(|_| {
                let op = ops[(splitmix(&mut rng) % 4) as usize];
                let dims = Dims3::cube(8 + (splitmix(&mut rng) % 9) as usize); // 8..=16
                let sweeps = 1 + (splitmix(&mut rng) % 4) as usize;            // 1..=4
                let kind = splitmix(&mut rng) as u8;
                let seed = splitmix(&mut rng);
                let payload = if splitmix(&mut rng) & 1 == 1 {
                    JobPayload::F32(init::random(dims, seed))
                } else {
                    JobPayload::F64(init::random(dims, seed))
                };
                JobSpec::new(op, payload, sweeps, JobMethod::Fixed(method_for(kind)))
            })
            .collect();

        // Submit everything up front: the slices race over the queue.
        let handles: Vec<JobHandle> = specs
            .iter()
            .map(|s| {
                server
                    .submit_blocking(s.clone(), Duration::from_secs(60))
                    .expect("queue capacity outlasts the test")
            })
            .collect();

        for (spec, handle) in specs.into_iter().zip(handles) {
            let (got, report) = handle.wait().expect("job must succeed");
            let want = oracle(spec.op, &spec.payload, spec.sweeps);
            assert_payload_identical(&want, &got, spec.op.name());
            prop_assert_eq!(report.verify_hash, want.fingerprint());
            prop_assert!(report.slice < slices);
            prop_assert_eq!(report.dims, spec.payload.dims());
        }
    }

    /// A slice solves the client's grid in place: for all four operators
    /// and both element types the served grid is bitwise the oracle's,
    /// and the report prices no copy in or out.
    #[test]
    fn ingest_egress_round_trips_every_operator_bitwise(master in any::<u64>()) {
        let server = Server::new(&Machine::flat(2), ServerConfig::default());
        let mut rng = master;
        for op in op_pool() {
            for f32_payload in [false, true] {
                let dims = Dims3::cube(8 + (splitmix(&mut rng) % 7) as usize); // 8..=14
                let sweeps = 1 + (splitmix(&mut rng) % 3) as usize;            // 1..=3
                let seed = splitmix(&mut rng);
                let payload = if f32_payload {
                    JobPayload::F32(init::random(dims, seed))
                } else {
                    JobPayload::F64(init::random(dims, seed))
                };
                let method = JobMethod::Fixed(method_for(splitmix(&mut rng) as u8));
                let spec = JobSpec::new(op, payload.clone(), sweeps, method);
                let (got, report) = server
                    .submit_blocking(spec, Duration::from_secs(60))
                    .expect("admitted")
                    .wait()
                    .expect("job must succeed");
                let want = oracle(op, &payload, sweeps);
                let ctx = format!("{} {}", op.name(), payload.element());
                assert_payload_identical(&want, &got, &ctx);
                prop_assert!(report.verify_hash == want.fingerprint(), "hash: {ctx}");
                prop_assert!(report.ingest == Duration::ZERO, "ingest: {ctx}");
                prop_assert!(report.egress == Duration::ZERO, "egress: {ctx}");
            }
        }
    }

    /// Jackson's rule on random traces: for a single server and
    /// simultaneous release, EDF minimizes maximum lateness — so
    /// whenever the FIFO order meets *every* deadline, the
    /// `deadline_pick` order does too, and its worst lateness never
    /// exceeds FIFO's. (The pointwise claim — EDF meets every deadline
    /// FIFO meets, job by job — is false in general; max lateness is
    /// the honest guarantee.)
    #[test]
    fn deadline_edf_never_misses_when_fifo_meets_all(
        njobs in 2usize..12,
        master in any::<u64>(),
    ) {
        let t0 = Instant::now();
        let mut rng = master;
        let mut service = Vec::with_capacity(njobs);
        let mut deadline = Vec::with_capacity(njobs);
        let mut facts = Vec::with_capacity(njobs);
        for _ in 0..njobs {
            // Service 1..=20 ms; deadlines anywhere from tight to lax.
            let s = Duration::from_millis(1 + splitmix(&mut rng) % 20);
            let d = Duration::from_millis(1 + splitmix(&mut rng) % 200);
            service.push(s);
            deadline.push(d);
            facts.push(SchedFacts {
                priority: Priority::Latency,
                deadline: Some(t0 + d),
                submitted: t0,
            });
        }
        let aging = Duration::from_millis(10);
        let fifo: Vec<usize> = (0..njobs).collect();
        let edf = edf_order(&facts, aging);
        let max = |l: &[f64]| l.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let fifo_late = lateness_in_order(&fifo, &service, &deadline);
        let edf_late = lateness_in_order(&edf, &service, &deadline);
        prop_assert!(
            max(&edf_late) <= max(&fifo_late) + 1e-12,
            "EDF max lateness {} > FIFO's {}",
            max(&edf_late),
            max(&fifo_late)
        );
        if max(&fifo_late) <= 0.0 {
            prop_assert!(
                edf_late.iter().all(|&l| l <= 1e-12),
                "FIFO met every deadline but EDF missed one: {edf_late:?}"
            );
        }
    }

    /// Aging bounds `Batch` wait: under a continuous backlogged stream
    /// of `Latency` work, a deadline-less `Batch` job is still served,
    /// and everything served ahead of it was submitted within the
    /// job's grace period (`4 × aging` after its submission) — the
    /// starvation bound of the virtual-deadline discipline.
    #[test]
    fn deadline_aging_bounds_batch_wait_under_urgent_stream(
        master in any::<u64>(),
        gap_ms in 1u64..5,
    ) {
        let t0 = Instant::now();
        let aging = Duration::from_millis(20);
        let batch_grace = aging * 4;
        let mut rng = master;
        // Latency jobs arrive every gap_ms with service >= the gap, so
        // the queue never drains: a policy without aging would starve
        // the Batch job forever.
        let nlat = 120usize;
        let arrivals: Vec<Duration> = (0..nlat)
            .map(|i| Duration::from_millis(gap_ms * i as u64))
            .collect();
        let services: Vec<Duration> = (0..nlat)
            .map(|_| Duration::from_millis(gap_ms + splitmix(&mut rng) % 4))
            .collect();
        let batch = SchedFacts {
            priority: Priority::Batch,
            deadline: None,
            submitted: t0,
        };
        // Event-driven single-server simulation over the virtual clock.
        let mut now = Duration::ZERO;
        let mut served_before_batch: Vec<usize> = Vec::new();
        let mut batch_done = false;
        let mut next = 0usize; // first latency job not yet arrived
        let mut queued: Vec<usize> = Vec::new();
        let mut backlog_at_batch = 0usize;
        while !batch_done {
            while next < nlat && arrivals[next] <= now {
                queued.push(next);
                next += 1;
            }
            let mut facts: Vec<SchedFacts> = queued
                .iter()
                .map(|&i| SchedFacts {
                    priority: Priority::Latency,
                    deadline: None,
                    submitted: t0 + arrivals[i],
                })
                .collect();
            facts.push(batch); // batch is always pending, at the back
            let picked = deadline_pick(&facts, aging);
            if picked == facts.len() - 1 {
                batch_done = true;
                backlog_at_batch = queued.len();
            } else {
                let job = queued.remove(picked);
                served_before_batch.push(job);
                now += services[job];
            }
        }
        // Batch must have *won over* pending urgent work, not been
        // served into an idle queue — otherwise the bound is vacuous.
        prop_assert!(
            backlog_at_batch > 0,
            "Batch was served only because the urgent stream drained"
        );
        for &i in &served_before_batch {
            prop_assert!(
                arrivals[i] <= batch_grace,
                "job arriving at {:?} (after the {:?} grace) ran before Batch",
                arrivals[i],
                batch_grace
            );
        }
    }

    /// Cancelled jobs never execute; everyone else still verifies
    /// bitwise, and the server's books balance.
    #[test]
    fn cancel_random_subset_never_executes_rest_verifies(
        njobs in 2usize..7,
        master in any::<u64>(),
    ) {
        let machine = Machine::flat(2);
        // Paused server: cancellation always beats the (not yet
        // started) slices, so the outcome is deterministic.
        let mut server = Server::new_paused(&machine, ServerConfig {
            policy: SchedPolicy::Deadline,
            ..ServerConfig::default()
        });
        let ops = op_pool();
        let mut rng = master;
        let mut jobs = Vec::new();
        for _ in 0..njobs {
            let op = ops[(splitmix(&mut rng) % 4) as usize];
            let dims = Dims3::cube(8 + (splitmix(&mut rng) % 5) as usize);
            let sweeps = 1 + (splitmix(&mut rng) % 3) as usize;
            let seed = splitmix(&mut rng);
            let payload = JobPayload::F64(init::random(dims, seed));
            let priority = Priority::ALL[(splitmix(&mut rng) % 3) as usize];
            let spec = JobSpec::new(op, payload, sweeps, JobMethod::Fixed(Method::Sequential))
                .with_priority(priority);
            let cancel_it = splitmix(&mut rng) & 1 == 1;
            let handle = server.submit(spec.clone()).expect("capacity outlasts njobs");
            jobs.push((spec, handle, cancel_it));
        }
        let mut expected_cancels = 0u64;
        for (_, handle, cancel_it) in &jobs {
            if *cancel_it {
                prop_assert!(handle.cancel(), "queued jobs must cancel");
                prop_assert!(!handle.cancel(), "double-cancel is a no-op");
                expected_cancels += 1;
            }
        }
        server.start();
        for (spec, handle, cancelled) in jobs {
            if cancelled {
                let err = handle.wait().expect_err("cancelled jobs never run");
                prop_assert!(err.message.contains("cancelled"), "got: {}", err.message);
            } else {
                let (got, report) = handle.wait().expect("surviving jobs run");
                let want = oracle(spec.op, &spec.payload, spec.sweeps);
                assert_payload_identical(&want, &got, spec.op.name());
                prop_assert_eq!(report.verify_hash, want.fingerprint());
                prop_assert_eq!(report.priority, spec.priority);
            }
        }
        let stats = server.stats();
        prop_assert_eq!(stats.cancels, expected_cancels);
        let completed: u64 = stats.classes.iter().map(|c| c.completed).sum();
        let cancelled: u64 = stats.classes.iter().map(|c| c.cancelled).sum();
        let admitted: u64 = stats.classes.iter().map(|c| c.admitted).sum();
        prop_assert_eq!(cancelled, expected_cancels);
        prop_assert_eq!(completed, njobs as u64 - expected_cancels);
        prop_assert_eq!(admitted, njobs as u64);
    }
}

/// `Rejected::Infeasible` is honest: a job shed at admission, actually
/// forced through a real solve, takes longer than the deadline it was
/// shed for — the model floor under-estimates real service time.
#[test]
fn infeasible_shed_jobs_really_would_have_missed() {
    let machine = Machine::flat(1);
    let server = Server::new_paused(
        &machine,
        ServerConfig {
            admission: Admission::Shed(MachineParams::nehalem_ep()),
            ..ServerConfig::default()
        },
    );
    let params = MachineParams::nehalem_ep();
    for edge in [24usize, 26, 28] {
        let grid: Grid3<f64> = init::random(Dims3::cube(edge), edge as u64);
        let sweeps = 4;
        let spec = JobSpec::new(
            JobOp::Jacobi6,
            JobPayload::F64(grid.clone()),
            sweeps,
            JobMethod::Fixed(Method::Sequential),
        );
        // Half the optimistic floor: certainly infeasible by the model.
        let floor = Duration::from_secs_f64(temporal_blocking::model::service_floor_seconds(
            &params,
            spec.op
                .streaming_bytes_per_lup(spec.payload.element_bytes()),
            spec.weight(),
        ));
        let deadline = floor / 2;
        let spec = spec.with_deadline(deadline);
        match server.submit(spec) {
            Err(Rejected::Infeasible(spec, predicted)) => {
                assert!(predicted >= floor, "prediction at least the model floor");
                // Ground truth: really run it (sequential, the fastest
                // warm-free path available here) and time it.
                let t0 = Instant::now();
                let (got, _) = solve_with(&Jacobi6, grid.clone(), sweeps, Method::Sequential)
                    .expect("the solve itself is fine");
                let elapsed = t0.elapsed();
                assert!(
                    elapsed > deadline,
                    "edge {edge}: shed job finished in {elapsed:?} <= deadline {deadline:?}"
                );
                // The spec really came back intact.
                assert_eq!(spec.payload.dims(), Dims3::cube(edge));
                let _ = got;
            }
            Ok(_) => panic!("edge {edge}: an infeasible job was admitted"),
            Err(other) => panic!(
                "edge {edge}: expected Infeasible, got {:?}",
                other.into_inner().tag
            ),
        }
    }
    assert_eq!(server.stats().sheds, 3);
}

#[test]
fn full_queue_rejects_and_returns_the_spec() {
    // Paused server: no slice drains the queue, so admission is exact.
    let machine = Machine::flat(1);
    let mut server = Server::new_paused(
        &machine,
        ServerConfig {
            queue_capacity: 2,
            ..ServerConfig::default()
        },
    );
    let spec = |seed| {
        JobSpec::new(
            JobOp::Jacobi6,
            JobPayload::F64(init::random(Dims3::cube(8), seed)),
            1,
            JobMethod::Fixed(Method::Sequential),
        )
    };
    let h1 = server.submit(spec(1)).expect("slot 1");
    let h2 = server.submit(spec(2)).expect("slot 2");
    let back = match server.submit(spec(3)) {
        Err(Rejected::Full(s)) => s,
        other => panic!("third submit must be rejected, got {:?}", other.is_ok()),
    };
    // The spec comes back intact — resubmittable once there is room.
    assert_eq!(back.payload.dims(), Dims3::cube(8));
    // The blocking form really waits its deadline out, then gives up.
    let t0 = std::time::Instant::now();
    assert!(matches!(
        server.submit_blocking(back, Duration::from_millis(30)),
        Err(Rejected::Full(_))
    ));
    assert!(t0.elapsed() >= Duration::from_millis(25));
    assert_eq!(server.queue_len(), 2);

    // Starting the slices drains and serves exactly what was admitted.
    server.start();
    for h in [h1, h2] {
        h.wait().expect("admitted jobs are served");
    }
}

#[test]
fn a_panicking_job_fails_alone_and_slices_keep_serving() {
    let machine = Machine::flat(2);
    let server = Server::new(
        &machine,
        ServerConfig {
            slices: SlicePolicy::Fixed(2),
            ..ServerConfig::default()
        },
    );
    assert_eq!(server.slices().len(), 2);
    let good = |seed| {
        JobSpec::new(
            JobOp::Jacobi6,
            JobPayload::F64(init::random(Dims3::cube(10), seed)),
            2,
            JobMethod::Fixed(Method::Sequential),
        )
    };
    let poison = JobSpec::new(
        JobOp::PanicForTest,
        JobPayload::F64(init::random(Dims3::cube(8), 0)),
        1,
        JobMethod::Fixed(Method::Sequential),
    );

    // Interleave: good, poison, good — then, after the poison has
    // certainly failed, more good jobs (they land on whichever slice is
    // free, including the one that caught the panic).
    let h1 = server.submit(good(1)).unwrap();
    let hp = server.submit(poison).unwrap();
    let h2 = server.submit(good(2)).unwrap();
    let err = hp.wait().expect_err("the poison job must fail");
    assert!(err.message.contains("panicked"), "got: {}", err.message);
    let late: Vec<JobHandle> = (3..7).map(|s| server.submit(good(s)).unwrap()).collect();

    for (i, h) in [h1, h2].into_iter().chain(late).enumerate() {
        let (payload, report) = h.wait().unwrap_or_else(|e| panic!("good job {i}: {e}"));
        assert_eq!(
            report.verify_hash,
            payload.fingerprint(),
            "good job {i}: report hash must describe the returned grid"
        );
    }
    // One more job *after* everything, verified fully bitwise: the
    // server is still a correct solver once the dust settles.
    let (payload, _) = server.submit(good(1)).unwrap().wait().unwrap();
    let initial = init::random::<f64>(Dims3::cube(10), 1);
    let (want, _) = solve_with(&Jacobi6, initial, 2, Method::Sequential).unwrap();
    assert_payload_identical(&JobPayload::F64(want), &payload, "post-panic solve");
}

#[test]
fn warm_tuned_jobs_replay_with_zero_measurements() {
    let dir = std::env::temp_dir().join(format!("tb-serve-warm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache: PathBuf = dir.join("serve_warm.json");
    std::fs::remove_file(&cache).ok();

    let machine = Machine::flat(2);
    let server = Server::new(&machine, ServerConfig::default());
    let tuned = TuneOptions {
        cache_path: Some(cache),
        top_k: 1,
        params: Some(MachineParams::nehalem_ep()),
        families: vec![MethodFamily::Parallel],
        ..TuneOptions::default()
    };
    let spec = || {
        JobSpec::new(
            JobOp::Jacobi6,
            JobPayload::F64(init::random(Dims3::cube(12), 9)),
            2,
            JobMethod::Tuned(tuned.clone()),
        )
    };
    let (_, cold) = server.submit(spec()).unwrap().wait().expect("cold tune");
    let cold = cold.tuned.expect("tuned jobs report tuning facts");
    assert!(!cold.cache_hit);
    assert!(cold.measurements > 0, "a cold tune measures candidates");

    let (warm_payload, warm) = server.submit(spec()).unwrap().wait().expect("warm replay");
    let warm_facts = warm.tuned.expect("tuned jobs report tuning facts");
    assert!(
        warm_facts.cache_hit,
        "second identical job must hit the cache"
    );
    assert_eq!(warm_facts.measurements, 0, "a warm job measures nothing");
    assert_eq!(
        warm_facts.plan, cold.plan,
        "the replayed plan is the winner"
    );

    // And the replay is still bitwise-correct.
    let want = oracle(JobOp::Jacobi6, &spec().payload, 2);
    assert_payload_identical(&want, &warm_payload, "warm tuned job");
    assert_eq!(warm.verify_hash, want.fingerprint());
}
