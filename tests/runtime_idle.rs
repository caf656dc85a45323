//! An idle runtime sleeps: its threads park until the dispatch protocol
//! unparks them, and no wakeup is lost.
//!
//! This is its own test binary so that the only runtime threads in the
//! process are the ones a test here builds; the tests take turns through
//! [`ONE_AT_A_TIME`] for the same reason.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use temporal_blocking::runtime::Runtime;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// The runtime's private bound on one park: what a lost wakeup costs.
const PARK_SAFETY_BOUND: Duration = Duration::from_millis(200);

/// Voluntary context switches of every runtime thread in this process,
/// by thread name (`tb-runtime-w0`, ..., `tb-runtime-comm`).
#[cfg(target_os = "linux")]
fn runtime_switches() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let path = task.expect("task entry").path();
        let (Ok(name), Ok(status)) = (
            std::fs::read_to_string(path.join("comm")),
            std::fs::read_to_string(path.join("status")),
        ) else {
            continue; // the thread exited while we listed
        };
        let name = name.trim().to_string();
        if !name.starts_with("tb-runtime-") {
            continue;
        }
        let switches = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|v| v.trim().parse().ok())
            .expect("voluntary_ctxt_switches in task status");
        out.push((name, switches));
    }
    out.sort();
    out
}

#[cfg(target_os = "linux")]
#[test]
fn idle_runtime_threads_stay_parked() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let rt = Runtime::from_cpus(vec![None; 2], Some(None));
    let hits = AtomicU64::new(0);
    rt.run(2, &|_| {
        hits.fetch_add(1, Ordering::Relaxed);
    });
    rt.submit_comm(&mut || {
        hits.fetch_add(1, Ordering::Relaxed);
    })
    .join();
    assert_eq!(hits.load(Ordering::Relaxed), 3);
    // Let every thread finish its spin and yield phase and park.
    std::thread::sleep(Duration::from_millis(50));
    let before = runtime_switches();
    std::thread::sleep(Duration::from_millis(300));
    let after = runtime_switches();
    let names: Vec<&str> = before.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        ["tb-runtime-comm", "tb-runtime-w0", "tb-runtime-w1"],
        "the runtime's three threads, and no other"
    );
    // A parked thread wakes only when its safety bound runs out: at
    // most twice in 300 ms. A thread that polls wakes hundreds of times.
    for ((name, b), (_, a)) in before.iter().zip(&after) {
        assert!(
            a - b <= 4,
            "{name} made {} voluntary context switches in 300 ms of idleness",
            a - b
        );
    }
}

/// Fail the process if `f` does not return within `limit`: a hang must
/// fail this suite, not block it.
fn with_watchdog<R>(limit: Duration, f: impl FnOnce() -> R) -> R {
    let (done, watched) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if let Err(mpsc::RecvTimeoutError::Timeout) = watched.recv_timeout(limit) {
            eprintln!("runtime wakeup test still running after {limit:?}: a wakeup was lost");
            std::process::exit(1);
        }
    });
    let out = f();
    drop(done);
    watchdog.join().expect("watchdog thread");
    out
}

#[test]
fn no_wakeup_is_lost_after_the_threads_park() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let rt = Runtime::from_cpus(vec![None; 2], Some(None));
    let (dispatches, comm_tasks) = (200, 20);
    let hits = AtomicU64::new(0);
    let mut busy = Duration::ZERO;
    with_watchdog(Duration::from_secs(60), || {
        for i in 0..dispatches + comm_tasks {
            // Long enough for every runtime thread, and for this thread
            // as the waiter, to reach the park.
            std::thread::sleep(Duration::from_millis(2));
            let t = Instant::now();
            if i % 11 == 10 {
                rt.submit_comm(&mut || {
                    hits.fetch_add(1, Ordering::Relaxed);
                })
                .join();
            } else {
                rt.run(2, &|_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
            busy += t.elapsed();
        }
    });
    assert_eq!(
        hits.load(Ordering::Relaxed),
        (2 * dispatches + comm_tasks) as u64
    );
    // Every wakeup is an unpark: the operations take microseconds each.
    // One lost wakeup per ten operations would already cost this much.
    let lost = PARK_SAFETY_BOUND * (dispatches + comm_tasks) as u32 / 10;
    assert!(
        busy < lost,
        "{} operations took {busy:?} beyond their sleeps",
        dispatches + comm_tasks
    );
}
