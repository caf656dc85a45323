//! Synchronization-overhead analysis (supporting the paper's claim that
//! "a barrier may cost hundreds if not thousands of cycles" and that
//! relaxed synchronization pays off).
//!
//! A synthetic pipeline processes `blocks` virtual blocks whose "work" is
//! a calibrated spin of `--work-us` microseconds; we report wall time and
//! per-thread wait fraction for the barrier scheme versus relaxed
//! (d_u = 1 lock-step and d_u = 4 loose), isolating the synchronization
//! cost from any memory effects.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use tb_bench::Args;
use tb_sync::{PipelineSync, SpinBarrier};

fn spin_for(d: Duration) {
    let t0 = Instant::now();
    while t0.elapsed() < d {
        std::hint::spin_loop();
    }
}

fn main() {
    let args = Args::parse();
    let threads = args.get_usize(
        "--threads",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2),
    );
    let blocks = args.get_usize("--blocks", 400) as u64;
    let work = Duration::from_micros(args.get_usize("--work-us", 20) as u64);

    println!(
        "synthetic pipeline: {threads} threads, {blocks} blocks, {}us work per block\n",
        work.as_micros()
    );
    println!("{:<26} {:>12} {:>14}", "scheme", "total [ms]", "wait share");

    // Barrier scheme: lock-step rounds like the executor's barrier mode.
    {
        let barrier = SpinBarrier::new(threads);
        let wait_ns = AtomicU64::new(0);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for tid in 0..threads {
                let barrier = &barrier;
                let wait_ns = &wait_ns;
                s.spawn(move || {
                    let rounds = blocks as usize + threads - 1;
                    for r in 0..rounds {
                        if let Some(j) = r.checked_sub(tid) {
                            if (j as u64) < blocks {
                                spin_for(work);
                            }
                        }
                        let w = Instant::now();
                        barrier.wait();
                        wait_ns.fetch_add(w.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    }
                });
            }
        });
        let total = t0.elapsed();
        let waited = Duration::from_nanos(wait_ns.load(Ordering::Relaxed) / threads as u64);
        println!(
            "{:<26} {:>12.2} {:>13.1}%",
            "global barrier",
            total.as_secs_f64() * 1e3,
            100.0 * waited.as_secs_f64() / total.as_secs_f64()
        );
    }

    // Relaxed schemes.
    for (label, du) in [
        ("relaxed d_u=1 (lockstep)", 1u64),
        ("relaxed d_u=4", 4),
        ("relaxed d_u=16", 16),
    ] {
        let psync = PipelineSync::new(threads, threads, 1, du, 0);
        let wait_ns = AtomicU64::new(0);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for tid in 0..threads {
                let psync = &psync;
                let wait_ns = &wait_ns;
                s.spawn(move || {
                    for _ in 0..blocks {
                        let w = Instant::now();
                        psync.wait_for_turn(tid, blocks);
                        wait_ns.fetch_add(w.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        spin_for(work);
                        psync.complete_block(tid);
                    }
                });
            }
        });
        let total = t0.elapsed();
        let waited = Duration::from_nanos(wait_ns.load(Ordering::Relaxed) / threads as u64);
        println!(
            "{:<26} {:>12.2} {:>13.1}%",
            label,
            total.as_secs_f64() * 1e3,
            100.0 * waited.as_secs_f64() / total.as_secs_f64()
        );
    }
    println!(
        "\nnote: with oversubscribed threads the barrier scheme degrades most —\n\
         the paper expects relaxed sync to become vital on many-core designs."
    );
}
