//! Machine-level rungs of the traced pass, independent of the workload:
//! the bandwidth ceilings (membench), topology detection, the barrier
//! (sync) and dispatch (runtime) round trips.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use temporal_blocking::membench::{measure_bandwidth_on, StreamKind};
use temporal_blocking::prelude::*;
use temporal_blocking::sync::SpinBarrier;
use temporal_blocking::topology::{detect, Machine};

use crate::ctx::Ctx;
use crate::stats::median;

/// A thread that found nothing to do for this long has parked.
const IDLE: Duration = Duration::from_millis(5);
const PARKED_TRIALS: usize = 20;

/// Elements per COPY array. 64 MiB arrays (3 per thread) stream from
/// DRAM on the reference VM — throughput no longer changes with size
/// there (README "Sizes") — while 512 KiB arrays stay in L2.
fn mem_elems(smoke: bool) -> usize {
    if smoke {
        1 << 20
    } else {
        8 << 20
    }
}
const CACHE_ELEMS: usize = 1 << 16;

pub fn detect_machine(ctx: &mut Ctx) -> Machine {
    let (machine, secs) = ctx.tracer.time("topology.detect", |_| detect::detect());
    if ctx.trace {
        ctx.sample("topology.detect_ms", secs * 1e3);
    }
    machine
}

pub fn layers(ctx: &mut Ctx, machine: &Machine) {
    let team = ctx.team;
    let rt = Runtime::new(&TeamLayout::new(machine, team, 1));

    // membench: ms1 (one thread), ms (team), mc (team, L2-resident).
    let elems = mem_elems(ctx.smoke);
    let copy = |ctx: &mut Ctx, threads, elems, reps| {
        let (sample, _) = ctx.tracer.time("membench.measure_bandwidth_on", |_| {
            measure_bandwidth_on(&rt, StreamKind::Copy, threads, elems, reps)
        });
        sample.bytes_per_sec
    };
    let ms1 = copy(ctx, 1, elems, 4);
    let ms = copy(ctx, team, elems, 4);
    let mc = copy(ctx, team, CACHE_ELEMS, 50);
    ctx.sample("membench.ms1_gbs", ms1 / 1e9);
    ctx.sample("membench.ms_gbs", ms / 1e9);
    ctx.sample("membench.mc_gbs", mc / 1e9);
    ctx.params = Some(MachineParams {
        ms,
        ms1,
        mc,
        cores_per_socket: machine.cores_per_socket().max(1),
        sockets: machine.num_sockets().max(1),
        cache_bytes: machine.shared_cache().map_or(8 << 20, |c| c.size_bytes),
    });

    // sync: barrier round trip back to back, and with one late arrival
    // after the others have parked.
    const ROUNDS: usize = 20_000;
    let barrier = SpinBarrier::new(team);
    let (_, secs) = ctx.tracer.time("sync.SpinBarrier.wait", |_| {
        rt.run(team, &|_| {
            for _ in 0..ROUNDS {
                barrier.wait();
            }
        })
    });
    ctx.sample("sync.barrier_ns", secs / ROUNDS as f64 * 1e9);
    if team >= 2 {
        let epoch = Instant::now();
        let arrived_ns = AtomicU64::new(0);
        let wake_ns: Vec<AtomicU64> = (0..PARKED_TRIALS).map(|_| AtomicU64::new(0)).collect();
        ctx.tracer.time("sync.SpinBarrier.wait", |_| {
            rt.run(team, &|k| {
                for slot in &wake_ns {
                    barrier.wait();
                    if k == 0 {
                        std::thread::sleep(IDLE);
                        arrived_ns.store(epoch.elapsed().as_nanos() as u64, Ordering::SeqCst);
                    }
                    barrier.wait();
                    if k == 1 {
                        let woke = epoch.elapsed().as_nanos() as u64;
                        slot.store(
                            woke.saturating_sub(arrived_ns.load(Ordering::SeqCst)),
                            Ordering::SeqCst,
                        );
                    }
                }
            })
        });
        let wakes: Vec<f64> = wake_ns
            .iter()
            .map(|ns| ns.load(Ordering::SeqCst) as f64 / 1e3)
            .collect();
        ctx.sample("sync.barrier_parked_us", median(&wakes));
    } else {
        ctx.sample("sync.barrier_parked_us", secs / ROUNDS as f64 * 1e6);
    }

    // runtime: an empty dispatch to the whole team, warm and after the
    // workers went idle.
    const DISPATCHES: usize = 5_000;
    let (_, secs) = ctx.tracer.time("runtime.run", |_| {
        for _ in 0..DISPATCHES {
            rt.run(team, &|_| {});
        }
    });
    ctx.sample("runtime.dispatch_us", secs / DISPATCHES as f64 * 1e6);
    let parked: Vec<f64> = (0..PARKED_TRIALS)
        .map(|_| {
            std::thread::sleep(IDLE);
            ctx.tracer.time("runtime.run", |_| rt.run(team, &|_| {})).1 * 1e6
        })
        .collect();
    ctx.sample("runtime.dispatch_parked_us", median(&parked));
}
