//! Contention and longevity tests for the synchronization primitives —
//! many threads, many rounds, oversubscription, randomized stalls.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use tb_runtime::sync::{PipelineSync, SpinBarrier};

#[test]
fn barrier_survives_oversubscription() {
    // 4x more threads than this box has cores.
    let threads = 4 * std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    let barrier = SpinBarrier::new(threads);
    let sum = AtomicU64::new(0);
    std::thread::scope(|s| {
        for tid in 0..threads {
            let barrier = &barrier;
            let sum = &sum;
            s.spawn(move || {
                for round in 0..50u64 {
                    sum.fetch_add(tid as u64 + round, Ordering::Relaxed);
                    barrier.wait();
                }
            });
        }
    });
    let expected: u64 = (0..threads as u64)
        .map(|t| (0..50u64).map(|r| t + r).sum::<u64>())
        .sum();
    assert_eq!(sum.load(Ordering::Relaxed), expected);
}

#[test]
fn pipeline_with_random_stalls_preserves_stage_order() {
    // Inject pseudo-random sleeps to shake the interleavings; the stage
    // ordering invariant must hold regardless.
    let threads = 4;
    let blocks = 60u64;
    let psync = PipelineSync::new(threads, 2, 1, 3, 1);
    let progress: Vec<AtomicU64> = (0..blocks).map(|_| AtomicU64::new(0)).collect();
    std::thread::scope(|s| {
        for tid in 0..threads {
            let psync = &psync;
            let progress = &progress;
            s.spawn(move || {
                // Cheap xorshift for per-thread jitter.
                let mut state = 0x9e3779b97f4a7c15u64 ^ (tid as u64 + 1);
                for j in 0..blocks {
                    psync.wait_for_turn(tid, blocks);
                    let seen = progress[j as usize].load(Ordering::Acquire);
                    assert_eq!(seen, tid as u64, "block {j} out of order at thread {tid}");
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    if state.is_multiple_of(7) {
                        std::thread::sleep(Duration::from_micros(state % 200));
                    }
                    progress[j as usize].store(tid as u64 + 1, Ordering::Release);
                    psync.complete_block(tid);
                }
            });
        }
    });
    for (j, p) in progress.iter().enumerate() {
        assert_eq!(p.load(Ordering::Relaxed), threads as u64, "block {j}");
    }
}

#[test]
fn deep_dl_with_saturation_terminates() {
    // d_l = 5 with only 8 blocks: without end-of-sweep saturation the
    // tail would deadlock (regression test for the saturating wait).
    let threads = 3;
    let blocks = 8u64;
    let psync = PipelineSync::new(threads, 3, 5, 8, 0);
    std::thread::scope(|s| {
        for tid in 0..threads {
            let psync = &psync;
            s.spawn(move || {
                for _ in 0..blocks {
                    psync.wait_for_turn(tid, blocks);
                    psync.complete_block(tid);
                }
            });
        }
    });
    for tid in 0..threads {
        assert_eq!(psync.count(tid), blocks);
    }
}

#[test]
fn many_team_sweeps_with_resets() {
    let threads = 4;
    let blocks = 16u64;
    let psync = PipelineSync::new(threads, 2, 1, 2, 0);
    let barrier = SpinBarrier::new(threads);
    std::thread::scope(|s| {
        for tid in 0..threads {
            let psync = &psync;
            let barrier = &barrier;
            s.spawn(move || {
                for _sweep in 0..25 {
                    barrier.wait();
                    if tid == 0 {
                        psync.reset();
                    }
                    barrier.wait();
                    for _ in 0..blocks {
                        psync.wait_for_turn(tid, blocks);
                        psync.complete_block(tid);
                    }
                }
            });
        }
    });
    for tid in 0..threads {
        assert_eq!(psync.count(tid), blocks);
    }
}
