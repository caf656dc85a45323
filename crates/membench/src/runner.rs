//! Timed bandwidth measurements.

use std::time::Instant;

use tb_grid::AlignedVec;
use tb_runtime::Runtime;
use tb_sync::SpinBarrier;

use crate::kernels;

/// Which STREAM kernel to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StreamKind {
    Copy,
    CopyNt,
    Scale,
    Add,
    Triad,
}

impl StreamKind {
    /// Bytes moved per element (McCalpin accounting; NT stores avoid the
    /// write-allocate, plain stores' RFO is conventionally not counted).
    pub fn bytes_per_elem(self) -> usize {
        match self {
            StreamKind::Copy | StreamKind::CopyNt | StreamKind::Scale => 16,
            StreamKind::Add | StreamKind::Triad => 24,
        }
    }
}

/// One measurement result.
#[derive(Clone, Copy, Debug)]
pub struct BandwidthSample {
    pub kind: StreamKind,
    pub threads: usize,
    /// Working set per thread in bytes: the arrays the kernel streams
    /// (`elems ×` [`StreamKind::bytes_per_elem`]).
    pub working_set: usize,
    /// Best-of-repetitions bandwidth in bytes/second.
    pub bytes_per_sec: f64,
}

/// Measure kernel bandwidth with `threads` workers of a persistent
/// runtime, each on its own arrays of `elems` elements, `reps`
/// repetitions (best rep wins, as in STREAM). The arrays are allocated
/// *inside* the worker task, so first touch happens on the (pinned)
/// worker that streams them, and only the arrays the kernel streams are
/// allocated: COPY and COPY-NT move `a` to `c` and never touch `b`.
pub fn measure_bandwidth_on(
    rt: &Runtime,
    kind: StreamKind,
    threads: usize,
    elems: usize,
    reps: usize,
) -> BandwidthSample {
    assert!(threads >= 1 && elems >= 2 && reps >= 1);
    assert!(
        rt.threads() >= threads,
        "runtime has {} workers but the measurement needs {threads}",
        rt.threads()
    );
    let barrier = SpinBarrier::new(threads);
    // Per-rep wall time = max over threads (a rep is as slow as its
    // slowest participant); best rep = min over non-warmup reps.
    let mut rep_times = vec![0.0f64; reps];
    let times = std::sync::Mutex::new(&mut rep_times);

    rt.run(threads, &|_k| {
        let a = AlignedVec::<f64>::filled(elems, 1.0);
        let mut b = (!matches!(kind, StreamKind::Copy | StreamKind::CopyNt))
            .then(|| AlignedVec::<f64>::filled(elems, 2.0));
        let mut c = AlignedVec::<f64>::zeroed(elems);
        for rep in 0..reps {
            barrier.wait();
            let t0 = Instant::now();
            match (kind, b.as_mut()) {
                (StreamKind::Copy, _) => kernels::copy(&a, &mut c),
                (StreamKind::CopyNt, _) => kernels::copy_nt(&a, &mut c),
                (StreamKind::Scale, Some(b)) => kernels::scale(&a, b, 3.0),
                (StreamKind::Add, Some(b)) => kernels::add(&a, b, &mut c),
                (StreamKind::Triad, Some(b)) => kernels::triad(&a, b, &mut c, 3.0),
                (_, None) => unreachable!("`b` exists for every kernel that streams it"),
            }
            let dt = t0.elapsed().as_secs_f64();
            barrier.wait();
            let mut guard = tb_sync::lock(&times);
            if dt > guard[rep] {
                guard[rep] = dt;
            }
        }
        std::hint::black_box(c[0]);
    });

    // First rep is warm-up when reps > 1.
    let usable = if rep_times.len() > 1 {
        &rep_times[1..]
    } else {
        &rep_times[..]
    };
    let best = usable.iter().cloned().fold(f64::INFINITY, f64::min);
    let bytes = (threads * elems * kind.bytes_per_elem()) as f64;
    BandwidthSample {
        kind,
        threads,
        working_set: elems * kind.bytes_per_elem(),
        bytes_per_sec: bytes / best.max(1e-12),
    }
}

/// [`measure_bandwidth_on`] on a one-shot runtime — the classic entry
/// point. `pin` pins worker `k` to CPU `k`.
pub fn measure_bandwidth(
    kind: StreamKind,
    threads: usize,
    elems: usize,
    reps: usize,
    pin: bool,
) -> BandwidthSample {
    assert!(threads >= 1);
    let rt = if pin {
        Runtime::from_cpus((0..threads).map(Some).collect(), None)
    } else {
        Runtime::with_threads(threads)
    };
    measure_bandwidth_on(&rt, kind, threads, elems, reps)
}

/// Sweep working-set sizes to expose the cache hierarchy: returns
/// `(working_set_bytes, bandwidth)` pairs for the given kernel/threads.
pub fn working_set_sweep(
    kind: StreamKind,
    threads: usize,
    sizes: &[usize],
    reps: usize,
) -> Vec<(usize, f64)> {
    sizes
        .iter()
        .map(|&elems| {
            let s = measure_bandwidth(kind, threads, elems, reps, false);
            (s.working_set, s.bytes_per_sec)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_accounting() {
        assert_eq!(StreamKind::Copy.bytes_per_elem(), 16);
        assert_eq!(StreamKind::Triad.bytes_per_elem(), 24);
    }

    #[test]
    fn measures_positive_bandwidth() {
        let s = measure_bandwidth(StreamKind::Copy, 1, 1 << 16, 3, false);
        assert!(
            s.bytes_per_sec > 1e6,
            "absurdly low bandwidth {}",
            s.bytes_per_sec
        );
        assert_eq!(s.threads, 1);
    }

    #[test]
    fn multithreaded_run_completes() {
        let s = measure_bandwidth(StreamKind::Triad, 2, 1 << 14, 2, false);
        assert!(s.bytes_per_sec.is_finite());
        assert!(s.bytes_per_sec > 0.0);
    }

    #[test]
    fn nt_copy_reports_bandwidth() {
        let s = measure_bandwidth(StreamKind::CopyNt, 1, 1 << 16, 2, false);
        assert!(s.bytes_per_sec > 1e6);
    }

    #[test]
    fn working_set_counts_only_the_streamed_arrays() {
        for (kind, arrays) in [
            (StreamKind::Copy, 2),
            (StreamKind::CopyNt, 2),
            (StreamKind::Scale, 2),
            (StreamKind::Add, 3),
            (StreamKind::Triad, 3),
        ] {
            let s = measure_bandwidth(kind, 1, 1 << 10, 1, false);
            assert_eq!(s.working_set, (1 << 10) * arrays * 8, "{kind:?}");
        }
    }

    #[test]
    fn sweep_returns_one_sample_per_size() {
        let out = working_set_sweep(StreamKind::Copy, 1, &[1 << 10, 1 << 12], 2);
        assert_eq!(out.len(), 2);
        assert!(out[0].0 < out[1].0);
    }
}
