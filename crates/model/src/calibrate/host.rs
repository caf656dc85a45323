//! Derive a [`crate::MachineParams`] for the *host* machine.
//!
//! * `M_{s,1}`: single-thread COPY over a memory-sized working set,
//! * `M_s`: COPY with all cores of one cache group over the same set,
//! * `M_c`: COPY with the cache group's threads over a set fitting the
//!   shared cache.
//!
//! The result feeds the §1.4 diagnostic model so its predictions refer to
//! the machine actually running the benchmarks (experiments E1/E5).

use crate::MachineParams;
use tb_runtime::topology::Machine;
use tb_runtime::Runtime;

use super::runner::{measure_bandwidth_on, StreamKind};

/// Calibration effort: working-set sizes, repetitions and pinning.
#[derive(Clone, Copy, Debug)]
pub struct CalibrationProfile {
    pub mem_elems: usize,
    pub cache_elems: usize,
    pub reps: usize,
    pub pin: bool,
}

impl CalibrationProfile {
    /// ~32 MB COPY working set in memory, ~1 MB in cache, 3 reps.
    pub fn quick() -> Self {
        Self {
            mem_elems: 2 << 20,
            cache_elems: 1 << 16,
            reps: 3,
            pin: false,
        }
    }
}

/// Measure the host and fill in a parameter set. The `machine` topology
/// supplies team geometry and cache capacity. Builds one runtime for
/// all three measurements and delegates to [`calibrate_host_on`].
pub fn calibrate_host(machine: &Machine, profile: CalibrationProfile) -> MachineParams {
    let group = machine.cores_per_socket().max(1);
    let rt = if profile.pin {
        Runtime::from_cpus((0..group).map(Some).collect(), None)
    } else {
        Runtime::with_threads(group)
    };
    calibrate_host_on(&rt, machine, profile)
}

/// [`calibrate_host`] on a caller-provided runtime: all three
/// measurements (`M_{s,1}`, `M_s`, `M_c`) share its workers, so the
/// arrays each worker streams are first-touched where they will be read.
///
/// # Panics
/// Panics if the runtime has fewer workers than
/// `machine.cores_per_socket()` — a smaller team would silently
/// understate the saturated bandwidths and skew every model downstream.
pub fn calibrate_host_on(
    rt: &Runtime,
    machine: &Machine,
    profile: CalibrationProfile,
) -> MachineParams {
    let group = machine.cores_per_socket().max(1);
    assert!(
        rt.threads() >= group,
        "runtime has {} workers but calibrating {} needs a full cache group of {group}",
        rt.threads(),
        machine.name
    );
    // Size the cache set to (at most) half the shared cache per the
    // paper's "block small enough to stay resident" requirement.
    let cache_bytes = machine
        .shared_cache()
        .map(|c| c.size_bytes)
        .unwrap_or(8 * 1024 * 1024);
    let copy_bytes = StreamKind::Copy.bytes_per_elem();
    let cache_elems = profile
        .cache_elems
        .min(cache_bytes / copy_bytes / 2)
        .max(1024);

    let ms1 = measure_bandwidth_on(rt, StreamKind::Copy, 1, profile.mem_elems, profile.reps)
        .bytes_per_sec;
    let ms = measure_bandwidth_on(
        rt,
        StreamKind::Copy,
        group,
        profile.mem_elems / group.max(1),
        profile.reps,
    )
    .bytes_per_sec;
    let mc = measure_bandwidth_on(rt, StreamKind::Copy, group, cache_elems, profile.reps + 2)
        .bytes_per_sec;

    MachineParams {
        // Guard against measurement inversion on noisy/virtualized hosts:
        // the model requires Ms >= Ms,1 and Mc >= Ms.
        ms: ms.max(ms1),
        ms1,
        mc: mc.max(ms.max(ms1)),
        cores_per_socket: group,
        sockets: machine.num_sockets(),
        cache_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_calibration_is_sane() {
        let machine = tb_runtime::topology::detect::detect();
        let p = CalibrationProfile {
            mem_elems: 1 << 18, // keep the unit test fast
            cache_elems: 1 << 14,
            reps: 2,
            pin: false,
        };
        let m = calibrate_host(&machine, p);
        assert!(m.ms1 > 0.0 && m.ms1.is_finite());
        assert!(m.ms >= m.ms1);
        assert!(m.mc >= m.ms);
        assert!(m.cores_per_socket >= 1);
        assert!(m.sockets >= 1);
    }
}
