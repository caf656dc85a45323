//! Cache keys: machine fingerprint + problem identity.
//!
//! A cached plan is only trustworthy on the machine class it was tuned
//! on, for the operator/problem it was tuned for. [`MachineFingerprint`]
//! captures the machine half — exact topology (socket × core counts and
//! the shared cache, from `tb_runtime::topology` detection) plus the calibrated
//! bandwidths quantized into ±12.5% tolerance bands, so run-to-run
//! calibration jitter does not spuriously invalidate the cache while a
//! genuinely different memory subsystem does. [`PlanKey`] adds the
//! problem half: operator id, exact dims, a logarithmic sweep-count
//! class, and the element type.

use tb_grid::{Dims3, Real};
use tb_model::MachineParams;
use tb_runtime::topology::Machine;

/// Bandwidths are quantized into multiplicative bands of this ratio:
/// two measurements within ±12.5% of each other land in the same band.
const BAND_RATIO: f64 = 1.25;

/// Quantize a bandwidth (B/s) into its tolerance band index.
pub fn bandwidth_band(bytes_per_sec: f64) -> i32 {
    (bytes_per_sec.max(1.0).ln() / BAND_RATIO.ln()).round() as i32
}

/// The machine half of a plan-cache key.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MachineFingerprint {
    /// Exact topology signature from [`Machine::signature`]
    /// (`sockets×cores+L<level>:<bytes>`).
    pub topology: String,
    /// [`bandwidth_band`] of the single-thread memory bandwidth `M_{s,1}`.
    pub ms1_band: i32,
    /// [`bandwidth_band`] of the saturated memory bandwidth `M_s`.
    pub ms_band: i32,
    /// [`bandwidth_band`] of the shared-cache bandwidth `M_c`.
    pub mc_band: i32,
}

impl MachineFingerprint {
    pub fn new(machine: &Machine, params: &MachineParams) -> Self {
        MachineFingerprint {
            topology: machine.signature(),
            ms1_band: bandwidth_band(params.ms1),
            ms_band: bandwidth_band(params.ms),
            mc_band: bandwidth_band(params.mc),
        }
    }

    /// Stable string form, used in cache keys.
    pub fn as_string(&self) -> String {
        format!(
            "{}|ms1:b{}|ms:b{}|mc:b{}",
            self.topology, self.ms1_band, self.ms_band, self.mc_band
        )
    }
}

/// Logarithmic sweep-count class: the bit length of `sweeps`, so plans
/// tuned at 8 sweeps are reused for 8..=15 but not for 100 (where e.g.
/// warm-up effects weigh differently). Class 0 only for `sweeps = 0`.
pub fn sweeps_class(sweeps: usize) -> u32 {
    usize::BITS - sweeps.leading_zeros()
}

/// The element type's short name (`"f64"`/`"f32"`), part of the key:
/// tuned widths and blocks depend on element size.
pub fn element_name<T: Real>() -> &'static str {
    std::any::type_name::<T>()
}

/// Full identity of a tuning problem.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PlanKey {
    pub fingerprint: MachineFingerprint,
    /// [`tb_stencil::StencilOp::name`] of the operator.
    pub op_id: String,
    pub dims: [usize; 3],
    pub sweeps_class: u32,
    pub element_type: String,
}

impl PlanKey {
    pub fn new<T: Real>(
        fingerprint: MachineFingerprint,
        op_id: &str,
        dims: Dims3,
        sweeps: usize,
    ) -> Self {
        PlanKey {
            fingerprint,
            op_id: op_id.to_string(),
            dims: [dims.nx, dims.ny, dims.nz],
            sweeps_class: sweeps_class(sweeps),
            element_type: element_name::<T>().to_string(),
        }
    }

    /// Stable string form — the map key in the persistent cache.
    pub fn as_string(&self) -> String {
        format!(
            "{}|op={}|dims={}x{}x{}|sc={}|elem={}",
            self.fingerprint.as_string(),
            self.op_id,
            self.dims[0],
            self.dims[1],
            self.dims[2],
            self.sweeps_class,
            self.element_type
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_absorb_jitter_but_split_machines() {
        // Jitter around a band center stays put (half-band = ±11.8%);
        // only a genuinely different memory subsystem changes the band.
        let center = 1.25f64.powi(103); // ≈ 9.6 GB/s
        let b = bandwidth_band(center);
        assert_eq!(bandwidth_band(center * 1.08), b, "+8% same band");
        assert_eq!(bandwidth_band(center * 0.94), b, "-6% same band");
        assert_ne!(bandwidth_band(center * 2.0), b, "2x different band");
        assert_ne!(bandwidth_band(center * 0.5), b, "half different band");
    }

    #[test]
    fn sweeps_class_is_logarithmic() {
        assert_eq!(sweeps_class(0), 0);
        assert_eq!(sweeps_class(1), 1);
        assert_eq!(sweeps_class(8), 4);
        assert_eq!(sweeps_class(15), 4);
        assert_eq!(sweeps_class(16), 5);
    }

    #[test]
    fn key_string_is_stable_and_discriminating() {
        let m = Machine::nehalem_ep();
        let p = MachineParams::nehalem_ep();
        let fp = MachineFingerprint::new(&m, &p);
        let k1 = PlanKey::new::<f64>(fp.clone(), "jacobi6", Dims3::cube(64), 8);
        let k2 = PlanKey::new::<f64>(fp.clone(), "jacobi6", Dims3::cube(64), 12);
        assert_eq!(k1.as_string(), k2.as_string(), "same sweep class");
        let k3 = PlanKey::new::<f32>(fp.clone(), "jacobi6", Dims3::cube(64), 8);
        assert_ne!(k1.as_string(), k3.as_string(), "element type splits");
        let k4 = PlanKey::new::<f64>(fp, "avg27", Dims3::cube(64), 8);
        assert_ne!(k1.as_string(), k4.as_string(), "operator splits");
    }

    #[test]
    fn fingerprint_from_same_inputs_is_identical() {
        let m = Machine::nehalem_ep();
        let p = MachineParams::nehalem_ep();
        assert_eq!(
            MachineFingerprint::new(&m, &p),
            MachineFingerprint::new(&m, &p)
        );
        // A slightly noisier calibration of the same machine: same bands.
        let jitter = MachineParams {
            ms: p.ms * 1.05,
            ms1: p.ms1 * 0.97,
            mc: p.mc * 1.02,
            ..p
        };
        assert_eq!(
            MachineFingerprint::new(&m, &p).as_string(),
            MachineFingerprint::new(&m, &jitter).as_string()
        );
    }

    #[test]
    fn element_names() {
        assert_eq!(element_name::<f64>(), "f64");
        assert_eq!(element_name::<f32>(), "f32");
    }
}
