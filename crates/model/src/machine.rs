//! Machine parameter sets for the analytic models.

/// Bandwidth parameters of one shared-memory node, in the paper's
/// notation (§1.1, §1.4):
///
/// * `ms` — saturated STREAM COPY bandwidth of a socket (`M_s`),
/// * `ms1` — single-threaded STREAM COPY bandwidth (`M_{s,1}`),
/// * `mc` — multi-threaded shared-cache bandwidth (`M_c`),
///
/// all in bytes/second, plus enough structure for the cluster models.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MachineParams {
    /// Saturated per-socket memory bandwidth `M_s` (B/s).
    pub ms: f64,
    /// Single-thread memory bandwidth `M_{s,1}` (B/s).
    pub ms1: f64,
    /// Shared-cache bandwidth `M_c` (B/s).
    pub mc: f64,
    /// Cores per socket (`t`, the natural team size).
    pub cores_per_socket: usize,
    /// Sockets per node.
    pub sockets: usize,
    /// Shared cache capacity per socket in bytes.
    pub cache_bytes: usize,
}

impl MachineParams {
    /// The paper's Nehalem EP testbed: `M_s = 18.5 GB/s`, `M_{s,1} ≈
    /// 10 GB/s`, `M_c ≈ 8 × M_{s,1}` (§1.1 and §1.4: "On the Nehalem
    /// system we use, Ms/Ms,1 ≈ 2 and Mc/Ms,1 ≈ 8").
    pub fn nehalem_ep() -> Self {
        Self {
            ms: 18.5e9,
            ms1: 10.0e9,
            mc: 80.0e9,
            cores_per_socket: 4,
            sockets: 2,
            cache_bytes: 8 * 1024 * 1024,
        }
    }

    /// An (idealized) Core 2–era machine: bandwidth-starved — memory
    /// bandwidth saturates with one core (`M_s ≈ M_{s,1}`), so temporal
    /// blocking has the most to gain (paper §3: older designs "profit
    /// more from temporal blocking").
    pub fn core2_like() -> Self {
        Self {
            ms: 8.0e9,
            ms1: 7.0e9,
            mc: 48.0e9,
            cores_per_socket: 2,
            sockets: 2,
            cache_bytes: 6 * 1024 * 1024,
        }
    }

    /// A hypothetical machine whose memory bandwidth scales with core
    /// count (`M_s = t · M_{s,1}`) — the paper's "bad candidate for
    /// temporal blocking".
    #[cfg(test)]
    pub(crate) fn bandwidth_scaling(cores: usize) -> Self {
        Self {
            ms: 10.0e9 * cores as f64,
            ms1: 10.0e9,
            mc: 80.0e9,
            cores_per_socket: cores,
            sockets: 1,
            cache_bytes: 8 * 1024 * 1024,
        }
    }

    /// `M_s / M_{s,1}`: how far one thread is from saturating the bus.
    pub fn saturation_ratio(&self) -> f64 {
        self.ms / self.ms1
    }

    /// `M_c / M_s`: the asymptotic temporal-blocking speedup (§1.4).
    pub fn max_speedup(&self) -> f64 {
        self.mc / self.ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nehalem_ratios_match_paper() {
        let m = MachineParams::nehalem_ep();
        // Ms/Ms,1 ≈ 2, Mc/Ms,1 ≈ 8, Mc/Ms ≈ 4 (all quoted in §1.4).
        assert!((m.saturation_ratio() - 1.85).abs() < 0.1);
        assert!((m.mc / m.ms1 - 8.0).abs() < 1e-12);
        assert!((m.max_speedup() - 4.32).abs() < 0.1);
    }

    #[test]
    fn bandwidth_scaling_machine_saturates_per_core() {
        let m = MachineParams::bandwidth_scaling(4);
        assert_eq!(m.saturation_ratio(), 4.0);
    }
}
