//! Latency/bandwidth network model (paper §2.1).
//!
//! A message of `b` bytes costs `λ + b/BW` seconds; the paper sets QDR
//! InfiniBand parameters (asymptotic unidirectional bandwidth 3.2 GB/s,
//! latency 1.8 µs) and assumes no overlap of communication and
//! computation. The same struct also carries a buffer-copy bandwidth: the
//! paper's profiling found that packing halo data into send buffers costs
//! about as much as the wire transfer itself (§2.2), which the
//! halo model prices explicitly.
//!
//! Two consumers price messages with it: the analytic scaling model
//! ([`NetworkParams::halo_message_time`]) and the paced wire of
//! `tb_dist::net`, which delivers each message
//! [`NetworkParams::message_time`] after its send, in wall time. The
//! wire charges no [`NetworkParams::pack_time`]: there the buffer copies
//! are real work.

/// Point-to-point network parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetworkParams {
    /// One-way latency in seconds.
    pub latency: f64,
    /// Asymptotic unidirectional bandwidth in bytes/second.
    pub bandwidth: f64,
    /// Memory bandwidth for packing/unpacking message buffers (B/s);
    /// `f64::INFINITY` disables copy cost.
    pub copy_bandwidth: f64,
}

impl NetworkParams {
    /// The paper's QDR InfiniBand fabric (§2.1): 3.2 GB/s, 1.8 µs.
    /// Copy bandwidth calibrated from the §2.2 profiling observation
    /// ("copying halo data … causes about the same overhead as the
    /// actual data transfer"): pack + unpack *together* cost one wire
    /// transfer, i.e. each side copies at 2x the wire bandwidth.
    pub fn qdr_infiniband() -> Self {
        Self {
            latency: 1.8e-6,
            bandwidth: 3.2e9,
            copy_bandwidth: 6.4e9,
        }
    }

    /// An idealized zero-cost network (for ideal-scaling lines).
    pub fn ideal() -> Self {
        Self {
            latency: 0.0,
            bandwidth: f64::INFINITY,
            copy_bandwidth: f64::INFINITY,
        }
    }

    /// Wire time of one message.
    pub fn message_time(&self, bytes: usize) -> f64 {
        self.latency + bytes as f64 / self.bandwidth
    }

    /// One side's buffer copy of `bytes`: the sender's pack, or the
    /// receiver's unpack, which costs the same.
    pub fn pack_time(&self, bytes: usize) -> f64 {
        if self.copy_bandwidth.is_infinite() {
            0.0
        } else {
            bytes as f64 / self.copy_bandwidth
        }
    }

    /// Total cost of one halo message including buffer copies.
    pub fn halo_message_time(&self, bytes: usize) -> f64 {
        self.message_time(bytes) + 2.0 * self.pack_time(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qdr_parameters() {
        let n = NetworkParams::qdr_infiniband();
        assert_eq!(n.latency, 1.8e-6);
        assert_eq!(n.bandwidth, 3.2e9);
    }

    #[test]
    fn tiny_messages_are_latency_bound() {
        let n = NetworkParams::qdr_infiniband();
        let t8 = n.message_time(8);
        assert!((t8 - 1.8e-6) / 1.8e-6 < 0.01);
        // Effective bandwidth of an 8-byte message is puny.
        assert!(8.0 / t8 < 5e6);
    }

    #[test]
    fn large_messages_approach_asymptotic_bandwidth() {
        let n = NetworkParams::qdr_infiniband();
        let bytes = 64 * 1024 * 1024;
        let eff = bytes as f64 / n.message_time(bytes);
        assert!(eff > 0.99 * n.bandwidth);
    }

    #[test]
    fn aggregation_beats_fragmentation() {
        // h messages of size b cost more than one message of size h*b —
        // the whole point of multi-layer halos at small L.
        let n = NetworkParams::qdr_infiniband();
        let h = 16;
        let b = 800; // a 10x10 f64 face
        assert!(h as f64 * n.message_time(b) > n.message_time(h * b));
    }

    #[test]
    fn copy_cost_matches_paper_observation() {
        // §2.2: pack + unpack together cost about one wire transfer.
        let n = NetworkParams::qdr_infiniband();
        let bytes = 1 << 20;
        let wire = n.message_time(bytes);
        let copy = 2.0 * n.pack_time(bytes);
        assert!((copy / wire - 1.0).abs() < 0.02);
        let ideal = NetworkParams::ideal();
        assert_eq!(ideal.pack_time(bytes), 0.0);
        assert_eq!(ideal.message_time(bytes), 0.0);
    }

    #[test]
    fn halo_message_terms_add_up() {
        // A halo message is a pack, the wire, then an unpack.
        let n = NetworkParams::qdr_infiniband();
        assert_eq!(n.message_time(3_200_000), 1.8e-6 + 1e-3);
        for b in [8, 800, 1 << 20] {
            assert_eq!(
                n.halo_message_time(b),
                n.message_time(b) + 2.0 * n.pack_time(b)
            );
        }
    }
}
