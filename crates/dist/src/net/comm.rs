//! The communicator: point-to-point messages with tag matching, a
//! receive probe, and a barrier.
//!
//! # Pacing
//!
//! Sends are buffered: a message is queued on the receiver's channel
//! and the sender moves on. Data always flows through the same channels
//! whether or not the wire is paced, so tag matching, FIFO order per
//! (source, tag) and protocol errors behave identically.
//!
//! A communicator built with [`NetworkParams`] paces the wire in wall
//! time: a message of `b` bytes is delivered
//! [`NetworkParams::message_time`]`(b)` after its send. Receiving waits
//! until then, and the `arrived` probe answers "not yet" before. Every
//! rank pair has its own link, without contention — the simplification
//! `tb_model::halo` makes. Packing and unpacking are real copies on a
//! real thread, so [`NetworkParams::pack_time`] is not charged here.
//! Without parameters the wire is an immediate handoff, and no send or
//! receive reads the clock.

use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, Sender};
use std::time::{Duration, Instant};

use tb_model::NetworkParams;

use super::Bytes;

/// A message in flight.
#[derive(Clone, Debug)]
pub(crate) struct Msg {
    pub tag: u64,
    pub data: Bytes,
    /// When a paced wire delivers the message (`None`: unpaced, it is
    /// in as soon as it is queued).
    pub deliver_at: Option<Instant>,
}

/// Per-rank communication endpoint. Created by [`super::Universe`]; one
/// per rank thread, used mutably (the tag-matching buffers are
/// rank-local state).
pub struct Comm {
    pub(crate) rank: usize,
    pub(crate) size: usize,
    /// `to[d]` sends to rank `d`.
    pub(crate) to: Vec<Sender<Msg>>,
    /// `from[s]` receives from rank `s`.
    pub(crate) from: Vec<Receiver<Msg>>,
    /// Out-of-order messages per source awaiting a matching tag.
    pub(crate) pending: Vec<VecDeque<Msg>>,
    /// The wire's pacing (`None`: unpaced).
    pub(crate) net: Option<NetworkParams>,
}

impl Comm {
    pub fn rank(&self) -> usize {
        self.rank
    }

    pub(crate) fn size(&self) -> usize {
        self.size
    }

    /// Buffered send: returns once the message is queued. On a paced
    /// wire it is delivered `message_time` from now.
    pub(crate) fn send(&mut self, dst: usize, tag: u64, data: Bytes) {
        assert!(dst < self.size, "send to rank {dst} of {}", self.size);
        assert_ne!(dst, self.rank, "self-send unsupported (use local state)");
        let deliver_at = self
            .net
            .map(|net| Instant::now() + Duration::from_secs_f64(net.message_time(data.len())));
        self.to[dst]
            .send(Msg {
                tag,
                data,
                deliver_at,
            })
            .expect("peer rank hung up");
    }

    /// Blocking receive of the next message from `src` carrying `tag`.
    /// Messages with other tags are buffered for later receives; a paced
    /// message is returned no earlier than its delivery time.
    pub(crate) fn recv(&mut self, src: usize, tag: u64) -> Bytes {
        assert!(src < self.size);
        assert_ne!(src, self.rank);
        let msg = self.take_matching(src, tag);
        if let Some(at) = msg.deliver_at {
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
        }
        msg.data
    }

    /// Pull the next message from `src` carrying `tag`, buffering other
    /// tags.
    fn take_matching(&mut self, src: usize, tag: u64) -> Msg {
        // Check the reorder buffer first.
        if let Some(pos) = self.pending[src].iter().position(|m| m.tag == tag) {
            return self.pending[src].remove(pos).unwrap();
        }
        loop {
            let msg = self.from[src].recv().expect("peer rank hung up");
            if msg.tag == tag {
                return msg;
            }
            self.pending[src].push_back(msg);
        }
    }

    /// Whether the next message from `src` carrying `tag` is in: queued,
    /// and delivered if the wire is paced. Never blocks; `false` is
    /// always a legal answer (e.g. before the peer sends). The message
    /// stays in the reorder buffer for a later [`Comm::recv`], so a
    /// probe loses nothing.
    pub(crate) fn arrived(&mut self, src: usize, tag: u64) -> bool {
        assert!(src < self.size);
        assert_ne!(src, self.rank);
        if !self.pending[src].iter().any(|m| m.tag == tag) {
            // Drain queued messages into the reorder buffer, stopping
            // once a match shows up.
            let mut found = false;
            while let Ok(msg) = self.from[src].try_recv() {
                found = msg.tag == tag;
                self.pending[src].push_back(msg);
                if found {
                    break;
                }
            }
            if !found {
                return false;
            }
        }
        let msg = self.pending[src]
            .iter()
            .find(|m| m.tag == tag)
            .expect("matched above");
        msg.deliver_at.is_none_or(|at| at <= Instant::now())
    }

    /// Paired exchange with one neighbor (the halo pattern). Send first,
    /// then receive — safe because sends are buffered.
    pub fn sendrecv(&mut self, peer: usize, tag: u64, data: Bytes) -> Bytes {
        self.send(peer, tag, data);
        self.recv(peer, tag)
    }

    /// Synchronize all ranks: every rank sends an empty message to rank
    /// 0, which answers each once all have arrived.
    pub fn barrier(&mut self) {
        const TAG: u64 = u64::MAX - 1;
        if self.rank == 0 {
            for src in 1..self.size {
                self.recv(src, TAG);
            }
            for dst in 1..self.size {
                self.send(dst, TAG, Bytes::default());
            }
        } else {
            self.send(0, TAG, Bytes::default());
            self.recv(0, TAG);
        }
    }
}

/// Pack an `f64` slice into `Bytes` (native endianness; the mesh never
/// leaves the process).
pub fn pack_f64s(v: &[f64]) -> Bytes {
    v.iter().flat_map(|x| x.to_ne_bytes()).collect()
}

/// Run `f` on a helper thread and return its result, re-raise its
/// panic, or fail after ten seconds — leaving the helper detached — so
/// a test of a would-be hang fails instead of hanging with it.
#[cfg(test)]
pub(crate) fn within_ten_seconds<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
    use std::sync::mpsc::RecvTimeoutError;
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(std::time::Duration::from_secs(10)) {
        Ok(r) => {
            handle.join().expect("the helper sent its result");
            r
        }
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(handle.join().expect_err("ended without a result"))
        }
        Err(RecvTimeoutError::Timeout) => panic!("still running after 10 s: hung"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Universe;

    /// Decode [`pack_f64s`] output.
    pub(super) fn unpack(b: &Bytes) -> Vec<f64> {
        b.chunks_exact(8)
            .map(|c| f64::from_ne_bytes(c.try_into().unwrap()))
            .collect()
    }

    /// The single value of a one-`f64` message.
    pub(super) fn one(b: &Bytes) -> f64 {
        let v = unpack(b);
        assert_eq!(v.len(), 1);
        v[0]
    }

    #[test]
    fn ring_pass_delivers_in_order() {
        let results = Universe::run(3, None, |comm| {
            let next = (comm.rank() + 1) % 3;
            let prev = (comm.rank() + 3 - 1) % 3;
            for round in 0..5u64 {
                comm.send(next, round, pack_f64s(&[comm.rank() as f64 + round as f64]));
                let got = one(&comm.recv(prev, round));
                assert_eq!(got, prev as f64 + round as f64);
            }
            comm.rank()
        });
        assert_eq!(results, vec![0, 1, 2]);
    }

    #[test]
    fn tag_matching_reorders() {
        Universe::run(2, None, |comm| {
            if comm.rank() == 0 {
                for tag in [7u64, 8, 9] {
                    comm.send(1, tag, pack_f64s(&[tag as f64]));
                }
            } else {
                // Receive in another order than the sends.
                for tag in [9u64, 7, 8] {
                    assert_eq!(one(&comm.recv(0, tag)), tag as f64);
                }
            }
            0
        });
    }

    #[test]
    fn barrier_releases_no_rank_before_every_rank_entered() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let entered = AtomicUsize::new(0);
        Universe::run(4, None, |comm| {
            for round in 1..=3 {
                entered.fetch_add(1, Ordering::SeqCst);
                comm.barrier();
                // Ranks already in the next round only add to it.
                assert!(entered.load(Ordering::SeqCst) >= 4 * round);
            }
        });
        assert_eq!(entered.into_inner(), 12);
    }

    #[test]
    fn pack_roundtrip() {
        let v: Vec<f64> = (0..17).map(|i| (i as f64).sin()).collect();
        let b = pack_f64s(&v);
        assert_eq!(b.len(), 17 * 8);
        assert_eq!(b[8..16], v[1].to_ne_bytes());
        assert_eq!(unpack(&b), v);
    }

    #[test]
    fn sendrecv_pairs() {
        Universe::run(2, None, |comm| {
            let peer = 1 - comm.rank();
            let got = comm.sendrecv(peer, 3, pack_f64s(&[comm.rank() as f64]));
            assert_eq!(one(&got), peer as f64);
            0
        });
    }

    #[test]
    fn a_paced_message_arrives_no_earlier_than_its_latency() {
        // Lower bounds only: a slow host may see the message in late,
        // never early.
        use std::sync::{Barrier, OnceLock};
        let latency = Duration::from_millis(50);
        let net = NetworkParams {
            latency: latency.as_secs_f64(),
            bandwidth: f64::INFINITY,
            copy_bandwidth: f64::INFINITY,
        };
        let (sent, queued) = (OnceLock::new(), Barrier::new(2));
        Universe::run(2, Some(net), |comm| {
            if comm.rank() == 0 {
                sent.set(Instant::now()).unwrap();
                comm.send(1, 0, pack_f64s(&[1.0]));
                queued.wait();
            } else {
                queued.wait();
                // The message is queued; it is in only once delivered.
                let sent = sent.get().unwrap();
                let arrived = comm.arrived(0, 0);
                assert!(!arrived || sent.elapsed() >= latency, "in early");
                assert_eq!(one(&comm.recv(0, 0)), 1.0);
                assert!(sent.elapsed() >= latency, "received early");
            }
        });
    }
}

#[cfg(test)]
mod more_tests {
    use super::tests::one;
    use super::*;
    use crate::net::Universe;

    /// Rank 0 of a two-rank mesh whose peer has dropped its endpoint
    /// (a rank thread that unwound): both directions are hung up.
    fn comm_with_dropped_peer() -> Comm {
        let (to_self, from_self) = std::sync::mpsc::channel();
        let (to_peer, _) = std::sync::mpsc::channel();
        let (_, from_peer) = std::sync::mpsc::channel();
        Comm {
            rank: 0,
            size: 2,
            to: vec![to_self, to_peer],
            from: vec![from_self, from_peer],
            pending: vec![VecDeque::new(), VecDeque::new()],
            net: None,
        }
    }

    #[test]
    #[should_panic(expected = "peer rank hung up")]
    fn send_to_a_dropped_peer_is_a_protocol_error() {
        comm_with_dropped_peer().send(1, 0, pack_f64s(&[1.0]));
    }

    #[test]
    #[should_panic(expected = "peer rank hung up")]
    fn recv_from_a_dropped_peer_is_a_protocol_error() {
        comm_with_dropped_peer().recv(1, 0);
    }

    #[test]
    fn same_tag_messages_arrive_in_fifo_order() {
        Universe::run(2, None, |comm| {
            if comm.rank() == 0 {
                for i in 0..50u64 {
                    comm.send(1, 9, pack_f64s(&[i as f64]));
                }
            } else {
                for i in 0..50u64 {
                    assert_eq!(one(&comm.recv(0, 9)), i as f64);
                }
            }
            0
        });
    }

    #[test]
    fn large_payload_roundtrip() {
        let n = 1 << 18; // 2 MiB of f64
        Universe::run(2, None, move |comm| {
            if comm.rank() == 0 {
                let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
                comm.send(1, 0, pack_f64s(&v));
            } else {
                let out = super::tests::unpack(&comm.recv(0, 0));
                assert_eq!(out.len(), n);
                assert_eq!(out[0], 0.0);
                assert_eq!(out[n - 1], (n - 1) as f64);
            }
            0
        });
    }

    #[test]
    fn interleaved_tags_across_many_rounds() {
        // Both tags flow continuously; receiving them out of order per
        // round must never mix payloads up.
        Universe::run(2, None, |comm| {
            let peer = 1 - comm.rank();
            for round in 0..20u64 {
                comm.send(peer, 1, pack_f64s(&[round as f64]));
                comm.send(peer, 2, pack_f64s(&[-(round as f64)]));
                assert_eq!(one(&comm.recv(peer, 2)), -(round as f64));
                assert_eq!(one(&comm.recv(peer, 1)), round as f64);
            }
            0
        });
    }
}

#[cfg(test)]
mod probe_tests {
    use super::tests::one;
    use super::*;
    use crate::net::Universe;

    #[test]
    fn arrived_is_false_before_the_peer_sends() {
        // Rank 0 blocks on a go-ahead message before sending tag 5, so
        // rank 1's first probe is guaranteed to happen before the send.
        Universe::run(2, None, |comm| {
            if comm.rank() == 0 {
                let _ = comm.recv(1, 0); // go-ahead
                comm.send(1, 5, pack_f64s(&[5.0]));
            } else {
                assert!(!comm.arrived(0, 5), "nothing sent yet");
                comm.send(0, 0, pack_f64s(&[0.0])); // go-ahead
                assert_eq!(one(&comm.recv(0, 5)), 5.0);
            }
            0
        });
    }

    #[test]
    fn a_probe_leaves_the_message_for_recv() {
        // A successful probe, even a repeated one, must keep the matched
        // message for the receive.
        Universe::run(2, None, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 6, pack_f64s(&[6.0]));
                let _ = comm.recv(1, 0); // lockstep
            } else {
                while !comm.arrived(0, 6) {
                    std::thread::yield_now();
                }
                assert!(comm.arrived(0, 6), "still in after a second probe");
                assert_eq!(one(&comm.recv(0, 6)), 6.0);
                comm.send(0, 0, pack_f64s(&[0.0]));
            }
            0
        });
    }

    #[test]
    fn a_probe_buffers_other_tags_for_recv() {
        // Probing for tag 20 drains tag 21, sent first, into the reorder
        // buffer; each receive must still get its own payload.
        Universe::run(2, None, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 21, pack_f64s(&[21.0]));
                comm.send(1, 20, pack_f64s(&[20.0]));
            } else {
                while !comm.arrived(0, 20) {
                    std::thread::yield_now();
                }
                assert_eq!(one(&comm.recv(0, 21)), 21.0);
                assert_eq!(one(&comm.recv(0, 20)), 20.0);
            }
            0
        });
    }
}
