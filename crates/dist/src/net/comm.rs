//! The communicator: blocking and nonblocking point-to-point with tag
//! matching, plus a barrier.
//!
//! # Nonblocking operations and the comm-core model
//!
//! The crate-internal `isend`/`irecv` return request handles completed
//! by `wait` or polled with `test`.
//! Data always flows through the same channels as the blocking calls, so
//! tag matching, FIFO order per (source, tag) and protocol errors behave
//! identically.
//!
//! Virtual-time accounting differs deliberately: blocking calls charge
//! pack/unpack to the calling rank's clock (the paper's baseline, which
//! has "no explicit or implicit overlapping"), while nonblocking calls
//! charge buffer copies to a separate **comm-core timeline**
//! (`comm_busy`) — the model of the paper's proposed dedicated
//! communication core. A `wait` resumes the rank clock no earlier than
//! the comm core finished; `overlap_join` then credits back the
//! communication that computation hid, so [`Comm::comm_seconds`] reports
//! only the *exposed* communication time.

use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, Sender};

use tb_model::NetworkParams;

use super::Bytes;

/// A message in flight.
#[derive(Clone, Debug)]
pub(crate) struct Msg {
    pub tag: u64,
    pub data: Bytes,
    /// Virtual arrival time at the receiver (0 when simulation is off).
    pub arrival: f64,
}

/// Handle of a pending nonblocking operation started by [`Comm::isend`]
/// or [`Comm::irecv`]. Complete it with [`Comm::wait`] or poll it with
/// [`Comm::test`].
#[derive(Debug)]
pub(crate) enum Request {
    /// Pending send. `complete_at` is the comm-core virtual time at
    /// which packing finished and the send buffer is reusable (0 when
    /// simulation is off).
    Send { complete_at: f64 },
    /// Pending receive. It holds no message itself — matching state
    /// lives in the communicator's reorder buffer, so dropping a request
    /// (even after a successful [`Comm::test`]) never loses data.
    Recv { src: usize, tag: u64 },
}

/// Per-rank communication endpoint. Created by [`super::Universe`]; one
/// per rank thread, used mutably (the virtual clock and the tag-matching
/// buffers are rank-local state).
pub struct Comm {
    pub(crate) rank: usize,
    pub(crate) size: usize,
    /// `to[d]` sends to rank `d`.
    pub(crate) to: Vec<Sender<Msg>>,
    /// `from[s]` receives from rank `s`.
    pub(crate) from: Vec<Receiver<Msg>>,
    /// Out-of-order messages per source awaiting a matching tag.
    pub(crate) pending: Vec<VecDeque<Msg>>,
    /// Virtual clock in seconds (stays 0 when `net` is `None`).
    pub(crate) clock: f64,
    /// Virtual time until which the modeled dedicated communication core
    /// is busy packing/unpacking nonblocking message buffers.
    pub(crate) comm_busy: f64,
    /// Exposed communication seconds accumulated on the compute timeline
    /// (see [`Comm::comm_seconds`]).
    pub(crate) comm_seconds: f64,
    pub(crate) net: Option<NetworkParams>,
}

impl Comm {
    pub fn rank(&self) -> usize {
        self.rank
    }

    pub(crate) fn size(&self) -> usize {
        self.size
    }

    /// Current virtual time (seconds). Only meaningful in simulation
    /// mode; real runs use wall clocks instead.
    pub fn time(&self) -> f64 {
        self.clock
    }

    /// Whether a [`NetworkParams`] model drives this communicator's
    /// virtual clock. Message arrival is then a virtual-time event:
    /// [`Comm::test`] compares it with a clock that only `wait`/`advance`
    /// move, so polling cannot observe progress the way it does on real
    /// time.
    pub(crate) fn simulated(&self) -> bool {
        self.net.is_some()
    }

    /// Advance the virtual clock by `dt` seconds of (modeled) computation.
    pub fn advance(&mut self, dt: f64) {
        debug_assert!(dt >= 0.0);
        self.clock += dt;
    }

    /// Exposed communication seconds so far: virtual clock time spent
    /// inside communication calls. Blocking calls charge their full cost;
    /// nonblocking waits bracketed by an overlap join charge only
    /// the share computation could not hide. Zero when simulation is off.
    pub fn comm_seconds(&self) -> f64 {
        self.comm_seconds
    }

    /// Blocking send (buffered — returns once the message is queued; the
    /// virtual clock pays the pack cost).
    pub(crate) fn send(&mut self, dst: usize, tag: u64, data: Bytes) {
        assert!(dst < self.size, "send to rank {dst} of {}", self.size);
        assert_ne!(dst, self.rank, "self-send unsupported (use local state)");
        let before = self.clock;
        let arrival = if let Some(net) = &self.net {
            self.clock += net.pack_time(data.len());
            self.clock + net.message_time(data.len())
        } else {
            0.0
        };
        self.charge_comm(before);
        self.to[dst]
            .send(Msg { tag, data, arrival })
            .expect("peer rank hung up");
    }

    /// Blocking receive of the next message from `src` carrying `tag`.
    /// Messages with other tags are buffered for later receives.
    pub(crate) fn recv(&mut self, src: usize, tag: u64) -> Bytes {
        assert!(src < self.size);
        assert_ne!(src, self.rank);
        let msg = self.take_matching(src, tag);
        self.finish_recv(msg)
    }

    /// Pull the next message from `src` carrying `tag`, buffering other
    /// tags (the shared tag-matching core of `recv` and `wait`).
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

    fn finish_recv(&mut self, msg: Msg) -> Bytes {
        let before = self.clock;
        if let Some(net) = &self.net {
            self.clock = self.clock.max(msg.arrival) + net.pack_time(msg.data.len());
        }
        self.charge_comm(before);
        msg.data
    }

    /// Blocking calls keep the comm core in lockstep with the clock and
    /// charge the clock advance as exposed communication.
    fn charge_comm(&mut self, before: f64) {
        self.comm_seconds += self.clock - before;
        self.comm_busy = self.comm_busy.max(self.clock);
    }

    /// Nonblocking send. The message is queued immediately (sends are
    /// buffered, so posting never deadlocks); in simulation mode the pack
    /// cost runs on the comm-core timeline instead of the caller's clock,
    /// serialized after any copies the core is already doing.
    pub(crate) fn isend(&mut self, dst: usize, tag: u64, data: Bytes) -> Request {
        assert!(dst < self.size, "isend to rank {dst} of {}", self.size);
        assert_ne!(dst, self.rank, "self-send unsupported (use local state)");
        let (complete_at, arrival) = if let Some(net) = &self.net {
            let start = self.clock.max(self.comm_busy);
            let complete = start + net.pack_time(data.len());
            (complete, complete + net.message_time(data.len()))
        } else {
            (0.0, 0.0)
        };
        self.comm_busy = self.comm_busy.max(complete_at);
        self.to[dst]
            .send(Msg { tag, data, arrival })
            .expect("peer rank hung up");
        Request::Send { complete_at }
    }

    /// Nonblocking receive of the next message from `src` carrying `tag`.
    /// Posting records intent only; matching happens in `test`/`wait`.
    pub(crate) fn irecv(&mut self, src: usize, tag: u64) -> Request {
        assert!(src < self.size);
        assert_ne!(src, self.rank);
        Request::Recv { src, tag }
    }

    /// Poll a request without blocking. A send is complete once its pack
    /// finished on the comm-core timeline; a receive once a matching
    /// message is physically present *and* has virtually arrived.
    /// `false` is always a legal answer (e.g. before the peer posts).
    /// Matched messages stay in the reorder buffer until a `wait`
    /// consumes them, so an abandoned request loses nothing.
    pub(crate) fn test(&mut self, req: &Request) -> bool {
        match *req {
            Request::Send { complete_at } => self.net.is_none() || complete_at <= self.clock,
            Request::Recv { src, tag } => {
                if !self.pending[src].iter().any(|m| m.tag == tag) {
                    // Drain arrived messages into the reorder buffer,
                    // stopping once a match shows up.
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
                self.net.is_none() || msg.arrival <= self.clock
            }
        }
    }

    /// Complete one request: block until done, apply the comm-core time
    /// accounting, and return the payload (`Some` for receives, `None`
    /// for sends).
    pub(crate) fn wait(&mut self, req: Request) -> Option<Bytes> {
        let before = self.clock;
        let out = match req {
            Request::Send { complete_at } => {
                if self.net.is_some() {
                    self.clock = self.clock.max(complete_at);
                }
                None
            }
            Request::Recv { src, tag } => {
                let msg = self.take_matching(src, tag);
                if let Some(net) = &self.net {
                    // The comm core unpacks as soon as the message has
                    // arrived (independent of the caller's clock); the
                    // caller resumes at whichever is later.
                    let done = self.comm_busy.max(msg.arrival) + net.pack_time(msg.data.len());
                    self.comm_busy = done;
                    self.clock = self.clock.max(done);
                }
                Some(msg.data)
            }
        };
        self.comm_seconds += self.clock - before;
        out
    }

    /// Fold `compute_seconds` of modeled computation that ran
    /// concurrently with communication since virtual time `t0` into the
    /// clock, crediting the overlap window back to
    /// [`Comm::comm_seconds`]: only communication that outlasted the
    /// computation stays exposed.
    pub(crate) fn overlap_join(&mut self, t0: f64, compute_seconds: f64) {
        debug_assert!(compute_seconds >= 0.0);
        let comm_done = self.clock;
        self.clock = comm_done.max(t0 + compute_seconds);
        let hidden = compute_seconds.min((comm_done - t0).max(0.0));
        self.comm_seconds -= hidden;
    }

    /// Paired exchange with one neighbor (the halo pattern). Send first,
    /// then receive — safe because sends are buffered.
    pub fn sendrecv(&mut self, peer: usize, tag: u64, data: Bytes) -> Bytes {
        self.send(peer, tag, data);
        self.recv(peer, tag)
    }

    /// Synchronize all ranks; in simulation mode every clock is set to
    /// the maximum *entry* time (a barrier is as slow as its last
    /// arrival; the barrier's own messages are not charged, mirroring
    /// the paper's model which has no collectives in the inner loop).
    pub fn barrier(&mut self) {
        let entry = self.clock;
        let t = self.allreduce_max(entry);
        if self.net.is_some() {
            self.clock = t;
        }
    }

    /// Maximum of one f64 over all ranks (gather to rank 0, reduce,
    /// broadcast).
    fn allreduce_max(&mut self, value: f64) -> f64 {
        const TAG: u64 = u64::MAX - 1;
        if self.size == 1 {
            return value;
        }
        if self.rank == 0 {
            let mut acc = value;
            for src in 1..self.size {
                let b = self.recv(src, TAG);
                acc = acc.max(f64_from_bytes(&b));
            }
            for dst in 1..self.size {
                self.send(dst, TAG, pack_f64s(&[acc]));
            }
            acc
        } else {
            self.send(0, TAG, pack_f64s(&[value]));
            f64_from_bytes(&self.recv(0, TAG))
        }
    }
}

fn f64_from_bytes(b: &Bytes) -> f64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&b[..8]);
    f64::from_ne_bytes(buf)
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

    #[test]
    fn ring_pass_delivers_in_order() {
        let results = Universe::run(3, None, |comm| {
            let next = (comm.rank() + 1) % 3;
            let prev = (comm.rank() + 3 - 1) % 3;
            for round in 0..5u64 {
                comm.send(next, round, pack_f64s(&[comm.rank() as f64 + round as f64]));
                let got = f64_from_bytes(&comm.recv(prev, round));
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
                comm.send(1, 7, pack_f64s(&[7.0]));
                comm.send(1, 8, pack_f64s(&[8.0]));
            } else {
                // Receive in the opposite order of sending.
                assert_eq!(f64_from_bytes(&comm.recv(0, 8)), 8.0);
                assert_eq!(f64_from_bytes(&comm.recv(0, 7)), 7.0);
            }
            0
        });
    }

    /// Decode [`pack_f64s`] output.
    pub(super) fn unpack(b: &Bytes) -> Vec<f64> {
        b.chunks_exact(8)
            .map(|c| f64::from_ne_bytes(c.try_into().unwrap()))
            .collect()
    }

    #[test]
    fn allreduce_max_reaches_every_rank() {
        let r = Universe::run(4, None, |comm| {
            let v = comm.rank() as f64 + 1.0; // 1,2,3,4
            comm.allreduce_max(v)
        });
        assert_eq!(r, vec![4.0; 4]);
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
    fn virtual_clock_advances_through_messages() {
        let net = NetworkParams {
            latency: 1e-3,
            bandwidth: 1e6,
            copy_bandwidth: f64::INFINITY,
        };
        let times = Universe::run(2, Some(net), |comm| {
            if comm.rank() == 0 {
                comm.advance(5e-3); // compute 5 ms
                comm.send(1, 0, pack_f64s(&vec![0.0; 125])); // 1000 B -> 1 ms wire
            } else {
                let _ = comm.recv(0, 0);
            }
            comm.time()
        });
        // Receiver: max(0, 5ms + 1ms latency + 1ms wire) = 7 ms.
        assert!((times[1] - 7e-3).abs() < 1e-9, "rank1 time {}", times[1]);
        // Sender paid no wire time (buffered send) and no pack cost.
        assert!((times[0] - 5e-3).abs() < 1e-12);
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let net = NetworkParams::ideal();
        let times = Universe::run(3, Some(net), |comm| {
            comm.advance(comm.rank() as f64 * 1e-3);
            comm.barrier();
            comm.time()
        });
        for t in times {
            assert!((t - 2e-3).abs() < 1e-12, "clock {t}");
        }
    }

    #[test]
    fn sendrecv_pairs() {
        Universe::run(2, None, |comm| {
            let peer = 1 - comm.rank();
            let got = comm.sendrecv(peer, 3, pack_f64s(&[comm.rank() as f64]));
            assert_eq!(f64_from_bytes(&got), peer as f64);
            0
        });
    }
}

#[cfg(test)]
mod more_tests {
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
            clock: 0.0,
            comm_busy: 0.0,
            comm_seconds: 0.0,
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
                    assert_eq!(f64_from_bytes(&comm.recv(0, 9)), i as f64);
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
                let out = tests::unpack(&comm.recv(0, 0));
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
                assert_eq!(f64_from_bytes(&comm.recv(peer, 2)), -(round as f64));
                assert_eq!(f64_from_bytes(&comm.recv(peer, 1)), round as f64);
            }
            0
        });
    }

    #[test]
    fn pack_cost_charged_to_sender_clock() {
        let net = NetworkParams {
            latency: 0.0,
            bandwidth: f64::INFINITY,
            copy_bandwidth: 1e6,
        };
        let times = Universe::run(2, Some(net), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, pack_f64s(&vec![0.0; 125])); // 1000 B -> 1 ms pack
            } else {
                let _ = comm.recv(0, 0);
            }
            comm.time()
        });
        assert!((times[0] - 1e-3).abs() < 1e-9, "sender {}", times[0]);
        // Receiver: arrival at 1 ms (pack) + unpack 1 ms = 2 ms.
        assert!((times[1] - 2e-3).abs() < 1e-9, "receiver {}", times[1]);
    }
}

#[cfg(test)]
mod nonblocking_tests {
    use super::*;
    use crate::net::Universe;

    #[test]
    fn irecv_matches_tags_out_of_order() {
        // Receives posted in the opposite order of the sends; waiting on
        // them in posting order must still pair every payload with its
        // tag.
        Universe::run(2, None, |comm| {
            if comm.rank() == 0 {
                for tag in [7u64, 8, 9] {
                    let req = comm.isend(1, tag, pack_f64s(&[tag as f64]));
                    comm.wait(req);
                }
            } else {
                let reqs: Vec<Request> = [9u64, 7, 8].iter().map(|&t| comm.irecv(0, t)).collect();
                let vals: Vec<f64> = reqs
                    .into_iter()
                    .map(|r| f64_from_bytes(&comm.wait(r).expect("recv request returns a payload")))
                    .collect();
                assert_eq!(vals, vec![9.0, 7.0, 8.0]);
            }
            0
        });
    }

    #[test]
    fn test_is_false_before_the_peer_posts() {
        // Rank 0 blocks on a go-ahead message before sending tag 5, so
        // rank 1's first poll is guaranteed to happen before the send.
        Universe::run(2, None, |comm| {
            if comm.rank() == 0 {
                let _ = comm.recv(1, 0); // go-ahead
                comm.send(1, 5, pack_f64s(&[5.0]));
            } else {
                let req = comm.irecv(0, 5);
                assert!(!comm.test(&req), "nothing sent yet");
                comm.send(0, 0, pack_f64s(&[0.0])); // go-ahead
                let got = comm.wait(req).unwrap();
                assert_eq!(f64_from_bytes(&got), 5.0);
            }
            0
        });
    }

    #[test]
    fn test_completes_and_wait_consumes_the_match() {
        // A successful test() must not lose the message for the wait.
        Universe::run(2, None, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 3, pack_f64s(&[3.0]));
                let _ = comm.recv(1, 4); // keep ranks in lockstep
            } else {
                let req = comm.irecv(0, 3);
                while !comm.test(&req) {
                    std::thread::yield_now();
                }
                assert_eq!(f64_from_bytes(&comm.wait(req).unwrap()), 3.0);
                comm.send(0, 4, pack_f64s(&[4.0]));
            }
            0
        });
    }

    #[test]
    fn dropping_a_tested_request_loses_nothing() {
        // test() must leave the matched message in the reorder buffer:
        // abandoning the request and receiving through another path
        // (blocking recv here) still delivers the payload.
        Universe::run(2, None, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 6, pack_f64s(&[6.0]));
                let _ = comm.recv(1, 0); // lockstep
            } else {
                {
                    let req = comm.irecv(0, 6);
                    while !comm.test(&req) {
                        std::thread::yield_now();
                    }
                    // `req` is abandoned here, never waited.
                }
                assert_eq!(f64_from_bytes(&comm.recv(0, 6)), 6.0);
                comm.send(0, 0, pack_f64s(&[0.0]));
            }
            0
        });
    }

    #[test]
    fn waiting_over_mixed_directions() {
        // Both ranks keep sends and receives of several tags in one
        // request batch; payloads must land on the right tags.
        Universe::run(2, None, |comm| {
            let peer = 1 - comm.rank();
            let me = comm.rank() as f64;
            let reqs = vec![
                comm.irecv(peer, 11),
                comm.isend(peer, 12, pack_f64s(&[me + 12.0])),
                comm.irecv(peer, 12),
                comm.isend(peer, 11, pack_f64s(&[me + 11.0])),
            ];
            let got: Vec<_> = reqs.into_iter().map(|r| comm.wait(r)).collect();
            assert!(got[1].is_none() && got[3].is_none(), "sends yield None");
            let other = peer as f64;
            assert_eq!(f64_from_bytes(got[0].as_ref().unwrap()), other + 11.0);
            assert_eq!(f64_from_bytes(got[2].as_ref().unwrap()), other + 12.0);
            0
        });
    }

    #[test]
    fn interleaved_nonblocking_and_blocking_share_matching() {
        // An irecv and a blocking recv of different tags from the same
        // source must each get their own message regardless of order.
        Universe::run(2, None, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 21, pack_f64s(&[21.0]));
                comm.send(1, 20, pack_f64s(&[20.0]));
            } else {
                let req = comm.irecv(0, 20);
                // Blocking recv of 21 buffers nothing (21 arrives first).
                assert_eq!(f64_from_bytes(&comm.recv(0, 21)), 21.0);
                assert_eq!(f64_from_bytes(&comm.wait(req).unwrap()), 20.0);
            }
            0
        });
    }

    #[test]
    fn isend_charges_the_comm_core_not_the_sender_clock() {
        let net = NetworkParams {
            latency: 1e-3,
            bandwidth: 1e6,
            copy_bandwidth: 1e6,
        };
        let times = Universe::run(2, Some(net), |comm| {
            if comm.rank() == 0 {
                // 1000 B: pack 1 ms (comm core), wire 1 ms + 1 ms latency.
                let req = comm.isend(1, 0, pack_f64s(&vec![0.0; 125]));
                assert_eq!(comm.time(), 0.0, "posting must not advance the clock");
                assert!(!comm.test(&req), "pack still running at t = 0");
                comm.wait(req);
                // Clock resumes at pack completion.
                assert!((comm.time() - 1e-3).abs() < 1e-12, "{}", comm.time());
            } else {
                let req = comm.irecv(0, 0);
                let _ = comm.wait(req);
                // arrival = 1 ms pack + 1 ms latency + 1 ms wire; + 1 ms unpack.
                assert!((comm.time() - 4e-3).abs() < 1e-12, "{}", comm.time());
                assert!((comm.comm_seconds() - 4e-3).abs() < 1e-12);
            }
            comm.time()
        });
        assert!(times[1] > times[0]);
    }

    #[test]
    fn overlap_join_hides_communication_behind_compute() {
        let net = NetworkParams {
            latency: 1e-3,
            bandwidth: 1e6,
            copy_bandwidth: 1e6,
        };
        let seconds = Universe::run(2, Some(net), |comm| {
            if comm.rank() == 0 {
                let req = comm.isend(1, 0, pack_f64s(&vec![0.0; 125]));
                comm.wait(req);
                0.0
            } else {
                let t0 = comm.time();
                let req = comm.irecv(0, 0);
                // wait at t0: clock -> 4 ms, all charged...
                let _ = comm.wait(req);
                // ...then 5 ms of concurrent compute folds in: everything
                // is hidden, the cycle ends at t0 + 5 ms.
                comm.overlap_join(t0, 5e-3);
                assert!((comm.time() - 5e-3).abs() < 1e-12, "{}", comm.time());
                comm.comm_seconds()
            }
        });
        assert!(
            seconds[1].abs() < 1e-12,
            "fully hidden comm must expose 0 s, got {}",
            seconds[1]
        );
    }

    #[test]
    fn overlap_join_exposes_the_residual() {
        let net = NetworkParams {
            latency: 1e-3,
            bandwidth: 1e6,
            copy_bandwidth: f64::INFINITY,
        };
        let exposed = Universe::run(2, Some(net), |comm| {
            if comm.rank() == 0 {
                let req = comm.isend(1, 0, pack_f64s(&vec![0.0; 125]));
                comm.wait(req);
                0.0
            } else {
                let t0 = comm.time();
                let req = comm.irecv(0, 0);
                let _ = comm.wait(req); // arrival at 2 ms, no unpack cost
                comm.overlap_join(t0, 0.5e-3); // compute hides only 0.5 ms
                assert!((comm.time() - 2e-3).abs() < 1e-12);
                comm.comm_seconds()
            }
        });
        assert!(
            (exposed[1] - 1.5e-3).abs() < 1e-12,
            "exposed must be 2 ms - 0.5 ms, got {}",
            exposed[1]
        );
    }

    #[test]
    fn send_request_tests_complete_once_the_clock_passes_pack() {
        let net = NetworkParams {
            latency: 0.0,
            bandwidth: f64::INFINITY,
            copy_bandwidth: 1e6,
        };
        Universe::run(2, Some(net), |comm| {
            if comm.rank() == 0 {
                let req = comm.isend(1, 0, pack_f64s(&vec![0.0; 125]));
                assert!(!comm.test(&req));
                comm.advance(2e-3); // compute past the 1 ms pack
                assert!(comm.test(&req));
                comm.wait(req);
                assert!((comm.time() - 2e-3).abs() < 1e-12, "wait is then free");
            } else {
                let req = comm.irecv(0, 0);
                let _ = comm.wait(req);
            }
            0
        });
    }
}
