//! Spawning a set of ranks wired with a full channel mesh.

use std::collections::VecDeque;
use std::sync::mpsc::channel;

use tb_model::NetworkParams;

use super::comm::{Comm, Msg};

/// A fixed-size group of in-process ranks.
pub struct Universe;

impl Universe {
    /// Spawn `n` rank threads, give each a [`Comm`], run `f` on every
    /// rank and return the per-rank results in rank order.
    ///
    /// `net = Some(...)` paces the wire: every message is delivered
    /// [`NetworkParams::message_time`] after its send (see
    /// [`super::comm`]).
    ///
    /// Panics in any rank propagate (the scope unwinds) — a rank failure
    /// is a test failure. A rank that ends hangs up its sending channels,
    /// so a peer blocked on it fails with "peer rank hung up" instead of
    /// waiting forever; messages it queued before it ended are still
    /// delivered. A rank that returns normally keeps its receiving
    /// channels, so its peers may still send to it; a panicking rank
    /// drops them too.
    pub fn run<R, F>(n: usize, net: Option<NetworkParams>, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        assert!(n >= 1, "need at least one rank");
        // senders[src][dst], receivers[dst][src]
        let mut senders: Vec<Vec<_>> = (0..n).map(|_| Vec::with_capacity(n)).collect();
        let mut receivers: Vec<Vec<_>> = (0..n).map(|_| Vec::with_capacity(n)).collect();
        for sender_row in &mut senders {
            for receiver_row in &mut receivers {
                let (tx, rx) = channel::<Msg>();
                sender_row.push(tx);
                receiver_row.push(rx);
            }
        }
        let mut comms: Vec<Comm> = senders
            .into_iter()
            .zip(receivers)
            .enumerate()
            .map(|(rank, (to, from))| Comm {
                rank,
                size: n,
                to,
                from,
                pending: (0..n).map(|_| VecDeque::new()).collect(),
                net,
            })
            .collect();

        let f = &f;
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .iter_mut()
                .map(|comm| {
                    scope.spawn(move || {
                        let rank = HangUpOnExit(comm);
                        f(&mut *rank.0)
                    })
                })
                .collect();
            for (slot, h) in out.iter_mut().zip(handles) {
                *slot = Some(h.join().expect("rank panicked"));
            }
        });
        out.into_iter().map(|r| r.unwrap()).collect()
    }
}

/// A rank's [`Comm`] while the rank runs: dropped when the rank ends,
/// it drops the rank's sending channel ends, and during a panic the
/// receiving ones too.
struct HangUpOnExit<'a>(&'a mut Comm);

impl Drop for HangUpOnExit<'_> {
    fn drop(&mut self) {
        self.0.to.clear();
        if std::thread::panicking() {
            self.0.from.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_universe() {
        let r = Universe::run(1, None, |comm| {
            assert_eq!(comm.size(), 1);
            comm.barrier();
            comm.rank()
        });
        assert_eq!(r, vec![0]);
    }

    #[test]
    fn results_are_in_rank_order() {
        let r = Universe::run(8, None, |comm| comm.rank() * 10);
        assert_eq!(r, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn many_ranks_oversubscribed() {
        // Far more ranks than cores: must still complete (channel recv
        // blocks, so oversubscription cannot livelock).
        let r = Universe::run(64, Some(NetworkParams::ideal()), |comm| {
            comm.barrier();
            comm.rank()
        });
        assert_eq!(r, (0..64).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "rank panicked")]
    fn rank_panic_propagates() {
        let _ = Universe::run(2, None, |comm| {
            if comm.rank() == 1 {
                panic!("boom");
            }
            // Rank 0 returns without waiting on rank 1: the panic
            // propagates through the join.
            0
        });
    }

    #[test]
    fn a_panicking_rank_fails_its_blocked_peers() {
        // Rank 1 panics while rank 0 is blocked receiving from it. Rank
        // 1's channels hang up as it unwinds, so rank 0's receive fails
        // and `Universe::run` propagates rank 1's panic.
        let (failed, peer_error) = blocked_peer_error(|| panic!("boom"));
        assert!(failed, "the rank panic must propagate");
        assert!(peer_error.contains("peer rank hung up"), "{peer_error:?}");
    }

    #[test]
    fn a_returning_rank_fails_its_blocked_peers() {
        // Rank 1 returns while rank 0 is blocked receiving from it: its
        // sending channels hang up, so rank 0's receive fails too.
        let (failed, peer_error) = blocked_peer_error(|| ());
        assert!(!failed, "both ranks returned");
        assert!(peer_error.contains("peer rank hung up"), "{peer_error:?}");
    }

    /// Rank 0's error from `recv(1, 0)` while rank 1 runs `peer` and
    /// sends nothing: the peer must fail it rather than hang it (the
    /// watchdog fails the test on a hang), and whether `Universe::run`
    /// failed.
    fn blocked_peer_error(peer: fn()) -> (bool, String) {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        crate::net::comm::within_ten_seconds(move || {
            let peer_error = std::sync::Mutex::new(String::new());
            let run = catch_unwind(AssertUnwindSafe(|| {
                Universe::run(2, None, |comm| {
                    if comm.rank() == 1 {
                        return peer();
                    }
                    let err = catch_unwind(AssertUnwindSafe(|| comm.recv(1, 0)))
                        .expect_err("rank 1 sends nothing");
                    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
                    *peer_error.lock().unwrap() = msg;
                })
            }));
            (run.is_err(), peer_error.into_inner().unwrap())
        })
    }
}
