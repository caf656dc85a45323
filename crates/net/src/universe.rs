//! Spawning a set of ranks wired with a full channel mesh.

use std::collections::VecDeque;
use std::sync::mpsc::channel;

use tb_model::NetworkParams;

use crate::comm::{Comm, Msg};

/// A fixed-size group of in-process ranks.
pub struct Universe;

impl Universe {
    /// Spawn `n` rank threads, give each a [`Comm`], run `f` on every
    /// rank and return the per-rank results in rank order.
    ///
    /// `net = Some(...)` enables virtual-time accounting on every
    /// communication operation.
    ///
    /// Panics in any rank propagate (the scope unwinds) — a rank failure
    /// is a test failure.
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
                clock: 0.0,
                comm_busy: 0.0,
                comm_seconds: 0.0,
                net,
            })
            .collect();

        let f = &f;
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .iter_mut()
                .map(|comm| scope.spawn(move || f(comm)))
                .collect();
            for (slot, h) in out.iter_mut().zip(handles) {
                *slot = Some(h.join().expect("rank panicked"));
            }
        });
        out.into_iter().map(|r| r.unwrap()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_universe() {
        let r = Universe::run(1, None, |comm| {
            assert_eq!(comm.size(), 1);
            assert_eq!(comm.rank(), 0);
            comm.barrier();
            comm.allreduce_f64(3.0, crate::ReduceOp::Sum)
        });
        assert_eq!(r, vec![3.0]);
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
        let r = Universe::run(64, None, |comm| {
            comm.barrier();
            comm.allreduce_f64(1.0, crate::ReduceOp::Sum)
        });
        assert!(r.iter().all(|&v| v == 64.0));
    }

    #[test]
    #[should_panic(expected = "rank panicked")]
    fn rank_panic_propagates() {
        let _ = Universe::run(2, None, |comm| {
            if comm.rank() == 1 {
                panic!("boom");
            }
            // Rank 0 does not wait on rank 1 (panic must still propagate
            // through join).
            0
        });
    }
}
