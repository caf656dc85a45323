//! # tb-dist — distributed/hybrid temporal blocking (the paper's §2)
//!
//! This crate implements the paper's distributed-memory contribution:
//! **overlapping domain decomposition with multi-layer halo exchange**,
//! which amortizes message latency and buffer-copy cost over the
//! temporal-blocking depth. One exchange ships `h` ghost layers; the
//! rank then advances `h` sweeps, temporally blocked inside the rank —
//! a one-thread diamond walk on the rank's own thread
//! ([`LocalExec::Seq`]), the §1.3 pipelined executor
//! ([`LocalExec::Pipelined`], the paper's "hybrid" mode) or a diamond
//! team ([`LocalExec::Diamond`]) — before it has to communicate again.
//!
//! * [`net`] — the ranks and their communicator: in-process ranks
//!   ([`net::Universe`]) on a Cartesian topology ([`net::CartComm`]),
//!   point-to-point messages with a nonblocking receive probe, and an
//!   optional wall-time pacing of the wire priced by
//!   [`tb_model::NetworkParams`];
//! * [`Decomposition`] — splits the global grid over a `px × py × pz`
//!   rank grid into **overlapping** subdomains: every rank stores its
//!   owned box plus `h` ghost layers on each internal face;
//! * [`halo`] — face pack/unpack between grids and message buffers (the
//!   §2.2 "buffer copy" cost made explicit);
//! * [`DistSolver`] — the per-rank solver, generic over the stencil
//!   operator: exchange `h` layers along successive directions (x, then
//!   y, then z — corner and edge data arrive by composition), run
//!   `h / RADIUS` local sweeps, repeat. Results are **bitwise
//!   identical** to the operator's sequential oracle (pass `Jacobi6`
//!   for the paper's classic Jacobi);
//! * [`ExchangeMode`] — how the exchange is scheduled against the local
//!   compute: blocking ([`ExchangeMode::Sync`], the paper's measured
//!   baseline) or overlapped with the interior update
//!   ([`ExchangeMode::Overlapped`]) — the multicore-aware §2.3
//!   proposal. Whether a dedicated communication thread drives the
//!   overlapped exchange is a property of the runtime, not of the mode:
//!   the runtime's comm worker does when it has one (a layout that
//!   carves out a `comm_core`, or `Runtime::from_cpus(.., Some(..))`),
//!   the compute thread polls inline otherwise. See "Overlap" below;
//! * [`solver::serial_reference`] — the verification oracle;
//! * [`sim`] — the Fig. 6 substitution: execute the real protocol on a
//!   small grid on the paced wire while predicting the nominal point
//!   with [`tb_model::ScalingConfig`];
//! * the §3 outlook — one pipeline per cache group instead of one
//!   node-wide pipeline, the ccNUMA fix the paper proposes — is the same
//!   decomposition run in-process: a `[1, 1, n]` [`DistSolver`] split,
//!   one rank per cache group, each running a one-team
//!   [`LocalExec::Pipelined`] of depth `t·T = h`. Each rank thread pins
//!   itself into its group
//!   ([`tb_topology::affinity::pin_current_thread`]) *before*
//!   [`DistSolver::from_global_op`], which allocates and fills the
//!   rank's box on the calling thread, so the pages land on that group's
//!   NUMA domain; the rank then calls [`DistSolver::run_sweeps_on`] with
//!   `Runtime::new(&layout)` for a layout of its group's CPUs.
//!
//! # Correctness argument
//!
//! After an exchange of depth `c ≤ h`, ghost rings `1..=c` around the
//! owned box hold true global values of the current time step. A Jacobi
//! sweep reads only the source buffer, so staleness propagates inward at
//! one cell per sweep: after `j` local sweeps, rings `0..=c-j` are still
//! exact (ring 0 is the owned box). Running exactly `c` sweeps per cycle
//! therefore leaves every owned cell bit-identical to a global
//! sequential sweep — redundant work happens only in the overlap rings,
//! which the next exchange overwrites. The e2e tests hold every
//! configuration to bitwise equality with [`solver::serial_reference`].
//!
//! # Overlap
//!
//! The same staleness argument read inward instead of outward powers the
//! overlapped schedule: before any ghost of the current exchange has
//! arrived, sweep `j` may already update the owned box moved in by
//! `j × RADIUS` on every face that has a neighbour (the **interior
//! trapezoid**, [`LocalDomain::sweep_core`]) — exactly the cells whose
//! dependency cone stays inside pre-exchange data. Faces on the physical
//! boundary do not move: Dirichlet cells never go stale. What a
//! trapezoid sweep leaves out of its [`LocalDomain::sweep_domain`] are
//! strips next to the neighbour faces (the **shells**), finished once
//! the ghosts are in. The boundary data a rank *sends* is plain
//! step-`t` state, so the x-slabs go out of the working grid before any
//! compute; corner/edge forwarding still runs x → y → z, on the comm
//! side, from a staging grid the compute never writes (it holds a
//! snapshot of [`LocalDomain::boundary_shells`] when a y- or z-slab will
//! be forwarded, and the unpacked ghosts).
//!
//! **The trapezoid stops when the halos are in.** Shell strips are not
//! free — along an x-face they are `ny × nz` rows a few cells long, and
//! a row kernel costs per row — so the cycle asks "halos in?" between
//! local-executor dispatches and, on the first yes after `m` sweeps,
//! finishes those `m` sweeps' shells and runs the remaining `c − m`
//! sweeps whole, exactly as [`ExchangeMode::Sync`] would. `m` is a
//! matter of timing; the result is not (same writes for every `m`).
//! On a wire paced by [`tb_model::NetworkParams`] the halos land their
//! `message_time` after the send, so a slow preset keeps the trapezoid
//! going longer — all `c` sweeps once the latency outlasts it. See
//! [`solver`] for the details.
//!
//! **When overlap cannot hide traffic:** hiding is bounded by the
//! trapezoid, whose core shrinks by `c × RADIUS` per neighbour face. A
//! rank between two neighbours `≤ 2·c·RADIUS` apart has no core at all,
//! and a pipelined interior additionally needs blocks at least `n·t·T`
//! wide inside the core. Deep halos amortize latency but shrink the
//! hideable interior — the `n·t·T ≤ h / RADIUS` pipeline-depth
//! constraint binds from the other side, so `h` trades message count
//! against overlap window. The repo benchmark's `dist.exchange_share`
//! and `dist_overlap_mlups` / `dist_mlups` measure what is hidden on a
//! real run, on the unpaced wire.

#![forbid(unsafe_code)]

pub mod decomp;
pub mod halo;
pub mod net;
pub mod sim;
pub mod solver;

pub use decomp::{annulus_slabs, Decomposition, LocalDomain};
pub use solver::{DistSolver, ExchangeMode, LocalExec};
