//! The per-rank distributed solver and its sequential oracle, generic
//! over the stencil operator.
//!
//! [`DistSolver`] drives one rank: it stores the overlapping local box
//! of a [`Decomposition`], exchanges ghost layers with its Cartesian
//! neighbors (x, then y, then z — corners and edges arrive by
//! composition, because each stage forwards the layers received in the
//! previous stages), then advances locally with temporal blocking
//! between exchanges (§2): on the rank's own thread as a single-thread
//! diamond schedule ([`LocalExec::Seq`]), with the §1.3 pipelined
//! executor ([`LocalExec::Pipelined`], the paper's "hybrid" mode), or
//! with a diamond team ([`LocalExec::Diamond`]).
//!
//! The exchange depth derives from the operator: advancing `c` sweeps
//! between exchanges consumes `c × Op::RADIUS` ghost layers, so a halo of
//! width `h` sustains `h / Op::RADIUS` sweeps per cycle. Operators with
//! per-cell data are [`StencilOp::restricted`] to the rank's box, so
//! every rank reads exactly the coefficients the sequential oracle reads.
//!
//! # Exchange scheduling ([`ExchangeMode`])
//!
//! * [`ExchangeMode::Sync`] — blocking exchange, then compute: the
//!   paper's measured baseline ("no explicit or implicit overlapping of
//!   communication and computation", §2.2). Every [`LocalExec`]
//!   advances the cycle over the [`LocalDomain::sweep_domain`] chain,
//!   the owned box plus the ghost layers later sweeps of the cycle still
//!   read.
//! * [`ExchangeMode::Overlapped`] — the paper's §2.3 proposal, run only
//!   as deep as it pays: send the boundary slabs (sends are buffered)
//!   and advance the **interior trapezoid** while the transfers are in
//!   flight — sweep `j` updates [`LocalDomain::sweep_core`], the owned
//!   box moved in by `j × RADIUS` on every face that has a neighbour.
//!   Staleness from the not-yet-arrived ghosts propagates inward one
//!   radius per sweep from those faces only (physical faces hold
//!   Dirichlet values), so every cell of that region gets its true
//!   step-`t+j` value from pre-exchange data. Between two dispatches of
//!   the local executor the rank asks whether the halos are in. Once
//!   they are — after `m ≤ c` trapezoid sweeps — it unpacks them,
//!   finishes sweeps `1..=m` on the complementary **shells**
//!   ([`LocalDomain::sweep_domain`] minus the core: strips next to the
//!   neighbour faces) and runs sweeps `m+1..=c` whole, as `Sync` would.
//!   Whatever `m` turns out to be, the cycle writes the same (buffer,
//!   cell, sweep) triples as the synchronous schedule, so the owned
//!   result stays **bitwise identical** and independent of timing.
//!   Who drives the exchange is the runtime's business, not the mode's:
//!   a runtime with a communication worker (pinned to
//!   [`tb_runtime::topology::TeamLayout::comm_core`] when it was built with
//!   `Runtime::new(&layout)` from a layout that reserves one) runs the
//!   waits and the ghost forwarding there, coupled to the compute side
//!   by a [`Handoff`] instead of a barrier — "halos in?" is its ready
//!   flag; without one the compute thread polls the exchange between
//!   its own dispatches ([`Comm`]'s `arrived` probe).
//!
//! ## What the overlapped cycle costs, and why it stops early
//!
//! The trapezoid hides the exchange, the shells pay for it: every
//! trapezoid sweep leaves a strip `j` cells deep (plus the `c − j`
//! overlap-ring layers beyond the face) to be revisited per neighbour
//! face. Row kernels cost per *row*, not per cell, when rows are a few
//! cells long, so a strip along an **x-face** — `ny × nz` rows of 1–8
//! cells — costs about as much as half a full sweep of a 64-wide box,
//! while y- and z-face strips keep full-length rows. A cycle that ran
//! all `c` sweeps as a trapezoid regardless spent more time on strips
//! than the whole exchange takes (on a 128³ x-split: 52 % of the time
//! for 13 % of the updates, to hide 4 %). Stopping at the first
//! dispatch boundary after the messages landed keeps exactly the overlap
//! that hides something; with an exchange faster than one sweep the
//! cycle degenerates to `Sync` plus one staging copy of the ghosts.
//! Dispatch granularity while the trapezoid may still stop:
//! [`LocalExec::Seq`] one sweep, [`LocalExec::Pipelined`] one team sweep
//! of `n·t·T` stages, [`LocalExec::Diamond`] the whole cycle (`m` is 0
//! or `c`). Once nothing can stop it — the sweeps after `m`, and the
//! whole `Sync` cycle — `Seq` runs every remaining sweep as one
//! dispatch (see `advance_sweeps`).
//!
//! On a paced wire (a [`tb_model::NetworkParams`] preset given to
//! `Universe::run`) a message lands its `message_time` after the send,
//! in wall time, so a slow preset keeps the trapezoid going for as many
//! sweeps as the exchange takes — to `m = c` once the latency outlasts
//! the whole trapezoid.
//!
//! Overlap can only hide traffic that the interior compute outlasts: the
//! core shrinks by `c × RADIUS` per neighbour face, so a rank squeezed
//! between two neighbours `≤ 2·c·RADIUS` apart has none and the exchange
//! stays exposed. The pipeline-depth constraint is unchanged:
//! `n·t·T ≤ h / RADIUS`.

use std::collections::VecDeque;
use std::time::Instant;

use tb_grid::{Grid3, GridPair, Real, Region3};
use tb_runtime::sync::Handoff;
use tb_runtime::{PooledGrid, Runtime};
use tb_stencil::{
    baseline, diamond, kernel, pipeline, DiamondConfig, Jacobi6, PipelineConfig, RunStats,
    StencilOp,
};

use crate::decomp::{annulus_slabs, Decomposition, LocalDomain};
use crate::halo::{copy_region, exchange_regions, pack_region, repack_region, unpack_region};
use crate::net::{Bytes, CartComm, Comm};

/// How a rank advances its local box between exchanges.
#[derive(Clone, Debug)]
pub enum LocalExec {
    /// One thread, no runtime workers: the rank's own thread advances
    /// each cycle as a single-thread diamond schedule of the default
    /// width ([`DiamondConfig::default_for`]) over the cycle's shrinking
    /// sweep domains, so the cells an exchange delivered are reused in
    /// cache across the cycle's sweeps; a one-sweep cycle, and the
    /// overlapped trapezoid while it may still stop, run plain region
    /// sweeps.
    Seq,
    /// Pipelined temporal blocking inside the rank (hybrid MPI+threads
    /// in the paper), on the rank's two grids whatever `cfg.scheme`
    /// says. The pipeline depth `n·t·T` must not exceed the sweeps one
    /// exchange sustains (`h / Op::RADIUS`), or the pipeline would need
    /// ghost data the exchange did not provide.
    Pipelined(PipelineConfig),
    /// Wavefront-diamond temporal blocking inside the rank
    /// ([`tb_stencil::diamond`]). Diamond tiles clamp to whatever sweep
    /// count a cycle provides, so unlike the pipelined scheme there is
    /// no depth/halo coupling to validate — any halo `h >= Op::RADIUS`
    /// works, and in the overlapped modes the diamonds run directly on
    /// the shrinking interior trapezoid.
    Diamond(DiamondConfig),
}

impl LocalExec {
    /// Compute workers the local execution occupies (0: it runs on the
    /// rank's thread) and what a runtime-size panic calls them.
    fn team(&self) -> (usize, &'static str) {
        match self {
            LocalExec::Seq => (0, "sequential sweep"),
            LocalExec::Pipelined(cfg) => (cfg.threads(), "pipeline"),
            LocalExec::Diamond(cfg) => (cfg.threads, "diamond team"),
        }
    }

    /// The runtime [`DistSolver::run_sweeps`] builds: one unpinned
    /// worker per thread the local execution occupies and no
    /// communication worker, whatever the exchange mode.
    fn runtime(&self) -> Runtime {
        Runtime::with_threads(self.team().0)
    }
}

/// How a rank schedules its halo exchange against its local compute.
/// See the module docs for the schedule details.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ExchangeMode {
    /// Blocking exchange → compute (the paper's measured baseline).
    #[default]
    Sync,
    /// Nonblocking boundary-first schedule, driven by the runtime's
    /// communication worker when it has one and from the compute thread
    /// otherwise.
    Overlapped,
}

/// One rank of the distributed stencil solver. Its local compute goes
/// through tb-stencil's safe executor entries — the `&mut` pair plus the
/// cycle's per-sweep domains, see `advance_sweeps` — so the crate holds
/// no `unsafe` code.
pub struct DistSolver<T: Real, Op: StencilOp<T>> {
    /// The decomposition's process grid, which the communicator must
    /// match.
    pgrid: [usize; 3],
    local: LocalDomain,
    pair: GridPair<T>,
    exec: LocalExec,
    mode: ExchangeMode,
    /// The operator, re-anchored to this rank's box.
    op: Op,
    h: usize,
    /// Buffer index (0 = A, 1 = B) holding the current state.
    parity: usize,
    /// Staging grid for the overlapped exchange: boundary-shell snapshot
    /// plus unpacked ghosts, so the comm side never touches cells the
    /// compute side is updating. Acquired from the runtime's
    /// [`tb_runtime::GridPool`] on the first overlapped cycle and held
    /// for the solver's lifetime (returning to the pool on drop, so many
    /// solves sharing a runtime share one staging grid). Sized like the
    /// local box (only the depth-wide annulus and the ghost shells are
    /// ever touched): the full frame keeps the pack/unpack region
    /// arithmetic identical to the working grid's, at +1 grid of
    /// footprint in overlapped modes.
    scratch: Option<PooledGrid<T>>,
    /// Spare message buffer per (dimension, direction index): the last
    /// payload received from that neighbour, unpacked and no longer
    /// read. The next exchange packs its face toward the same neighbour
    /// into it (the two faces of a stage have equal extents), so a
    /// steady run of cycles allocates no message buffer at all.
    spares: Spares,
    /// Payload bytes this rank has sent in halo exchanges.
    pub halo_bytes_sent: u64,
    /// Payload bytes this rank has sent in final-result gathers.
    pub gather_bytes_sent: u64,
}

impl<T: Real, Op: StencilOp<T>> DistSolver<T, Op> {
    /// Build this rank's solver state from the global initial grid and
    /// the *global* operator (it is restricted to the local box here).
    ///
    /// Fails when `global` does not match the decomposition, when the
    /// halo is shallower than the operator radius, or when a pipelined
    /// `exec` is invalid for this rank's local box (too-small blocks,
    /// pipeline deeper than the halo sustains, ...).
    ///
    /// The rank's box is allocated and filled on the calling thread —
    /// both buffers of its pair — so its pages commit on that thread's
    /// NUMA domain. For the paper's one-pipeline-per-cache-group layout
    /// (one rank per group), pin the rank thread into its group with
    /// [`tb_runtime::topology::affinity::pin_current_thread`] before this call and
    /// run the rank on a runtime pinned to the same group.
    pub fn from_global_op(
        dec: &Decomposition,
        coords: [usize; 3],
        global: &Grid3<T>,
        exec: LocalExec,
        op: Op,
    ) -> Result<Self, String> {
        if global.dims() != dec.dims() {
            return Err(format!(
                "global grid {} does not match decomposition {}",
                global.dims(),
                dec.dims()
            ));
        }
        if dec.h() < Op::RADIUS {
            return Err(format!(
                "halo width h = {} is smaller than the operator radius {}",
                dec.h(),
                Op::RADIUS
            ));
        }
        let local = dec.local(coords);
        let exec = match exec {
            LocalExec::Seq => LocalExec::Seq,
            LocalExec::Pipelined(cfg) => {
                cfg.validate(local.dims)?;
                if cfg.stages() > dec.h() / Op::RADIUS {
                    return Err(format!(
                        "pipeline depth n*t*T = {} exceeds halo width h = {} / radius {}; \
                         the rank would read ghost layers the exchange never filled",
                        cfg.stages(),
                        dec.h(),
                        Op::RADIUS
                    ));
                }
                LocalExec::Pipelined(cfg)
            }
            LocalExec::Diamond(cfg) => {
                cfg.validate(local.dims, Op::RADIUS)?;
                LocalExec::Diamond(cfg)
            }
        };
        // Carve the local box (owned + ghosts) out of the global grid,
        // into a pair in the operator's row phase.
        let mut g = Grid3::zeroed(local.dims);
        g.set_phase_stale(Op::ALIGNED_CELL);
        copy_region(global, &local.region, &mut g, &Region3::whole(local.dims));
        let op = op.restricted(&local.region);
        Ok(Self {
            pgrid: dec.pgrid(),
            local,
            pair: GridPair::from_initial(g),
            exec,
            mode: ExchangeMode::Sync,
            op,
            h: dec.h(),
            parity: 0,
            scratch: None,
            spares: Spares::default(),
            halo_bytes_sent: 0,
            gather_bytes_sent: 0,
        })
    }

    /// Select the exchange schedule (default [`ExchangeMode::Sync`]).
    pub fn with_exchange_mode(mut self, mode: ExchangeMode) -> Self {
        self.mode = mode;
        self
    }

    /// The grid holding the current state (local coordinates).
    fn current_grid(&self) -> &Grid3<T> {
        if self.parity == 0 {
            self.pair.a()
        } else {
            self.pair.b()
        }
    }

    /// Move the current state into buffer A so the executors (which
    /// number sweeps from zero) read the right buffer.
    fn normalize_parity(&mut self) {
        if self.parity == 1 {
            self.pair.swap();
            self.parity = 0;
        }
    }

    /// Advance `sweeps` global sweeps: repeat (exchange `c·RADIUS ≤ h`
    /// layers, run `c` local sweeps) until done. Collective — every rank
    /// of the communicator must call it with the same `sweeps`.
    ///
    /// Builds a one-shot, unpinned [`Runtime`] sized for this rank's
    /// local execution, with no communication worker in either mode (so
    /// an overlapped exchange is polled inline), and delegates to
    /// [`DistSolver::run_sweeps_on`]; repeated-solve callers, callers who
    /// pin and callers who want a communication thread build the runtime
    /// themselves.
    ///
    /// The returned stats count *useful* updates (owned ∩ interior
    /// cells × sweeps); redundant overlap-ring updates are excluded so
    /// that per-rank numbers sum to the serial solver's update count.
    pub fn run_sweeps(&mut self, cart: &mut CartComm, sweeps: usize) -> RunStats {
        let rt = self.exec.runtime();
        self.run_sweeps_on(&rt, cart, sweeps)
    }

    /// [`DistSolver::run_sweeps`] on a caller-provided persistent
    /// runtime: the compute team runs on its workers and, in
    /// [`ExchangeMode::Overlapped`], the exchange is driven by its
    /// dedicated communication worker if it has one (for a pinned rank,
    /// `Runtime::new(&layout)` spawns it when the layout reserves a
    /// [`tb_runtime::topology::TeamLayout::comm_core`]), coupled by the "halos
    /// ready" [`Handoff`], and inline from the compute thread otherwise —
    /// bitwise identical, the inline drive just without a second thread
    /// to overlap on.
    ///
    /// # Panics
    /// Panics if the local execution is pipelined and the runtime has
    /// fewer workers than the pipeline needs, or if `cart` does not
    /// match the decomposition (see [`DistSolver::gather_global`]).
    pub fn run_sweeps_on(&mut self, rt: &Runtime, cart: &mut CartComm, sweeps: usize) -> RunStats {
        self.run_cycles(rt, cart, sweeps, None)
    }

    /// [`DistSolver::run_sweeps_on`] with the overlapped cycle's "halos
    /// in?" question optionally answered by `halos_in(sweeps_done)`
    /// instead of the exchange's real progress — the unit tests' handle
    /// for forcing every trapezoid depth.
    fn run_cycles(
        &mut self,
        rt: &Runtime,
        cart: &mut CartComm,
        sweeps: usize,
        mut halos_in: Option<&mut (dyn FnMut(usize) -> bool + '_)>,
    ) -> RunStats {
        self.assert_matches(cart);
        let (threads, team) = self.exec.team();
        assert!(
            rt.threads() >= threads,
            "runtime has {} workers but the rank's {team} needs {threads}",
            rt.threads()
        );
        let t0 = Instant::now();
        let sweeps_per_cycle = self.h / Op::RADIUS;
        let mut remaining = sweeps;
        while remaining > 0 {
            let c = sweeps_per_cycle.min(remaining);
            self.normalize_parity();
            match self.mode {
                ExchangeMode::Sync => {
                    self.exchange(cart, c * Op::RADIUS);
                    let domains: Vec<Region3> = (1..=c)
                        .map(|j| self.local.sweep_domain(j, c, Op::RADIUS))
                        .collect();
                    advance_sweeps(rt, &self.op, &mut self.pair, &self.exec, &domains, 0, None);
                }
                ExchangeMode::Overlapped => {
                    self.overlapped_cycle(rt, cart, c, halos_in.as_deref_mut());
                }
            }
            self.parity = c % 2;
            remaining -= c;
        }
        RunStats::new((self.local.interior.count() * sweeps) as u64, t0.elapsed())
    }

    /// One multi-layer halo exchange of depth `depth` along successive
    /// directions. After stage `d`, the current buffer holds valid ghost
    /// layers in every dimension `≤ d`; later stages forward them, which
    /// is what delivers edge and corner data without diagonal messages.
    /// The slab geometry lives in [`exchange_regions`].
    ///
    /// Each face costs one copy per side: the pack writes its rows into
    /// the payload last received from the same neighbour (a fresh buffer
    /// on the first cycle, or when the depth changed), and the received
    /// payload, once unpacked, becomes the next cycle's send buffer.
    fn exchange(&mut self, cart: &mut CartComm, depth: usize) {
        debug_assert_eq!(self.parity, 0, "exchange runs on a normalized pair");
        let owned = self.local.owned;
        let fence = self.local.region;
        for d in 0..3 {
            // Phase 1: post both sends (buffered, never blocks).
            for (idx, dir) in [-1i64, 1].into_iter().enumerate() {
                let Some(peer) = cart.neighbor(d, dir) else {
                    continue;
                };
                let (s, _) = exchange_regions(&owned, &fence, d, dir, depth);
                let spare = self.spares[d][idx].take();
                let payload = repack_region(spare, self.pair.a(), &self.local.to_local(&s));
                self.halo_bytes_sent += payload.len() as u64;
                cart.comm.send(peer, (d * 2 + idx) as u64, payload);
            }
            // Phase 2: receive both ghost slabs. The peer tagged its
            // message with *its own* direction, the opposite of ours.
            for (idx, dir) in [-1i64, 1].into_iter().enumerate() {
                let Some(peer) = cart.neighbor(d, dir) else {
                    continue;
                };
                let (_, r) = exchange_regions(&owned, &fence, d, dir, depth);
                let tag = (d * 2 + (1 - idx)) as u64;
                let payload = cart.comm.recv(peer, tag);
                unpack_region(self.pair.a_mut(), &self.local.to_local(&r), &payload);
                self.spares[d][idx] = Some(payload);
            }
        }
    }

    /// One overlapped cycle of `c` sweeps — the §2.3 schedule, cut short
    /// as soon as it has nothing left to hide:
    ///
    /// 1. send the x-direction slabs (plain step-`t` owned cells)
    ///    straight from the working grid; if a later direction has
    ///    neighbours, snapshot the boundary shells into the staging grid
    ///    for its forwarded slabs,
    /// 2. advance the interior trapezoid one local-executor dispatch at
    ///    a time, asking "halos in?" before each (the inline drive
    ///    completes, unpacks and forwards whatever has landed; with a
    ///    communication worker the question is its [`Handoff`] flag),
    /// 3. once they are in — after `m ≤ c` sweeps — complete the
    ///    exchange and copy the ghosts into the working grid,
    /// 4. finish sweeps `1..=m` on their shells, then run sweeps
    ///    `m+1..=c` over their full [`LocalDomain::sweep_domain`]s with
    ///    the same executor — for `m = 0` exactly the `Sync` cycle's
    ///    advance. These domains shrink toward the owned box by `R` per
    ///    sweep; the cells a domain leaves out are ones no later sweep of
    ///    the cycle reads before the next exchange.
    ///
    /// `m` only moves work between the trapezoid and the shells of a
    /// sweep: every (buffer, cell, sweep) triple is written exactly as
    /// for `m = 0` for any `m`, and every owned cell ends as in `Sync`,
    /// so the result does not depend on timing. `halos_in` overrides the
    /// question (see [`DistSolver::run_cycles`]).
    fn overlapped_cycle(
        &mut self,
        rt: &Runtime,
        cart: &mut CartComm,
        c: usize,
        mut halos_in: Option<&mut (dyn FnMut(usize) -> bool + '_)>,
    ) {
        debug_assert_eq!(self.parity, 0, "exchange runs on a normalized pair");
        let radius = Op::RADIUS;
        let depth = c * radius;
        let Self {
            pair,
            scratch,
            spares,
            op,
            exec,
            local,
            ..
        } = self;
        let cores: Vec<Region3> = (1..=c).map(|j| local.sweep_core(j, radius)).collect();
        let domains: Vec<Region3> = (1..=c).map(|j| local.sweep_domain(j, c, radius)).collect();

        let mut drive = ExchangeDrive::post(cart, local, depth, pair.a(), std::mem::take(spares));
        let mut m = 0;
        if drive.has_traffic() {
            // The staging grid exists only where there is traffic. It
            // comes from the runtime's pool (stale contents are fine:
            // every region the comm side reads is written earlier in the
            // same cycle — shells snapshotted, ghosts unpacked) and is
            // held for the solver's lifetime.
            let scratch = &mut **scratch
                .get_or_insert_with(|| rt.grid_pool::<T>().acquire_pooled(local.dims));
            // Forwarded slabs read owned cells the trapezoid overwrites
            // from its second sweep on: every one of them lies in a
            // boundary shell.
            if drive.forwards() {
                for slab in local.boundary_shells(depth) {
                    copy_region(pair.a(), &slab, scratch, &slab);
                }
            }
            m = if rt.has_comm_worker() {
                // The persistent communication worker (pinned to the
                // layout's comm core at runtime construction) drives the
                // exchange to completion while this thread dispatches
                // the trapezoid. Panics on the comm worker are carried
                // through the handoff — the compute side would otherwise
                // spin in `take()` forever — and the handle join
                // afterwards releases the task borrow.
                let handoff: Handoff<std::thread::Result<()>> = Handoff::new();
                let (comm, drive, staging) = (&mut *cart.comm, &mut drive, &mut *scratch);
                let mut comm_task = || {
                    handoff.signal(std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                        || drive.finish(comm, staging),
                    )));
                };
                let handle = rt.submit_comm(&mut comm_task);
                let mut stop = |done| match &mut halos_in {
                    Some(ask) => ask(done),
                    None => handoff.is_ready(),
                };
                let m = advance_sweeps(rt, op, pair, exec, &cores, 0, Some(&mut stop));
                // "Halos ready" — the compute side blocks here only
                // if it ran out of trapezoid before the traffic.
                let outcome = handoff.take();
                handle.join();
                if let Err(payload) = outcome {
                    std::panic::resume_unwind(payload);
                }
                m
            } else {
                // Inline drive: this thread polls the exchange between
                // its own dispatches, then blocks for the rest.
                let mut stop = |done| match &mut halos_in {
                    Some(ask) => ask(done),
                    None => drive.poll(cart.comm, scratch),
                };
                let m = advance_sweeps(rt, op, pair, exec, &cores, 0, Some(&mut stop));
                drive.finish(cart.comm, scratch);
                m
            };
            for r in &drive.ghosts {
                copy_region(scratch, r, pair.a_mut(), r);
            }
        }
        *spares = drive.spares;
        self.halo_bytes_sent += drive.bytes;

        // Finish the shells of the sweeps the trapezoid reached ...
        for j in 0..m {
            let (src, dst) = pair.src_dst(j);
            for slab in annulus_slabs(&domains[j], &cores[j]) {
                kernel::update_region_op(op, src, dst, &slab);
            }
        }
        // ... and run the others whole.
        advance_sweeps(rt, op, pair, exec, &domains[m..], m, None);
    }

    /// Collect every rank's owned cells on rank 0. Returns the
    /// assembled global grid on rank 0 and `None` elsewhere.
    /// Collective — all ranks must call it. `global_initial` supplies
    /// the (never-updated) physical boundary values and the dims.
    ///
    /// # Panics
    /// Panics before sending anything unless `cart` has the
    /// decomposition's process grid and this rank's coordinates in it.
    pub fn gather_global(
        &mut self,
        cart: &mut CartComm,
        dec: &Decomposition,
        global_initial: &Grid3<T>,
    ) -> Option<Grid3<T>> {
        const TAG: u64 = u64::MAX - 7;
        self.assert_matches(cart);
        let local_owned = self.local.to_local(&self.local.owned);
        if cart.comm.rank() != 0 {
            let mine = pack_region(self.current_grid(), &local_owned);
            self.gather_bytes_sent += mine.len() as u64;
            cart.comm.send(0, TAG, mine);
            return None;
        }
        let mut out = global_initial.clone();
        copy_region(
            self.current_grid(),
            &local_owned,
            &mut out,
            &self.local.owned,
        );
        for src in 1..cart.comm.size() {
            let owned = dec.owned(dec.coords_of(src));
            let payload = cart.comm.recv(src, TAG);
            unpack_region(&mut out, &owned, &payload);
        }
        Some(out)
    }

    /// Refuse a communicator laid out differently from the
    /// decomposition: its neighbours would not be this rank's, and the
    /// exchange would overrun the box or wait forever.
    fn assert_matches(&self, cart: &CartComm) {
        assert!(
            cart.dims() == self.pgrid && cart.coords() == self.local.coords,
            "communicator {:?} at {:?} does not match the decomposition's process grid {:?} at {:?}",
            cart.dims(),
            cart.coords(),
            self.pgrid,
            self.local.coords
        );
    }
}

/// The comm side of one overlapped exchange as a resumable state
/// machine: complete a direction's receives, unpack them into the
/// staging grid, forward the next direction's slabs (which embed the
/// ghost layers just unpacked — the edge/corner composition), repeat.
/// [`ExchangeDrive::poll`] takes it as far as the messages that have
/// landed allow, [`ExchangeDrive::finish`] blocks for the rest; the
/// compute thread calls both on a runtime without a communication
/// worker, the communication worker calls `finish` on a runtime with
/// one. Every `Comm` mutation of the cycle happens here, in one order.
/// The drive holds the solver's spare message buffers for the cycle:
/// sends pack into them, unpacked receives refill them.
struct ExchangeDrive {
    /// Direction index (0: −, 1: +), ghost region, peer and tag of every
    /// pending receive, per direction, in posting order.
    recvs: [VecDeque<(usize, Region3, usize, u64)>; 3],
    /// Direction index, peer, tag and slab of every send, per direction.
    sends: [Vec<(usize, usize, u64, Region3)>; 3],
    /// The solver's spare buffers, handed back when the cycle ends.
    spares: Spares,
    /// Direction whose receives are being completed (3: all done).
    dim: usize,
    /// Payload bytes sent so far.
    bytes: u64,
    /// Ghost regions unpacked into the staging grid so far.
    ghosts: Vec<Region3>,
}

impl ExchangeDrive {
    /// Plan the receives of a depth-`depth` exchange and send the
    /// x-direction slabs, which hold owned cells only, from `current`.
    fn post<T: Real>(
        cart: &mut CartComm,
        local: &LocalDomain,
        depth: usize,
        current: &Grid3<T>,
        spares: Spares,
    ) -> Self {
        let mut drive = Self {
            recvs: Default::default(),
            sends: Default::default(),
            spares,
            dim: 0,
            bytes: 0,
            ghosts: Vec::new(),
        };
        for d in 0..3 {
            for (idx, dir) in [-1i64, 1].into_iter().enumerate() {
                let Some(peer) = cart.neighbor(d, dir) else {
                    continue;
                };
                let (s, r) = exchange_regions(&local.owned, &local.region, d, dir, depth);
                drive.sends[d].push((idx, peer, (d * 2 + idx) as u64, local.to_local(&s)));
                // The peer tagged its message with *its own* direction,
                // the opposite of ours.
                let tag = (d * 2 + (1 - idx)) as u64;
                drive.recvs[d].push_back((idx, local.to_local(&r), peer, tag));
            }
        }
        drive.send_dim(cart.comm, current);
        drive
    }

    /// Whether this rank exchanges anything at all.
    fn has_traffic(&self) -> bool {
        self.sends.iter().any(|v| !v.is_empty())
    }

    /// Whether slabs go out after the cycle's compute has started (from
    /// the staging grid, which must then hold the boundary shells).
    fn forwards(&self) -> bool {
        self.sends[1..].iter().any(|v| !v.is_empty())
    }

    /// Send the slabs of direction `self.dim` out of `from`, each packed
    /// into the spare buffer of its neighbour. The payload moves into
    /// the buffered message, so nothing waits on the send.
    fn send_dim<T: Real>(&mut self, comm: &mut Comm, from: &Grid3<T>) {
        let d = self.dim;
        for &(idx, peer, tag, region) in &self.sends[d] {
            let payload = repack_region(self.spares[d][idx].take(), from, &region);
            self.bytes += payload.len() as u64;
            comm.send(peer, tag, payload);
        }
    }

    /// Drive the exchange as far as possible: in-order completion of
    /// the current direction's receives (`block` waits for them, else
    /// the first one that has not [`Comm::arrived`] stops the drive),
    /// then on to the next direction. True once every ghost is in
    /// `scratch`.
    fn advance<T: Real>(&mut self, comm: &mut Comm, scratch: &mut Grid3<T>, block: bool) -> bool {
        while self.dim < 3 {
            while let Some(&(idx, region, peer, tag)) = self.recvs[self.dim].front() {
                if !block && !comm.arrived(peer, tag) {
                    return false;
                }
                self.recvs[self.dim].pop_front();
                let payload = comm.recv(peer, tag);
                unpack_region(scratch, &region, &payload);
                self.spares[self.dim][idx] = Some(payload);
                self.ghosts.push(region);
            }
            self.dim += 1;
            if self.dim < 3 {
                self.send_dim(comm, scratch);
            }
        }
        true
    }

    /// Nonblocking [`ExchangeDrive::advance`]: "are the halos in?"
    fn poll<T: Real>(&mut self, comm: &mut Comm, scratch: &mut Grid3<T>) -> bool {
        self.advance(comm, scratch, false)
    }

    /// Blocking [`ExchangeDrive::advance`].
    fn finish<T: Real>(&mut self, comm: &mut Comm, scratch: &mut Grid3<T>) {
        self.advance(comm, scratch, true);
    }
}

/// One spare message buffer slot per (dimension, direction index
/// 0: −, 1: +); see [`DistSolver`]'s `spares`.
type Spares = [[Option<Bytes>; 2]; 3];

/// Advance sweeps `base + 1 ..= base + domains.len()` of a cycle, sweep
/// `base + s + 1` over `domains[s]`, one local-executor dispatch at a
/// time. A caller that may still stop passes `stop`: `stop(sweeps_done)`
/// is asked before each dispatch and ends the advance early (the
/// overlapped trapezoid asking "halos in?"); with `None` the advance runs
/// to the end. Returns the sweeps done. A dispatch is
///
/// * [`LocalExec::Diamond`]: all remaining sweeps, as one diamond
///   schedule on the runtime's team ([`diamond::run_diamond_schedule_on`];
///   diamonds clamp to the domains and tolerate empty ones, so there is
///   no constructibility precondition; `run_cycles` rejects undersized
///   runtimes up front),
/// * [`LocalExec::Pipelined`]: the next `stages()` sweeps as one team
///   sweep over their shrinking domains
///   ([`pipeline::run_team_sweep_op_on`]), unless that entry reports the
///   chain cannot host a pipeline plan — then one region sweep,
/// * [`LocalExec::Seq`] with no `stop` and more than one sweep left: all
///   remaining sweeps as one diamond schedule of the default width
///   ([`DiamondConfig::default_for`]) walked on the calling thread
///   ([`diamond::run_diamond_schedule`]), so the cells the exchange
///   delivered are reused in cache across the cycle's sweeps,
/// * otherwise one plain region sweep.
///
/// Every executor entry is safe and checks that the domains are interior
/// to the pair; the results are the oracle's because both the
/// [`LocalDomain::sweep_core`] and the [`LocalDomain::sweep_domain`]
/// chains satisfy the executors' trapezoid contract,
/// `domains[s + 1].expand(RADIUS) ⊆ domains[s] ∪ never-written cells`.
fn advance_sweeps<T: Real, Op: StencilOp<T>>(
    rt: &Runtime,
    op: &Op,
    pair: &mut GridPair<T>,
    exec: &LocalExec,
    domains: &[Region3],
    base: usize,
    mut stop: Option<&mut dyn FnMut(usize) -> bool>,
) -> usize {
    let mut done = 0;
    while done < domains.len() && !stop.as_mut().is_some_and(|stop| stop(done)) {
        let rest = &domains[done..];
        let sweep = base + done;
        let blocked = match exec {
            LocalExec::Diamond(cfg) => {
                diamond::run_diamond_schedule_on(rt, op, pair, rest, cfg, sweep);
                Some(rest.len())
            }
            LocalExec::Pipelined(cfg) => {
                let now = cfg.stages().min(rest.len());
                pipeline::run_team_sweep_op_on(rt, op, pair, &rest[..now], cfg, sweep).map(|_| now)
            }
            LocalExec::Seq if stop.is_none() && rest.len() > 1 => {
                let width = DiamondConfig::default_for(1).width;
                diamond::run_diamond_schedule(op, pair, rest, width, sweep);
                Some(rest.len())
            }
            LocalExec::Seq => None,
        };
        done += blocked.unwrap_or_else(|| {
            let (src, dst) = pair.src_dst(sweep);
            kernel::update_region_op(op, src, dst, &rest[0]);
            1
        });
    }
    done
}

/// The verification oracle: `sweeps` plain sequential sweeps of `op` on
/// the whole global grid.
pub fn serial_reference_op<T: Real, Op: StencilOp<T>>(
    op: &Op,
    global: &Grid3<T>,
    sweeps: usize,
) -> Grid3<T> {
    let mut pair = GridPair::from_initial(global.clone());
    baseline::seq_sweeps_op(op, &mut pair, sweeps);
    pair.current(sweeps).clone()
}

/// Classic-Jacobi form of [`serial_reference_op`].
pub fn serial_reference<T: Real>(global: &Grid3<T>, sweeps: usize) -> Grid3<T> {
    serial_reference_op(&Jacobi6, global, sweeps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Universe;
    use tb_grid::{init, norm, Dims3};
    use tb_runtime::sync::SyncMode;
    use tb_stencil::config::GridScheme;
    use tb_stencil::{Avg27, Jacobi7, VarCoeff7};

    fn verify(dims: Dims3, pgrid: [usize; 3], h: usize, sweeps: usize) {
        let global: Grid3<f64> = init::random(dims, 99);
        let want = serial_reference(&global, sweeps);
        let dec = Decomposition::new(dims, pgrid, h);
        let (g, w) = (&global, &want);
        Universe::run(dec.ranks(), None, move |comm| {
            let mut cart = CartComm::new(comm, pgrid);
            let mut s = DistSolver::from_global_op(&dec, cart.coords(), g, LocalExec::Seq, Jacobi6)
                .unwrap();
            let stats = s.run_sweeps(&mut cart, sweeps);
            assert_eq!(
                stats.cell_updates,
                (s.local.interior.count() * sweeps) as u64
            );
            if let Some(got) = s.gather_global(&mut cart, &dec, g) {
                norm::assert_grids_identical(w, &got, &Region3::interior_of(dims), "unit");
            }
        });
    }

    fn verify_op<Op: StencilOp<f64>>(
        op: Op,
        dims: Dims3,
        pgrid: [usize; 3],
        h: usize,
        sweeps: usize,
    ) {
        // A non-zero Dirichlet shell (from `init::linear`) around the
        // random interior, so a rank that loses a face cell differs.
        let mut global: Grid3<f64> = init::random(dims, 4242);
        let shell = init::linear(dims, 0.25, 0.5, 0.75, 1.0);
        global.copy_outside_from(&shell, &Region3::interior_of(dims));
        let want = serial_reference_op(&op, &global, sweeps);
        let dec = Decomposition::new(dims, pgrid, h);
        let (g, w, op_ref) = (&global, &want, &op);
        Universe::run(dec.ranks(), None, move |comm| {
            let mut cart = CartComm::new(comm, pgrid);
            let mut s =
                DistSolver::from_global_op(&dec, cart.coords(), g, LocalExec::Seq, op_ref.clone())
                    .unwrap();
            s.run_sweeps(&mut cart, sweeps);
            if let Some(got) = s.gather_global(&mut cart, &dec, g) {
                norm::assert_grids_identical(
                    w,
                    &got,
                    &Region3::interior_of(dims),
                    &format!("dist {}", op_ref.name()),
                );
            }
        });
    }

    /// The ways a test rank schedules its exchange: the mode, and
    /// whether the runtime has a communication worker to drive an
    /// overlapped exchange.
    const DRIVES: [(ExchangeMode, bool); 3] = [
        (ExchangeMode::Sync, false),
        (ExchangeMode::Overlapped, false),
        (ExchangeMode::Overlapped, true),
    ];

    /// The runtime a test rank runs on: the one `run_sweeps` builds, or
    /// the same compute team plus an unpinned communication worker.
    fn test_runtime(exec: &LocalExec, comm_thread: bool) -> Runtime {
        if comm_thread {
            Runtime::from_cpus(vec![None; exec.team().0], Some(None))
        } else {
            exec.runtime()
        }
    }

    /// Every exchange drive must gather the exact serial-oracle grid.
    fn verify_modes_op<Op: StencilOp<f64>>(
        op: Op,
        dims: Dims3,
        pgrid: [usize; 3],
        h: usize,
        sweeps: usize,
        exec: impl Fn() -> LocalExec + Send + Sync,
    ) {
        let global: Grid3<f64> = init::random(dims, 77);
        let want = serial_reference_op(&op, &global, sweeps);
        let dec = Decomposition::new(dims, pgrid, h);
        for (mode, comm_thread) in DRIVES {
            let (g, w, op_ref, exec_ref, dec) = (&global, &want, &op, &exec, &dec);
            Universe::run(dec.ranks(), None, move |comm| {
                let mut cart = CartComm::new(comm, pgrid);
                let exec = exec_ref();
                let rt = test_runtime(&exec, comm_thread);
                let mut s = DistSolver::from_global_op(dec, cart.coords(), g, exec, op_ref.clone())
                    .unwrap()
                    .with_exchange_mode(mode);
                s.run_sweeps_on(&rt, &mut cart, sweeps);
                if let Some(got) = s.gather_global(&mut cart, dec, g) {
                    norm::assert_grids_identical(
                        w,
                        &got,
                        &Region3::interior_of(dims),
                        &format!(
                            "{} {mode:?} comm_thread={comm_thread} {pgrid:?} h={h}",
                            op_ref.name()
                        ),
                    );
                }
            });
        }
    }

    #[test]
    fn single_rank_equals_serial() {
        verify(Dims3::cube(12), [1, 1, 1], 3, 7);
    }

    #[test]
    fn two_ranks_each_axis() {
        verify(Dims3::new(16, 12, 10), [2, 1, 1], 2, 5);
        verify(Dims3::new(12, 16, 10), [1, 2, 1], 2, 5);
        verify(Dims3::new(10, 12, 16), [1, 1, 2], 2, 5);
    }

    #[test]
    fn partial_final_cycle_with_odd_depth() {
        // h = 3, 8 sweeps -> cycles 3 + 3 + 2, crossing buffer parity.
        verify(Dims3::cube(14), [2, 2, 1], 3, 8);
    }

    #[test]
    fn sweeps_fewer_than_halo() {
        verify(Dims3::cube(14), [2, 1, 1], 4, 2);
    }

    #[test]
    fn every_operator_matches_its_serial_oracle_across_ranks() {
        let dims = Dims3::new(16, 14, 12);
        verify_op(Jacobi7::heat(0.09), dims, [2, 1, 2], 2, 5);
        verify_op(VarCoeff7::banded(dims), dims, [2, 2, 1], 2, 5);
        // The corner-reading operator exercises the ghost-forwarding
        // composition: diagonal data must arrive by stage ordering alone.
        verify_op(Avg27, dims, [2, 2, 2], 2, 5);
        verify_op(Avg27, dims, [1, 2, 1], 3, 7);
    }

    #[test]
    fn overlapped_modes_match_serial_two_ranks() {
        verify_modes_op(Jacobi6, Dims3::new(18, 12, 12), [2, 1, 1], 2, 5, || {
            LocalExec::Seq
        });
    }

    #[test]
    fn overlapped_modes_match_serial_every_axis_and_partial_cycle() {
        // h = 3, 8 sweeps: cycles 3 + 3 + 2 cross buffer parity.
        verify_modes_op(Jacobi6, Dims3::cube(16), [1, 1, 2], 3, 8, || LocalExec::Seq);
        verify_modes_op(Jacobi6, Dims3::cube(16), [1, 2, 1], 3, 8, || LocalExec::Seq);
    }

    // (Corner-forwarding of the overlapped exchange across eight ranks
    // is covered by the e2e matrix in tests/dist_e2e.rs with Avg27.)

    #[test]
    fn overlapped_hybrid_pipelined_interior() {
        let cfg = PipelineConfig {
            team_size: 2,
            n_teams: 1,
            updates_per_thread: 1,
            block: [8, 8, 8],
            sync: SyncMode::relaxed_default(),
            scheme: GridScheme::TwoGrid,
            audit: false,
        };
        verify_modes_op(Jacobi6, Dims3::cube(24), [2, 1, 1], 4, 9, move || {
            LocalExec::Pipelined(cfg.clone())
        });
    }

    #[test]
    fn diamond_local_exec_matches_serial_in_every_mode() {
        // The diamond scheme drives both the Sync local advance and the
        // overlapped interior trapezoid (shrinking cores), with the
        // race auditor on.
        let cfg = DiamondConfig {
            threads: 2,
            width: 4,
            threads_per_tile: 2, // MWD through the distributed trapezoid
            audit: true,
        };
        let c = cfg.clone();
        verify_modes_op(Jacobi6, Dims3::cube(20), [2, 1, 1], 3, 8, move || {
            LocalExec::Diamond(c.clone())
        });
        let c = cfg.clone();
        verify_modes_op(Avg27, Dims3::new(18, 14, 16), [1, 2, 1], 2, 5, move || {
            LocalExec::Diamond(c.clone())
        });
    }

    #[test]
    fn stale_b_buffers_show_every_skipped_x_face_carry() {
        // `from_global_op` fills both buffers of a rank's pair alike, so a
        // local advance that skipped an x-face carry would copy nothing
        // that differs. Here each rank's B buffer is stale the way a
        // recycled pool buffer is for the facade: NaN everywhere but the
        // contiguous shell (its z planes and y rows). A face cell left
        // uncarried then stays NaN and spreads into the gathered result.
        let dims = Dims3::new(20, 12, 14);
        let mut global: Grid3<f64> = init::random(dims, 4244);
        let shell = init::linear(dims, 0.25, 0.5, 0.75, 1.0);
        global.copy_outside_from(&shell, &Region3::interior_of(dims));
        let (h, sweeps) = (3, 8);
        let want = serial_reference(&global, sweeps);
        let pipe = PipelineConfig {
            team_size: 2,
            n_teams: 1,
            updates_per_thread: 1,
            block: [8, 8, 8],
            sync: SyncMode::relaxed_default(),
            scheme: GridScheme::TwoGrid,
            audit: false,
        };
        let execs = [
            LocalExec::Seq,
            LocalExec::Pipelined(pipe),
            LocalExec::Diamond(DiamondConfig::with_width(2, 4)),
        ];
        for pgrid in [[2, 1, 1], [1, 1, 2]] {
            let dec = Decomposition::new(dims, pgrid, h);
            for exec in &execs {
                for (mode, comm_thread) in DRIVES {
                    let (g, w, dec) = (&global, &want, &dec);
                    Universe::run(dec.ranks(), None, move |comm| {
                        let mut cart = CartComm::new(comm, pgrid);
                        let rt = test_runtime(exec, comm_thread);
                        let mut s = DistSolver::from_global_op(
                            dec,
                            cart.coords(),
                            g,
                            exec.clone(),
                            Jacobi6,
                        )
                        .unwrap()
                        .with_exchange_mode(mode);
                        let local = s.pair.dims();
                        let mut stale = s.pair.a().clone();
                        stale.as_mut_slice().fill(f64::NAN);
                        let rows = Region3::new([0, 1, 1], [local.nx, local.ny - 1, local.nz - 1]);
                        stale.copy_outside_from(s.pair.a(), &rows);
                        *s.pair.b_mut() = stale;
                        s.run_sweeps_on(&rt, &mut cart, sweeps);
                        if let Some(got) = s.gather_global(&mut cart, dec, g) {
                            norm::assert_grids_identical(
                                w,
                                &got,
                                &Region3::interior_of(dims),
                                &format!("stale B {exec:?} {mode:?} comm={comm_thread} {pgrid:?}"),
                            );
                        }
                    });
                }
            }
        }
    }

    #[test]
    fn diamond_local_exec_with_empty_interior_core() {
        // The middle rank of three owns 8 planes between two neighbours:
        // in depth-4 cycles its trapezoid is empty from sweep 1 on,
        // everything lands in the shell phase, and the diamond schedule
        // must cope with all-empty domains.
        let exec = LocalExec::Diamond(DiamondConfig::with_width(2, 4));
        check_every_depth(Jacobi6, Dims3::new(24, 12, 12), [3, 1, 1], 4, 8, &exec);
    }

    #[test]
    fn diamond_wider_than_local_box_is_fine() {
        let cfg = DiamondConfig::with_width(2, 64);
        verify_modes_op(
            Jacobi7::heat(0.08),
            Dims3::cube(18),
            [2, 1, 1],
            2,
            6,
            move || LocalExec::Diamond(cfg.clone()),
        );
    }

    #[test]
    fn invalid_diamond_config_rejected() {
        let dims = Dims3::cube(16);
        let dec = Decomposition::new(dims, [1, 1, 1], 1);
        let global: Grid3<f64> = init::random(dims, 2);
        let cfg = DiamondConfig::with_width(2, 1); // width < 2·radius
        let err = match DistSolver::from_global_op(
            &dec,
            [0, 0, 0],
            &global,
            LocalExec::Diamond(cfg),
            Jacobi6,
        ) {
            Err(e) => e,
            Ok(_) => panic!("too-narrow diamond width must be rejected"),
        };
        assert!(err.contains("2·radius"), "{err}");
    }

    /// One distributed run under `drive` (see [`DRIVES`]): the grid
    /// gathered on rank 0 and every rank's halo bytes. `depth` forces the
    /// overlapped trapezoid to stop after that many sweeps of each cycle
    /// (`None`: real progress).
    fn run_at_depth<Op: StencilOp<f64>>(
        op: &Op,
        global: &Grid3<f64>,
        dec: &Decomposition,
        exec: &LocalExec,
        (mode, comm_thread): (ExchangeMode, bool),
        sweeps: usize,
        depth: Option<usize>,
    ) -> (Grid3<f64>, Vec<u64>) {
        let outs = Universe::run(dec.ranks(), None, move |comm| {
            let mut cart = CartComm::new(comm, dec.pgrid());
            let mut s =
                DistSolver::from_global_op(dec, cart.coords(), global, exec.clone(), op.clone())
                    .unwrap()
                    .with_exchange_mode(mode);
            let rt = test_runtime(exec, comm_thread);
            match depth {
                Some(m) => s.run_cycles(&rt, &mut cart, sweeps, Some(&mut |done| done >= m)),
                None => s.run_cycles(&rt, &mut cart, sweeps, None),
            };
            (s.gather_global(&mut cart, dec, global), s.halo_bytes_sent)
        });
        let bytes = outs.iter().map(|o| o.1).collect();
        let grid = outs.into_iter().find_map(|o| o.0).expect("rank 0 gathers");
        (grid, bytes)
    }

    /// Force the overlapped cycle to find its halos in after every
    /// number of trapezoid sweeps `m = 0..=h`, under both overlapped
    /// drives: the gathered grid must be the serial oracle's and every
    /// rank's halo traffic `Sync`'s.
    fn check_every_depth<Op: StencilOp<f64>>(
        op: Op,
        dims: Dims3,
        pgrid: [usize; 3],
        h: usize,
        sweeps: usize,
        exec: &LocalExec,
    ) {
        let global: Grid3<f64> = init::random(dims, 31);
        let want = serial_reference_op(&op, &global, sweeps);
        let dec = Decomposition::new(dims, pgrid, h);
        let interior = Region3::interior_of(dims);
        let (sync, sync_bytes) = run_at_depth(&op, &global, &dec, exec, DRIVES[0], sweeps, None);
        norm::assert_grids_identical(&want, &sync, &interior, "sync");
        for drive in &DRIVES[1..] {
            for m in 0..=h {
                let (got, bytes) = run_at_depth(&op, &global, &dec, exec, *drive, sweeps, Some(m));
                let what = format!("{} {exec:?} {drive:?} {pgrid:?} m={m}", op.name());
                norm::assert_grids_identical(&want, &got, &interior, &what);
                assert_eq!(bytes, sync_bytes, "{what}: halo bytes");
            }
        }
    }

    #[test]
    fn every_trapezoid_depth_is_bitwise_sync() {
        // The cycle may find its halos in after any number of trapezoid
        // sweeps m = 0..=c (dispatch granularity permitting: a pipelined
        // team stops at multiples of its two stages, diamonds at 0 or
        // c). Whatever m, the gathered grid is the serial oracle's and
        // the traffic is Sync's. 6 sweeps of h = 4: a full and a
        // partial cycle.
        let (h, sweeps) = (4, 6);
        let pipelined = LocalExec::Pipelined(PipelineConfig {
            team_size: 2,
            n_teams: 1,
            updates_per_thread: 1,
            block: [8, 8, 8],
            sync: SyncMode::relaxed_default(),
            scheme: GridScheme::TwoGrid,
            audit: true,
        });
        let diamond = LocalExec::Diamond(DiamondConfig {
            threads: 2,
            width: 4,
            threads_per_tile: 1,
            audit: true,
        });
        for exec in [LocalExec::Seq, pipelined, diamond] {
            check_every_depth(Jacobi6, Dims3::new(28, 20, 20), [2, 1, 1], h, sweeps, &exec);
            check_every_depth(Jacobi6, Dims3::new(20, 28, 20), [1, 2, 1], h, sweeps, &exec);
            check_every_depth(Jacobi6, Dims3::new(20, 20, 28), [1, 1, 2], h, sweeps, &exec);
            // Corner-reading operator over all eight octants: forwarded
            // slabs leave the staging grid while the trapezoid runs.
            check_every_depth(Avg27, Dims3::cube(24), [2, 2, 2], h, sweeps, &exec);
        }
    }

    #[test]
    fn overlapped_with_empty_interior_core() {
        // Same squeezed middle rank, sequential: however long the
        // trapezoid "runs" it hides nothing, and the result stays exact.
        // The eight corner ranks of [2,2,2] keep a 3-cell core each.
        check_every_depth(
            Jacobi6,
            Dims3::new(24, 12, 12),
            [3, 1, 1],
            4,
            8,
            &LocalExec::Seq,
        );
        verify_modes_op(Jacobi6, Dims3::cube(16), [2, 2, 2], 4, 8, || LocalExec::Seq);
    }

    #[test]
    #[should_panic(expected = "rank panicked")]
    fn comm_thread_panic_propagates_instead_of_hanging() {
        // A protocol error hit on the comm thread (here: a peer sending
        // a wrong-length halo payload, which fails `unpack_region`) must
        // fail the rank loudly: the panic travels through the handoff
        // and re-raises on the compute side. A hang would block this
        // test forever instead.
        let dims = Dims3::cube(14);
        let pgrid = [2, 1, 1];
        let dec = Decomposition::new(dims, pgrid, 2);
        let global: Grid3<f64> = init::random(dims, 3);
        let (g, dec_ref) = (&global, &dec);
        Universe::run(2, None, move |comm| {
            if comm.rank() == 1 {
                // Bogus 8-byte message under rank 0's -x ghost tag.
                comm.send(0, 0, crate::net::comm::pack_f64s(&[1.0]));
                return 0;
            }
            let mut cart = CartComm::new(comm, pgrid);
            let mut s =
                DistSolver::from_global_op(dec_ref, cart.coords(), g, LocalExec::Seq, Jacobi6)
                    .unwrap()
                    .with_exchange_mode(ExchangeMode::Overlapped);
            s.run_sweeps_on(&test_runtime(&LocalExec::Seq, true), &mut cart, 2);
            0
        });
    }

    #[test]
    fn byte_accounting_splits_halo_and_gather() {
        let dims = Dims3::cube(16);
        let pgrid = [2, 1, 1];
        let dec = Decomposition::new(dims, pgrid, 2);
        let global: Grid3<f64> = init::random(dims, 5);
        let g = &global;
        let bytes = Universe::run(2, None, move |comm| {
            let mut cart = CartComm::new(comm, pgrid);
            let mut s = DistSolver::from_global_op(&dec, cart.coords(), g, LocalExec::Seq, Jacobi6)
                .unwrap();
            s.run_sweeps(&mut cart, 4);
            let halo = s.halo_bytes_sent;
            let _ = s.gather_global(&mut cart, &dec, g);
            (halo, s.halo_bytes_sent, s.gather_bytes_sent)
        });
        for (halo_before, halo_after, _) in bytes.clone() {
            assert_eq!(halo_before, halo_after, "gather must not count as halo");
            assert!(halo_after > 0, "two ranks exchange every cycle");
        }
        // Only the non-root rank ships its box to rank 0.
        assert_eq!(bytes[0].2, 0);
        assert!(bytes[1].2 > 0);
        // Both ranks send one 2-layer slab per cycle (2 cycles of c=2):
        // identical halo traffic.
        assert_eq!(bytes[0].1, bytes[1].1);
    }

    #[test]
    fn run_sweeps_builds_no_comm_worker_in_either_mode() {
        // The benchmark's overlapped cell takes this path: its exchange
        // is polled inline, and a communication thread is something only
        // the caller's runtime brings.
        let dims = Dims3::cube(16);
        let dec = Decomposition::new(dims, [1, 1, 1], 2);
        let global: Grid3<f64> = init::random(dims, 8);
        let pipelined = LocalExec::Pipelined(PipelineConfig {
            team_size: 2,
            n_teams: 1,
            updates_per_thread: 1,
            block: [8, 8, 8],
            sync: SyncMode::relaxed_default(),
            scheme: GridScheme::TwoGrid,
            audit: false,
        });
        let diamond = LocalExec::Diamond(DiamondConfig::with_width(2, 4));
        for exec in [LocalExec::Seq, pipelined, diamond] {
            for mode in [ExchangeMode::Sync, ExchangeMode::Overlapped] {
                let s = DistSolver::from_global_op(&dec, [0; 3], &global, exec.clone(), Jacobi6)
                    .unwrap()
                    .with_exchange_mode(mode);
                let rt = s.exec.runtime();
                assert!(!rt.has_comm_worker(), "{exec:?} {mode:?}");
                assert_eq!(rt.worker_count(), exec.team().0, "{exec:?} {mode:?}");
            }
        }
    }

    #[test]
    fn overlapped_sends_the_same_halo_bytes_as_sync() {
        let dims = Dims3::new(18, 14, 12);
        let pgrid = [2, 2, 1];
        let dec = Decomposition::new(dims, pgrid, 2);
        let global: Grid3<f64> = init::random(dims, 6);
        let g = &global;
        let mut per_mode = Vec::new();
        for mode in [ExchangeMode::Sync, ExchangeMode::Overlapped] {
            let dec = &dec;
            let halo: Vec<u64> = Universe::run(4, None, move |comm| {
                let mut cart = CartComm::new(comm, pgrid);
                let mut s =
                    DistSolver::from_global_op(dec, cart.coords(), g, LocalExec::Seq, Jacobi6)
                        .unwrap()
                        .with_exchange_mode(mode);
                s.run_sweeps(&mut cart, 6);
                s.halo_bytes_sent
            });
            per_mode.push(halo);
        }
        assert_eq!(per_mode[0], per_mode[1], "same protocol, same traffic");
    }

    #[test]
    fn steady_cycles_send_the_buffer_received_from_that_neighbour() {
        // h = 4 and sweeps 4 + 4 + 4 + 2, one cycle per call: three full
        // cycles, then a partial one with shallower faces.
        let (h, cycles) = (4, [4, 4, 4, 2]);
        for (dims, pgrid) in [
            (Dims3::new(24, 12, 10), [2, 1, 1]),
            (Dims3::new(12, 24, 10), [1, 2, 1]),
            (Dims3::new(12, 10, 24), [1, 1, 2]),
        ] {
            let d = pgrid.iter().position(|&p| p == 2).expect("one split axis");
            let global: Grid3<f64> = init::random(dims, 12);
            let want = serial_reference_op(&Jacobi6, &global, cycles.iter().sum());
            let dec = Decomposition::new(dims, pgrid, h);
            for (mode, comm_thread) in DRIVES {
                let what = format!("{pgrid:?} {mode:?} comm_thread={comm_thread}");
                let (g, dec) = (&global, &dec);
                let outs = Universe::run(2, None, move |comm| {
                    let mut cart = CartComm::new(comm, pgrid);
                    let mut s =
                        DistSolver::from_global_op(dec, cart.coords(), g, LocalExec::Seq, Jacobi6)
                            .unwrap()
                            .with_exchange_mode(mode);
                    let rt = test_runtime(&LocalExec::Seq, comm_thread);
                    // Rank 0's neighbour is on its + side, rank 1's on its − side.
                    let (idx, dir) = if cart.comm.rank() == 0 {
                        (1, 1)
                    } else {
                        (0, -1)
                    };
                    let local = s.local.clone();
                    let mut face_bytes = 0;
                    // Per cycle: the face size and the spare slot toward
                    // the neighbour (address, length).
                    let slots: Vec<(usize, usize, usize)> = cycles
                        .iter()
                        .map(|&c| {
                            s.run_sweeps_on(&rt, &mut cart, c);
                            let (face, _) =
                                exchange_regions(&local.owned, &local.region, d, dir, c);
                            face_bytes += face.count() as u64 * 8;
                            let spares = &s.spares;
                            for (e, pair) in spares.iter().enumerate() {
                                for (i, spare) in pair.iter().enumerate() {
                                    assert_eq!(spare.is_some(), (e, i) == (d, idx), "{e} {i}");
                                }
                            }
                            let spare = spares[d][idx].as_ref().expect("a received payload");
                            (face.count() * 8, spare.as_ptr() as usize, spare.len())
                        })
                        .collect();
                    assert_eq!(s.halo_bytes_sent, face_bytes, "halo bytes");
                    (slots, s.gather_global(&mut cart, dec, g))
                });
                let got = outs
                    .iter()
                    .find_map(|o| o.1.as_ref())
                    .expect("rank 0 gathers");
                norm::assert_grids_identical(&want, got, &Region3::interior_of(dims), &what);
                let (a, b) = (&outs[0].0, &outs[1].0);
                for k in 0..cycles.len() {
                    for (rank, slots) in [a, b].into_iter().enumerate() {
                        assert_eq!(slots[k].2, slots[k].0, "{what} rank {rank} cycle {k} size");
                    }
                }
                // From the second cycle on each rank sends what it
                // received from its neighbour in the cycle before.
                for k in 1..3 {
                    assert_eq!(b[k].1, a[k - 1].1, "{what}: cycle {k}, rank 0 -> 1");
                    assert_eq!(a[k].1, b[k - 1].1, "{what}: cycle {k}, rank 1 -> 0");
                }
                // The partial cycle's faces are smaller: each rank had to
                // pack into a fresh buffer of the new size.
                assert!(a[3].0 < a[2].0 && b[3].0 < b[2].0, "{what}: partial faces");
            }
        }
    }

    #[test]
    fn pipeline_deeper_than_halo_rejected() {
        let dims = Dims3::cube(24);
        let dec = Decomposition::new(dims, [2, 1, 1], 1);
        let global: Grid3<f64> = init::random(dims, 1);
        let cfg = PipelineConfig {
            team_size: 2,
            n_teams: 1,
            updates_per_thread: 1,
            block: [8, 8, 8],
            sync: SyncMode::relaxed_default(),
            scheme: GridScheme::TwoGrid,
            audit: false,
        };
        let g = &global;
        Universe::run(2, None, move |comm| {
            let cart = CartComm::new(comm, [2, 1, 1]);
            let err = match DistSolver::from_global_op(
                &dec,
                cart.coords(),
                g,
                LocalExec::Pipelined(cfg.clone()),
                Jacobi6,
            ) {
                Err(e) => e,
                Ok(_) => panic!("pipeline deeper than halo must be rejected"),
            };
            assert!(err.contains("exceeds halo width"), "{err}");
        });
    }

    #[test]
    #[should_panic(expected = "communicator [1, 2, 1] at [0, 1, 0] does not match \
                               the decomposition's process grid [2, 1, 1] at [1, 0, 0]")]
    fn communicator_mismatching_the_decomposition_rejected() {
        // A [2, 1, 1] split run on a [1, 2, 1] communicator: both ranks
        // refuse before sending anything, in the sweeps and in the
        // gather, and rank 1's refusal is re-raised here. A watchdog
        // fails the test should a rank wait on a neighbour instead.
        let refusals = crate::net::comm::within_ten_seconds(|| {
            let dims = Dims3::cube(12);
            let dec = Decomposition::new(dims, [2, 1, 1], 2);
            let global: Grid3<f64> = init::random(dims, 4);
            let (g, dec) = (&global, &dec);
            Universe::run(2, None, move |comm| {
                let mut cart = CartComm::new(comm, [1, 2, 1]);
                let coords = dec.coords_of(cart.comm.rank());
                let mut s =
                    DistSolver::from_global_op(dec, coords, g, LocalExec::Seq, Jacobi6).unwrap();
                let refusal = |f: &mut dyn FnMut()| {
                    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
                        .expect_err("a mismatched communicator must be refused");
                    payload
                        .downcast_ref::<String>()
                        .cloned()
                        .unwrap_or_default()
                };
                let run = refusal(&mut || {
                    s.run_sweeps(&mut cart, 2);
                });
                let gather = refusal(&mut || {
                    s.gather_global(&mut cart, dec, g);
                });
                assert!(run == gather, "the sweeps and the gather refuse alike");
                run
            })
        });
        panic!("{}", refusals[1]);
    }

    #[test]
    fn mismatched_global_grid_rejected() {
        let dec = Decomposition::new(Dims3::cube(12), [1, 1, 1], 1);
        let wrong: Grid3<f64> = Grid3::zeroed(Dims3::cube(10));
        assert!(
            DistSolver::from_global_op(&dec, [0, 0, 0], &wrong, LocalExec::Seq, Jacobi6).is_err()
        );
    }
}
