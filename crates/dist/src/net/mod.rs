//! In-process message passing with virtual-time simulation.
//!
//! The paper's distributed experiments use plain blocking MPI point-to-
//! point halo exchanges ("no explicit or implicit overlapping of
//! communication and computation", §2.2). This module provides the same
//! semantics without an MPI installation:
//!
//! * [`Universe`] — spawns `n` ranks as threads and wires a full mesh of
//!   lossless FIFO channels,
//! * [`Comm`] — blocking send/recv with tag matching and a barrier —
//!   the subset of MPI the solver needs — plus nonblocking sends and
//!   receives, whose buffer copies run on a modeled dedicated comm-core
//!   timeline so that the solver can report how much communication the
//!   computation hid,
//! * [`CartComm`] — 3D Cartesian rank topology (our `MPI_Cart_create`),
//! * an optional **virtual clock** per rank, priced by
//!   [`tb_model::NetworkParams`] (the same latency/bandwidth/copy-cost
//!   struct the analytic model uses): sends stamp messages with their
//!   pack and wire time, and receives advance the local clock to the
//!   message arrival time plus the unpack. This is a conservative
//!   discrete-event simulation adequate for bulk-synchronous codes, and
//!   is what lets a 2-core host reproduce the shape of the paper's
//!   64-node Fig. 6.
//!
//! Real data always flows — simulation only affects *clocks* — so
//! protocol bugs (mismatched tags, wrong neighbors, deadlocks) surface in
//! tests exactly as they would on a real cluster.

mod cart;
pub mod comm;
mod universe;

pub(crate) use cart::coords_of;
pub use cart::CartComm;
pub use comm::Comm;
pub(crate) use comm::Request;
pub use universe::Universe;

/// A message payload: an immutable, reference-counted byte buffer.
/// Cloning is O(1); sending moves the handle, never the bytes.
pub type Bytes = std::sync::Arc<[u8]>;
