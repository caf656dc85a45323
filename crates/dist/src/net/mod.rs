//! In-process message passing, optionally paced in wall time.
//!
//! The paper's distributed experiments use plain blocking MPI point-to-
//! point halo exchanges ("no explicit or implicit overlapping of
//! communication and computation", §2.2). This module provides the same
//! semantics without an MPI installation:
//!
//! * [`Universe`] — spawns `n` ranks as threads and wires a full mesh of
//!   lossless FIFO channels,
//! * [`Comm`] — buffered sends, blocking receives with tag matching, a
//!   nonblocking "is it in?" probe and a barrier — the subset of MPI the
//!   solver needs,
//! * [`CartComm`] — 3D Cartesian rank topology (our `MPI_Cart_create`),
//! * an optional **paced wire**, priced by [`tb_model::NetworkParams`]
//!   (the same latency/bandwidth struct the analytic model uses): a
//!   message is delivered `latency + bytes / bandwidth` after its send,
//!   in wall time, so an exchange costs what the preset says and the
//!   overlapped schedule has something to hide. Unpaced, the wire is an
//!   `Arc` handoff.
//!
//! Real data always flows, paced or not, so protocol bugs (mismatched
//! tags, wrong neighbors, deadlocks) surface in tests exactly as they
//! would on a real cluster.

mod cart;
pub mod comm;
mod universe;

pub(crate) use cart::coords_of;
pub use cart::CartComm;
pub use comm::Comm;
pub use universe::Universe;

/// A message payload: an immutable, reference-counted byte buffer.
/// Cloning is O(1); sending moves the handle, never the bytes.
pub type Bytes = std::sync::Arc<[u8]>;
