//! # tb-grid — 3D grid substrate for temporal-blocking stencil codes
//!
//! This crate provides the data-structure foundation used by every other
//! crate in the workspace:
//!
//! * [`AlignedVec`] — cache-line/SIMD aligned heap storage,
//! * [`Grid3`] — a dense 3D array with x-fastest (unit-stride) layout,
//! * [`GridPair`] — the classic A/B double-buffer used by Jacobi sweeps,
//! * [`CompressedGrid`] — the single-array "compressed grid" optimization
//!   of the paper (§1.3), where every sweep writes its results shifted by
//!   ±(1,1,1) so only one grid allocation is needed,
//! * [`Region3`] / [`BlockPartition`] — the region algebra and spatial block
//!   decomposition on which the pipelined temporal blocking plan is built,
//! * [`SharedGrid`] — an unsafe shared-mutation view with documented
//!   invariants, used by the multi-threaded executors,
//! * [`RegionAuditor`] — a debug-mode race detector that checks that
//!   concurrently claimed read/write regions are disjoint,
//! * deterministic initializers and norms for verification.
//!
//! The Jacobi solvers in `tb-stencil` are deterministic: the 6-point average
//! is always evaluated in the same operand order, so any correct schedule
//! must produce *bitwise identical* grids. The comparison helpers in
//! [`norm`] exploit that.

pub mod aligned;
pub mod audit;
pub mod blocks;
pub mod compressed;
pub mod dims;
pub mod grid3;
pub mod init;
pub mod norm;
pub mod pair;
pub mod real;
pub mod region;
pub mod shared;

pub use aligned::AlignedVec;
pub use audit::{AccessKind, RegionAuditor};
pub use blocks::{BlockIdx, BlockPartition};
pub use compressed::CompressedGrid;
pub use dims::Dims3;
pub use grid3::Grid3;
pub use pair::GridPair;
pub use real::Real;
pub use region::Region3;
pub use shared::SharedGrid;
