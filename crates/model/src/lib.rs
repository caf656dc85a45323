//! # tb-model — the paper's analytic performance models
//!
//! Pure functions, no I/O, reproducing every quantitative model in the
//! paper:
//!
//! * [`machine`] — bandwidth/latency parameter sets ([`MachineParams`]),
//!   with the Nehalem EP preset used throughout the paper;
//! * [`roofline`] — the memory-bound baseline estimate `P0 = M_s / B_c`
//!   (Eq. 2), with the code balance `B_c` taken from the stencil
//!   operator ([`tb_stencil::StencilOp::bytes_per_lup`]);
//! * [`pipeline`] — the single-cache diagnostic model of §1.4 (Eqs. 4–5)
//!   predicting the speedup of pipelined temporal blocking;
//! * [`diamond`] — the same cost structure transplanted to
//!   wavefront-diamond tiles: working set one few-row front window per
//!   time level of a tile (independent of `ny`), reuse `w/(2R)` sweeps
//!   per memory traversal, and the MWD variant where sub-teams share
//!   tiles (fewer concurrent working sets);
//!
//! All models price *memory traffic*, so the vector width the row loops
//! are compiled for never appears: vectorization raises the in-cache
//! compute ceiling but moves no extra bytes, leaving `B_c` and every
//! working-set bound unchanged (see [`diamond::concurrent_tiles`] for
//! the one place thread counts — not vector widths — enter the cache
//! model);
//! * [`network`] — the latency/bandwidth message time model;
//! * [`halo`] — the multi-layer halo advantage model behind Fig. 5;
//! * [`scaling`] — strong/weak scaling predictions and ideal lines for
//!   Fig. 6;
//! * [`calibrate`] — the one part that is not a pure function: STREAM
//!   COPY-class measurements of the host (§1.1, §1.4) that fill a
//!   [`MachineParams`] on a runtime's workers.
//!
//! ## Predictions as a search pruner
//!
//! Beyond reproducing the paper's figures, these models drive the
//! `tb-plan` autotuner: every candidate configuration is *scored*
//! analytically before anything runs — Eq. 2 sets the baseline, Eq. 5 /
//! [`diamond_speedup`] / [`pipeline::wavefront_speedup`] the temporal
//! gain, and the working-set bounds ([`diamond_working_set_bytes`],
//! [`max_cached_width`], [`wavefront_working_set_bytes`], the
//! `(t·T)·d_u` blocks the pipeline keeps resident) demote any candidate
//! whose tiles cannot stay cached to baseline speed. Only the
//! top-scoring few are ever measured, so the models discard most of the
//! candidate space for free; the measured rows in a `TuneReport` record
//! predicted vs. achieved MLUP/s so model error stays visible instead of
//! silently steering the search.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod calibrate;
pub mod diamond;
pub mod halo;
pub mod machine;
pub mod network;
pub mod pipeline;
pub mod roofline;
pub mod scaling;

pub use diamond::{
    concurrent_tiles, diamond_block_time_op, diamond_reuse, diamond_speedup,
    diamond_working_set_bytes, max_cached_width, max_cached_width_mwd,
};
pub use halo::{halo_advantage, halo_cycle_time, HaloWorkload};
pub use machine::MachineParams;
pub use network::NetworkParams;
pub use pipeline::{
    pipeline_speedup, team_block_time_op, wavefront_speedup, wavefront_working_set_bytes,
};
pub use roofline::{op_roofline_lups, roofline_lups, service_floor_seconds};
pub use scaling::{ScalingConfig, ScalingMode, ScalingPoint};
