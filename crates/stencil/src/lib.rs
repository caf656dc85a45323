//! # tb-stencil — pipelined temporal blocking of stencil codes
//!
//! This crate is the paper's primary contribution, generalized over a
//! stencil-operator layer. It contains:
//!
//! * [`op`] — the [`StencilOp`] trait (row-update primitive, radius,
//!   flops/LUP and bytes/LUP code balance) and the shipped operators:
//!   classic 6-point Jacobi ([`Jacobi6`], Eq. 1), 7-point with center
//!   weight ([`Jacobi7`], explicit-Euler heat), variable-coefficient
//!   7-point ([`VarCoeff7`]) and the dense 27-point average ([`Avg27`]);
//! * [`kernel`] — region-update drivers for every storage scheme: the
//!   safe two-grid one, and the crate-private unsafe
//!   [`tb_grid::SharedGrid`] and compressed diagonally-shifted ones that
//!   only this crate's executors call, plus the x86-64
//!   non-temporal-store Jacobi row. Each driver runs the operator's
//!   one row loop either as compiled for the build target or,
//!   on a host with AVX, through a `#[target_feature(enable = "avx")]`
//!   copy of the whole region loop — bitwise identical, no second
//!   kernel source;
//! * [`baseline`] — the "standard" solvers (§1.1): the unblocked
//!   sequential oracle, user-blocked sequential, and thread-parallel
//!   sweeps y-blocked to the layer condition, with optional streaming
//!   stores;
//! * [`pipeline`] — **pipelined temporal blocking** (§1.3): the block
//!   schedule ([`pipeline::plan`]), the global-barrier executor, the
//!   relaxed-synchronization executor (Eq. 3), and the compressed-grid
//!   executor;
//! * [`wavefront`] — the wavefront method of Wellein et al. (ref. 2),
//!   kept as a comparator: the relaxed pipeline over whole-plane blocks
//!   with one update per thread ([`PipelineConfig::wavefront`]), with no
//!   schedule of its own;
//! * [`diamond`] — **wavefront-diamond temporal blocking** (Malas,
//!   Hager et al. 2015): diamond tiles along z × time executed row by
//!   row, removing the pipelined scheme's wind-up/wind-down waste and
//!   its block/delay tuning knobs;
//! * [`stats`] — LUP/s and FLOP/s accounting shared by examples and
//!   benches.
//!
//! # Execution
//!
//! One door per executor and kernel: **the operator is always an
//! argument, and a parallel executor always takes the
//! [`tb_runtime::Runtime`]** whose persistent, core-pinned workers it
//! runs on — [`baseline::seq_sweeps_op`],
//! [`baseline::seq_blocked_sweeps_op`], [`baseline::par_sweeps_op_on`],
//! [`pipeline::run_op_on`], [`pipeline::run_compressed_op_on`],
//! [`pipeline::run_team_sweep_op_on`] and
//! [`diamond::run_diamond_schedule_on`] (one team sweep or diamond
//! schedule over caller-given per-sweep domains),
//! [`wavefront::run_wavefront_op_on`], [`diamond::run_diamond_op_on`],
//! [`diamond::run_diamond_schedule`] (one thread, per-sweep domains),
//! [`kernel::update_region_op`]. Every one of them is safe: an executor
//! takes `&mut GridPair`, checks its domains (and, for the pipeline,
//! the plan's constructibility) before it dispatches, and keeps its
//! race-freedom argument and its `unsafe` code private. There are no
//! Jacobi-only or one-shot forms: pass `&Jacobi6` for the paper's Eq. 1,
//! and write `Runtime::with_threads(n)` (or `Runtime::new(&layout)` for
//! a pinned team) on the line above for a one-shot team. Share one runtime
//! across repeated solves to pay the spawn/pin cost once.
//!
//! # Determinism
//!
//! Every operator evaluates its update in one fixed operand order (e.g.
//! `(west + east + south + north + bottom + top) * (1/6)` for
//! [`Jacobi6`]). Consequently all solvers in this crate — sequential,
//! blocked, parallel, pipelined in any configuration, wavefront,
//! compressed — produce **bitwise identical** results after the same
//! number of sweeps of the same operator, and the test-suite holds them
//! to that.

pub mod baseline;
pub mod config;
pub mod diamond;
pub mod kernel;
pub mod op;
pub mod pipeline;
pub mod stats;
pub mod wavefront;

pub use config::PipelineConfig;
pub use diamond::DiamondConfig;
pub use op::{Avg27, Jacobi6, Jacobi7, RowRun, ScalarPath, StencilOp, VarCoeff7};
pub use stats::RunStats;
pub use tb_runtime::sync::SyncMode;
