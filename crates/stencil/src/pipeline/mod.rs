//! Pipelined temporal blocking (the paper's §1.3).
//!
//! * [`plan`] — block schedule geometry and its safety proof,
//! * [`exec`] — two-grid executor (barrier and relaxed sync),
//! * [`compressed`] — single-grid "compressed" executor with alternating
//!   ±(1,1,1) shifts and reversed sweeps.

pub mod compressed;
pub mod exec;
pub mod plan;
mod schedule;

pub use compressed::run_compressed_op_on;
pub use exec::{run_op_on, run_team_sweep_op_on};
pub use plan::PipelinePlan;
