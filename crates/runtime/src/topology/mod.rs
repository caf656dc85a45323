//! # `topology` — machine topology, cache groups, team layout, affinity
//!
//! Pipelined temporal blocking is *multicore-aware*: thread teams must run
//! on cores that share a cache ("cache groups", paper §1.3). This module
//! models the hardware:
//!
//! * [`Machine`] — sockets, cores, cache levels and sharing,
//! * [`detect`] — best-effort Linux sysfs detection with a portable
//!   fallback,
//! * a synthetic preset of the paper's testbed ([`Machine::nehalem_ep`])
//!   used by the models and the cluster simulator,
//! * [`TeamLayout`] — mapping pipeline threads onto cache groups,
//! * [`affinity`] — best-effort thread pinning via a raw
//!   `sched_setaffinity` syscall on Linux (no-op elsewhere).

pub mod affinity;
pub mod detect;
pub mod machine;
pub mod team;

pub use machine::{CacheLevel, CacheScope, Machine, NumaDomain, Socket};
pub use team::TeamLayout;
