//! # tb-plan — strategy IR, model-pruned autotuning, persistent winners
//!
//! The paper tunes its temporal-blocking parameters by hand (§2: "the
//! block size was chosen such that…"); Patus-style autotuners make the
//! same choice mechanically by treating the *execution strategy* as
//! data. This crate supplies that layer:
//!
//! * [`ir`] — the strategy IR: [`Method`] says how a solve runs
//!   (sequential / blocked / baseline / pipelined on two grids or a
//!   compressed one, the wavefront being one pipelined shape / diamond)
//!   with every parameter its executor takes (`t`, `n`, `T`, block
//!   edges, `d_u` sync mode, grid scheme, diamond width, MWD sub-team).
//!   A `Method` is the plan: it serializes to the cache, the tuner
//!   enumerates it, the facade replays it, and
//!   [`Method::validate_for`] is the one check every solve passes;
//! * [`key`] — cache identity: [`MachineFingerprint`] (exact topology
//!   signature + calibrated bandwidths quantized into ±12.5% bands)
//!   plus [`PlanKey`] (operator, dims, sweep class, element type);
//! * [`tuner`] — model-pruned search: enumerate a candidate space
//!   ([`default_search`] is the default one, incumbents included),
//!   score every candidate with the `tb-model` predictions, measure
//!   only the top-K plus the incumbent, report predicted-vs-measured
//!   MLUP/s in a ranked [`TuneReport`];
//! * [`cache`] — the persistent JSON store ([`PlanCache`]) of winners
//!   and calibrations: a warm hit replays a plan with *zero*
//!   measurements (membench included), and every cached plan
//!   re-validates against the requesting problem before use;
//! * [`json`] — the minimal JSON tree backing persistence (the
//!   workspace has no external dependencies).
//!
//! The facade crate ties this to execution: see
//! `temporal_blocking::solve_tuned_with_on`.

#![forbid(unsafe_code)]

pub mod cache;
pub mod ir;
pub mod json;
pub mod key;
pub mod tuner;

pub use cache::{CacheEntry, PlanCache, SharedPlanCache, SCHEMA_VERSION};
pub use ir::{Method, MethodFamily};
pub use json::Json;
pub use key::{bandwidth_band, element_name, sweeps_class, MachineFingerprint, PlanKey};
pub use tuner::{
    default_plan, default_search, enumerate_family, predicted_mlups, tune, TuneConfig, TuneReport,
    TuneRow,
};
