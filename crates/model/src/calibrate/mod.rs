//! # `calibrate` — STREAM-style memory benchmarks and calibration
//!
//! The paper's models are parameterized by three bandwidths measured with
//! STREAM COPY-class kernels (§1.1, §1.4): the saturated socket bandwidth
//! `M_s`, the single-thread bandwidth `M_{s,1}`, and the shared-cache
//! bandwidth `M_c`. This module reimplements those measurements:
//!
//! * `kernels` — COPY/SCALE/ADD/TRIAD loops,
//! * [`runner`] — timed single-/multi-threaded bandwidth measurements on
//!   a runtime's workers,
//! * [`calibrate_host`] — turn host measurements into a
//!   [`crate::MachineParams`] for the analytic models.

mod host;
mod kernels;
pub mod runner;

pub use host::{calibrate_host, calibrate_host_on, CalibrationProfile};
pub use runner::{measure_bandwidth_on, BandwidthSample, StreamKind};
