//! The busarb benchmark: three workloads timed end to end, and a traced
//! mode that adds spans and a per-layer cost ledger. See `README.md`.

pub mod checks;
pub mod ledger;
pub mod run;
pub mod setup;
pub mod spans;
pub mod util;
pub mod workloads;

/// The frozen calibration kernel of `bench_run`, copied at build time.
pub mod calibration {
    use std::time::Instant;

    include!(concat!(env!("OUT_DIR"), "/calibration.rs"));

    /// Ops/s of the calibration kernel on this machine (best window).
    #[must_use]
    pub fn ops_per_sec() -> f64 {
        calibrate()
    }
}
