//! Experiment harness reproducing every table and figure of
//! *"Providing Reliable FIB Update Acknowledgments in SDN"* (CoNEXT 2014).
//!
//! Each experiment in the paper maps to one runner function here and one
//! binary under `src/bin/`, its only entry point; the headline claims are
//! asserted at reduced scale by the `experiments` unit tests.
//!
//! | Paper artefact | Runner | Binary |
//! |---|---|---|
//! | Figure 1b (broken time CDF)        | [`experiments::run_end_to_end`]        | `fig1_broken_time` |
//! | Figure 6 (control-plane techniques)| [`experiments::run_end_to_end`]        | `fig6_controlplane` |
//! | Figure 7 (probing techniques)      | [`experiments::run_end_to_end`]        | `fig7_probing` |
//! | Figure 8 (activation delay)        | [`experiments::run_activation_delay`]  | `fig8_activation_delay` |
//! | Table 1 (usable update rate)       | [`experiments::run_update_rate`]       | `table1_update_rate` |
//! | §5.1 barrier-layer overhead        | [`experiments::run_barrier_layer`]     | `barrier_layer_overhead` |
//! | §5.2 PacketIn/PacketOut rates      | [`experiments::run_pktio_rates`]       | `pktio_rates` |
//!
//! The reliability harnesses ([`scenario_matrix`], [`scale`],
//! [`session_soak`]) judge every confirmation with the one ground-truth
//! judge, `ofswitch::Verdict`; `bench_results` writes their rows and the
//! throughput rows to `BENCH_results.json` ([`report::results_json`]), and
//! `validate_results` gates that file.  The Criterion benches under
//! `benches/` (`microbench`, `throughput`, `telemetry_overhead`) time the
//! hot paths; none of them re-runs a figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod observer;
pub mod report;
pub mod scale;
pub mod scenario_matrix;
pub mod session_soak;
pub mod throughput;
pub mod wire;

pub use experiments::{
    ActivationSample, EndToEndResult, EndToEndTechnique, PktIoResult, UpdateRateResult,
};
pub use report::{ExperimentRecord, SessionSoakRecord, ThroughputRecord};
pub use scenario_matrix::{MatrixCell, MatrixTechnique};
pub use session_soak::{SoakConfig, SoakOutcome};
pub use wire::WireConfig;
