//! Runs the end-to-end experiment for every acknowledgment technique across
//! several seeds, the throughput microbenchmarks (bulk flow-mod install
//! indexed vs. linear-scan baseline, telemetry-instrumented install for the
//! metric-overhead row, codec encode/decode, engine/session drains), and
//! the technique × fault scenario matrix on both drivers, and writes
//! machine-readable aggregates to `BENCH_results.json` (schema 8 — see
//! `rum_bench::report::results_json`), so the performance and reliability
//! trajectory is tracked across PRs instead of only being pretty-printed.
//!
//! Usage: `bench_results [n_flows] [output_path] [install_n] [matrix_rules]
//! [soak_sessions] [scale_switches]` (defaults: 40 flows,
//! `BENCH_results.json` in the current directory, a 100 000-entry bulk
//! install, a 10-rule scenario matrix, a 200-tenant session soak on both
//! drivers, and a 1,000-switch scale layer; pass `matrix_rules = 0` to
//! skip the matrix, `soak_sessions = 0` to skip the soaks,
//! `scale_switches = 0` to skip the scale layer).  CI's smoke job passes
//! small values so the quadratic linear-scan baseline, the wall-clock TCP
//! matrix and the soak stay fast there; the committed `BENCH_results.json`
//! is produced with the defaults.
//!
//! The scale layer (schema 8) runs the sharded proxy against a
//! `scale_switches`-switch early-reply ring on both drivers (zero
//! false-ack matrix rows at fleet size), measures end-to-end wire
//! throughput against the legacy thread-per-connection proxy (the
//! `wire_e2e/*` row whose `speedup` is the sharding win), and re-runs the
//! multi-tenant TCP soak with its tenants spread across the whole fleet.

use ofswitch::SwitchModel;
use rum_bench::experiments::{run_end_to_end, EndToEndTechnique};
use rum_bench::report::{write_results, ExperimentRecord, MatrixRecord, ThroughputRecord};
use rum_bench::scale::{run_simnet_scale_cell, run_tcp_scale_cell, run_tcp_scale_soak};
use rum_bench::scenario_matrix::{render_grid, run_simnet_matrix, run_tcp_matrix};
use rum_bench::session_soak::{early_reply_fault, run_simnet_soak, run_tcp_soak, SoakConfig};
use rum_bench::throughput;
use rum_bench::wire::{run_wire_throughput, WireConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const SEEDS: [u64; 5] = [11, 22, 33, 44, 55];

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Medians are over this many repetitions of each throughput workload
/// (except the linear-scan baseline, whose quadratic cost makes one run
/// representative enough).
const THROUGHPUT_RUNS: usize = 3;

/// The bulk-install workloads get extra repetitions: the telemetry-overhead
/// row compares two nearly identical measurements, so its noise floor has
/// to be well under the 3% acceptance bar — and single-core boxes swing
/// individual runs by several percent, so the best-of comparison needs a
/// deep pool to draw from.
const INSTALL_RUNS: usize = 9;

fn throughput_records(install_n: usize) -> Vec<ThroughputRecord> {
    let mut records = Vec::new();

    // Bulk flow-mod install: indexed table vs. the linear-scan oracle on the
    // identical workload.  This is the acceptance measurement for the
    // indexed-table redesign (target: >= 10x at 100k entries).  The
    // instrumented variant is interleaved with the plain one (after warming
    // both) so clock/cache drift hits both sides of the overhead comparison
    // equally instead of masquerading as instrumentation cost.
    let mods = throughput::bulk_flow_mods(install_n);
    throughput::install_indexed(&mods);
    throughput::install_indexed_instrumented(&mods, &telemetry::Registry::new());
    let mut indexed = Vec::new();
    let mut instrumented = Vec::new();
    for _ in 0..INSTALL_RUNS {
        indexed.push(ms(throughput::install_indexed(&mods)));
        instrumented.push(ms(throughput::install_indexed_instrumented(
            &mods,
            &telemetry::Registry::new(),
        )));
    }
    let linear = ms(throughput::install_linear(&mods));
    let baseline_ops_per_sec = install_n as f64 / (linear / 1e3);
    records.push(
        ThroughputRecord::from_runs(
            format!("flow_mod_install/indexed_{install_n}"),
            install_n as u64,
            &indexed,
        )
        .with_baseline(baseline_ops_per_sec),
    );
    records.push(ThroughputRecord::from_runs(
        format!("flow_mod_install/linear_{install_n}"),
        install_n as u64,
        &[linear],
    ));

    // Telemetry overhead: the identical indexed install with the hot-path
    // metric operations active (sharded counter, per-thread recorder, one
    // gauge publish), measured above.  The overhead is computed from the
    // best run of each variant so scheduler noise does not masquerade as a
    // regression; the acceptance bar is < 3% (checked by
    // `validate_results`).
    let best = |runs: &[f64]| runs.iter().copied().fold(f64::INFINITY, f64::min);
    let overhead_pct = (best(&instrumented) - best(&indexed)) / best(&indexed) * 100.0;
    records.push(
        ThroughputRecord::from_runs(
            format!("telemetry_overhead/indexed_{install_n}"),
            install_n as u64,
            &instrumented,
        )
        .with_overhead(overhead_pct),
    );

    // Codec throughput over a proxy-shaped message mix.
    let n_msgs = 4096.min(install_n.max(64));
    let msgs = throughput::codec_messages(n_msgs);
    let mut wire = Vec::new();
    let encode: Vec<f64> = (0..THROUGHPUT_RUNS)
        .map(|_| ms(throughput::encode_throughput(&msgs, &mut wire)))
        .collect();
    records.push(ThroughputRecord::from_runs(
        format!("codec/encode_{n_msgs}"),
        n_msgs as u64,
        &encode,
    ));
    let decode: Vec<f64> = (0..THROUGHPUT_RUNS)
        .map(|_| ms(throughput::decode_throughput(&wire, n_msgs)))
        .collect();
    records.push(ThroughputRecord::from_runs(
        format!("codec/decode_{n_msgs}"),
        n_msgs as u64,
        &decode,
    ));

    // Sans-IO engine and session drains through the reused-buffer entry
    // points.
    let n_inputs = 8192.min(install_n.max(64));
    let engine: Vec<f64> = (0..THROUGHPUT_RUNS)
        .map(|_| ms(throughput::engine_drain_throughput(n_inputs)))
        .collect();
    records.push(ThroughputRecord::from_runs(
        format!("engine/drain_{n_inputs}"),
        n_inputs as u64,
        &engine,
    ));
    let session: Vec<f64> = (0..THROUGHPUT_RUNS)
        .map(|_| ms(throughput::session_drain_throughput(n_inputs)))
        .collect();
    records.push(ThroughputRecord::from_runs(
        format!("session/drain_{n_inputs}"),
        n_inputs as u64,
        &session,
    ));

    records
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n_flows: u32 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(40);
    let path: PathBuf = args
        .get(2)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_results.json"));
    let install_n: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(100_000);
    let matrix_rules: usize = args.get(4).and_then(|s| s.parse().ok()).unwrap_or(10);
    let soak_sessions: usize = args.get(5).and_then(|s| s.parse().ok()).unwrap_or(200);
    let scale_switches: usize = args.get(6).and_then(|s| s.parse().ok()).unwrap_or(1_000);

    let mut records = Vec::new();
    for technique in EndToEndTechnique::all() {
        let mut times = Vec::new();
        let mut confirms = u64::MAX;
        for seed in SEEDS {
            let r = run_end_to_end(technique, n_flows, 250, seed);
            times.push(r.controller_completion_ms.unwrap_or(f64::NAN));
            // Worst case across seeds, so a partially-completed run is not
            // masked by the others.
            confirms = confirms.min(r.confirmed_mods as u64);
        }
        let name = format!("end_to_end/{}", technique.label());
        let record = ExperimentRecord::from_runs(&name, &times, confirms);
        println!(
            "{name:<40} median {:>10.1} ms  p95 {:>8.1} ms  confirms {confirms}",
            record.median_completion_ms, record.p95_completion_ms
        );
        records.push(record);
    }

    let mut throughput = throughput_records(install_n);
    if scale_switches > 0 {
        // End-to-end wire throughput: sharded event-loop proxy vs the
        // legacy thread-per-connection proxy on the identical blast.
        let wire_cfg = if scale_switches >= 256 {
            WireConfig::full()
        } else {
            WireConfig::smoke()
        };
        throughput.push(run_wire_throughput(&wire_cfg));
    }
    for r in &throughput {
        let annotation = match (r.speedup(), r.overhead_pct) {
            (Some(speedup), _) if r.experiment.starts_with("wire_e2e/") => {
                format!("  ({speedup:.1}x legacy proxy)")
            }
            (Some(speedup), _) => format!("  ({speedup:.0}x linear baseline)"),
            (None, Some(overhead)) => format!("  ({overhead:+.2}% vs uninstrumented)"),
            (None, None) => String::new(),
        };
        println!(
            "{:<40} median {:>10.1} ms  {:>12.0} ops/s{annotation}",
            r.experiment, r.median_elapsed_ms, r.ops_per_sec
        );
    }

    let mut matrix = Vec::new();
    if matrix_rules > 0 {
        let mut cells = run_simnet_matrix(matrix_rules, 42);
        cells.extend(run_tcp_matrix(matrix_rules, 42));
        println!("\n{}", render_grid(&cells));
        matrix = cells.iter().map(MatrixRecord::from).collect();
    }
    if scale_switches > 0 {
        // The fleet-scale rows: the sharded proxy against a
        // `scale_switches`-switch early-reply ring on both drivers.
        let registry = telemetry::Registry::new();
        let cells = [
            run_simnet_scale_cell(scale_switches, 2, 42, &registry).cell,
            run_tcp_scale_cell(scale_switches, 2, 42, &registry).cell,
        ];
        for cell in &cells {
            println!(
                "scale/{}/{:<12} switches {:>5}  planned {:>5}  false {} missed {}  completion {}",
                cell.driver,
                cell.technique,
                cell.switches,
                cell.planned,
                cell.false_acks,
                cell.missed_acks,
                cell.completion_ms
                    .map(|ms| format!("{ms:.0} ms"))
                    .unwrap_or_else(|| "stalled".into()),
            );
            matrix.push(MatrixRecord::from(cell));
        }
    }

    let mut soak = Vec::new();
    if soak_sessions > 0 {
        let cfg = SoakConfig {
            sessions: soak_sessions,
            ..SoakConfig::default()
        };
        let registry = Arc::new(telemetry::Registry::new());
        for outcome in [
            run_simnet_soak(
                &cfg,
                &early_reply_fault(&SwitchModel::hp5406zl(), cfg.seed),
                &registry,
            ),
            run_tcp_soak(
                &cfg,
                &early_reply_fault(&SwitchModel::fast_buggy(), cfg.seed),
                &registry,
            ),
        ] {
            let r = outcome.record;
            println!(
                "session_soak/{}/{:<14} sessions {:>4} done {:>4}  false {} missed {} stray {}  p50 {:>8.1} ms  p99 {:>8.1} ms  p99.9 {:>8.1} ms",
                r.driver, r.fault, r.sessions, r.completed, r.false_acks, r.missed_acks,
                r.stray_acks, r.p50_confirm_ms, r.p99_confirm_ms, r.p999_confirm_ms
            );
            soak.push(r);
        }
        if scale_switches > 0 {
            // The same tenant population spread across the whole sharded
            // fleet: the schema-8 scale soak row.
            let scale_cfg = SoakConfig {
                sessions: soak_sessions,
                budget: Duration::from_secs(45)
                    + Duration::from_millis(100) * scale_switches as u32,
                ..SoakConfig::default()
            };
            let r = run_tcp_scale_soak(&scale_cfg, scale_switches, &registry).record;
            println!(
                "session_soak/{}/{:<14} switches {:>5} sessions {:>4} done {:>4}  false {} missed {} stray {}  p50 {:>8.1} ms  p99 {:>8.1} ms  p99.9 {:>8.1} ms",
                r.driver, r.fault, r.switches, r.sessions, r.completed, r.false_acks,
                r.missed_acks, r.stray_acks, r.p50_confirm_ms, r.p99_confirm_ms, r.p999_confirm_ms
            );
            soak.push(r);
        }
    }

    write_results(&path, &records, &throughput, &matrix, &soak).expect("write BENCH_results.json");
    println!(
        "\nwrote {} latency + {} throughput + {} matrix + {} soak records to {}",
        records.len(),
        throughput.len(),
        matrix.len(),
        soak.len(),
        path.display()
    );
}
