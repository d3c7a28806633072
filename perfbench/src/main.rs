//! The repository benchmark.  Three workloads run against the sharded TCP
//! proxy (`rum_tcp::RumTcpProxy` with one engine shard per switch) with two
//! switches behind it:
//!
//! * `blast` — closed-loop flow-mod stream on the pass-through path;
//! * `probe` — one consistent update of 2 × 1,000 rules under general
//!   probing against early-reply switches;
//! * `tenants` — open-loop arrivals of 2-mod sessions through the mux.
//!
//! ```text
//! perfbench --workload <blast|probe|tenants> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it measures the per-layer metrics instead (traced and
//! untraced iterations alternate, then one captured iteration is replayed
//! through the layers) and writes its spans under `.bench_out/`.  Every
//! run checks its outputs and prints one JSON object as its last line.

mod blast;
mod capture;
mod common;
mod layers;
mod probe;
mod replay;
mod ring;
mod tenants;

use crate::common::{
    median, peak_rss_mb, quantile, reset_peak_rss, set_thread_name, Trace, COMM_CONTROLLER,
    COMM_MAIN, COMM_SWITCH,
};
use crate::layers::{LayerSample, LiveLayers};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Set-up-only rounds (set-up, then teardown) that open every run: they
/// warm the process.  Their set-ups, and those of the rounds run before
/// each iteration, are the samples of `setup_s`, spread over the whole run
/// so that neither one burst of host interference nor the slower first
/// round after an iteration can move the median.  (An iteration's own
/// set-up overlaps the start of its update.)
const WARMUP_SETUPS: usize = 40;
const SETUPS_PER_ITERATION: usize = 10;

/// Pause before each set-up-only round.  A teardown leaves the closed
/// connections' threads exiting in the background; a set-up started among
/// them measured them too, and its run median moved by up to 1.9x from run
/// to run on `tenants` (against ~1.4x after the pause).
const SETUP_PAUSE: Duration = Duration::from_millis(5);

/// A run that is still going after this long is abandoned (no result).
const WATCHDOG: Duration = Duration::from_secs(170);

/// The end-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [&str; 4] = ["setup_s", "mods_per_s", "ack_p50_ms", "peak_rss_mb"];

/// The per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: [&str; 28] = [
    "openflow.decode_ns_per_msg",
    "openflow.encode_ns_per_msg",
    "openflow.bytes_per_msg",
    "rum.handle_ns_per_input",
    "rum.probes_per_confirm",
    "rum.probe_catch_ratio",
    "rum.lag_p50_ms",
    "rum.lag_p99_ms",
    "proxy.cpu_us_per_mod",
    "proxy.msgs_per_drain",
    "proxy.outbox_depth_max",
    "proxy.timers_per_confirm",
    "controller.cpu_us_per_mod",
    "controller.drain_ns_per_mod",
    "sessiond.drain_ns_per_mod",
    "sessiond.in_flight_mean",
    "switch.activate_p50_ms",
    "switch.activate_p99_ms",
    "switch.cpu_us_per_mod",
    "switch.errors",
    "harness.cpu_share",
    "harness.late_p99_ms",
    "trace.overhead_pct",
    "trace.openflow_self_ms",
    "trace.rum_self_ms",
    "trace.controller_self_ms",
    "trace.sessiond_self_ms",
    "trace.replay_explained_pct",
];

/// Operations that went wrong, by kind.  Every count is in flow-mods
/// except `out_of_order` (replies) and `aborted_sessions` (sessions, whose
/// mods are counted in `aborted_mods`).
#[derive(Debug, Default, Clone)]
pub struct Failures {
    /// Confirmed before the rule was active in the switch's data plane.
    pub false_acks: u64,
    /// Never confirmed by the deadline.
    pub missed: u64,
    /// Rejected by the switch.
    pub rejected: u64,
    /// Unconfirmed because their session was aborted or refused.
    pub aborted_mods: u64,
    pub aborted_sessions: u64,
    /// `blast`: mods of batches whose barrier reply never came back in order.
    pub unreplied: u64,
    /// `blast`: barrier replies that came back out of order or twice.
    pub out_of_order: u64,
    /// `blast`: mods the fake switches did not receive exactly as sent.
    pub unmatched: u64,
    pub setup_failed: bool,
}

impl Failures {
    pub fn failed(&self) -> u64 {
        self.false_acks
            + self.missed
            + self.rejected
            + self.aborted_mods
            + self.unreplied
            + self.out_of_order
            + self.unmatched
    }

    fn add(&mut self, o: &Failures) {
        self.false_acks += o.false_acks;
        self.missed += o.missed;
        self.rejected += o.rejected;
        self.aborted_mods += o.aborted_mods;
        self.aborted_sessions += o.aborted_sessions;
        self.unreplied += o.unreplied;
        self.out_of_order += o.out_of_order;
        self.unmatched += o.unmatched;
        self.setup_failed |= o.setup_failed;
    }
}

/// One request's timeline on its iteration's epoch: sent, first active in
/// the data plane, confirmed.
#[derive(Debug, Clone)]
pub struct Request {
    pub id: u64,
    pub send: Option<Duration>,
    pub active: Option<Duration>,
    pub confirm: Option<Duration>,
}

/// A tenant session: due → last ack, over a range of `requests`.
#[derive(Debug, Clone)]
pub struct Group {
    pub id: u64,
    pub start: Duration,
    pub end: Duration,
    pub members: Range<usize>,
}

/// What one iteration (setup, measured phase, teardown) produced.
#[derive(Debug, Default)]
pub struct Iteration {
    pub setup_s: f64,
    /// Acknowledged flow-mods per second of the measured phase.
    pub rate: f64,
    pub acks_ms: Vec<f64>,
    /// Peak resident set of the process during the iteration.
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failures: Failures,
    pub layer: Option<LayerSample>,
    pub epoch: Option<Instant>,
    pub requests: Vec<Request>,
    pub groups: Vec<Group>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Blast,
    Probe,
    Tenants,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "blast" => Some(Workload::Blast),
            "probe" => Some(Workload::Probe),
            "tenants" => Some(Workload::Tenants),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Blast => "blast",
            Workload::Probe => "probe",
            Workload::Tenants => "tenants",
        }
    }
}

/// The three workload shapes; self-tests shrink them.
#[derive(Debug, Clone)]
pub struct Shapes {
    pub blast: blast::BlastConfig,
    pub probe: probe::ProbeConfig,
    pub tenants: tenants::TenantsConfig,
}

impl Shapes {
    pub fn standard() -> Self {
        Shapes {
            blast: blast::BlastConfig::standard(),
            probe: probe::ProbeConfig::standard(),
            tenants: tenants::TenantsConfig::standard(),
        }
    }

    fn iteration(
        &self,
        w: Workload,
        seed: u64,
        measure: bool,
        traced: bool,
        capture: Option<&Arc<Mutex<Vec<capture::Chunk>>>>,
    ) -> Iteration {
        match w {
            Workload::Blast => blast::iteration(&self.blast, seed, measure, traced, capture),
            Workload::Probe => probe::iteration(&self.probe, seed, measure, traced, capture),
            Workload::Tenants => tenants::iteration(&self.tenants, seed, measure, traced, capture),
        }
    }
}

/// The seed of iteration `i` of a run seeded `seed`.
fn iteration_seed(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The result line: correctness, operation counts and named metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub failures: Failures,
    pub attempted: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Sample count behind each metric, for the human-readable lines.
    pub samples: BTreeMap<&'static str, usize>,
    /// The acks' p90 and p99 (medians over iterations), printed but not
    /// gated: on `blast` they follow host CPU steal more than the program.
    pub tail_ms: [f64; 2],
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failures.failed() == 0
            && !self.failures.setup_failed
            && self.attempted > 0
            && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let v = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failures.failed()
        )
    }
}

/// The set-up-only rounds and measured iterations of one run.
struct Rounds {
    /// `setup_s` of every set-up-only round.
    setups: Vec<f64>,
    /// Some set-up-only round failed to attach its switches in time.
    setup_failed: bool,
    its: Vec<Iteration>,
}

/// Runs set-up-only rounds, then measured iterations (each after a few more
/// set-up-only rounds) until `seconds` have passed, at least
/// `min_iterations` of them; `traced(i)` picks the traced ones.
fn iterations(
    shapes: &Shapes,
    w: Workload,
    seed: u64,
    seconds: Duration,
    min_iterations: usize,
    traced: impl Fn(usize) -> bool,
) -> Rounds {
    let mut rounds = Rounds {
        setups: Vec::new(),
        setup_failed: false,
        its: Vec::new(),
    };
    let setup_rounds = |rounds: &mut Rounds, n: usize| {
        for _ in 0..n {
            let r = rounds.setups.len();
            std::thread::sleep(SETUP_PAUSE);
            let it = shapes.iteration(w, iteration_seed(seed, 1000 + r), false, false, None);
            rounds.setups.push(it.setup_s);
            rounds.setup_failed |= it.failures.setup_failed;
        }
    };
    setup_rounds(&mut rounds, WARMUP_SETUPS);
    let started = Instant::now();
    while rounds.its.len() < min_iterations || started.elapsed() < seconds {
        setup_rounds(&mut rounds, SETUPS_PER_ITERATION);
        let i = rounds.its.len();
        let steal0 = host_steal_ticks();
        reset_peak_rss();
        let mut it = shapes.iteration(w, iteration_seed(seed, i), true, traced(i), None);
        it.peak_rss_mb = peak_rss_mb();
        eprintln!(
            "iteration {i}: setup {:.2} ms, {:.0} mods/s, ack p50 {:.3} ms, p90 {:.3} ms, \
             p99 {:.3} ms, peak rss {:.1} MiB, {} failed, host steal {} ticks",
            it.setup_s * 1e3,
            it.rate,
            quantile(&it.acks_ms, 0.5),
            quantile(&it.acks_ms, 0.9),
            quantile(&it.acks_ms, 0.99),
            it.peak_rss_mb,
            it.failures.failed(),
            host_steal_ticks().saturating_sub(steal0),
        );
        rounds.its.push(it);
    }
    rounds
}

/// A `--trace 0` run: the end-to-end metrics.
pub fn measure(shapes: &Shapes, w: Workload, seed: u64, seconds: Duration) -> Outcome {
    let Rounds {
        setups,
        setup_failed,
        its,
    } = iterations(shapes, w, seed, seconds, 1, |_| false);
    let mut out = Outcome::default();
    out.failures.setup_failed = setup_failed;
    let per_it = |f: &dyn Fn(&Iteration) -> f64| median(&its.iter().map(f).collect::<Vec<_>>());
    for it in &its {
        out.failures.add(&it.failures);
        out.attempted += it.attempted;
    }
    // Every figure is the median over iterations of the iteration's own
    // figure: a burst of host CPU steal (see `host_steal_ticks`) spoils
    // one iteration, not the run.  Each iteration holds at least 1,000
    // acks, so even its p99 has ten samples beyond it.
    out.metrics = vec![
        ("setup_s", median(&setups), "s"),
        ("mods_per_s", per_it(&|it| it.rate), "1/s"),
        ("ack_p50_ms", per_it(&|it| quantile(&it.acks_ms, 0.5)), "ms"),
        // The first iteration's peak: later ones start from whatever the
        // allocator kept resident from earlier iterations (it creeps up
        // by tens of MiB on `blast`), so only the first is comparable.
        ("peak_rss_mb", its[0].peak_rss_mb, "MiB"),
    ];
    out.tail_ms = [0.9, 0.99].map(|q| per_it(&|it| quantile(&it.acks_ms, q)));
    let acks = its.iter().map(|it| it.acks_ms.len()).sum();
    out.samples = BTreeMap::from([
        ("setup_s", setups.len()),
        ("mods_per_s", its.len()),
        ("ack_p50_ms", acks),
        ("peak_rss_mb", 1),
    ]);
    out
}

/// CPU time the hypervisor gave to other guests while this one had work
/// (`steal` in `/proc/stat`, all CPUs, 10 ms ticks).  Reported per
/// iteration on stderr: it is the main source of run-to-run noise here.
fn host_steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Request spans of one traced iteration: `request` (send → confirm) with
/// children `switch.activate` (send → first activation) and
/// `rum.confirm_lag` (activation → confirm), under a `session` span
/// (due → last ack) on `tenants`.
fn record_requests(trace: &mut Trace, it: &Iteration) {
    let Some(epoch) = it.epoch else {
        return;
    };
    let base = trace.ns(epoch);
    let at = |d: Duration| base + d.as_nanos() as u64;
    let mut parent_of = vec![0u32; it.requests.len()];
    for g in &it.groups {
        let id = trace.record("session", 0, g.id, at(g.start), at(g.end));
        for p in &mut parent_of[g.members.clone()] {
            *p = id;
        }
    }
    for (r, &parent) in it.requests.iter().zip(&parent_of) {
        let (Some(send), Some(confirm)) = (r.send, r.confirm) else {
            continue;
        };
        let req = trace.record("request", parent, r.id, at(send), at(confirm));
        if let Some(active) = r.active.filter(|a| *a <= confirm) {
            trace.record("switch.activate", req, r.id, at(send), at(active.max(send)));
            trace.record(
                "rum.confirm_lag",
                req,
                r.id,
                at(active.max(send)),
                at(confirm),
            );
        }
    }
}

/// Virtual ack latency of the mux replay (close to the live `probe` p50).
const REPLAY_ACK_LATENCY: Duration = Duration::from_millis(40);

/// A `--trace 1` run: the per-layer metrics.
pub fn traced(
    shapes: &Shapes,
    w: Workload,
    seed: u64,
    seconds: Duration,
    out_dir: Option<&std::path::Path>,
) -> Outcome {
    let mut trace = Trace::new();
    // Traced and untraced iterations alternate; the untraced ones only
    // serve `trace.overhead_pct`.
    let rounds = iterations(shapes, w, seed, seconds, 2, |i| i % 2 == 0);
    let mut out = Outcome::default();
    out.failures.setup_failed = rounds.setup_failed;
    let mut live = LiveLayers::default();
    let (mut traced_rates, mut plain_rates) = (Vec::new(), Vec::new());
    for mut it in rounds.its {
        out.failures.add(&it.failures);
        out.attempted += it.attempted;
        match it.layer.take() {
            Some(sample) => {
                // Request spans of the first traced iteration only: that
                // keeps the span file to tens of MiB on `blast`.
                if traced_rates.is_empty() {
                    record_requests(&mut trace, &it);
                }
                traced_rates.push(it.rate);
                live.add(sample);
            }
            None => plain_rates.push(it.rate),
        }
    }

    // One captured iteration, shortened where the mix repeats.
    let mut cap_shapes = shapes.clone();
    cap_shapes.blast.batches = 500;
    cap_shapes.tenants.sessions = cap_shapes.tenants.sessions.min(200);
    let sink = Arc::new(Mutex::new(Vec::new()));
    let cap_seed = iteration_seed(seed, 2000);
    let cap = cap_shapes.iteration(w, cap_seed, true, false, Some(&sink));
    out.failures.add(&cap.failures);
    out.attempted += cap.attempted;
    let mut chunks = std::mem::take(&mut *sink.lock().expect("capture sink"));
    let proxy = match w {
        Workload::Blast => replay::proxy(&mut chunks, blast::builder, &mut trace),
        Workload::Probe => {
            let t = shapes.probe.technique.clone();
            replay::proxy(&mut chunks, || ring::builder(t.clone()), &mut trace)
        }
        Workload::Tenants => {
            let t = shapes.tenants.technique.clone();
            replay::proxy(&mut chunks, || ring::builder(t.clone()), &mut trace)
        }
    };
    // Plans go only through the layers the workload itself runs: `blast`
    // drives the wire without a session, and no mux runs on `probe`.
    let (controller_ns, sessiond_ns) = match w {
        Workload::Blast => (0.0, 0.0),
        Workload::Probe => {
            let plan = probe::plan(&probe::rules(cap_seed, shapes.probe.rules_per_switch));
            let ns = replay::controller(&[plan], shapes.probe.window, &mut trace);
            (ns, 0.0)
        }
        Workload::Tenants => {
            let t = &shapes.tenants;
            let plans = tenants::plans(cap_seed, t.sessions, t.mods_per_session);
            (
                replay::controller(&plans, tenants::SESSION_WINDOW, &mut trace),
                replay::mux(
                    &plans,
                    tenants::mux_config(),
                    tenants::RATE,
                    REPLAY_ACK_LATENCY,
                    &mut trace,
                ),
            )
        }
    };

    let (controller_comm, switch_comm, window) = match w {
        Workload::Blast => (blast::LOAD_COMM, blast::SWITCH_COMM, None),
        Workload::Probe => (COMM_CONTROLLER, COMM_SWITCH, None),
        Workload::Tenants => (COMM_CONTROLLER, COMM_SWITCH, Some(tenants::GLOBAL_WINDOW)),
    };
    let own = trace.self_ns_by_name();
    let self_ms = |names: &[&str]| {
        names
            .iter()
            .map(|n| own.get(n).copied().unwrap_or(0))
            .sum::<u64>() as f64
            / 1e6
    };
    let plain = median(&plain_rates);
    let overhead_pct = if plain > 0.0 {
        (plain - median(&traced_rates)) / plain * 100.0
    } else {
        0.0
    };
    let proxy_cpu_ns = live.proxy_cpu_us_per_mod() * 1e3;
    out.metrics = vec![
        ("openflow.decode_ns_per_msg", proxy.decode_ns_per_msg, "ns"),
        ("openflow.encode_ns_per_msg", proxy.encode_ns_per_msg, "ns"),
        ("rum.handle_ns_per_input", proxy.handle_ns_per_input, "ns"),
        ("controller.drain_ns_per_mod", controller_ns, "ns"),
        ("sessiond.drain_ns_per_mod", sessiond_ns, "ns"),
    ];
    out.metrics
        .extend(live.metrics(controller_comm, switch_comm, window));
    out.metrics.extend([
        ("trace.overhead_pct", overhead_pct, "%"),
        (
            "trace.openflow_self_ms",
            self_ms(&["openflow.decode", "openflow.encode"]),
            "ms",
        ),
        ("trace.rum_self_ms", self_ms(&["rum.handle_into"]), "ms"),
        (
            "trace.controller_self_ms",
            self_ms(&["controller.session_call"]),
            "ms",
        ),
        (
            "trace.sessiond_self_ms",
            self_ms(&["sessiond.mux_call"]),
            "ms",
        ),
        (
            "trace.replay_explained_pct",
            common::ratio(proxy.explained_ns_per_mod, proxy_cpu_ns) * 100.0,
            "%",
        ),
    ]);
    out.metrics.sort_by_key(|(name, _, _)| {
        PER_LAYER
            .iter()
            .position(|n| n == name)
            .expect("every per-layer metric is listed")
    });
    eprintln!(
        "replay: {} msgs in, {} inputs, {} msgs out, {} mods captured; {} spans",
        proxy.msgs_in,
        proxy.inputs,
        proxy.msgs_out,
        proxy.mods,
        trace.len()
    );
    if let Some(dir) = out_dir {
        let path = dir.join(format!("trace-{}-seed{}.jsonl", w.name(), seed));
        match trace.write_jsonl(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
    out
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    rules_per_switch: Option<usize>,
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value for {flag}: {value}"))
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut rules_per_switch = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number(&flag, &value)?),
            "--seconds" => seconds = Some(number(&flag, &value)?),
            "--trace" => trace = number::<u8>(&flag, &value)? == 1,
            // Reproduces the table-capacity stall (README): override the
            // `probe` update size (rules per switch).
            "--rules-per-switch" => rules_per_switch = Some(number(&flag, &value)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        rules_per_switch,
    })
}

fn main() {
    set_thread_name(COMM_MAIN);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <blast|probe|tenants> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    std::thread::Builder::new()
        .name("pb-watchdog".into())
        .spawn(|| {
            std::thread::sleep(WATCHDOG);
            eprintln!("perfbench: run exceeded {WATCHDOG:?}; abandoning it");
            std::process::exit(3);
        })
        .expect("spawn watchdog");

    let mut shapes = Shapes::standard();
    if let Some(n) = args.rules_per_switch {
        shapes.probe.rules_per_switch = n;
    }
    let seconds = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let out = if args.trace {
        traced(
            &shapes,
            args.workload,
            args.seed,
            seconds,
            Some(std::path::Path::new(".bench_out")),
        )
    } else {
        measure(&shapes, args.workload, args.seed, seconds)
    };
    let f = &out.failures;
    println!(
        "{} seed {} ({}): {} ops attempted, {} failed [false acks {}, missed {}, rejected {}, aborted mods {} in {} sessions, unreplied {}, out-of-order replies {}, unmatched {}{}]; {:.1} s",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "end to end" },
        out.attempted,
        f.failed(),
        f.false_acks,
        f.missed,
        f.rejected,
        f.aborted_mods,
        f.aborted_sessions,
        f.unreplied,
        f.out_of_order,
        f.unmatched,
        if f.setup_failed { ", setup failed" } else { "" },
        started.elapsed().as_secs_f64()
    );
    for (name, value, unit) in &out.metrics {
        match out.samples.get(name) {
            Some(n) => println!("  {name:<28} {value:>14.4} {unit:<6} (n={n})"),
            None => println!("  {name:<28} {value:>14.4} {unit}"),
        }
    }
    if let Some(n) = out.samples.get("ack_p50_ms") {
        for (name, value) in ["ack_p90_ms", "ack_p99_ms"].iter().zip(out.tail_ms) {
            println!("  {name:<28} {value:>14.4} ms     (n={n}; not gated, see README)");
        }
    }
    println!("{}", out.json());
}

#[cfg(test)]
mod tests;
