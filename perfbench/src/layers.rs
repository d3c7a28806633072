//! Per-layer accounting of traced iterations, all of it read from outside
//! the program: public counters and gauges, `/proc` CPU by thread name,
//! session timestamps joined with switch ground truth.

use crate::common::{median, quantile, ratio, CpuByName, COMM_BENCH, COMM_PROXY};
use rum::ProxyStats;
use rum_tcp::{ProxyCounters, ProxyHandle};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::Gauge;

/// Sampling period of the gauge sampler (and the schedule whose lateness
/// `harness.late_p99_ms` reports on the closed-loop workloads).
const SAMPLE_PERIOD: Duration = Duration::from_millis(2);

/// A bench thread sampling the proxy's per-shard outbox depth and,
/// when given, the mux's `sessiond.in_flight` gauge on a fixed schedule.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Sampled>,
}

#[derive(Debug, Default)]
pub struct Sampled {
    pub depth_max: i64,
    pub in_flight: Vec<f64>,
    pub late_ms: Vec<f64>,
}

impl Sampler {
    /// Samples `proxy`'s `proxy.shard{k}.outbox_depth` gauges and, when
    /// given, the mux's in-flight gauge.
    pub fn for_proxy(proxy: &ProxyHandle, in_flight: Option<Arc<Gauge>>) -> Sampler {
        let reg = proxy.metrics();
        let depth = (0..proxy.n_shards())
            .map(|k| reg.gauge(&format!("proxy.shard{k}.outbox_depth")))
            .collect();
        Sampler::start(depth, in_flight)
    }

    fn start(depth: Vec<Arc<Gauge>>, in_flight: Option<Arc<Gauge>>) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("pb-sampler".into())
            .spawn(move || {
                let mut out = Sampled::default();
                let mut due = Instant::now() + SAMPLE_PERIOD;
                while !flag.load(Ordering::Relaxed) {
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let woke = Instant::now();
                    out.late_ms.push(crate::common::ms(woke - due));
                    out.depth_max = out.depth_max.max(depth.iter().map(|g| g.get()).sum());
                    if let Some(g) = &in_flight {
                        out.in_flight.push(g.get() as f64);
                    }
                    due += SAMPLE_PERIOD;
                    if due < woke {
                        // Fell a whole period behind: resume the schedule
                        // from now rather than firing a catch-up burst.
                        due = woke + SAMPLE_PERIOD;
                    }
                }
                out
            })
            .expect("spawn sampler");
        Sampler { stop, thread }
    }

    pub fn finish(self) -> Sampled {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("sampler thread")
    }
}

/// The proxy's transport counters, copied at the end of a phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Transport {
    pub msgs: u64,
    pub bytes: u64,
    pub drains: u64,
    pub timers: u64,
}

impl Transport {
    pub fn read(c: &ProxyCounters) -> Self {
        Transport {
            msgs: c.to_switch() + c.to_controller(),
            bytes: c.to_switch_bytes() + c.to_controller_bytes(),
            drains: c.drains(),
            timers: c.timers_fired(),
        }
    }
}

/// What one traced iteration contributes to the per-layer metrics.
#[derive(Debug, Default)]
pub struct LayerSample {
    /// Mods acknowledged in the phase (the per-mod denominators).
    pub mods: u64,
    pub cpu: CpuByName,
    pub stats: ProxyStats,
    pub transport: Transport,
    pub switch_errors: u64,
    /// First activation → confirm, per mod (per batch in `blast`).
    pub lag_ms: Vec<f64>,
    /// Send → first activation, per mod (per batch in `blast`).
    pub activate_ms: Vec<f64>,
    pub sampled: Sampled,
    /// Open-loop arrival lateness (`tenants`); empty on closed loops.
    pub arrival_late_ms: Vec<f64>,
}

/// Per-layer figures measured on the live system, pooled over the traced
/// iterations of one run.
#[derive(Debug, Default)]
pub struct LiveLayers {
    mods: u64,
    cpu: CpuByName,
    stats: ProxyStats,
    transport: Transport,
    switch_errors: u64,
    lag_ms: Vec<f64>,
    activate_ms: Vec<f64>,
    depth_max: i64,
    in_flight: Vec<f64>,
    sampler_late_ms: Vec<f64>,
    arrival_late_ms: Vec<f64>,
}

impl LiveLayers {
    pub fn add(&mut self, s: LayerSample) {
        self.mods += s.mods;
        self.cpu.add(&s.cpu);
        self.stats += s.stats;
        self.transport.msgs += s.transport.msgs;
        self.transport.bytes += s.transport.bytes;
        self.transport.drains += s.transport.drains;
        self.transport.timers += s.transport.timers;
        self.switch_errors += s.switch_errors;
        self.lag_ms.extend(s.lag_ms);
        self.activate_ms.extend(s.activate_ms);
        self.depth_max = self.depth_max.max(s.sampled.depth_max);
        self.in_flight.extend(s.sampled.in_flight);
        self.sampler_late_ms.extend(s.sampled.late_ms);
        self.arrival_late_ms.extend(s.arrival_late_ms);
    }

    pub fn proxy_cpu_us_per_mod(&self) -> f64 {
        ratio(self.cpu.named(COMM_PROXY) as f64 / 1e3, self.mods as f64)
    }

    /// Metrics of the live layers.  `controller_comm` names the threads
    /// that play the controller (the bench's load threads in `blast`);
    /// `switch_comm` likewise for the switches; `window` scales the mux's
    /// in-flight gauge.
    pub fn metrics(
        &self,
        controller_comm: &str,
        switch_comm: &str,
        window: Option<usize>,
    ) -> Vec<(&'static str, f64, &'static str)> {
        let mods = self.mods as f64;
        let confirms = mods;
        let cpu_us = |ns: u64| ratio(ns as f64 / 1e3, mods);
        let late = if self.arrival_late_ms.is_empty() {
            &self.sampler_late_ms
        } else {
            &self.arrival_late_ms
        };
        let in_flight_mean = match window {
            Some(w) if !self.in_flight.is_empty() => {
                self.in_flight.iter().sum::<f64>() / self.in_flight.len() as f64 / w as f64
            }
            _ => 0.0,
        };
        vec![
            (
                "openflow.bytes_per_msg",
                ratio(self.transport.bytes as f64, self.transport.msgs as f64),
                "B",
            ),
            (
                "rum.probes_per_confirm",
                ratio(self.stats.probes_injected as f64, confirms),
                "ratio",
            ),
            (
                "rum.probe_catch_ratio",
                ratio(
                    self.stats.probes_consumed as f64,
                    self.stats.probes_injected as f64,
                ),
                "ratio",
            ),
            ("rum.lag_p50_ms", quantile(&self.lag_ms, 0.5), "ms"),
            ("rum.lag_p99_ms", quantile(&self.lag_ms, 0.99), "ms"),
            ("proxy.cpu_us_per_mod", self.proxy_cpu_us_per_mod(), "us"),
            (
                "proxy.msgs_per_drain",
                ratio(self.transport.msgs as f64, self.transport.drains as f64),
                "ratio",
            ),
            ("proxy.outbox_depth_max", self.depth_max as f64, "count"),
            (
                "proxy.timers_per_confirm",
                ratio(self.transport.timers as f64, confirms),
                "ratio",
            ),
            (
                "controller.cpu_us_per_mod",
                cpu_us(self.cpu.prefixed(controller_comm)),
                "us",
            ),
            ("sessiond.in_flight_mean", in_flight_mean, "ratio"),
            ("switch.activate_p50_ms", median(&self.activate_ms), "ms"),
            (
                "switch.activate_p99_ms",
                quantile(&self.activate_ms, 0.99),
                "ms",
            ),
            (
                "switch.cpu_us_per_mod",
                cpu_us(self.cpu.prefixed(switch_comm)),
                "us",
            ),
            ("switch.errors", self.switch_errors as f64, "count"),
            (
                "harness.cpu_share",
                ratio(
                    self.cpu.prefixed(COMM_BENCH) as f64,
                    self.cpu.total() as f64,
                ),
                "ratio",
            ),
            ("harness.late_p99_ms", quantile(late, 0.99), "ms"),
        ]
    }
}
