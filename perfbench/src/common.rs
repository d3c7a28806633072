//! Helpers shared by the workloads: the seeded generator, statistics,
//! per-thread CPU accounting from `/proc`, readiness waits and the span
//! recorder of traced runs.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Seeded generator (splitmix64): the workloads derive every input — rule
/// layout, fault-plan seeds, tenant order — from the command's `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The `q`-quantile (nearest rank) of `values`; NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Ratio that reads 0 instead of NaN when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Spins on `pred`, yielding the CPU between polls, until it holds or
/// `timeout` passes.  The program's own `wait_for` sleeps 5 ms between
/// polls and a timed sleep wakes late by a varying amount on a busy VM;
/// either would add its own noise to `setup_s`.
pub fn wait_until(mut pred: impl FnMut() -> bool, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if pred() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::yield_now();
    }
}

// ---------------------------------------------------------------------
// CPU accounting by component
// ---------------------------------------------------------------------

/// Thread names the benchmark gives each component.  A new Linux thread
/// inherits its creator's name, so naming the calling thread around a
/// component's `start()` (and around each switch host's spawn) names every
/// thread that component ever creates — the proxy's workers, the
/// controller's per-connection reader/writer threads spawned later by its
/// accept thread, the switch host's serve thread.  Diffing
/// `/proc/self/task` around `start()` alone would race with the proxy's
/// onward dial, which spawns controller threads while a switch attaches.
pub const COMM_PROXY: &str = "rum-proxy";
pub const COMM_CONTROLLER: &str = "rum-ctrl";
pub const COMM_SWITCH: &str = "rum-swhost";
/// Prefix of every thread the benchmark itself owns.
pub const COMM_BENCH: &str = "pb-";
pub const COMM_MAIN: &str = "pb-main";

/// Renames the calling thread (Linux `comm`, at most 15 bytes).
pub fn set_thread_name(name: &str) {
    let _ = std::fs::write("/proc/thread-self/comm", name);
}

/// Runs `f` with the calling thread renamed to `name`, so threads `f`
/// spawns inherit the name; restores the benchmark's main name after.
pub fn named<R>(name: &str, f: impl FnOnce() -> R) -> R {
    set_thread_name(name);
    let r = f();
    set_thread_name(COMM_MAIN);
    r
}

/// On-CPU nanoseconds of every live thread of this process, keyed by tid,
/// with the thread's name.  Reads `/proc/self/task/*/schedstat` (ns
/// resolution); falls back to utime+stime from `stat` (clock ticks).
#[derive(Debug, Clone, Default)]
pub struct CpuSnapshot {
    threads: HashMap<u32, (String, u64)>,
}

impl CpuSnapshot {
    pub fn take() -> Self {
        let mut threads = HashMap::new();
        let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
            return CpuSnapshot { threads };
        };
        for entry in dir.flatten() {
            let Ok(tid) = entry.file_name().to_string_lossy().parse::<u32>() else {
                continue;
            };
            let path = entry.path();
            let comm = std::fs::read_to_string(path.join("comm"))
                .map(|s| s.trim().to_string())
                .unwrap_or_default();
            if let Some(ns) = thread_cpu_ns(&path) {
                threads.insert(tid, (comm, ns));
            }
        }
        CpuSnapshot { threads }
    }

    /// CPU spent between `self` and `later`, summed per thread name.
    /// Threads born in between count from zero.
    pub fn delta_by_name(&self, later: &CpuSnapshot) -> CpuByName {
        let mut by_name: HashMap<String, u64> = HashMap::new();
        for (tid, (comm, ns)) in &later.threads {
            let before = self.threads.get(tid).map_or(0, |(_, b)| *b);
            *by_name.entry(comm.clone()).or_default() += ns.saturating_sub(before);
        }
        CpuByName(by_name)
    }
}

/// On-CPU nanoseconds of the calling thread so far: a bench thread that
/// exits before the phase's closing snapshot reports its own CPU this way.
pub fn own_cpu_ns() -> u64 {
    thread_cpu_ns(std::path::Path::new("/proc/thread-self")).unwrap_or(0)
}

fn thread_cpu_ns(path: &std::path::Path) -> Option<u64> {
    if let Ok(s) = std::fs::read_to_string(path.join("schedstat")) {
        if let Some(ns) = s.split_whitespace().next().and_then(|v| v.parse().ok()) {
            return Some(ns);
        }
    }
    // Fields 14/15 (utime, stime) follow the parenthesised comm.
    let stat = std::fs::read_to_string(path.join("stat")).ok()?;
    let rest = &stat[stat.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?;
    Some(ticks * 10_000_000)
}

/// CPU nanoseconds per thread name over one measured phase.
#[derive(Debug, Clone, Default)]
pub struct CpuByName(HashMap<String, u64>);

impl CpuByName {
    pub fn named(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    pub fn prefixed(&self, prefix: &str) -> u64 {
        self.0
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    pub fn total(&self) -> u64 {
        self.0.values().sum()
    }

    pub fn add_named(&mut self, name: &str, ns: u64) {
        *self.0.entry(name.to_string()).or_default() += ns;
    }

    pub fn add(&mut self, other: &CpuByName) {
        for (k, v) in &other.0 {
            *self.0.entry(k.clone()).or_default() += v;
        }
    }
}

/// Resets this process's peak resident set (`VmHWM`) to its current
/// resident set, so the next [`peak_rss_mb`] covers only what follows.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------
// Spans of traced runs
// ---------------------------------------------------------------------

/// One span: a named interval on the run's clock, the span that caused it
/// (0 = none) and the request it belongs to (batch xid, mod cookie or
/// tenant session; 0 for replay bookkeeping).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub request: u64,
}

/// In-memory span store of one traced run, written out once at the end.
pub struct Trace {
    spans: Vec<Span>,
    clock: Instant,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            spans: Vec::new(),
            clock: Instant::now(),
        }
    }

    /// Nanoseconds of `at` on the trace clock.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.clock).as_nanos() as u64
    }

    pub fn now_ns(&self) -> u64 {
        self.ns(Instant::now())
    }

    /// Records a finished span and returns its id (ids start at 1).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            request,
        });
        id
    }

    /// Reserves a parent span whose end is set later with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, request: u64) -> u32 {
        let now = self.now_ns();
        self.record(name, parent, request, now, now)
    }

    pub fn close(&mut self, id: u32) {
        let now = self.now_ns();
        self.spans[id as usize - 1].end_ns = now;
    }

    /// Self time per span name: each span's duration minus the part of it
    /// its children cover (children are assumed not to overlap each other).
    pub fn self_ns_by_name(&self) -> HashMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            if s.parent != 0 {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: HashMap<&'static str, u64> = HashMap::new();
        for s in &self.spans {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]);
            *out.entry(s.name).or_default() += own;
        }
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"request\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.request
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Trace::new();
        let root = t.record("root", 0, 1, 0, 100);
        t.record("child", root, 1, 10, 40);
        t.record("child", root, 1, 50, 60);
        let own = t.self_ns_by_name();
        assert_eq!(own["root"], 60);
        assert_eq!(own["child"], 40);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn seeded_generator_repeats() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let mut r = Rng::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
    }
}
