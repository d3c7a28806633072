//! Live telemetry plane for the RUM reproduction.
//!
//! The experiment pipeline already produces rich *post-hoc* evidence —
//! `GroundTruth` timelines, `ProxyStats`, timestamped confirmation records —
//! but a running proxy was a black box.  This crate is the missing
//! operational surface:
//!
//! * a **lock-free metrics core** — sharded atomic [`Counter`]s, [`Gauge`]s
//!   and log-bucketed (HDR-style) latency [`Histogram`]s with mergeable
//!   per-thread [`Recorder`]s — cheap enough for the zero-alloc hot path
//!   (one relaxed `fetch_add` per event, no locks, no allocation);
//! * a **[`Registry`]** that names metrics and produces consistent
//!   [`Snapshot`]s (a counter read in a snapshot is monotone across
//!   snapshots, and a histogram's count always equals the sum of its
//!   buckets — there is no separately-updated total to tear);
//! * a **snapshot/streaming endpoint** — [`serve`] runs a tiny hand-rolled
//!   TCP line-protocol server emitting JSON snapshots, [`scrape`] is the
//!   matching one-shot client.  No external dependencies: the [`json`]
//!   encoder and parser live in this crate, like the other `crates/shims`
//!   stand-ins, and are the workspace's one JSON codec (the bench harness's
//!   results validator parses `BENCH_results.json` with it too).
//!
//! # Line protocol
//!
//! The endpoint speaks newline-delimited commands:
//!
//! | request           | response                                        |
//! |-------------------|-------------------------------------------------|
//! | `snapshot`        | one JSON object on one line                     |
//! | `stream <ms>`     | a JSON line every `<ms>` milliseconds           |
//! | `quit`            | connection closed                               |
//!
//! Every JSON line has the shape
//! `{"counters":{..},"gauges":{..},"histograms":{name:{count,min,max,mean,p50,p90,p99,p999}}}`.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use telemetry::Registry;
//!
//! let registry = Arc::new(Registry::new());
//! let acks = registry.counter("rum.sw0.acks_sent");
//! let latency = registry.histogram("rum.sw0.confirm_latency_us");
//! acks.inc();
//! latency.record(1_250);
//!
//! let server = telemetry::serve("127.0.0.1:0", Arc::clone(&registry)).unwrap();
//! let snap = telemetry::scrape(server.local_addr(), std::time::Duration::from_secs(5)).unwrap();
//! assert_eq!(snap.counters["rum.sw0.acks_sent"], 1);
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
pub mod json;
mod metrics;
mod registry;
mod server;

pub use hist::{
    bucket_index, bucket_lower_bound, AtomicHistogram, Histogram, Recorder, NUM_BUCKETS,
};
pub use metrics::{Counter, Gauge};
pub use registry::{HistogramSummary, Registry, Snapshot};
pub use server::{scrape, serve, ServerHandle};
