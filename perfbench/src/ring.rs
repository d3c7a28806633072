//! The 2-switch fabric ring shared by `probe` and `tenants`: fast_buggy
//! switch hosts (early barrier replies, ~50 ms data-plane lag) with a
//! preinstalled drop-all, wired port 2 → port 1 both ways, behind the
//! sharded proxy running general probing.

use crate::capture::{via_tap, Chunk, Side, Tap};
use crate::common::{named, wait_until, COMM_PROXY, COMM_SWITCH};
use controller::scenarios::{COOKIE_PREINSTALLED, DROP_ALL_PRIORITY};
use ofswitch::{FaultPlan, SwitchModel};
use openflow::messages::FlowMod;
use openflow::OfMatch;
use rum::{RumBuilder, TechniqueConfig};
use rum_bench::scale::{ring_port_maps, RING_IN_PORT, RING_OUT_PORT};
use rum_tcp::{
    spawn_switch_with, Fabric, ProxyConfig, ProxyHandle, RumTcpProxy, SocketSwitchHandle,
    SwitchHostOptions, SwitchReport,
};
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const SWITCHES: usize = 2;

/// How long one switch may take to reach the controller through the proxy.
const ATTACH_TIMEOUT: Duration = Duration::from_secs(5);

/// General probing as the session soak sizes it: 10 ms probe rounds, every
/// released mod probed concurrently, fallback at 1.25 × the worst-case lag.
pub fn probing(model: &SwitchModel, window: usize) -> TechniqueConfig {
    let lag = model.worst_case_dataplane_lag();
    TechniqueConfig::GeneralProbing {
        probe_interval: Duration::from_millis(10),
        max_outstanding: window.max(30),
        fallback_delay: lag + lag / 4,
    }
}

/// The proxy's engine configuration; the layer replay builds the same one.
pub fn builder(technique: TechniqueConfig) -> RumBuilder {
    RumBuilder::new(SWITCHES)
        .shards(SWITCHES)
        .technique(technique)
        .port_maps(ring_port_maps(SWITCHES))
}

/// Starts the proxy with every thread it creates named [`COMM_PROXY`].
fn start_proxy(builder: RumBuilder, controller_addr: SocketAddr) -> ProxyHandle {
    named(COMM_PROXY, || {
        RumTcpProxy::new(
            ProxyConfig {
                listen_addr: "127.0.0.1:0".parse().expect("literal address"),
                controller_addr,
            },
            builder,
        )
        .start()
        .expect("proxy starts on loopback")
    })
}

/// The per-switch fault-plan seed derived from the run seed.
fn switch_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ (index as u64 + 1)
}

/// Connects the two switch hosts one at a time (so proxy slot `i` = fabric
/// index `i` = plan target `i`), waiting after each until `connected()`
/// (the controller's accepted-connection count) shows it.  The flag is
/// false if a switch failed to attach in time; the hosts already started
/// are returned for teardown either way.
fn attach(
    switch_addr: SocketAddr,
    seed: u64,
    epoch: Instant,
    connected: &dyn Fn() -> usize,
) -> (Vec<SocketSwitchHandle>, bool) {
    let fabric = Fabric::new();
    for i in 0..SWITCHES {
        fabric.link(i, RING_OUT_PORT, (i + 1) % SWITCHES, RING_IN_PORT);
    }
    let drop_all = FlowMod::add(OfMatch::wildcard_all(), DROP_ALL_PRIORITY, vec![])
        .with_cookie(COOKIE_PREINSTALLED);
    let mut hosts = Vec::with_capacity(SWITCHES);
    for i in 0..SWITCHES {
        let host = named(COMM_SWITCH, || {
            spawn_switch_with(
                switch_addr,
                SwitchModel::fast_buggy(),
                SwitchHostOptions {
                    faults: FaultPlan::seeded(switch_seed(seed, i)),
                    epoch: Some(epoch),
                    fabric: Some((fabric.clone(), i)),
                    preinstall: vec![drop_all.clone()],
                    reconnect_delay: None,
                },
            )
        });
        let Ok(host) = host else {
            return (hosts, false);
        };
        hosts.push(host);
        if !wait_until(|| connected() > i, ATTACH_TIMEOUT) {
            return (hosts, false);
        }
    }
    (hosts, true)
}

/// The proxy and switch hosts of one iteration, plus the recording taps of
/// a captured one.
pub struct Ring {
    pub proxy: ProxyHandle,
    hosts: Vec<SocketSwitchHandle>,
    taps: Vec<Tap>,
    /// Both switches reached the controller in time.
    pub attached: bool,
}

impl Ring {
    /// Starts the proxy towards `controller_addr` and attaches the switches
    /// (see [`attach`]); with `capture`, both sides of the proxy run
    /// through recording taps.
    pub fn start(
        technique: TechniqueConfig,
        controller_addr: SocketAddr,
        seed: u64,
        epoch: Instant,
        capture: Option<&Arc<Mutex<Vec<Chunk>>>>,
        connected: &dyn Fn() -> usize,
    ) -> Ring {
        let mut taps = Vec::new();
        let upstream = via_tap(
            capture,
            Side::Controller,
            controller_addr,
            SWITCHES,
            epoch,
            &mut taps,
        );
        let proxy = start_proxy(builder(technique), upstream);
        let switch_addr = via_tap(
            capture,
            Side::Switch,
            proxy.local_addr,
            SWITCHES,
            epoch,
            &mut taps,
        );
        let (hosts, attached) = attach(switch_addr, seed, epoch, connected);
        Ring {
            proxy,
            hosts,
            taps,
            attached,
        }
    }

    /// Sum of the hosts' rejected-modification counters.
    pub fn switch_errors(&self) -> u64 {
        self.hosts
            .iter()
            .map(|h| h.counters().errors.load(Ordering::Relaxed))
            .sum()
    }

    /// Stops the proxy, the hosts and the taps (shut the controller down
    /// first) and returns the hosts' final reports (ground truth).
    pub fn stop(self) -> Vec<SwitchReport> {
        self.proxy.shutdown();
        for h in &self.hosts {
            h.stop();
        }
        let reports = self
            .hosts
            .into_iter()
            .map(SocketSwitchHandle::join)
            .collect();
        for tap in self.taps {
            tap.finish();
        }
        reports
    }
}
