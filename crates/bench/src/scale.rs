//! The 1,000-switch scale layer: the sharded proxy serving a large switch
//! fleet on both drivers of the shared behaviour engine.
//!
//! The classic scenario matrix proves soundness on a 3-switch chain; this
//! module proves the same zero-false-acks claim **at fleet scale**.  The
//! topology is a ring of `n` switches (port 1 towards the predecessor,
//! port 2 towards the successor), every switch runs the early-barrier-reply
//! adversary, and the plan installs rules spread across the whole fleet —
//! every rule forwards to its switch's ring successor, where the probing
//! technique's catch rule observes it.  The update starts only once all `n`
//! connections are attached (both drivers gate on that), so the measured
//! run really is `n` concurrent switches behind one sharded engine.
//!
//! The `ofswitch::Verdict` judge classifies each rule against **that rule's
//! own switch** ground truth; its counts also land in the registry under
//! `scale.{driver}.{n}.{fault}.{technique}.*`, a namespace apart from the
//! classic matrix's so live telemetry can tell the fleet runs from the chain
//! runs.

use crate::report::percentile;
use crate::scenario_matrix::{count_verdict, FaultModel, MatrixCell, MatrixTechnique};
use crate::session_soak::{
    collect, mux_config, probing, summarise, tenant_plan_for, SoakConfig, SoakOutcome,
};
use controller::scenarios::{COOKIE_NEW_RULE_BASE, COOKIE_PREINSTALLED, DROP_ALL_PRIORITY};
use controller::{AckMode, Controller, UpdatePlan, UpdateSession};
use ofswitch::{FaultPlan, GroundTruth, SwitchModel, Verdict};
use openflow::messages::FlowMod;
use openflow::{Action, DatapathId, OfMatch};
use rum::{deploy, RumBuilder, SwitchId, SwitchPortMap};
use rum_tcp::{
    spawn_switch_with, wait_for, Fabric, LegacyRumTcpProxy, ProxyConfig, RumTcpProxy,
    SwitchHostOptions, TcpMuxController, TcpUpdateController,
};
use simnet::{OpenFlowSwitch, SimTime, Simulator};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::Registry;

/// Ring port towards the predecessor switch.
pub const RING_IN_PORT: u16 = 1;
/// Ring port towards the successor switch (the output port of every rule).
pub const RING_OUT_PORT: u16 = 2;

/// Engine shards of every scale run.  Fixed (not derived from the host's
/// core count) so the shard striping — and with it the per-switch timer and
/// xid streams — is identical on every machine and both drivers.
pub const SCALE_SHARDS: usize = 8;

/// Port maps of an `n`-switch ring in proxy `SwitchId` space: switch `i`
/// reaches its predecessor through port 1 and its successor through port 2;
/// probes for `i` are injected via the predecessor's port 2.  The same maps
/// are passed explicitly to **both** drivers, so probe paths match exactly
/// instead of depending on topology-derivation order.
pub fn ring_port_maps(n: usize) -> Vec<SwitchPortMap> {
    assert!(n >= 2, "a ring needs at least two switches");
    (0..n)
        .map(|i| {
            let prev = SwitchId::new((i + n - 1) % n);
            let next = SwitchId::new((i + 1) % n);
            let mut map = SwitchPortMap::default();
            map.port_to_switch.insert(RING_IN_PORT, prev);
            map.port_to_switch.insert(RING_OUT_PORT, next);
            map.inject_via = Some((prev, RING_OUT_PORT));
            map
        })
        .collect()
}

/// The fleet-wide plan: `rules_per_switch` rules per switch, id/cookie
/// `COOKIE_NEW_RULE_BASE + k` (disjoint from the preinstalled drop-all),
/// each in its own `10.x.y.z` match space and forwarding out the ring
/// towards its successor.  Rule `k` targets switch `k % n`, so every switch
/// in the fleet carries plan load.
pub fn scale_plan(n_switches: usize, rules_per_switch: usize) -> UpdatePlan {
    assert!(rules_per_switch < 255, "per-switch rule space is one /24");
    let mut plan = UpdatePlan::new();
    for (k, (sw, r)) in (0..rules_per_switch)
        .flat_map(|r| (0..n_switches).map(move |sw| (sw, r)))
        .enumerate()
    {
        let id = COOKIE_NEW_RULE_BASE + k as u64;
        plan.add(
            id,
            sw,
            FlowMod::add(
                OfMatch::ipv4_pair(
                    Ipv4Addr::new(10, (sw >> 8) as u8, (sw & 0xff) as u8, r as u8 + 1),
                    Ipv4Addr::new(10, 200, 0, 1),
                ),
                controller::scenarios::FLOW_RULE_PRIORITY,
                vec![Action::output(RING_OUT_PORT)],
            ),
        )
        .expect("scale plan ids are unique");
    }
    plan
}

/// `(cookie, switch index)` of every rule in [`scale_plan`] — the join key
/// set of the per-switch ground-truth classification.
pub fn scale_cookies(n_switches: usize, rules_per_switch: usize) -> Vec<(u64, usize)> {
    (0..rules_per_switch)
        .flat_map(|r| (0..n_switches).map(move |sw| (sw, r)))
        .enumerate()
        .map(|(k, (sw, _))| (COOKIE_NEW_RULE_BASE + k as u64, sw))
        .collect()
}

/// The early-reply adversary every switch of the fleet runs, and the
/// general-probing technique under test (the one the paper proves never
/// acknowledges falsely — the only technique whose per-switch claim
/// honestly involves the whole attached fleet).
fn scale_fault(base: &SwitchModel, seed: u64) -> FaultModel {
    FaultModel {
        name: "early_reply",
        model: base.clone(),
        faults: FaultPlan::seeded(seed),
    }
}

fn preinstalled_drop_all() -> FlowMod {
    FlowMod::add(OfMatch::wildcard_all(), DROP_ALL_PRIORITY, vec![])
        .with_cookie(COOKIE_PREINSTALLED)
}

/// Judges every rule's confirmation against **its own switch's** ground
/// truth; the counts also land in the
/// `scale.{driver}.{n}.{fault}.{technique}.*` counters.
#[allow(clippy::too_many_arguments)] // private join of a run's artefacts
fn classify_scale(
    driver: &'static str,
    fault: &FaultModel,
    technique: &MatrixTechnique,
    planned: &[(u64, usize)],
    confirmations: &HashMap<u64, Duration>,
    truths: &[GroundTruth],
    completion_ms: Option<f64>,
    registry: &Registry,
) -> MatrixCell {
    let n = truths.len();
    let verdict = Verdict::of(
        planned
            .iter()
            .map(|&(cookie, sw)| (&truths[sw], cookie, confirmations.get(&cookie).copied())),
    );
    let prefix = format!("scale.{driver}.{n}.{}.{}", fault.name, technique.label());
    count_verdict(registry, &prefix, &verdict);
    MatrixCell::judged(driver, fault, technique, n, verdict, completion_ms)
}

/// When the simulated controller starts pushing the update.
const SCALE_SIM_START: SimTime = SimTime::from_millis(10);

/// One fleet-scale run's artefacts: the matrix verdict plus the engine-side
/// per-switch confirm orders, which the cross-driver conformance tests
/// compare byte-for-byte between drivers and against the single-engine
/// oracle.
#[derive(Debug)]
pub struct ScaleCellOutcome {
    /// The classified verdict row (schema-8 `switches` included).
    pub cell: MatrixCell,
    /// `per_switch_orders[i]` = the cookies switch `i` confirmed, in the
    /// order the engine confirmed them.
    pub per_switch_orders: Vec<Vec<u64>>,
}

/// Which TCP wire path serves the fleet in [`run_tcp_scale_cell_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleProxy {
    /// The readiness-driven event-loop proxy ([`rum_tcp::RumTcpProxy`]).
    EventLoop,
    /// The pre-shard thread-per-connection proxy
    /// ([`rum_tcp::LegacyRumTcpProxy`]) — the conformance oracle.
    Legacy,
}

/// Runs the fleet-scale cell on the simulator driver with the default
/// [`SCALE_SHARDS`] sharding.
pub fn run_simnet_scale_cell(
    n_switches: usize,
    rules_per_switch: usize,
    seed: u64,
    registry: &Registry,
) -> ScaleCellOutcome {
    run_simnet_scale_cell_with(n_switches, rules_per_switch, seed, SCALE_SHARDS, registry)
}

/// Runs the fleet-scale cell on the simulator driver: an `n`-switch ring of
/// early-reply adversaries (hp5406zl timings) behind the engine split into
/// `shards` shards, under general probing.  `shards = 1` is the unsharded
/// oracle.
pub fn run_simnet_scale_cell_with(
    n_switches: usize,
    rules_per_switch: usize,
    seed: u64,
    shards: usize,
    registry: &Registry,
) -> ScaleCellOutcome {
    let fault = scale_fault(&SwitchModel::hp5406zl(), seed);
    let drop_all = preinstalled_drop_all();
    let mut sim = Simulator::new(seed);
    let nodes: Vec<simnet::NodeId> = (0..n_switches)
        .map(|i| {
            let mut sw = OpenFlowSwitch::with_faults(
                format!("sw{i}"),
                DatapathId::new(i as u64 + 1),
                2,
                fault.model.clone(),
                fault.faults.clone(),
            );
            sw.preinstall(&drop_all);
            sim.add_node(sw)
        })
        .collect();
    for i in 0..n_switches {
        let next = (i + 1) % n_switches;
        sim.topology_mut().add_link(
            nodes[i],
            RING_OUT_PORT,
            nodes[next],
            RING_IN_PORT,
            SimTime::from_micros(50),
        );
    }

    let plan = scale_plan(n_switches, rules_per_switch);
    let window = plan.len().max(1);
    let technique = MatrixTechnique::Rum(probing(&fault.model, window));
    let ctrl = Controller::new("ctrl", plan, AckMode::RumAcks, window, SCALE_SIM_START);
    let ctrl_id = sim.add_node(ctrl);
    let builder = RumBuilder::new(n_switches)
        .shards(shards)
        .technique(probing(&fault.model, window))
        .port_maps(ring_port_maps(n_switches));
    let (proxies, handle) = deploy(&mut sim, builder, ctrl_id, &nodes);
    sim.node_mut::<Controller>(ctrl_id)
        .unwrap()
        .set_connections(proxies.clone());
    for (i, &sw) in nodes.iter().enumerate() {
        sim.node_mut::<OpenFlowSwitch>(sw)
            .unwrap()
            .connect_controller(proxies[i]);
    }
    sim.run_until(SimTime::from_secs(120));

    let ctrl = sim.node_ref::<Controller>(ctrl_id).unwrap();
    let confirmations: HashMap<u64, Duration> = ctrl.session().confirmation_times().clone();
    let completion_ms = ctrl
        .completed_at()
        .map(|t| t.saturating_sub(SCALE_SIM_START).as_millis_f64());
    let truths: Vec<GroundTruth> = nodes
        .iter()
        .map(|&id| {
            sim.node_ref::<OpenFlowSwitch>(id)
                .unwrap()
                .behavior()
                .ground_truth()
                .clone()
        })
        .collect();
    let per_switch_orders = (0..n_switches)
        .map(|i| handle.confirmed_order_for(SwitchId::new(i)))
        .collect();
    ScaleCellOutcome {
        cell: classify_scale(
            "simnet",
            &fault,
            &technique,
            &scale_cookies(n_switches, rules_per_switch),
            &confirmations,
            &truths,
            completion_ms,
            registry,
        ),
        per_switch_orders,
    }
}

/// Wall-clock completion budget of a TCP scale run, after all connections
/// are attached.  A 1,000-switch run takes ~30-45s of real probing on a
/// single-core box (the whole fleet's confirms funnel through one CPU), so
/// the budget scales with the fleet and leaves slack for loaded machines —
/// it is only a deadline, never part of any measurement.
fn scale_budget(n_switches: usize) -> Duration {
    Duration::from_secs(15) + Duration::from_millis(60) * n_switches as u32
}

/// Runs the fleet-scale cell on the real-socket driver with the default
/// sharded event-loop proxy.
pub fn run_tcp_scale_cell(
    n_switches: usize,
    rules_per_switch: usize,
    seed: u64,
    registry: &Registry,
) -> ScaleCellOutcome {
    run_tcp_scale_cell_with(
        n_switches,
        rules_per_switch,
        seed,
        SCALE_SHARDS,
        ScaleProxy::EventLoop,
        registry,
    )
}

/// Runs the fleet-scale cell on the real-socket driver: `n` fabric-ringed
/// switch hosts (fast_buggy early-reply adversaries) connected one at a
/// time (so proxy slot `i` = fabric index `i` = plan target `i`), the
/// chosen wire path, and a `TcpUpdateController` that starts the update
/// only once the whole fleet is attached.  `ScaleProxy::Legacy` with
/// `shards = 1` is the pre-shard oracle.
pub fn run_tcp_scale_cell_with(
    n_switches: usize,
    rules_per_switch: usize,
    seed: u64,
    shards: usize,
    wire_path: ScaleProxy,
    registry: &Registry,
) -> ScaleCellOutcome {
    let fault = scale_fault(&SwitchModel::fast_buggy(), seed);
    let drop_all = preinstalled_drop_all();
    let epoch = Instant::now();
    let plan = scale_plan(n_switches, rules_per_switch);
    let window = plan.len().max(1);
    let technique = MatrixTechnique::Rum(probing(&fault.model, window));
    let session = UpdateSession::new(plan, AckMode::RumAcks, window);
    let ctrl = TcpUpdateController::new_with_epoch(
        "127.0.0.1:0".parse().unwrap(),
        session,
        n_switches,
        epoch,
    );
    let ctrl_handle = ctrl.start().expect("controller starts");

    let proxy_config = ProxyConfig {
        listen_addr: "127.0.0.1:0".parse().unwrap(),
        controller_addr: ctrl_handle.local_addr,
    };
    let builder = RumBuilder::new(n_switches)
        .shards(shards)
        .technique(probing(&fault.model, window))
        .port_maps(ring_port_maps(n_switches));
    // Both wire paths serve the same engine; a tiny closure pair erases the
    // concrete handle type once the two calls the cell needs are captured.
    type OrderFn = Box<dyn Fn(SwitchId) -> Vec<u64>>;
    let (proxy_addr, order_for, shutdown_proxy): (_, OrderFn, Box<dyn FnOnce()>) = match wire_path {
        ScaleProxy::EventLoop => {
            let h = RumTcpProxy::new(proxy_config, builder)
                .start()
                .expect("event-loop proxy starts");
            let h = std::rc::Rc::new(h);
            let order = std::rc::Rc::clone(&h);
            (
                h.local_addr,
                Box::new(move |sw| order.confirmed_order_for(sw)) as OrderFn,
                Box::new(move || {
                    std::rc::Rc::into_inner(h)
                        .expect("order closure dropped first")
                        .shutdown()
                }) as Box<dyn FnOnce()>,
            )
        }
        ScaleProxy::Legacy => {
            let h = LegacyRumTcpProxy::new(proxy_config, builder)
                .start()
                .expect("legacy proxy starts");
            let h = std::rc::Rc::new(h);
            let order = std::rc::Rc::clone(&h);
            (
                h.local_addr,
                Box::new(move |sw| order.confirmed_order_for(sw)) as OrderFn,
                Box::new(move || {
                    std::rc::Rc::into_inner(h)
                        .expect("order closure dropped first")
                        .shutdown()
                }) as Box<dyn FnOnce()>,
            )
        }
    };

    let fabric = Fabric::new();
    for i in 0..n_switches {
        fabric.link(i, RING_OUT_PORT, (i + 1) % n_switches, RING_IN_PORT);
    }
    let mut hosts = Vec::with_capacity(n_switches);
    for i in 0..n_switches {
        let host = spawn_switch_with(
            proxy_addr,
            fault.model.clone(),
            SwitchHostOptions {
                faults: fault.faults.clone(),
                epoch: Some(epoch),
                fabric: Some((fabric.clone(), i)),
                preinstall: vec![drop_all.clone()],
                ..Default::default()
            },
        )
        .expect("fleet switch connects");
        assert!(
            wait_for(|| ctrl_handle.connections() > i, Duration::from_secs(10)),
            "switch {i} of {n_switches} did not reach the controller"
        );
        hosts.push(host);
    }

    let _ = ctrl_handle.wait_for_outcome(scale_budget(n_switches));
    let (confirmations, completed_at, update_start) = ctrl_handle.with_session(|s| {
        (
            s.confirmation_times().clone(),
            s.completed_at(),
            s.send_times().values().min().copied(),
        )
    });
    let per_switch_orders: Vec<Vec<u64>> = (0..n_switches)
        .map(|i| order_for(SwitchId::new(i)))
        .collect();
    drop(order_for);
    ctrl_handle.shutdown();
    shutdown_proxy();
    for h in &hosts {
        h.stop();
    }
    let truths: Vec<GroundTruth> = hosts.into_iter().map(|h| h.join().truth).collect();

    let completion_ms = match (completed_at, update_start) {
        (Some(done), Some(start)) => Some(done.saturating_sub(start).as_secs_f64() * 1e3),
        _ => None,
    };
    ScaleCellOutcome {
        cell: classify_scale(
            "tcp",
            &fault,
            &technique,
            &scale_cookies(n_switches, rules_per_switch),
            &confirmations,
            &truths,
            completion_ms,
            registry,
        ),
        per_switch_orders,
    }
}

/// The multi-tenant session soak over the sharded proxy at fleet scale:
/// tenant `t` targets switch `t % n` of an `n`-switch early-reply ring, so
/// the whole fleet carries tenant load concurrently.  Confirmations are
/// judged per tenant against the **target switch's** ground truth; the
/// record carries `switches = n` (schema 8).
pub fn run_tcp_scale_soak(
    cfg: &SoakConfig,
    n_switches: usize,
    seed_registry: &Arc<Registry>,
) -> SoakOutcome {
    let registry = seed_registry;
    let fault = scale_fault(&SwitchModel::fast_buggy(), cfg.seed);
    let drop_all = preinstalled_drop_all();
    let epoch = Instant::now();

    let mut ctrl = TcpMuxController::new_with_epoch(
        "127.0.0.1:0".parse().unwrap(),
        mux_config(cfg),
        n_switches,
        epoch,
    );
    ctrl.mux_mut().attach_metrics(registry);
    let handle = ctrl.start().expect("mux controller starts");

    let proxy = RumTcpProxy::new(
        ProxyConfig {
            listen_addr: "127.0.0.1:0".parse().unwrap(),
            controller_addr: handle.local_addr,
        },
        RumBuilder::new(n_switches)
            .shards(SCALE_SHARDS)
            .technique(probing(&fault.model, cfg.global_window))
            .port_maps(ring_port_maps(n_switches)),
    );
    let proxy_handle = proxy.start().expect("proxy starts");

    let fabric = Fabric::new();
    for i in 0..n_switches {
        fabric.link(i, RING_OUT_PORT, (i + 1) % n_switches, RING_IN_PORT);
    }
    let mut hosts = Vec::with_capacity(n_switches);
    for i in 0..n_switches {
        let host = spawn_switch_with(
            proxy_handle.local_addr,
            fault.model.clone(),
            SwitchHostOptions {
                faults: fault.faults.clone(),
                epoch: Some(epoch),
                fabric: Some((fabric.clone(), i)),
                preinstall: vec![drop_all.clone()],
                ..Default::default()
            },
        )
        .expect("fleet switch connects");
        assert!(
            wait_for(|| handle.connections() > i, Duration::from_secs(10)),
            "switch {i} of {n_switches} did not reach the controller"
        );
        hosts.push(host);
    }

    let started = Instant::now();
    let mut sids = Vec::with_capacity(cfg.sessions);
    for t in 0..cfg.sessions {
        sids.push(
            handle
                .submit(tenant_plan_for(
                    t,
                    cfg.mods_per_session,
                    t % n_switches,
                    RING_OUT_PORT,
                ))
                .expect("disjoint tenant plans all admit"),
        );
    }
    handle.wait_all_done(cfg.budget);
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let (tenants, strays) =
        handle.with_mux(|m| (collect(m, &sids, cfg.mods_per_session), m.stray_acks()));

    handle.shutdown();
    proxy_handle.shutdown();
    for h in &hosts {
        h.stop();
    }
    let truths: Vec<GroundTruth> = hosts.into_iter().map(|h| h.join().truth).collect();
    let truth_refs: Vec<&GroundTruth> = (0..tenants.len())
        .map(|t| &truths[t % n_switches])
        .collect();

    let record = summarise(
        "tcp",
        fault.name,
        n_switches as u64,
        &tenants,
        &truth_refs,
        strays,
        wall_ms,
        registry,
    );
    SoakOutcome {
        record,
        per_session_orders: tenants.into_iter().map(|t| t.order).collect(),
    }
}

/// A quick sanity summary of a scale cell's confirm latencies (used by the
/// bench binary's progress output): p50/p99 of confirmation times relative
/// to the first send.
pub fn confirm_spread_ms(confirmations: &HashMap<u64, Duration>) -> (f64, f64) {
    let Some(&first) = confirmations.values().min() else {
        return (f64::NAN, f64::NAN);
    };
    let rel: Vec<f64> = confirmations
        .values()
        .map(|&d| d.saturating_sub(first).as_secs_f64() * 1e3)
        .collect();
    (
        percentile(&rel, 0.5).unwrap_or(f64::NAN),
        percentile(&rel, 0.99).unwrap_or(f64::NAN),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ring maps are closed, consistent and injectable: every switch sees
    /// its predecessor on port 1, its successor on port 2, and probes ride
    /// in through the predecessor's out-port.
    #[test]
    fn ring_port_maps_are_consistent() {
        let maps = ring_port_maps(5);
        assert_eq!(maps.len(), 5);
        for (i, map) in maps.iter().enumerate() {
            let prev = SwitchId::new((i + 4) % 5);
            let next = SwitchId::new((i + 1) % 5);
            assert_eq!(map.next_hop(RING_IN_PORT), Some(prev));
            assert_eq!(map.next_hop(RING_OUT_PORT), Some(next));
            assert_eq!(map.inject_via, Some((prev, RING_OUT_PORT)));
        }
        // The two-switch ring degenerates to a pair wired both ways.
        let pair = ring_port_maps(2);
        assert_eq!(pair[0].next_hop(RING_OUT_PORT), Some(SwitchId::new(1)));
        assert_eq!(pair[1].next_hop(RING_OUT_PORT), Some(SwitchId::new(0)));
    }

    /// The fleet plan spreads rules round-robin across switches with unique
    /// cookies disjoint from the preinstalled drop-all.
    #[test]
    fn scale_plan_spreads_rules_across_the_fleet() {
        let plan = scale_plan(4, 2);
        assert_eq!(plan.len(), 8);
        let cookies = scale_cookies(4, 2);
        assert_eq!(cookies.len(), 8);
        assert_eq!(cookies[0], (COOKIE_NEW_RULE_BASE, 0));
        assert_eq!(cookies[5], (COOKIE_NEW_RULE_BASE + 5, 1));
        for (cookie, sw) in &cookies {
            assert!(*cookie > COOKIE_PREINSTALLED);
            let m = plan.get(*cookie).expect("cookie is a plan id");
            assert_eq!(m.target, *sw);
            assert_eq!(m.flow_mod.cookie, *cookie);
        }
    }

    /// A reduced-scale simnet fleet run: 8 early-reply switches behind the
    /// sharded engine, general probing, zero false and zero missed acks —
    /// with every switch (not just one device under test) carrying rules.
    #[test]
    fn simnet_scale_cell_is_sound_at_reduced_scale() {
        let registry = Registry::new();
        let out = run_simnet_scale_cell(8, 2, 42, &registry);
        let cell = &out.cell;
        assert_eq!(out.per_switch_orders.len(), 8);
        assert_eq!(
            out.per_switch_orders.iter().map(Vec::len).sum::<usize>(),
            16,
            "every planned rule appears in exactly one switch's confirm order"
        );
        assert_eq!(cell.switches, 8);
        assert_eq!(cell.planned, 16);
        assert_eq!(cell.false_acks, 0, "{cell:?}");
        assert_eq!(cell.missed_acks, 0, "{cell:?}");
        assert!(cell.completion_ms.is_some(), "{cell:?}");
        let snap = registry.snapshot();
        assert_eq!(
            snap.counters["scale.simnet.8.early_reply.rum-general.false_acks"],
            0
        );
    }

    /// The same reduced-scale fleet over real sockets: 8 fabric-ringed
    /// early-reply hosts, the sharded event-loop proxy, still zero false
    /// and zero missed acks.
    #[test]
    fn tcp_scale_cell_is_sound_at_reduced_scale() {
        let registry = Registry::new();
        let out = run_tcp_scale_cell(8, 2, 42, &registry);
        let cell = &out.cell;
        assert_eq!(out.per_switch_orders.len(), 8);
        assert_eq!(cell.switches, 8);
        assert_eq!(cell.planned, 16);
        assert_eq!(cell.false_acks, 0, "{cell:?}");
        assert_eq!(cell.missed_acks, 0, "{cell:?}");
        assert!(cell.completion_ms.is_some(), "{cell:?}");
    }

    /// The fleet-scale soak at reduced scale: tenants spread across an
    /// 8-switch buggy ring, zero false / missed / stray acks.
    #[test]
    fn tcp_scale_soak_is_sound_at_reduced_scale() {
        let cfg = SoakConfig {
            sessions: 12,
            mods_per_session: 2,
            budget: Duration::from_secs(20),
            global_window: 8,
            ..SoakConfig::default()
        };
        let registry = Arc::new(Registry::new());
        let outcome = run_tcp_scale_soak(&cfg, 8, &registry);
        let r = &outcome.record;
        assert_eq!(r.switches, 8, "{r:?}");
        assert_eq!(r.completed, 12, "{r:?}");
        assert_eq!(r.false_acks, 0, "{r:?}");
        assert_eq!(r.missed_acks, 0, "{r:?}");
        assert_eq!(r.stray_acks, 0, "{r:?}");
    }
}
