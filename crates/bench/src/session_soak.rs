//! The multi-tenant session soak: hundreds of concurrent tenant sessions
//! multiplexed through one `sessiond::SessionMux` over a misbehaving switch
//! fleet — the "millions of users" workload at benchmark scale.
//!
//! Each tenant owns a small dependency-free plan of rules in its own match
//! space (so admission never serialises them); every plan targets the same
//! device under test, behind the RUM proxy running **general probing** —
//! the technique the paper proves never acknowledges falsely.  The soak
//! streams all plans into the mux up front, so the whole tenant population
//! is concurrently admitted and contends for the shared outstanding-window
//! budget from the first instant, then waits a bounded wall-clock budget
//! for completion.
//!
//! The harness runs on **both drivers** of the mux — the deterministic
//! simulator ([`sessiond::MuxController`]) and real sockets
//! ([`rum_tcp::TcpMuxController`]) — with the same namespace scheme, so the
//! per-session confirm orders are comparable across drivers for the same
//! seed.  Every confirmation is classified against the device under test's
//! data-plane ground truth, exactly like the scenario matrix: a confirm
//! while the rule was not in the data plane is a **false ack**, a planned
//! rule never confirmed inside the budget is a **missed ack**.  The verdict
//! counters flow through the telemetry registry
//! (`soak.{driver}.{fault}.{false_acks,missed_acks}`), and per-modification
//! confirm latencies feed the tail percentiles (p50/p99/p99.9) of the
//! `session_soak` section of `BENCH_results.json`.

use crate::report::{percentile, SessionSoakRecord};
use crate::scenario_matrix::{count_verdict, restart_reconnect_delay, tcp_port_maps, FaultModel};
use controller::scenarios::{
    bulk_ports, BulkUpdateScenario, COOKIE_PREINSTALLED, DROP_ALL_PRIORITY, FLOW_RULE_PRIORITY,
};
use controller::{AckMode, SessionOutcome, UpdatePlan};
use ofswitch::{GroundTruth, SwitchModel, Verdict};
use openflow::messages::FlowMod;
use openflow::{Action, OfMatch};
use rum::{deploy, RumBuilder, TechniqueConfig};
use rum_tcp::{
    spawn_switch_with, wait_for, Fabric, ProxyConfig, RumTcpProxy, SwitchHostOptions,
    TcpMuxController,
};
use sessiond::{MuxConfig, MuxController, SessionId, SessionMux};
use simnet::{OpenFlowSwitch, SimTime, Simulator};
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::Registry;

/// Parameters of one soak run.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Concurrent tenant sessions (the acceptance bar is ≥ 200 on TCP).
    pub sessions: usize,
    /// Modifications per tenant plan (all dependency-free, all targeting
    /// the device under test).
    pub mods_per_session: usize,
    /// Simulator seed; also seeds the fault plan so verdicts are a pure
    /// function of `(seed, wire cookie)` on both drivers.
    pub seed: u64,
    /// Wall-clock budget of the TCP run; tenants not done by then are
    /// recorded as missed acks, never silently waited out.
    pub budget: Duration,
    /// The shared outstanding-window budget the scheduler divides fairly
    /// across tenants.
    pub global_window: usize,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            sessions: 200,
            mods_per_session: 3,
            seed: 42,
            budget: Duration::from_secs(45),
            global_window: 24,
        }
    }
}

/// Result of one soak run: the persisted record plus the per-session
/// confirm orders (registration order) for cross-driver equality checks.
#[derive(Debug, Clone)]
pub struct SoakOutcome {
    /// The `session_soak` row written to `BENCH_results.json`.
    pub record: SessionSoakRecord,
    /// Each tenant's confirm order (local plan ids), in registration order.
    pub per_session_orders: Vec<Vec<u64>>,
}

/// The headline adversary of the soak: the early-barrier-reply switch the
/// paper measures, with no extra faults layered on.  General probing must
/// produce **zero false and zero missed acks** against it.
pub fn early_reply_fault(base: &SwitchModel, seed: u64) -> FaultModel {
    crate::scenario_matrix::fault_models(base, seed, 1)
        .into_iter()
        .next()
        .expect("fault_models is never empty")
}

/// One tenant's plan: `mods` dependency-free rules in the tenant's own
/// `10.t.t.r` match space (disjoint across tenants, so admission never
/// conflicts), all targeting the device under test (switch reference 0) and
/// forwarding towards the downstream helper — the same rule shape the bulk
/// scenario uses, so the probing fabric carries the probes.
pub fn tenant_plan(tenant: usize, mods: usize) -> UpdatePlan {
    tenant_plan_for(tenant, mods, 0, bulk_ports::B_TO_C)
}

/// Like [`tenant_plan`] but targeting an arbitrary switch reference with an
/// explicit output port — the shape the sharded scale soak uses, where
/// tenant `t` lands on switch `t % n` of the ring and forwards to its
/// successor.
pub fn tenant_plan_for(
    tenant: usize,
    mods: usize,
    target: controller::plan::SwitchRef,
    out_port: u16,
) -> UpdatePlan {
    assert!(mods < 255, "per-tenant rule space is one /24");
    let mut plan = UpdatePlan::new();
    for r in 0..mods {
        let id = r as u64 + 1;
        plan.add(
            id,
            target,
            FlowMod::add(
                OfMatch::ipv4_pair(
                    Ipv4Addr::new(10, (tenant >> 8) as u8, (tenant & 0xff) as u8, r as u8 + 1),
                    Ipv4Addr::new(10, 200, 0, 1),
                ),
                FLOW_RULE_PRIORITY,
                vec![Action::output(out_port)],
            )
            // The wire cookie becomes `namespace base + id`, unique across
            // the whole fleet — the key the ground-truth join uses.
            .with_cookie(id),
        )
        .expect("tenant-local ids are unique");
    }
    plan
}

/// The mux configuration of the soak.  `session_window = 1` serialises each
/// tenant's own plan, so every per-session confirm order is fully
/// determined by the session's dispatch rule — the property the
/// cross-driver equality check rests on.  Concurrency comes from the tenant
/// population, not from within a session.
pub(crate) fn mux_config(cfg: &SoakConfig) -> MuxConfig {
    MuxConfig {
        ack_mode: AckMode::RumAcks,
        session_window: 1,
        global_window: cfg.global_window,
        quantum: 1,
        ..MuxConfig::default()
    }
}

/// General probing sized for the soak: the proxy must be able to probe the
/// whole released window concurrently, or overflow mods would fall back to
/// the delay heuristic and weaken the zero-false-acks claim.
pub(crate) fn probing(model: &SwitchModel, window: usize) -> TechniqueConfig {
    let lag = model.worst_case_dataplane_lag();
    TechniqueConfig::GeneralProbing {
        probe_interval: Duration::from_millis(10),
        max_outstanding: window.max(30),
        fallback_delay: lag + lag / 4,
    }
}

/// One tenant's run artefacts, read back from the mux after the run.
pub(crate) struct TenantResult {
    pub(crate) order: Vec<u64>,
    /// Per planned mod: (wire cookie, send time, confirm time).
    pub(crate) mods: Vec<(u64, Option<Duration>, Option<Duration>)>,
    pub(crate) completed: bool,
    pub(crate) aborted: bool,
}

/// Reads every tenant's confirmations, send times and outcome out of the
/// mux (both drivers expose the same `SessionMux` surface).
pub(crate) fn collect(mux: &SessionMux, sids: &[SessionId], mods: usize) -> Vec<TenantResult> {
    sids.iter()
        .map(|&sid| {
            let s = mux.session(sid).expect("admitted session exists");
            let base = mux.base(sid).unwrap_or(0);
            let confirms = s.confirmation_times();
            let sends = s.send_times();
            TenantResult {
                order: s.confirmed_order().to_vec(),
                mods: (1..=mods as u64)
                    .map(|id| {
                        (
                            base + id,
                            sends.get(&id).copied(),
                            confirms.get(&id).copied(),
                        )
                    })
                    .collect(),
                completed: matches!(mux.outcome(sid), Some(SessionOutcome::Completed { .. })),
                aborted: matches!(mux.outcome(sid), Some(SessionOutcome::Aborted { .. })),
            }
        })
        .collect()
}

/// Judges every tenant's confirmations against the device under test's
/// ground truth and aggregates the soak record.  The judge's counts also
/// land in the `soak.{driver}.{fault}.*` counters, as the scenario matrix's
/// do.
#[allow(clippy::too_many_arguments)] // private join of a run's artefacts
pub(crate) fn summarise(
    driver: &'static str,
    fault: &str,
    switches: u64,
    tenants: &[TenantResult],
    truths: &[&GroundTruth],
    stray_acks: u64,
    wall_ms: f64,
    registry: &Registry,
) -> SessionSoakRecord {
    assert_eq!(truths.len(), tenants.len(), "one ground truth per tenant");
    let mut verdict = Verdict::default();
    let mut latencies_ms = Vec::new();
    for (t, truth) in tenants.iter().zip(truths) {
        for &(wire, send, confirm) in &t.mods {
            verdict.judge(truth, wire, confirm);
            if let (Some(at), Some(sent)) = (confirm, send) {
                latencies_ms.push(at.saturating_sub(sent).as_secs_f64() * 1e3);
            }
        }
    }
    count_verdict(registry, &format!("soak.{driver}.{fault}"), &verdict);
    SessionSoakRecord {
        driver: driver.to_string(),
        fault: fault.to_string(),
        switches,
        sessions: tenants.len() as u64,
        completed: tenants.iter().filter(|t| t.completed).count() as u64,
        aborted: tenants.iter().filter(|t| t.aborted).count() as u64,
        planned_mods: verdict.planned,
        confirmed_mods: verdict.confirmed,
        false_acks: verdict.false_acks,
        missed_acks: verdict.missed_acks,
        stray_acks,
        p50_confirm_ms: percentile(&latencies_ms, 0.5).unwrap_or(f64::NAN),
        p99_confirm_ms: percentile(&latencies_ms, 0.99).unwrap_or(f64::NAN),
        p999_confirm_ms: percentile(&latencies_ms, 0.999).unwrap_or(f64::NAN),
        wall_ms,
    }
}

/// When the simulated mux starts submitting the tenant population.
const SOAK_SIM_START: SimTime = SimTime::from_millis(10);

/// Simulated horizon: generous against the hp5406zl's ~250 mods/s and
/// 290 ms data-plane lag; an incomplete run reports missed acks instead of
/// hanging.
const SOAK_SIM_HORIZON: SimTime = SimTime::from_secs(120);

/// Runs the soak on the simulator driver (hp5406zl base model, simulated
/// time).  `wall_ms` is the simulated span from submission to the last
/// confirmation.
pub fn run_simnet_soak(
    cfg: &SoakConfig,
    fault: &FaultModel,
    registry: &Arc<Registry>,
) -> SoakOutcome {
    let mut sim = Simulator::new(cfg.seed);
    // The bulk chain (A — B — C) with an empty plan: topology, preinstalls
    // and fault wiring only; the tenants bring their own plans.
    let scenario = BulkUpdateScenario {
        n_rules: 0,
        packets_per_sec: 0,
        model: fault.model.clone(),
        faults: fault.faults.clone(),
        reconnect_delay: Some(restart_reconnect_delay(&fault.model)),
        ..Default::default()
    };
    let net = scenario.build(&mut sim);
    // Device under test first, matching the TCP driver's accept order.
    let switches = [net.sw_b, net.sw_a, net.sw_c];

    let mut ctrl = MuxController::new("soakd", mux_config(cfg), SOAK_SIM_START);
    ctrl.mux_mut().attach_metrics(registry);
    for t in 0..cfg.sessions {
        ctrl.add_plan(tenant_plan(t, cfg.mods_per_session));
    }
    let ctrl_id = sim.add_node(ctrl);
    let builder =
        RumBuilder::new(switches.len()).technique(probing(&fault.model, cfg.global_window));
    let (proxies, _handle) = deploy(&mut sim, builder, ctrl_id, &switches);
    sim.node_mut::<MuxController>(ctrl_id)
        .unwrap()
        .set_connections(vec![proxies[0]]);
    for (idx, sw) in switches.iter().enumerate() {
        sim.node_mut::<OpenFlowSwitch>(*sw)
            .unwrap()
            .connect_controller(proxies[idx]);
    }
    sim.run_until(SOAK_SIM_HORIZON);

    let ctrl = sim.node_ref::<MuxController>(ctrl_id).unwrap();
    let sids: Vec<SessionId> = ctrl
        .submission_results()
        .iter()
        .map(|r| *r.as_ref().expect("disjoint tenant plans all admit"))
        .collect();
    let tenants = collect(ctrl.mux(), &sids, cfg.mods_per_session);
    let truth = sim
        .node_ref::<OpenFlowSwitch>(net.sw_b)
        .unwrap()
        .behavior()
        .ground_truth()
        .clone();
    let start: Duration = SOAK_SIM_START.into();
    let wall_ms = tenants
        .iter()
        .flat_map(|t| t.mods.iter().filter_map(|&(_, _, c)| c))
        .max()
        .map(|last| last.saturating_sub(start).as_secs_f64() * 1e3)
        .unwrap_or(f64::NAN);
    let record = summarise(
        "simnet",
        fault.name,
        3,
        &tenants,
        &vec![&truth; tenants.len()],
        ctrl.mux().stray_acks(),
        wall_ms,
        registry,
    );
    SoakOutcome {
        record,
        per_session_orders: tenants.into_iter().map(|t| t.order).collect(),
    }
}

/// Runs the soak on the real-socket driver (fast_buggy base model, wall
/// clock): `TcpMuxController` behind the RUM TCP proxy, fabric-linked
/// switch hosts, all tenant plans submitted up front so the whole
/// population is concurrently in flight, then a bounded wait.
pub fn run_tcp_soak(cfg: &SoakConfig, fault: &FaultModel, registry: &Arc<Registry>) -> SoakOutcome {
    let epoch = Instant::now();
    let drop_all = FlowMod::add(OfMatch::wildcard_all(), DROP_ALL_PRIORITY, vec![])
        .with_cookie(COOKIE_PREINSTALLED);

    let mut ctrl =
        TcpMuxController::new_with_epoch("127.0.0.1:0".parse().unwrap(), mux_config(cfg), 3, epoch);
    ctrl.mux_mut().attach_metrics(registry);
    let handle = ctrl.start().expect("mux controller starts");

    let proxy = RumTcpProxy::new(
        ProxyConfig {
            listen_addr: "127.0.0.1:0".parse().unwrap(),
            controller_addr: handle.local_addr,
        },
        RumBuilder::new(3)
            .technique(probing(&fault.model, cfg.global_window))
            .port_maps(tcp_port_maps()),
    );
    let proxy_handle = proxy.start().expect("proxy starts");
    let switch_target = proxy_handle.local_addr;

    // The device under test always connects first (SwitchId/ConnId 0).
    let fabric = Fabric::new();
    fabric.link(0, 1, 1, 2); // B port1 <-> A port2
    fabric.link(0, 2, 2, 1); // B port2 <-> C port1
    let dut = spawn_switch_with(
        switch_target,
        fault.model.clone(),
        SwitchHostOptions {
            faults: fault.faults.clone(),
            epoch: Some(epoch),
            fabric: Some((fabric.clone(), 0)),
            preinstall: vec![drop_all.clone()],
            reconnect_delay: Some(restart_reconnect_delay(&fault.model)),
        },
    )
    .expect("device under test connects");
    assert!(
        wait_for(|| handle.connections() >= 1, Duration::from_secs(5)),
        "device under test did not reach the controller"
    );
    let mut helpers = Vec::new();
    for (i, helper_idx) in [(2usize, 1usize), (3, 2)] {
        let h = spawn_switch_with(
            switch_target,
            SwitchModel::faithful(),
            SwitchHostOptions {
                epoch: Some(epoch),
                fabric: Some((fabric.clone(), helper_idx)),
                preinstall: vec![drop_all.clone()],
                ..Default::default()
            },
        )
        .expect("helper switch connects");
        assert!(
            wait_for(|| handle.connections() >= i, Duration::from_secs(5)),
            "helper switch {helper_idx} did not reach the controller"
        );
        helpers.push(h);
    }

    let started = Instant::now();
    let mut sids = Vec::with_capacity(cfg.sessions);
    for t in 0..cfg.sessions {
        sids.push(
            handle
                .submit(tenant_plan(t, cfg.mods_per_session))
                .expect("disjoint tenant plans all admit"),
        );
    }
    handle.wait_all_done(cfg.budget);
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let (tenants, strays) =
        handle.with_mux(|m| (collect(m, &sids, cfg.mods_per_session), m.stray_acks()));

    // Tear down: controller first, then the proxy, then the switch hosts
    // (the device under test's report carries the ground truth).
    handle.shutdown();
    proxy_handle.shutdown();
    dut.stop();
    for h in &helpers {
        h.stop();
    }
    let report = dut.join();
    for h in helpers {
        let _ = h.join();
    }

    let record = summarise(
        "tcp",
        fault.name,
        3,
        &tenants,
        &vec![&report.truth; tenants.len()],
        strays,
        wall_ms,
        registry,
    );
    SoakOutcome {
        record,
        per_session_orders: tenants.into_iter().map(|t| t.order).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tenant match spaces never collide, so admission never serialises.
    #[test]
    fn tenant_plans_are_disjoint() {
        let a = tenant_plan(3, 4);
        let b = tenant_plan(259, 4);
        assert_eq!(a.len(), 4);
        for m in a.mods() {
            for n in b.mods() {
                assert_ne!(
                    (&m.flow_mod.match_, m.flow_mod.priority),
                    (&n.flow_mod.match_, n.flow_mod.priority),
                    "tenants 3 and 259 must not overlap"
                );
            }
        }
    }

    /// A reduced-scale simnet soak under the headline early-reply fault:
    /// every tenant completes, zero false and zero missed acks, finite
    /// tails, and the verdict counters flow through the registry.
    #[test]
    fn simnet_soak_smoke_is_sound_under_early_replies() {
        let cfg = SoakConfig {
            sessions: 8,
            mods_per_session: 2,
            global_window: 6,
            ..SoakConfig::default()
        };
        let fault = early_reply_fault(&SwitchModel::hp5406zl(), cfg.seed);
        let registry = Arc::new(Registry::new());
        let outcome = run_simnet_soak(&cfg, &fault, &registry);
        let r = &outcome.record;
        assert_eq!(r.sessions, 8, "{r:?}");
        assert_eq!(r.completed, 8, "{r:?}");
        assert_eq!(r.false_acks, 0, "{r:?}");
        assert_eq!(r.missed_acks, 0, "{r:?}");
        assert_eq!(r.stray_acks, 0, "{r:?}");
        assert_eq!(r.confirmed_mods, 16, "{r:?}");
        assert!(r.p999_confirm_ms.is_finite(), "{r:?}");
        assert!(r.p50_confirm_ms <= r.p99_confirm_ms, "{r:?}");
        // session_window = 1 serialises each plan: in-order confirms.
        for order in &outcome.per_session_orders {
            assert_eq!(order, &vec![1, 2]);
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counters["soak.simnet.early_reply.false_acks"], 0);
        assert_eq!(snap.counters["sessiond.completed"], 8);
    }

    /// A reduced-scale TCP soak over real sockets: many concurrent tenants
    /// through the proxy against a buggy early-reply switch host, still
    /// zero false and zero missed acks under general probing.
    #[test]
    fn tcp_soak_smoke_is_sound_under_early_replies() {
        let cfg = SoakConfig {
            sessions: 6,
            mods_per_session: 2,
            budget: Duration::from_secs(15),
            global_window: 6,
            ..SoakConfig::default()
        };
        let fault = early_reply_fault(&SwitchModel::fast_buggy(), cfg.seed);
        let registry = Arc::new(Registry::new());
        let outcome = run_tcp_soak(&cfg, &fault, &registry);
        let r = &outcome.record;
        assert_eq!(r.completed, 6, "{r:?}");
        assert_eq!(r.false_acks, 0, "{r:?}");
        assert_eq!(r.missed_acks, 0, "{r:?}");
        assert_eq!(outcome.per_session_orders.len(), 6);
        for order in &outcome.per_session_orders {
            assert_eq!(order, &vec![1, 2]);
        }
    }
}
