//! The technique × fault scenario matrix — the paper's reliability
//! evaluation, driven by ground truth.
//!
//! For every acknowledgment technique (the barrier-only baseline plus the
//! five RUM techniques) and every fault model (the adversaries of
//! `ofswitch::FaultPlan`), a run installs a bulk of rules at a misbehaving
//! device under test and classifies **every confirmation** against the
//! behaviour engine's data-plane timeline:
//!
//! * a **false acknowledgment** — the controller was told a rule was in
//!   effect while the data plane disagreed (the paper's headline failure);
//! * a **missed acknowledgment** — a planned rule the controller never got
//!   a confirmation for within the horizon (a stalled or honest-but-
//!   incomplete update).
//!
//! The same matrix runs on **both drivers** of the shared behaviour engine:
//! the deterministic simulator (`simnet`) and the real-socket prototype
//! (`rum-tcp`, with the in-process data-plane [`Fabric`] carrying probe
//! packets between switch hosts).  Because fault decisions are pure hashes
//! of `(seed, cookie)`, the adversary is identical on both drivers.

use controller::scenarios::BulkUpdateScenario;
use controller::{
    AckMode, BackoffPolicy, Controller, DesiredStore, FailurePolicy, ResyncConfig, ResyncStatus,
    UpdateSession,
};
use ofswitch::{BarrierMode, FaultPlan, FlowEntry, GroundTruth, SwitchModel, Verdict};
use rum::{deploy, RumBuilder, SwitchId, SwitchPortMap, TechniqueConfig};
use rum_tcp::{
    spawn_switch_with, Fabric, ProxyConfig, RumTcpProxy, SwitchHostOptions, TcpUpdateController,
};
use simnet::{OpenFlowSwitch, SimTime, Simulator};
use std::collections::HashMap;
use std::time::{Duration, Instant};
use telemetry::Registry;

/// One acknowledgment strategy of the matrix.
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixTechnique {
    /// No RUM at all: the controller trusts the switch's own barrier
    /// replies (one barrier per modification) — the baseline every
    /// consistent-update system in the literature uses.
    BarrierOnly,
    /// RUM interposed, running the given technique, with fine-grained acks.
    Rum(TechniqueConfig),
}

impl MatrixTechnique {
    /// Short label used in reports.
    pub fn label(&self) -> String {
        match self {
            MatrixTechnique::BarrierOnly => "barrier-only".into(),
            MatrixTechnique::Rum(t) => format!("rum-{}", t.label()),
        }
    }

    /// True for the data-plane probing techniques (the ones the paper
    /// claims never acknowledge falsely).
    pub fn is_probing(&self) -> bool {
        matches!(self, MatrixTechnique::Rum(t) if t.is_probing())
    }

    /// The full sweep: barrier-only baseline + all five RUM techniques,
    /// parameterised for the given switch model (timeout/adaptive assume
    /// the model's nominal worst-case lag, like an operator would).
    pub fn all(model: &SwitchModel) -> Vec<MatrixTechnique> {
        let lag = model.worst_case_dataplane_lag();
        vec![
            MatrixTechnique::BarrierOnly,
            MatrixTechnique::Rum(TechniqueConfig::BarrierBaseline),
            MatrixTechnique::Rum(TechniqueConfig::StaticTimeout {
                delay: lag + lag / 4,
            }),
            MatrixTechnique::Rum(TechniqueConfig::AdaptiveDelay {
                assumed_rate: model.mod_rate(0),
                assumed_sync_lag: lag,
            }),
            MatrixTechnique::Rum(TechniqueConfig::SequentialProbing {
                batch_size: 3,
                probe_interval: Duration::from_millis(10),
            }),
            MatrixTechnique::Rum(TechniqueConfig::GeneralProbing {
                probe_interval: Duration::from_millis(10),
                max_outstanding: 30,
                fallback_delay: lag + lag / 4,
            }),
        ]
    }
}

/// One adversary of the matrix: a behaviour model plus a fault plan.
#[derive(Debug, Clone)]
pub struct FaultModel {
    /// Short name used in reports.
    pub name: &'static str,
    /// The timing model of the device under test.
    pub model: SwitchModel,
    /// The fault plan layered on top.
    pub faults: FaultPlan,
}

/// After how many accepted modifications the restart column's switch
/// reboots: the middle of the plan, so both sides of the wipe are
/// represented (confirmed-then-wiped rules and never-delivered ones).
pub fn restart_after_mods(n_rules: usize) -> u64 {
    (n_rules as u64).div_ceil(2).max(1)
}

/// How long a restarted device under test stays down before reattaching.
///
/// Two full worst-case data-plane lags: comfortably longer than any
/// in-flight confirmation timer of the delay heuristics, so every
/// pre-restart timer has fired (and lied) before the re-issue happens —
/// which keeps the restart column's verdicts a pure function of the seed on
/// both drivers instead of a race between wall clocks.
pub fn restart_reconnect_delay(model: &SwitchModel) -> Duration {
    model.worst_case_dataplane_lag() * 2
}

/// The fault models of the sweep, built over `base` (the buggy early-reply
/// model of the target driver — `hp5406zl` for the simulator, `fast_buggy`
/// for wall-clock TCP runs).  The first four preserve modification order
/// and leave the channel up; `restart` reboots the switch mid-plan (tables
/// wiped, channel dropped, reconnect after [`restart_reconnect_delay`]);
/// `early_reply_reordering` additionally lets modifications overtake each
/// other across barriers — the adversary outside sequential probing's
/// soundness domain (paper §3.2.1), which the matrix records through
/// [`technique_applicable`].
pub fn fault_models(base: &SwitchModel, seed: u64, n_rules: usize) -> Vec<FaultModel> {
    let lag = base.worst_case_dataplane_lag();
    vec![
        FaultModel {
            name: "early_reply",
            model: base.clone(),
            faults: FaultPlan::seeded(seed),
        },
        FaultModel {
            name: "silent_drop",
            model: base.clone(),
            faults: FaultPlan::seeded(seed).with_silent_drops(3),
        },
        FaultModel {
            name: "sync_burst",
            model: base.clone(),
            // Every synchronisation delayed well past the nominal worst
            // case: the adversary the delay heuristics cannot survive.
            faults: FaultPlan::seeded(seed).with_sync_bursts(1, lag * 2),
        },
        FaultModel {
            name: "ack_lossdup",
            model: base.clone(),
            faults: FaultPlan::seeded(seed)
                .with_ack_loss(5)
                .with_ack_duplication(5),
        },
        FaultModel {
            name: "restart",
            model: base.clone(),
            faults: FaultPlan::seeded(seed).with_restart_after(restart_after_mods(n_rules)),
        },
        FaultModel {
            // The same mid-plan reboot, but with the controller's
            // reconciliation subsystem enabled: after the main session
            // settles, the reconciler reads the flow table back, re-issues
            // the wiped delta and re-reads until the table equals the
            // desired store.  The cell's verdict gains a [`ResyncVerdict`].
            name: "restart_resync",
            model: base.clone(),
            faults: FaultPlan::seeded(seed).with_restart_after(restart_after_mods(n_rules)),
        },
        FaultModel {
            name: "early_reply_reordering",
            model: SwitchModel {
                barrier_mode: BarrierMode::EarlyReplyReordering,
                ..base.clone()
            },
            faults: FaultPlan::seeded(seed),
        },
    ]
}

/// Whether a technique's soundness claim even applies under a fault model.
///
/// Sequential probing's argument — "the probe rule installed after a batch
/// vouches for the whole batch" — requires the switch to preserve
/// modification order; the reordering adversary violates that precondition
/// by design (paper §3.2.1), so its cell is recorded as not applicable
/// rather than run: the grid then *shows* where the technique's soundness
/// boundary lies.  (General probing confirms every rule individually and
/// stays in scope everywhere.)
pub fn technique_applicable(technique: &MatrixTechnique, fault: &FaultModel) -> bool {
    let sequential = matches!(
        technique,
        MatrixTechnique::Rum(TechniqueConfig::SequentialProbing { .. })
    );
    !sequential || fault.model.barrier_mode.preserves_order()
}

/// Outcome of the reconciliation loop in a `restart_resync` cell: did the
/// reconciler converge, how fast, and — judged against the device under
/// test's final flow table, not the reconciler's own claim — does the table
/// really equal the desired store afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResyncVerdict {
    /// A readback showed zero difference within the round budget.
    pub converged: bool,
    /// Readback rounds used.
    pub rounds: u32,
    /// Entries still differing at the last readback (0 when converged).
    pub final_diff: usize,
    /// Modifications re-issued through delta sessions.
    pub delta_mods: u64,
    /// Ground truth: the switch's final control table, filtered of RUM's
    /// reserved probe/catch rules, is entry-for-entry equal to the desired
    /// store (same identities, cookies and actions).
    pub table_matches: bool,
}

impl ResyncVerdict {
    /// The bar a `restart_resync` cell must clear.
    pub fn is_clean(&self) -> bool {
        self.converged && self.final_diff == 0 && self.table_matches
    }
}

/// Whether a fault model's cells run with the reconciler enabled.
pub fn resync_enabled(fault: &FaultModel) -> bool {
    fault.name == "restart_resync"
}

/// The reconciler configuration of a `restart_resync` cell — a pure
/// function of the switch model, so the simulator and TCP drivers replay
/// the identical backoff schedule for a given seed.  The delta session uses
/// plain batched barriers on both drivers: convergence is proven by the
/// *next readback*, not by trusting the delta's acknowledgments, so the
/// honesty of the ack path is irrelevant here by design.
pub fn resync_config(model: &SwitchModel) -> ResyncConfig {
    let lag = model.worst_case_dataplane_lag();
    ResyncConfig {
        backoff: BackoffPolicy::new(lag / 4, lag * 2),
        max_rounds: 8,
        ack_mode: AckMode::Barriers { batch: 4 },
        window: 8,
        failure_policy: FailurePolicy::retry(lag, 2),
    }
}

/// The drop-all rule every matrix scenario preinstalls on the device under
/// test (`controller::scenarios` uses the same identity); `restart_resync`
/// cells seed the desired store with it so the reconciler restores it too.
fn preinstalled_drop_all() -> openflow::messages::FlowMod {
    openflow::messages::FlowMod::add(
        openflow::OfMatch::wildcard_all(),
        controller::scenarios::DROP_ALL_PRIORITY,
        vec![],
    )
    .with_cookie(controller::scenarios::COOKIE_PREINSTALLED)
}

/// Joins the reconciler's own claim with switch-side ground truth into the
/// cell verdict.  A cell where the reconnect never reached the reconciler
/// (no status) records a non-converged verdict instead of panicking.
fn resync_verdict(
    status: Option<&ResyncStatus>,
    store: &DesiredStore,
    entries: &[FlowEntry],
) -> ResyncVerdict {
    let table_matches = table_matches_desired(entries, store, 0);
    match status {
        Some(s) => ResyncVerdict {
            converged: s.converged,
            rounds: s.rounds,
            final_diff: s.final_diff,
            delta_mods: s.delta_mods,
            table_matches,
        },
        None => ResyncVerdict {
            converged: false,
            rounds: 0,
            final_diff: store.len(0),
            delta_mods: 0,
            table_matches,
        },
    }
}

/// The main session's failure policy in a `restart_resync` cell.
///
/// The reconciliation gate opens only once the main session settles; the
/// barrier-only baseline would otherwise wait forever on modifications the
/// reboot swallowed (no re-issue without RUM).  A model-scaled retry — one
/// full reconnect delay plus the worst-case lag, so the first re-send lands
/// after the reattach — lets every technique settle: completion where the
/// re-sends get through, an abort (which opens the gate just the same)
/// where they do not.
pub fn resync_session_policy(model: &SwitchModel) -> FailurePolicy {
    FailurePolicy::retry(
        restart_reconnect_delay(model) + model.worst_case_dataplane_lag(),
        3,
    )
}

/// Ground-truth table equality: every control-table entry the controller
/// owns (RUM's reserved probe/catch cookies are the proxy's business) must
/// be desired with the same cookie and actions, and nothing desired may be
/// missing.  Strict-identity keys `(match, priority)` make this the same
/// relation the reconciler's diff uses — but computed from the switch side.
pub fn table_matches_desired(
    entries: &[FlowEntry],
    store: &DesiredStore,
    switch: controller::plan::SwitchRef,
) -> bool {
    let owned: Vec<&FlowEntry> = entries
        .iter()
        .filter(|e| e.cookie < u64::from(rum::PROXY_XID_BASE))
        .collect();
    owned.len() == store.len(switch)
        && owned.iter().all(|e| {
            store
                .get(switch, &e.match_, e.priority)
                .is_some_and(|want| want.cookie == e.cookie && want.actions == e.actions)
        })
}

/// Result of one matrix cell.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixCell {
    /// `simnet` or `tcp`.
    pub driver: &'static str,
    /// Fault-model name.
    pub fault: String,
    /// Technique label.
    pub technique: String,
    /// Monitored switches in the run's topology: 3 for the classic bulk
    /// chain, larger for the sharded scale rows (`crate::scale`).
    pub switches: usize,
    /// Rules in the plan.
    pub planned: usize,
    /// Rules the controller considered confirmed by the horizon.
    pub confirmed: usize,
    /// Confirmations issued while the rule was *not* in the data plane.
    pub false_acks: usize,
    /// Planned rules never confirmed by the horizon.
    pub missed_acks: usize,
    /// Completion time in ms (update start → last confirmation), when the
    /// update completed.
    pub completion_ms: Option<f64>,
    /// False when the technique's soundness claim does not apply under this
    /// fault model (see [`technique_applicable`]); the cell is then recorded
    /// with zero counts instead of being run.
    pub applicable: bool,
    /// Present only in `restart_resync` cells: the reconciliation outcome.
    pub resync: Option<ResyncVerdict>,
}

impl MatrixCell {
    /// An applicable cell holding the ground-truth judge's counts.
    pub(crate) fn judged(
        driver: &'static str,
        fault: &FaultModel,
        technique: &MatrixTechnique,
        switches: usize,
        verdict: Verdict,
        completion_ms: Option<f64>,
    ) -> MatrixCell {
        MatrixCell {
            driver,
            fault: fault.name.to_string(),
            technique: technique.label(),
            switches,
            planned: verdict.planned as usize,
            confirmed: verdict.confirmed as usize,
            false_acks: verdict.false_acks as usize,
            missed_acks: verdict.missed_acks as usize,
            completion_ms,
            applicable: true,
            resync: None,
        }
    }

    /// The placeholder recorded for a (technique, fault) pair outside the
    /// technique's soundness domain.
    pub fn not_applicable(
        driver: &'static str,
        fault: &FaultModel,
        technique: &MatrixTechnique,
    ) -> MatrixCell {
        MatrixCell {
            applicable: false,
            ..MatrixCell::judged(driver, fault, technique, 3, Verdict::default(), None)
        }
    }

    /// False acknowledgments as a fraction of the plan.
    pub fn false_ack_rate(&self) -> f64 {
        self.false_acks as f64 / self.planned.max(1) as f64
    }

    /// Missed acknowledgments as a fraction of the plan.
    pub fn missed_ack_rate(&self) -> f64 {
        self.missed_acks as f64 / self.planned.max(1) as f64
    }
}

/// Adds a verdict's false and missed acks to the `{prefix}.false_acks` and
/// `{prefix}.missed_acks` counters — the vocabulary live runs use
/// (`matrix.*`, `scale.*`, `soak.*`).
pub(crate) fn count_verdict(registry: &Registry, prefix: &str, verdict: &Verdict) {
    registry
        .counter(&format!("{prefix}.false_acks"))
        .add(verdict.false_acks);
    registry
        .counter(&format!("{prefix}.missed_acks"))
        .add(verdict.missed_acks);
}

/// Judges the device under test's confirmation of every planned cookie
/// against its ground truth; the counts also land in the
/// `matrix.{driver}.{fault}.{technique}.*` counters.  The classic cells all
/// run the 3-switch bulk chain.
#[allow(clippy::too_many_arguments)] // private join of a run's artefacts
fn classify(
    driver: &'static str,
    fault: &FaultModel,
    technique: &MatrixTechnique,
    planned: &[u64],
    confirmations: &HashMap<u64, Duration>,
    truth: &GroundTruth,
    completion_ms: Option<f64>,
    registry: &Registry,
) -> MatrixCell {
    let verdict = Verdict::of(
        planned
            .iter()
            .map(|&cookie| (truth, cookie, confirmations.get(&cookie).copied())),
    );
    let prefix = format!("matrix.{driver}.{}.{}", fault.name, technique.label());
    count_verdict(registry, &prefix, &verdict);
    MatrixCell::judged(driver, fault, technique, 3, verdict, completion_ms)
}

/// When the simulated controller starts pushing the update.
const SIM_START: SimTime = SimTime::from_millis(10);

/// Runs one cell on the simulator driver.
pub fn run_simnet_cell(
    technique: &MatrixTechnique,
    fault: &FaultModel,
    n_rules: usize,
    seed: u64,
) -> MatrixCell {
    run_simnet_cell_with_metrics(technique, fault, n_rules, seed, &Registry::new())
}

/// Like [`run_simnet_cell`], recording the cell's verdict counters into
/// `registry` (metric names `matrix.simnet.{fault}.{technique}.*`).
pub fn run_simnet_cell_with_metrics(
    technique: &MatrixTechnique,
    fault: &FaultModel,
    n_rules: usize,
    seed: u64,
    registry: &Registry,
) -> MatrixCell {
    let mut sim = Simulator::new(seed);
    let scenario = BulkUpdateScenario {
        n_rules,
        packets_per_sec: 0,
        model: fault.model.clone(),
        faults: fault.faults.clone(),
        // Restarted switches come back (only the restart column trips this):
        // the reboot outlives every pre-restart confirmation timer, then the
        // reattach replays the handshake and the proxy re-issues unconfirmed
        // modifications.
        reconnect_delay: Some(restart_reconnect_delay(&fault.model)),
        ..Default::default()
    };
    let net = scenario.build(&mut sim);
    // The device under test is monitored-switch 0, matching the TCP driver
    // (it connects to the proxy first there), so RUM's per-switch xid
    // streams — and with them the ack-loss fault's per-xid decisions — line
    // up across drivers.
    let switches = [net.sw_b, net.sw_a, net.sw_c];
    let window = n_rules.max(1);

    let ack_mode = match technique {
        MatrixTechnique::BarrierOnly => AckMode::Barriers { batch: 1 },
        MatrixTechnique::Rum(_) => AckMode::RumAcks,
    };
    let mut ctrl = Controller::new("ctrl", net.plan.clone(), ack_mode, window, SIM_START);
    if resync_enabled(fault) {
        ctrl.session_mut()
            .set_failure_policy(resync_session_policy(&fault.model));
        let reconciler = ctrl.enable_resync(resync_config(&fault.model));
        reconciler
            .store_mut()
            .note_confirmed(0, &preinstalled_drop_all());
        reconciler.attach_metrics(registry);
    }
    let ctrl_id = sim.add_node(ctrl);
    match technique {
        MatrixTechnique::BarrierOnly => {
            sim.node_mut::<Controller>(ctrl_id)
                .unwrap()
                .set_connections(vec![net.sw_b]);
            sim.node_mut::<OpenFlowSwitch>(net.sw_b)
                .unwrap()
                .connect_controller(ctrl_id);
        }
        MatrixTechnique::Rum(t) => {
            let builder = RumBuilder::new(switches.len()).technique(t.clone());
            let (proxies, _handle) = deploy(&mut sim, builder, ctrl_id, &switches);
            sim.node_mut::<Controller>(ctrl_id)
                .unwrap()
                .set_connections(vec![proxies[0]]);
            for (idx, sw) in switches.iter().enumerate() {
                sim.node_mut::<OpenFlowSwitch>(*sw)
                    .unwrap()
                    .connect_controller(proxies[idx]);
            }
        }
    }

    // A generous horizon; stalled cells (wedged rules, lost acks) simply
    // report missed acks.
    sim.run_until(SimTime::from_secs(90));

    let planned: Vec<u64> = (0..n_rules).map(BulkUpdateScenario::rule_cookie).collect();
    let ctrl = sim.node_ref::<Controller>(ctrl_id).unwrap();
    let confirmations: HashMap<u64, Duration> = ctrl.session().confirmation_times().clone();
    let completion_ms = ctrl
        .completed_at()
        .map(|t| t.saturating_sub(SIM_START).as_millis_f64());
    let truth = sim
        .node_ref::<OpenFlowSwitch>(net.sw_b)
        .unwrap()
        .behavior()
        .ground_truth()
        .clone();
    let mut cell = classify(
        "simnet",
        fault,
        technique,
        &planned,
        &confirmations,
        &truth,
        completion_ms,
        registry,
    );
    if resync_enabled(fault) {
        let entries: Vec<FlowEntry> = sim
            .node_ref::<OpenFlowSwitch>(net.sw_b)
            .unwrap()
            .behavior()
            .control_table()
            .entries()
            .cloned()
            .collect();
        let ctrl = sim.node_ref::<Controller>(ctrl_id).unwrap();
        let reconciler = ctrl.reconciler().expect("resync was enabled");
        cell.resync = Some(resync_verdict(
            reconciler.status(0),
            reconciler.store(),
            &entries,
        ));
    }
    cell
}

/// Port maps of the TCP chain in proxy `SwitchId` space: the device under
/// test connects first (SwitchId 0 = controller `ConnId` 0 = plan target
/// 0), then the upstream helper A (1), then the downstream helper C (2).
/// Ports mirror `controller::scenarios::bulk_ports`: B1 ↔ A2, B2 ↔ C1.
pub(crate) fn tcp_port_maps() -> Vec<SwitchPortMap> {
    let b = SwitchId::new(0);
    let a = SwitchId::new(1);
    let c = SwitchId::new(2);
    let mut map_b = SwitchPortMap::default();
    map_b.port_to_switch.insert(1, a);
    map_b.port_to_switch.insert(2, c);
    map_b.inject_via = Some((a, 2));
    let mut map_a = SwitchPortMap::default();
    map_a.port_to_switch.insert(2, b);
    map_a.inject_via = Some((b, 1));
    let mut map_c = SwitchPortMap::default();
    map_c.port_to_switch.insert(1, b);
    map_c.inject_via = Some((b, 2));
    vec![map_b, map_a, map_c]
}

/// How long a TCP cell may wait for completion before it is recorded as
/// stalled (missed acks).  Scaled for `SwitchModel::fast_buggy` timings.
const TCP_COMPLETION_TIMEOUT: Duration = Duration::from_millis(2_500);

/// Extra wall-clock budget for the reconciliation loop of a
/// `restart_resync` cell after the main session settled: the reattach, up
/// to eight readback rounds and the backoff between them all fit in a small
/// fraction of this — the slack only matters on a loaded CI machine.
const TCP_RESYNC_TIMEOUT: Duration = Duration::from_secs(10);

/// Runs one cell on the real-socket driver: a `TcpUpdateController`, the
/// RUM TCP proxy (for RUM techniques), and fabric-linked switch hosts.
pub fn run_tcp_cell(technique: &MatrixTechnique, fault: &FaultModel, n_rules: usize) -> MatrixCell {
    run_tcp_cell_with_metrics(technique, fault, n_rules, &Registry::new())
}

/// Like [`run_tcp_cell`], recording the cell's verdict counters into
/// `registry` (metric names `matrix.tcp.{fault}.{technique}.*`).
pub fn run_tcp_cell_with_metrics(
    technique: &MatrixTechnique,
    fault: &FaultModel,
    n_rules: usize,
    registry: &Registry,
) -> MatrixCell {
    let scenario = BulkUpdateScenario {
        n_rules,
        packets_per_sec: 0,
        model: fault.model.clone(),
        faults: fault.faults.clone(),
        ..Default::default()
    };
    let plan = scenario.plan();
    let planned: Vec<u64> = (0..n_rules).map(BulkUpdateScenario::rule_cookie).collect();
    let epoch = Instant::now();
    let window = n_rules.max(1);
    let drop_all = preinstalled_drop_all();

    let (ack_mode, n_connections) = match technique {
        MatrixTechnique::BarrierOnly => (AckMode::Barriers { batch: 1 }, 1),
        MatrixTechnique::Rum(_) => (AckMode::RumAcks, 3),
    };
    let mut session = UpdateSession::new(plan, ack_mode, window);
    if resync_enabled(fault) {
        session.set_failure_policy(resync_session_policy(&fault.model));
    }
    let mut ctrl = TcpUpdateController::new_with_epoch(
        "127.0.0.1:0".parse().unwrap(),
        session,
        n_connections,
        epoch,
    );
    if resync_enabled(fault) {
        let reconciler = ctrl.enable_resync(resync_config(&fault.model));
        reconciler.store_mut().note_confirmed(0, &drop_all);
        reconciler.attach_metrics(registry);
    }
    let ctrl_handle = ctrl.start().expect("controller starts");

    let mut proxy_handle = None;
    let switch_target = match technique {
        MatrixTechnique::BarrierOnly => ctrl_handle.local_addr,
        MatrixTechnique::Rum(t) => {
            let proxy = RumTcpProxy::new(
                ProxyConfig {
                    listen_addr: "127.0.0.1:0".parse().unwrap(),
                    controller_addr: ctrl_handle.local_addr,
                },
                RumBuilder::new(3)
                    .technique(t.clone())
                    .port_maps(tcp_port_maps()),
            );
            let handle = proxy.start().expect("proxy starts");
            let addr = handle.local_addr;
            proxy_handle = Some(handle);
            addr
        }
    };

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
        rum_tcp::wait_for(|| ctrl_handle.connections() >= 1, Duration::from_secs(5)),
        "device under test did not reach the controller"
    );
    let mut helpers = Vec::new();
    if matches!(technique, MatrixTechnique::Rum(_)) {
        for (i, helper_idx) in [(2usize, 1usize), (3, 2)] {
            let handle = spawn_switch_with(
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
                rum_tcp::wait_for(|| ctrl_handle.connections() >= i, Duration::from_secs(5)),
                "helper switch {helper_idx} did not reach the controller"
            );
            helpers.push(handle);
        }
    }

    let outcome = ctrl_handle.wait_for_outcome(TCP_COMPLETION_TIMEOUT);
    // In a `restart_resync` cell, the main session settling opens the
    // reconciliation gate; give the readback/delta loop its own budget and
    // snapshot the reconciler's claim plus the desired store before
    // teardown (the table itself is judged from the device's report below).
    let resync_state: Option<(Option<ResyncStatus>, DesiredStore)> = if resync_enabled(fault) {
        ctrl_handle.wait_for_resync(1, TCP_RESYNC_TIMEOUT);
        ctrl_handle.with_reconciler(|r| (r.status(0).cloned(), r.store().clone()))
    } else {
        None
    };
    let (confirmations, completed_at, update_start) = ctrl_handle.with_session(|s| {
        (
            s.confirmation_times().clone(),
            s.completed_at(),
            // The update starts at the first send, not at the process
            // epoch: listener/proxy start-up and switch connect waits must
            // not count towards completion, mirroring how the simnet cell
            // measures from the controller's start instant.
            s.send_times().values().min().copied(),
        )
    });
    let _ = outcome;
    // Tear down: controller first, then the proxy, then the switch hosts
    // (their reports carry the ground truth).
    ctrl_handle.shutdown();
    if let Some(handle) = proxy_handle {
        handle.shutdown();
    }
    dut.stop();
    for h in &helpers {
        h.stop();
    }
    let report = dut.join();
    for h in helpers {
        let _ = h.join();
    }

    let completion_ms = match (completed_at, update_start) {
        (Some(done), Some(start)) => Some(done.saturating_sub(start).as_secs_f64() * 1e3),
        _ => None,
    };
    let mut cell = classify(
        "tcp",
        fault,
        technique,
        &planned,
        &confirmations,
        &report.truth,
        completion_ms,
        registry,
    );
    if let Some((status, store)) = resync_state {
        cell.resync = Some(resync_verdict(
            status.as_ref(),
            &store,
            &report.control_entries,
        ));
    }
    cell
}

/// Runs the full matrix on the simulator driver.
pub fn run_simnet_matrix(n_rules: usize, seed: u64) -> Vec<MatrixCell> {
    run_simnet_matrix_with_metrics(n_rules, seed, &Registry::new())
}

/// Like [`run_simnet_matrix`], accumulating every cell's verdict counters
/// into `registry` — serve it with [`telemetry::serve`] to watch a long
/// sweep fill in live.
pub fn run_simnet_matrix_with_metrics(
    n_rules: usize,
    seed: u64,
    registry: &Registry,
) -> Vec<MatrixCell> {
    let base = SwitchModel::hp5406zl();
    let mut cells = Vec::new();
    for fault in fault_models(&base, seed, n_rules) {
        for technique in MatrixTechnique::all(&base) {
            cells.push(if technique_applicable(&technique, &fault) {
                run_simnet_cell_with_metrics(&technique, &fault, n_rules, seed, registry)
            } else {
                MatrixCell::not_applicable("simnet", &fault, &technique)
            });
        }
    }
    cells
}

/// Runs the full matrix on the real-socket driver (wall-clock time; uses
/// the scaled-down `fast_buggy` model).
pub fn run_tcp_matrix(n_rules: usize, seed: u64) -> Vec<MatrixCell> {
    run_tcp_matrix_with_metrics(n_rules, seed, &Registry::new())
}

/// Like [`run_tcp_matrix`], accumulating every cell's verdict counters
/// into `registry`.
pub fn run_tcp_matrix_with_metrics(
    n_rules: usize,
    seed: u64,
    registry: &Registry,
) -> Vec<MatrixCell> {
    let base = SwitchModel::fast_buggy();
    let mut cells = Vec::new();
    for fault in fault_models(&base, seed, n_rules) {
        for technique in MatrixTechnique::all(&base) {
            cells.push(if technique_applicable(&technique, &fault) {
                run_tcp_cell_with_metrics(&technique, &fault, n_rules, registry)
            } else {
                MatrixCell::not_applicable("tcp", &fault, &technique)
            });
        }
    }
    cells
}

/// Renders the matrix as a fault × technique grid of
/// `false/missed` counts.
pub fn render_grid(cells: &[MatrixCell]) -> String {
    let mut drivers: Vec<&str> = cells.iter().map(|c| c.driver).collect();
    drivers.dedup();
    let mut out = String::new();
    for driver in drivers {
        let rows: Vec<&MatrixCell> = cells.iter().filter(|c| c.driver == driver).collect();
        let mut faults: Vec<&str> = rows.iter().map(|c| c.fault.as_str()).collect();
        faults.dedup();
        let mut techniques: Vec<&str> = rows.iter().map(|c| c.technique.as_str()).collect();
        techniques.sort_unstable();
        techniques.dedup();
        out.push_str(&format!(
            "driver {driver} (false acks / missed acks, n = {}):\n",
            rows.first().map_or(0, |c| c.planned)
        ));
        out.push_str(&format!("{:<22}", "fault \\ technique"));
        for t in &techniques {
            out.push_str(&format!("{t:>16}"));
        }
        out.push('\n');
        for fault in faults {
            out.push_str(&format!("{fault:<22}"));
            for t in &techniques {
                let cell = rows
                    .iter()
                    .find(|c| c.fault == fault && c.technique == *t)
                    .expect("cell exists");
                let rendered = if cell.applicable {
                    format!("{}/{}", cell.false_acks, cell.missed_acks)
                } else {
                    "n/a".to_string()
                };
                out.push_str(&format!("{rendered:>16}"));
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Applicability marks exactly sequential probing × order-violating
    /// adversaries as out of scope; everything else runs everywhere.
    #[test]
    fn applicability_tracks_the_order_preservation_boundary() {
        let base = SwitchModel::hp5406zl();
        let models = fault_models(&base, 42, 10);
        let names: Vec<&str> = models.iter().map(|f| f.name).collect();
        assert_eq!(
            names,
            vec![
                "early_reply",
                "silent_drop",
                "sync_burst",
                "ack_lossdup",
                "restart",
                "restart_resync",
                "early_reply_reordering"
            ]
        );
        assert_eq!(
            models.iter().filter(|f| resync_enabled(f)).count(),
            1,
            "exactly the restart_resync column runs with the reconciler"
        );
        let sequential = MatrixTechnique::Rum(TechniqueConfig::SequentialProbing {
            batch_size: 3,
            probe_interval: Duration::from_millis(10),
        });
        let general = MatrixTechnique::Rum(TechniqueConfig::default_general());
        for fault in &models {
            let seq_ok = technique_applicable(&sequential, fault);
            assert_eq!(
                seq_ok,
                fault.name != "early_reply_reordering",
                "sequential under {}",
                fault.name
            );
            assert!(technique_applicable(&MatrixTechnique::BarrierOnly, fault));
            assert!(technique_applicable(&general, fault));
        }
        assert_eq!(restart_after_mods(10), 5);
        assert_eq!(restart_after_mods(1), 1);
        let reordering = models.last().unwrap();
        assert_eq!(reordering.name, "early_reply_reordering");
        let na = MatrixCell::not_applicable("simnet", reordering, &sequential);
        assert!(!na.applicable);
        assert_eq!(na.planned, 0);
        assert_eq!(na.false_ack_rate(), 0.0);
        assert_eq!(na.resync, None);
    }

    /// Cell verdicts are *driven through* the shared telemetry registry:
    /// the counters under `matrix.*` and the returned `MatrixCell` are the
    /// same numbers by construction.
    #[test]
    fn matrix_counts_flow_through_the_telemetry_registry() {
        let base = SwitchModel::hp5406zl();
        let early = &fault_models(&base, 42, 8)[0];
        let registry = Registry::new();
        let cell =
            run_simnet_cell_with_metrics(&MatrixTechnique::BarrierOnly, early, 8, 42, &registry);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counters["matrix.simnet.early_reply.barrier-only.false_acks"],
            cell.false_acks as u64
        );
        assert_eq!(
            snap.counters["matrix.simnet.early_reply.barrier-only.missed_acks"],
            cell.missed_acks as u64
        );
        // A second run over the same registry accumulates in telemetry but
        // still reports per-run deltas in the cell.
        let again =
            run_simnet_cell_with_metrics(&MatrixTechnique::BarrierOnly, early, 8, 42, &registry);
        assert_eq!(again.false_acks, cell.false_acks);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counters["matrix.simnet.early_reply.barrier-only.false_acks"],
            2 * cell.false_acks as u64
        );
    }

    /// The matrix's load-bearing cells, at reduced scale: the barrier-only
    /// baseline lies under early replies, the probing techniques never do.
    #[test]
    fn simnet_baseline_lies_probing_does_not() {
        let base = SwitchModel::hp5406zl();
        let early = &fault_models(&base, 42, 8)[0];
        assert_eq!(early.name, "early_reply");

        let baseline = run_simnet_cell(&MatrixTechnique::BarrierOnly, early, 8, 42);
        assert!(
            baseline.false_acks > 0,
            "barrier-only must produce false acks under early replies: {baseline:?}"
        );
        assert!(baseline.completion_ms.is_some());

        let general = run_simnet_cell(
            &MatrixTechnique::Rum(TechniqueConfig::default_general()),
            early,
            8,
            42,
        );
        assert_eq!(general.false_acks, 0, "{general:?}");
        assert_eq!(general.missed_acks, 0, "{general:?}");
    }

    /// The restart_resync column end to end on the simulator: a mid-plan
    /// reboot wipes the table, the reconciler reads back, re-issues the
    /// delta and converges — and the verdict's table equality is judged
    /// against the switch's real control table, not the reconciler's claim.
    #[test]
    fn simnet_restart_resync_repairs_the_wiped_table() {
        let base = SwitchModel::hp5406zl();
        let models = fault_models(&base, 42, 8);
        let fault = models.iter().find(|f| f.name == "restart_resync").unwrap();
        let plain_restart = models.iter().find(|f| f.name == "restart").unwrap();
        assert!(resync_enabled(fault) && !resync_enabled(plain_restart));

        let registry = Registry::new();
        let cell =
            run_simnet_cell_with_metrics(&MatrixTechnique::BarrierOnly, fault, 8, 42, &registry);
        let verdict = cell.resync.expect("restart_resync cells carry a verdict");
        assert!(verdict.is_clean(), "verdict: {verdict:?}");
        assert!(
            verdict.delta_mods > 0,
            "confirmed-then-wiped rules must be re-issued: {verdict:?}"
        );
        // The reconciler's observability rides the same registry as the
        // matrix counters.
        let snap = registry.snapshot();
        assert_eq!(snap.gauges["resync.converged"], 1);
        assert_eq!(snap.gauges["resync.final_diff"], 0);

        // A RUM technique converges too: RUM re-issues what was unconfirmed,
        // the reconciler restores what was confirmed-then-wiped.
        let rum = run_simnet_cell(
            &MatrixTechnique::Rum(TechniqueConfig::default_general()),
            fault,
            8,
            42,
        );
        let verdict = rum.resync.expect("verdict present under RUM");
        assert!(verdict.is_clean(), "verdict: {verdict:?}");

        // The plain restart column stays verdict-free.
        let plain = run_simnet_cell(&MatrixTechnique::BarrierOnly, plain_restart, 8, 42);
        assert_eq!(plain.resync, None);
    }

    /// Under the wedged-queue silent-drop fault, the baseline confirms
    /// everything (falsely); probing confirms only what really activated.
    #[test]
    fn simnet_silent_drop_splits_baseline_and_probing() {
        let base = SwitchModel::hp5406zl();
        // Pick a seed whose wedge hits one of the 8 planned cookies.
        let seed = (0..64)
            .find(|&s| {
                let f = FaultPlan::seeded(s).with_silent_drops(3);
                (0..8).any(|i| f.drops_cookie(BulkUpdateScenario::rule_cookie(i)))
            })
            .expect("some seed wedges");
        let models = fault_models(&base, seed, 8);
        let drop = models.iter().find(|f| f.name == "silent_drop").unwrap();

        let baseline = run_simnet_cell(&MatrixTechnique::BarrierOnly, drop, 8, seed);
        assert!(baseline.false_acks > 0, "{baseline:?}");
        assert_eq!(baseline.missed_acks, 0, "early replies confirm everything");

        let sequential = run_simnet_cell(
            &MatrixTechnique::Rum(TechniqueConfig::SequentialProbing {
                batch_size: 3,
                probe_interval: Duration::from_millis(10),
            }),
            drop,
            8,
            seed,
        );
        assert_eq!(sequential.false_acks, 0, "{sequential:?}");
        assert!(
            sequential.missed_acks > 0,
            "wedged rules must stay unconfirmed: {sequential:?}"
        );
    }
}
