//! The sans-IO RUM engine: one deployment-agnostic acknowledgment core.
//!
//! [`RumEngine`] is a pure state machine.  It performs no I/O, owns no
//! sockets, simulator handles or clocks; a *driver* feeds it typed [`Input`]s
//! (decoded OpenFlow messages from either side, timer expiries, clock ticks)
//! together with the current time, and executes the typed [`Effect`]s it
//! returns (messages to send, timers to arm, confirmations to observe).
//!
//! Two drivers ship with the workspace and run the **same** engine:
//!
//! * [`crate::proxy::RumProxy`] — a node for the deterministic discrete-event
//!   simulator (`simnet`); all paper experiments run this way.
//! * `rum-tcp` — a real TCP proxy chain on std sockets, mirroring the paper's
//!   POX prototype.
//!
//! Time is expressed as [`core::time::Duration`] since an arbitrary driver
//! epoch (simulation start, proxy start-up, ...).  The engine only compares
//! and adds times, so any monotonic origin works.
//!
//! ```
//! use rum::{Effect, Input, RumBuilder, TechniqueConfig};
//! use std::time::Duration;
//!
//! let mut engine = RumBuilder::new(1)
//!     .technique(TechniqueConfig::BarrierBaseline)
//!     .build();
//! let effects = engine.start(Duration::ZERO);
//! assert!(effects.is_empty()); // the baseline installs nothing up front
//! ```

use crate::config::{RumConfig, TechniqueConfig};
use crate::general::GeneralProbing;
use crate::probe::catch_rule;
use crate::sequential::SequentialProbing;
use crate::technique::{AckTechnique, TechniqueOutput};
use crate::technique::{AdaptiveDelay, BarrierBaseline, StaticTimeout};
use openflow::messages::FlowMod;
use openflow::{OfMessage, PacketHeader, Xid};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;
use telemetry::{AtomicHistogram, Counter, Gauge, Registry};

/// Transaction ids at or above this value belong to RUM, not the controller.
///
/// Controller messages carrying such an xid are rejected (see
/// [`ProxyStats::rejected_xids`]) instead of being silently misattributed to
/// RUM's own machinery.
pub const PROXY_XID_BASE: Xid = 0x8000_0000;

/// The xid region for probe-catch rules: `CATCH_XID_BASE | (switch << 8) |
/// generation`.  Above every per-switch technique xid stream (which start at
/// `PROXY_XID_BASE + (index + 1) * 0x0001_0000`), and deliberately shard
/// invariant — see `RumEngine::install_catch_rule`.
const CATCH_XID_BASE: Xid = 0xF000_0000;

/// Identifies one monitored switch within a RUM deployment.
///
/// Deployments are free to map these to whatever they like (simulator node
/// ids, TCP connections, datapath ids); inside the engine a `SwitchId` is
/// just a dense index `0..n_switches`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SwitchId(usize);

impl SwitchId {
    /// The `index`-th monitored switch.
    pub const fn new(index: usize) -> Self {
        SwitchId(index)
    }

    /// The dense index within the deployment.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sw{}", self.0)
    }
}

/// An opaque handle to a timer the engine asked its driver to arm.
///
/// Drivers must hand the token back unmodified in [`Input::TimerFired`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken(u64);

impl TimerToken {
    /// The raw value, for drivers that need to serialise tokens (e.g. into a
    /// simulator timer slot).
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Reconstructs a token from [`TimerToken::raw`].
    pub const fn from_raw(raw: u64) -> Self {
        TimerToken(raw)
    }
}

/// Everything a driver can feed into the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum Input {
    /// The controller sent `message` on the connection impersonating
    /// `switch`.
    FromController {
        /// The switch whose connection carried the message.
        switch: SwitchId,
        /// The decoded message.
        message: OfMessage,
    },
    /// Switch `switch` sent `message` towards the controller.
    FromSwitch {
        /// The switch that sent the message.
        switch: SwitchId,
        /// The decoded message.
        message: OfMessage,
    },
    /// A timer previously requested via [`Effect::ArmTimer`] expired.
    TimerFired {
        /// The token from the arming effect.
        token: TimerToken,
    },
    /// Switch `switch` re-established its control channel after a restart
    /// (table wiped, connection dropped).  The engine re-installs its own
    /// rules (probe-catch), re-issues every unconfirmed controller
    /// modification so in-flight update plans converge instead of timing
    /// out, and lets the technique re-arm its confirmation machinery.
    SwitchReconnected {
        /// The switch that reattached.
        switch: SwitchId,
    },
    /// The clock advanced with nothing else to report.  Drivers without
    /// fine-grained timer callbacks may tick periodically; the engine uses
    /// ticks to re-examine deferred work (e.g. barrier releases).
    Tick,
}

/// Everything the engine can ask a driver to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Send `message` to the controller on the connection impersonating
    /// `via`.
    ToController {
        /// The switch identity whose connection carries the message.
        via: SwitchId,
        /// The message to send.
        message: OfMessage,
    },
    /// Send `message` to switch `switch`.
    ToSwitch {
        /// The destination switch.
        switch: SwitchId,
        /// The message to send.
        message: OfMessage,
    },
    /// Send a probe-carrying message (a `PacketOut`) to neighbour `switch`
    /// so the probe enters the data plane there.
    InjectVia {
        /// The neighbouring switch used as injection point.
        switch: SwitchId,
        /// The message to send (on `switch`'s connection).
        message: OfMessage,
    },
    /// Arm a timer: feed [`Input::TimerFired`] with `token` back after
    /// `delay`.
    ArmTimer {
        /// How long to wait.
        delay: Duration,
        /// Token identifying the timer.
        token: TimerToken,
    },
    /// The modification with this cookie on `switch` is now confirmed active
    /// in the data plane.  Purely observational — the matching
    /// acknowledgment messages (fine-grained ack, barrier release) are
    /// emitted as separate [`Effect::ToController`] effects.
    Confirmed {
        /// The switch the rule was installed on.
        switch: SwitchId,
        /// The confirmed modification's cookie.
        cookie: u64,
    },
}

/// Per-switch statistics exposed by the engine — the unified report surface
/// for every deployment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProxyStats {
    /// Flow modifications received from the controller and forwarded.
    pub controller_flow_mods: u64,
    /// Barrier requests received from the controller.
    pub controller_barriers: u64,
    /// Flow modifications RUM originated itself (probe rules).
    pub proxy_flow_mods: u64,
    /// Probe packets injected (PacketOut messages).
    pub probes_injected: u64,
    /// Probe packets captured and consumed.
    pub probes_consumed: u64,
    /// Fine-grained acknowledgments sent to the controller.
    pub acks_sent: u64,
    /// Barrier replies released to the controller.
    pub barrier_replies_released: u64,
    /// Modifications currently awaiting confirmation.
    pub unconfirmed: u64,
    /// Controller messages rejected because their xid collided with RUM's
    /// reserved range (≥ [`PROXY_XID_BASE`]).
    pub rejected_xids: u64,
    /// Switch reconnects the engine re-converged after
    /// ([`Input::SwitchReconnected`]).
    pub reconnects: u64,
    /// Unconfirmed controller modifications re-issued on reconnects.
    pub reissued_flow_mods: u64,
}

impl std::ops::AddAssign for ProxyStats {
    fn add_assign(&mut self, rhs: ProxyStats) {
        self.controller_flow_mods += rhs.controller_flow_mods;
        self.controller_barriers += rhs.controller_barriers;
        self.proxy_flow_mods += rhs.proxy_flow_mods;
        self.probes_injected += rhs.probes_injected;
        self.probes_consumed += rhs.probes_consumed;
        self.acks_sent += rhs.acks_sent;
        self.barrier_replies_released += rhs.barrier_replies_released;
        self.unconfirmed += rhs.unconfirmed;
        self.rejected_xids += rhs.rejected_xids;
        self.reconnects += rhs.reconnects;
        self.reissued_flow_mods += rhs.reissued_flow_mods;
    }
}

/// The telemetry handles behind one switch's [`ProxyStats`].
///
/// Every statistic the engine reports lives in the telemetry [`Registry`]
/// under `rum.sw{i}.*` — [`RumEngine::stats`] *derives* `ProxyStats` from
/// these handles, so a live scrape of the registry and a post-run stats
/// report can never disagree, regardless of which driver runs the engine.
struct SwitchMetrics {
    controller_flow_mods: Arc<Counter>,
    controller_barriers: Arc<Counter>,
    proxy_flow_mods: Arc<Counter>,
    probes_injected: Arc<Counter>,
    probes_consumed: Arc<Counter>,
    /// Probe-marked PacketIns punted for a reason other than a rule's
    /// to-controller action (e.g. a table miss), which prove nothing.
    probes_wrong_reason: Arc<Counter>,
    acks_sent: Arc<Counter>,
    barrier_replies_released: Arc<Counter>,
    rejected_xids: Arc<Counter>,
    reconnects: Arc<Counter>,
    reissued_flow_mods: Arc<Counter>,
    /// Modifications currently awaiting confirmation (mirrors the
    /// `unconfirmed` map for live observers).
    unconfirmed: Arc<Gauge>,
    /// Received-to-confirmed latency per modification, in microseconds.
    confirm_latency_us: Arc<AtomicHistogram>,
}

impl SwitchMetrics {
    fn new(registry: &Registry, switch: SwitchId) -> Self {
        let name = |field: &str| format!("rum.{switch}.{field}");
        SwitchMetrics {
            controller_flow_mods: registry.counter(&name("controller_flow_mods")),
            controller_barriers: registry.counter(&name("controller_barriers")),
            proxy_flow_mods: registry.counter(&name("proxy_flow_mods")),
            probes_injected: registry.counter(&name("probes_injected")),
            probes_consumed: registry.counter(&name("probes_consumed")),
            probes_wrong_reason: registry.counter(&name("probes_wrong_reason")),
            acks_sent: registry.counter(&name("acks_sent")),
            barrier_replies_released: registry.counter(&name("barrier_replies_released")),
            rejected_xids: registry.counter(&name("rejected_xids")),
            reconnects: registry.counter(&name("reconnects")),
            reissued_flow_mods: registry.counter(&name("reissued_flow_mods")),
            unconfirmed: registry.gauge(&name("unconfirmed")),
            confirm_latency_us: registry.histogram(&name("confirm_latency_us")),
        }
    }

    /// Assembles the stats report from the registry counters — the single
    /// place `ProxyStats` is put together for every driver.
    fn to_stats(&self, unconfirmed: u64) -> ProxyStats {
        ProxyStats {
            controller_flow_mods: self.controller_flow_mods.get(),
            controller_barriers: self.controller_barriers.get(),
            proxy_flow_mods: self.proxy_flow_mods.get(),
            probes_injected: self.probes_injected.get(),
            probes_consumed: self.probes_consumed.get(),
            acks_sent: self.acks_sent.get(),
            barrier_replies_released: self.barrier_replies_released.get(),
            unconfirmed,
            rejected_xids: self.rejected_xids.get(),
            reconnects: self.reconnects.get(),
            reissued_flow_mods: self.reissued_flow_mods.get(),
        }
    }
}

/// One confirmation the engine emitted, with the time it happened — the
/// ground-truth accounting hook: an experiment joins these against the
/// switch behaviour's data-plane timeline (`ofswitch::GroundTruth`) to
/// classify each acknowledgment as true or false.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfirmRecord {
    /// The switch the rule was confirmed on.
    pub switch: SwitchId,
    /// The confirmed modification's cookie.
    pub cookie: u64,
    /// When the engine emitted the confirmation (driver epoch).
    pub at: Duration,
}

/// A controller barrier whose reply is being withheld.
///
/// Instead of a cloned set of required cookies the barrier carries a
/// *count*: it was created at event sequence `created_seq`, so it waits for
/// exactly the modifications whose insertion sequence is below that — a
/// cookie resolving decrements every younger barrier.  This keeps barrier
/// creation O(1) where it used to clone the whole `unconfirmed` set.
#[derive(Debug)]
struct PendingBarrier {
    xid: Xid,
    /// Unresolved modifications this barrier still waits for.
    remaining: usize,
    /// Event sequence at creation; covers cookies inserted before it.
    created_seq: u64,
    switch_replied: bool,
}

/// One unconfirmed controller modification: its insertion sequence (for
/// barrier covers), when it arrived (for the confirm-latency histogram),
/// plus the flow-mod body, retained so a switch restart can be healed by
/// re-issuing exactly what the controller asked for.
struct UnconfirmedMod {
    seq: u64,
    received_at: Duration,
    flow_mod: FlowMod,
}

/// Per-monitored-switch engine state.
///
/// Memory stays bounded by the amount of *outstanding* work: resolved
/// cookies decrement the pending barriers' counters instead of accumulating
/// in ever-growing "confirmed" sets, and a confirmation drops the retained
/// flow-mod body, so a long-running deployment (the TCP proxy) does not leak
/// per-modification state.
struct SwitchState {
    technique: Box<dyn AckTechnique>,
    /// Unconfirmed modification cookies → insertion sequence + retained body.
    unconfirmed: HashMap<u64, UnconfirmedMod>,
    /// Per-switch counter ordering unconfirmed insertions and barrier
    /// creations against each other.
    next_event_seq: u64,
    /// How many catch rules were installed on this switch so far (one at
    /// start, one per reconnect) — makes catch-rule xids a pure function of
    /// (switch, generation) so sharded and unsharded engines emit identical
    /// bytes.
    catch_generation: u64,
    pending_barriers: VecDeque<PendingBarrier>,
    buffered: VecDeque<OfMessage>,
    metrics: SwitchMetrics,
}

impl SwitchState {
    fn new(technique: Box<dyn AckTechnique>, metrics: SwitchMetrics) -> Self {
        SwitchState {
            technique,
            unconfirmed: HashMap::new(),
            next_event_seq: 0,
            catch_generation: 0,
            pending_barriers: VecDeque::new(),
            buffered: VecDeque::new(),
            metrics,
        }
    }

    /// Mirrors the unconfirmed-map size into the live gauge.
    fn sync_unconfirmed_gauge(&self) {
        self.metrics.unconfirmed.set(self.unconfirmed.len() as i64);
    }

    /// A cookie inserted at `inserted_seq` is resolved (confirmed or
    /// failed): every barrier created after it stops waiting for it.
    fn resolve_cookie(&mut self, inserted_seq: u64) {
        for b in &mut self.pending_barriers {
            if b.created_seq > inserted_seq {
                b.remaining -= 1;
            }
        }
    }
}

/// The deployment-agnostic RUM core: techniques, reliable barriers,
/// fine-grained acks and probe bookkeeping behind a pure
/// input → effects interface.
///
/// Construct one through [`crate::RumBuilder`].
pub struct RumEngine {
    config: RumConfig,
    switches: Vec<SwitchState>,
    /// The telemetry registry every statistic lives in — the one configured
    /// through [`crate::RumBuilder::metrics`], or a private registry so the
    /// stats surface works identically with telemetry off.
    registry: Arc<Registry>,
    started: bool,
    confirm_log: Vec<ConfirmRecord>,
    /// Reusable buffer for technique outputs, so the per-message hot path
    /// does not allocate.  Taken with `mem::take` around each technique
    /// call; re-entrant calls (buffered-command replay during a barrier
    /// release) fall back to a fresh vector.
    tech_out: Vec<TechniqueOutput>,
}

impl RumEngine {
    /// Creates an engine from a finished configuration.  Prefer
    /// [`crate::RumBuilder`].
    ///
    /// # Panics
    ///
    /// Sequential probing requires every switch's
    /// [`crate::SwitchPortMap`] to name at least one monitored neighbour;
    /// constructing an engine without one panics here (the simulator
    /// [`crate::deploy`] derives the maps from its topology, other
    /// deployments must set them via [`crate::RumBuilder::port_map`]).
    pub fn new(config: RumConfig) -> Self {
        let registry = config
            .metrics
            .clone()
            .unwrap_or_else(|| Arc::new(Registry::new()));
        let switches = (0..config.n_switches())
            .map(|i| {
                let switch = SwitchId::new(i);
                SwitchState::new(
                    build_technique(&config, switch),
                    SwitchMetrics::new(&registry, switch),
                )
            })
            .collect();
        RumEngine {
            config,
            switches,
            registry,
            started: false,
            confirm_log: Vec::new(),
            tech_out: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &RumConfig {
        &self.config
    }

    /// Number of monitored switches.
    pub fn n_switches(&self) -> usize {
        self.switches.len()
    }

    /// All switch ids, in order.
    pub fn switch_ids(&self) -> impl Iterator<Item = SwitchId> {
        (0..self.switches.len()).map(SwitchId::new)
    }

    /// Statistics for one monitored switch, derived from the telemetry
    /// registry (see [`RumEngine::metrics`]).
    pub fn stats(&self, switch: SwitchId) -> ProxyStats {
        let s = &self.switches[switch.index()];
        s.metrics.to_stats(s.unconfirmed.len() as u64)
    }

    /// Total statistics summed over all monitored switches — the one
    /// assembly point every driver reports through.
    pub fn total_stats(&self) -> ProxyStats {
        let mut total = ProxyStats::default();
        for switch in 0..self.switches.len() {
            total += self.stats(SwitchId::new(switch));
        }
        total
    }

    /// The telemetry registry the engine's statistics live in: the one
    /// passed to [`crate::RumBuilder::metrics`], or a private registry
    /// created at construction.  Serve it with `telemetry::serve` to watch
    /// a running deployment.
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The technique name running for `switch`.
    pub fn technique_name(&self, switch: SwitchId) -> &'static str {
        self.switches[switch.index()].technique.name()
    }

    /// Every confirmation the engine has emitted, in order.  Empty when
    /// recording is disabled ([`crate::RumBuilder::record_confirmations`]).
    pub fn confirmed_order(&self) -> Vec<(SwitchId, u64)> {
        self.confirm_log
            .iter()
            .map(|r| (r.switch, r.cookie))
            .collect()
    }

    /// Every confirmation with its emission time — the ground-truth
    /// accounting hook (see [`ConfirmRecord`]).
    pub fn confirmations(&self) -> &[ConfirmRecord] {
        &self.confirm_log
    }

    /// Starts the engine: installs probe-catch rules (for probing
    /// techniques) and lets every technique arm its initial timers.
    /// Idempotent — a second call returns no effects.
    pub fn start(&mut self, now: Duration) -> Vec<Effect> {
        let mut effects = Vec::new();
        if self.started {
            return effects;
        }
        self.started = true;
        for i in 0..self.switches.len() {
            // A sharded instance acts only for the switches it owns; its
            // peers install the catch rules of theirs.
            if !self.config.owns_index(i) {
                continue;
            }
            let switch = SwitchId::new(i);
            // Install the probe-catch rule on every switch when any probing
            // technique is active (general probing needs catch rules on
            // neighbours of the probed switch, so install everywhere).
            if self.config.technique.is_probing() {
                self.install_catch_rule(switch, &mut effects);
            }
            let mut out = std::mem::take(&mut self.tech_out);
            self.switches[i].technique.start(now, &mut out);
            self.apply_outputs(switch, &mut out, now, &mut effects);
            self.tech_out = out;
        }
        effects
    }

    /// Feeds one input into the engine and returns the effects the driver
    /// must execute, in order.  Allocates a fresh effects vector per call;
    /// hot-path drivers should prefer [`RumEngine::handle_into`].
    pub fn handle(&mut self, now: Duration, input: Input) -> Vec<Effect> {
        let mut effects = Vec::new();
        self.handle_into(now, input, &mut effects);
        effects
    }

    /// Feeds one input into the engine, *appending* the effects the driver
    /// must execute (in order) to a caller-owned buffer.
    ///
    /// The buffer is not cleared: a driver drains several inputs into one
    /// buffer, executes everything in a single batch (one socket write per
    /// destination), then clears and reuses the buffer — no per-input
    /// allocation.
    pub fn handle_into(&mut self, now: Duration, input: Input, effects: &mut Vec<Effect>) {
        match input {
            Input::FromController { switch, message } => {
                self.on_controller_msg(switch, message, now, effects);
            }
            Input::FromSwitch { switch, message } => {
                self.on_switch_msg(switch, message, now, effects);
            }
            Input::TimerFired { token } => {
                self.on_timer(token, now, effects);
            }
            Input::SwitchReconnected { switch } => {
                self.on_switch_reconnected(switch, now, effects);
            }
            Input::Tick => {
                // Nothing is time-deferred outside timers today; re-examine
                // barrier releases so drivers may tick instead of tracking
                // fine-grained timers for liveness.
                for i in 0..self.switches.len() {
                    self.try_release_barriers(SwitchId::new(i), now, effects);
                }
            }
        }
    }

    /// Feeds a batch of inputs sharing one timestamp, appending all effects
    /// to `effects` in input order — the multi-input drain used after one
    /// socket read decodes several messages.
    pub fn drain_into(
        &mut self,
        now: Duration,
        inputs: impl IntoIterator<Item = Input>,
        effects: &mut Vec<Effect>,
    ) {
        for input in inputs {
            self.handle_into(now, input, effects);
        }
    }

    /// Installs the probe-catch rule on `switch`.  The xid (and thus the
    /// rule's cookie, hashed by fault plans) is a pure function of the
    /// switch and its catch generation — not of a shared counter — so a
    /// sharded deployment emits byte-identical catch rules to the unsharded
    /// oracle regardless of which shard owns the switch.
    fn install_catch_rule(&mut self, switch: SwitchId, effects: &mut Vec<Effect>) {
        let i = switch.index();
        let generation = self.switches[i].catch_generation;
        self.switches[i].catch_generation += 1;
        let xid = CATCH_XID_BASE | ((i as Xid) << 8) | (generation as Xid & 0xFF);
        let fm = catch_rule(self.config.probe_plan.catch_tos(switch), u64::from(xid));
        self.switches[i].metrics.proxy_flow_mods.inc();
        effects.push(Effect::ToSwitch {
            switch,
            message: OfMessage::FlowMod { xid, body: fm },
        });
    }

    // ------------------------------------------------------------------
    // Controller-side messages
    // ------------------------------------------------------------------

    fn on_controller_msg(
        &mut self,
        switch: SwitchId,
        msg: OfMessage,
        now: Duration,
        effects: &mut Vec<Effect>,
    ) {
        // xids at or above PROXY_XID_BASE are reserved for RUM's own
        // messages; a controller using them would have its replies swallowed
        // or misattributed.  Reject loudly instead.
        if msg.xid() >= PROXY_XID_BASE {
            self.switches[switch.index()].metrics.rejected_xids.inc();
            effects.push(Effect::ToController {
                via: switch,
                message: OfMessage::Error {
                    xid: msg.xid(),
                    body: openflow::messages::ErrorMsg {
                        err_type: openflow::constants::error_type::BAD_REQUEST,
                        code: 0,
                        data: b"RUM: xid >= 0x80000000 is reserved by the proxy".to_vec(),
                    },
                },
            });
            return;
        }
        if self.config.buffer_across_barriers
            && !self.switches[switch.index()].pending_barriers.is_empty()
            && !is_liveness_msg(&msg)
        {
            // Ordered commands after an unconfirmed barrier are held back so
            // a reordering switch cannot let later commands overtake it.
            // Liveness traffic (hello, echo) has no ordering relationship
            // with rule modifications and passes straight through — holding
            // an echo behind a slow barrier would trip keepalive timers on
            // real switches.
            self.switches[switch.index()].buffered.push_back(msg);
            return;
        }
        self.process_controller_msg(switch, msg, now, effects);
    }

    fn process_controller_msg(
        &mut self,
        switch: SwitchId,
        msg: OfMessage,
        now: Duration,
        effects: &mut Vec<Effect>,
    ) {
        let i = switch.index();
        match msg {
            OfMessage::FlowMod { xid, ref body } => {
                let id = u64::from(xid);
                let state = &mut self.switches[i];
                state.metrics.controller_flow_mods.inc();
                // Record the insertion sequence so later barriers know they
                // cover this modification (fresh cookies only: a re-sent
                // unconfirmed cookie keeps its original position), and
                // retain the body so a switch restart can re-issue it.
                let seq = state.next_event_seq;
                if let std::collections::hash_map::Entry::Vacant(e) = state.unconfirmed.entry(id) {
                    e.insert(UnconfirmedMod {
                        seq,
                        received_at: now,
                        flow_mod: body.clone(),
                    });
                    state.next_event_seq += 1;
                    state.sync_unconfirmed_gauge();
                }
                // Run the technique on the borrowed body first, then move
                // the message into the forwarding effect — no clone.
                let mut out = std::mem::take(&mut self.tech_out);
                self.switches[i]
                    .technique
                    .on_flow_mod(id, body, now, &mut out);
                effects.push(Effect::ToSwitch {
                    switch,
                    message: msg,
                });
                self.apply_outputs(switch, &mut out, now, effects);
                self.tech_out = out;
            }
            OfMessage::BarrierRequest { xid } => {
                self.switches[i].metrics.controller_barriers.inc();
                if self.config.reliable_barriers {
                    let state = &mut self.switches[i];
                    let created_seq = state.next_event_seq;
                    state.next_event_seq += 1;
                    state.pending_barriers.push_back(PendingBarrier {
                        xid,
                        remaining: state.unconfirmed.len(),
                        created_seq,
                        switch_replied: false,
                    });
                    // Still forward the barrier so the switch's own ordering
                    // machinery (such as it is) stays engaged.
                    effects.push(Effect::ToSwitch {
                        switch,
                        message: OfMessage::BarrierRequest { xid },
                    });
                    self.try_release_barriers(switch, now, effects);
                } else {
                    effects.push(Effect::ToSwitch {
                        switch,
                        message: OfMessage::BarrierRequest { xid },
                    });
                }
            }
            other => {
                effects.push(Effect::ToSwitch {
                    switch,
                    message: other,
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Switch-side messages
    // ------------------------------------------------------------------

    fn on_switch_msg(
        &mut self,
        switch: SwitchId,
        msg: OfMessage,
        now: Duration,
        effects: &mut Vec<Effect>,
    ) {
        let i = switch.index();
        match msg {
            OfMessage::BarrierReply { xid } => {
                if xid >= PROXY_XID_BASE {
                    let mut out = std::mem::take(&mut self.tech_out);
                    self.switches[i]
                        .technique
                        .on_switch_barrier_reply(xid, now, &mut out);
                    self.apply_outputs(switch, &mut out, now, effects);
                    self.tech_out = out;
                } else if self.config.reliable_barriers {
                    if let Some(b) = self.switches[i]
                        .pending_barriers
                        .iter_mut()
                        .find(|b| b.xid == xid)
                    {
                        b.switch_replied = true;
                    }
                    self.try_release_barriers(switch, now, effects);
                } else {
                    effects.push(Effect::ToController {
                        via: switch,
                        message: OfMessage::BarrierReply { xid },
                    });
                }
            }
            OfMessage::PacketIn { ref body, .. } => {
                match PacketHeader::from_bytes(&body.data) {
                    Ok(header) if self.config.probe_plan.is_probe_tos(header.nw_tos) => {
                        // Only a punt performed by a rule's explicit
                        // to-controller action can vouch for the data plane:
                        // a probe-marked packet punted for a *table miss*
                        // (e.g. a restarted switch whose wiped table no
                        // longer holds even the drop-all rule) proves
                        // nothing and must not be mistaken for a probe
                        // return.  Either way the packet is RUM's own and
                        // never reaches the controller.
                        if body.reason != openflow::constants::packet_in_reason::ACTION {
                            if self.config.owns(switch) {
                                self.switches[i].metrics.probes_wrong_reason.inc();
                            }
                            return;
                        }
                        // Probe PacketIns are the one input a sharded driver
                        // broadcasts (any switch's probe may return via any
                        // neighbour); the arrival switch's owner alone
                        // accounts for the consumption.
                        if self.config.owns(switch) {
                            self.switches[i].metrics.probes_consumed.inc();
                        }
                        // Probes may belong to any monitored switch's
                        // technique; each technique ignores probes that are
                        // not its own, and each shard runs only the
                        // techniques of switches it owns.
                        for s in 0..self.switches.len() {
                            if !self.config.owns_index(s) {
                                continue;
                            }
                            let mut out = std::mem::take(&mut self.tech_out);
                            self.switches[s]
                                .technique
                                .on_probe_packet(&header, now, &mut out);
                            self.apply_outputs(SwitchId::new(s), &mut out, now, effects);
                            self.tech_out = out;
                        }
                    }
                    _ => effects.push(Effect::ToController {
                        via: switch,
                        message: msg,
                    }),
                }
            }
            OfMessage::Error { xid, .. } => {
                if xid >= PROXY_XID_BASE {
                    // One of RUM's own rules failed; nothing sensible to tell
                    // the controller.  The technique will fall back on
                    // timeouts (probes simply never return).
                } else {
                    // A controller modification failed: the rule will never
                    // appear in the data plane, so treat it as resolved for
                    // barrier purposes, stop the technique's work on it and
                    // pass the error through.
                    let id = u64::from(xid);
                    let state = &mut self.switches[i];
                    if let Some(m) = state.unconfirmed.remove(&id) {
                        state.resolve_cookie(m.seq);
                        state.sync_unconfirmed_gauge();
                        state.technique.on_flow_mod_rejected(id);
                    }
                    effects.push(Effect::ToController {
                        via: switch,
                        message: msg,
                    });
                    self.try_release_barriers(switch, now, effects);
                }
            }
            other => effects.push(Effect::ToController {
                via: switch,
                message: other,
            }),
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// The token encodes which switch's technique armed the timer.
    fn on_timer(&mut self, token: TimerToken, now: Duration, effects: &mut Vec<Effect>) {
        let raw = token.raw();
        let switch = (raw >> 48) as usize;
        let tech_token = raw & 0x0000_FFFF_FFFF_FFFF;
        if switch >= self.switches.len() {
            return;
        }
        let mut out = std::mem::take(&mut self.tech_out);
        self.switches[switch]
            .technique
            .on_timer(tech_token, now, &mut out);
        self.apply_outputs(SwitchId::new(switch), &mut out, now, effects);
        self.tech_out = out;
    }

    // ------------------------------------------------------------------
    // Reconnect re-convergence
    // ------------------------------------------------------------------

    /// A restarted switch reattached: the restart wiped its tables (the
    /// catch rule, probe rules, and every not-yet-synced controller rule),
    /// so the engine rebuilds its side of the world on the fresh channel:
    ///
    /// 1. re-install the probe-catch rule (probing techniques);
    /// 2. re-issue every unconfirmed controller modification, oldest first
    ///    — confirmed rules were acknowledged while demonstrably in the
    ///    data plane and are the controller's to re-plan, but unconfirmed
    ///    ones are still RUM's promise to resolve;
    /// 3. re-forward every withheld controller barrier the switch never
    ///    answered — the original requests died with the channel, and a
    ///    reliable barrier releases only once the switch's own reply has
    ///    arrived *and* its covered modifications confirmed;
    /// 4. let the technique re-arm (fresh barriers, re-versioned probe
    ///    rule) so the re-issued modifications actually confirm.
    fn on_switch_reconnected(
        &mut self,
        switch: SwitchId,
        now: Duration,
        effects: &mut Vec<Effect>,
    ) {
        let i = switch.index();
        if i >= self.switches.len() {
            return;
        }
        self.switches[i].metrics.reconnects.inc();
        if self.config.technique.is_probing() {
            self.install_catch_rule(switch, effects);
        }
        let mut pending: Vec<(u64, u64)> = self.switches[i]
            .unconfirmed
            .iter()
            .map(|(&cookie, m)| (m.seq, cookie))
            .collect();
        pending.sort_unstable();
        for (_, cookie) in pending {
            let body = self.switches[i].unconfirmed[&cookie].flow_mod.clone();
            self.switches[i].metrics.reissued_flow_mods.inc();
            effects.push(Effect::ToSwitch {
                switch,
                message: OfMessage::FlowMod {
                    xid: cookie as Xid,
                    body,
                },
            });
        }
        let unanswered: Vec<Xid> = self.switches[i]
            .pending_barriers
            .iter()
            .filter(|b| !b.switch_replied)
            .map(|b| b.xid)
            .collect();
        for xid in unanswered {
            effects.push(Effect::ToSwitch {
                switch,
                message: OfMessage::BarrierRequest { xid },
            });
        }
        let mut out = std::mem::take(&mut self.tech_out);
        self.switches[i]
            .technique
            .on_switch_reconnected(now, &mut out);
        self.apply_outputs(switch, &mut out, now, effects);
        self.tech_out = out;
    }

    // ------------------------------------------------------------------
    // Technique output handling
    // ------------------------------------------------------------------

    fn apply_outputs(
        &mut self,
        switch: SwitchId,
        outputs: &mut Vec<TechniqueOutput>,
        now: Duration,
        effects: &mut Vec<Effect>,
    ) {
        let i = switch.index();
        for output in outputs.drain(..) {
            match output {
                TechniqueOutput::Confirm(cookie) => self.confirm(switch, cookie, now, effects),
                TechniqueOutput::ToSwitch(message) => {
                    if matches!(message, OfMessage::FlowMod { .. }) {
                        self.switches[i].metrics.proxy_flow_mods.inc();
                    }
                    effects.push(Effect::ToSwitch { switch, message });
                }
                TechniqueOutput::InjectVia { switch: via, msg } => {
                    self.switches[i].metrics.probes_injected.inc();
                    effects.push(Effect::InjectVia {
                        switch: via,
                        message: msg,
                    });
                }
                TechniqueOutput::SetTimer { delay, token } => {
                    let encoded = ((i as u64) << 48) | token;
                    effects.push(Effect::ArmTimer {
                        delay,
                        token: TimerToken::from_raw(encoded),
                    });
                }
            }
        }
    }

    fn confirm(&mut self, switch: SwitchId, cookie: u64, now: Duration, effects: &mut Vec<Effect>) {
        let i = switch.index();
        let state = &mut self.switches[i];
        let Some(m) = state.unconfirmed.remove(&cookie) else {
            return;
        };
        state.resolve_cookie(m.seq);
        state.sync_unconfirmed_gauge();
        state
            .metrics
            .confirm_latency_us
            .record(now.saturating_sub(m.received_at).as_micros() as u64);
        if self.config.record_confirmations {
            self.confirm_log.push(ConfirmRecord {
                switch,
                cookie,
                at: now,
            });
        }
        effects.push(Effect::Confirmed { switch, cookie });
        if self.config.fine_grained_acks {
            let state = &mut self.switches[i];
            state.metrics.acks_sent.inc();
            effects.push(Effect::ToController {
                via: switch,
                message: OfMessage::rum_ack(cookie as Xid),
            });
        }
        self.try_release_barriers(switch, now, effects);
    }

    fn try_release_barriers(&mut self, switch: SwitchId, now: Duration, effects: &mut Vec<Effect>) {
        let i = switch.index();
        loop {
            let state = &mut self.switches[i];
            let Some(front) = state.pending_barriers.front() else {
                break;
            };
            if !(front.switch_replied && front.remaining == 0) {
                break;
            }
            let barrier = state.pending_barriers.pop_front().expect("front exists");
            state.metrics.barrier_replies_released.inc();
            effects.push(Effect::ToController {
                via: switch,
                message: OfMessage::BarrierReply { xid: barrier.xid },
            });
            // Release buffered commands until the next barrier becomes
            // pending (or the buffer drains).
            if self.config.buffer_across_barriers {
                while self.switches[i].pending_barriers.is_empty() {
                    let Some(msg) = self.switches[i].buffered.pop_front() else {
                        break;
                    };
                    self.process_controller_msg(switch, msg, now, effects);
                }
            }
        }
    }
}

impl fmt::Debug for RumEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RumEngine")
            .field("technique", &self.config.technique.label())
            .field("n_switches", &self.switches.len())
            .field("started", &self.started)
            .field("confirmed", &self.confirm_log.len())
            .finish()
    }
}

/// Messages with no ordering relationship to rule modifications; they are
/// never held back by the cross-barrier buffer.
fn is_liveness_msg(msg: &OfMessage) -> bool {
    matches!(
        msg,
        OfMessage::Hello { .. } | OfMessage::EchoRequest { .. } | OfMessage::EchoReply { .. }
    )
}

fn build_technique(config: &RumConfig, switch: SwitchId) -> Box<dyn AckTechnique> {
    let xid_base = PROXY_XID_BASE + (switch.index() as u32 + 1) * 0x0001_0000;
    match &config.technique {
        TechniqueConfig::BarrierBaseline => Box::new(BarrierBaseline::new(xid_base)),
        TechniqueConfig::StaticTimeout { delay } => Box::new(StaticTimeout::new(*delay, xid_base)),
        TechniqueConfig::AdaptiveDelay {
            assumed_rate,
            assumed_sync_lag,
        } => Box::new(AdaptiveDelay::new(*assumed_rate, *assumed_sync_lag)),
        TechniqueConfig::SequentialProbing {
            batch_size,
            probe_interval,
        } => Box::new(SequentialProbing::new(
            switch,
            *batch_size,
            *probe_interval,
            config.probe_plan.clone(),
            config.port_maps[switch.index()].clone(),
            xid_base,
        )),
        TechniqueConfig::GeneralProbing {
            probe_interval,
            max_outstanding,
            fallback_delay,
        } => {
            let mut t = GeneralProbing::new(
                switch,
                *probe_interval,
                *max_outstanding,
                *fallback_delay,
                config.probe_plan.clone(),
                config.port_maps[switch.index()].clone(),
                xid_base,
            );
            // Every experiment pre-installs a low-priority drop-all rule;
            // seed the table model so probe synthesis sees it.
            t.seed_known_rule(openflow::OfMatch::wildcard_all(), 0, vec![]);
            Box::new(t)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RumBuilder, SwitchPortMap};
    use openflow::messages::FlowMod;
    use openflow::{Action, OfMatch};
    use std::net::Ipv4Addr;

    fn engine(technique: TechniqueConfig) -> RumEngine {
        RumBuilder::new(1).technique(technique).build()
    }

    fn flow_mod(xid: Xid) -> OfMessage {
        OfMessage::FlowMod {
            xid,
            body: FlowMod::add(
                OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 1, 0, 1)),
                100,
                vec![Action::output(2)],
            ),
        }
    }

    #[test]
    fn baseline_flow_mod_round_trip_confirms() {
        let mut e = engine(TechniqueConfig::BarrierBaseline);
        let sw = SwitchId::new(0);
        assert!(e.start(Duration::ZERO).is_empty());

        let effects = e.handle(
            Duration::ZERO,
            Input::FromController {
                switch: sw,
                message: flow_mod(42),
            },
        );
        // Forwarded flow-mod + a proxy barrier.
        let barrier_xid = effects
            .iter()
            .find_map(|eff| match eff {
                Effect::ToSwitch {
                    message: OfMessage::BarrierRequest { xid },
                    ..
                } => Some(*xid),
                _ => None,
            })
            .expect("proxy barrier injected");
        assert!(barrier_xid >= PROXY_XID_BASE);
        assert!(matches!(
            effects[0],
            Effect::ToSwitch {
                message: OfMessage::FlowMod { xid: 42, .. },
                ..
            }
        ));
        assert_eq!(e.stats(sw).unconfirmed, 1);

        let effects = e.handle(
            Duration::from_millis(1),
            Input::FromSwitch {
                switch: sw,
                message: OfMessage::BarrierReply { xid: barrier_xid },
            },
        );
        assert!(effects.contains(&Effect::Confirmed {
            switch: sw,
            cookie: 42
        }));
        assert!(effects.iter().any(|eff| matches!(
            eff,
            Effect::ToController { message, .. } if message.as_rum_ack() == Some(42)
        )));
        assert_eq!(e.stats(sw).unconfirmed, 0);
        assert_eq!(e.stats(sw).acks_sent, 1);
        assert_eq!(e.confirmed_order(), vec![(sw, 42)]);
        assert_eq!(e.confirmations()[0].cookie, 42);
        assert_eq!(e.confirmations()[0].at, Duration::from_millis(1));
    }

    #[test]
    fn static_timeout_defers_until_timer() {
        let mut e = engine(TechniqueConfig::StaticTimeout {
            delay: Duration::from_millis(300),
        });
        let sw = SwitchId::new(0);
        e.start(Duration::ZERO);
        let effects = e.handle(
            Duration::ZERO,
            Input::FromController {
                switch: sw,
                message: flow_mod(7),
            },
        );
        let barrier_xid = effects
            .iter()
            .find_map(|eff| match eff {
                Effect::ToSwitch {
                    message: OfMessage::BarrierRequest { xid },
                    ..
                } => Some(*xid),
                _ => None,
            })
            .unwrap();
        let effects = e.handle(
            Duration::from_millis(5),
            Input::FromSwitch {
                switch: sw,
                message: OfMessage::BarrierReply { xid: barrier_xid },
            },
        );
        let (delay, token) = effects
            .iter()
            .find_map(|eff| match eff {
                Effect::ArmTimer { delay, token } => Some((*delay, *token)),
                _ => None,
            })
            .expect("timer armed");
        assert_eq!(delay, Duration::from_millis(300));
        assert!(!effects
            .iter()
            .any(|eff| matches!(eff, Effect::Confirmed { .. })));

        let effects = e.handle(Duration::from_millis(305), Input::TimerFired { token });
        assert!(effects.contains(&Effect::Confirmed {
            switch: sw,
            cookie: 7
        }));
    }

    #[test]
    fn reserved_xid_from_controller_is_rejected() {
        let mut e = engine(TechniqueConfig::BarrierBaseline);
        let sw = SwitchId::new(0);
        e.start(Duration::ZERO);
        let effects = e.handle(
            Duration::ZERO,
            Input::FromController {
                switch: sw,
                message: flow_mod(PROXY_XID_BASE + 5),
            },
        );
        // Not forwarded, answered with an error instead.
        assert!(!effects
            .iter()
            .any(|eff| matches!(eff, Effect::ToSwitch { .. })));
        let err = effects
            .iter()
            .find_map(|eff| match eff {
                Effect::ToController {
                    message: OfMessage::Error { xid, body },
                    ..
                } => Some((*xid, body.err_type)),
                _ => None,
            })
            .expect("rejection error sent");
        assert_eq!(err.0, PROXY_XID_BASE + 5);
        assert_eq!(err.1, openflow::constants::error_type::BAD_REQUEST);
        assert_eq!(e.stats(sw).rejected_xids, 1);
        assert_eq!(e.stats(sw).controller_flow_mods, 0);
        assert_eq!(e.stats(sw).unconfirmed, 0);
    }

    #[test]
    fn reliable_barrier_is_held_until_confirmation() {
        let mut e = engine(TechniqueConfig::StaticTimeout {
            delay: Duration::from_millis(100),
        });
        let sw = SwitchId::new(0);
        e.start(Duration::ZERO);
        let effects = e.handle(
            Duration::ZERO,
            Input::FromController {
                switch: sw,
                message: flow_mod(9),
            },
        );
        let proxy_barrier = effects
            .iter()
            .find_map(|eff| match eff {
                Effect::ToSwitch {
                    message: OfMessage::BarrierRequest { xid },
                    ..
                } => Some(*xid),
                _ => None,
            })
            .unwrap();
        // Controller barrier arrives; reply must be withheld.
        let effects = e.handle(
            Duration::from_millis(1),
            Input::FromController {
                switch: sw,
                message: OfMessage::BarrierRequest { xid: 77 },
            },
        );
        assert!(!effects.iter().any(|eff| matches!(
            eff,
            Effect::ToController {
                message: OfMessage::BarrierReply { .. },
                ..
            }
        )));
        // Switch replies to both barriers; still no release (timer pending).
        e.handle(
            Duration::from_millis(2),
            Input::FromSwitch {
                switch: sw,
                message: OfMessage::BarrierReply { xid: proxy_barrier },
            },
        );
        let effects = e.handle(
            Duration::from_millis(2),
            Input::FromSwitch {
                switch: sw,
                message: OfMessage::BarrierReply { xid: 77 },
            },
        );
        assert!(!effects.iter().any(|eff| matches!(
            eff,
            Effect::ToController {
                message: OfMessage::BarrierReply { .. },
                ..
            }
        )));
        // The timeout fires -> cookie 9 confirms -> barrier 77 releases.
        let token = TimerToken::from_raw(0); // switch 0, technique token 0
        let effects = e.handle(Duration::from_millis(102), Input::TimerFired { token });
        assert!(effects.contains(&Effect::Confirmed {
            switch: sw,
            cookie: 9
        }));
        assert!(effects.iter().any(|eff| matches!(
            eff,
            Effect::ToController {
                message: OfMessage::BarrierReply { xid: 77 },
                ..
            }
        )));
        assert_eq!(e.stats(sw).barrier_replies_released, 1);
    }

    #[test]
    fn buffered_commands_replay_with_current_time_not_zero() {
        // Adaptive delay is the time-sensitive technique: if a buffered
        // flow-mod were replayed with now = 0 after a barrier release, its
        // confirmation timer would stretch to the absolute elapsed time.
        let mut e = RumBuilder::new(1)
            .technique(TechniqueConfig::AdaptiveDelay {
                assumed_rate: 100.0, // 10 ms per modification
                assumed_sync_lag: Duration::ZERO,
            })
            .buffer_across_barriers(true)
            .build();
        let sw = SwitchId::new(0);
        e.start(Duration::ZERO);
        e.handle(
            Duration::ZERO,
            Input::FromController {
                switch: sw,
                message: flow_mod(5),
            },
        );
        e.handle(
            Duration::from_millis(1),
            Input::FromController {
                switch: sw,
                message: OfMessage::BarrierRequest { xid: 50 },
            },
        );
        // Arrives behind the pending barrier: buffered.
        let fx = e.handle(
            Duration::from_millis(2),
            Input::FromController {
                switch: sw,
                message: flow_mod(6),
            },
        );
        assert!(fx.is_empty(), "flow-mod behind a barrier must be buffered");
        e.handle(
            Duration::from_millis(3),
            Input::FromSwitch {
                switch: sw,
                message: OfMessage::BarrierReply { xid: 50 },
            },
        );
        // Cookie 5's adaptive timer fires at t = 10 ms; the barrier releases
        // and the buffered flow-mod 6 replays *at t = 10 ms*: its adaptive
        // estimate is 10 ms out (virtual clock 20 ms minus now), not 20 ms
        // (which would mean it was replayed with now = 0).
        let fx = e.handle(
            Duration::from_millis(10),
            Input::TimerFired {
                token: TimerToken::from_raw(0),
            },
        );
        assert!(fx.contains(&Effect::Confirmed {
            switch: sw,
            cookie: 5
        }));
        let replay_delay = fx
            .iter()
            .find_map(|eff| match eff {
                Effect::ArmTimer { delay, .. } => Some(*delay),
                _ => None,
            })
            .expect("replayed flow-mod arms its adaptive timer");
        assert_eq!(replay_delay, Duration::from_millis(10));
    }

    #[test]
    fn liveness_traffic_bypasses_the_barrier_buffer() {
        let mut e = RumBuilder::new(1)
            .technique(TechniqueConfig::StaticTimeout {
                delay: Duration::from_secs(1),
            })
            .buffer_across_barriers(true)
            .build();
        let sw = SwitchId::new(0);
        e.start(Duration::ZERO);
        e.handle(
            Duration::ZERO,
            Input::FromController {
                switch: sw,
                message: flow_mod(1),
            },
        );
        e.handle(
            Duration::ZERO,
            Input::FromController {
                switch: sw,
                message: OfMessage::BarrierRequest { xid: 9 },
            },
        );
        // An echo behind the pending barrier must pass straight through —
        // holding it would trip the switch's keepalive.
        let fx = e.handle(
            Duration::from_millis(1),
            Input::FromController {
                switch: sw,
                message: OfMessage::EchoRequest {
                    xid: 2,
                    data: vec![1],
                },
            },
        );
        assert_eq!(
            fx,
            vec![Effect::ToSwitch {
                switch: sw,
                message: OfMessage::EchoRequest {
                    xid: 2,
                    data: vec![1],
                },
            }]
        );
        // A flow-mod is still buffered.
        let fx = e.handle(
            Duration::from_millis(2),
            Input::FromController {
                switch: sw,
                message: flow_mod(3),
            },
        );
        assert!(fx.is_empty());
    }

    /// A reconnect re-issues exactly the unconfirmed modifications (oldest
    /// first) and re-arms the technique; confirmed ones stay resolved, and
    /// the re-issued ones confirm through the fresh barrier.
    #[test]
    fn reconnect_reissues_unconfirmed_and_rearms() {
        let mut e = engine(TechniqueConfig::BarrierBaseline);
        let sw = SwitchId::new(0);
        e.start(Duration::ZERO);
        let fx = e.handle(
            Duration::ZERO,
            Input::FromController {
                switch: sw,
                message: flow_mod(1),
            },
        );
        let first_barrier = fx
            .iter()
            .find_map(|eff| match eff {
                Effect::ToSwitch {
                    message: OfMessage::BarrierRequest { xid },
                    ..
                } => Some(*xid),
                _ => None,
            })
            .unwrap();
        e.handle(
            Duration::from_millis(1),
            Input::FromController {
                switch: sw,
                message: flow_mod(2),
            },
        );
        e.handle(
            Duration::from_millis(1),
            Input::FromController {
                switch: sw,
                message: flow_mod(3),
            },
        );
        // Cookie 1 confirms pre-restart; 2 and 3 stay unconfirmed.
        e.handle(
            Duration::from_millis(2),
            Input::FromSwitch {
                switch: sw,
                message: OfMessage::BarrierReply { xid: first_barrier },
            },
        );
        assert_eq!(e.stats(sw).unconfirmed, 2);

        let fx = e.handle(
            Duration::from_millis(500),
            Input::SwitchReconnected { switch: sw },
        );
        let reissued: Vec<Xid> = fx
            .iter()
            .filter_map(|eff| match eff {
                Effect::ToSwitch {
                    message: OfMessage::FlowMod { xid, .. },
                    ..
                } => Some(*xid),
                _ => None,
            })
            .collect();
        assert_eq!(reissued, vec![2, 3], "unconfirmed mods re-issued in order");
        let rearm_barrier = fx
            .iter()
            .find_map(|eff| match eff {
                Effect::ToSwitch {
                    message: OfMessage::BarrierRequest { xid },
                    ..
                } => Some(*xid),
                _ => None,
            })
            .expect("technique re-arms a fresh barrier behind the re-issue");
        assert_eq!(e.stats(sw).reconnects, 1);
        assert_eq!(e.stats(sw).reissued_flow_mods, 2);
        // The baseline is not probing: no catch rule re-install.
        assert_eq!(e.stats(sw).proxy_flow_mods, 0);

        // The fresh barrier's reply confirms both re-issued cookies.
        let fx = e.handle(
            Duration::from_millis(501),
            Input::FromSwitch {
                switch: sw,
                message: OfMessage::BarrierReply { xid: rearm_barrier },
            },
        );
        let confirmed: Vec<u64> = fx
            .iter()
            .filter_map(|eff| match eff {
                Effect::Confirmed { cookie, .. } => Some(*cookie),
                _ => None,
            })
            .collect();
        assert_eq!(confirmed, vec![2, 3]);
        assert_eq!(e.stats(sw).unconfirmed, 0);

        // A reconnect with nothing outstanding is quiet.
        let fx = e.handle(
            Duration::from_millis(600),
            Input::SwitchReconnected { switch: sw },
        );
        assert!(fx.is_empty());
        assert_eq!(e.stats(sw).reconnects, 2);
    }

    /// A controller barrier withheld across the restart is re-forwarded on
    /// reconnect (the original request died with the channel) and releases
    /// once the reattached switch replies and the covered modification
    /// confirms — the update does not stall on a pre-restart barrier.
    #[test]
    fn reconnect_reforwards_unanswered_reliable_barriers() {
        let mut e = engine(TechniqueConfig::StaticTimeout {
            delay: Duration::from_millis(100),
        });
        let sw = SwitchId::new(0);
        e.start(Duration::ZERO);
        e.handle(
            Duration::ZERO,
            Input::FromController {
                switch: sw,
                message: flow_mod(9),
            },
        );
        e.handle(
            Duration::from_millis(1),
            Input::FromController {
                switch: sw,
                message: OfMessage::BarrierRequest { xid: 77 },
            },
        );
        // The switch restarts before replying to anything; the reconnect
        // must re-forward barrier 77 alongside the re-issued flow-mod.
        let fx = e.handle(
            Duration::from_millis(400),
            Input::SwitchReconnected { switch: sw },
        );
        let barriers: Vec<Xid> = fx
            .iter()
            .filter_map(|eff| match eff {
                Effect::ToSwitch {
                    message: OfMessage::BarrierRequest { xid },
                    ..
                } => Some(*xid),
                _ => None,
            })
            .collect();
        assert!(
            barriers.contains(&77),
            "the withheld controller barrier must be re-forwarded: {barriers:?}"
        );
        let proxy_barrier = barriers
            .iter()
            .copied()
            .find(|&x| x >= PROXY_XID_BASE)
            .expect("the technique re-arms its own barrier too");

        // The reattached switch answers both; the hold-down timer then
        // confirms cookie 9 and barrier 77 finally releases.
        let fx = e.handle(
            Duration::from_millis(401),
            Input::FromSwitch {
                switch: sw,
                message: OfMessage::BarrierReply { xid: proxy_barrier },
            },
        );
        let token = fx
            .iter()
            .find_map(|eff| match eff {
                Effect::ArmTimer { token, .. } => Some(*token),
                _ => None,
            })
            .expect("hold-down timer armed after the re-armed barrier reply");
        let fx = e.handle(
            Duration::from_millis(401),
            Input::FromSwitch {
                switch: sw,
                message: OfMessage::BarrierReply { xid: 77 },
            },
        );
        assert!(!fx.iter().any(|eff| matches!(
            eff,
            Effect::ToController {
                message: OfMessage::BarrierReply { .. },
                ..
            }
        )));
        let fx = e.handle(Duration::from_millis(502), Input::TimerFired { token });
        assert!(fx.contains(&Effect::Confirmed {
            switch: sw,
            cookie: 9
        }));
        assert!(
            fx.iter().any(|eff| matches!(
                eff,
                Effect::ToController {
                    message: OfMessage::BarrierReply { xid: 77 },
                    ..
                }
            )),
            "{fx:?}"
        );
        assert_eq!(e.stats(sw).barrier_replies_released, 1);
    }

    /// Probing deployments additionally re-install the probe-catch rule on
    /// the reattached switch.
    #[test]
    fn reconnect_reinstalls_catch_rule_for_probing() {
        let mut e = RumBuilder::new(1)
            .technique(TechniqueConfig::default_general())
            .build();
        let sw = SwitchId::new(0);
        let start_mods = e
            .start(Duration::ZERO)
            .iter()
            .filter(|eff| {
                matches!(
                    eff,
                    Effect::ToSwitch {
                        message: OfMessage::FlowMod { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(start_mods, 1, "catch rule installed at start");
        let fx = e.handle(
            Duration::from_millis(5),
            Input::SwitchReconnected { switch: sw },
        );
        let catch_reinstalls = fx
            .iter()
            .filter(|eff| {
                matches!(
                    eff,
                    Effect::ToSwitch {
                        message: OfMessage::FlowMod { xid, .. },
                        ..
                    } if *xid >= PROXY_XID_BASE
                )
            })
            .count();
        assert_eq!(catch_reinstalls, 1, "catch rule re-installed on reconnect");
        assert_eq!(e.stats(sw).proxy_flow_mods, 2);
    }

    #[test]
    fn tick_and_double_start_are_harmless() {
        let mut e = engine(TechniqueConfig::BarrierBaseline);
        e.start(Duration::ZERO);
        assert!(e.start(Duration::from_millis(1)).is_empty());
        assert!(e.handle(Duration::from_millis(2), Input::Tick).is_empty());
        assert_eq!(e.technique_name(SwitchId::new(0)), "barriers");
        assert_eq!(e.n_switches(), 1);
        assert_eq!(format!("{}", SwitchId::new(3)), "sw3");
    }

    #[test]
    fn switch_error_resolves_barrier_and_passes_through() {
        let mut e = engine(TechniqueConfig::StaticTimeout {
            delay: Duration::from_secs(10),
        });
        let sw = SwitchId::new(0);
        e.start(Duration::ZERO);
        e.handle(
            Duration::ZERO,
            Input::FromController {
                switch: sw,
                message: flow_mod(13),
            },
        );
        e.handle(
            Duration::ZERO,
            Input::FromController {
                switch: sw,
                message: OfMessage::BarrierRequest { xid: 50 },
            },
        );
        e.handle(
            Duration::from_millis(1),
            Input::FromSwitch {
                switch: sw,
                message: OfMessage::BarrierReply { xid: 50 },
            },
        );
        // The switch reports the flow-mod failed: error passes through and
        // the held barrier releases without waiting for the (hopeless)
        // confirmation.
        let effects = e.handle(
            Duration::from_millis(2),
            Input::FromSwitch {
                switch: sw,
                message: OfMessage::Error {
                    xid: 13,
                    body: openflow::messages::ErrorMsg {
                        err_type: openflow::constants::error_type::FLOW_MOD_FAILED,
                        code: 0,
                        data: vec![],
                    },
                },
            },
        );
        assert!(effects.iter().any(|eff| matches!(
            eff,
            Effect::ToController {
                message: OfMessage::Error { xid: 13, .. },
                ..
            }
        )));
        assert!(effects.iter().any(|eff| matches!(
            eff,
            Effect::ToController {
                message: OfMessage::BarrierReply { xid: 50 },
                ..
            }
        )));
        assert!(!effects
            .iter()
            .any(|eff| matches!(eff, Effect::Confirmed { .. })));
    }

    /// General probing on switch 0, whose rules forward out port 2 to the
    /// catch switch 1; probes are injected through switch 1.
    fn probing_pair(max_outstanding: usize) -> RumEngine {
        let mut map = SwitchPortMap::default();
        map.port_to_switch.insert(2, SwitchId::new(1));
        map.inject_via = Some((SwitchId::new(1), 1));
        RumBuilder::new(2)
            .technique(TechniqueConfig::GeneralProbing {
                probe_interval: Duration::from_millis(10),
                max_outstanding,
                fallback_delay: Duration::from_millis(300),
            })
            .port_maps(vec![map, SwitchPortMap::default()])
            .build()
    }

    fn forwarding(xid: Xid, i: u8) -> Input {
        Input::FromController {
            switch: SwitchId::new(0),
            message: OfMessage::FlowMod {
                xid,
                body: FlowMod::add(
                    OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, i), Ipv4Addr::new(10, 1, 0, i)),
                    100,
                    vec![Action::output(2)],
                ),
            },
        }
    }

    /// The probe packets injected by `effects`.
    fn probes(effects: &[Effect]) -> Vec<Vec<u8>> {
        effects
            .iter()
            .filter_map(|eff| match eff {
                Effect::InjectVia {
                    message: OfMessage::PacketOut { body, .. },
                    ..
                } => Some(body.data.clone()),
                _ => None,
            })
            .collect()
    }

    /// A rule the switch rejected is never probed again, and stops holding
    /// one of the `max_outstanding` probe slots.
    #[test]
    fn rejected_flow_mod_is_no_longer_probed() {
        let mut e = probing_pair(1);
        let sw = SwitchId::new(0);
        e.start(Duration::ZERO);
        let rejected = probes(&e.handle(Duration::ZERO, forwarding(1, 1)));
        assert_eq!(rejected.len(), 1, "the first rule is probed at once");
        assert!(
            probes(&e.handle(Duration::ZERO, forwarding(2, 2))).is_empty(),
            "the second rule waits beyond the cap of 1"
        );
        e.handle(
            Duration::from_millis(1),
            Input::FromSwitch {
                switch: sw,
                message: OfMessage::Error {
                    xid: 1,
                    body: openflow::messages::ErrorMsg {
                        err_type: openflow::constants::error_type::FLOW_MOD_FAILED,
                        code: 0,
                        data: vec![],
                    },
                },
            },
        );
        assert_eq!(e.stats(sw).unconfirmed, 1);
        // The next probe round (switch 0's tick, technique token 1) spends
        // its one slot on the later rule.
        let round = probes(&e.handle(
            Duration::from_millis(10),
            Input::TimerFired {
                token: TimerToken::from_raw(1),
            },
        ));
        assert_eq!(round.len(), 1);
        assert_ne!(round, rejected, "the rejected rule was probed again");
    }

    /// A probe-marked packet punted for a table miss proves nothing: it is
    /// counted under `probes_wrong_reason`, not consumed as a probe return.
    #[test]
    fn probe_packet_in_with_wrong_reason_is_counted_not_consumed() {
        let mut e = probing_pair(30);
        let catch = SwitchId::new(1);
        e.start(Duration::ZERO);
        let probe = probes(&e.handle(Duration::ZERO, forwarding(1, 1))).remove(0);
        let effects = e.handle(
            Duration::from_millis(1),
            Input::FromSwitch {
                switch: catch,
                message: OfMessage::PacketIn {
                    xid: 0,
                    body: openflow::messages::PacketIn::unbuffered(
                        2,
                        openflow::constants::packet_in_reason::NO_MATCH,
                        probe,
                    ),
                },
            },
        );
        assert!(effects.is_empty(), "{effects:?}");
        let counters = e.metrics().snapshot().counters;
        assert_eq!(counters["rum.sw1.probes_wrong_reason"], 1);
        assert_eq!(e.stats(catch).probes_consumed, 0);
        assert_eq!(e.stats(SwitchId::new(0)).unconfirmed, 1);
    }
}
