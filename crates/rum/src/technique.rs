//! The acknowledgment-technique abstraction and the control-plane-only
//! techniques of paper §3.1.
//!
//! A technique is instantiated per monitored switch.  It receives the events
//! the RUM proxy observes (flow modifications from the controller, barrier
//! replies from the switch, probe packets coming back, timers it armed) and
//! emits [`TechniqueOutput`]s: most importantly `Confirm(cookie)`, the claim
//! that the rule with that cookie is now active in the data plane.

use crate::engine::SwitchId;
use openflow::messages::FlowMod;
use openflow::{OfMessage, PacketHeader, Xid};
use std::collections::HashMap;
use std::time::Duration;

/// Something a technique wants the RUM proxy to do.
#[derive(Debug, Clone, PartialEq)]
pub enum TechniqueOutput {
    /// The rule installed by the controller flow-mod with this cookie is now
    /// (believed to be) active in the data plane.
    Confirm(u64),
    /// Send a proxy-originated message to the monitored switch.
    ToSwitch(OfMessage),
    /// Send a proxy-originated message (typically a probe `PacketOut`) on the
    /// connection of another monitored switch.
    InjectVia {
        /// The switch whose connection carries the message.
        switch: SwitchId,
        /// The message.
        msg: OfMessage,
    },
    /// Arm a timer; the proxy will call [`AckTechnique::on_timer`] with the
    /// same token after `delay`.
    SetTimer {
        /// Delay until the timer fires.
        delay: Duration,
        /// Token passed back on expiry.
        token: u64,
    },
}

/// A data-plane acknowledgment technique for one monitored switch.
pub trait AckTechnique: Send {
    /// Short name used in reports ("barriers", "timeout", ...).
    fn name(&self) -> &'static str;

    /// Called once when the proxy starts; setup rules (probe-catch, probe
    /// rules) are emitted here.
    fn start(&mut self, _now: Duration, _out: &mut Vec<TechniqueOutput>) {}

    /// The controller sent a flow modification (already forwarded to the
    /// switch by the proxy).
    fn on_flow_mod(
        &mut self,
        cookie: u64,
        fm: &FlowMod,
        now: Duration,
        out: &mut Vec<TechniqueOutput>,
    );

    /// The switch replied to a proxy-originated barrier.
    fn on_switch_barrier_reply(
        &mut self,
        _xid: Xid,
        _now: Duration,
        _out: &mut Vec<TechniqueOutput>,
    ) {
    }

    /// A probe packet was captured (on any monitored switch's connection).
    /// The technique must ignore probes it does not own.
    fn on_probe_packet(
        &mut self,
        _header: &PacketHeader,
        _now: Duration,
        _out: &mut Vec<TechniqueOutput>,
    ) {
    }

    /// A timer armed by this technique fired.
    fn on_timer(&mut self, _token: u64, _now: Duration, _out: &mut Vec<TechniqueOutput>) {}

    /// The switch rejected the controller modification with this cookie
    /// (an OpenFlow `Error`), so the rule will never reach the data plane
    /// and the proxy no longer awaits its confirmation.  Techniques that
    /// spend work per pending rule (probes) drop it here.
    fn on_flow_mod_rejected(&mut self, _cookie: u64) {}

    /// The monitored switch restarted (tables wiped) and reattached.  The
    /// proxy has already re-issued the unconfirmed controller modifications
    /// on the fresh channel; the technique re-arms whatever confirmation
    /// machinery the restart invalidated (in-flight barriers, the probe
    /// rule).  Techniques whose pending state survives a restart (pure
    /// timers) keep the default no-op.
    fn on_switch_reconnected(&mut self, _now: Duration, _out: &mut Vec<TechniqueOutput>) {}

    /// Number of modifications seen but not yet confirmed.
    fn unconfirmed(&self) -> usize;
}

/// §3.1 "Using OpenFlow barrier commands" — the unreliable baseline.
///
/// After every controller flow-mod, the proxy sends its own `BarrierRequest`;
/// the switch's reply is taken at face value as proof that the rule is in the
/// data plane.  On a buggy switch this confirms rules hundreds of
/// milliseconds too early — this technique exists to reproduce the problem,
/// not to solve it.
#[derive(Debug)]
pub struct BarrierBaseline {
    next_xid: Xid,
    covers: HashMap<Xid, Vec<u64>>,
    unconfirmed: usize,
}

impl BarrierBaseline {
    /// Creates the baseline technique; `xid_base` namespaces the xids of the
    /// barriers it injects.
    pub fn new(xid_base: Xid) -> Self {
        BarrierBaseline {
            next_xid: xid_base,
            covers: HashMap::new(),
            unconfirmed: 0,
        }
    }

    fn fresh_xid(&mut self) -> Xid {
        let x = self.next_xid;
        self.next_xid = self.next_xid.wrapping_add(1);
        x
    }
}

impl AckTechnique for BarrierBaseline {
    fn name(&self) -> &'static str {
        "barriers"
    }

    fn on_flow_mod(
        &mut self,
        cookie: u64,
        _fm: &FlowMod,
        _now: Duration,
        out: &mut Vec<TechniqueOutput>,
    ) {
        let xid = self.fresh_xid();
        self.covers.insert(xid, vec![cookie]);
        self.unconfirmed += 1;
        out.push(TechniqueOutput::ToSwitch(OfMessage::BarrierRequest { xid }));
    }

    fn on_switch_barrier_reply(
        &mut self,
        xid: Xid,
        _now: Duration,
        out: &mut Vec<TechniqueOutput>,
    ) {
        if let Some(cookies) = self.covers.remove(&xid) {
            for c in cookies {
                self.unconfirmed = self.unconfirmed.saturating_sub(1);
                out.push(TechniqueOutput::Confirm(c));
            }
        }
    }

    fn on_switch_reconnected(&mut self, _now: Duration, out: &mut Vec<TechniqueOutput>) {
        // In-flight barriers died with the old channel; fold every pending
        // cover into one fresh barrier behind the re-issued modifications.
        if self.covers.is_empty() {
            return;
        }
        let mut cookies: Vec<u64> = self.covers.drain().flat_map(|(_, v)| v).collect();
        cookies.sort_unstable();
        let xid = self.fresh_xid();
        self.covers.insert(xid, cookies);
        out.push(TechniqueOutput::ToSwitch(OfMessage::BarrierRequest { xid }));
    }

    fn unconfirmed(&self) -> usize {
        self.unconfirmed
    }
}

/// §3.1 "Delaying barrier acknowledgments" — wait a fixed, pre-measured bound
/// after the barrier reply before confirming.
#[derive(Debug)]
pub struct StaticTimeout {
    delay: Duration,
    next_xid: Xid,
    next_token: u64,
    barrier_covers: HashMap<Xid, Vec<u64>>,
    timer_covers: HashMap<u64, Vec<u64>>,
    unconfirmed: usize,
}

impl StaticTimeout {
    /// Creates the technique with the given post-barrier delay.
    pub fn new(delay: Duration, xid_base: Xid) -> Self {
        StaticTimeout {
            delay,
            next_xid: xid_base,
            next_token: 0,
            barrier_covers: HashMap::new(),
            timer_covers: HashMap::new(),
            unconfirmed: 0,
        }
    }
}

impl AckTechnique for StaticTimeout {
    fn name(&self) -> &'static str {
        "timeout"
    }

    fn on_flow_mod(
        &mut self,
        cookie: u64,
        _fm: &FlowMod,
        _now: Duration,
        out: &mut Vec<TechniqueOutput>,
    ) {
        let xid = self.next_xid;
        self.next_xid = self.next_xid.wrapping_add(1);
        self.barrier_covers.insert(xid, vec![cookie]);
        self.unconfirmed += 1;
        out.push(TechniqueOutput::ToSwitch(OfMessage::BarrierRequest { xid }));
    }

    fn on_switch_barrier_reply(
        &mut self,
        xid: Xid,
        _now: Duration,
        out: &mut Vec<TechniqueOutput>,
    ) {
        if let Some(cookies) = self.barrier_covers.remove(&xid) {
            let token = self.next_token;
            self.next_token += 1;
            self.timer_covers.insert(token, cookies);
            out.push(TechniqueOutput::SetTimer {
                delay: self.delay,
                token,
            });
        }
    }

    fn on_timer(&mut self, token: u64, _now: Duration, out: &mut Vec<TechniqueOutput>) {
        if let Some(cookies) = self.timer_covers.remove(&token) {
            for c in cookies {
                self.unconfirmed = self.unconfirmed.saturating_sub(1);
                out.push(TechniqueOutput::Confirm(c));
            }
        }
    }

    fn on_switch_reconnected(&mut self, _now: Duration, out: &mut Vec<TechniqueOutput>) {
        // Covers whose barrier reply never came died with the old channel;
        // re-barrier them behind the re-issued modifications (covers whose
        // hold-down timer is already running confirm on their own).
        if self.barrier_covers.is_empty() {
            return;
        }
        let mut cookies: Vec<u64> = self.barrier_covers.drain().flat_map(|(_, v)| v).collect();
        cookies.sort_unstable();
        let xid = self.next_xid;
        self.next_xid = self.next_xid.wrapping_add(1);
        self.barrier_covers.insert(xid, cookies);
        out.push(TechniqueOutput::ToSwitch(OfMessage::BarrierRequest { xid }));
    }

    fn unconfirmed(&self) -> usize {
        self.unconfirmed
    }
}

/// §3.1 "Adaptive delay" — predict when the switch will have applied each
/// modification from an assumed modification rate and synchronisation lag,
/// and confirm at the predicted time.  Accurate models give near-optimal
/// latency; optimistic models (assumed rate higher than reality) confirm too
/// early, which is exactly what Figure 6/8 show for "adaptive 250".
#[derive(Debug)]
pub struct AdaptiveDelay {
    assumed_per_mod: Duration,
    assumed_sync_lag: Duration,
    virtual_done: Duration,
    next_token: u64,
    timer_covers: HashMap<u64, u64>,
    unconfirmed: usize,
}

impl AdaptiveDelay {
    /// Creates the technique assuming the switch applies `assumed_rate`
    /// modifications per second and lags the control plane by
    /// `assumed_sync_lag`.
    pub fn new(assumed_rate: f64, assumed_sync_lag: Duration) -> Self {
        assert!(assumed_rate > 0.0, "assumed rate must be positive");
        AdaptiveDelay {
            assumed_per_mod: Duration::from_secs_f64(1.0 / assumed_rate),
            assumed_sync_lag,
            virtual_done: Duration::ZERO,
            next_token: 0,
            timer_covers: HashMap::new(),
            unconfirmed: 0,
        }
    }

    /// The per-modification processing time the model assumes.
    pub fn assumed_per_mod(&self) -> Duration {
        self.assumed_per_mod
    }
}

impl AckTechnique for AdaptiveDelay {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn on_flow_mod(
        &mut self,
        cookie: u64,
        _fm: &FlowMod,
        now: Duration,
        out: &mut Vec<TechniqueOutput>,
    ) {
        // The switch works through modifications serially at the assumed
        // rate; our estimate of when this one lands is the running virtual
        // completion time plus the assumed data-plane lag.
        self.virtual_done = self.virtual_done.max(now) + self.assumed_per_mod;
        let confirm_at = self.virtual_done + self.assumed_sync_lag;
        let token = self.next_token;
        self.next_token += 1;
        self.timer_covers.insert(token, cookie);
        self.unconfirmed += 1;
        out.push(TechniqueOutput::SetTimer {
            delay: confirm_at.saturating_sub(now),
            token,
        });
    }

    fn on_timer(&mut self, token: u64, _now: Duration, out: &mut Vec<TechniqueOutput>) {
        if let Some(cookie) = self.timer_covers.remove(&token) {
            self.unconfirmed = self.unconfirmed.saturating_sub(1);
            out.push(TechniqueOutput::Confirm(cookie));
        }
    }

    fn unconfirmed(&self) -> usize {
        self.unconfirmed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflow::{Action, OfMatch};
    use std::net::Ipv4Addr;

    fn fm(i: u8) -> FlowMod {
        FlowMod::add(
            OfMatch::ipv4_pair(Ipv4Addr::new(10, 0, 0, i), Ipv4Addr::new(10, 1, 0, i)),
            100,
            vec![Action::output(2)],
        )
    }

    fn confirms(out: &[TechniqueOutput]) -> Vec<u64> {
        out.iter()
            .filter_map(|o| match o {
                TechniqueOutput::Confirm(c) => Some(*c),
                _ => None,
            })
            .collect()
    }

    fn barrier_xids(out: &[TechniqueOutput]) -> Vec<Xid> {
        out.iter()
            .filter_map(|o| match o {
                TechniqueOutput::ToSwitch(OfMessage::BarrierRequest { xid }) => Some(*xid),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn baseline_confirms_on_barrier_reply() {
        let mut t = BarrierBaseline::new(0x9000_0000);
        let mut out = Vec::new();
        t.on_flow_mod(42, &fm(1), Duration::ZERO, &mut out);
        let xids = barrier_xids(&out);
        assert_eq!(xids.len(), 1);
        assert_eq!(t.unconfirmed(), 1);
        assert!(confirms(&out).is_empty());

        let mut out = Vec::new();
        t.on_switch_barrier_reply(xids[0], Duration::from_millis(1), &mut out);
        assert_eq!(confirms(&out), vec![42]);
        assert_eq!(t.unconfirmed(), 0);

        // A reply to an unknown barrier does nothing.
        let mut out = Vec::new();
        t.on_switch_barrier_reply(12345, Duration::from_millis(2), &mut out);
        assert!(out.is_empty());
        assert_eq!(t.name(), "barriers");
    }

    #[test]
    fn static_timeout_defers_confirmation() {
        let mut t = StaticTimeout::new(Duration::from_millis(300), 0x9100_0000);
        let mut out = Vec::new();
        t.on_flow_mod(7, &fm(1), Duration::ZERO, &mut out);
        let xids = barrier_xids(&out);

        let mut out = Vec::new();
        t.on_switch_barrier_reply(xids[0], Duration::from_millis(10), &mut out);
        assert!(
            confirms(&out).is_empty(),
            "confirmation must wait for the timer"
        );
        let timer = out.iter().find_map(|o| match o {
            TechniqueOutput::SetTimer { delay, token } => Some((*delay, *token)),
            _ => None,
        });
        let (delay, token) = timer.expect("a timer must be armed");
        assert_eq!(delay, Duration::from_millis(300));

        let mut out = Vec::new();
        t.on_timer(token, Duration::from_millis(310), &mut out);
        assert_eq!(confirms(&out), vec![7]);
        assert_eq!(t.unconfirmed(), 0);
        assert_eq!(t.name(), "timeout");
    }

    #[test]
    fn adaptive_accumulates_virtual_time() {
        // 200 mods/s assumed -> 5 ms per mod; lag 100 ms.
        let mut t = AdaptiveDelay::new(200.0, Duration::from_millis(100));
        assert_eq!(t.assumed_per_mod(), Duration::from_millis(5));
        let mut delays = Vec::new();
        for i in 0..3u64 {
            let mut out = Vec::new();
            // All issued at t = 0 (burst).
            t.on_flow_mod(i, &fm(i as u8), Duration::ZERO, &mut out);
            let d = out
                .iter()
                .find_map(|o| match o {
                    TechniqueOutput::SetTimer { delay, .. } => Some(*delay),
                    _ => None,
                })
                .unwrap();
            delays.push(d);
        }
        // Confirmation estimates must be 5 ms apart: 105, 110, 115 ms.
        assert_eq!(delays[0], Duration::from_millis(105));
        assert_eq!(delays[1], Duration::from_millis(110));
        assert_eq!(delays[2], Duration::from_millis(115));
        assert_eq!(t.unconfirmed(), 3);

        let mut out = Vec::new();
        t.on_timer(0, Duration::from_millis(105), &mut out);
        assert_eq!(confirms(&out), vec![0]);
        assert_eq!(t.unconfirmed(), 2);
        assert_eq!(t.name(), "adaptive");
    }

    #[test]
    fn adaptive_virtual_time_tracks_idle_gaps() {
        let mut t = AdaptiveDelay::new(100.0, Duration::ZERO);
        let mut out = Vec::new();
        t.on_flow_mod(1, &fm(1), Duration::ZERO, &mut out);
        // Long idle gap: the next mod's estimate restarts from `now`, not
        // from the stale virtual clock.
        let mut out = Vec::new();
        t.on_flow_mod(2, &fm(2), Duration::from_secs(10), &mut out);
        let d = out
            .iter()
            .find_map(|o| match o {
                TechniqueOutput::SetTimer { delay, .. } => Some(*delay),
                _ => None,
            })
            .unwrap();
        assert_eq!(d, Duration::from_millis(10));
    }

    #[test]
    #[should_panic(expected = "assumed rate must be positive")]
    fn adaptive_rejects_zero_rate() {
        AdaptiveDelay::new(0.0, Duration::ZERO);
    }
}
