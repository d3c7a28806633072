//! `probe`: one consistent update of 2 × 1,000 rules per iteration, driven
//! by `TcpUpdateController` with RUM acks (window 64) through the proxy
//! running general probing against the early-reply ring.  Every iteration
//! starts from fresh switches: a second update would overflow fast_buggy's
//! 1,500-entry table (see `README.md`, table-capacity note).

use crate::capture::Chunk;
use crate::common::{ms, named, CpuSnapshot, Rng, COMM_CONTROLLER};
use crate::layers::{LayerSample, Sampler, Transport};
use crate::ring::{self, Ring};
use crate::{Failures, Iteration};
use controller::scenarios::{COOKIE_NEW_RULE_BASE, FLOW_RULE_PRIORITY};
use controller::{AckMode, SessionOutcome, UpdatePlan, UpdateSession};
use ofswitch::{GroundTruth, SwitchModel};
use openflow::messages::FlowMod;
use openflow::{Action, OfMatch};
use rum::TechniqueConfig;
use rum_bench::scale::RING_OUT_PORT;
use rum_tcp::TcpUpdateController;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Shape of the `probe` workload.
#[derive(Debug, Clone)]
pub struct ProbeConfig {
    pub rules_per_switch: usize,
    pub window: usize,
    /// Deadline of one update; what is unconfirmed by then counts missed.
    pub deadline: Duration,
    /// The proxy's technique; general probing unless a self-test swaps in
    /// a configuration known to acknowledge falsely.
    pub technique: TechniqueConfig,
}

impl ProbeConfig {
    pub fn standard() -> Self {
        ProbeConfig {
            rules_per_switch: 1_000,
            window: 64,
            deadline: Duration::from_secs(15),
            technique: ring::probing(&SwitchModel::fast_buggy(), 64),
        }
    }
}

/// One rule of a generated update: its plan id (= cookie) and target.
#[derive(Debug, Clone)]
pub struct Rule {
    pub id: u64,
    pub target: usize,
    pub flow_mod: FlowMod,
}

/// `per_switch` rules per ring switch, each matching a distinct seeded
/// source address in `10.(16 + switch).x.y` and forwarding out the ring;
/// the targets are interleaved in a seeded order and ids follow it.
pub fn rules(seed: u64, per_switch: usize) -> Vec<Rule> {
    let mut rng = Rng::new(seed);
    let mut layout: Vec<(usize, u16)> = Vec::with_capacity(per_switch * ring::SWITCHES);
    for sw in 0..ring::SWITCHES {
        let mut hosts: Vec<u16> = (0..u16::MAX).collect();
        rng.shuffle(&mut hosts);
        layout.extend(hosts[..per_switch].iter().map(|&h| (sw, h)));
    }
    rng.shuffle(&mut layout);
    layout
        .into_iter()
        .enumerate()
        .map(|(k, (sw, host))| Rule {
            id: COOKIE_NEW_RULE_BASE + k as u64,
            target: sw,
            flow_mod: FlowMod::add(
                OfMatch::ipv4_pair(
                    Ipv4Addr::new(10, 16 + sw as u8, (host >> 8) as u8, host as u8),
                    Ipv4Addr::new(10, 200, 0, 1),
                ),
                FLOW_RULE_PRIORITY,
                vec![Action::output(RING_OUT_PORT)],
            ),
        })
        .collect()
}

pub fn plan(rules: &[Rule]) -> UpdatePlan {
    let mut plan = UpdatePlan::new();
    for r in rules {
        plan.add(r.id, r.target, r.flow_mod.clone())
            .expect("generated ids are unique");
    }
    plan
}

/// Judges one mod against its switch's ground truth.  Returns the verdict
/// and, for a true ack, (send → activation, activation → confirm) in ms.
pub fn judge(
    f: &mut Failures,
    truth: &GroundTruth,
    cookie: u64,
    send: Option<Duration>,
    confirm: Option<Duration>,
    rejected: bool,
    aborted: bool,
) -> Option<(f64, f64)> {
    match confirm {
        Some(at) if truth.active_at(cookie, at) => {
            let active = truth.first_activation(cookie)?;
            Some((
                ms(active.saturating_sub(send?)),
                ms(at.saturating_sub(active)),
            ))
        }
        Some(_) => {
            f.false_acks += 1;
            None
        }
        None if rejected => {
            f.rejected += 1;
            None
        }
        None if aborted => {
            f.aborted_mods += 1;
            None
        }
        None => {
            f.missed += 1;
            None
        }
    }
}

/// Runs one iteration.  With `measure` false it only sets up and tears
/// down (a `setup_s` sample); `traced` adds the per-layer accounting;
/// `capture` routes both sides through recording taps.
pub fn iteration(
    cfg: &ProbeConfig,
    seed: u64,
    measure: bool,
    traced: bool,
    capture: Option<&Arc<Mutex<Vec<Chunk>>>>,
) -> Iteration {
    let rules = rules(seed, cfg.rules_per_switch);
    let session = UpdateSession::new(plan(&rules), AckMode::RumAcks, cfg.window);

    let started = Instant::now();
    let epoch = started;
    let listen = "127.0.0.1:0".parse().expect("literal address");
    // A setup-only round expects one connection more than it attaches, so
    // the update never starts.
    let expected = if measure {
        ring::SWITCHES
    } else {
        ring::SWITCHES + 1
    };
    let ctrl = named(COMM_CONTROLLER, || {
        TcpUpdateController::new_with_epoch(listen, session, expected, epoch).start()
    })
    .expect("controller starts on loopback");
    let ring = Ring::start(
        cfg.technique.clone(),
        ctrl.local_addr,
        seed,
        epoch,
        capture,
        &|| ctrl.connections(),
    );
    let mut it = Iteration {
        setup_s: started.elapsed().as_secs_f64(),
        epoch: Some(epoch),
        ..Iteration::default()
    };
    if !measure || !ring.attached {
        it.failures.setup_failed = !ring.attached;
        ctrl.shutdown();
        ring.stop();
        return it;
    }

    let sampler = traced.then(|| Sampler::for_proxy(&ring.proxy, None));
    let cpu0 = traced.then(CpuSnapshot::take);
    let outcome = ctrl.wait_for_outcome(cfg.deadline);
    let cpu = cpu0.map(|c0| c0.delta_by_name(&CpuSnapshot::take()));
    let sampled = sampler.map(Sampler::finish).unwrap_or_default();
    let (confirms, sends, failed): (HashMap<u64, Duration>, HashMap<u64, Duration>, Vec<u64>) =
        ctrl.with_session(|s| {
            (
                s.confirmation_times().clone(),
                s.send_times().clone(),
                s.failed().to_vec(),
            )
        });
    let stats = ring.proxy.total_stats();
    let transport = Transport::read(ring.proxy.counters());
    let switch_errors = ring.switch_errors();
    ctrl.shutdown();
    let reports = ring.stop();

    let aborted = matches!(outcome, Some(SessionOutcome::Aborted { .. }));
    let mut lag_ms = Vec::new();
    let mut activate_ms = Vec::new();
    for r in &rules {
        let send = sends.get(&r.id).copied();
        let confirm = confirms.get(&r.id).copied();
        if let (Some(s), Some(c)) = (send, confirm) {
            it.acks_ms.push(ms(c.saturating_sub(s)));
        }
        it.attempted += 1;
        if let Some((activate, lag)) = judge(
            &mut it.failures,
            &reports[r.target].truth,
            r.id,
            send,
            confirm,
            failed.contains(&r.id),
            aborted,
        ) {
            activate_ms.push(activate);
            lag_ms.push(lag);
        }
        if traced {
            it.requests.push(crate::Request {
                id: r.id,
                send,
                active: reports[r.target].truth.first_activation(r.id),
                confirm,
            });
        }
    }
    let first_send = sends.values().min().copied().unwrap_or_default();
    let last_confirm = confirms.values().max().copied().unwrap_or_default();
    let span = last_confirm.saturating_sub(first_send).as_secs_f64();
    it.rate = if span > 0.0 {
        confirms.len() as f64 / span
    } else {
        0.0
    };
    if let Some(cpu) = cpu {
        it.layer = Some(LayerSample {
            mods: confirms.len() as u64,
            cpu,
            stats,
            transport,
            switch_errors,
            lag_ms,
            activate_ms,
            sampled,
            arrival_late_ms: Vec::new(),
        });
    }
    it
}
