//! `tenants`: an open loop of independent 2-mod sessions arriving at a
//! fixed rate through `TcpMuxController` (session window 1, global window
//! 24, quantum 1) over the same probing ring as `probe`.  Session `t`
//! targets switch `t % 2`; each session is timed from when it was due.

use crate::capture::Chunk;
use crate::common::{ms, named, CpuSnapshot, Rng, COMM_CONTROLLER};
use crate::layers::{LayerSample, Sampler, Transport};
use crate::probe::judge;
use crate::ring::{self, Ring};
use crate::{Iteration, Request};
use controller::{AckMode, SessionOutcome, UpdatePlan};
use ofswitch::SwitchModel;
use rum::TechniqueConfig;
use rum_bench::scale::RING_OUT_PORT;
use rum_bench::session_soak::tenant_plan_for;
use rum_tcp::TcpMuxController;
use sessiond::{MuxConfig, SessionId};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use telemetry::Registry;

/// Shape of the `tenants` workload.
#[derive(Debug, Clone)]
pub struct TenantsConfig {
    pub sessions: usize,
    pub mods_per_session: usize,
    /// Grace after the last arrival; sessions not done by then fail.
    pub drain_deadline: Duration,
    pub technique: TechniqueConfig,
}

/// Outstanding mods per session, and the mux's global budget of them.
pub const SESSION_WINDOW: usize = 1;
pub const GLOBAL_WINDOW: usize = 24;

/// Offered arrival rate: about half the mux's saturation rate on a 2-vCPU
/// x86-64 VM, where 1,000 sessions submitted at once completed at ~280
/// sessions/s.
pub const RATE: f64 = 140.0;

impl TenantsConfig {
    pub fn standard() -> Self {
        TenantsConfig {
            sessions: 1_000,
            mods_per_session: 2,
            drain_deadline: Duration::from_secs(10),
            technique: ring::probing(&SwitchModel::fast_buggy(), GLOBAL_WINDOW),
        }
    }
}

pub fn mux_config() -> MuxConfig {
    MuxConfig {
        ack_mode: AckMode::RumAcks,
        session_window: SESSION_WINDOW,
        global_window: GLOBAL_WINDOW,
        quantum: 1,
        ..MuxConfig::default()
    }
}

/// Session `t`'s plan: `mods` rules on switch `t % 2`, in the address
/// block of a seeded tenant slot (so the seed moves the rule layout).
pub fn plans(seed: u64, sessions: usize, mods: usize) -> Vec<UpdatePlan> {
    let mut slots: Vec<usize> = (0..sessions).collect();
    Rng::new(seed).shuffle(&mut slots);
    slots
        .iter()
        .enumerate()
        .map(|(t, &slot)| tenant_plan_for(slot, mods, t % ring::SWITCHES, RING_OUT_PORT))
        .collect()
}

/// What the mux recorded about one session after the run.
struct SessionRecord {
    base: u64,
    sends: Vec<Option<Duration>>,
    confirms: Vec<Option<Duration>>,
    failed: Vec<u64>,
    aborted: bool,
}

/// Runs one iteration (see [`crate::probe::iteration`] for the flags).
pub fn iteration(
    cfg: &TenantsConfig,
    seed: u64,
    measure: bool,
    traced: bool,
    capture: Option<&Arc<Mutex<Vec<Chunk>>>>,
) -> Iteration {
    let plans = plans(seed, cfg.sessions, cfg.mods_per_session);
    let registry = Arc::new(Registry::new());

    let started = Instant::now();
    let epoch = started;
    let mut ctrl = TcpMuxController::new_with_epoch(
        "127.0.0.1:0".parse().expect("literal address"),
        mux_config(),
        ring::SWITCHES,
        epoch,
    );
    ctrl.mux_mut().attach_metrics(&registry);
    let ctrl = named(COMM_CONTROLLER, || ctrl.start()).expect("mux controller starts");
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

    let sampler =
        traced.then(|| Sampler::for_proxy(&ring.proxy, Some(registry.gauge("sessiond.in_flight"))));
    let cpu0 = traced.then(CpuSnapshot::take);
    let interval = Duration::from_secs_f64(1.0 / RATE);
    let phase = Instant::now();
    let mut due = Vec::with_capacity(plans.len());
    let mut sids: Vec<Option<SessionId>> = Vec::with_capacity(plans.len());
    let mut late_ms = Vec::with_capacity(plans.len());
    for (t, plan) in plans.into_iter().enumerate() {
        let at = phase + interval * t as u32;
        let now = Instant::now();
        if at > now {
            std::thread::sleep(at - now);
        }
        late_ms.push(ms(Instant::now().saturating_duration_since(at)));
        due.push(at - epoch);
        sids.push(ctrl.submit(plan).ok());
    }
    ctrl.wait_all_done(cfg.drain_deadline);
    let cpu = cpu0.map(|c0| c0.delta_by_name(&CpuSnapshot::take()));
    let sampled = sampler.map(Sampler::finish).unwrap_or_default();
    let mods = cfg.mods_per_session as u64;
    let records: Vec<Option<SessionRecord>> = ctrl.with_mux(|m| {
        sids.iter()
            .map(|sid| {
                let sid = (*sid)?;
                let s = m.session(sid)?;
                Some(SessionRecord {
                    base: m.base(sid)?,
                    sends: (1..=mods)
                        .map(|id| s.send_times().get(&id).copied())
                        .collect(),
                    confirms: (1..=mods)
                        .map(|id| s.confirmation_times().get(&id).copied())
                        .collect(),
                    failed: s.failed().to_vec(),
                    aborted: matches!(m.outcome(sid), Some(SessionOutcome::Aborted { .. })),
                })
            })
            .collect()
    });
    let stats = ring.proxy.total_stats();
    let transport = Transport::read(ring.proxy.counters());
    let switch_errors = ring.switch_errors();
    ctrl.shutdown();
    let reports = ring.stop();

    let mut lag_ms = Vec::new();
    let mut activate_ms = Vec::new();
    let mut confirmed = 0u64;
    let mut last_confirm = Duration::ZERO;
    for (t, rec) in records.iter().enumerate() {
        let truth = &reports[t % ring::SWITCHES].truth;
        it.attempted += mods;
        let Some(rec) = rec else {
            // Refused at admission: every mod of the session failed.
            it.failures.aborted_sessions += 1;
            it.failures.aborted_mods += mods;
            continue;
        };
        if rec.aborted {
            it.failures.aborted_sessions += 1;
        }
        let first_request = it.requests.len();
        for (k, (&send, &confirm)) in rec.sends.iter().zip(&rec.confirms).enumerate() {
            let local = k as u64 + 1;
            let cookie = rec.base + local;
            if let Some((activate, lag)) = judge(
                &mut it.failures,
                truth,
                cookie,
                send,
                confirm,
                rec.failed.contains(&local),
                rec.aborted,
            ) {
                activate_ms.push(activate);
                lag_ms.push(lag);
            }
            if let Some(c) = confirm {
                confirmed += 1;
                last_confirm = last_confirm.max(c);
            }
            if traced {
                it.requests.push(Request {
                    id: cookie,
                    send,
                    active: truth.first_activation(cookie),
                    confirm,
                });
            }
        }
        let done = rec.confirms.iter().copied().collect::<Option<Vec<_>>>();
        if let Some(done) = done {
            let last = done.into_iter().max().unwrap_or_default();
            it.acks_ms.push(ms(last.saturating_sub(due[t])));
            if traced {
                it.groups.push(crate::Group {
                    id: t as u64,
                    start: due[t],
                    end: last,
                    members: first_request..it.requests.len(),
                });
            }
        }
    }
    let span = last_confirm.saturating_sub(due.first().copied().unwrap_or_default());
    it.rate = if span > Duration::ZERO {
        confirmed as f64 / span.as_secs_f64()
    } else {
        0.0
    };
    if let Some(cpu) = cpu {
        it.layer = Some(LayerSample {
            mods: confirmed,
            cpu,
            stats,
            transport,
            switch_errors,
            lag_ms,
            activate_ms,
            sampled,
            arrival_late_ms: late_ms,
        });
    }
    it
}
