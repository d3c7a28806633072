//! Layer replay: the workload's captured proxy input and its update plans
//! fed through the program's public sans-IO functions, timed call by call
//! from outside.
//!
//! * `openflow`: the captured byte streams through `OfCodec::feed` +
//!   `drain_messages_into`, and the engine's output batches through
//!   `encode_batch_into`;
//! * `rum`: the decoded inputs (with the engine's own timers fired at their
//!   due times) through `ShardedEngine::handle_into`, on an engine built
//!   like the proxy's;
//! * `controller`: the workload's plans (`probe`, `tenants`) through
//!   `UpdateSession::handle_into` / `drain_into` with scripted RUM acks;
//! * `sessiond`: the `tenants` plans through `SessionMux` on a virtual
//!   clock (fixed arrival rate, fixed ack latency).
//!
//! Each figure is the median of [`REPS`] timed passes after one warm-up
//! pass; one more pass records a span per call for the trace.

use crate::capture::{Chunk, Side};
use crate::common::{median, Trace};
use controller::{AckMode, ConnId, SessionEffect, SessionInput, UpdatePlan, UpdateSession};
use openflow::{OfCodec, OfMessage};
use rum::{Effect, Input, RumBuilder, SwitchId, TimerToken};
use sessiond::{MuxConfig, MuxEffect, MuxInput, SessionMux};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::time::{Duration, Instant};

/// Timed passes per figure.
const REPS: usize = 5;

/// Acknowledgments delivered per scripted drain (several acks per socket
/// read, as on the wire).
const ACKS_PER_DRAIN: usize = 8;

/// Proxy-layer figures from one capture.
#[derive(Debug, Default)]
pub struct ProxyReplay {
    pub decode_ns_per_msg: f64,
    pub encode_ns_per_msg: f64,
    pub handle_ns_per_input: f64,
    /// Decode + handle + encode time per controller flow-mod captured.
    pub explained_ns_per_mod: f64,
    pub msgs_in: usize,
    pub msgs_out: usize,
    pub inputs: usize,
    pub mods: usize,
}

fn stream_key(c: &Chunk) -> (bool, usize) {
    (c.side == Side::Switch, c.conn)
}

/// Decodes every chunk on its own stream's codec, calling `f` with the
/// chunk and the messages it completed.
fn decode_all(chunks: &[Chunk], mut f: impl FnMut(&Chunk, &mut Vec<OfMessage>)) {
    let mut codecs: BTreeMap<(bool, usize), OfCodec> = BTreeMap::new();
    let mut out = Vec::new();
    for c in chunks {
        let codec = codecs.entry(stream_key(c)).or_default();
        codec.feed(&c.bytes);
        out.clear();
        if codec.drain_messages_into(&mut out).is_err() {
            continue;
        }
        f(c, &mut out);
    }
}

fn input_of(c: &Chunk, message: OfMessage) -> Input {
    let switch = SwitchId::new(c.conn);
    match c.side {
        Side::Switch => Input::FromSwitch { switch, message },
        Side::Controller => Input::FromController { switch, message },
    }
}

/// The messages an effect puts on a wire.
fn wire_message(e: &Effect) -> Option<&OfMessage> {
    match e {
        Effect::ToController { message, .. }
        | Effect::ToSwitch { message, .. }
        | Effect::InjectVia { message, .. } => Some(message),
        _ => None,
    }
}

/// Replays a capture through the codec and the sharded engine `builder`
/// builds, as the proxy does.
pub fn proxy(
    chunks: &mut [Chunk],
    builder: impl Fn() -> RumBuilder,
    trace: &mut Trace,
) -> ProxyReplay {
    chunks.sort_by_key(|c| c.at);
    let mut r = ProxyReplay::default();

    // Warm-up decode, which also yields the engine's inputs.
    let mut inputs: Vec<(Duration, Input)> = Vec::new();
    decode_all(chunks, |c, msgs| {
        for m in msgs.drain(..) {
            if c.side == Side::Controller && matches!(m, OfMessage::FlowMod { .. }) {
                r.mods += 1;
            }
            inputs.push((c.at, input_of(c, m)));
        }
    });
    r.msgs_in = inputs.len();
    let decode_ns = median(
        &(0..REPS)
            .map(|_| {
                let t0 = Instant::now();
                decode_all(chunks, |_, msgs| msgs.clear());
                t0.elapsed().as_nanos() as f64
            })
            .collect::<Vec<_>>(),
    );

    // Warm-up engine pass: fixes the input sequence (timers fire at their
    // due time, before the first input that arrives later) and collects
    // the output batches each call produced.
    let mut sequence: Vec<(Duration, Input)> = Vec::with_capacity(inputs.len());
    let mut batches: Vec<Vec<OfMessage>> = Vec::new();
    {
        let mut engine = builder().build_sharded();
        let mut timers: BinaryHeap<Reverse<(Duration, u64)>> = BinaryHeap::new();
        let mut fx = engine.start(Duration::ZERO);
        let mut step =
            |now: Duration, input: Input, fx: &mut Vec<Effect>, timers: &mut BinaryHeap<_>| {
                sequence.push((now, input.clone()));
                fx.clear();
                engine.handle_into(now, input, fx);
                let mut batch = Vec::new();
                for e in fx.drain(..) {
                    if let Effect::ArmTimer { delay, token } = e {
                        timers.push(Reverse((now + delay, token.raw())));
                    } else if let Some(m) = wire_message(&e) {
                        batch.push(m.clone());
                    }
                }
                if !batch.is_empty() {
                    batches.push(batch);
                }
            };
        for e in fx.drain(..) {
            if let Effect::ArmTimer { delay, token } = e {
                timers.push(Reverse((delay, token.raw())));
            }
        }
        for (at, input) in inputs {
            while let Some(&Reverse((due, token))) = timers.peek() {
                if due > at {
                    break;
                }
                timers.pop();
                let fire = Input::TimerFired {
                    token: TimerToken::from_raw(token),
                };
                step(due, fire, &mut fx, &mut timers);
            }
            step(at, input, &mut fx, &mut timers);
        }
    }
    r.inputs = sequence.len();
    r.msgs_out = batches.iter().map(Vec::len).sum();

    let handle_ns = median(
        &(0..REPS)
            .map(|_| {
                let seq = sequence.clone();
                let mut engine = builder().build_sharded();
                let _ = engine.start(Duration::ZERO);
                let mut fx = Vec::new();
                let t0 = Instant::now();
                for (now, input) in seq {
                    engine.handle_into(now, input, &mut fx);
                    fx.clear();
                }
                t0.elapsed().as_nanos() as f64
            })
            .collect::<Vec<_>>(),
    );
    let codec = OfCodec::new();
    let mut buf = Vec::new();
    let encode_ns = median(
        &(0..REPS)
            .map(|_| {
                let t0 = Instant::now();
                for b in &batches {
                    buf.clear();
                    codec
                        .encode_batch_into(b, &mut buf)
                        .expect("engine output encodes");
                }
                t0.elapsed().as_nanos() as f64
            })
            .collect::<Vec<_>>(),
    );
    r.decode_ns_per_msg = per(decode_ns, r.msgs_in);
    r.handle_ns_per_input = per(handle_ns, r.inputs);
    r.encode_ns_per_msg = per(encode_ns, r.msgs_out);
    r.explained_ns_per_mod = per(decode_ns + handle_ns + encode_ns, r.mods);

    // Spanned pass: one span per call into each layer.
    let root = trace.open("replay.proxy", 0, 0);
    let mut codecs: BTreeMap<(bool, usize), OfCodec> = BTreeMap::new();
    let mut out = Vec::new();
    for c in chunks.iter() {
        let codec = codecs.entry(stream_key(c)).or_default();
        let t0 = trace.now_ns();
        codec.feed(&c.bytes);
        out.clear();
        let _ = codec.drain_messages_into(&mut out);
        let t1 = trace.now_ns();
        trace.record("openflow.decode", root, c.conn as u64, t0, t1);
    }
    let mut engine = builder().build_sharded();
    let _ = engine.start(Duration::ZERO);
    let mut fx = Vec::new();
    for (now, input) in sequence {
        let request = match &input {
            Input::FromController { message, .. } | Input::FromSwitch { message, .. } => {
                u64::from(message.xid())
            }
            Input::TimerFired { token } => token.raw(),
            _ => 0,
        };
        let t0 = trace.now_ns();
        engine.handle_into(now, input, &mut fx);
        let t1 = trace.now_ns();
        fx.clear();
        trace.record("rum.handle_into", root, request, t0, t1);
    }
    for (i, b) in batches.iter().enumerate() {
        let t0 = trace.now_ns();
        buf.clear();
        let _ = codec.encode_batch_into(b, &mut buf);
        let t1 = trace.now_ns();
        trace.record("openflow.encode", root, i as u64, t0, t1);
    }
    trace.close(root);
    r
}

fn per(total_ns: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        total_ns / n as f64
    }
}

/// Runs every plan to completion through its own `UpdateSession` with RUM
/// acks, answered in send order, [`ACKS_PER_DRAIN`] per drain.  Returns
/// the nanoseconds spent inside the session calls.
fn session_pass(
    plans: Vec<UpdatePlan>,
    window: usize,
    mut on_call: impl FnMut(u64, u64),
) -> u64 {
    let mut busy = 0u64;
    let mut fx = Vec::new();
    let mut pending: VecDeque<(ConnId, OfMessage)> = VecDeque::new();
    let mut batch = Vec::with_capacity(ACKS_PER_DRAIN);
    for (p, plan) in plans.into_iter().enumerate() {
        let mut session = UpdateSession::new(plan, AckMode::RumAcks, window);
        let mut input = Some(SessionInput::Started);
        loop {
            let t0 = Instant::now();
            if let Some(i) = input.take() {
                session.handle_into(Duration::ZERO, i, &mut fx);
            } else {
                session.drain_into(Duration::ZERO, batch.drain(..), &mut fx);
            }
            let dt = t0.elapsed().as_nanos() as u64;
            busy += dt;
            on_call(p as u64, dt);
            for e in fx.drain(..) {
                if let SessionEffect::Send {
                    conn,
                    message: OfMessage::FlowMod { xid, .. },
                } = e
                {
                    pending.push_back((conn, OfMessage::rum_ack(xid)));
                }
            }
            if pending.is_empty() {
                break;
            }
            for _ in 0..ACKS_PER_DRAIN.min(pending.len()) {
                let (conn, message) = pending.pop_front().expect("non-empty");
                batch.push(SessionInput::FromSwitch { conn, message });
            }
        }
    }
    busy
}

/// `controller.drain_ns_per_mod`: the plans through `UpdateSession`.
pub fn controller(plans: &[UpdatePlan], window: usize, trace: &mut Trace) -> f64 {
    let mods: usize = plans.iter().map(UpdatePlan::len).sum();
    let _ = session_pass(plans.to_vec(), window, |_, _| {});
    let ns = median(
        &(0..REPS)
            .map(|_| session_pass(plans.to_vec(), window, |_, _| {}) as f64)
            .collect::<Vec<_>>(),
    );
    let root = trace.open("replay.controller", 0, 0);
    // Calls are laid end to end from the root's start: the session replay
    // runs on a virtual clock, so only durations are real.
    let mut t = trace.now_ns();
    let mut calls = Vec::new();
    session_pass(plans.to_vec(), window, |p, dt| {
        calls.push((p, dt))
    });
    for (p, dt) in calls {
        trace.record("controller.session_call", root, p, t, t + dt);
        t += dt;
    }
    trace.close(root);
    per(ns, mods)
}

/// Replays tenant plans through one `SessionMux` on a virtual clock:
/// session `t` arrives at `t / rate`, each released flow-mod is acked
/// `ack_latency` later.  Returns nanoseconds spent inside mux calls.
fn mux_pass(
    plans: Vec<UpdatePlan>,
    config: MuxConfig,
    rate: f64,
    ack_latency: Duration,
    mut on_call: impl FnMut(u64, u64),
) -> u64 {
    enum Ev {
        Arrive(u64, UpdatePlan),
        Ack(ConnId, OfMessage),
    }
    let mut mux = SessionMux::new(config);
    let mut events: BTreeMap<(Duration, u64), Ev> = BTreeMap::new();
    let mut seq = 0u64;
    for (t, plan) in plans.into_iter().enumerate() {
        events.insert(
            (Duration::from_secs_f64(t as f64 / rate), seq),
            Ev::Arrive(t as u64, plan),
        );
        seq += 1;
    }
    let mut fx = Vec::new();
    let mut busy = 0u64;
    while let Some(((now, _), ev)) = events.pop_first() {
        let t0 = Instant::now();
        let request = match ev {
            Ev::Arrive(t, plan) => {
                let _ = mux.submit(plan, now, &mut fx);
                t
            }
            Ev::Ack(conn, message) => {
                let xid = u64::from(message.xid());
                mux.handle(now, MuxInput::FromSwitch { conn, message }, &mut fx);
                xid
            }
        };
        let dt = t0.elapsed().as_nanos() as u64;
        busy += dt;
        on_call(request, dt);
        for e in fx.drain(..) {
            if let MuxEffect::Send {
                conn,
                message: OfMessage::FlowMod { xid, .. },
            } = e
            {
                seq += 1;
                events.insert(
                    (now + ack_latency, seq),
                    Ev::Ack(conn, OfMessage::rum_ack(xid)),
                );
            }
        }
    }
    busy
}

/// `sessiond.drain_ns_per_mod`: tenant plans through the mux.
pub fn mux(
    plans: &[UpdatePlan],
    config: MuxConfig,
    rate: f64,
    ack_latency: Duration,
    trace: &mut Trace,
) -> f64 {
    let mods: usize = plans.iter().map(UpdatePlan::len).sum();
    let _ = mux_pass(plans.to_vec(), config, rate, ack_latency, |_, _| {});
    let ns = median(
        &(0..REPS)
            .map(|_| mux_pass(plans.to_vec(), config, rate, ack_latency, |_, _| {}) as f64)
            .collect::<Vec<_>>(),
    );
    let root = trace.open("replay.sessiond", 0, 0);
    let mut t = trace.now_ns();
    let mut calls = Vec::new();
    mux_pass(plans.to_vec(), config, rate, ack_latency, |s, dt| {
        calls.push((s, dt))
    });
    for (s, dt) in calls {
        trace.record("sessiond.mux_call", root, s, t, t + dt);
        t += dt;
    }
    trace.close(root);
    per(ns, mods)
}
