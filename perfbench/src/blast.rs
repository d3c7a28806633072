//! `blast`: a closed loop on the pass-through path.  Each of the two
//! controller connections streams flow-mods with a barrier after every
//! `batch` mods and [`IN_FLIGHT`] barrier-delimited batches awaiting their
//! reply; the proxy runs `BarrierBaseline` without fine-grained acks,
//! and the switches are the bench's own instant-reply fakes.  Batches are
//! generated and encoded as they are sent.

use crate::capture::{via_tap, Chunk, Side};
use crate::common::{ms, named, own_cpu_ns, ratio, CpuSnapshot, Rng, COMM_PROXY};
use crate::layers::{LayerSample, Sampler, Transport};
use crate::{Iteration, Request};
use controller::scenarios::FLOW_RULE_PRIORITY;
use openflow::messages::FlowMod;
use openflow::{Action, OfCodec, OfMatch, OfMessage};
use rum::{RumBuilder, TechniqueConfig};
use rum_tcp::{ProxyConfig, RumTcpProxy};
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const CONNECTIONS: usize = 2;

/// Batches per connection awaiting their barrier reply.  On a 2-vCPU VM,
/// with one in flight a run's ack p50 moved between 0.086 and 0.12 ms
/// with the host's load from run to run (each batch waits on four thread
/// wake-ups); two keep the proxy fed and halve that swing; four gave
/// bimodal 5-10 ms reply tails.
const IN_FLIGHT: usize = 2;

/// Names of the bench threads that play the controller and the switches.
pub const LOAD_COMM: &str = "pb-load";
pub const SWITCH_COMM: &str = "pb-fsw";

/// Xid of batch `b`'s barrier is `BARRIER_XID_BASE + b`: clear of the
/// flow-mod xids below it and of the proxy's own ranges above
/// `0x8000_0000`, so every barrier round-trips as controller-origin.
const BARRIER_XID_BASE: u32 = 0x4000_0000;

/// Shape of the `blast` workload.
#[derive(Debug, Clone)]
pub struct BlastConfig {
    pub batch: usize,
    /// Batches each connection sends per iteration.  Fixed work (rather
    /// than a fixed time) makes the program's allocation pattern — and so
    /// `peak_rss_mb` — repeat from iteration to iteration.
    pub batches: usize,
    /// Deadline of one iteration's phase; replies missing by then fail.
    pub deadline: Duration,
    /// Self-test knob: fake switch `.0` swallows its `.1`-th barrier
    /// request instead of answering it.
    pub drop_barrier: Option<(usize, u64)>,
}

impl BlastConfig {
    pub fn standard() -> Self {
        BlastConfig {
            batch: 50,
            batches: 4_000,
            deadline: Duration::from_secs(20),
            drop_barrier: None,
        }
    }
}

/// The proxy's engine configuration; the layer replay builds the same one.
pub fn builder() -> RumBuilder {
    RumBuilder::new(CONNECTIONS)
        .shards(CONNECTIONS)
        .technique(TechniqueConfig::BarrierBaseline)
        .fine_grained_acks(false)
}

/// Cookie of connection `conn`'s `seq`-th flow-mod.
fn cookie(conn: usize, seq: u64) -> u64 {
    ((conn as u64 + 1) << 40) | seq
}

/// Connection `conn`'s `seq`-th flow-mod: a seeded source address in
/// `10.(32 + conn).x.y`, generated on demand.
pub fn flow_mod(seed: u64, conn: usize, seq: u64) -> FlowMod {
    let h = Rng::new(seed ^ cookie(conn, seq)).next_u64();
    FlowMod::add(
        OfMatch::ipv4_pair(
            Ipv4Addr::new(10, 32 + conn as u8, (h >> 8) as u8, h as u8),
            Ipv4Addr::new(10, 200, 0, 1),
        ),
        FLOW_RULE_PRIORITY,
        vec![Action::output(1)],
    )
    .with_cookie(cookie(conn, seq))
}

/// What one load thread saw.
#[derive(Debug, Default)]
struct LoadOut {
    mods_sent: u64,
    /// Per batch: barrier write time and reply time (epoch clock).
    batches: Vec<(Duration, Option<Duration>)>,
    /// Batches whose reply never came, or came after a later one.
    missing: u64,
    out_of_order: u64,
    /// The load thread's own CPU time (it exits before the phase's
    /// closing CPU snapshot).
    cpu_ns: u64,
}

fn load(
    stream: &mut TcpStream,
    conn: usize,
    seed: u64,
    cfg: &BlastConfig,
    epoch: Instant,
    give_up: Instant,
) -> LoadOut {
    let mut out = LoadOut::default();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));
    let mut codec = OfCodec::new();
    let mut wire = Vec::with_capacity(cfg.batch * 96);
    let mut msgs = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut next_reply = 0usize;
    let mut seq = 0u64;
    loop {
        while out.batches.len() - next_reply < IN_FLIGHT && out.batches.len() < cfg.batches {
            wire.clear();
            for _ in 0..cfg.batch {
                OfMessage::FlowMod {
                    xid: 1 + (seq % u64::from(BARRIER_XID_BASE - 1)) as u32,
                    body: flow_mod(seed, conn, seq),
                }
                .encode_into(&mut wire)
                .expect("encodable flow-mod");
                seq += 1;
            }
            let xid = BARRIER_XID_BASE + out.batches.len() as u32;
            OfMessage::BarrierRequest { xid }
                .encode_into(&mut wire)
                .expect("encodable barrier");
            if stream.write_all(&wire).is_err() {
                return finish(out, next_reply);
            }
            out.mods_sent += cfg.batch as u64;
            out.batches.push((epoch.elapsed(), None));
        }
        if next_reply == cfg.batches {
            return out;
        }
        if Instant::now() >= give_up {
            return finish(out, next_reply);
        }
        let n = match stream.read(&mut buf) {
            Ok(0) => return finish(out, next_reply),
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(_) => return finish(out, next_reply),
        };
        let at = epoch.elapsed();
        codec.feed(&buf[..n]);
        msgs.clear();
        if codec.drain_messages_into(&mut msgs).is_err() {
            return finish(out, next_reply);
        }
        for m in &msgs {
            let OfMessage::BarrierReply { xid } = m else {
                continue;
            };
            let b = xid.wrapping_sub(BARRIER_XID_BASE) as usize;
            if b < next_reply || b >= out.batches.len() {
                out.out_of_order += 1;
                continue;
            }
            // Replies must come back in order: any batch skipped over has
            // lost its reply.
            out.missing += (b - next_reply) as u64;
            out.batches[b].1 = Some(at);
            next_reply = b + 1;
        }
    }
}

fn finish(mut out: LoadOut, next_reply: usize) -> LoadOut {
    out.missing += (out.batches.len() - next_reply) as u64;
    out
}

/// What one fake switch saw.
#[derive(Debug, Default)]
struct SwitchOut {
    mods: u64,
    /// Flow-mods whose cookie was not the next one the controller sent.
    mismatched: u64,
    /// Receipt time of each batch's last flow-mod (traced runs).
    batch_done: Vec<Duration>,
}

/// An instant-reply switch: answers barriers, echoes and hellos, swallows
/// flow-mods (checking they arrive exactly as the controller sent them).
fn fake_switch(
    mut stream: TcpStream,
    conn: usize,
    batch: u64,
    record: bool,
    drop_barrier: Option<u64>,
    epoch: Instant,
    stop: &AtomicBool,
) -> SwitchOut {
    let mut out = SwitchOut::default();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));
    let mut codec = OfCodec::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut msgs = Vec::new();
    let mut replies = Vec::new();
    let mut barriers = 0u64;
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) => return out,
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stop.load(Ordering::Relaxed) {
                    return out;
                }
                continue;
            }
            Err(_) => return out,
        };
        codec.feed(&buf[..n]);
        msgs.clear();
        if codec.drain_messages_into(&mut msgs).is_err() {
            return out;
        }
        replies.clear();
        for m in msgs.drain(..) {
            let reply = match m {
                OfMessage::FlowMod { body, .. } => {
                    if body.cookie != cookie(conn, out.mods) {
                        out.mismatched += 1;
                    }
                    out.mods += 1;
                    if record && out.mods % batch == 0 {
                        out.batch_done.push(epoch.elapsed());
                    }
                    None
                }
                OfMessage::BarrierRequest { xid } => {
                    barriers += 1;
                    (drop_barrier != Some(barriers)).then_some(OfMessage::BarrierReply { xid })
                }
                OfMessage::EchoRequest { xid, data } => Some(OfMessage::EchoReply { xid, data }),
                OfMessage::Hello { xid } => Some(OfMessage::Hello { xid }),
                _ => None,
            };
            if let Some(r) = reply {
                r.encode_into(&mut replies).expect("encodable reply");
            }
        }
        if !replies.is_empty() && stream.write_all(&replies).is_err() {
            return out;
        }
    }
}

/// Accepts one connection or gives up after `timeout`.
fn accept_within(listener: &TcpListener, timeout: Duration) -> Option<TcpStream> {
    listener.set_nonblocking(true).ok()?;
    let deadline = Instant::now() + timeout;
    loop {
        match listener.accept() {
            Ok((s, _)) => {
                s.set_nonblocking(false).ok()?;
                return Some(s);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock && Instant::now() < deadline => {
                std::thread::yield_now();
            }
            Err(_) => return None,
        }
    }
}

/// Runs one iteration (see [`crate::probe::iteration`] for the flags).
pub fn iteration(
    cfg: &BlastConfig,
    seed: u64,
    measure: bool,
    traced: bool,
    capture: Option<&Arc<Mutex<Vec<Chunk>>>>,
) -> Iteration {
    let started = Instant::now();
    let epoch = started;
    let listener = TcpListener::bind("127.0.0.1:0").expect("controller listener");
    let ctrl_addr = listener.local_addr().expect("bound address");
    let mut taps = Vec::new();
    let upstream = via_tap(
        capture,
        Side::Controller,
        ctrl_addr,
        CONNECTIONS,
        epoch,
        &mut taps,
    );
    let proxy = named(COMM_PROXY, || {
        RumTcpProxy::new(
            ProxyConfig {
                listen_addr: "127.0.0.1:0".parse().expect("literal address"),
                controller_addr: upstream,
            },
            builder(),
        )
        .start()
        .expect("proxy starts on loopback")
    });
    let switch_addr = via_tap(
        capture,
        Side::Switch,
        proxy.local_addr,
        CONNECTIONS,
        epoch,
        &mut taps,
    );

    let stop = Arc::new(AtomicBool::new(false));
    let mut it = Iteration {
        epoch: Some(epoch),
        ..Iteration::default()
    };
    let mut switches = Vec::new();
    let mut streams = Vec::new();
    for conn in 0..CONNECTIONS {
        let Ok(s) = TcpStream::connect(switch_addr) else {
            break;
        };
        let stop = Arc::clone(&stop);
        let batch = cfg.batch as u64;
        let swallow = cfg.drop_barrier.and_then(|(c, n)| (c == conn).then_some(n));
        switches.push(
            std::thread::Builder::new()
                .name(format!("{SWITCH_COMM}{conn}"))
                .spawn(move || fake_switch(s, conn, batch, traced, swallow, epoch, &stop))
                .expect("spawn fake switch"),
        );
        match accept_within(&listener, Duration::from_secs(5)) {
            Some(s) => streams.push(s),
            None => break,
        }
    }
    it.setup_s = started.elapsed().as_secs_f64();
    let attached = streams.len() == CONNECTIONS;
    it.failures.setup_failed = !attached;

    let mut loads = Vec::new();
    let mut sampled = Default::default();
    let mut cpu = None;
    let mut phase = Duration::ZERO;
    if measure && attached {
        let sampler = traced.then(|| Sampler::for_proxy(&proxy, None));
        let cpu0 = traced.then(CpuSnapshot::take);
        phase = epoch.elapsed();
        let give_up = Instant::now() + cfg.deadline;
        let handles: Vec<_> = streams
            .drain(..)
            .enumerate()
            .map(|(conn, s)| {
                let cfg = cfg.clone();
                std::thread::Builder::new()
                    .name(format!("{LOAD_COMM}{conn}"))
                    .spawn(move || {
                        let mut s = s;
                        let mut out = load(&mut s, conn, seed, &cfg, epoch, give_up);
                        out.cpu_ns = own_cpu_ns();
                        (out, s)
                    })
                    .expect("spawn load thread")
            })
            .collect();
        // The load threads hand their connections back: closing one would
        // make the proxy drop the paired switch, and the fake switches must
        // still be alive for the closing CPU snapshot.
        for h in handles {
            let (out, s) = h.join().expect("load thread");
            loads.push(out);
            streams.push(s);
        }
        cpu = cpu0.map(|c0| {
            let mut cpu = c0.delta_by_name(&CpuSnapshot::take());
            for l in &loads {
                cpu.add_named(LOAD_COMM, l.cpu_ns);
            }
            cpu
        });
        sampled = sampler.map(Sampler::finish).unwrap_or_default();
    }
    let stats = proxy.total_stats();
    let transport = Transport::read(proxy.counters());
    drop(streams);
    proxy.shutdown();
    stop.store(true, Ordering::Relaxed);
    let seen: Vec<SwitchOut> = switches
        .into_iter()
        .map(|h| h.join().expect("fake switch thread"))
        .collect();
    for tap in taps {
        tap.finish();
    }
    if !measure || !attached {
        return it;
    }

    let batch = cfg.batch as u64;
    let mut acked = 0u64;
    let mut last_reply = phase;
    let mut lag_ms = Vec::new();
    let mut activate_ms = Vec::new();
    for (conn, (l, s)) in loads.iter().zip(&seen).enumerate() {
        it.attempted += l.mods_sent;
        it.failures.unreplied += l.missing * batch;
        it.failures.out_of_order += l.out_of_order;
        it.failures.unmatched += l.mods_sent.abs_diff(s.mods) + s.mismatched;
        for (b, &(write, reply)) in l.batches.iter().enumerate() {
            let Some(reply) = reply else {
                continue;
            };
            acked += batch;
            last_reply = last_reply.max(reply);
            it.acks_ms.push(ms(reply.saturating_sub(write)));
            if let Some(&done) = s.batch_done.get(b) {
                activate_ms.push(ms(done.saturating_sub(write)));
                lag_ms.push(ms(reply.saturating_sub(done)));
            }
            if traced {
                it.requests.push(Request {
                    id: ((conn as u64) << 32) | u64::from(BARRIER_XID_BASE + b as u32),
                    send: Some(write),
                    active: s.batch_done.get(b).copied(),
                    confirm: Some(reply),
                });
            }
        }
    }
    // Rate: acknowledged mods over the phase, from the load threads'
    // start to the last reply.
    let span = last_reply.saturating_sub(phase).as_secs_f64();
    it.rate = ratio(acked as f64, span);
    if let Some(cpu) = cpu {
        it.layer = Some(LayerSample {
            mods: acked,
            cpu,
            stats,
            transport,
            switch_errors: 0,
            lag_ms,
            activate_ms,
            sampled,
            arrival_late_ms: Vec::new(),
        });
    }
    it
}
