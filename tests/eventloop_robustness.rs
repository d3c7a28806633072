//! Robustness of the readiness-driven event-loop proxy under adversarial
//! socket behaviour: stalls, partial writes, mid-write disconnects and
//! restart re-dials.  Everything here drives `rum_tcp::RumTcpProxy` with
//! raw sockets so each failure mode can be induced precisely.

use openflow::messages::FlowMod;
use openflow::{Action, OfCodec, OfMatch, OfMessage};
use rum::{RumBuilder, SwitchId, TechniqueConfig};
use rum_tcp::{wait_for, ProxyConfig, ProxyHandle, RumTcpProxy};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// Starts a proxy for `n` switches over `shards` engine shards with a
/// static-timeout technique (`delay`), plus the listener playing the real
/// controller.  Returns `(controller_listener, handle)`.
fn start_proxy(n: usize, shards: usize, delay: Duration) -> (TcpListener, ProxyHandle) {
    let controller_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let proxy = RumTcpProxy::new(
        ProxyConfig {
            listen_addr: "127.0.0.1:0".parse().unwrap(),
            controller_addr: controller_listener.local_addr().unwrap(),
        },
        RumBuilder::new(n)
            .shards(shards)
            .technique(TechniqueConfig::StaticTimeout { delay })
            .fine_grained_acks(false),
    );
    let handle = proxy.start().expect("proxy starts");
    (controller_listener, handle)
}

/// Attaches one switch: dials the proxy, accepts the proxy's onward dial on
/// the controller listener, and waits until the proxy counts the
/// connection.  Returns `(switch_stream, controller_stream)`.
fn attach_switch(
    listener: &TcpListener,
    handle: &ProxyHandle,
    expected_connections: u64,
) -> (TcpStream, TcpStream) {
    let switch = TcpStream::connect(handle.local_addr).expect("switch dials proxy");
    let (ctrl, _) = listener.accept().expect("proxy dials controller");
    ctrl.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    switch
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    assert!(
        wait_for(
            || handle.counters().connections() == expected_connections,
            Duration::from_secs(5),
        ),
        "connection {expected_connections} not counted"
    );
    (switch, ctrl)
}

fn flow_mod(xid: u32, cookie: u64) -> OfMessage {
    OfMessage::FlowMod {
        xid,
        body: FlowMod::add(OfMatch::wildcard_all(), 1, vec![Action::output(1)]).with_cookie(cookie),
    }
}

/// Reads from `stream` until `want` flow-mods have been decoded or the read
/// times out; returns the decoded flow-mod xids in arrival order.
fn read_flow_mod_xids(stream: &mut TcpStream, want: usize) -> Vec<u32> {
    let mut codec = OfCodec::new();
    let mut buf = [0u8; 64 * 1024];
    let mut xids = Vec::with_capacity(want);
    while xids.len() < want {
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        codec.feed(&buf[..n]);
        while let Ok(Some(msg)) = codec.next_message() {
            if let OfMessage::FlowMod { xid, .. } = msg {
                xids.push(xid);
            }
        }
    }
    xids
}

/// Plays a well-behaved switch on `stream` until it has answered a barrier
/// request with `xid`: replies to hello/echo/barrier, swallows flow-mods.
fn serve_switch_until_barrier(stream: &mut TcpStream, xid: u32, context: &str) {
    let mut codec = OfCodec::new();
    let mut buf = [0u8; 64 * 1024];
    let mut replies = Vec::new();
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) => panic!("{context}: proxy closed before barrier {xid}"),
            Err(e) => panic!("{context}: switch never saw barrier {xid}: {e}"),
            Ok(n) => n,
        };
        codec.feed(&buf[..n]);
        replies.clear();
        let mut done = false;
        while let Ok(Some(msg)) = codec.next_message() {
            let reply = match msg {
                OfMessage::BarrierRequest { xid: got } => {
                    done |= got == xid;
                    Some(OfMessage::BarrierReply { xid: got })
                }
                OfMessage::EchoRequest { xid, data } => Some(OfMessage::EchoReply { xid, data }),
                OfMessage::Hello { xid } => Some(OfMessage::Hello { xid }),
                _ => None,
            };
            if let Some(r) = reply {
                r.encode_into(&mut replies).unwrap();
            }
        }
        if !replies.is_empty() {
            stream.write_all(&replies).unwrap();
        }
        if done {
            return;
        }
    }
}

/// Reads until a barrier reply with `xid` arrives; panics on timeout.
fn expect_barrier_reply(stream: &mut TcpStream, xid: u32, context: &str) {
    let mut codec = OfCodec::new();
    let mut buf = [0u8; 8192];
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) => panic!("{context}: peer closed before barrier reply {xid}"),
            Err(e) => panic!("{context}: no barrier reply {xid}: {e}"),
            Ok(n) => n,
        };
        codec.feed(&buf[..n]);
        while let Ok(Some(msg)) = codec.next_message() {
            if matches!(msg, OfMessage::BarrierReply { xid: got } if got == xid) {
                return;
            }
        }
    }
}

/// A switch that stalls (stops reading) while the controller keeps
/// blasting forces the proxy into `WouldBlock` territory: its outbox
/// gauge must go up (chunks queued behind the full socket), and once the
/// switch drains, every flow-mod must arrive exactly once, in order —
/// partial writes resumed at the recorded offset, no bytes lost or
/// duplicated across `WouldBlock` boundaries.
#[test]
fn partial_writes_resume_at_the_recorded_offset() {
    // Big enough to overrun the kernel's send-buffer autotuning ceiling
    // (tcp_wmem max is typically 4 MiB) so the proxy really hits
    // `WouldBlock` mid-chunk: ~90 bytes a mod → ~5.4 MiB.
    const MODS: usize = 60_000;
    let (listener, handle) = start_proxy(1, 1, Duration::from_secs(60));
    let (mut switch, mut ctrl) = attach_switch(&listener, &handle, 1);

    // Blast from the controller side while the switch is not reading.
    let mut wire = Vec::with_capacity(MODS * 90);
    for k in 0..MODS {
        flow_mod(2 + k as u32, 1 + k as u64)
            .encode_into(&mut wire)
            .unwrap();
    }
    ctrl.write_all(&wire).unwrap();

    // The socket towards the stalled switch fills up; queued chunks must
    // become visible on the per-switch outbox gauge.
    assert!(
        wait_for(
            || {
                handle
                    .metrics()
                    .snapshot()
                    .gauges
                    .get("proxy.sw0.switch_outbox_depth")
                    .copied()
                    .unwrap_or(0)
                    > 0
            },
            Duration::from_secs(5),
        ),
        "the stalled switch never backed up the proxy outbox"
    );

    // Now drain: every mod arrives exactly once, in order.
    let xids = read_flow_mod_xids(&mut switch, MODS);
    assert_eq!(xids.len(), MODS, "flow-mods lost across partial writes");
    for (k, xid) in xids.iter().enumerate() {
        assert_eq!(*xid, 2 + k as u32, "flow-mod {k} out of order");
    }
    assert_eq!(
        handle.stats(SwitchId::new(0)).controller_flow_mods,
        MODS as u64
    );

    drop(ctrl);
    drop(switch);
    handle.shutdown();
}

/// One stalled switch must not head-of-line-block the fleet: with four
/// switches striped over four shards, switch 0 stops reading entirely
/// while a blast overruns its socket, yet switches 1–3 still complete
/// flow-mod → barrier round trips.  Barrier-baseline keeps the round trip
/// purely wire-driven: each reply needs the live switch to answer, which
/// is exactly what a blocked event loop would prevent.
#[test]
fn stalled_switch_does_not_block_other_shards() {
    let (listener, handle) = {
        let controller_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let proxy = RumTcpProxy::new(
            ProxyConfig {
                listen_addr: "127.0.0.1:0".parse().unwrap(),
                controller_addr: controller_listener.local_addr().unwrap(),
            },
            RumBuilder::new(4)
                .shards(4)
                .technique(TechniqueConfig::BarrierBaseline)
                .fine_grained_acks(false),
        );
        let handle = proxy.start().expect("proxy starts");
        (controller_listener, handle)
    };
    let mut pairs = Vec::new();
    for i in 0..4u64 {
        pairs.push(attach_switch(&listener, &handle, i + 1));
    }

    // Stall switch 0: never read from it again, and overrun its socket so
    // the proxy's writes towards it genuinely hit `WouldBlock`.
    let mut blast = Vec::new();
    for k in 0..60_000u32 {
        flow_mod(2 + k, 1 + k as u64)
            .encode_into(&mut blast)
            .unwrap();
    }
    pairs[0].1.write_all(&blast).unwrap();
    assert!(
        wait_for(
            || {
                handle
                    .metrics()
                    .snapshot()
                    .gauges
                    .get("proxy.sw0.switch_outbox_depth")
                    .copied()
                    .unwrap_or(0)
                    > 0
            },
            Duration::from_secs(10),
        ),
        "the stalled switch never backed up its outbox"
    );

    // Meanwhile switches 1..3 complete ordinary barrier round trips.
    for (i, (switch, ctrl)) in pairs.iter_mut().enumerate().skip(1) {
        let mut wire = Vec::new();
        flow_mod(2, 7).encode_into(&mut wire).unwrap();
        OfMessage::BarrierRequest { xid: 3 }
            .encode_into(&mut wire)
            .unwrap();
        ctrl.write_all(&wire).unwrap();
        serve_switch_until_barrier(switch, 3, &format!("switch {i}"));
        expect_barrier_reply(ctrl, 3, &format!("switch {i} behind a stalled neighbour"));
    }
    for i in 1..4 {
        assert_eq!(
            handle.stats(SwitchId::new(i)).barrier_replies_released,
            1,
            "switch {i}"
        );
    }
    // The stalled neighbour's replies never came back, so its barriers
    // stayed unreleased — stalling cost it only itself.
    assert_eq!(handle.stats(SwitchId::new(0)).barrier_replies_released, 0);
    handle.shutdown();
}

/// A switch that dies **mid-write** — its socket full of queued proxy
/// output when the connection drops — must detach cleanly, keep its
/// modifications unconfirmed, and on re-dial land in the freed slot with
/// exactly one `SwitchReconnected`: the engine re-issues every unconfirmed
/// modification down the fresh channel.
#[test]
fn mid_write_disconnect_reconnects_into_the_freed_slot() {
    const MODS: usize = 60_000;
    // Hold-down far beyond the test so nothing confirms before the drop.
    let (listener, handle) = start_proxy(2, 2, Duration::from_secs(120));
    let (switch0, mut ctrl0) = attach_switch(&listener, &handle, 1);
    let (_switch1, _ctrl1) = attach_switch(&listener, &handle, 2);

    // Queue a blast towards switch 0 without it reading, then kill its
    // connection while the proxy still has chunks in flight.
    let mut wire = Vec::with_capacity(MODS * 90);
    for k in 0..MODS {
        flow_mod(2 + k as u32, 1 + k as u64)
            .encode_into(&mut wire)
            .unwrap();
    }
    ctrl0.write_all(&wire).unwrap();
    assert!(
        wait_for(
            || handle.stats(SwitchId::new(0)).controller_flow_mods == MODS as u64,
            Duration::from_secs(10),
        ),
        "engine never saw the blast"
    );
    // The drop must be a *mid-write* disconnect: wait until the proxy has
    // chunks queued behind switch 0's full socket before killing it.
    assert!(
        wait_for(
            || {
                handle
                    .metrics()
                    .snapshot()
                    .gauges
                    .get("proxy.sw0.switch_outbox_depth")
                    .copied()
                    .unwrap_or(0)
                    > 0
            },
            Duration::from_secs(10),
        ),
        "switch 0's outbox never backed up — the disconnect would not be mid-write"
    );
    drop(switch0); // mid-write disconnect: outbox still non-empty

    // Re-dial until the freed slot is claimed (detach is asynchronous).
    let mut replacement = None;
    assert!(
        wait_for(
            || {
                if handle.counters().connections() >= 3 {
                    return true;
                }
                replacement = TcpStream::connect(handle.local_addr).ok();
                false
            },
            Duration::from_secs(5),
        ),
        "re-dial was not attached"
    );
    let mut replacement = replacement.expect("replacement stream");
    replacement
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // The proxy dials the controller once more for the reattached switch.
    let (_ctrl0b, _) = listener.accept().expect("proxy re-dials controller");

    // Exactly one reconnect, on the restarted switch only, and every
    // still-unconfirmed modification re-issued down the fresh channel.
    assert!(
        wait_for(
            || handle.stats(SwitchId::new(0)).reconnects == 1,
            Duration::from_secs(5),
        ),
        "switch 0 must re-converge exactly once, saw {}",
        handle.stats(SwitchId::new(0)).reconnects
    );
    assert_eq!(handle.stats(SwitchId::new(1)).reconnects, 0);
    assert_eq!(
        handle.stats(SwitchId::new(0)).reissued_flow_mods,
        MODS as u64,
        "unconfirmed modifications must be re-issued on reconnect"
    );
    let xids = read_flow_mod_xids(&mut replacement, MODS);
    assert_eq!(
        xids.len(),
        MODS,
        "the reattached switch must receive the full re-issue"
    );
    handle.shutdown();
}

/// A clean restart (EOF, empty outbox) re-dials into the freed slot while
/// a neighbour stays attached: same slot, one `SwitchReconnected`, the
/// neighbour untouched — and the re-attached channel still works.
#[test]
fn restart_re_dial_lands_in_the_freed_slot_with_one_reconnect() {
    let delay = Duration::from_millis(30);
    let (listener, handle) = start_proxy(2, 2, delay);
    let (switch0, ctrl0) = attach_switch(&listener, &handle, 1);
    let (_switch1, _ctrl1) = attach_switch(&listener, &handle, 2);

    // Clean shutdown of switch 0 (nothing queued).
    drop(switch0);
    drop(ctrl0);

    let mut replacement = None;
    assert!(
        wait_for(
            || {
                if handle.counters().connections() >= 3 {
                    return true;
                }
                replacement = TcpStream::connect(handle.local_addr).ok();
                false
            },
            Duration::from_secs(5),
        ),
        "restart re-dial was not attached"
    );
    let mut replacement = replacement.expect("replacement stream");
    replacement
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let (mut ctrl0b, _) = listener.accept().expect("proxy re-dials controller");
    ctrl0b
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    assert!(
        wait_for(
            || handle.stats(SwitchId::new(0)).reconnects == 1,
            Duration::from_secs(5),
        ),
        "slot 0 must record exactly one reconnect"
    );
    assert_eq!(handle.stats(SwitchId::new(1)).reconnects, 0);

    // The re-attached slot serves traffic: a confirmed update completes.
    let mut wire = Vec::new();
    flow_mod(2, 99).encode_into(&mut wire).unwrap();
    OfMessage::BarrierRequest { xid: 3 }
        .encode_into(&mut wire)
        .unwrap();
    ctrl0b.write_all(&wire).unwrap();
    serve_switch_until_barrier(&mut replacement, 3, "restarted switch");
    expect_barrier_reply(&mut ctrl0b, 3, "restarted switch");
    assert_eq!(handle.stats(SwitchId::new(0)).barrier_replies_released, 1);
    handle.shutdown();
}

/// A switch whose bytes do not frame as OpenFlow — a header whose length
/// field (4) is shorter than the 8-byte header itself — is disconnected
/// and counted in `proxy.framing_errors`, and its re-dial attaches into
/// the freed slot.
#[test]
fn framing_error_disconnects_counts_and_frees_the_slot() {
    let (listener, handle) = start_proxy(1, 1, Duration::from_millis(30));
    let (mut switch, _ctrl) = attach_switch(&listener, &handle, 1);

    // version 1, type 0 (hello), length 4, xid 0.
    switch.write_all(&[1, 0, 0, 4, 0, 0, 0, 0]).unwrap();
    let mut buf = [0u8; 1024];
    loop {
        match switch.read(&mut buf) {
            Ok(0) => break,
            Ok(_) => continue,
            Err(e) => panic!("the proxy kept a connection that cannot frame: {e}"),
        }
    }
    assert_eq!(handle.counters().framing_errors(), 1);

    let mut replacement = None;
    assert!(
        wait_for(
            || {
                if handle.counters().connections() >= 2 {
                    return true;
                }
                replacement = TcpStream::connect(handle.local_addr).ok();
                false
            },
            Duration::from_secs(5),
        ),
        "re-dial after the framing error was not attached"
    );
    let (_ctrl_b, _) = listener.accept().expect("proxy re-dials controller");
    assert!(
        wait_for(
            || handle.stats(SwitchId::new(0)).reconnects == 1,
            Duration::from_secs(5),
        ),
        "the re-dial must land in the freed slot 0"
    );
    assert_eq!(handle.counters().framing_errors(), 1);
    handle.shutdown();
}
