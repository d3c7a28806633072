//! The TCP drivers of the sans-IO controller cores: the paper's
//! consistent-update controller ([`TcpUpdateController`], serving an
//! [`UpdateSession`]) here, and its multi-tenant sibling
//! [`crate::TcpMuxController`] (serving a `SessionMux`) next door.
//!
//! Both run on the crate's one transport (the `transport` module, shared
//! with the proxy): accepted sockets claim [`ConnId`] slots in accept
//! order, one `poll(2)` worker decodes OpenFlow frames, and a timer thread
//! replays timer fires — three threads, whatever the number of switches.
//! The shared `Driver` is the only glue: it feeds each decoded batch or
//! timer fire into the core under one lock, encodes the core's sends into
//! one chunk per connection, pushes the chunks onto the slot outboxes and
//! flushes them without blocking from the calling thread.  All consistency
//! logic — dependency gating, the window, acknowledgment modes, the
//! failure policy — lives in the session, which is the exact state machine
//! the simulator's `controller::Controller` drives.

use crate::transport::{self, Chunks, Outbox, Service, Threads, Transport};
use controller::{
    is_resync_token, ConnId, Reconciler, ResyncConfig, ResyncEffect, ResyncInput, SessionEffect,
    SessionInput, SessionOutcome, SessionTimerToken, UpdateSession,
};
use openflow::OfMessage;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What one drain of a controller core asks the driver to do.
pub(crate) struct Sends {
    /// Encoded bytes per connection.
    chunks: Chunks,
    /// Timers to arm, as `(delay, raw token)`.
    timers: Vec<(Duration, u64)>,
    /// Set when waiters on the driver's condvar should re-check.
    pub(crate) notify: bool,
}

impl Sends {
    /// Encodes `message` for `conn`; a connection outside the slot table
    /// could never be written and is ignored.
    pub(crate) fn send(&mut self, conn: ConnId, message: &OfMessage) {
        self.chunks.encode(conn.index(), message);
    }

    /// Asks for `token` to fire after `delay`.
    pub(crate) fn arm(&mut self, delay: Duration, token: u64) {
        self.timers.push((delay, token));
    }
}

/// A sans-IO controller core the [`Driver`] feeds.
pub(crate) trait Core: Send + 'static {
    /// Messages decoded from one read of `conn`'s socket; drains `msgs`.
    fn on_messages(
        &mut self,
        now: Duration,
        conn: ConnId,
        msgs: &mut Vec<OfMessage>,
        out: &mut Sends,
    );
    /// A timer the core armed has fired.
    fn on_timer(&mut self, now: Duration, token: u64, out: &mut Sends);
    /// Every expected connection is attached (called once).
    fn on_all_attached(&mut self, _now: Duration, _out: &mut Sends) {}
}

struct Locked<C> {
    core: C,
    out: Sends,
}

/// A controller core served over the transport.
pub(crate) struct Driver<C> {
    transport: Transport,
    state: Mutex<Locked<C>>,
    /// Notified after every drain that set [`Sends::notify`].
    done: Condvar,
    epoch: Instant,
    /// Connections ever attached (reconnects included).
    accepted: AtomicUsize,
    /// Whether [`Core::on_all_attached`] has run.
    started: AtomicBool,
}

impl<C: Core> Driver<C> {
    /// Binds `listen_addr` and serves `core` over `n_connections` slots
    /// with one worker; the threads are spawned here, so they inherit the
    /// caller's name.
    pub(crate) fn start(
        listen_addr: SocketAddr,
        core: C,
        n_connections: usize,
        epoch: Instant,
    ) -> std::io::Result<(Arc<Self>, Threads)> {
        let listener = TcpListener::bind(listen_addr)?;
        let slots = (0..n_connections)
            .map(|_| vec![Outbox::new(Arc::default(), Arc::default())])
            .collect();
        let driver = Arc::new(Driver {
            transport: Transport::new(slots, 1, Arc::default())?,
            state: Mutex::new(Locked {
                core,
                out: Sends {
                    chunks: Chunks::new(n_connections),
                    timers: Vec::new(),
                    notify: false,
                },
            }),
            done: Condvar::new(),
            epoch,
            accepted: AtomicUsize::new(0),
            started: AtomicBool::new(false),
        });
        let threads = transport::start(&driver, listener)?;
        Ok((driver, threads))
    }

    /// Runs `f` against the core under the state lock and pushes the sends
    /// it encoded onto the slot outboxes before the lock drops, so
    /// concurrent drains keep engine order on every socket.  Timers are
    /// armed and the touched slots flushed after it drops.
    pub(crate) fn drive<R>(&self, f: impl FnOnce(&mut C, Duration, &mut Sends) -> R) -> R {
        let now = self.epoch.elapsed();
        let mut touched = Vec::new();
        let (result, timers, notify) = {
            let mut st = self.state.lock().unwrap();
            let st = &mut *st;
            let result = f(&mut st.core, now, &mut st.out);
            self.transport.push_chunks(&mut st.out.chunks, &mut touched);
            let notify = std::mem::take(&mut st.out.notify);
            (result, std::mem::take(&mut st.out.timers), notify)
        };
        self.transport.finish_drain(touched, timers);
        if notify {
            self.done.notify_all();
        }
        result
    }

    /// Runs `f` against the core under the state lock.
    pub(crate) fn with_core<R>(&self, f: impl FnOnce(&C) -> R) -> R {
        f(&self.state.lock().unwrap().core)
    }

    /// Blocks until `f` yields a value or `timeout` elapses; `f` is
    /// re-checked after every drain that set [`Sends::notify`].
    pub(crate) fn wait_until<R>(
        &self,
        timeout: Duration,
        mut f: impl FnMut(&C) -> Option<R>,
    ) -> Option<R> {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(r) = f(&st.core) {
                return Some(r);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            st = self.done.wait_timeout(st, deadline - now).unwrap().0;
        }
    }

    /// Connections ever attached (reconnects included).
    pub(crate) fn connections(&self) -> usize {
        self.accepted.load(Ordering::SeqCst)
    }
}

impl<C: Core> Service for Driver<C> {
    fn transport(&self) -> &Transport {
        &self.transport
    }

    fn on_accept(&self, stream: TcpStream) {
        // Surplus connections are dropped; a restarted switch reattaches
        // under its original ConnId (the lowest freed slot).
        let Some(slot) = self.transport.claim() else {
            return;
        };
        self.accepted.fetch_add(1, Ordering::SeqCst);
        self.transport.attach(slot, vec![stream]);
        if self.transport.all_attached() && !self.started.swap(true, Ordering::SeqCst) {
            self.drive(|core, now, out| core.on_all_attached(now, out));
        }
    }

    fn on_messages(&self, slot: usize, _end: usize, msgs: &mut Vec<OfMessage>) {
        self.drive(|core, now, out| core.on_messages(now, ConnId::new(slot), msgs, out));
    }

    fn on_timer(&self, token: u64) {
        self.drive(|core, now, out| core.on_timer(now, token, out));
    }
}

/// The update controller's core: the session plus the optional reconciler.
struct UpdateCore {
    session: UpdateSession,
    /// Optional reconciliation engine; a mid-run Hello on an attached
    /// connection is the reconnect signal (the switch host replays the
    /// handshake on reattach and the RUM proxy forwards it), mirroring the
    /// simulator driver exactly.
    resync: Option<Reconciler>,
    /// Reusable effects buffer for session drains.
    effects: Vec<SessionEffect>,
}

impl UpdateCore {
    /// Feeds one input into the session and executes its effects.  When
    /// resync is enabled, confirmations feed the desired store and a
    /// terminal outcome opens the reconciliation gate in the same drain —
    /// no switch message can race in between.
    fn session(&mut self, now: Duration, input: SessionInput, out: &mut Sends) {
        let mut finished = false;
        let mut effects = std::mem::take(&mut self.effects);
        self.session
            .drain_into(now, std::iter::once(input), &mut effects);
        for effect in effects.drain(..) {
            match effect {
                SessionEffect::Send { conn, message } => out.send(conn, &message),
                SessionEffect::ArmTimer { delay, token } => out.arm(delay, token.raw()),
                SessionEffect::Confirmed { id } => {
                    if let Some(resync) = self.resync.as_mut() {
                        if let Some(m) = self.session.plan().get(id) {
                            resync.store_mut().note_confirmed(m.target, &m.flow_mod);
                        }
                    }
                }
                SessionEffect::Rejected { .. } => {}
                SessionEffect::Completed { .. } | SessionEffect::Aborted { .. } => finished = true,
            }
        }
        self.effects = effects;
        if finished {
            out.notify = true;
            self.resync(now, ResyncInput::SessionSettled, out);
        }
    }

    /// Feeds one input into the reconciler (no-op while resync is
    /// disabled); a switch reaching a terminal resync state (converged or
    /// gave up) wakes the waiters.
    fn resync(&mut self, now: Duration, input: ResyncInput, out: &mut Sends) {
        let Some(resync) = self.resync.as_mut() else {
            return;
        };
        for effect in resync.handle(now, input) {
            match effect {
                ResyncEffect::Send { conn, message } => out.send(conn, &message),
                ResyncEffect::ArmTimer { delay, token } => out.arm(delay, token),
                ResyncEffect::Converged { .. } | ResyncEffect::GaveUp { .. } => out.notify = true,
            }
        }
    }
}

impl Core for UpdateCore {
    /// Routes every message to the engine it belongs to — the session
    /// while it is live; the reconciler for reconnect Hellos, FlowRemoved
    /// notifications and everything after the session settles.
    fn on_messages(
        &mut self,
        now: Duration,
        conn: ConnId,
        msgs: &mut Vec<OfMessage>,
        out: &mut Sends,
    ) {
        for message in msgs.drain(..) {
            if self.resync.is_some() {
                match message {
                    // A mid-run Hello means the switch behind this
                    // connection restarted and replayed its handshake:
                    // answer it (completing the handshake) and flag the
                    // reconnect.
                    OfMessage::Hello { xid } => {
                        out.send(conn, &OfMessage::Hello { xid });
                        self.resync(now, ResyncInput::SwitchReconnected { conn }, out);
                        continue;
                    }
                    // Aged-out rules leave the desired store no matter
                    // which engine is currently live.
                    OfMessage::FlowRemoved { .. } => {
                        self.resync(now, ResyncInput::FromSwitch { conn, message }, out);
                        continue;
                    }
                    _ => {}
                }
                if self.session.outcome().is_some() {
                    self.resync(now, ResyncInput::FromSwitch { conn, message }, out);
                    continue;
                }
            }
            self.session(now, SessionInput::FromSwitch { conn, message }, out);
        }
    }

    fn on_timer(&mut self, now: Duration, token: u64, out: &mut Sends) {
        // Session and resync timers share one queue; the token namespaces
        // are disjoint by construction.
        if is_resync_token(token) {
            self.resync(now, ResyncInput::TimerFired { token }, out);
        } else {
            let token = SessionTimerToken::from_raw(token);
            self.session(now, SessionInput::TimerFired { token }, out);
        }
    }

    fn on_all_attached(&mut self, now: Duration, out: &mut Sends) {
        self.session(now, SessionInput::Started, out);
    }
}

/// A consistent-update controller serving an [`UpdateSession`] over TCP.
///
/// Switch connections attach in accept order: the first accepted socket
/// becomes [`ConnId`] 0 (= plan `SwitchRef` 0) and so on, which matches how
/// the RUM proxy dials one upstream connection per switch as that switch
/// connects.  Deployments that need a deterministic mapping connect the
/// switches one at a time (see [`TcpControllerHandle::connections`]).
pub struct TcpUpdateController {
    listen_addr: SocketAddr,
    session: UpdateSession,
    resync: Option<Reconciler>,
    n_connections: usize,
    epoch: Instant,
}

impl TcpUpdateController {
    /// Creates a controller executing `session` once `n_connections` switch
    /// connections have been accepted on `listen_addr`.
    ///
    /// # Panics
    ///
    /// Panics if the session's plan targets a `SwitchRef` outside
    /// `0..n_connections` — its modifications could never be sent.
    pub fn new(listen_addr: SocketAddr, session: UpdateSession, n_connections: usize) -> Self {
        Self::new_with_epoch(listen_addr, session, n_connections, Instant::now())
    }

    /// Like [`TcpUpdateController::new`] but measuring session time against
    /// an explicit `epoch` — share one `Instant` with the switch hosts so
    /// confirmation times and data-plane activation times are comparable.
    pub fn new_with_epoch(
        listen_addr: SocketAddr,
        session: UpdateSession,
        n_connections: usize,
        epoch: Instant,
    ) -> Self {
        let max_target = session.plan().targets().into_iter().max();
        if let Some(max) = max_target {
            assert!(
                max < n_connections,
                "plan targets switch {max} but only {n_connections} connections are expected"
            );
        }
        TcpUpdateController {
            listen_addr,
            session,
            resync: None,
            n_connections,
            epoch,
        }
    }

    /// Enables declarative resync: every confirmed modification is recorded
    /// in a desired store, and once the session settles, any switch that
    /// replays its handshake (i.e. restarted and reconnected) is read back
    /// and repaired until its flow table matches the store.  Returns the
    /// reconciler so callers can seed the desired store (pre-installed
    /// rules) before [`TcpUpdateController::start`].
    pub fn enable_resync(&mut self, config: ResyncConfig) -> &mut Reconciler {
        self.resync.insert(Reconciler::new(config))
    }

    /// Binds the listener and starts serving connections on background
    /// threads.  The update begins automatically once all expected
    /// connections are up.
    pub fn start(self) -> std::io::Result<TcpControllerHandle> {
        let core = UpdateCore {
            session: self.session,
            resync: self.resync,
            effects: Vec::new(),
        };
        let (driver, threads) =
            Driver::start(self.listen_addr, core, self.n_connections, self.epoch)?;
        Ok(TcpControllerHandle {
            local_addr: threads.local_addr,
            driver,
            threads,
        })
    }
}

/// A handle to a running TCP update controller.
pub struct TcpControllerHandle {
    /// The address the controller actually listens on (useful with port 0).
    pub local_addr: SocketAddr,
    driver: Arc<Driver<UpdateCore>>,
    threads: Threads,
}

impl TcpControllerHandle {
    /// Number of switch connections accepted so far (reconnects included).
    pub fn connections(&self) -> usize {
        self.driver.connections()
    }

    /// Runs `f` against the session under the lock — the unified inspection
    /// surface (confirm counts, timestamps, outcome), identical to what the
    /// simulator driver exposes.
    pub fn with_session<R>(&self, f: impl FnOnce(&UpdateSession) -> R) -> R {
        self.driver.with_core(|c| f(&c.session))
    }

    /// Every confirmation the session recorded, in order.
    pub fn confirmed_order(&self) -> Vec<u64> {
        self.with_session(|s| s.confirmed_order().to_vec())
    }

    /// Runs `f` against the reconciler under the lock — `None` when resync
    /// was never enabled.  The same inspection surface (status, trace,
    /// desired store) the simulator driver exposes.
    pub fn with_reconciler<R>(&self, f: impl FnOnce(&Reconciler) -> R) -> Option<R> {
        self.driver.with_core(|c| c.resync.as_ref().map(f))
    }

    /// Blocks until at least `n` switches have reached a terminal resync
    /// state (converged or gave up) or `timeout` elapses; returns whether
    /// they did.
    pub fn wait_for_resync(&self, n: usize, timeout: Duration) -> bool {
        self.driver
            .wait_until(timeout, |c| {
                let r = c.resync.as_ref()?;
                (r.terminal_count() >= n).then_some(())
            })
            .is_some()
    }

    /// Blocks until the session reaches a terminal outcome (completed or
    /// aborted) or `timeout` elapses; returns the outcome if there is one.
    pub fn wait_for_outcome(&self, timeout: Duration) -> Option<SessionOutcome> {
        self.driver
            .wait_until(timeout, |c| c.session.outcome().cloned())
    }

    /// Stops the accept, timer and worker threads and waits for them;
    /// every accepted connection is shut down, so each switch sees EOF
    /// before this returns.
    pub fn shutdown(self) {
        self.threads.shutdown(self.driver.transport());
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::proxy::wait_for;
    use controller::{AckMode, FailurePolicy, UpdatePlan};
    use openflow::messages::FlowMod;
    use openflow::{Action, OfCodec, OfMatch, OfMessage};
    use std::io::{Read, Write};
    use std::net::Ipv4Addr;
    use std::thread::JoinHandle;

    /// Asserts that `peer` reads EOF (`Ok(0)`) within `limit`, skipping
    /// whatever data arrives first.
    pub(crate) fn assert_eof_within(mut peer: TcpStream, limit: Duration) {
        let deadline = Instant::now() + limit;
        let mut buf = [0u8; 4096];
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(!left.is_zero(), "no EOF within {limit:?}");
            peer.set_read_timeout(Some(left)).unwrap();
            match peer.read(&mut buf) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(e) => panic!("no EOF within {limit:?}: {e}"),
            }
        }
    }

    /// `shutdown` closes every accepted connection, not just the listener:
    /// each attached peer reads EOF promptly.
    #[test]
    fn shutdown_closes_accepted_sockets() {
        let session = UpdateSession::new(plan(2), AckMode::RumAcks, 2);
        let ctrl = TcpUpdateController::new("127.0.0.1:0".parse().unwrap(), session, 2);
        let handle = ctrl.start().unwrap();
        let peers: Vec<TcpStream> = (0..2)
            .map(|_| TcpStream::connect(handle.local_addr).unwrap())
            .collect();
        assert!(wait_for(
            || handle.connections() == 2,
            Duration::from_secs(2)
        ));
        handle.shutdown();
        for peer in peers {
            assert_eof_within(peer, Duration::from_secs(1));
        }
    }

    fn plan(n: u64) -> UpdatePlan {
        let mut plan = UpdatePlan::new();
        for i in 0..n {
            plan.add(
                i + 1,
                0,
                FlowMod::add(
                    OfMatch::ipv4_pair(
                        Ipv4Addr::new(10, 0, 0, i as u8 + 1),
                        Ipv4Addr::new(10, 1, 0, 1),
                    ),
                    100,
                    vec![Action::output(2)],
                ),
            )
            .unwrap();
        }
        plan
    }

    /// A scripted in-process switch: acks every flow-mod with a RUM-style
    /// fine-grained acknowledgment, which is what the proxy would send.
    fn acking_switch(addr: SocketAddr) -> JoinHandle<Vec<u64>> {
        std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect to controller");
            stream
                .set_read_timeout(Some(Duration::from_secs(3)))
                .unwrap();
            let mut codec = OfCodec::new();
            let mut buf = [0u8; 2048];
            let mut acks = Vec::new();
            let mut seen = Vec::new();
            'conn: loop {
                let n = match stream.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => n,
                };
                codec.feed(&buf[..n]);
                acks.clear();
                while let Ok(Some(msg)) = codec.next_message() {
                    if let OfMessage::FlowMod { xid, .. } = msg {
                        seen.push(u64::from(xid));
                        OfMessage::rum_ack(xid)
                            .encode_into(&mut acks)
                            .expect("encodable ack");
                    }
                }
                // One write per read batch; a failed write means the
                // controller hung up — stop acking instead of panicking.
                if !acks.is_empty() && stream.write_all(&acks).is_err() {
                    break 'conn;
                }
            }
            seen
        })
    }

    #[test]
    fn session_completes_over_real_sockets() {
        let session = UpdateSession::new(plan(6), AckMode::RumAcks, 2);
        let ctrl = TcpUpdateController::new("127.0.0.1:0".parse().unwrap(), session, 1);
        let handle = ctrl.start().expect("controller starts");
        let switch = acking_switch(handle.local_addr);
        let outcome = handle
            .wait_for_outcome(Duration::from_secs(5))
            .expect("update finishes");
        assert!(matches!(outcome, SessionOutcome::Completed { .. }));
        assert_eq!(handle.confirmed_order(), vec![1, 2, 3, 4, 5, 6]);
        assert!(handle.with_session(|s| s.is_complete()));
        handle.shutdown();
        let sent = switch.join().unwrap();
        assert_eq!(sent, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn silent_switch_triggers_the_failure_policy() {
        let mut session = UpdateSession::new(plan(2), AckMode::RumAcks, 1);
        session.set_failure_policy(FailurePolicy::retry(Duration::from_millis(40), 1));
        let ctrl = TcpUpdateController::new("127.0.0.1:0".parse().unwrap(), session, 1);
        let handle = ctrl.start().unwrap();
        // A switch that swallows everything: never acks.
        let stream = TcpStream::connect(handle.local_addr).unwrap();
        let outcome = handle
            .wait_for_outcome(Duration::from_secs(5))
            .expect("the policy must abort the stalled update");
        match outcome {
            SessionOutcome::Aborted { report } => assert_eq!(report.failed, 1),
            other => panic!("expected abort, got {other:?}"),
        }
        drop(stream);
        handle.shutdown();
    }

    /// The reconciliation loop end to end over real sockets: a restart
    /// fault wipes the switch (pre-installed rule included), the reattach
    /// Hello triggers a resync, and the readback-verified table converges
    /// to exactly the desired store — the socket twin of the simulator's
    /// `resync_restores_wiped_rules_after_restart`.
    #[test]
    fn resync_restores_wiped_rules_over_real_sockets() {
        use crate::switch_host::{spawn_switch_with, SwitchHostOptions};
        use controller::{BackoffPolicy, ResyncConfig};
        use ofswitch::{FaultPlan, SwitchModel};

        let drop_all = FlowMod::add(OfMatch::wildcard_all(), 0, Vec::new()).with_cookie(1);
        let session = UpdateSession::new(plan(6), AckMode::NoWait, 16);
        let mut ctrl = TcpUpdateController::new("127.0.0.1:0".parse().unwrap(), session, 1);
        let reconciler = ctrl.enable_resync(ResyncConfig {
            backoff: BackoffPolicy::new(Duration::from_millis(20), Duration::from_millis(160)),
            max_rounds: 6,
            ack_mode: AckMode::Barriers { batch: 4 },
            window: 8,
            failure_policy: FailurePolicy::retry(Duration::from_millis(100), 2),
        });
        reconciler.store_mut().note_confirmed(0, &drop_all);
        let handle = ctrl.start().expect("controller starts");

        let sw = spawn_switch_with(
            handle.local_addr,
            SwitchModel::faithful(),
            SwitchHostOptions {
                faults: FaultPlan::seeded(7).with_restart_after(3),
                preinstall: vec![drop_all],
                reconnect_delay: Some(Duration::from_millis(50)),
                ..Default::default()
            },
        )
        .expect("switch connects");

        // The no-wait session settles immediately; the interesting part is
        // what happens after the restart.
        let outcome = handle
            .wait_for_outcome(Duration::from_secs(5))
            .expect("session settles");
        assert!(matches!(outcome, SessionOutcome::Completed { .. }));
        assert!(
            handle.wait_for_resync(1, Duration::from_secs(10)),
            "resync must reach a terminal state"
        );

        let (status, desired, last_round) = handle
            .with_reconciler(|r| {
                (
                    r.status(0).cloned().expect("resync ran"),
                    r.store().len(0),
                    r.trace(0).last().copied().expect("at least one round"),
                )
            })
            .expect("resync enabled");
        assert!(status.converged, "status: {status:?}");
        assert_eq!(status.final_diff, 0);
        assert!(
            status.rounds >= 2,
            "a wiped table cannot converge in one round"
        );
        // All 7 desired rules (6 planned + the preinstalled drop-all) were
        // wiped and re-issued; the final readback saw them all and no diff.
        assert_eq!(status.delta_mods, 7);
        assert_eq!(desired, 7);
        assert_eq!(last_round.actual, 7);
        assert_eq!(last_round.diff(), 0);

        sw.stop();
        handle.shutdown();
        let report = sw.join();
        assert_eq!(
            report.control_rules, desired,
            "table equals the desired store"
        );
    }

    #[test]
    #[should_panic(expected = "plan targets switch 1")]
    fn undersized_connection_count_is_rejected() {
        let mut p = UpdatePlan::new();
        p.add(
            1,
            1,
            FlowMod::add(OfMatch::wildcard_all(), 1, vec![Action::output(1)]),
        )
        .unwrap();
        let session = UpdateSession::new(p, AckMode::NoWait, 1);
        TcpUpdateController::new("127.0.0.1:0".parse().unwrap(), session, 1);
    }
}
