//! The TCP driver for the sans-IO [`SessionMux`]: many concurrent tenant
//! sessions multiplexed over one set of real switch connections.
//!
//! [`TcpMuxController`] is the multi-session sibling of
//! [`crate::TcpUpdateController`] and runs on the same driver and
//! transport — accept-order [`ConnId`] slots, one event-loop worker, a
//! timer thread — but the core behind the lock is a [`SessionMux`], and
//! plans are **submitted at runtime** through [`TcpMuxHandle::submit`]: the
//! churn interface a soak harness streams hundreds of plans through.
//! Admission (namespace isolation, conflict policy) happens synchronously
//! in `submit`, so a rejected plan surfaces as a typed [`AdmitError`] to
//! the submitting thread, not as a late failure.

use crate::controller::{Core, Driver, Sends};
use crate::transport::{Service, Threads};
use controller::{ConnId, UpdatePlan};
use openflow::OfMessage;
use sessiond::{AdmitError, MuxConfig, MuxEffect, MuxInput, MuxTimerToken, SessionId, SessionMux};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The mux controller's core.
struct MuxCore {
    mux: SessionMux,
    /// Reusable effects buffer for mux drains.
    effects: Vec<MuxEffect>,
}

impl MuxCore {
    /// Executes (and empties) the effects the last mux calls produced.
    fn execute(&mut self, out: &mut Sends) {
        for effect in self.effects.drain(..) {
            match effect {
                MuxEffect::Send { conn, message } => out.send(conn, &message),
                MuxEffect::ArmTimer { delay, token } => out.arm(delay, token.raw()),
                MuxEffect::SessionCompleted { .. } | MuxEffect::SessionAborted { .. } => {
                    out.notify = true;
                }
                MuxEffect::SessionStarted { .. }
                | MuxEffect::Confirmed { .. }
                | MuxEffect::Rejected { .. } => {}
            }
        }
    }
}

impl Core for MuxCore {
    fn on_messages(
        &mut self,
        now: Duration,
        conn: ConnId,
        msgs: &mut Vec<OfMessage>,
        out: &mut Sends,
    ) {
        for message in msgs.drain(..) {
            let input = MuxInput::FromSwitch { conn, message };
            self.mux.handle(now, input, &mut self.effects);
        }
        self.execute(out);
    }

    fn on_timer(&mut self, now: Duration, token: u64, out: &mut Sends) {
        let token = MuxTimerToken::from_raw(token);
        self.mux
            .handle(now, MuxInput::TimerFired { token }, &mut self.effects);
        self.execute(out);
    }
}

/// A multi-tenant update controller serving a [`SessionMux`] over TCP.
///
/// Switch connections attach in accept order ([`ConnId`] 0 first), exactly
/// like [`crate::TcpUpdateController`]; plans arrive afterwards through
/// [`TcpMuxHandle::submit`].
pub struct TcpMuxController {
    listen_addr: SocketAddr,
    mux: SessionMux,
    n_connections: usize,
    epoch: Instant,
}

impl TcpMuxController {
    /// Creates a mux controller expecting `n_connections` switch
    /// connections on `listen_addr`.
    pub fn new(listen_addr: SocketAddr, config: MuxConfig, n_connections: usize) -> Self {
        Self::new_with_epoch(listen_addr, config, n_connections, Instant::now())
    }

    /// Like [`TcpMuxController::new`] but measuring mux time against an
    /// explicit `epoch` — share one `Instant` with the switch hosts so
    /// confirmation times and data-plane activation times are comparable.
    pub fn new_with_epoch(
        listen_addr: SocketAddr,
        config: MuxConfig,
        n_connections: usize,
        epoch: Instant,
    ) -> Self {
        TcpMuxController {
            listen_addr,
            mux: SessionMux::new(config),
            n_connections,
            epoch,
        }
    }

    /// Mutable access to the mux before the run starts, e.g. to attach a
    /// telemetry registry.
    pub fn mux_mut(&mut self) -> &mut SessionMux {
        &mut self.mux
    }

    /// Binds the listener and starts serving connections on background
    /// threads.  Plans submitted before a connection attaches queue on its
    /// outbox and flush on attach.
    pub fn start(self) -> std::io::Result<TcpMuxHandle> {
        let core = MuxCore {
            mux: self.mux,
            effects: Vec::new(),
        };
        let (driver, threads) =
            Driver::start(self.listen_addr, core, self.n_connections, self.epoch)?;
        Ok(TcpMuxHandle {
            local_addr: threads.local_addr,
            driver,
            threads,
        })
    }
}

/// A handle to a running TCP mux controller.
pub struct TcpMuxHandle {
    /// The address the controller actually listens on (useful with port 0).
    pub local_addr: SocketAddr,
    driver: Arc<Driver<MuxCore>>,
    threads: Threads,
}

impl TcpMuxHandle {
    /// Number of switch connections accepted so far (reconnects included).
    pub fn connections(&self) -> usize {
        self.driver.connections()
    }

    /// Submits one tenant plan.  Admission is synchronous: a conflict under
    /// [`sessiond::ConflictPolicy::Reject`], an oversized id or namespace
    /// exhaustion comes back as a typed [`AdmitError`] right here.  On
    /// admission the session's first window of sends goes out (or queues
    /// on not-yet-attached connections) before this returns.
    pub fn submit(&self, plan: UpdatePlan) -> Result<SessionId, AdmitError> {
        self.driver.drive(|core, now, out| {
            let result = core.mux.submit(plan, now, &mut core.effects);
            core.execute(out);
            result
        })
    }

    /// Runs `f` against the mux under the lock — the unified inspection
    /// surface (per-session state, confirm orders, outcomes, counters).
    pub fn with_mux<R>(&self, f: impl FnOnce(&SessionMux) -> R) -> R {
        self.driver.with_core(|c| f(&c.mux))
    }

    /// One session's confirmation order (local plan ids).
    pub fn confirmed_order(&self, session: SessionId) -> Vec<u64> {
        self.with_mux(|m| {
            m.session(session)
                .map(|s| s.confirmed_order().to_vec())
                .unwrap_or_default()
        })
    }

    /// Blocks until every submitted session reached a terminal outcome or
    /// `timeout` elapses; true if all sessions are done.
    pub fn wait_all_done(&self, timeout: Duration) -> bool {
        self.driver
            .wait_until(timeout, |c| c.mux.all_done().then_some(()))
            .is_some()
    }

    /// Stops the accept, timer and worker threads and waits for them;
    /// every accepted connection is shut down, so each switch sees EOF
    /// before this returns.
    pub fn shutdown(self) {
        self.threads.shutdown(self.driver.transport());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::tests::assert_eof_within;
    use crate::proxy::wait_for;
    use controller::AckMode;
    use openflow::messages::FlowMod;
    use openflow::{Action, OfCodec, OfMatch};
    use sessiond::{ConflictPolicy, SessionState};
    use std::io::{Read, Write};
    use std::net::{Ipv4Addr, TcpStream};
    use std::thread::JoinHandle;

    /// `shutdown` closes every accepted connection, not just the listener:
    /// each attached peer reads EOF promptly.
    #[test]
    fn shutdown_closes_accepted_sockets() {
        let ctrl = TcpMuxController::new("127.0.0.1:0".parse().unwrap(), MuxConfig::default(), 2);
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

    fn tenant_plan(tenant: u8, n: u8) -> UpdatePlan {
        let mut plan = UpdatePlan::new();
        for i in 0..n {
            plan.add(
                u64::from(i) + 1,
                0,
                FlowMod::add(
                    OfMatch::ipv4_pair(
                        Ipv4Addr::new(10, tenant, 0, i + 1),
                        Ipv4Addr::new(10, 200, 0, 1),
                    ),
                    100,
                    vec![Action::output(2)],
                ),
            )
            .unwrap();
        }
        plan
    }

    /// A scripted in-process switch acking every flow-mod RUM-style.
    fn acking_switch(addr: SocketAddr) -> JoinHandle<Vec<u64>> {
        std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect to controller");
            stream
                .set_read_timeout(Some(Duration::from_secs(3)))
                .unwrap();
            let mut codec = OfCodec::new();
            let mut buf = [0u8; 4096];
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
                if !acks.is_empty() && stream.write_all(&acks).is_err() {
                    break 'conn;
                }
            }
            seen
        })
    }

    #[test]
    fn concurrent_tenants_complete_over_real_sockets() {
        let ctrl = TcpMuxController::new(
            "127.0.0.1:0".parse().unwrap(),
            MuxConfig {
                ack_mode: AckMode::RumAcks,
                session_window: 2,
                global_window: 8,
                quantum: 2,
                ..MuxConfig::default()
            },
            1,
        );
        let handle = ctrl.start().expect("controller starts");
        let switch = acking_switch(handle.local_addr);

        let mut sessions = Vec::new();
        for t in 0..5u8 {
            sessions.push(handle.submit(tenant_plan(t, 4)).expect("disjoint plans"));
        }
        assert!(
            handle.wait_all_done(Duration::from_secs(5)),
            "all tenants must finish"
        );
        for (t, sid) in sessions.iter().enumerate() {
            assert_eq!(
                handle.confirmed_order(*sid),
                vec![1, 2, 3, 4],
                "tenant {t} confirm order"
            );
            assert_eq!(
                handle.with_mux(|m| m.state(*sid).cloned()),
                Some(SessionState::Done)
            );
        }
        assert_eq!(handle.with_mux(|m| m.stray_acks()), 0);
        handle.shutdown();
        let wire = switch.join().unwrap();
        // 5 tenants × 4 mods, every wire xid unique (disjoint namespaces).
        assert_eq!(wire.len(), 20);
        let unique: std::collections::HashSet<_> = wire.iter().collect();
        assert_eq!(unique.len(), 20);
    }

    #[test]
    fn conflicting_submission_is_rejected_synchronously() {
        let ctrl = TcpMuxController::new(
            "127.0.0.1:0".parse().unwrap(),
            MuxConfig {
                conflict_policy: ConflictPolicy::Reject,
                ..MuxConfig::default()
            },
            1,
        );
        let handle = ctrl.start().unwrap();
        let switch = acking_switch(handle.local_addr);
        let first = handle.submit(tenant_plan(1, 2)).expect("first plan admits");
        let err = handle.submit(tenant_plan(1, 2)).unwrap_err();
        assert!(
            matches!(err, AdmitError::Conflict { with, .. } if with == first),
            "got {err:?}"
        );
        assert!(handle.wait_all_done(Duration::from_secs(5)));
        handle.shutdown();
        drop(switch);
    }
}
