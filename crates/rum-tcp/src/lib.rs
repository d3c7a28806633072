//! TCP proxy deployment of RUM — the paper's prototype form (§4).
//!
//! *"We implement a RUM prototype that works as a TCP proxy between the
//! switches and the controller.  The switches connect to the proxy as if it
//! was a controller, and the proxy then connects to a real controller using
//! multiple connections, impersonating the switches."*
//!
//! This crate is a thin **driver** for the deployment-agnostic
//! [`rum::RumEngine`]: the same sans-IO core that powers the simulator
//! experiments runs here over real sockets.  The crate splits cleanly in
//! two:
//!
//! * [`relay::EngineRelay`] — the sans-IO adapter: takes decoded OpenFlow
//!   messages plus wall-clock time, returns endpoint-tagged messages, timer
//!   requests and confirmations.  Fully unit-testable without sockets.
//! * [`proxy::RumTcpProxy`] — the socket machinery: listener, one upstream
//!   controller connection per accepted switch, event-loop workers with
//!   [`openflow::OfCodec`] framing, and a timer thread feeding engine
//!   timeouts back in.
//!
//! Since the consistent-update controller became sans-IO too
//! (`controller::UpdateSession`), this crate also completes the paper's
//! prototype chain on real sockets:
//!
//! * [`controller::TcpUpdateController`] — the TCP driver of the update
//!   session: executes a dependency-ordered plan over accepted switch
//!   connections, with the same window/ack-mode/failure-policy logic as the
//!   simulator controller; [`mux_controller::TcpMuxController`] does the
//!   same for many concurrent tenant sessions through a `SessionMux`.
//! * [`switch_host`] — `ofswitch` flow tables and behaviour models hosted
//!   behind a TCP client, emulating buggy (early barrier reply) or faithful
//!   switches.
//!
//! Every acknowledgment technique the engine supports (barriers, static
//! timeout, adaptive delay, sequential and general probing) is therefore
//! available over TCP by construction — select one with
//! [`rum::RumBuilder::technique`].  The probing techniques additionally need
//! port maps describing the physical testbed (see
//! [`rum::RumBuilder::port_map`]).
//!
//! The crate is self-contained and synchronous: std networking plus a
//! hand-rolled `poll(2)` reactor (the `reactor` module, the only one allowed to
//! touch FFI).  On it sits the crate's one TCP transport (the private
//! `transport` module): slot claim with attach generations, outboxes with
//! partial-write resume, a budgeted read-and-decode path and the worker
//! loop.  The sharded proxy and both controllers run on it, each on a fixed
//! number of threads — the proxy serves 1,000 switches from a handful of
//! workers.  The original thread-per-connection proxy survives as
//! [`legacy::LegacyRumTcpProxy`] — the conformance oracle and the honest
//! in-run baseline the sharded proxy's speedup is measured against.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod legacy;
pub mod mux_controller;
pub mod proxy;
pub(crate) mod reactor;
pub mod relay;
pub mod switch_host;
mod timer;
mod transport;

pub use controller::{TcpControllerHandle, TcpUpdateController};
pub use legacy::{LegacyProxyHandle, LegacyRumTcpProxy};
pub use mux_controller::{TcpMuxController, TcpMuxHandle};
pub use proxy::{wait_for, ProxyConfig, ProxyCounters, ProxyHandle, RumTcpProxy};
pub use relay::{Endpoint, EngineRelay, RelayEffects};
pub use switch_host::{
    spawn_switch, spawn_switch_with, Fabric, SocketSwitchHandle, SwitchCounters, SwitchHostOptions,
    SwitchReport,
};
