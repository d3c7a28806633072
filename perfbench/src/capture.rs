//! Wire capture for the layer replay: a bench-owned TCP tap placed between
//! the proxy and its peers for one short capture iteration of a traced run.
//! It relays bytes both ways and records every chunk travelling *towards*
//! the proxy — the byte streams the proxy decodes and feeds its engine.
//! Measured iterations never run through a tap.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which side of the proxy a tap sits on; it decides which relay direction
/// carries proxy input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Switches dial the tap, the tap dials the proxy: input flows from the
    /// accepted connection upstream.
    Switch,
    /// The proxy dials the tap, the tap dials the controller: input flows
    /// from upstream back to the accepted connection.
    Controller,
}

/// One chunk of proxy input: when it arrived at the tap, from which side,
/// on which connection (accept order = proxy switch slot), and its bytes.
#[derive(Debug, Clone)]
pub struct Chunk {
    pub at: Duration,
    pub side: Side,
    pub conn: usize,
    pub bytes: Vec<u8>,
}

/// A running tap; [`Tap::finish`] joins its threads once both ends closed.
pub struct Tap {
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    acceptor: Option<JoinHandle<()>>,
}

impl Tap {
    /// Starts a tap that forwards its first `conns` accepted connections to
    /// `upstream`, recording proxy input into `sink` on `epoch`'s clock.
    pub fn start(
        side: Side,
        upstream: SocketAddr,
        conns: usize,
        epoch: Instant,
        sink: Arc<Mutex<Vec<Chunk>>>,
    ) -> std::io::Result<Tap> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let threads = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let (stop, threads) = (Arc::clone(&stop), Arc::clone(&threads));
            std::thread::Builder::new()
                .name("pb-tap".into())
                .spawn(move || {
                    for conn in 0..conns {
                        let Ok((down, _)) = listener.accept() else {
                            return;
                        };
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                        let Ok(up) = TcpStream::connect(upstream) else {
                            return;
                        };
                        let _ = down.set_nodelay(true);
                        let _ = up.set_nodelay(true);
                        let (input_from, input_to) = match side {
                            Side::Switch => (&down, &up),
                            Side::Controller => (&up, &down),
                        };
                        let pairs = [
                            (input_from, input_to, Some(Arc::clone(&sink))),
                            (input_to, input_from, None),
                        ];
                        let mut guard = threads.lock().expect("tap thread list");
                        for (from, to, record) in pairs {
                            let (Ok(from), Ok(to)) = (from.try_clone(), to.try_clone()) else {
                                return;
                            };
                            let stop = Arc::clone(&stop);
                            guard.push(
                                std::thread::Builder::new()
                                    .name("pb-tap".into())
                                    .spawn(move || {
                                        relay(from, to, record, side, conn, epoch, &stop)
                                    })
                                    .expect("spawn tap relay"),
                            );
                        }
                    }
                })?
        };
        Ok(Tap {
            addr,
            stop,
            threads,
            acceptor: Some(acceptor),
        })
    }

    /// Stops the tap and waits for every relay thread.
    pub fn finish(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock an acceptor still waiting for connections.
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        let threads = std::mem::take(&mut *self.threads.lock().expect("tap thread list"));
        for t in threads {
            let _ = t.join();
        }
    }
}

/// The address to connect to for `upstream`: a new recording tap in front
/// of it (kept in `taps` until [`Tap::finish`]) when `capture` is given,
/// else `upstream` itself.
pub fn via_tap(
    capture: Option<&Arc<Mutex<Vec<Chunk>>>>,
    side: Side,
    upstream: SocketAddr,
    conns: usize,
    epoch: Instant,
    taps: &mut Vec<Tap>,
) -> SocketAddr {
    let Some(sink) = capture else {
        return upstream;
    };
    let tap = Tap::start(side, upstream, conns, epoch, Arc::clone(sink)).expect("tap on loopback");
    let addr = tap.addr;
    taps.push(tap);
    addr
}

fn relay(
    mut from: TcpStream,
    mut to: TcpStream,
    record: Option<Arc<Mutex<Vec<Chunk>>>>,
    side: Side,
    conn: usize,
    epoch: Instant,
    stop: &AtomicBool,
) {
    let _ = from.set_read_timeout(Some(Duration::from_millis(20)));
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(_) => break,
        };
        if let Some(sink) = &record {
            sink.lock().expect("capture sink").push(Chunk {
                at: epoch.elapsed(),
                side,
                conn,
                bytes: buf[..n].to_vec(),
            });
        }
        if to.write_all(&buf[..n]).is_err() {
            break;
        }
    }
    let _ = to.shutdown(Shutdown::Write);
}
