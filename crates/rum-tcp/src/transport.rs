//! The one TCP transport of this crate: nonblocking sockets served by
//! `poll(2)` workers, shared by the sharded proxy and both TCP controllers.
//!
//! A [`Transport`] owns a fixed table of connection slots, each with one or
//! more endpoints that attach and detach together (the proxy's switch
//! socket plus its onward controller socket; a controller's switch socket):
//!
//! * [`Transport::claim`] hands out the lowest free slot and bumps its
//!   attach generation; detach is generation-guarded, so a connection that
//!   lingered past a reconnect can never tear down its successor;
//! * senders encode a drain into [`Chunks`] and push them onto the
//!   endpoints' [`Outbox`]es under their own state lock (so bytes leave in
//!   engine order), then flush without blocking from the calling thread;
//!   only a write that leaves residue wakes the owning worker for `POLLOUT`;
//! * each worker polls its slots' sockets, reads with a per-wakeup budget
//!   and hands every decoded batch to the [`Service`] in one call.
//!
//! [`start`] spawns the accept thread, the timer thread and the workers —
//! a fixed thread count, whatever the number of connections — and
//! [`Threads::shutdown`] joins them all and shuts every attached socket
//! down, so peers see EOF before it returns.

use crate::reactor::{poll_fds, PollFd, Waker};
use crate::timer::TimerQueue;
use openflow::{OfCodec, OfMessage};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::{Counter, Gauge};

/// Per-endpoint read budget per wakeup: a firehosing peer yields the
/// worker back to its poll set after this many bytes (level-triggered
/// readiness re-fires immediately, so nothing is lost — only interleaved).
const READ_BUDGET: usize = 256 * 1024;

/// The write half of one endpoint: queued encoded chunks, the
/// partial-write offset into the front chunk, and the stream to flush into
/// (absent while the slot is down — chunks then queue and flush on attach).
pub(crate) struct Outbox {
    stream: Option<TcpStream>,
    queue: VecDeque<Vec<u8>>,
    /// How much of `queue.front()` has already been written.
    offset: usize,
    /// Chunks queued on a live connection but not yet fully written.
    depth: Arc<Gauge>,
    /// An aggregate the depth also counts into (e.g. the owning shard's).
    total_depth: Arc<Gauge>,
}

impl Outbox {
    pub(crate) fn new(depth: Arc<Gauge>, total_depth: Arc<Gauge>) -> Self {
        Outbox {
            stream: None,
            queue: VecDeque::new(),
            offset: 0,
            depth,
            total_depth,
        }
    }

    fn add_depth(&self, n: i64) {
        self.depth.add(n);
        self.total_depth.add(n);
    }

    fn push(&mut self, chunk: Vec<u8>) {
        if chunk.is_empty() {
            return;
        }
        self.queue.push_back(chunk);
        if self.stream.is_some() {
            self.add_depth(1);
        }
    }

    /// Marks queued-while-down chunks as live outbox depth on attach.
    fn on_attach(&mut self, stream: TcpStream) {
        self.stream = Some(stream);
        self.add_depth(self.queue.len() as i64);
    }

    /// Shuts the stream down and drops every queued chunk (the engines
    /// re-issue what still matters when the peer reconnects).
    fn on_detach(&mut self) {
        if let Some(s) = self.stream.take() {
            let _ = s.shutdown(Shutdown::Both);
            self.add_depth(-(self.queue.len() as i64));
        }
        self.queue.clear();
        self.offset = 0;
    }

    /// True when residue needs `POLLOUT` interest.
    fn wants_write(&self) -> bool {
        self.stream.is_some() && !self.queue.is_empty()
    }

    /// Writes as much queued data as the socket accepts right now,
    /// resuming mid-chunk at the recorded offset.  Returns `true` when
    /// unflushed residue remains.  A dead socket is shut down so the read
    /// path observes it and detaches.
    fn try_flush(&mut self) -> bool {
        let Some(stream) = self.stream.as_mut() else {
            return false;
        };
        while let Some(front) = self.queue.front() {
            match stream.write(&front[self.offset..]) {
                Ok(0) => break,
                Ok(n) => {
                    self.offset += n;
                    if self.offset == front.len() {
                        self.queue.pop_front();
                        self.offset = 0;
                        self.depth.add(-1);
                        self.total_depth.add(-1);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        if !self.queue.is_empty() {
            // Peer went away mid-write: the read side reports the hangup
            // and the worker detaches the slot.
            let _ = stream.shutdown(Shutdown::Both);
        }
        false
    }
}

/// Per-endpoint encode buffers for one drain: everything a drain sends to
/// one endpoint leaves as one chunk (one socket write).  Endpoint `e` of
/// slot `s` is buffer `s * ends + e`, `ends` being the endpoints per slot.
pub(crate) struct Chunks {
    bufs: Vec<Vec<u8>>,
    /// Buffers written since the last [`Transport::push_chunks`].
    dirty: Vec<usize>,
}

impl Chunks {
    pub(crate) fn new(n: usize) -> Self {
        Chunks {
            bufs: vec![Vec::new(); n],
            dirty: Vec::new(),
        }
    }

    /// Encodes `message` into buffer `idx`; returns the encoded length, or
    /// `None` when the message does not encode or `idx` is out of range.
    pub(crate) fn encode(&mut self, idx: usize, message: &OfMessage) -> Option<usize> {
        let buf = self.bufs.get_mut(idx)?;
        if buf.is_empty() {
            self.dirty.push(idx);
        }
        let before = buf.len();
        if message.encode_into(buf).is_err() {
            buf.truncate(before);
            return None;
        }
        Some(buf.len() - before)
    }
}

/// One slot's attach bookkeeping and write halves, behind a per-slot mutex
/// that is never held while acquiring a service's state lock (service →
/// slot is the global lock order).
struct Slot {
    attached: bool,
    /// Bumped by every claim; a worker detaching with a stale generation
    /// (its connection lingered past a reconnect) is a no-op.
    generation: u64,
    ends: Vec<Outbox>,
}

/// The read half of one endpoint owned by a worker.
struct ReadHalf {
    stream: TcpStream,
    codec: OfCodec,
}

/// One attached slot as its worker sees it.
struct Conn {
    slot: usize,
    generation: u64,
    ends: Vec<ReadHalf>,
}

/// A worker's cross-thread surface: its waker and adoption inbox.
struct Worker {
    waker: Waker,
    inbox: Mutex<Vec<Conn>>,
}

/// What a driver plugs into the transport.  Every callback runs on a
/// transport thread, without any transport lock held.
pub(crate) trait Service: Send + Sync + 'static {
    /// The transport this service runs on.
    fn transport(&self) -> &Transport;
    /// A socket arrived on the listener (accept thread).
    fn on_accept(&self, stream: TcpStream);
    /// Messages decoded from one read of endpoint `end` of `slot` (a
    /// worker).  The service drains `msgs`.
    fn on_messages(&self, slot: usize, end: usize, msgs: &mut Vec<OfMessage>);
    /// A timer armed by [`Transport::finish_drain`] fired (timer thread).
    fn on_timer(&self, token: u64);
}

/// Slots, workers and timers of one running driver.
pub(crate) struct Transport {
    slots: Vec<Mutex<Slot>>,
    /// Endpoints per slot.
    ends: usize,
    /// Slots currently claimed.
    attached: AtomicUsize,
    workers: Vec<Worker>,
    timers: TimerQueue,
    stop: AtomicBool,
    framing_errors: Arc<Counter>,
}

impl Transport {
    /// A transport whose slot `i` writes through the outboxes `slots[i]`,
    /// served by `n_workers` event-loop workers.  Connections dropped for
    /// undecodable framing count into `framing_errors`.
    pub(crate) fn new(
        slots: Vec<Vec<Outbox>>,
        n_workers: usize,
        framing_errors: Arc<Counter>,
    ) -> std::io::Result<Self> {
        let workers = (0..n_workers.max(1))
            .map(|_| {
                Ok(Worker {
                    waker: Waker::new()?,
                    inbox: Mutex::new(Vec::new()),
                })
            })
            .collect::<std::io::Result<_>>()?;
        Ok(Transport {
            ends: slots.first().map_or(1, Vec::len),
            slots: slots
                .into_iter()
                .map(|ends| {
                    Mutex::new(Slot {
                        attached: false,
                        generation: 0,
                        ends,
                    })
                })
                .collect(),
            attached: AtomicUsize::new(0),
            workers,
            timers: TimerQueue::new(),
            stop: AtomicBool::new(false),
            framing_errors,
        })
    }

    fn worker_of(&self, slot: usize) -> usize {
        slot % self.workers.len()
    }

    /// Claims the lowest free slot; a peer that disconnected frees its slot
    /// for the reconnect.  `None` when every slot is taken.  Claims happen
    /// on the accept thread only, so the scan is race-free.
    ///
    /// The mapping is positional, not authenticated: with several peers
    /// down at once, whoever re-dials first gets the lowest freed slot.
    pub(crate) fn claim(&self) -> Option<usize> {
        let claimed = self.slots.iter().position(|slot| {
            let mut slot = slot.lock().unwrap();
            if slot.attached {
                return false;
            }
            slot.attached = true;
            slot.generation += 1;
            true
        })?;
        self.attached.fetch_add(1, Ordering::SeqCst);
        Some(claimed)
    }

    /// Undoes a claim that never became an attach.  The generation rolls
    /// back too, so the next successful attach is not misread as a
    /// reconnect.
    pub(crate) fn release(&self, slot: usize) {
        let mut slot = self.slots[slot].lock().unwrap();
        slot.attached = false;
        slot.generation -= 1;
        self.attached.fetch_sub(1, Ordering::SeqCst);
    }

    /// True when every slot is claimed.
    pub(crate) fn all_attached(&self) -> bool {
        self.attached.load(Ordering::SeqCst) == self.slots.len()
    }

    /// Wires a claimed slot's sockets (one per endpoint, in endpoint order)
    /// into its outboxes, flushes what queued while the slot was down and
    /// hands the read halves to the owning worker.  Returns the attach
    /// generation: 1 on the slot's first attach.
    pub(crate) fn attach(&self, slot: usize, streams: Vec<TcpStream>) -> u64 {
        let mut ends = Vec::with_capacity(streams.len());
        let generation = {
            let mut st = self.slots[slot].lock().unwrap();
            for (outbox, stream) in st.ends.iter_mut().zip(streams) {
                let _ = stream.set_nodelay(true);
                // O_NONBLOCK lives on the file description, so the write
                // clone shares it: every read and write is nonblocking.
                let _ = stream.set_nonblocking(true);
                outbox.on_attach(stream.try_clone().expect("clone accepted stream"));
                ends.push(ReadHalf {
                    stream,
                    codec: OfCodec::new(),
                });
            }
            st.generation
        };
        self.flush(slot);
        let worker = &self.workers[self.worker_of(slot)];
        worker.inbox.lock().unwrap().push(Conn {
            slot,
            generation,
            ends,
        });
        worker.waker.wake();
        generation
    }

    /// Moves every chunk a drain encoded onto its outbox and appends the
    /// slots it touched to `touched`.  Callers push under their own state
    /// lock, so bytes leave in engine order, and [`Transport::finish_drain`]
    /// after dropping it.
    pub(crate) fn push_chunks(&self, chunks: &mut Chunks, touched: &mut Vec<usize>) {
        for idx in chunks.dirty.drain(..) {
            let chunk = std::mem::take(&mut chunks.bufs[idx]);
            if !chunk.is_empty() {
                let slot = idx / self.ends;
                self.slots[slot].lock().unwrap().ends[idx % self.ends].push(chunk);
                touched.push(slot);
            }
        }
    }

    /// Completes a drain once the caller's state lock has dropped: arms
    /// its timers (`(delay, raw token)`) and flushes each touched slot once.
    pub(crate) fn finish_drain(
        &self,
        mut touched: Vec<usize>,
        timers: impl IntoIterator<Item = (Duration, u64)>,
    ) {
        let now = Instant::now();
        for (delay, token) in timers {
            self.timers.arm(now + delay, token);
        }
        touched.sort_unstable();
        touched.dedup();
        for slot in touched {
            self.flush(slot);
        }
    }

    /// Nonblocking flush of every endpoint of `slot`; residue stays queued
    /// and wakes the owning worker so it registers `POLLOUT`.
    fn flush(&self, slot: usize) {
        let residue = {
            let mut st = self.slots[slot].lock().unwrap();
            st.ends
                .iter_mut()
                .fold(false, |residue, end| end.try_flush() | residue)
        };
        if residue {
            self.workers[self.worker_of(slot)].waker.wake();
        }
    }

    /// Frees a slot after its connection died.  Generation-guarded and
    /// idempotent.
    fn detach(&self, slot: usize, generation: u64) {
        let mut st = self.slots[slot].lock().unwrap();
        if !st.attached || st.generation != generation {
            return;
        }
        st.attached = false;
        for end in &mut st.ends {
            end.on_detach();
        }
        self.attached.fetch_sub(1, Ordering::SeqCst);
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// The threads serving one transport.
pub(crate) struct Threads {
    /// The address the listener is bound to.
    pub(crate) local_addr: SocketAddr,
    handles: Vec<JoinHandle<()>>,
}

/// Spawns the timer thread, the workers and the accept loop over
/// `listener` for `service`.  Threads inherit the caller's name.
pub(crate) fn start<S: Service>(
    service: &Arc<S>,
    listener: TcpListener,
) -> std::io::Result<Threads> {
    let local_addr = listener.local_addr()?;
    let mut handles = Vec::new();
    let s = Arc::clone(service);
    handles.push(std::thread::spawn(move || {
        let t = s.transport();
        t.timers.run(&t.stop, |token| s.on_timer(token));
    }));
    for w in 0..service.transport().workers.len() {
        let s = Arc::clone(service);
        handles.push(std::thread::spawn(move || worker_loop(&*s, w)));
    }
    let s = Arc::clone(service);
    handles.push(std::thread::spawn(move || {
        for incoming in listener.incoming() {
            if s.transport().stopped() {
                break;
            }
            if let Ok(stream) = incoming {
                s.on_accept(stream);
            }
        }
    }));
    Ok(Threads {
        local_addr,
        handles,
    })
}

impl Threads {
    /// Stops the accept, timer and worker loops, joins them, and shuts
    /// every attached socket down so each peer reads EOF.
    pub(crate) fn shutdown(self, transport: &Transport) {
        transport.stop.store(true, Ordering::SeqCst);
        transport.timers.wake();
        for w in &transport.workers {
            w.waker.wake();
        }
        // Unblock the accept loop with a throw-away connection.
        let _ = TcpStream::connect(self.local_addr);
        for h in self.handles {
            h.join().expect("a transport thread panicked");
        }
        // Every attached socket has its write clone in an outbox.
        for slot in &transport.slots {
            for end in &mut slot.lock().unwrap().ends {
                end.on_detach();
            }
        }
    }
}

/// One worker's event loop: poll the waker plus every endpoint socket of
/// the slots it owns; drain readable sockets into the service, flush
/// writable outbox residue, detach dead slots.
fn worker_loop<S: Service>(service: &S, w: usize) {
    let t = service.transport();
    let worker = &t.workers[w];
    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    // fds[1 + j] belongs to fd_of[j] = (conn index, endpoint index).
    let mut fd_of: Vec<(usize, usize)> = Vec::new();
    let mut read_buf = vec![0u8; 64 * 1024];
    let mut msgs: Vec<OfMessage> = Vec::new();
    let mut dead: Vec<usize> = Vec::new();

    while !t.stopped() {
        conns.append(&mut worker.inbox.lock().unwrap());

        // Write interest only where outbox residue exists.
        fds.clear();
        fd_of.clear();
        fds.push(PollFd::new(worker.waker.fd(), true, false));
        for (ci, conn) in conns.iter().enumerate() {
            let slot = t.slots[conn.slot].lock().unwrap();
            for (e, half) in conn.ends.iter().enumerate() {
                fds.push(PollFd::new(
                    half.stream.as_raw_fd(),
                    true,
                    slot.ends[e].wants_write(),
                ));
                fd_of.push((ci, e));
            }
        }

        // A finite timeout keeps the stop flag honoured even if a wake is
        // lost; all real work arrives through readiness or the waker.
        poll_fds(&mut fds, 500);
        if fds[0].readable() {
            worker.waker.drain();
        }

        dead.clear();
        for (j, &(ci, e)) in fd_of.iter().enumerate() {
            let pfd = fds[1 + j];
            if pfd.writable() {
                t.flush(conns[ci].slot);
            }
            if (pfd.readable() || pfd.hangup())
                && !service_read(service, &mut conns[ci], e, &mut read_buf, &mut msgs)
            {
                dead.push(ci);
            }
        }
        dead.dedup();
        // Highest index first: swap_remove only moves a later element.
        // Detach shuts the slot's sockets down through their write clones;
        // a stale connection's sockets close as `conn` drops.
        for &ci in dead.iter().rev() {
            let conn = conns.swap_remove(ci);
            t.detach(conn.slot, conn.generation);
        }
    }
}

/// Drains one endpoint's socket (bounded per wakeup for fairness across
/// the poll set), decodes frames and hands each batch to the service.
/// Returns `false` when the connection is dead (EOF, error, bad framing).
fn service_read<S: Service>(
    service: &S,
    conn: &mut Conn,
    end: usize,
    buf: &mut [u8],
    msgs: &mut Vec<OfMessage>,
) -> bool {
    let half = &mut conn.ends[end];
    let mut total = 0usize;
    loop {
        let n = match half.stream.read(buf) {
            Ok(0) => return false,
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        };
        half.codec.feed(&buf[..n]);
        msgs.clear();
        let framing_ok = half.codec.drain_messages_into(msgs).is_ok();
        if !msgs.is_empty() {
            service.on_messages(conn.slot, end, msgs);
        }
        if !framing_ok {
            service.transport().framing_errors.inc();
            return false;
        }
        total += n;
        // Drained the socket, or yield to the rest of the poll set
        // (level-triggered readiness brings us straight back).
        if n < buf.len() || total >= READ_BUDGET {
            return true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transport(n_slots: usize) -> Transport {
        let slots = (0..n_slots)
            .map(|_| vec![Outbox::new(Arc::default(), Arc::default())])
            .collect();
        Transport::new(slots, 1, Arc::default()).unwrap()
    }

    fn slot(t: &Transport, i: usize) -> (bool, u64) {
        let st = t.slots[i].lock().unwrap();
        (st.attached, st.generation)
    }

    /// Claims take the lowest free slot, a released claim rolls its
    /// generation back, and a detach carrying a stale generation (a
    /// connection that outlived a reconnect) leaves the new one attached.
    #[test]
    fn claim_release_and_generation_guarded_detach() {
        let t = transport(2);
        assert_eq!((t.claim(), t.claim(), t.claim()), (Some(0), Some(1), None));
        assert!(t.all_attached());
        t.release(1);
        assert_eq!(slot(&t, 1), (false, 0), "a released claim never attached");
        assert!(!t.all_attached());

        t.detach(0, 1);
        assert_eq!(t.claim(), Some(0), "the freed slot is the lowest free one");
        assert_eq!(slot(&t, 0), (true, 2));
        t.detach(0, 1);
        assert_eq!(slot(&t, 0), (true, 2), "a stale detach is a no-op");
        t.detach(0, 2);
        assert_eq!(slot(&t, 0), (false, 2));
    }
}
