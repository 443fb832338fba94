//! The readiness-driven event-loop TCP frontend.
//!
//! [`WireServer`] serves the wire protocol from a fixed set of **shards**
//! — epoll loops on dedicated threads — instead of one thread per
//! connection. Each shard owns a disjoint subset of the connections:
//! nonblocking sockets, a per-connection [`FrameDecoder`] assembling
//! requests from whatever byte chunks the network delivers, and a
//! per-connection output buffer drained as the socket accepts bytes. Ten
//! thousand mostly-idle connections cost ten thousand *registrations*,
//! not ten thousand stacks.
//!
//! ## Anatomy of a shard
//!
//! ```text
//!            ┌──────────────────────── shard 0 ───────────────────────┐
//!  accept →  │ listener ─┐                                            │
//!            │           ├─ epoll_wait ─ readable conns → FrameDecoder│
//!            │ waker ────┘                                   │        │
//!            └─────────│─────────────────────────────────────│────────┘
//!   inbox handoffs     │           control ops answered in   │
//!   and shutdown fire ─┘           the loop; predicts run on │
//!   the eventfd waker              the shard (submit_wire)   ▼
//!                        out-buffers ◀──────────── responses, in order
//!                        (flushed as sockets drain)
//! ```
//!
//! Shard 0 additionally owns the listener: it accepts, enforces the
//! connection cap (over-cap peers get the retryable `saturated` refusal,
//! with delivery failures counted — see
//! `refuse_stream` in [`wire`](crate::wire)), and deals accepted
//! sockets round-robin to all shards through mutex-protected inboxes,
//! waking the target shard's eventfd.
//!
//! ## Pipelining
//!
//! Every request is answered inside the loop, in the order its frame was
//! read. Control ops are answered directly. A predict runs to completion on
//! the shard during admission (see [`crate::runtime`]): its response, with
//! the request's echoed `"id"`, is enqueued in the same readiness pass. A
//! client may pipeline many frames on one connection; the echoed `"id"`
//! pairs each response with its request.
//!
//! ## Deadlines without per-socket timers
//!
//! The kernel's `SO_RCVTIMEO`/`SO_SNDTIMEO` only bound *blocking* calls,
//! so the loop enforces [`WireConfig`] deadlines itself: each connection
//! tracks its last read progress and last write progress, and a sweep
//! (quantised to a fraction of the shortest deadline, never more than
//! once per epoll wake) disconnects peers that stalled past their limit,
//! at O(connections / sweep-interval) cost instead of one timer per
//! socket.
//!
//! Shutdown is deterministic: every shard parks in `epoll_wait` on its
//! eventfd waker, and [`WireServer::shutdown`] fires them all.

use crate::error::ServeError;
use crate::json::Json;
use crate::metrics::Gauge;
use crate::runtime::{Answer, Client};
use crate::trace::TraceState;
use crate::wire::{
    append_frame, error_response, interpret, prediction_to_json, refuse_stream, trace_id_for,
    with_id, FrameDecoder, WireAction, WireConfig, ACCEPT_ERROR_BACKOFF, READ_CHUNK_BYTES,
};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const TOKEN_WAKER: usize = 0;
const TOKEN_LISTENER: usize = 1;
const TOKEN_BASE: usize = 2;

/// Above this much buffered-but-unsent output, a connection stops being
/// read from (its readable interest is dropped) until the peer drains —
/// per-connection write backpressure, so one slow reader cannot make the
/// server buffer unboundedly by pipelining requests it never collects.
const MAX_BUFFERED_OUT: usize = 1024 * 1024;

/// The event-loop wire server (see the module docs): bind, serve,
/// `local_addr`, `shutdown`.
#[derive(Debug)]
pub struct WireServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    shards: Vec<ShardHandle>,
}

#[derive(Debug)]
struct ShardHandle {
    waker: Arc<poll::Waker>,
    thread: Option<JoinHandle<()>>,
}

/// A shard's public face: where shard 0 deposits accepted sockets, and
/// the waker that tells the owner to look.
#[derive(Debug)]
struct Mailbox {
    waker: Arc<poll::Waker>,
    inbox: Mutex<Vec<TcpStream>>,
}

impl WireServer {
    /// Binds `addr` and starts serving `client` with default knobs
    /// (including `WireConfig::default().shards` event-loop shards).
    pub fn start(addr: impl ToSocketAddrs, client: Client) -> Result<Self, ServeError> {
        Self::start_with(addr, client, WireConfig::default())
    }

    /// Binds `addr` and starts serving `client` with explicit knobs.
    pub fn start_with(
        addr: impl ToSocketAddrs,
        client: Client,
        config: WireConfig,
    ) -> Result<Self, ServeError> {
        config.validate()?;
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let open = Arc::new(AtomicUsize::new(0));

        // Build every shard's poller/waker up front so construction
        // errors surface from start_with, not from a dead thread.
        let mut pollers = Vec::with_capacity(config.shards);
        let mut mailboxes = Vec::with_capacity(config.shards);
        for _ in 0..config.shards {
            let poller = poll::Poller::new()?;
            let waker = Arc::new(poll::Waker::new()?);
            poller.register(waker.as_raw_fd(), TOKEN_WAKER, poll::Interest::READABLE)?;
            mailboxes.push(Arc::new(Mailbox {
                waker: Arc::clone(&waker),
                inbox: Mutex::new(Vec::new()),
            }));
            pollers.push(poller);
        }
        poller_register_listener(&pollers[0], &listener)?;

        let mailboxes: Arc<[Arc<Mailbox>]> = mailboxes.into();
        // Shard 0 takes the listener itself — the registered fd must stay
        // open for as long as the shard polls it.
        let mut listener = Some(listener);
        let mut shards = Vec::with_capacity(config.shards);
        for (index, poller) in pollers.into_iter().enumerate() {
            let waker = Arc::clone(&mailboxes[index].waker);
            let shard_connections = client.metrics_registry().gauge(&format!(
                "quclassi_wire_shard_connections{{shard=\"{index}\"}}"
            ));
            let shard = Shard {
                index,
                poller,
                mailboxes: Arc::clone(&mailboxes),
                listener: if index == 0 { listener.take() } else { None },
                next_peer: 0,
                client: client.clone(),
                config: config.clone(),
                shutdown: Arc::clone(&shutdown),
                open: Arc::clone(&open),
                conns: Vec::new(),
                free: Vec::new(),
                frames: Vec::new(),
                sweep_interval: sweep_interval(&config),
                last_sweep: Instant::now(),
                shard_connections,
            };
            let thread = std::thread::Builder::new()
                .name(format!("quclassi-wire-shard{index}"))
                .spawn(move || shard.run())
                .map_err(|e| ServeError::Io(format!("failed to spawn shard {index}: {e}")))?;
            shards.push(ShardHandle {
                waker,
                thread: Some(thread),
            });
        }
        Ok(WireServer {
            local_addr,
            shutdown,
            shards,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, closes every open connection, and joins every
    /// shard. Deterministic: each shard is parked in `epoll_wait` on its
    /// waker, so firing the wakers returns them all immediately.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        for shard in &self.shards {
            shard.waker.wake();
        }
        for shard in &mut self.shards {
            if let Some(thread) = shard.thread.take() {
                let _ = thread.join();
            }
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// How often the deadline sweep runs: a quarter of the shortest enabled
/// deadline, clamped to [10 ms, 1 s] — frequent enough that deadlines
/// fire within ~1.25× their nominal value, coarse enough that a shard
/// with 10k idle connections is not scanning them on every wake.
fn sweep_interval(config: &WireConfig) -> Option<Duration> {
    [config.read_timeout, config.write_timeout]
        .into_iter()
        .flatten()
        .min()
        .map(|t| (t / 4).clamp(Duration::from_millis(10), Duration::from_secs(1)))
}

#[cfg(unix)]
fn poller_register_listener(poller: &poll::Poller, listener: &TcpListener) -> std::io::Result<()> {
    use std::os::fd::AsRawFd;
    // std's TcpListener hardcodes a backlog of 128; a 10k-connection storm
    // overflows that in milliseconds and every dropped SYN costs the peer
    // a full retransmission timeout. Re-listen deeper (kernel-capped at
    // net.core.somaxconn); best-effort, the server works either way.
    let _ = poll::set_listener_backlog(listener.as_raw_fd(), 4096);
    poller.register(
        listener.as_raw_fd(),
        TOKEN_LISTENER,
        poll::Interest::READABLE,
    )
}

#[cfg(not(unix))]
fn poller_register_listener(_: &poll::Poller, _: &TcpListener) -> std::io::Result<()> {
    unreachable!("the poll shim already refused to construct on this target")
}

#[cfg(unix)]
fn stream_fd(stream: &TcpStream) -> std::os::fd::RawFd {
    use std::os::fd::AsRawFd;
    stream.as_raw_fd()
}

#[cfg(not(unix))]
fn stream_fd(_: &TcpStream) -> std::os::fd::RawFd {
    unreachable!("the poll shim already refused to construct on this target")
}

/// One connection owned by a shard.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Buffered response bytes not yet accepted by the socket.
    out: Vec<u8>,
    /// Prefix of `out` already written.
    out_pos: usize,
    /// Interest currently registered with the poller.
    interest: poll::Interest,
    /// Last time bytes arrived (read-idle deadline).
    last_read: Instant,
    /// Last time buffered output shrank (write-stall deadline).
    last_write: Instant,
    /// Close once `out` drains (set after a protocol error: the error
    /// frame should reach the peer, but framing cannot be resynchronised).
    closing: bool,
    /// Total response bytes ever enqueued on this connection (monotonic,
    /// unlike `out`, which is cleared on drain).
    queued_total: u64,
    /// Total response bytes the socket has accepted.
    written_total: u64,
    /// Prediction responses awaiting their write-completion stamp: once
    /// `written_total` reaches the recorded offset, the response's last
    /// byte hit the socket and its trace span is recorded. Offsets are
    /// enqueued in write order, so only the front is ever inspected.
    trace_writes: VecDeque<(u64, Instant, TraceState)>,
}

impl Conn {
    fn buffered_out(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Frames `payload` onto the output buffer, tracking the monotonic
    /// enqueued-byte offset for write-completion stamping.
    fn enqueue_frame(&mut self, payload: &[u8]) {
        append_frame(&mut self.out, payload);
        self.queued_total += 4 + payload.len() as u64;
    }

    /// Enqueues a prediction's response under its echoed id and, for an
    /// admitted request, starts its write stage, which runs from here to
    /// the moment the socket accepts the response's last byte.
    fn enqueue_prediction(&mut self, answer: Answer, id: Option<Json>, trace: Option<TraceState>) {
        let response = match answer {
            Ok(response) => prediction_to_json(&response),
            Err(e) => error_response(&e),
        };
        self.enqueue_frame(with_id(response, id).to_string().as_bytes());
        if let Some(trace) = trace {
            self.trace_writes
                .push_back((self.queued_total, Instant::now(), trace));
        }
    }
}

struct Shard {
    index: usize,
    poller: poll::Poller,
    /// Every shard's waker+inbox; `mailboxes[index]` is this shard's own.
    mailboxes: Arc<[Arc<Mailbox>]>,
    /// Shard 0 owns the listener.
    listener: Option<TcpListener>,
    next_peer: usize,
    client: Client,
    config: WireConfig,
    shutdown: Arc<AtomicBool>,
    /// Open connections across *all* shards (the connection-cap counter).
    open: Arc<AtomicUsize>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Reused per socket read: the frames one read completed.
    frames: Vec<Vec<u8>>,
    sweep_interval: Option<Duration>,
    last_sweep: Instant,
    /// `quclassi_wire_shard_connections{shard="N"}`: connections this
    /// shard currently owns.
    shard_connections: Gauge,
}

impl Shard {
    /// Mirrors the cross-shard open-connection count into the
    /// `quclassi_wire_connections` gauge (called after every change to
    /// `open`; last writer wins, which converges on the true count).
    fn sync_open_gauge(&self) {
        self.client
            .runtime_stats()
            .wire_connections
            .set(self.open.load(Ordering::Relaxed) as u64);
    }
}

impl Shard {
    fn run(mut self) {
        let mut events = poll::Events::with_capacity(256);
        let mut scratch = vec![0u8; READ_CHUNK_BYTES];
        let mut io_ready: Vec<(usize, bool, bool, bool)> = Vec::new();
        loop {
            if self.poller.wait(&mut events, self.sweep_interval).is_err() {
                // The poller fd itself failed; nothing to serve from.
                break;
            }
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }
            let mut woken = false;
            let mut accept_ready = false;
            io_ready.clear();
            for event in events.iter() {
                match event.token() {
                    TOKEN_WAKER => woken = true,
                    TOKEN_LISTENER => accept_ready = true,
                    token => io_ready.push((
                        token - TOKEN_BASE,
                        event.is_readable(),
                        event.is_writable(),
                        event.is_error() || event.is_hangup(),
                    )),
                }
            }
            if woken {
                self.mailboxes[self.index].waker.drain();
                self.adopt_handoffs();
            }
            if accept_ready {
                self.accept_ready();
            }
            for &(slot, readable, writable, err_hup) in &io_ready {
                self.handle_io(slot, readable, writable, err_hup, &mut scratch);
            }
            self.maybe_sweep();
        }
        // Teardown: every owned connection closes (streams drop) and
        // leaves the cap.
        let drained = self.conns.drain(..).flatten().count();
        for _ in 0..drained {
            self.open.fetch_sub(1, Ordering::Relaxed);
            self.shard_connections.sub(1);
        }
        self.sync_open_gauge();
    }

    /// Shard 0 only: accept until the listener runs dry, refusing over-cap
    /// peers and dealing admitted sockets round-robin across all shards.
    fn accept_ready(&mut self) {
        let Some(listener) = &self.listener else {
            return;
        };
        loop {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // fd exhaustion (EMFILE/ENFILE) or similar: the
                    // pending connection keeps the listener readable, so
                    // breaking straight back into a level-triggered wait
                    // would spin at 100% CPU. Stall this shard briefly
                    // instead; its established connections resume after
                    // the backoff, and accepting resumes when fds free.
                    std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                    break;
                }
            };
            let open_now = self.open.load(Ordering::Relaxed);
            if open_now >= self.config.max_connections {
                // The freshly accepted stream is still blocking, so the
                // refusal write is a plain bounded syscall.
                refuse_stream(
                    stream,
                    open_now,
                    self.config.max_connections,
                    self.config.write_timeout,
                    self.client.runtime_stats(),
                );
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            // Responses are small frames; without nodelay each one can
            // stall ~40 ms behind Nagle + delayed ACK.
            let _ = stream.set_nodelay(true);
            self.open.fetch_add(1, Ordering::Relaxed);
            self.sync_open_gauge();
            let peer = self.next_peer;
            self.next_peer = (self.next_peer + 1) % self.mailboxes.len();
            self.mailboxes[peer]
                .inbox
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(stream);
            if peer != self.index {
                self.mailboxes[peer].waker.wake();
            }
        }
        // Sockets dealt to ourselves skip the waker round-trip.
        self.adopt_handoffs();
    }

    /// Registers every socket deposited in this shard's inbox.
    fn adopt_handoffs(&mut self) {
        let streams = std::mem::take(
            &mut *self.mailboxes[self.index]
                .inbox
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        for stream in streams {
            let slot = self.free.pop().unwrap_or_else(|| {
                self.conns.push(None);
                self.conns.len() - 1
            });
            if self
                .poller
                .register(
                    stream_fd(&stream),
                    TOKEN_BASE + slot,
                    poll::Interest::READABLE,
                )
                .is_err()
            {
                self.free.push(slot);
                self.open.fetch_sub(1, Ordering::Relaxed);
                self.sync_open_gauge();
                continue;
            }
            self.shard_connections.add(1);
            let now = Instant::now();
            self.conns[slot] = Some(Conn {
                stream,
                decoder: FrameDecoder::new(),
                out: Vec::new(),
                out_pos: 0,
                interest: poll::Interest::READABLE,
                last_read: now,
                last_write: now,
                closing: false,
                queued_total: 0,
                written_total: 0,
                trace_writes: VecDeque::new(),
            });
        }
    }

    /// Services one connection's readiness events.
    fn handle_io(
        &mut self,
        slot: usize,
        readable: bool,
        writable: bool,
        err_hup: bool,
        scratch: &mut [u8],
    ) {
        if self.conns.get(slot).and_then(Option::as_ref).is_none() {
            return; // closed earlier this iteration (e.g. by the sweep)
        }
        if err_hup && !readable {
            // Hard error, or a hangup with nothing left to read. (A peer
            // that half-closed after sending still gets its requests
            // served: readable stays set until we drain the EOF.)
            self.close(slot);
            return;
        }
        if writable {
            self.flush(slot);
        }
        if readable {
            self.read_ready(slot, scratch);
        }
    }

    /// Reads until the socket runs dry (or backpressure pauses reading),
    /// interpreting every completed frame.
    fn read_ready(&mut self, slot: usize, scratch: &mut [u8]) {
        loop {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            if conn.closing || conn.buffered_out() > MAX_BUFFERED_OUT {
                // Backpressure: stop consuming requests until the peer
                // drains responses. Level-triggered epoll re-reports the
                // pending bytes once readable interest is restored.
                self.update_interest(slot);
                return;
            }
            let n = match conn.stream.read(scratch) {
                Ok(0) => {
                    self.close(slot);
                    return;
                }
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot);
                    return;
                }
            };
            conn.last_read = Instant::now();
            if let Err(e) = conn.decoder.extend(&scratch[..n]) {
                // Oversized frame claim: answer why, then close once the
                // error frame is out (framing is now desynchronised).
                let response = error_response(&e).to_string();
                conn.enqueue_frame(response.as_bytes());
                conn.closing = true;
                break;
            }
            let mut frames = std::mem::take(&mut self.frames);
            while let Some(frame) = conn.decoder.next_frame() {
                frames.push(frame);
            }
            for frame in frames.drain(..) {
                self.handle_frame(slot, &frame);
            }
            self.frames = frames;
        }
        self.flush(slot);
    }

    /// Interprets one complete request frame on `slot`.
    fn handle_frame(&mut self, slot: usize, frame: &[u8]) {
        match interpret(frame, &self.client) {
            WireAction::Respond(response) => {
                if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
                    conn.enqueue_frame(response.to_string().as_bytes());
                }
            }
            WireAction::Predict {
                model,
                features,
                id,
            } => {
                // Runs to completion here. Admission errors (saturated,
                // unknown model, bad features) answer the same way, id
                // attached, and the connection lives on.
                let (answer, trace) =
                    self.client
                        .submit_wire(&model, &features, trace_id_for(id.as_ref()));
                if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
                    conn.enqueue_prediction(answer, id, trace);
                }
            }
        }
    }

    /// Writes buffered output until the socket stops accepting, stamping
    /// the write stage of every prediction response whose last byte the
    /// socket accepted, then reconciles poller interest (and closes
    /// drained `closing` conns).
    fn flush(&mut self, slot: usize) {
        let mut finished: Vec<(TraceState, u64)> = Vec::new();
        let mut close_after = false;
        loop {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            if conn.out_pos == conn.out.len() {
                conn.out.clear();
                conn.out_pos = 0;
                conn.last_write = Instant::now();
                close_after = conn.closing;
                break;
            }
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    close_after = true;
                    break;
                }
                Ok(n) => {
                    conn.out_pos += n;
                    conn.written_total += n as u64;
                    conn.last_write = Instant::now();
                    while conn
                        .trace_writes
                        .front()
                        .is_some_and(|(target, _, _)| *target <= conn.written_total)
                    {
                        let (_, enqueued, trace) =
                            conn.trace_writes.pop_front().expect("front exists");
                        finished.push((trace, enqueued.elapsed().as_nanos() as u64));
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    close_after = true;
                    break;
                }
            }
        }
        // Record outside the connection borrow: delivered responses keep
        // their spans even when the connection dies right after.
        for (trace, write_ns) in finished {
            self.client.finish_wire_write(&trace, write_ns);
        }
        if close_after {
            self.close(slot);
            return;
        }
        self.update_interest(slot);
    }

    /// Keeps the poller registration in line with what the connection can
    /// make progress on: writable only while output is buffered, readable
    /// only while below the output backpressure limit (and not closing).
    fn update_interest(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let wants_read = !conn.closing && conn.buffered_out() <= MAX_BUFFERED_OUT;
        let wants_write = conn.buffered_out() > 0;
        let desired = match (wants_read, wants_write) {
            (true, true) => poll::Interest::BOTH,
            (true, false) => poll::Interest::READABLE,
            // A paused reader always has buffered output, so (false, _)
            // keeps writable interest — the drain is what resumes reading.
            (false, _) => poll::Interest::WRITABLE,
        };
        if desired != conn.interest
            && self
                .poller
                .modify(stream_fd(&conn.stream), TOKEN_BASE + slot, desired)
                .is_ok()
        {
            conn.interest = desired;
        }
    }

    /// Disconnects peers that stalled past their read/write deadline.
    /// Runs at most once per sweep interval regardless of wake frequency.
    fn maybe_sweep(&mut self) {
        let Some(interval) = self.sweep_interval else {
            return;
        };
        if self.last_sweep.elapsed() < interval {
            return;
        }
        self.last_sweep = Instant::now();
        let now = Instant::now();
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_ref() else {
                continue;
            };
            let read_stalled = self
                .config
                .read_timeout
                .is_some_and(|t| now.duration_since(conn.last_read) > t);
            let write_stalled = conn.buffered_out() > 0
                && self
                    .config
                    .write_timeout
                    .is_some_and(|t| now.duration_since(conn.last_write) > t);
            if read_stalled || write_stalled {
                self.close(slot);
            }
        }
    }

    /// Releases a connection: poller registration, slot, cap count. The
    /// stream drops (closes) here, and undelivered responses' trace spans
    /// drop with the connection (an undelivered response has no
    /// write-stage completion to stamp).
    fn close(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::take) else {
            return;
        };
        let _ = self.poller.deregister(stream_fd(&conn.stream));
        drop(conn);
        self.free.push(slot);
        self.open.fetch_sub(1, Ordering::Relaxed);
        self.shard_connections.sub(1);
        self.sync_open_gauge();
    }
}
