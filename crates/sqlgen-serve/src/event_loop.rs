//! The epoll readiness backend: nonblocking connections on a few event
//! loops instead of a thread per in-flight exchange.
//!
//! Thread layout:
//!
//! ```text
//! acceptor ──inbox+wake──► N event loops ──shard router──► M shard workers
//!     │                        │                                │
//! nonblocking         per-connection state              run_window per
//! listener            machine: read-accumulate          schema group
//!                     → parse → dispatch →              (`shard.rs`)
//!                     buffered write; cache
//!                     hits answered in place
//! ```
//!
//! Each loop owns its connections outright (a slab indexed by the epoll
//! token), so there is no per-connection locking anywhere: other threads
//! talk to a loop only through two mailboxes — new sockets from the
//! acceptor and [`EventReply`] completions from shard workers — both
//! paired with an eventfd wakeup.
//!
//! The per-connection state machine:
//!
//! * **read-accumulate** — level-triggered `EPOLLIN`; bytes append to a
//!   bounded buffer (`max_head + max_body` + slack). At the cap, read
//!   interest is dropped until the parser consumes — backpressure, not
//!   unbounded buffering.
//! * **parse** — [`crate::http::parse_buf`] re-parses the accumulated
//!   prefix; `Partial` waits for more bytes, limit violations answer
//!   400/413 and close. A request that sits incomplete past the read
//!   timeout is a slowloris: the sweep closes it regardless of how
//!   diligently it trickles bytes.
//! * **dispatch** — `server::route` answers scrape endpoints inline;
//!   `/generate` first consults the schema's result cache (a hit never
//!   touches a queue), then routes to a shard by `(schema, model-version)`.
//!   One in-flight generation per connection, so pipelined requests answer
//!   in order.
//! * **buffered write** — responses append to an out buffer flushed as
//!   `EPOLLOUT` allows; a peer that stops reading hits the write-progress
//!   deadline.

#![cfg(target_os = "linux")]

use crate::batcher::{BatcherConfig, RequestOutcome, Responder};
use crate::http::{parse_buf, write_response, BufParse, Response};
use crate::server::{
    complete_generate, endpoint_label, finalize_response, route, Admitted, Routed, ServerState,
};
use crate::shard::ShardPool;
use crate::sys::{Epoll, EpollEvent, WakeFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use sqlgen_obs::{RequestTrace, TraceContext};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Epoll token reserved for the loop's wakeup eventfd.
const WAKE_TOKEN: u64 = u64::MAX;
/// Epoll wait timeout; also the deadline-sweep granularity.
const TICK_MS: i32 = 25;
/// How long a drain waits for in-flight writes before force-closing.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// One loop's cross-thread mailboxes.
pub(crate) struct LoopShared {
    inbox: Mutex<Vec<TcpStream>>,
    completions: Mutex<Vec<Completion>>,
    wake: WakeFd,
    stop: AtomicBool,
}

struct Completion {
    token: usize,
    req_gen: u64,
    outcome: RequestOutcome,
}

/// The event-backend half of [`Responder`]: shard workers deliver a
/// finished outcome to the owning loop's mailbox and wake it. `req_gen`
/// guards against slot reuse — a completion for a connection that timed
/// out or closed is dropped, never written to a stranger.
pub struct EventReply {
    shared: Arc<LoopShared>,
    token: usize,
    req_gen: u64,
}

impl EventReply {
    pub(crate) fn deliver(&self, outcome: RequestOutcome) {
        self.shared
            .completions
            .lock()
            .expect("completion mailbox")
            .push(Completion {
                token: self.token,
                req_gen: self.req_gen,
                outcome,
            });
        self.shared.wake.wake();
    }
}

/// Thread bundle returned by [`start`]; joined by
/// [`crate::server::ServerHandle::shutdown`].
pub(crate) struct EventBackend {
    accept_stop: Arc<AtomicBool>,
    accept: JoinHandle<()>,
    loops: Vec<Arc<LoopShared>>,
    loop_handles: Vec<JoinHandle<()>>,
    shard_workers: Vec<JoinHandle<()>>,
}

impl EventBackend {
    /// Drain order matters: acceptor first (no new sockets; dropping the
    /// listener closes it), then shard queues close and workers finish
    /// (every admitted task delivers its completion), then the loops stop
    /// — they flush those completions and any buffered writes before
    /// exiting.
    pub(crate) fn shutdown(self, pool: &ShardPool) {
        self.accept_stop.store(true, Ordering::SeqCst);
        let _ = self.accept.join();
        pool.close();
        for w in self.shard_workers {
            let _ = w.join();
        }
        for shared in &self.loops {
            shared.stop.store(true, Ordering::SeqCst);
            shared.wake.wake();
        }
        for h in self.loop_handles {
            let _ = h.join();
        }
    }
}

/// Spawns the acceptor, event loops and the state's shard workers.
pub(crate) fn start(
    listener: TcpListener,
    state: Arc<ServerState>,
) -> std::io::Result<EventBackend> {
    let cfg = &state.config;
    let batcher_cfg = BatcherConfig {
        lanes: cfg.batch.max(1),
        max_wait: Duration::from_millis(cfg.max_wait_ms),
        max_batch_jobs: cfg.max_batch_jobs.max(1),
    };
    let shard_workers = state.pool.spawn_workers(&batcher_cfg, cfg.pin_cpus);

    let nloops = cfg.event_threads.max(1);
    let mut loops = Vec::with_capacity(nloops);
    let mut loop_handles = Vec::with_capacity(nloops);
    for i in 0..nloops {
        let shared = Arc::new(LoopShared {
            inbox: Mutex::new(Vec::new()),
            completions: Mutex::new(Vec::new()),
            wake: WakeFd::new()?,
            stop: AtomicBool::new(false),
        });
        loops.push(shared.clone());
        let state = state.clone();
        loop_handles.push(
            std::thread::Builder::new()
                .name(format!("sqlgen-evloop-{i}"))
                .spawn(move || match EventLoop::new(state, shared) {
                    Ok(el) => el.run(),
                    Err(e) => sqlgen_obs::obs_warn!("[serve] event loop failed to start: {e}"),
                })
                .expect("spawn event loop"),
        );
    }

    let accept_loops = loops.clone();
    let sndbuf = cfg.sndbuf;
    let accept_stop = Arc::new(AtomicBool::new(false));
    let stop = accept_stop.clone();
    let accept = std::thread::Builder::new()
        .name("sqlgen-accept".to_string())
        .spawn(move || {
            let mut next = 0usize;
            while !stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let _ = stream.set_nodelay(true);
                        let _ = stream.set_nonblocking(true);
                        if let Some(bytes) = sndbuf {
                            let _ = crate::sys::set_send_buffer(stream.as_raw_fd(), bytes);
                        }
                        let target = &accept_loops[next % accept_loops.len()];
                        next = next.wrapping_add(1);
                        target.inbox.lock().expect("accept inbox").push(stream);
                        target.wake.wake();
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) => {
                        sqlgen_obs::obs_warn!("[serve] accept error: {e}");
                        std::thread::sleep(Duration::from_millis(20));
                    }
                }
            }
        })
        .expect("spawn acceptor");

    Ok(EventBackend {
        accept_stop,
        accept,
        loops,
        loop_handles,
        shard_workers,
    })
}

/// An in-flight `/generate` awaiting its shard completion.
struct Pending {
    admitted: Admitted,
    started: Instant,
    keep_alive: bool,
    trace: Option<Arc<RequestTrace>>,
    ctx: TraceContext,
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    /// Read-accumulate buffer; bounded by the loop's `read_cap`.
    buf: Vec<u8>,
    /// Buffered response bytes not yet accepted by the kernel.
    out: Vec<u8>,
    out_pos: usize,
    pending: Option<Pending>,
    last_activity: Instant,
    last_write_progress: Instant,
    /// When `buf` last went empty → non-empty; a request still incomplete
    /// past the read timeout is treated as a slowloris and closed.
    request_started: Option<Instant>,
    read_closed: bool,
    close_after_write: bool,
    interest: u32,
}

struct EventLoop {
    state: Arc<ServerState>,
    shared: Arc<LoopShared>,
    epoll: Epoll,
    conns: Vec<Option<Conn>>,
    /// Bumped on dispatch, timeout and close; pairs with
    /// [`EventReply::req_gen`] so stale completions are dropped.
    slot_gen: Vec<u64>,
    free: Vec<usize>,
    read_cap: usize,
    idle_timeout: Duration,
    write_timeout: Duration,
    stopping_since: Option<Instant>,
}

impl EventLoop {
    fn new(state: Arc<ServerState>, shared: Arc<LoopShared>) -> std::io::Result<EventLoop> {
        let epoll = Epoll::new()?;
        epoll.add(shared.wake.fd(), EPOLLIN, WAKE_TOKEN)?;
        let cfg = &state.config;
        let read_cap = cfg.limits.max_head + cfg.limits.max_body + 1024;
        let idle_timeout = Duration::from_millis(cfg.read_timeout_ms.max(1));
        let write_timeout = Duration::from_millis(cfg.write_timeout_ms.max(1));
        Ok(EventLoop {
            state,
            shared,
            epoll,
            conns: Vec::new(),
            slot_gen: Vec::new(),
            free: Vec::new(),
            read_cap,
            idle_timeout,
            write_timeout,
            stopping_since: None,
        })
    }

    fn run(mut self) {
        let mut events = vec![EpollEvent { events: 0, data: 0 }; 256];
        let mut scratch = [0u8; 16384];
        loop {
            let n = match self.epoll.wait(&mut events, TICK_MS) {
                Ok(n) => n,
                Err(e) => {
                    sqlgen_obs::obs_warn!("[serve] epoll_wait: {e}");
                    continue;
                }
            };
            let mut woken = false;
            for ev in &events[..n] {
                let token = { ev.data };
                if token == WAKE_TOKEN {
                    woken = true;
                    continue;
                }
                self.handle_io(token as usize, ev.events, &mut scratch);
            }
            if woken {
                self.shared.wake.drain();
            }
            self.drain_inbox();
            self.drain_completions();
            self.sweep_deadlines();
            if self.shared.stop.load(Ordering::SeqCst) && self.drain_for_shutdown() {
                return;
            }
        }
    }

    fn drain_inbox(&mut self) {
        let streams: Vec<TcpStream> =
            std::mem::take(&mut *self.shared.inbox.lock().expect("accept inbox"));
        for stream in streams {
            if self.shared.stop.load(Ordering::SeqCst) {
                continue; // dropped → closed
            }
            self.add_conn(stream);
        }
    }

    fn add_conn(&mut self, stream: TcpStream) {
        let i = match self.free.pop() {
            Some(i) => i,
            None => {
                self.conns.push(None);
                self.slot_gen.push(0);
                self.conns.len() - 1
            }
        };
        let now = Instant::now();
        let interest = EPOLLIN | EPOLLRDHUP;
        if self
            .epoll
            .add(stream.as_raw_fd(), interest, i as u64)
            .is_err()
        {
            self.free.push(i);
            return;
        }
        self.conns[i] = Some(Conn {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            pending: None,
            last_activity: now,
            last_write_progress: now,
            request_started: None,
            read_closed: false,
            close_after_write: false,
            interest,
        });
    }

    fn close_conn(&mut self, i: usize) {
        if let Some(conn) = self.conns[i].take() {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            self.slot_gen[i] = self.slot_gen[i].wrapping_add(1);
            self.free.push(i);
            // Dropping the stream closes the fd.
        }
    }

    fn handle_io(&mut self, i: usize, flags: u32, scratch: &mut [u8]) {
        if !matches!(self.conns.get(i), Some(Some(_))) {
            return; // stale event for a slot already closed this batch
        }
        if flags & (EPOLLERR | EPOLLHUP) != 0 {
            self.close_conn(i);
            return;
        }
        if flags & EPOLLOUT != 0 {
            self.flush(i);
        }
        if self.conns[i].is_some() && flags & (EPOLLIN | EPOLLRDHUP) != 0 {
            self.read_ready(i, scratch);
        }
        self.update_interest(i);
    }

    fn read_ready(&mut self, i: usize, scratch: &mut [u8]) {
        loop {
            let Some(conn) = self.conns[i].as_mut() else {
                return;
            };
            if conn.buf.len() >= self.read_cap {
                break; // backpressure: parser must consume first
            }
            match conn.stream.read(scratch) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    if conn.buf.is_empty() && conn.request_started.is_none() {
                        conn.request_started = Some(Instant::now());
                    }
                    conn.buf.extend_from_slice(&scratch[..n]);
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(i);
                    return;
                }
            }
        }
        self.process_buf(i);
        self.maybe_close_half_open(i);
    }

    /// Parses and dispatches as many complete requests as the buffer holds
    /// — at most one `/generate` in flight per connection, which is what
    /// keeps pipelined responses in request order.
    fn process_buf(&mut self, i: usize) {
        loop {
            let Some(conn) = self.conns[i].as_mut() else {
                return;
            };
            if conn.pending.is_some() || conn.close_after_write {
                return;
            }
            if conn.buf.is_empty() {
                conn.request_started = None;
                return;
            }
            match parse_buf(&conn.buf, &self.state.config.limits) {
                BufParse::Partial => return,
                BufParse::Error(e) => {
                    match e.status() {
                        // Mirror the blocking path: limit/parse errors get
                        // a terse response and the connection closes.
                        Some(status) => {
                            self.queue_response(i, &Response::error(status, e.detail()), false)
                        }
                        None => self.close_conn(i),
                    }
                    return;
                }
                BufParse::Complete(req, consumed) => {
                    conn.buf.drain(..consumed);
                    conn.request_started = if conn.buf.is_empty() {
                        None
                    } else {
                        Some(Instant::now())
                    };
                    self.dispatch(i, req);
                }
            }
        }
    }

    fn dispatch(&mut self, i: usize, req: crate::http::Request) {
        let started = Instant::now();
        let endpoint = endpoint_label(&req.path);
        let ctx = TraceContext::from_headers(req.traceparent.as_deref(), req.request_id.as_deref());
        let trace = (endpoint == "generate").then(|| RequestTrace::begin(ctx, endpoint));
        let keep_alive = req.keep_alive && !self.state.draining.load(Ordering::SeqCst);
        self.slot_gen[i] = self.slot_gen[i].wrapping_add(1);
        let reply = Responder::Event(EventReply {
            shared: self.shared.clone(),
            token: i,
            req_gen: self.slot_gen[i],
        });
        let routed = route(
            &self.state,
            req.method.as_str(),
            &req.path,
            &req.body,
            trace.as_ref(),
            reply,
        );
        match routed {
            Routed::Respond(resp) => {
                let resp = finalize_response(&self.state, endpoint, started, ctx, trace, resp);
                self.queue_response(i, &resp, keep_alive);
            }
            Routed::Queued(admitted) => {
                if let Some(conn) = self.conns[i].as_mut() {
                    conn.pending = Some(Pending {
                        admitted,
                        started,
                        keep_alive,
                        trace,
                        ctx,
                    });
                }
            }
        }
    }

    fn drain_completions(&mut self) {
        let comps: Vec<Completion> =
            std::mem::take(&mut *self.shared.completions.lock().expect("completion mailbox"));
        for c in comps {
            let i = c.token;
            if self.slot_gen.get(i).copied() != Some(c.req_gen) {
                continue; // connection closed or request timed out
            }
            let Some(p) = self.conns[i].as_mut().and_then(|conn| conn.pending.take()) else {
                continue;
            };
            let resp = complete_generate(&p.admitted, &c.outcome);
            let resp = finalize_response(&self.state, "generate", p.started, p.ctx, p.trace, resp);
            self.queue_response(i, &resp, p.keep_alive);
            // A pipelined follow-up may already be buffered.
            self.process_buf(i);
            self.update_interest(i);
        }
    }

    fn sweep_deadlines(&mut self) {
        let now = Instant::now();
        for i in 0..self.conns.len() {
            let Some(conn) = self.conns[i].as_mut() else {
                continue;
            };
            if let Some(p) = &conn.pending {
                if now >= p.admitted.reply_deadline {
                    let p = conn.pending.take().expect("pending just observed");
                    // Invalidate the outstanding EventReply.
                    self.slot_gen[i] = self.slot_gen[i].wrapping_add(1);
                    sqlgen_obs::obs_count!("serve.timeout.count");
                    let resp =
                        Response::error(504, "generation did not finish before the deadline");
                    let resp =
                        finalize_response(&self.state, "generate", p.started, p.ctx, p.trace, resp);
                    self.queue_response(i, &resp, p.keep_alive);
                    self.process_buf(i);
                    self.update_interest(i);
                    continue;
                }
            }
            let Some(conn) = self.conns[i].as_mut() else {
                continue;
            };
            let slow_request = conn.request_started.is_some_and(|t0| {
                conn.pending.is_none() && now.duration_since(t0) > self.idle_timeout
            });
            let idle = conn.pending.is_none()
                && conn.buf.is_empty()
                && conn.out_pos >= conn.out.len()
                && now.duration_since(conn.last_activity) > self.idle_timeout;
            let stuck_write = conn.out_pos < conn.out.len()
                && now.duration_since(conn.last_write_progress) > self.write_timeout;
            if slow_request || idle || stuck_write {
                self.close_conn(i);
            }
        }
    }

    /// Serializes `resp` into the out buffer and flushes what the socket
    /// will take now; the rest waits for `EPOLLOUT`.
    fn queue_response(&mut self, i: usize, resp: &Response, keep_alive: bool) {
        let Some(conn) = self.conns[i].as_mut() else {
            return;
        };
        if write_response(&mut conn.out, resp, keep_alive).is_err() {
            self.close_conn(i);
            return;
        }
        if !keep_alive {
            conn.close_after_write = true;
        }
        conn.last_write_progress = Instant::now();
        self.flush(i);
        self.update_interest(i);
    }

    fn flush(&mut self, i: usize) {
        let mut close = false;
        if let Some(conn) = self.conns[i].as_mut() {
            while conn.out_pos < conn.out.len() {
                match conn.stream.write(&conn.out[conn.out_pos..]) {
                    Ok(0) => {
                        close = true;
                        break;
                    }
                    Ok(n) => {
                        conn.out_pos += n;
                        conn.last_write_progress = Instant::now();
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        close = true;
                        break;
                    }
                }
            }
            if !close && conn.out_pos >= conn.out.len() {
                conn.out.clear();
                conn.out_pos = 0;
                close = conn.close_after_write;
            }
        }
        if close {
            self.close_conn(i);
            return;
        }
        self.maybe_close_half_open(i);
    }

    /// Closes a connection whose peer half-closed and which has nothing
    /// left to do (no pending generation, nothing buffered either way).
    fn maybe_close_half_open(&mut self, i: usize) {
        let close = match self.conns[i].as_ref() {
            Some(c) => {
                c.read_closed && c.pending.is_none() && c.buf.is_empty() && c.out_pos >= c.out.len()
            }
            None => false,
        };
        if close {
            self.close_conn(i);
        }
    }

    fn update_interest(&mut self, i: usize) {
        let Some(conn) = self.conns[i].as_mut() else {
            return;
        };
        let mut want = 0u32;
        if !conn.read_closed && conn.buf.len() < self.read_cap {
            want |= EPOLLIN | EPOLLRDHUP;
        }
        if conn.out_pos < conn.out.len() {
            want |= EPOLLOUT;
        }
        if want != conn.interest {
            conn.interest = want;
            let fd = conn.stream.as_raw_fd();
            let _ = self.epoll.modify(fd, want, i as u64);
        }
    }

    /// Returns true once every connection is gone. Completions were all
    /// delivered before `stop` was set (shard workers join first), so
    /// connections only linger to flush buffered writes — force-closed
    /// after [`DRAIN_GRACE`].
    fn drain_for_shutdown(&mut self) -> bool {
        let since = *self.stopping_since.get_or_insert_with(Instant::now);
        let force = since.elapsed() > DRAIN_GRACE;
        for i in 0..self.conns.len() {
            let close = match self.conns[i].as_ref() {
                Some(c) => force || (c.pending.is_none() && c.out_pos >= c.out.len()),
                None => false,
            };
            if close {
                self.close_conn(i);
            }
        }
        self.conns.iter().all(|c| c.is_none())
    }
}
