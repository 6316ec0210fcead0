//! The event-driven front end: one readiness loop, thousands of clients.
//!
//! `vaultd`'s socket server. A thread per connection would be fine for
//! a handful of IDEs and fatal for a build farm, so [`MuxServer`]
//! multiplexes instead: a single event loop `poll(2)`s a Unix listener,
//! an optional TCP listener (`--listen addr:port`), and every live
//! connection, frames request lines incrementally, and hands each
//! request to one of the service's `--jobs` pool threads
//! (`ThreadPool::hand`), which runs the request handler,
//! checks the request's last cache miss itself and runs queued checks
//! while it waits for the others. Responses come back over a queue and
//! a [waker][crate::poll::Waker], get buffered per connection, and are
//! flushed as sockets accept them.
//!
//! ```text
//!            poll(2) readiness loop (one thread)          pool threads (--jobs)
//!   ┌─────────────────────────────────────────────────┐   ┌──────────────────┐
//!   │ unix listener ─┐                                │   │ thread 0  ...    │
//!   │ tcp  listener ─┼─ accept               hand to  │   │ handed request:  │
//!   │ conn 1 ────────┤                     the most   │   │  handle_request  │
//!   │ conn 2 ────────┼─ read ─ frame ─ recently freed ┼──►│  + last miss     │
//!   │ conn N ────────┘  lines (bounded)    thread     │   │ else, or waiting:│
//!   │ waker ── completions (frees the thread) ◄───────┼───┤  queued checks ◄─┼─ check
//!   │        ◄── write-buffer flush ◄── responses     │   └──────────────────┘  queue
//!   └─────────────────────────────────────────────────┘
//! ```
//!
//! Four properties the loop maintains:
//!
//! * **Per-connection order.** Each connection runs at most one request
//!   at a time; parsed-but-undispatched lines wait in that connection's
//!   bounded `pending` queue. Responses therefore come back in request
//!   order with no reorder buffer, exactly like the sequential
//!   [`crate::server::serve_connection`] loop — concurrency changes
//!   speed, never answers.
//! * **Backpressure.** A connection stops being *read* (its `POLLIN`
//!   interest is dropped, bytes stay in the kernel buffer) once its
//!   pending queue or its un-drained write buffer hits the configured
//!   cap, and stops being *dispatched* while responses back up. A
//!   stalled reader wedges only itself; memory per connection stays
//!   bounded.
//! * **Fairness.** Ready connections are serviced in round-robin
//!   rotation and each holds at most one thread, so a firehose client
//!   cannot starve an IDE's single request.
//! * **Warm routing.** The mux thread alone hands out requests, and a
//!   request's completion tells it exactly when its thread holds no
//!   request any more, so it keeps the free list without a lock. A
//!   request goes to the most recently freed thread (the free list is a
//!   stack), never through the check queue; with none free it waits in
//!   `pending`. A thread counts as free from the moment it reports, so a
//!   one-unit request runs start to finish on a thread that is usually
//!   still warm; if that thread has meanwhile taken a queued check, the
//!   request starts when the check ends.
//!
//! A `shutdown` request marks the server stopping: the ack is flushed to
//! its requester, the loop exits, and the pool drains in-flight work
//! within [`crate::server::SHUTDOWN_GRACE`].

use crate::poll::{self, PollFd, Waker, POLLIN, POLLOUT};
use crate::pool::{lock_unpoisoned, panic_payload};
use crate::proto;
use crate::server::{respond_to_line, too_long_reply, SHUTDOWN_GRACE};
use crate::service::CheckService;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tunables for a [`MuxServer`] (its requests run on the service's pool).
#[derive(Clone, Copy, Debug)]
pub struct MuxConfig {
    /// Most parsed-but-unanswered requests buffered per connection
    /// before the loop stops reading it (read-ahead cap).
    pub max_pending_per_conn: usize,
    /// Most un-drained response bytes buffered per connection before
    /// the loop stops reading *and* dispatching it. The stalled-reader
    /// bound: kernel buffer + this is all a dead client can hold.
    pub max_write_buffer: usize,
}

impl Default for MuxConfig {
    fn default() -> Self {
        MuxConfig {
            max_pending_per_conn: 32,
            max_write_buffer: 256 * 1024,
        }
    }
}

/// One framed item out of a connection's byte stream.
pub(crate) enum Framed {
    /// A complete line within the bound (may still be blank/invalid).
    Request(String),
    /// An over-long line, already skipped; carries its running length.
    TooLong(usize),
}

/// Incremental, bounded JSON-lines framing, shared with the blocking
/// [`crate::server::serve_connection`] loop so every transport frames
/// alike: a line over `max` bytes is *skipped* (consumed to its
/// newline, never buffered) and surfaces as [`Framed::TooLong`], so one
/// hostile request can neither balloon memory nor desynchronize the
/// stream.
pub(crate) struct LineAssembler {
    max: usize,
    buf: Vec<u8>,
    overflowed: usize,
}

impl LineAssembler {
    pub(crate) fn new(max: usize) -> Self {
        LineAssembler {
            max,
            buf: Vec::new(),
            overflowed: 0,
        }
    }

    /// Feed one chunk read off the socket; push every completed frame.
    pub(crate) fn feed(&mut self, chunk: &[u8], out: &mut VecDeque<Framed>) {
        let mut rest = chunk;
        while !rest.is_empty() {
            let newline = rest.iter().position(|&b| b == b'\n');
            let take = newline.map(|i| i + 1).unwrap_or(rest.len());
            if self.overflowed == 0 {
                if self.buf.len() + take <= self.max + 1 {
                    self.buf.extend_from_slice(&rest[..take]);
                } else {
                    self.overflowed = self.buf.len() + take;
                    self.buf.clear();
                }
            } else {
                self.overflowed += take;
            }
            if newline.is_some() {
                if self.overflowed > 0 {
                    out.push_back(Framed::TooLong(self.overflowed));
                    self.overflowed = 0;
                } else {
                    while self.buf.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
                        self.buf.pop();
                    }
                    out.push_back(Framed::Request(
                        String::from_utf8_lossy(&self.buf).into_owned(),
                    ));
                    self.buf.clear();
                }
            }
            rest = &rest[take..];
        }
    }

    /// The partial tail at EOF, if any (an unterminated final line is
    /// still served).
    pub(crate) fn finish(&mut self) -> Option<Framed> {
        if self.overflowed > 0 {
            let n = self.overflowed;
            self.overflowed = 0;
            Some(Framed::TooLong(n))
        } else if !self.buf.is_empty() {
            let line = String::from_utf8_lossy(&self.buf).into_owned();
            self.buf.clear();
            Some(Framed::Request(line))
        } else {
            None
        }
    }
}

/// A connection's transport, Unix or TCP; both end up as raw fds in the
/// same poll set.
enum ConnStream {
    /// A Unix-domain-socket client.
    Unix(UnixStream),
    /// A TCP client.
    Tcp(TcpStream),
}

impl ConnStream {
    fn fd(&self) -> RawFd {
        match self {
            ConnStream::Unix(s) => s.as_raw_fd(),
            ConnStream::Tcp(s) => s.as_raw_fd(),
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            ConnStream::Unix(s) => s.read(buf),
            ConnStream::Tcp(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            ConnStream::Unix(s) => s.write(buf),
            ConnStream::Tcp(s) => s.write(buf),
        }
    }
}

/// Per-connection state in the loop.
struct Conn {
    stream: ConnStream,
    lines: LineAssembler,
    /// Framed requests waiting their turn (bounded read-ahead).
    pending: VecDeque<Framed>,
    /// Is a request from this connection on a pool thread?
    executing: bool,
    /// Buffered response bytes not yet accepted by the socket.
    out: Vec<u8>,
    out_pos: usize,
    eof: bool,
    dead: bool,
    /// Shutdown was acked on this connection: flush, then close.
    close_after_flush: bool,
}

impl Conn {
    fn new(stream: ConnStream, max_line: usize) -> Self {
        Conn {
            stream,
            lines: LineAssembler::new(max_line),
            pending: VecDeque::new(),
            executing: false,
            out: Vec::new(),
            out_pos: 0,
            eof: false,
            dead: false,
            close_after_flush: false,
        }
    }

    fn backlog(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Should the loop keep reading this connection? The backpressure
    /// gate: a full pending queue or an un-drained write buffer drops
    /// its `POLLIN` interest until the client catches up.
    fn wants_read(&self, cfg: &MuxConfig) -> bool {
        !self.eof
            && !self.dead
            && !self.close_after_flush
            && self.pending.len() < cfg.max_pending_per_conn
            && self.backlog() < cfg.max_write_buffer
    }

    fn wants_write(&self) -> bool {
        !self.dead && self.backlog() > 0
    }

    fn push_response(&mut self, line: &str) {
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
    }

    /// Read until the socket would block or backpressure says stop.
    fn fill(&mut self, cfg: &MuxConfig) {
        let mut chunk = [0u8; 16 * 1024];
        while self.wants_read(cfg) {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    if let Some(tail) = self.lines.finish() {
                        self.pending.push_back(tail);
                    }
                }
                Ok(n) => self.lines.feed(&chunk[..n], &mut self.pending),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
    }

    /// Write buffered responses until drained or the socket would block.
    fn flush(&mut self) {
        #[cfg(feature = "chaos")]
        if self.backlog() > 0 && crate::chaos::disconnect_fault() {
            // A mid-response hangup: deliver a torn prefix, then die.
            // The retrying client must recover on a fresh connection.
            let cut = (self.out_pos + 3).min(self.out.len());
            let _ = self.stream.write(&self.out[self.out_pos..cut]);
            self.dead = true;
            return;
        }
        while self.backlog() > 0 {
            #[cfg(feature = "chaos")]
            let chunk = match crate::chaos::short_write_chunk() {
                Some(cap) if cap > 0 && self.backlog() > cap => {
                    &self.out[self.out_pos..self.out_pos + cap]
                }
                _ => &self.out[self.out_pos..],
            };
            #[cfg(not(feature = "chaos"))]
            let chunk = &self.out[self.out_pos..];
            match self.stream.write(chunk) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        } else if self.out_pos > 64 * 1024 {
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
    }

    /// Everything answered and the peer gone: safe to drop.
    fn finished(&self) -> bool {
        self.dead
            || (self.close_after_flush && !self.executing && self.backlog() == 0)
            || (self.eof && self.pending.is_empty() && !self.executing && self.backlog() == 0)
    }
}

/// A bound listener plus its accept-failure bookkeeping.
struct Listener {
    kind: ListenerKind,
    consecutive_errors: u32,
    backoff_until: Option<Instant>,
}

enum ListenerKind {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn fd(&self) -> RawFd {
        match &self.kind {
            ListenerKind::Unix(l) => l.as_raw_fd(),
            ListenerKind::Tcp(l) => l.as_raw_fd(),
        }
    }

    /// Accept one connection, nonblocking. The accepted stream is set
    /// nonblocking too (TCP additionally `nodelay`: responses are whole
    /// small lines, and a delayed ack stalls an IDE for nothing).
    fn accept(&self) -> io::Result<ConnStream> {
        let stream = match &self.kind {
            ListenerKind::Unix(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(true)?;
                ConnStream::Unix(s)
            }
            ListenerKind::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(true)?;
                let _ = s.set_nodelay(true);
                ConnStream::Tcp(s)
            }
        };
        #[cfg(feature = "chaos")]
        if crate::chaos::accept_fault() {
            // Simulate the kernel refusing the accept: the would-be
            // client sees an immediate hangup and must retry.
            drop(stream);
            return Err(io::Error::other("chaos: injected accept failure"));
        }
        Ok(stream)
    }

    /// Record one accept failure; after a few in a row, back off
    /// exponentially (1ms doubling to 64ms) instead of spinning on a
    /// hot error like EMFILE.
    fn note_error(&mut self) {
        self.consecutive_errors += 1;
        if self.consecutive_errors >= 3 {
            let shift = (self.consecutive_errors - 3).min(6);
            self.backoff_until = Some(Instant::now() + Duration::from_millis(1 << shift));
        }
    }
}

/// A response ready to be written back to its connection. It also
/// tells the mux that pool thread `thread` holds no request any more.
struct Completion {
    conn: u64,
    thread: usize,
    line: String,
    shutdown: bool,
}

/// Where request turns report back to the mux thread: a queue it
/// drains and the waker that rouses its `poll`.
#[derive(Clone)]
struct Reports {
    done: Arc<Mutex<Vec<Completion>>>,
    waker: Arc<Waker>,
}

impl Reports {
    fn push(&self, done: Completion) {
        lock_unpoisoned(&self.done).push(done);
        self.waker.wake();
    }
}

/// One request turn on pool thread `thread`. A panic anywhere in the
/// handler costs only this request: it answers `"ok":false` and ticks
/// `panics_caught` and `requests_failed`. The report itself cannot
/// panic, so the turn reports exactly once, the thread is freed and the
/// connection's next request is served.
fn turn(svc: &CheckService, reports: &Reports, conn: u64, thread: usize, line: &str) {
    let answer = catch_unwind(AssertUnwindSafe(|| {
        #[cfg(feature = "chaos")]
        crate::chaos::request_panic();
        let (response, shutdown) = respond_to_line(svc, line);
        #[cfg(feature = "chaos")]
        crate::chaos::stall();
        (response.to_line(), shutdown)
    }));
    let (line, shutdown) = answer.unwrap_or_else(|e| {
        svc.metrics().panic_caught();
        svc.metrics().request_failed();
        let message = format!("internal error: {}", panic_payload(&*e));
        (proto::encode_error(None, &message).to_line(), false)
    });
    reports.push(Completion {
        conn,
        thread,
        line,
        shutdown,
    });
}

/// What a poll-set slot refers to.
enum Tag {
    Waker,
    Listener(usize),
    Conn(u64),
}

/// The event-driven multiplexing server. Bind at least one transport,
/// then [`MuxServer::run`] the loop until a client sends `shutdown`.
pub struct MuxServer {
    svc: Arc<CheckService>,
    config: MuxConfig,
    listeners: Vec<Listener>,
    unix_path: Option<PathBuf>,
    tcp_addr: Option<SocketAddr>,
}

impl MuxServer {
    /// A server over `svc` with `config` tunables; bind transports next.
    pub fn new(svc: Arc<CheckService>, config: MuxConfig) -> Self {
        MuxServer {
            svc,
            config,
            listeners: Vec::new(),
            unix_path: None,
            tcp_addr: None,
        }
    }

    /// Bind a Unix socket at `path`, replacing any stale socket file.
    pub fn bind_unix(&mut self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref().to_path_buf();
        if path.exists() {
            std::fs::remove_file(&path)?;
        }
        let listener = UnixListener::bind(&path)?;
        listener.set_nonblocking(true)?;
        self.listeners.push(Listener {
            kind: ListenerKind::Unix(listener),
            consecutive_errors: 0,
            backoff_until: None,
        });
        self.unix_path = Some(path);
        Ok(())
    }

    /// Bind a TCP listener at `addr` (e.g. `127.0.0.1:7878`; port `0`
    /// picks a free port). Returns the resolved local address.
    pub fn bind_tcp(&mut self, addr: &str) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        self.listeners.push(Listener {
            kind: ListenerKind::Tcp(listener),
            consecutive_errors: 0,
            backoff_until: None,
        });
        self.tcp_addr = Some(local);
        Ok(local)
    }

    /// The bound Unix socket path, if one was bound.
    pub fn unix_path(&self) -> Option<&Path> {
        self.unix_path.as_deref()
    }

    /// The bound TCP address, if one was bound.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// Run the readiness loop until a client sends `shutdown` (ack
    /// flushed first), then drain in-flight work within
    /// [`SHUTDOWN_GRACE`] and unlink the Unix socket.
    pub fn run(self) -> io::Result<()> {
        if self.listeners.is_empty() {
            return Err(io::Error::other("mux server has no bound listeners"));
        }
        let svc = self.svc;
        let config = self.config;
        let reports = Reports {
            done: Arc::new(Mutex::new(Vec::new())),
            waker: Arc::new(Waker::new()?),
        };
        // Pool threads holding no request, the most recently freed last.
        let mut free: Vec<usize> = (0..svc.workers()).rev().collect();
        let mut listeners = self.listeners;
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_conn: u64 = 1;
        let mut rotation: usize = 0;
        let mut stopping = false;
        let mut shutdown_conn: Option<u64> = None;
        let max_line = svc.limits().max_request_bytes;

        loop {
            // Build this round's poll set: the waker always; listeners
            // unless stopping or backing off; connections per their
            // read/write appetite.
            let mut fds = vec![PollFd::new(reports.waker.fd(), POLLIN)];
            let mut tags = vec![Tag::Waker];
            let mut timeout = -1i32;
            if !stopping {
                let now = Instant::now();
                for (li, l) in listeners.iter_mut().enumerate() {
                    if let Some(until) = l.backoff_until {
                        if now < until {
                            let rem = (until - now).as_millis().max(1) as i32;
                            timeout = if timeout < 0 { rem } else { timeout.min(rem) };
                            continue; // sit out this round
                        }
                        l.backoff_until = None;
                    }
                    fds.push(PollFd::new(l.fd(), POLLIN));
                    tags.push(Tag::Listener(li));
                }
            }
            for (&id, conn) in conns.iter() {
                let mut events = 0i16;
                if !stopping && conn.wants_read(&config) {
                    events |= POLLIN;
                }
                if conn.wants_write() {
                    events |= POLLOUT;
                }
                if events != 0 {
                    fds.push(PollFd::new(conn.stream.fd(), events));
                    tags.push(Tag::Conn(id));
                }
            }
            poll::wait(&mut fds, timeout)?;
            reports.waker.drain();

            // Deliver completed responses into their write buffers.
            for c in lock_unpoisoned(&reports.done).drain(..) {
                free.push(c.thread);
                let Some(conn) = conns.get_mut(&c.conn) else {
                    continue; // connection died while its request ran
                };
                conn.executing = false;
                conn.push_response(&c.line);
                if c.shutdown {
                    conn.close_after_flush = true;
                    stopping = true;
                    shutdown_conn = Some(c.conn);
                }
            }

            // Accepts and per-connection IO, as readiness reported.
            for (fd, tag) in fds.iter().zip(&tags) {
                match tag {
                    Tag::Waker => {}
                    Tag::Listener(li) => {
                        if !fd.ready(POLLIN) || stopping {
                            continue;
                        }
                        loop {
                            match listeners[*li].accept() {
                                Ok(stream) => {
                                    listeners[*li].consecutive_errors = 0;
                                    conns.insert(next_conn, Conn::new(stream, max_line));
                                    next_conn += 1;
                                }
                                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                                Err(_) => {
                                    svc.metrics().accept_error();
                                    listeners[*li].note_error();
                                    break;
                                }
                            }
                        }
                    }
                    Tag::Conn(id) => {
                        let Some(conn) = conns.get_mut(id) else {
                            continue;
                        };
                        if fd.ready(POLLOUT) {
                            conn.flush();
                        }
                        if fd.ready(POLLIN) && !stopping {
                            conn.fill(&config);
                        }
                    }
                }
            }

            // Dispatch: rotate over connections so no client gets
            // systematic priority, each holding at most one thread and
            // none while its responses are backed up.
            let mut ids: Vec<u64> = conns.keys().copied().collect();
            ids.sort_unstable();
            if !ids.is_empty() {
                let offset = rotation % ids.len();
                ids.rotate_left(offset);
                rotation = rotation.wrapping_add(1);
            }
            for id in ids {
                let conn = conns.get_mut(&id).expect("listed above");
                // Alternate dispatch and flush to a fixpoint: a flush
                // can drop the backlog below the dispatch gate, so a
                // single pass could end the round with queued requests,
                // no thread taken, and no event to wake on —
                // a self-deadlock. The opportunistic flush also saves a
                // poll round of latency on every fresh response.
                loop {
                    let before = (conn.pending.len(), conn.backlog());
                    if !stopping {
                        dispatch(id, conn, &config, &svc, &reports, &mut free);
                    }
                    if conn.wants_write() {
                        conn.flush();
                    }
                    if (conn.pending.len(), conn.backlog()) == before {
                        break;
                    }
                }
            }

            conns.retain(|_, c| !c.finished());

            if stopping {
                let ack_delivered = shutdown_conn
                    .map(|id| !conns.contains_key(&id))
                    .unwrap_or(true);
                if ack_delivered {
                    break;
                }
            }
        }

        // The pool finishes the requests and checks it holds, within a
        // bound, so a wedged unit cannot hold the exit.
        svc.drain(SHUTDOWN_GRACE);
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

/// Pop this connection's next requests: over-long lines answer inline
/// (order is safe — nothing pops while a request executes), blank lines
/// vanish, and the first real request goes to the most recently freed
/// pool thread, or waits for one.
fn dispatch(
    id: u64,
    conn: &mut Conn,
    config: &MuxConfig,
    svc: &Arc<CheckService>,
    reports: &Reports,
    free: &mut Vec<usize>,
) {
    while !conn.executing
        && !conn.dead
        && !conn.close_after_flush
        && conn.backlog() < config.max_write_buffer
    {
        let Some(framed) = conn.pending.pop_front() else {
            break;
        };
        match framed {
            Framed::TooLong(n) => conn.push_response(&too_long_reply(svc, n).to_line()),
            Framed::Request(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                let Some(thread) = free.pop() else {
                    // Every thread holds a request: a completion wakes
                    // the loop, and the request is dispatched then.
                    conn.pending.push_front(Framed::Request(line));
                    break;
                };
                let (turn_svc, turn_reports) = (Arc::clone(svc), reports.clone());
                let request = move || turn(&turn_svc, &turn_reports, id, thread, &line);
                match svc.pool().hand(thread, request) {
                    Ok(()) => conn.executing = true,
                    Err(e) => {
                        // The pool is shutting down: answer, don't drop.
                        free.push(thread);
                        svc.metrics().request_failed();
                        let message = format!("request not run: {e}");
                        conn.push_response(&proto::encode_error(None, &message).to_line());
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::service::ServiceConfig;

    fn drainq(a: &mut LineAssembler, bytes: &[u8]) -> Vec<String> {
        let mut out = VecDeque::new();
        a.feed(bytes, &mut out);
        out.iter()
            .map(|f| match f {
                Framed::Request(s) => format!("ok:{s}"),
                Framed::TooLong(n) => format!("long:{n}"),
            })
            .collect()
    }

    #[test]
    fn assembler_frames_split_lines_and_trims_crlf() {
        let mut a = LineAssembler::new(64);
        assert!(drainq(&mut a, b"{\"op\":").is_empty());
        assert_eq!(
            drainq(&mut a, b"\"status\"}\r\nnext"),
            vec!["ok:{\"op\":\"status\"}"]
        );
        assert_eq!(drainq(&mut a, b"\n"), vec!["ok:next"]);
        assert!(a.finish().is_none());
    }

    #[test]
    fn assembler_bound_matches_the_blocking_reader() {
        // Content of exactly `max` bytes is fine; one more is skipped.
        let mut a = LineAssembler::new(8);
        assert_eq!(drainq(&mut a, b"12345678\n"), vec!["ok:12345678"]);
        assert_eq!(drainq(&mut a, b"123456789\n"), vec!["long:10"]);
        // The over-long line is *skipped*: framing stays intact.
        assert_eq!(
            drainq(&mut a, b"xxxxxxxxxxxxxxxxxx\nok\n"),
            vec!["long:19", "ok:ok"]
        );
    }

    #[test]
    fn assembler_overflow_spanning_chunks_counts_all_bytes() {
        let mut a = LineAssembler::new(4);
        assert!(drainq(&mut a, b"aaaaaa").is_empty());
        assert!(drainq(&mut a, b"bbbbbb").is_empty());
        assert_eq!(drainq(&mut a, b"\n"), vec!["long:13"]);
        // And a partial overflow at EOF still reports.
        let mut b = LineAssembler::new(4);
        assert!(drainq(&mut b, b"cccccccc").is_empty());
        assert!(matches!(b.finish(), Some(Framed::TooLong(8))));
    }

    #[test]
    fn assembler_serves_an_unterminated_tail_at_eof() {
        let mut a = LineAssembler::new(64);
        assert!(drainq(&mut a, b"{\"op\":\"status\"}").is_empty());
        match a.finish() {
            Some(Framed::Request(s)) => assert_eq!(s, "{\"op\":\"status\"}"),
            other => panic!(
                "expected the tail line, got {:?}",
                other.map(|f| matches!(f, Framed::TooLong(_)))
            ),
        }
    }

    #[test]
    fn mux_round_trips_and_shuts_down_over_unix() {
        use std::io::{BufRead, BufReader};
        let svc = Arc::new(CheckService::new(ServiceConfig {
            jobs: 2,
            cache_capacity: 16,
            ..Default::default()
        }));
        let path = std::env::temp_dir().join(format!("vault-mux-unit-{}.sock", std::process::id()));
        let mut mux = MuxServer::new(svc, MuxConfig::default());
        mux.bind_unix(&path).unwrap();
        let server = std::thread::spawn(move || mux.run());
        let stream = UnixStream::connect(&path).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut w = &stream;
        w.write_all(b"{\"op\":\"status\",\"id\":1}\n{\"op\":\"shutdown\",\"id\":2}\n")
            .unwrap();
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        let v = crate::json::parse(status.trim_end()).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(1));
        let mut ack = String::new();
        reader.read_line(&mut ack).unwrap();
        let v = crate::json::parse(ack.trim_end()).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("shutdown"));
        server.join().unwrap().unwrap();
        assert!(!path.exists(), "socket must be unlinked after shutdown");
    }

    #[test]
    fn mux_requires_a_listener() {
        let svc = Arc::new(CheckService::new(ServiceConfig {
            jobs: 1,
            cache_capacity: 4,
            ..Default::default()
        }));
        let mux = MuxServer::new(svc, MuxConfig::default());
        assert!(mux.run().is_err());
    }
}
