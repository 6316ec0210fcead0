//! Client load generators: closed and open loop over the Unix socket.

use crate::daemon::CpuClock;
use crate::stream::{Load, Request, Workload};
use std::collections::VecDeque;
use std::ffi::c_void;
use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// How long an open-loop run waits for its last replies.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// How long an open-loop client backs off when the socket's send buffer
/// is full.
const WRITE_RETRY: Duration = Duration::from_micros(100);

/// What happened to one sent request.
pub struct Outcome {
    /// Connection (stream) index.
    pub conn: usize,
    /// Position in its stream; also the request id on the wire.
    pub index: usize,
    /// When the latency clock started, since the run's origin.
    pub sent: Duration,
    /// Closed loop: from the write to the full reply line. Open loop:
    /// from the scheduled send time to the full reply line.
    pub latency: Duration,
    /// The server's CPU time once the reply was in. In a closed loop
    /// the difference to the previous reply on the connection is the
    /// CPU the server spent on this request.
    pub server_cpu: Duration,
    /// The reply carried this request's id and `"ok":true`.
    pub ok: bool,
    /// The reply line, kept when the caller asked for it.
    pub reply: Option<String>,
}

/// The result of driving a workload.
pub struct Run {
    /// One entry per reply received.
    pub outcomes: Vec<Outcome>,
    /// Requests sent (closed loop) or scheduled (open loop).
    pub attempted: usize,
    /// From the start of the run until the last connection finished.
    pub elapsed: Duration,
    /// Open loop: how late each request was sent versus its schedule.
    pub gen_lag: Vec<Duration>,
}

/// Drive every request of `w` against the daemon on `socket`, whose
/// CPU time `server` reads, timing from `origin`. `keep(conn, index)`
/// selects the replies whose full text is kept for checking. A closed
/// loop sends nothing once `deadline` has passed since `origin`; an open
/// loop keeps its schedule.
pub fn drive(
    socket: &Path,
    server: CpuClock,
    w: &Workload,
    keep: &(dyn Fn(usize, usize) -> bool + Sync),
    origin: Instant,
    deadline: Duration,
) -> io::Result<Run> {
    let streams: Vec<&[Request]> = w.streams.iter().map(Vec::as_slice).collect();
    match w.load {
        Load::Closed => closed_loop(socket, server, &streams, keep, origin, deadline),
        Load::Open { .. } => open_loop(socket, server, &streams, &w.schedule, keep, origin),
    }
}

struct ConnRun {
    outcomes: Vec<Outcome>,
    attempted: usize,
    gen_lag: Vec<Duration>,
    finished: Duration,
}

fn connect(socket: &Path) -> io::Result<(UnixStream, BufReader<UnixStream>)> {
    let stream = UnixStream::connect(socket)?;
    stream.set_write_timeout(Some(Duration::from_secs(60)))?;
    let reader = BufReader::with_capacity(1 << 16, stream.try_clone()?);
    Ok((stream, reader))
}

fn gather(runs: Vec<io::Result<ConnRun>>) -> io::Result<Run> {
    let mut run = Run {
        outcomes: Vec::new(),
        attempted: 0,
        elapsed: Duration::ZERO,
        gen_lag: Vec::new(),
    };
    for r in runs {
        let r = r?;
        run.outcomes.extend(r.outcomes);
        run.attempted += r.attempted;
        run.gen_lag.extend(r.gen_lag);
        run.elapsed = run.elapsed.max(r.finished);
    }
    Ok(run)
}

/// Each connection sends its next request once the previous reply is
/// in, until the end of its stream or until `deadline` has passed since
/// `origin`.
pub fn closed_loop(
    socket: &Path,
    server: CpuClock,
    streams: &[&[Request]],
    keep: &(dyn Fn(usize, usize) -> bool + Sync),
    origin: Instant,
    deadline: Duration,
) -> io::Result<Run> {
    let barrier = Barrier::new(streams.len());
    let runs = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(conn, stream)| {
                let barrier = &barrier;
                s.spawn(move || -> io::Result<ConnRun> {
                    let (mut writer, mut reader) = connect(socket)?;
                    let mut buf = Vec::with_capacity(1 << 20);
                    let mut reply = String::new();
                    let mut run = ConnRun {
                        outcomes: Vec::with_capacity(stream.len()),
                        attempted: 0,
                        gen_lag: Vec::new(),
                        finished: Duration::ZERO,
                    };
                    barrier.wait();
                    for (index, req) in stream.iter().enumerate() {
                        if origin.elapsed() >= deadline {
                            break;
                        }
                        buf.clear();
                        req.write_line(index as u64, &mut buf);
                        reply.clear();
                        let sent = origin.elapsed();
                        writer.write_all(&buf)?;
                        run.attempted += 1;
                        if reader.read_line(&mut reply)? == 0 {
                            return Err(io::Error::new(ErrorKind::UnexpectedEof, "vaultd hung up"));
                        }
                        let latency = origin.elapsed() - sent;
                        let server_cpu = server.read()?;
                        let ok = reply.starts_with(&req.ok_prefix(index as u64));
                        run.outcomes.push(Outcome {
                            conn,
                            index,
                            sent,
                            latency,
                            server_cpu,
                            ok,
                            reply: keep(conn, index).then(|| reply.trim_end().to_string()),
                        });
                    }
                    run.finished = origin.elapsed();
                    Ok(run)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    gather(runs)
}

/// Write all of `buf` to a nonblocking socket.
fn write_nonblocking(mut stream: &UnixStream, mut buf: &[u8]) -> io::Result<()> {
    let started = Instant::now();
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    ErrorKind::WriteZero,
                    "vaultd stopped reading",
                ))
            }
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock && started.elapsed() < DRAIN_TIMEOUT => {
                std::thread::sleep(WRITE_RETRY)
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Wait until `fd` is readable or `timeout` has passed. `ppoll(2)`
/// takes a nanosecond timeout; socket receive timeouts tick in kernel
/// jiffies, too coarse for an arrival schedule.
fn wait_readable(fd: RawFd, timeout: Duration) -> io::Result<()> {
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> i32;
    }
    const POLLIN: i16 = 0x1;
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pfd` and `ts` are live, `repr(C)` values laid out as
    // Linux's `struct pollfd` and `struct timespec` on 64-bit targets;
    // `nfds` is 1, matching the one descriptor passed; a null signal
    // mask leaves the thread's mask unchanged.
    if unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) } < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

/// Each connection sends its requests at their scheduled offsets,
/// whether or not earlier replies are in, and reads replies as they
/// come. One thread per connection sleeps in [`wait_readable`] until a
/// reply arrives or the next send is due.
pub fn open_loop(
    socket: &Path,
    server: CpuClock,
    streams: &[&[Request]],
    schedule: &[Vec<Duration>],
    keep: &(dyn Fn(usize, usize) -> bool + Sync),
    origin: Instant,
) -> io::Result<Run> {
    let barrier = Barrier::new(streams.len());
    let runs = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .zip(schedule)
            .enumerate()
            .map(|(conn, (stream, due))| {
                let barrier = &barrier;
                s.spawn(move || -> io::Result<ConnRun> {
                    let (writer, mut reader) = connect(socket)?;
                    writer.set_nonblocking(true)?;
                    let mut buf = Vec::with_capacity(1 << 16);
                    let mut partial: Vec<u8> = Vec::new();
                    // Sent and unanswered, oldest first: the daemon
                    // answers one connection's requests in order.
                    let mut waiting: VecDeque<usize> = VecDeque::new();
                    let mut run = ConnRun {
                        outcomes: Vec::with_capacity(stream.len()),
                        attempted: stream.len(),
                        gen_lag: Vec::with_capacity(stream.len()),
                        finished: Duration::ZERO,
                    };
                    let give_up = due.last().copied().unwrap_or_default() + DRAIN_TIMEOUT;
                    barrier.wait();
                    let mut next = 0usize;
                    loop {
                        let now = origin.elapsed();
                        if next < stream.len() && due[next] <= now {
                            buf.clear();
                            stream[next].write_line(next as u64, &mut buf);
                            run.gen_lag.push(now - due[next]);
                            write_nonblocking(&writer, &buf)?;
                            waiting.push_back(next);
                            next += 1;
                            continue;
                        }
                        loop {
                            match reader.read_until(b'\n', &mut partial) {
                                Ok(0) => {
                                    return Err(io::Error::new(
                                        ErrorKind::UnexpectedEof,
                                        "vaultd hung up",
                                    ))
                                }
                                Ok(_) if partial.ends_with(b"\n") => {
                                    let at = origin.elapsed();
                                    let index = waiting.pop_front().ok_or_else(|| {
                                        io::Error::other("reply to a request never sent")
                                    })?;
                                    let line = String::from_utf8_lossy(&partial);
                                    run.outcomes.push(Outcome {
                                        conn,
                                        index,
                                        sent: due[index],
                                        latency: at - due[index],
                                        server_cpu: server.read()?,
                                        ok: line
                                            .starts_with(&stream[index].ok_prefix(index as u64)),
                                        reply: keep(conn, index)
                                            .then(|| line.trim_end().to_string()),
                                    });
                                    partial.clear();
                                }
                                Ok(_) => {}
                                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                                Err(e) => return Err(e),
                            }
                        }
                        if (next == stream.len() && waiting.is_empty()) || now > give_up {
                            break;
                        }
                        let wait = match due.get(next) {
                            Some(&d) => d.saturating_sub(origin.elapsed()),
                            None => Duration::from_millis(100),
                        };
                        wait_readable(writer.as_raw_fd(), wait)?;
                    }
                    run.finished = origin.elapsed();
                    Ok(run)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    gather(runs)
}
