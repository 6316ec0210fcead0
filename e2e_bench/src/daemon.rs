//! A `vaultd` child process: boot, status, resource usage, shutdown.

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use vault_server::Json;

/// How long a boot (including warm-store replay) may take.
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);

/// How `vaultd` is started for a workload.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// `--cache N`, when the workload sets it.
    pub cache_capacity: Option<usize>,
    /// `--cache-dir`: every workload journals verdicts.
    pub cache_dir: PathBuf,
    /// `--cache-max-bytes`, when the workload bounds the store.
    pub cache_max_bytes: Option<u64>,
}

/// Checker workers, as `vaultd --jobs 2`: the host has two cores.
const JOBS: usize = 2;

impl DaemonConfig {
    /// The `vaultd` command-line arguments serving on `socket`.
    pub fn args(&self, socket: &Path) -> Vec<String> {
        let mut args = vec![
            "--socket".to_string(),
            socket.display().to_string(),
            "--jobs".to_string(),
            JOBS.to_string(),
            "--cache-dir".to_string(),
            self.cache_dir.display().to_string(),
        ];
        if let Some(n) = self.cache_capacity {
            args.extend(["--cache".to_string(), n.to_string()]);
        }
        if let Some(n) = self.cache_max_bytes {
            args.extend(["--cache-max-bytes".to_string(), n.to_string()]);
        }
        args
    }

    /// The in-process [`vault_server::ServiceConfig`] equivalent to
    /// [`Self::args`].
    pub fn service_config(&self) -> vault_server::ServiceConfig {
        let mut cfg = vault_server::ServiceConfig {
            jobs: JOBS,
            cache_dir: Some(self.cache_dir.clone()),
            cache_max_bytes: self.cache_max_bytes,
            ..Default::default()
        };
        if let Some(n) = self.cache_capacity {
            cfg.cache_capacity = n;
        }
        cfg
    }
}

/// A running `vaultd`. Dropping it kills the process if it is still up.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
    /// From spawn to the first `status` reply.
    pub boot: Duration,
}

impl Daemon {
    /// Spawn `exe` serving `socket`, and wait until it answers `status`.
    /// The child is killed if the calling thread dies first, so a
    /// benchmark stopped by a signal leaves no daemon behind.
    pub fn spawn(exe: &Path, socket: &Path, config: &DaemonConfig) -> io::Result<Daemon> {
        extern "C" {
            fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
        }
        const PR_SET_PDEATHSIG: i32 = 1;
        const SIGKILL: u64 = 9;
        let _ = std::fs::remove_file(socket);
        let started = Instant::now();
        let mut command = Command::new(exe);
        command
            .args(config.args(socket))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        // SAFETY: runs in the forked child before exec; `prctl` is a
        // plain system call and touches no memory of the parent.
        unsafe {
            command.pre_exec(|| {
                if prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0) == 0 {
                    Ok(())
                } else {
                    Err(io::Error::last_os_error())
                }
            });
        }
        let child = command.spawn().map_err(|e| {
            io::Error::new(e.kind(), format!("cannot start {}: {e}", exe.display()))
        })?;
        let mut daemon = Daemon {
            child,
            socket: socket.to_path_buf(),
            boot: Duration::ZERO,
        };
        loop {
            if let Ok(stream) = UnixStream::connect(socket) {
                roundtrip(stream, "{\"op\":\"status\"}")?;
                daemon.boot = started.elapsed();
                return Ok(daemon);
            }
            if let Some(status) = daemon.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "vaultd exited during boot: {status}"
                )));
            }
            if started.elapsed() > BOOT_TIMEOUT {
                return Err(io::Error::other(
                    "vaultd did not answer within the boot timeout",
                ));
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The socket it serves.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Ask the daemon to exit and wait until it has.
    pub fn shutdown(mut self) -> io::Result<()> {
        request_shutdown(&self.socket)?;
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("vaultd exited with {status}")))
                };
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err(io::Error::other("vaultd did not exit after shutdown"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Copy the verdict store in `from` (a flat directory of files; absent
/// for a workload without one) into a new directory `to`.
pub fn copy_store(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    if from.is_dir() {
        for entry in std::fs::read_dir(from)? {
            let entry = entry?;
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// One `status` reply from the server on `socket`.
pub fn status(socket: &Path) -> io::Result<Json> {
    roundtrip(UnixStream::connect(socket)?, "{\"op\":\"status\"}")
}

/// Ask the server on `socket` to shut down.
pub fn request_shutdown(socket: &Path) -> io::Result<()> {
    roundtrip(UnixStream::connect(socket)?, "{\"op\":\"shutdown\"}").map(drop)
}

fn roundtrip(stream: UnixStream, line: &str) -> io::Result<Json> {
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    (&stream).write_all(format!("{line}\n").as_bytes())?;
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply)?;
    vault_server::parse_json(reply.trim_end())
        .map_err(|e| io::Error::other(format!("bad reply to {line}: {e}")))
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB, from
/// `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other(format!("no VmHWM for process {pid}")))
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_getcpuclockid(pid: i32, clock_id: *mut i32) -> i32;
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// The CPU-time clock of a process: the user and system time of all its
/// threads, to the nanosecond. Reading it is one system call, cheap
/// enough to take after every reply.
#[derive(Clone, Copy, Debug)]
pub struct CpuClock(i32);

impl CpuClock {
    /// The clock of process `pid`.
    pub fn of(pid: u32) -> io::Result<CpuClock> {
        let pid = i32::try_from(pid).map_err(io::Error::other)?;
        let mut id = 0i32;
        // SAFETY: `id` is a live `i32` the call writes the clock id to.
        let rc = unsafe { clock_getcpuclockid(pid, &mut id) };
        if rc != 0 {
            // Returns the error number rather than setting `errno`.
            return Err(io::Error::from_raw_os_error(rc));
        }
        Ok(CpuClock(id))
    }

    /// The CPU time the process has used so far.
    pub fn read(self) -> io::Result<Duration> {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, `repr(C)` value laid out as Linux's
        // `struct timespec` on 64-bit targets; the call only writes it.
        if unsafe { clock_gettime(self.0, &mut ts) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
    }
}
