//! Fault injection for torture-testing the daemon.
//!
//! Compiled only under the `chaos` feature and armed only by an explicit
//! [`arm`] call, so production builds carry none of this. Once armed,
//! three fault families fire with configured probabilities from one
//! seeded SplitMix64 stream (deterministic per seed):
//!
//! * **Injected panics** inside check jobs ([`perturb_job`]) — exercises
//!   the `catch_unwind` containment and worker respawn paths; the unit
//!   must come back as an `internal-error` verdict, never a dead worker.
//! * **Injected delays** inside check jobs — long enough to blow any
//!   configured deadline, exercising the `resource-limit` path.
//! * **Short writes** on the response stream ([`ChaosWriter`]) — the
//!   writer accepts only a few bytes per call, exercising every caller's
//!   `write_all` looping; framing must survive byte-at-a-time output.
//!
//! The injected panic carries the fixed payload [`PANIC_PAYLOAD`] so
//! tests (and operators reading diagnostics) can tell an injected fault
//! from a genuine checker bug.
//!
//! Armed or not, the feature also keeps a high-water mark of unit checks
//! running at once ([`check_running`], [`take_checks_peak`]), so a test
//! can hold the daemon to its `--jobs` bound while delays stretch every
//! check.

use rand::{rngs::StdRng, Rng, SeedableRng};
use std::io::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Payload of every chaos-injected panic; shows up verbatim in the
/// `internal-error` diagnostic of the unit it hit.
pub const PANIC_PAYLOAD: &str = "chaos: injected panic";

/// Which faults fire, and how often.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Seed for the fault stream (same seed, same faults).
    pub seed: u64,
    /// Probability a check job panics.
    pub panic_prob: f64,
    /// Probability a check job sleeps for [`ChaosConfig::delay`] first.
    pub delay_prob: f64,
    /// How long a delayed job sleeps.
    pub delay: Duration,
    /// When set, [`ChaosWriter`] accepts at most this many bytes per
    /// `write` call.
    pub short_write_chunk: Option<usize>,
    /// Probability a verdict-store fault point fires ([`persist_fault`]).
    /// Zero (the default) draws nothing from the RNG, so arming chaos
    /// without persistence faults leaves the existing seeded fault
    /// streams byte-identical.
    pub persist_fault_prob: f64,
    /// When set, only the named fault point (e.g. `"append.write"`,
    /// `"compact.unlink"`) may fire; every other point is inert. Lets
    /// a test crash the store at one exact place, deterministically.
    pub persist_fault_only: Option<&'static str>,
    /// Probability an accepted connection is dropped on the floor
    /// ([`accept_fault`]) — the client sees an immediate hangup and
    /// must retry. Zero (the default) draws nothing from the RNG, so
    /// older seeded fault streams stay byte-identical.
    pub accept_fail_prob: f64,
    /// Probability a connection dies mid-response flush
    /// ([`disconnect_fault`]): a torn prefix is delivered, then the
    /// socket closes. Zero (the default) draws nothing.
    pub disconnect_prob: f64,
    /// Probability a request handler stalls for [`ChaosConfig::stall`]
    /// after computing its response ([`stall`]) — a slow request the
    /// multiplexer must not let wedge other connections. Zero (the
    /// default) draws nothing.
    pub stall_prob: f64,
    /// How long a stalled handler sleeps.
    pub stall: Duration,
    /// Probability a request handler panics before it starts
    /// ([`request_panic`]) — a fault outside every check job's own
    /// containment, which the thread running the request must catch.
    /// Zero (the default) draws nothing.
    pub request_panic_prob: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0xC4A0_5EED,
            panic_prob: 0.05,
            delay_prob: 0.05,
            delay: Duration::from_millis(5),
            short_write_chunk: Some(7),
            persist_fault_prob: 0.0,
            persist_fault_only: None,
            accept_fail_prob: 0.0,
            disconnect_prob: 0.0,
            stall_prob: 0.0,
            stall: Duration::from_millis(10),
            request_panic_prob: 0.0,
        }
    }
}

/// Draw one connection-level fault decision with probability `prob`.
/// Probability zero short-circuits before touching the RNG (same
/// contract as [`persist_fault`]): arming chaos without connection
/// faults leaves existing seeded streams byte-identical.
fn connection_fault(pick: impl FnOnce(&ChaosConfig) -> f64) -> bool {
    let mut guard = state();
    let Some((cfg, rng)) = guard.as_mut() else {
        return false;
    };
    let prob = pick(cfg);
    if prob <= 0.0 {
        return false;
    }
    rng.gen_bool(prob)
}

/// Called after each `accept`: `true` means drop the fresh connection
/// (the client sees an immediate hangup and must retry). Counted as an
/// `accept_errors` metric by the servers.
pub fn accept_fault() -> bool {
    connection_fault(|cfg| cfg.accept_fail_prob)
}

/// Called before a response flush: `true` means deliver a torn prefix
/// and kill the connection mid-response.
pub fn disconnect_fault() -> bool {
    connection_fault(|cfg| cfg.disconnect_prob)
}

/// Called after a request handler computes its response: sleeps for the
/// configured stall, if one fires. A stalled request must slow only
/// its own connection.
pub fn stall() {
    let delay = {
        let mut guard = state();
        match guard.as_mut() {
            Some((cfg, rng)) if cfg.stall_prob > 0.0 => {
                rng.gen_bool(cfg.stall_prob).then_some(cfg.stall)
            }
            _ => None,
        }
    };
    if let Some(d) = delay {
        std::thread::sleep(d);
    }
}

/// Called by a pool thread before it handles a request: panics with
/// [`PANIC_PAYLOAD`] if a request-level fault fires. The draw happens
/// under the state lock, the panic after it is released.
pub fn request_panic() {
    if connection_fault(|cfg| cfg.request_panic_prob) {
        panic!("{}", PANIC_PAYLOAD);
    }
}

/// What a verdict-store fault point does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PersistFault {
    /// The operation fails cleanly before touching the file.
    Error,
    /// A torn write: part of the data lands on disk, then the
    /// operation dies — the on-disk image a crash mid-write leaves.
    ShortWrite,
}

/// Called at every verdict-store fault point: `append.write` and
/// `append.sync` in the one frame writer (so they fire for appends and
/// for compaction's copies alike), `seal`, and `compact.unlink` between
/// a compaction copy's fsync and the delete of its segment. Returns the
/// fault to inject, if any. Draws from
/// the shared seeded stream only when
/// [`ChaosConfig::persist_fault_prob`] is nonzero.
pub fn persist_fault(point: &str) -> Option<PersistFault> {
    let mut guard = state();
    let (cfg, rng) = guard.as_mut()?;
    if cfg.persist_fault_prob <= 0.0 {
        return None;
    }
    if let Some(only) = cfg.persist_fault_only {
        if only != point {
            return None;
        }
    }
    if !rng.gen_bool(cfg.persist_fault_prob) {
        return None;
    }
    Some(if rng.gen_bool(0.5) {
        PersistFault::ShortWrite
    } else {
        PersistFault::Error
    })
}

static STATE: Mutex<Option<(ChaosConfig, StdRng)>> = Mutex::new(None);

/// The chaos state is trivially re-armable, so a panic mid-draw (which
/// cannot happen — draws don't panic — but poisoning is contagious from
/// the injected panics themselves if a guard were held) must not wedge it.
fn state() -> MutexGuard<'static, Option<(ChaosConfig, StdRng)>> {
    crate::pool::lock_unpoisoned(&STATE)
}

/// Start injecting faults process-wide.
pub fn arm(cfg: ChaosConfig) {
    *state() = Some((cfg, StdRng::seed_from_u64(cfg.seed)));
}

/// Stop injecting faults.
pub fn disarm() {
    *state() = None;
}

/// Whether [`arm`] is in effect.
pub fn armed() -> bool {
    state().is_some()
}

enum Fault {
    None,
    Panic,
    Delay(Duration),
}

/// Called at the top of every check job. Draws the fault decision under
/// the lock but acts after releasing it, so an injected panic never
/// poisons the chaos state.
pub fn perturb_job() {
    let fault = {
        let mut guard = state();
        match guard.as_mut() {
            None => Fault::None,
            Some((cfg, rng)) => {
                if rng.gen_bool(cfg.panic_prob) {
                    Fault::Panic
                } else if rng.gen_bool(cfg.delay_prob) {
                    Fault::Delay(cfg.delay)
                } else {
                    Fault::None
                }
            }
        }
    };
    match fault {
        Fault::None => {}
        Fault::Panic => panic!("{}", PANIC_PAYLOAD),
        Fault::Delay(d) => std::thread::sleep(d),
    }
}

static CHECKS_RUNNING: AtomicUsize = AtomicUsize::new(0);
static CHECKS_PEAK: AtomicUsize = AtomicUsize::new(0);

/// Counts one unit check as running until dropped.
pub struct CheckRunning(());

impl Drop for CheckRunning {
    fn drop(&mut self) {
        CHECKS_RUNNING.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Called at the top of every unit check job, pooled or inline.
pub fn check_running() -> CheckRunning {
    let now = CHECKS_RUNNING.fetch_add(1, Ordering::SeqCst) + 1;
    CHECKS_PEAK.fetch_max(now, Ordering::SeqCst);
    CheckRunning(())
}

/// The most unit checks that ran at once since the previous call, which
/// restarts the mark from the checks running now.
pub fn take_checks_peak() -> usize {
    CHECKS_PEAK.swap(CHECKS_RUNNING.load(Ordering::SeqCst), Ordering::SeqCst)
}

/// Current short-write chunk, if armed with one. Public so the
/// multiplexer's nonblocking flush path can cap its writes the same way
/// [`ChaosWriter`] caps blocking ones.
pub fn short_write_chunk() -> Option<usize> {
    state().as_ref().and_then(|(cfg, _)| cfg.short_write_chunk)
}

/// A writer that, while chaos is armed with a `short_write_chunk`,
/// accepts at most that many bytes per `write` call. Transparent
/// pass-through otherwise.
#[derive(Debug)]
pub struct ChaosWriter<W: Write> {
    inner: W,
}

impl<W: Write> ChaosWriter<W> {
    /// Wrap `inner`.
    pub fn new(inner: W) -> Self {
        ChaosWriter { inner }
    }
}

impl<W: Write> Write for ChaosWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match short_write_chunk() {
            Some(chunk) if chunk > 0 && buf.len() > chunk => self.inner.write(&buf[..chunk]),
            _ => self.inner.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that arm chaos or assume it disarmed: the
    /// fault state is process-wide, and the test harness runs tests on
    /// parallel threads. The integration suite holds its own lock.
    fn test_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        match LOCK.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[test]
    fn disarmed_chaos_is_inert() {
        let _serial = test_lock();
        disarm();
        assert!(!armed());
        perturb_job(); // must not panic
        let mut out = Vec::new();
        let mut w = ChaosWriter::new(&mut out);
        assert_eq!(w.write(b"hello world").unwrap(), 11);
    }

    #[test]
    fn short_writes_still_deliver_every_byte_through_write_all() {
        let _serial = test_lock();
        arm(ChaosConfig {
            panic_prob: 0.0,
            delay_prob: 0.0,
            short_write_chunk: Some(3),
            ..Default::default()
        });
        let mut out = Vec::new();
        let mut w = ChaosWriter::new(&mut out);
        assert_eq!(w.write(b"hello world").unwrap(), 3);
        w.write_all(b"hello world").unwrap();
        disarm();
        assert!(out.ends_with(b"hello world"));
    }
}
