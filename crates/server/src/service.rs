//! The checking service: pool + cache + metrics behind one façade.
//!
//! [`CheckService`] is the engine `vaultd` (and `vaultc check --jobs`)
//! runs on. It fans batches of compilation units across the pool,
//! memoizes per-unit verdicts under a content-hash key, and keeps the
//! counters the `status` request reports. It is `Send + Sync`; the
//! multiplexer runs every request on one of the pool's own threads, so
//! all clients see one cache and one set of counters.
//!
//! Per content key the service keeps one fact, in one table under one
//! lock: the verdict is known, or a check computing it is in flight. A
//! request sorts its units in one locked pass into hits, joins of a
//! flight (another request's, or an earlier unit's of this request) and
//! new flights it leads; waits once for every flight it leads or
//! joined; and stores its fresh verdicts and retires its flights in one
//! closing critical section, so a late arrival for the same key either
//! joins the flight or finds the verdict.
//!
//! The calling thread checks a request's last miss itself (caller-runs)
//! and queues the others; while it waits for them, or for another
//! request's in-flight unit, it runs queued checks instead of sleeping
//! (`ThreadPool::help_until`). A unit is the only grain of parallel
//! work: the incremental engine checks a unit's functions in order on
//! the thread that runs the unit. A one-unit request runs start to
//! finish on the thread that received it and touches no pool queue. In
//! `vaultd` that thread is a pool thread, so at most `jobs` checks run
//! at once.

use crate::cache::{unit_fingerprint, LruCache};
use crate::incremental::IncrementalEngine;
use crate::journal::{Journal, Pending};
use crate::metrics::{Metrics, StatusSnapshot};
use crate::persist::{StoreConfig, StoreHealth, VerdictStore};
use crate::pool::{lock_unpoisoned as lock, panic_payload, ThreadPool, UnitIn};
use crate::proto::UnitReport;
use crate::singleflight::{shareable, InFlight, LeaderGuard};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use vault_core::{check_source_with_limits, CheckSummary, Limits, Verdict};
use vault_project::{ProjectPlan, ProjectUnit, UnitPlan};

/// Resource bounds on what one request may cost the daemon.
///
/// Defaults are generous for legitimate traffic; their purpose is
/// keeping one hostile or pathological client from starving everyone
/// else. Exceeding a per-unit bound yields a `resource-limit` verdict;
/// exceeding a per-request bound yields a structured error reply.
#[derive(Clone, Copy, Debug)]
pub struct ServiceLimits {
    /// Largest accepted request line, in bytes.
    pub max_request_bytes: usize,
    /// Most units one `check` request may carry.
    pub max_units_per_batch: usize,
    /// Wall-clock budget for checking one unit, if any.
    pub timeout: Option<Duration>,
    /// Parser recursion bound (see [`vault_syntax::DEFAULT_PARSER_DEPTH`]).
    pub parser_depth: usize,
    /// Loop-invariant fixpoint fuel per loop.
    pub fixpoint_iters: usize,
}

impl Default for ServiceLimits {
    fn default() -> Self {
        let d = Limits::default();
        ServiceLimits {
            max_request_bytes: 8 * 1024 * 1024,
            max_units_per_batch: 1024,
            timeout: None,
            parser_depth: d.parser_depth,
            fixpoint_iters: d.fixpoint_iters,
        }
    }
}

impl ServiceLimits {
    /// The per-unit checker bounds, with the deadline anchored at `now`.
    pub fn checker_limits(&self, now: Instant) -> Limits {
        Limits {
            parser_depth: self.parser_depth,
            fixpoint_iters: self.fixpoint_iters,
            deadline: self.timeout.map(|t| now + t),
        }
    }
}

/// Tunables for a [`CheckService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads in the checking pool (min 1).
    pub jobs: usize,
    /// Maximum memoized verdicts (min 1).
    pub cache_capacity: usize,
    /// Resource bounds per request/unit.
    pub limits: ServiceLimits,
    /// Directory for the persistent warm-start cache (`--cache-dir`).
    /// `None` keeps all memoization in memory, as before.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Total on-disk bound for the verdict store (`--cache-max-bytes`).
    /// Background maintenance evicts oldest segments first and compacts
    /// the rest until the store fits. `None` leaves it unbounded.
    pub cache_max_bytes: Option<u64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            jobs: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            cache_capacity: 4096,
            limits: ServiceLimits::default(),
            cache_dir: None,
            cache_max_bytes: None,
        }
    }
}

/// The unit table: per fingerprint, the finished verdict or the cell
/// of the check computing it. One lock guards both, so a request that
/// misses the verdict either finds the flight or starts one, and a
/// flight retires in the same critical section that stores its verdict.
/// The lock recovers from poisoning: the table holds no invariant a
/// panicking thread could break halfway (worst case a verdict is
/// missing and gets re-checked).
struct Units {
    done: LruCache<Arc<CheckSummary>>,
    flying: HashMap<u64, Arc<InFlight>>,
}

/// What one slot of a request does with its fingerprint.
enum Role<'a> {
    /// The finished verdict was in the table.
    Hit(Arc<CheckSummary>),
    /// A cyclic project unit: its `V601` summary is assembled on the
    /// calling thread, too cheap to be worth deduplicating.
    Cyclic(&'a UnitPlan),
    /// This slot added the flight and runs the check.
    Lead(Arc<InFlight>),
    /// Another request, or an earlier slot of this one, runs the check.
    Join(Arc<InFlight>),
}

/// How many per-function verdicts to keep per whole-unit cache slot.
/// Function entries are small (declaration-relative diagnostics plus
/// counters), and a typical unit holds many functions.
const FN_CACHE_FACTOR: usize = 16;

/// A parallel, incremental protocol-checking service.
pub struct CheckService {
    /// Shared (`Arc`) because leaders wake the threads waiting on their
    /// units through it.
    pool: Arc<ThreadPool>,
    /// Finished verdicts and checks in flight.
    units: Mutex<Units>,
    incremental: Arc<IncrementalEngine>,
    cache_capacity: usize,
    limits: ServiceLimits,
    metrics: Arc<Metrics>,
    /// The on-disk verdict store and its journal writer, when
    /// `--cache-dir` was given and the directory was usable. Purely
    /// best-effort: append failures only tick `cache_append_errors`
    /// (the in-memory caches still answer), and a failure to open falls
    /// back to memory-only with a `cache_load_errors` tick.
    journal: Option<Journal>,
}

impl CheckService {
    /// Build a service with `config` tunables. When `config.cache_dir`
    /// is set, the persistent verdict log found there is replayed into
    /// the in-memory caches (a warm start) and every deterministic
    /// verdict computed from here on is journaled back to it.
    pub fn new(config: ServiceConfig) -> Self {
        let metrics = Arc::new(Metrics::default());
        let cache_capacity = config.cache_capacity.max(1);
        let mut cache = LruCache::new(cache_capacity);
        let incremental = Arc::new(IncrementalEngine::new(
            cache_capacity,
            cache_capacity.saturating_mul(FN_CACHE_FACTOR),
        ));
        let mut journal = None;
        if let Some(dir) = &config.cache_dir {
            let store_cfg = StoreConfig {
                max_bytes: config.cache_max_bytes,
                ..StoreConfig::default()
            };
            match VerdictStore::open(dir, store_cfg) {
                Ok((store, loaded)) => {
                    metrics
                        .cache_load_errors
                        .fetch_add(loaded.errors, Ordering::Relaxed);
                    for (fp, summary) in loaded.units {
                        cache.put(fp, Arc::new(summary));
                    }
                    for (key, verdict, stats) in loaded.fns {
                        incremental.seed_fn(key, verdict, stats);
                    }
                    incremental.enable_dirty_tracking();
                    match Journal::start(store, Arc::clone(&incremental), Arc::clone(&metrics)) {
                        Ok(j) => journal = Some(j),
                        Err(_) => {
                            metrics.cache_load_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                Err(_) => {
                    // An unusable directory must not take the daemon
                    // down; run memory-only and make the failure
                    // visible in `status`.
                    metrics.cache_load_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        CheckService {
            pool: Arc::new(ThreadPool::new(config.jobs, Arc::clone(&metrics))),
            units: Mutex::new(Units {
                done: cache,
                flying: HashMap::new(),
            }),
            incremental,
            cache_capacity,
            limits: config.limits,
            metrics,
            journal,
        }
    }

    /// The shared counters.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The configured resource bounds.
    pub fn limits(&self) -> &ServiceLimits {
        &self.limits
    }

    /// Number of pool threads.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// The thread set requests and checks run on (the multiplexer hands
    /// each request to one of its threads).
    pub(crate) fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// Stop accepting work, wait up to `grace` for in-flight jobs, then
    /// wait for the journal writer to commit every verdict queued so
    /// far. The writer itself stays up until the service is dropped, so
    /// a request still finishing on another thread is committed too.
    /// Returns `true` if the queue drained within the grace period.
    pub fn drain(&self, grace: Duration) -> bool {
        let drained = self.pool.shutdown(grace);
        if let Some(journal) = &self.journal {
            journal.flush();
        }
        drained
    }

    /// Check a batch of units: cache hits answer immediately, misses fan
    /// out across the pool. Reports come back in **input order**; the
    /// returned duration is the whole batch's wall time in microseconds.
    pub fn check_units(&self, units: Vec<UnitIn>) -> (Vec<UnitReport>, u64) {
        let start = Instant::now();
        let jobs = units
            .into_iter()
            .enumerate()
            .map(|(slot, unit)| (slot, unit_fingerprint(&unit.name, &unit.source), unit))
            .collect();
        let (reports, _, _) = self.schedule(jobs, None);
        (reports, start.elapsed().as_micros() as u64)
    }

    /// Check one unit through the cache (a one-element batch).
    pub fn check_unit(&self, unit: UnitIn) -> UnitReport {
        let (mut reports, _) = self.check_units(vec![unit]);
        reports.remove(0)
    }

    /// Check a *project*: an ordered manifest of units that may `import`
    /// one another's export surfaces.
    ///
    /// The import DAG is planned up front (cycles become stable `V601`
    /// rejections, unresolved imports `V602`), each unit's verdict is
    /// memoized under its **project fingerprint** — its own source plus
    /// the export fingerprints of its transitive dependencies — and
    /// misses fan out across the worker pool in topological order, each
    /// checked against its dependency-signature prelude through the
    /// incremental engine. Reports come back in **manifest order**, byte
    /// for byte what [`vault_project::check_project`] produces
    /// sequentially.
    ///
    /// The fingerprint split is the *early cutoff*: a body edit upstream
    /// changes that unit's own key but no export surface, so every
    /// downstream unit re-hits the cache (counted in `cutoff_hits`);
    /// only an interface edit invalidates dependents.
    pub fn check_project(&self, units: Vec<UnitIn>) -> (Vec<UnitReport>, u64) {
        let start = Instant::now();
        let mut units: Vec<ProjectUnit> = units
            .into_iter()
            .map(|u| ProjectUnit::new(u.name, u.source))
            .collect();
        let plan = Arc::new(ProjectPlan::build(&units, self.limits.parser_depth));
        // Every unit's verdict is a pure function of its own source and
        // its precomputed prelude (export surfaces come from parsing,
        // never from checking), so the schedule order cannot change any
        // answer; topological order just starts the roots first. The
        // cyclic units, which Kahn's order leaves out, go last.
        let jobs = plan
            .order
            .iter()
            .copied()
            .chain((0..units.len()).filter(|&i| plan.units[i].cyclic))
            .map(|i| {
                let unit = UnitIn {
                    name: std::mem::take(&mut units[i].name),
                    source: std::mem::take(&mut units[i].source),
                };
                (i, plan.units[i].project_fingerprint, unit)
            })
            .collect();
        let (reports, hit, launched) = self.schedule(jobs, Some(&plan));
        let reused = hit.iter().filter(|&&h| h).count();
        // A hit whose transitive closure contains a re-checked unit is a
        // cutoff win: something upstream changed, but not its interface.
        let cutoffs = (0..hit.len())
            .filter(|&i| hit[i] && plan.units[i].transitive.iter().any(|&d| !hit[d]))
            .count();
        self.metrics
            .units_reused
            .fetch_add(reused as u64, Ordering::Relaxed);
        self.metrics
            .cutoff_hits
            .fetch_add(cutoffs as u64, Ordering::Relaxed);
        self.metrics
            .units_scheduled
            .fetch_add(launched, Ordering::Relaxed);
        (reports, start.elapsed().as_micros() as u64)
    }

    /// The scheduling pipeline behind [`Self::check_units`] and
    /// [`Self::check_project`]. `jobs` holds every unit of the request
    /// as `(slot, fingerprint, unit)`, in schedule order. For a project,
    /// `plan` supplies each slot's dependency prelude and the graph
    /// diagnostics folded into its verdict, and cyclic units get their
    /// `V601` rejection inline instead of a check.
    ///
    /// Returns the reports in slot order, which slots the verdict cache
    /// answered, and how many checks ran (on the pool or on the calling
    /// thread).
    fn schedule(
        &self,
        jobs: Vec<(usize, u64, UnitIn)>,
        plan: Option<&Arc<ProjectPlan>>,
    ) -> (Vec<UnitReport>, Vec<bool>, u64) {
        let n = jobs.len();
        self.metrics
            .units_checked
            .fetch_add(n as u64, Ordering::Relaxed);
        let mut fingerprints = vec![0u64; n];
        let mut units: Vec<Option<UnitIn>> = (0..n).map(|_| None).collect();
        let order: Vec<usize> = jobs
            .into_iter()
            .map(|(slot, fp, unit)| {
                fingerprints[slot] = fp;
                units[slot] = Some(unit);
                slot
            })
            .collect();
        let cyclic = |slot: usize| plan.map(|p| &p.units[slot]).filter(|up| up.cyclic);
        let cached = |summary: &Arc<CheckSummary>| UnitReport {
            summary: Arc::clone(summary),
            cached: true,
            check_micros: 0,
        };

        // One locked pass, in slot order whatever the schedule: each slot
        // hits, joins a flight, or leads a new one. A project fingerprint
        // is a complete key of the unit's output (source, transitive
        // export surfaces, and any graph diagnostics), so a hit is always
        // the right answer regardless of which manifest computed it.
        let roles: Vec<Role> = {
            let mut table = lock(&self.units);
            let table = &mut *table;
            (0..n)
                .map(|slot| {
                    let fp = fingerprints[slot];
                    if let Some(summary) = table.done.get(fp) {
                        Role::Hit(summary)
                    } else if let Some(up) = cyclic(slot) {
                        Role::Cyclic(up)
                    } else if let Some(cell) = table.flying.get(&fp) {
                        Role::Join(Arc::clone(cell))
                    } else {
                        let cell = Arc::new(InFlight::default());
                        table.flying.insert(fp, Arc::clone(&cell));
                        Role::Lead(cell)
                    }
                })
                .collect()
        };
        let hit: Vec<bool> = roles.iter().map(|r| matches!(r, Role::Hit(_))).collect();
        self.metrics
            .cache_hits
            .fetch_add(hit.iter().filter(|&&h| h).count() as u64, Ordering::Relaxed);

        // Leaders launch in schedule order, all but the last to the pool:
        // this thread checks the last one itself (caller-runs), so a
        // one-unit request never leaves its thread.
        let leaders: Vec<(usize, &Arc<InFlight>)> = order
            .iter()
            .filter_map(|&slot| match &roles[slot] {
                Role::Lead(cell) => Some((slot, cell)),
                _ => None,
            })
            .collect();
        for (i, &(slot, cell)) in leaders.iter().enumerate() {
            let here = i + 1 == leaders.len();
            self.launch(slot, units[slot].take(), Arc::clone(cell), plan, here);
        }
        let mut launched = leaders.len() as u64;

        // One wait for every cell this request leads or joined, running
        // queued checks meanwhile. A leader never waits on another
        // request, so no wait can cycle across requests.
        let mut pending = roles
            .iter()
            .filter_map(|r| match r {
                Role::Lead(cell) | Role::Join(cell) => Some(cell),
                _ => None,
            })
            .peekable();
        self.pool.help_until(|| {
            while pending.next_if(|c| c.published().is_some()).is_some() {}
            pending.peek().is_none().then_some(())
        });

        let mut inline = 0u64;
        let mut reports = Vec::with_capacity(n);
        for (slot, role) in roles.iter().enumerate() {
            let (summary, micros) = match role {
                Role::Hit(summary) => {
                    reports.push(cached(summary));
                    continue;
                }
                Role::Cyclic(up) => {
                    inline += 1;
                    (Arc::new(vault_project::cyclic_summary(up)), 0)
                }
                Role::Lead(cell) => cell.published().cloned().expect("every cell published"),
                Role::Join(cell) => {
                    let (summary, _) = cell.published().expect("every cell published");
                    if shareable(summary) {
                        self.metrics.singleflight_join();
                        reports.push(cached(summary));
                        continue;
                    }
                    // The leader panicked or timed out: transient faults
                    // must not fan out, so this slot re-checks privately.
                    launched += 1;
                    let own = Arc::new(InFlight::default());
                    self.launch(slot, units[slot].take(), Arc::clone(&own), plan, true);
                    own.published()
                        .cloned()
                        .expect("a check run here publishes")
                }
            };
            if summary.verdict == Verdict::ResourceLimit {
                self.metrics.deadline_hit();
            }
            self.metrics
                .check_micros
                .fetch_add(micros, Ordering::Relaxed);
            self.metrics.absorb_phases(&summary.stats);
            reports.push(UnitReport {
                summary,
                cached: false,
                check_micros: micros,
            });
        }
        self.metrics
            .cache_misses
            .fetch_add(launched + inline, Ordering::Relaxed);

        // One closing critical section, in slot order so concurrent
        // requests populate the recency list deterministically given
        // identical traffic: store the shareable fresh verdicts and
        // retire this request's flights. A late arrival either joined the
        // flight or finds the verdict.
        let mut to_journal: Vec<Pending> = Vec::new();
        {
            let mut table = lock(&self.units);
            for (slot, report) in reports.iter().enumerate() {
                let fp = fingerprints[slot];
                if matches!(roles[slot], Role::Lead(_)) {
                    table.flying.remove(&fp);
                }
                if !report.cached && shareable(&report.summary) {
                    table.done.put(fp, Arc::clone(&report.summary));
                    if self.journal.is_some() {
                        to_journal.push((fp, Arc::clone(&report.summary)));
                    }
                }
            }
        }
        // Hand the verdicts to the journal writer outside the lock; the
        // reply does not wait for the disk.
        self.journal(to_journal);
        (reports, hit, launched)
    }

    /// Check `slot`'s unit and publish its summary and wall time to
    /// `cell`: on the pool, or on this thread when `here`. Every unit
    /// gets its own deadline and panic containment: one hostile unit
    /// costs only its own verdict, never a thread or the request. A pool
    /// shutting down refuses both alike; the refused job's guard then
    /// publishes an internal error, so `cell` is always published.
    fn launch(
        &self,
        slot: usize,
        unit: Option<UnitIn>,
        cell: Arc<InFlight>,
        plan: Option<&Arc<ProjectPlan>>,
        here: bool,
    ) {
        let unit = unit.expect("a slot's unit is checked once");
        let guard = LeaderGuard::new(cell, &unit.name, Arc::clone(&self.pool));
        let limits = self.limits.checker_limits(Instant::now());
        let metrics = Arc::clone(&self.metrics);
        let engine = Arc::clone(&self.incremental);
        let plan = plan.cloned();
        let job = move || {
            #[cfg(feature = "chaos")]
            let _running = crate::chaos::check_running();
            let t = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                #[cfg(feature = "chaos")]
                crate::chaos::perturb_job();
                let up = plan.as_ref().map(|p| &p.units[slot]);
                let s = engine.check_unit_with_prelude(
                    &unit.name,
                    up.map_or("", |up| &up.prelude),
                    &unit.source,
                    &limits,
                    &metrics,
                );
                match up {
                    Some(up) => vault_project::fold_graph_diags(up, s),
                    None => s,
                }
            }));
            let summary = outcome.unwrap_or_else(|e| {
                metrics.panic_caught();
                CheckSummary::internal_error(&unit.name, &panic_payload(&*e))
            });
            guard.publish((Arc::new(summary), t.elapsed().as_micros() as u64));
        };
        let _ = if here {
            self.pool.check_open().map(|()| job())
        } else {
            self.pool.submit(job)
        };
    }

    /// Check one unit and, when accepted, translate it to C.
    ///
    /// Codegen needs the full AST, which the verdict cache deliberately
    /// does not retain, so this always re-runs the front end in the
    /// calling thread; only `check`/`stats` traffic is memoized. Panics
    /// anywhere in the pipeline are contained into an `internal-error`
    /// summary — this runs on a connection thread, and one hostile unit
    /// must not sever the connection.
    pub fn emit_c(&self, unit: &UnitIn) -> (CheckSummary, Option<String>) {
        let limits = self.limits.checker_limits(Instant::now());
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let result = check_source_with_limits(&unit.name, &unit.source, &limits);
            let summary = CheckSummary::of(&unit.name, &result);
            let c = (summary.verdict == Verdict::Accepted)
                .then(|| vault_core::codegen::emit_c(&result.program, &result.elaborated));
            (summary, c)
        }));
        match outcome {
            Ok(r) => {
                if r.0.verdict == Verdict::ResourceLimit {
                    self.metrics.deadline_hit();
                }
                r
            }
            Err(e) => {
                self.metrics.panic_caught();
                (
                    CheckSummary::internal_error(&unit.name, &panic_payload(&*e)),
                    None,
                )
            }
        }
    }

    /// Hand a batch of fresh whole-unit verdicts to the journal writer
    /// and return at once. The writer commits them, together with the
    /// function verdicts the incremental engine produced meanwhile and
    /// the batches of concurrent requests, in one append and one fsync,
    /// then runs store maintenance. A crash before that commit loses
    /// only warmth. Best-effort by design: an append failure ticks
    /// `cache_append_errors` and the in-memory caches keep answering.
    fn journal(&self, units: Vec<Pending>) {
        if let Some(journal) = &self.journal {
            journal.submit(units);
        }
    }

    /// Drop every memoized verdict — whole-unit summaries, cached
    /// elaboration environments, per-function verdicts, and the
    /// persistent on-disk store, if one is attached (counters are
    /// unaffected). Verdicts queued for the journal are discarded and
    /// an in-flight commit finishes before the store is wiped, so no
    /// verdict checked before the wipe reappears after a restart; the
    /// store's wipe waits for an in-flight maintenance pass for the
    /// same reason.
    pub fn clear_cache(&self) {
        lock(&self.units).done.clear();
        match &self.journal {
            // The journal clears the engine under its commit lock.
            Some(journal) => journal.wipe(),
            None => self.incremental.clear(),
        }
    }

    /// Run one verdict-store maintenance pass synchronously, after the
    /// journal writer has committed everything queued (tests and the
    /// bench harness call this for deterministic compaction; the writer
    /// itself maintains the store after each commit). Returns `false`
    /// when no store is attached.
    pub fn maintain_store(&self) -> bool {
        match &self.journal {
            Some(journal) => {
                journal.flush();
                if journal.store().maintain().is_err() {
                    self.metrics.cache_append_error();
                }
                true
            }
            None => false,
        }
    }

    /// Verdict-store health counters for `status`, when a store is
    /// attached (`None` when running memory-only). Never waits for the
    /// journal writer: verdicts still queued are not counted yet.
    pub fn store_health(&self) -> Option<StoreHealth> {
        self.journal.as_ref().map(|j| j.store().health())
    }

    /// Live cache entry count.
    pub fn cache_entries(&self) -> usize {
        lock(&self.units).done.len()
    }

    /// Configured cache capacity.
    pub fn cache_capacity(&self) -> usize {
        self.cache_capacity
    }

    /// Point-in-time counters.
    pub fn status(&self) -> StatusSnapshot {
        self.metrics.snapshot()
    }

    /// On-disk size of the persistent verdict store in bytes once every
    /// queued verdict is committed, when a `--cache-dir` is attached
    /// (`None` when running memory-only).
    pub fn cache_disk_bytes(&self) -> Option<u64> {
        let journal = self.journal.as_ref()?;
        journal.flush();
        Some(journal.store().health().disk_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "type FILE;
stateset FS = [ open < closed ];
tracked(F) FILE fopen(string p) [new F@open];
void fclose(tracked(F) FILE f) [-F];
void ok() {
  tracked(F) FILE f = fopen(\"x\");
  fclose(f);
}";

    const LEAKY: &str = "type FILE;
stateset FS = [ open < closed ];
tracked(F) FILE fopen(string p) [new F@open];
void fclose(tracked(F) FILE f) [-F];
void leak() {
  tracked(F) FILE f = fopen(\"x\");
}";

    /// Accepted before a type parameter declared twice was an error.
    const DUPLICATE_PARAM: &str = "type FILE;
variant opt<key K, key K> [ 'Some {K} | 'None ];
tracked(F) FILE fopen(string p) [new F];
void fclose(tracked(F) FILE f) [-F];
void ok() {
  tracked(F) FILE f = fopen(\"x\");
  fclose(f);
}";

    /// Two independent function bodies, so a restart plus a one-body
    /// edit can demonstrate per-function verdict recovery.
    const TWO_FNS: &str = "type FILE;
stateset FS = [ open < closed ];
tracked(F) FILE fopen(string p) [new F@open];
void fclose(tracked(F) FILE f) [-F];
void one() {
  tracked(F) FILE f = fopen(\"x\");
  fclose(f);
}
void two() {
  tracked(F) FILE g = fopen(\"z\");
  fclose(g);
}";

    fn unit(name: &str, source: &str) -> UnitIn {
        UnitIn {
            name: name.to_string(),
            source: source.to_string(),
        }
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("vault-svc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn persistent_config(dir: &std::path::Path) -> ServiceConfig {
        ServiceConfig {
            jobs: 2,
            cache_capacity: 16,
            cache_dir: Some(dir.to_path_buf()),
            ..Default::default()
        }
    }

    #[test]
    fn restart_answers_from_the_persisted_cache() {
        let dir = tmp_dir("warm-start");
        let cold = {
            let svc = CheckService::new(persistent_config(&dir));
            let cold = svc.check_unit(unit("a.vlt", LEAKY));
            assert!(!cold.cached);
            cold
        };
        // A fresh service on the same directory — a daemon restart.
        let svc = CheckService::new(persistent_config(&dir));
        assert_eq!(svc.status().cache_load_errors, 0);
        let warm = svc.check_unit(unit("a.vlt", LEAKY));
        assert!(warm.cached, "restart must answer from the persisted log");
        assert_eq!(*warm.summary, *cold.summary);
        assert_eq!(svc.status().cache_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_recovers_function_verdicts_for_edited_units() {
        let dir = tmp_dir("warm-fns");
        {
            let svc = CheckService::new(persistent_config(&dir));
            svc.check_unit(unit("a.vlt", TWO_FNS));
        }
        // Same-length edit inside `one`'s body: the unit fingerprint
        // changes (whole-unit miss) but `two` is untouched, so its
        // persisted per-function verdict must be rehit after restart.
        let edited = TWO_FNS.replace("fopen(\"x\")", "fopen(\"q\")");
        assert_eq!(edited.len(), TWO_FNS.len());
        let svc = CheckService::new(persistent_config(&dir));
        let report = svc.check_unit(unit("a.vlt", &edited));
        assert!(!report.cached);
        assert_eq!(report.summary.verdict, Verdict::Accepted);
        let direct = vault_core::check_summary("a.vlt", &edited);
        assert_eq!(*report.summary, direct);
        assert!(
            svc.status().fn_cache_hits >= 1,
            "the unedited function must hit the replayed per-function cache"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_keeps_function_verdicts_across_a_length_changing_edit() {
        let dir = tmp_dir("warm-moved");
        let program = vault_corpus::synth::generate(&vault_corpus::synth::SynthConfig {
            functions: 48,
            stmts_per_fn: 12,
            seed: 12,
            bug_rate: 0.1,
            shape: vault_corpus::synth::Shape::Mixed,
        });
        assert!(
            !program.seeded.is_empty(),
            "some verdicts carry diagnostics"
        );
        {
            let svc = CheckService::new(persistent_config(&dir));
            svc.check_unit(unit("m.vlt", &program.source));
        }
        // A line inserted into the first body moves the other 47
        // functions; their persisted, declaration-relative verdicts must
        // still hit after the restart and re-render at the new offsets.
        let header = "void synth_fn_0(bool flag, int n) {\n";
        let edited = program
            .source
            .replace(header, &format!("{header}  n = n + 1;\n"));
        let svc = CheckService::new(persistent_config(&dir));
        assert_eq!(svc.status().cache_load_errors, 0);
        let report = svc.check_unit(unit("m.vlt", &edited));
        assert!(!report.cached);
        assert_eq!(*report.summary, vault_core::check_summary("m.vlt", &edited));
        let status = svc.status();
        assert_eq!((status.fn_cache_hits, status.fn_cache_misses), (47, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_cache_purges_the_disk_log_too() {
        let dir = tmp_dir("clear-disk");
        {
            let svc = CheckService::new(persistent_config(&dir));
            svc.check_unit(unit("a.vlt", GOOD));
            svc.check_unit(unit("b.vlt", LEAKY));
            svc.clear_cache();
            // In-memory entries are gone immediately...
            assert_eq!(svc.cache_entries(), 0);
            assert_eq!(svc.incremental.entries(), (0, 0));
        }
        // ...and so are the persisted ones: a restart starts cold.
        let svc = CheckService::new(persistent_config(&dir));
        assert_eq!(svc.status().cache_load_errors, 0);
        let report = svc.check_unit(unit("a.vlt", GOOD));
        assert!(!report.cached, "clear-cache must also purge the disk log");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn older_format_stores_boot_cold_with_no_wrong_answers() {
        use crate::json::{self, Json};
        use crate::persist::{crc32, segment_file_name};
        // Format 2, a store an older build wrote: its unit record claims
        // the leaky unit is accepted, and its function records carry no
        // read set.
        let stats = r#"{"statements":0,"calls":0,"joins":0,"loop_iterations":0,"keys_allocated":0,"snapshots":0,"frames_copied":0}"#;
        let format_2 = vec![
            format!(
                r#"{{"kind":"unit","fp":"{:016x}","name":"a.vlt","verdict":"accepted","diagnostics":[],"stats":{stats}}}"#,
                crate::cache::unit_fingerprint("a.vlt", LEAKY)
            ),
            format!(r#"{{"kind":"fn","fp":"0000000000000001","diags":[],"stats":{stats}}}"#),
        ];
        // The records this build writes for one unit, as JSON objects.
        let records_of = |name: &str, text: &str| {
            let source = tmp_dir(&format!("records-of-{name}"));
            CheckService::new(persistent_config(&source)).check_unit(unit(name, text));
            let bytes = std::fs::read(source.join(segment_file_name(0))).unwrap();
            let _ = std::fs::remove_dir_all(&source);
            let mut records = Vec::new();
            let mut at = 12;
            while at < bytes.len() {
                let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
                let payload = std::str::from_utf8(&bytes[at + 8..at + 8 + len]).unwrap();
                at += 8 + len;
                let Ok(Json::Obj(fields)) = json::parse(payload) else {
                    panic!("a record is an object: {payload}");
                };
                records.push(fields);
            }
            records
        };
        // Format 3: the function records this build writes for the leaky
        // unit, under their keys and with read sets that hold, but with
        // no diagnostics and flagged as checked from a recovered parse,
        // which format 3 allowed. Replayed, `leak` would be accepted.
        let mut format_3 = Vec::new();
        for mut fields in records_of("a.vlt", LEAKY) {
            if fields[0] == ("kind".to_string(), Json::str("fn")) {
                for (key, value) in &mut fields {
                    if key == "diags" {
                        *value = Json::Arr(Vec::new());
                    }
                }
                fields.push(("pristine".to_string(), Json::Bool(false)));
                format_3.push(Json::Obj(fields).to_line());
            }
        }
        assert!(!format_3.is_empty(), "the leaky unit wrote no fn record");
        // Format 4: the records of a unit that declares a type parameter
        // twice, with the verdict format 4's checker gave it: accepted,
        // with no diagnostics.
        let format_4: Vec<String> = records_of("d.vlt", DUPLICATE_PARAM)
            .into_iter()
            .map(|mut fields| {
                for (key, value) in &mut fields {
                    match key.as_str() {
                        "verdict" => *value = Json::str("accepted"),
                        "diagnostics" | "diags" => *value = Json::Arr(Vec::new()),
                        _ => {}
                    }
                }
                Json::Obj(fields).to_line()
            })
            .collect();
        assert!(
            format_4
                .iter()
                .any(|r| r.contains(r#""verdict":"accepted""#)),
            "the duplicate-parameter unit wrote no unit record: {format_4:?}"
        );

        for (version, payloads) in [(2u32, format_2), (3, format_3), (4, format_4)] {
            let dir = tmp_dir(&format!("format-{version}"));
            std::fs::create_dir_all(&dir).unwrap();
            let mut bytes = b"VAULTCCH".to_vec();
            bytes.extend(version.to_le_bytes());
            for p in &payloads {
                bytes.extend((p.len() as u32).to_le_bytes());
                bytes.extend(crc32(p.as_bytes()).to_le_bytes());
                bytes.extend(p.as_bytes());
            }
            std::fs::write(dir.join(segment_file_name(0)), bytes).unwrap();

            let svc = CheckService::new(persistent_config(&dir));
            assert_eq!(
                svc.status().cache_load_errors,
                1,
                "the format {version} segment is set aside"
            );
            let units = [
                ("a.vlt", LEAKY),
                ("b.vlt", GOOD),
                ("t.vlt", TWO_FNS),
                ("d.vlt", DUPLICATE_PARAM),
            ];
            for (name, source) in units {
                let report = svc.check_unit(unit(name, source));
                assert!(!report.cached, "{name} answered from the old store");
                assert_eq!(*report.summary, vault_core::check_summary(name, source));
                if name == "d.vlt" {
                    assert_eq!(report.summary.error_codes(), ["V202"]);
                }
            }
            assert_eq!(svc.status().fn_cache_hits, 0, "format {version}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn corrupted_log_falls_back_cold_with_the_same_verdicts() {
        let dir = tmp_dir("corrupt");
        {
            let svc = CheckService::new(persistent_config(&dir));
            assert_eq!(
                svc.check_unit(unit("a.vlt", LEAKY)).summary.verdict,
                Verdict::Rejected
            );
            assert_eq!(
                svc.check_unit(unit("b.vlt", GOOD)).summary.verdict,
                Verdict::Accepted
            );
        }
        // Flip a payload bit — a disk fault between restarts.
        let path = dir.join(crate::persist::segment_file_name(0));
        let mut bytes = std::fs::read(&path).unwrap();
        let target = bytes.len() / 2;
        bytes[target] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let svc = CheckService::new(persistent_config(&dir));
        let snap = svc.status();
        assert!(
            snap.cache_load_errors >= 1,
            "the load failure must be visible in status"
        );
        // Cold fallback, never a wrong verdict.
        let a = svc.check_unit(unit("a.vlt", LEAKY));
        let b = svc.check_unit(unit("b.vlt", GOOD));
        assert_eq!(a.summary.verdict, Verdict::Rejected);
        assert_eq!(b.summary.verdict, Verdict::Accepted);
        assert_eq!(*a.summary, vault_core::check_summary("a.vlt", LEAKY));
        assert_eq!(*b.summary, vault_core::check_summary("b.vlt", GOOD));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn log_rewritten_under_a_live_service_does_not_change_answers() {
        let dir = tmp_dir("rewrite");
        let svc = CheckService::new(persistent_config(&dir));
        let first = svc.check_unit(unit("a.vlt", LEAKY));
        // Another process scribbles over the store while we hold it.
        let path = dir.join(crate::persist::segment_file_name(0));
        std::fs::write(&path, b"not a cache file at all").unwrap();
        // The live service answers from memory, unaffected.
        let warm = svc.check_unit(unit("a.vlt", LEAKY));
        assert!(warm.cached);
        assert_eq!(*warm.summary, *first.summary);
        drop(svc);
        // The next boot sees garbage: one load error, cold, correct.
        let svc = CheckService::new(persistent_config(&dir));
        assert_eq!(svc.status().cache_load_errors, 1);
        let cold = svc.check_unit(unit("a.vlt", LEAKY));
        assert!(!cold.cached);
        assert_eq!(*cold.summary, *first.summary);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unusable_cache_dir_degrades_to_memory_only() {
        // A file where the directory should be: open() fails, the
        // service must still come up and answer correctly.
        let dir = tmp_dir("unusable");
        std::fs::create_dir_all(dir.parent().unwrap()).unwrap();
        std::fs::write(&dir, b"occupied").unwrap();
        let svc = CheckService::new(persistent_config(&dir));
        assert_eq!(svc.status().cache_load_errors, 1);
        let report = svc.check_unit(unit("a.vlt", GOOD));
        assert_eq!(report.summary.verdict, Verdict::Accepted);
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn second_check_is_a_cache_hit_with_identical_summary() {
        let svc = CheckService::new(ServiceConfig {
            jobs: 2,
            cache_capacity: 16,
            ..Default::default()
        });
        let cold = svc.check_unit(unit("a.vlt", LEAKY));
        assert!(!cold.cached);
        assert_eq!(cold.summary.verdict, Verdict::Rejected);
        let warm = svc.check_unit(unit("a.vlt", LEAKY));
        assert!(warm.cached);
        assert_eq!(*warm.summary, *cold.summary);
        let snap = svc.status();
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.units_checked, 2);
    }

    #[test]
    fn name_is_part_of_the_cache_key() {
        let svc = CheckService::new(ServiceConfig {
            jobs: 1,
            cache_capacity: 16,
            ..Default::default()
        });
        svc.check_unit(unit("a.vlt", GOOD));
        let other = svc.check_unit(unit("b.vlt", GOOD));
        assert!(!other.cached, "different name must not hit");
        assert!(other.summary.render_diagnostics().is_empty());
    }

    #[test]
    fn batch_order_is_input_order() {
        let svc = CheckService::new(ServiceConfig {
            jobs: 4,
            cache_capacity: 64,
            ..Default::default()
        });
        let units: Vec<UnitIn> = (0..12)
            .map(|i| unit(&format!("u{i}.vlt"), if i % 2 == 0 { GOOD } else { LEAKY }))
            .collect();
        let (reports, _) = svc.check_units(units);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.summary.name, format!("u{i}.vlt"));
            let want = if i % 2 == 0 {
                Verdict::Accepted
            } else {
                Verdict::Rejected
            };
            assert_eq!(r.summary.verdict, want, "unit {i}");
        }
    }

    #[test]
    fn clear_cache_forces_recheck() {
        let svc = CheckService::new(ServiceConfig {
            jobs: 1,
            cache_capacity: 16,
            ..Default::default()
        });
        svc.check_unit(unit("a.vlt", GOOD));
        assert_eq!(svc.cache_entries(), 1);
        svc.clear_cache();
        assert_eq!(svc.cache_entries(), 0);
        assert!(!svc.check_unit(unit("a.vlt", GOOD)).cached);
    }

    #[test]
    fn timed_out_unit_reports_resource_limit_and_is_not_cached() {
        let svc = CheckService::new(ServiceConfig {
            jobs: 1,
            cache_capacity: 16,
            limits: ServiceLimits {
                // Already-expired deadline for every unit.
                timeout: Some(Duration::ZERO),
                ..ServiceLimits::default()
            },
            ..Default::default()
        });
        let report = svc.check_unit(unit("slow.vlt", GOOD));
        assert_eq!(report.summary.verdict, Verdict::ResourceLimit);
        assert!(!report.cached);
        // Non-deterministic verdicts must not be memoized: the same unit
        // under a sane deadline would check fine.
        assert_eq!(svc.cache_entries(), 0);
        assert!(svc.status().deadline_exceeded >= 1);
        let again = svc.check_unit(unit("slow.vlt", GOOD));
        assert!(!again.cached, "resource-limit verdicts must be re-checked");
    }

    /// Distinct units (the name is part of the fingerprint) over three
    /// sources, so verdicts, diagnostics and function counts vary.
    fn varied_unit(tag: &str, k: usize) -> UnitIn {
        let source = [GOOD, LEAKY, TWO_FNS][k % 3];
        unit(&format!("{tag}_{k}.vlt"), source)
    }

    fn assert_from_source(report: &UnitReport, unit: &UnitIn) {
        assert_eq!(
            *report.summary,
            vault_core::check_summary(&unit.name, &unit.source),
            "`{}` diverged from the from-source check",
            unit.name
        );
    }

    #[test]
    fn journal_wipe_raced_by_concurrent_checks_resurrects_nothing() {
        use std::sync::atomic::{AtomicBool, AtomicUsize};

        const THREADS: usize = 4;
        const PER_THREAD: usize = 40;
        let dir = tmp_dir("journal-wipe");
        let config = ServiceConfig {
            cache_capacity: 1024,
            ..persistent_config(&dir)
        };
        let svc = Arc::new(CheckService::new(config.clone()));
        let started = Arc::new(AtomicBool::new(false));
        let finished = Arc::new(AtomicBool::new(false));
        let checked = Arc::new(AtomicUsize::new(0));
        // Per thread: units whose check returned before the wipe began,
        // and units whose check began after it ended.
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (svc, started, finished, checked) = (
                    Arc::clone(&svc),
                    Arc::clone(&started),
                    Arc::clone(&finished),
                    Arc::clone(&checked),
                );
                std::thread::spawn(move || {
                    let (mut before, mut after) = (Vec::new(), Vec::new());
                    // At least PER_THREAD units, then on until one check
                    // began after the wipe: a thread that outruns the
                    // wipe would otherwise leave nothing to test there.
                    let deadline = Instant::now() + Duration::from_secs(60);
                    let mut k = 0;
                    while k < PER_THREAD || (after.is_empty() && Instant::now() < deadline) {
                        let u = varied_unit(&format!("t{t}"), k);
                        k += 1;
                        let late = finished.load(Ordering::SeqCst);
                        let report = svc.check_unit(u.clone());
                        assert_from_source(&report, &u);
                        checked.fetch_add(1, Ordering::SeqCst);
                        if late {
                            after.push(u);
                        } else if !started.load(Ordering::SeqCst) {
                            before.push(u);
                        }
                    }
                    (before, after)
                })
            })
            .collect();
        while checked.load(Ordering::SeqCst) < THREADS * PER_THREAD / 2 {
            std::thread::yield_now();
        }
        started.store(true, Ordering::SeqCst);
        svc.clear_cache();
        finished.store(true, Ordering::SeqCst);
        let (mut before, mut after) = (Vec::new(), Vec::new());
        for h in handles {
            let (b, a) = h.join().expect("checker thread");
            before.extend(b);
            after.extend(a);
        }
        assert!(svc.drain(Duration::from_secs(5)));
        drop(svc);
        assert!(!before.is_empty() && !after.is_empty());

        let svc = CheckService::new(config);
        assert_eq!(svc.status().cache_load_errors, 0);
        for u in &before {
            let report = svc.check_unit(u.clone());
            assert!(!report.cached, "`{}` was wiped but came back", u.name);
            assert_from_source(&report, u);
        }
        for u in &after {
            let report = svc.check_unit(u.clone());
            assert!(
                report.cached,
                "`{}`, checked after the wipe, was lost",
                u.name
            );
            assert_from_source(&report, u);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_burst_then_drain_commits_every_verdict() {
        let dir = tmp_dir("journal-burst");
        let units: Vec<UnitIn> = (0..48).map(|k| varied_unit("burst", k)).collect();
        {
            let svc = CheckService::new(persistent_config(&dir));
            for u in &units {
                svc.check_unit(u.clone());
            }
            assert!(svc.drain(Duration::from_secs(5)));
            // Committed by the drain itself, not by the drop.
            let live = svc.store_health().expect("store attached").live_frames;
            assert_eq!(live, units.len() as u64 + svc.status().fn_cache_misses);
        }
        let svc = CheckService::new(ServiceConfig {
            cache_capacity: 64,
            ..persistent_config(&dir)
        });
        for u in &units {
            let report = svc.check_unit(u.clone());
            assert!(report.cached, "`{}` lost by the drain", u.name);
            assert_from_source(&report, u);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_groups_concurrent_checks_and_loses_none() {
        const THREADS: usize = 8;
        const CALLS: usize = 12;
        let dir = tmp_dir("journal-group");
        let config = ServiceConfig {
            cache_capacity: 1024,
            ..persistent_config(&dir)
        };
        let svc = Arc::new(CheckService::new(config.clone()));
        let mut units: Vec<UnitIn> = Vec::new();
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let svc = Arc::clone(&svc);
                let mine: Vec<UnitIn> = (0..CALLS * 2)
                    .map(|k| varied_unit(&format!("g{t}"), k))
                    .collect();
                units.extend(mine.clone());
                std::thread::spawn(move || {
                    // Every call carries two never-seen units, so every
                    // call journals one batch.
                    for pair in mine.chunks(2) {
                        let (reports, _) = svc.check_units(pair.to_vec());
                        for (r, u) in reports.iter().zip(pair) {
                            assert!(!r.cached);
                            assert_from_source(r, u);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("checker thread");
        }
        assert!(svc.drain(Duration::from_secs(5)));
        let health = svc.store_health().expect("store attached");
        let batches = (THREADS * CALLS) as u64;
        let commits = svc.status().journal_commits;
        assert!(commits >= 1);
        assert!(
            commits <= batches,
            "{commits} commits for {batches} batches"
        );
        // Every unit verdict and every function verdict is live.
        let fn_verdicts = svc.status().fn_cache_misses;
        assert_eq!(health.live_frames, units.len() as u64 + fn_verdicts);
        drop(svc);

        let svc = CheckService::new(config);
        assert_eq!(svc.status().cache_load_errors, 0);
        for u in &units {
            let report = svc.check_unit(u.clone());
            assert!(report.cached, "`{}` lost", u.name);
            assert_from_source(&report, u);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drained_service_answers_internal_error_instead_of_hanging() {
        let svc = CheckService::new(ServiceConfig {
            jobs: 1,
            cache_capacity: 4,
            ..Default::default()
        });
        assert!(svc.drain(Duration::from_secs(1)));
        let report = svc.check_unit(unit("late.vlt", GOOD));
        assert_eq!(report.summary.verdict, Verdict::InternalError);
    }

    #[test]
    fn one_unit_check_runs_on_the_calling_thread() {
        use vault_corpus::synth::{self, SynthConfig};
        // A unit's functions are checked on the thread that runs the
        // unit, so only unit check jobs reach the pool queue, whether a
        // unit has one function body or 48.
        let many = |seed| {
            let config = SynthConfig {
                functions: 48,
                seed,
                ..SynthConfig::default()
            };
            synth::generate(&config).source
        };
        for (first, second) in [(GOOD.to_string(), LEAKY.to_string()), (many(1), many(2))] {
            let svc = CheckService::new(ServiceConfig {
                jobs: 2,
                cache_capacity: 4,
                ..Default::default()
            });
            let one = unit("one.vlt", &first);
            let report = svc.check_unit(one.clone());
            assert_from_source(&report, &one);
            assert!(!report.cached);
            assert_eq!(svc.status().queue_peak, 0, "a one-unit check was queued");
            // A batch queues every leader but the last.
            let batch = vec![unit("a.vlt", &first), unit("b.vlt", &second)];
            let (reports, _) = svc.check_units(batch.clone());
            for (report, unit) in reports.iter().zip(&batch) {
                assert_from_source(report, unit);
            }
            assert_eq!(svc.status().queue_peak, 1);
        }
    }

    #[test]
    fn emit_c_only_for_accepted() {
        let svc = CheckService::new(ServiceConfig {
            jobs: 1,
            cache_capacity: 4,
            ..Default::default()
        });
        let (summary, c) = svc.emit_c(&unit("ok.vlt", GOOD));
        assert_eq!(summary.verdict, Verdict::Accepted);
        assert!(c.unwrap().contains("fopen"));
        let (summary, c) = svc.emit_c(&unit("bad.vlt", LEAKY));
        assert_eq!(summary.verdict, Verdict::Rejected);
        assert!(c.is_none());
    }

    fn floppy_project() -> Vec<UnitIn> {
        vault_corpus::floppy::project_units()
            .into_iter()
            .map(|(name, source)| unit(name, &source))
            .collect()
    }

    #[test]
    fn project_check_matches_sequential_reference() {
        let units = floppy_project();
        let reference = vault_project::check_project(
            &units
                .iter()
                .map(|u| vault_project::ProjectUnit::new(&u.name, &u.source))
                .collect::<Vec<_>>(),
            &Limits::default(),
        );
        let svc = CheckService::new(ServiceConfig {
            jobs: 4,
            ..Default::default()
        });
        let (reports, _) = svc.check_project(units);
        assert_eq!(reports.len(), reference.len());
        for (r, w) in reports.iter().zip(&reference) {
            assert!(!r.cached);
            assert_eq!(*r.summary, *w, "unit {}", w.name);
        }
        let snap = svc.status();
        assert_eq!(snap.units_scheduled, 3);
        assert_eq!(snap.units_reused, 0);
        assert_eq!(snap.cutoff_hits, 0);
    }

    #[test]
    fn non_interface_edit_hits_the_cutoff() {
        let svc = CheckService::new(ServiceConfig {
            jobs: 4,
            ..Default::default()
        });
        let cold_units = floppy_project();
        let (cold, _) = svc.check_project(cold_units.clone());
        assert!(cold.iter().all(|r| !r.cached));

        // Edit the root unit (`kernel`) without touching its export
        // surface: both dependents must be answered from the project
        // cache even though their dependency re-checked.
        let mut edited = cold_units.clone();
        edited[0].source.push_str("\n// tuning note\n");
        assert_ne!(edited[0].source, cold_units[0].source);
        let (warm, _) = svc.check_project(edited);
        assert!(!warm[0].cached, "edited unit must re-check");
        assert!(warm[1].cached, "body edit upstream must not invalidate");
        assert!(warm[2].cached, "body edit upstream must not invalidate");
        for (w, c) in warm.iter().zip(&cold) {
            assert_eq!(w.summary.verdict, c.summary.verdict);
        }
        let snap = svc.status();
        assert_eq!(snap.units_reused, 2);
        assert_eq!(
            snap.cutoff_hits, 2,
            "both dependents sit downstream of a re-checked unit"
        );
        assert_eq!(snap.units_scheduled, 4); // 3 cold + 1 re-check
    }

    #[test]
    fn interface_edit_invalidates_dependents() {
        let svc = CheckService::new(ServiceConfig {
            jobs: 4,
            ..Default::default()
        });
        let cold_units = floppy_project();
        let (_, _) = svc.check_project(cold_units.clone());

        // Add a declaration to `kernel`'s export surface: every
        // transitive dependent must re-check.
        let mut edited = cold_units;
        edited[0].source.push_str("\nvoid brand_new_export();\n");
        let (warm, _) = svc.check_project(edited);
        assert!(warm.iter().all(|r| !r.cached));
        let snap = svc.status();
        assert_eq!(snap.units_scheduled, 6); // 3 cold + all 3 again
        assert_eq!(snap.cutoff_hits, 0);
    }

    /// The request counters `check_units` and `check_project` tick, in
    /// the order [`counter_delta`] lists them.
    #[derive(Debug, PartialEq, Eq)]
    struct Counters {
        units_checked: u64,
        cache_hits: u64,
        cache_misses: u64,
        singleflight_joins: u64,
        units_scheduled: u64,
        units_reused: u64,
        cutoff_hits: u64,
        deadline_exceeded: u64,
    }

    /// Run `f` and return how far it moved each request counter.
    fn counter_delta(svc: &CheckService, f: impl FnOnce()) -> Counters {
        let a = svc.status();
        f();
        let b = svc.status();
        Counters {
            units_checked: b.units_checked - a.units_checked,
            cache_hits: b.cache_hits - a.cache_hits,
            cache_misses: b.cache_misses - a.cache_misses,
            singleflight_joins: b.singleflight_joins - a.singleflight_joins,
            units_scheduled: b.units_scheduled - a.units_scheduled,
            units_reused: b.units_reused - a.units_reused,
            cutoff_hits: b.cutoff_hits - a.cutoff_hits,
            deadline_exceeded: b.deadline_exceeded - a.deadline_exceeded,
        }
    }

    #[test]
    fn batch_and_project_counters_are_pinned() {
        // A batch under a 1 ms deadline. Units with no function body
        // never poll the deadline, so only the large unit can trip it.
        let svc = CheckService::new(ServiceConfig {
            jobs: 2,
            cache_capacity: 16,
            limits: ServiceLimits {
                timeout: Some(Duration::from_millis(1)),
                ..ServiceLimits::default()
            },
            ..Default::default()
        });
        let hit = unit("hit.vlt", "type H;\n");
        assert!(!svc.check_unit(hit.clone()).cached);
        let big = vault_corpus::synth::generate(&vault_corpus::synth::SynthConfig {
            functions: 1000,
            stmts_per_fn: 20,
            seed: 7,
            bug_rate: 0.0,
            shape: vault_corpus::synth::Shape::Mixed,
        });
        let batch = vec![
            hit,
            unit("m1.vlt", "type A;\n"),
            unit("m2.vlt", "type B;\nvoid g(int n);\n"),
            unit("m1.vlt", "type A;\n"),
            unit("big.vlt", &big.source),
        ];
        let mut reports = Vec::new();
        let delta = counter_delta(&svc, || reports = svc.check_units(batch).0);
        let cached: Vec<bool> = reports.iter().map(|r| r.cached).collect();
        assert_eq!(cached, [true, false, false, true, false]);
        assert_eq!(reports[4].summary.verdict, Verdict::ResourceLimit);
        assert_eq!(
            delta,
            Counters {
                units_checked: 5,
                cache_hits: 1,
                cache_misses: 3,
                singleflight_joins: 1,
                units_scheduled: 0,
                units_reused: 0,
                cutoff_hits: 0,
                deadline_exceeded: 1,
            }
        );

        // A project with an import cycle and an unresolved import, then
        // an upstream body edit.
        let svc = CheckService::new(ServiceConfig {
            jobs: 2,
            cache_capacity: 16,
            ..Default::default()
        });
        let mut units = vec![
            unit("lib", "type T;\nvoid helper(int n) {\n  n = n + 1;\n}\n"),
            unit("app", "import \"lib\";\nvoid run() {\n  helper(3);\n}\n"),
            unit("c", "import \"d\";\ntype C;\n"),
            unit("d", "import \"c\";\ntype D;\n"),
            unit("orphan", "import \"missing\";\ntype O;\n"),
        ];
        let reference = |units: &[UnitIn]| {
            let project: Vec<_> = units
                .iter()
                .map(|u| vault_project::ProjectUnit::new(&u.name, &u.source))
                .collect();
            vault_project::check_project(&project, &Limits::default())
        };
        let check = |units: &[UnitIn]| {
            let mut reports = Vec::new();
            let delta = counter_delta(&svc, || reports = svc.check_project(units.to_vec()).0);
            let want = reference(units);
            for (r, w) in reports.iter().zip(&want) {
                assert_eq!(*r.summary, *w);
            }
            (reports.iter().map(|r| r.cached).collect::<Vec<_>>(), delta)
        };
        let (cached, delta) = check(&units);
        assert_eq!(cached, [false; 5]);
        assert_eq!(
            delta,
            Counters {
                units_checked: 5,
                cache_hits: 0,
                cache_misses: 5,
                singleflight_joins: 0,
                units_scheduled: 3,
                units_reused: 0,
                cutoff_hits: 0,
                deadline_exceeded: 0,
            }
        );
        units[0].source = units[0].source.replace("n + 1", "n + 2");
        let (cached, delta) = check(&units);
        assert_eq!(cached, [false, true, true, true, true]);
        assert_eq!(
            delta,
            Counters {
                units_checked: 5,
                cache_hits: 4,
                cache_misses: 1,
                singleflight_joins: 0,
                units_scheduled: 1,
                units_reused: 4,
                cutoff_hits: 1,
                deadline_exceeded: 0,
            }
        );
    }

    /// How many checks are in flight in `svc`'s unit table.
    fn flights(svc: &CheckService) -> usize {
        lock(&svc.units).flying.len()
    }

    #[test]
    fn no_flight_outlives_its_request() {
        let fresh = |svc: &CheckService, name: &str, source: &str| {
            let delta = counter_delta(svc, || {
                let report = svc.check_unit(unit(name, source));
                assert!(!report.cached, "{name} answered without a check");
            });
            assert_eq!(flights(svc), 0, "{name} left a flight behind");
            assert_eq!((delta.cache_misses, delta.singleflight_joins), (1, 0));
        };
        // An accepted unit: its flight retires with the verdict stored,
        // and once the verdict is dropped the next request leads again.
        let svc = CheckService::new(ServiceConfig {
            jobs: 2,
            cache_capacity: 4,
            ..Default::default()
        });
        fresh(&svc, "ok.vlt", GOOD);
        assert!(svc.check_unit(unit("ok.vlt", GOOD)).cached);
        svc.clear_cache();
        fresh(&svc, "ok.vlt", GOOD);
        // A project: every leader retires, the cyclic pair claimed none.
        let project = vec![
            unit("lib", "type T;\nvoid helper(int n) {\n  n = n + 1;\n}\n"),
            unit("app", "import \"lib\";\nvoid run() {\n  helper(3);\n}\n"),
            unit("c", "import \"d\";\ntype C;\n"),
            unit("d", "import \"c\";\ntype D;\n"),
        ];
        svc.check_project(project.clone());
        assert_eq!(flights(&svc), 0);
        svc.clear_cache();
        let delta = counter_delta(&svc, || {
            svc.check_project(project);
        });
        assert_eq!((delta.units_scheduled, delta.singleflight_joins), (2, 0));

        // A timed-out unit: nothing is stored, and nothing is in flight.
        let svc = CheckService::new(ServiceConfig {
            jobs: 2,
            cache_capacity: 4,
            limits: ServiceLimits {
                timeout: Some(Duration::ZERO),
                ..ServiceLimits::default()
            },
            ..Default::default()
        });
        fresh(&svc, "slow.vlt", GOOD);
        fresh(&svc, "slow.vlt", GOOD);

        // A drained pool: the refused check's guard publishes, and the
        // flight retires all the same.
        let svc = CheckService::new(ServiceConfig {
            jobs: 1,
            cache_capacity: 4,
            ..Default::default()
        });
        assert!(svc.drain(Duration::from_secs(1)));
        fresh(&svc, "late.vlt", GOOD);
        let (reports, _) = svc.check_units(vec![unit("a.vlt", GOOD), unit("b.vlt", LEAKY)]);
        assert!(reports
            .iter()
            .all(|r| r.summary.verdict == Verdict::InternalError));
        assert_eq!(flights(&svc), 0);
        fresh(&svc, "late.vlt", GOOD);
    }

    #[test]
    fn one_unit_three_times_in_a_batch_is_checked_once() {
        let svc = CheckService::new(ServiceConfig {
            jobs: 2,
            cache_capacity: 4,
            ..Default::default()
        });
        let batch = vec![unit("a.vlt", LEAKY); 3];
        let mut reports = Vec::new();
        let delta = counter_delta(&svc, || reports = svc.check_units(batch).0);
        assert_eq!(
            (
                delta.cache_misses,
                delta.singleflight_joins,
                delta.cache_hits
            ),
            (1, 2, 0)
        );
        let cached: Vec<bool> = reports.iter().map(|r| r.cached).collect();
        assert_eq!(cached, [false, true, true]);
        assert!(reports
            .iter()
            .all(|r| Arc::ptr_eq(&r.summary, &reports[0].summary)));
        assert_from_source(&reports[0], &unit("a.vlt", LEAKY));
        assert_eq!(flights(&svc), 0);
    }

    #[test]
    fn cyclic_units_are_rejected_without_scheduling() {
        let svc = CheckService::new(ServiceConfig {
            jobs: 2,
            ..Default::default()
        });
        let units = vec![
            unit("a", "import \"b\";\ntype T;\n"),
            unit("b", "import \"a\";\ntype U;\n"),
        ];
        let (reports, _) = svc.check_project(units.clone());
        for r in &reports {
            assert_eq!(r.summary.verdict, Verdict::Rejected);
            assert!(r.summary.error_codes().contains(&"V601".to_string()));
        }
        assert_eq!(svc.status().units_scheduled, 0);
        // The V601 verdict is keyed on the graph shape too, so a
        // re-check answers from the cache.
        let (again, _) = svc.check_project(units);
        assert!(again.iter().all(|r| r.cached));
    }
}
