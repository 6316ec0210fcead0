//! The persistent warm-start cache, v2: a segmented, compacting,
//! size-bounded verdict store.
//!
//! A daemon restart used to mean paying the whole cold path again —
//! every unit re-lexed, re-parsed, re-elaborated, re-checked. With
//! `--cache-dir` the service journals every deterministic verdict
//! (whole-unit summaries and per-function verdicts) to disk and
//! replays it at boot, so the first request after a restart is
//! answered at warm-cache speed. The service's journal writer thread
//! is the store's only appender; it groups the verdicts of concurrent
//! requests into one [`VerdictStore::append`].
//!
//! ## On-disk layout
//!
//! The store is a directory of fixed-size **segments**, with no index
//! or manifest beside them:
//!
//! * `seg-NNNNNN.vseg` — append-only segment files. The highest id is
//!   the active tail; all lower ids are sealed. A sealed segment is
//!   never rewritten, only deleted (by compaction or eviction). Every
//!   segment carries one header and a run of CRC-framed payloads:
//!
//!   ```text
//!   [8-byte magic "VAULTCCH"][u32 LE format version]
//!   [u32 LE payload len][u32 LE CRC-32 of payload][payload bytes] ...
//!   ```
//!
//! * `*.bad` — quarantined segments: a sealed segment that fails its
//!   header or CRC mid-file is renamed aside (never deleted, never
//!   fatal) and counted in `status` as `segments_quarantined`.
//!
//! Any other file in the directory (such as the single-file
//! `verdicts.vcache` log of format version 1, the live-frame index
//! older builds kept, or a `seg-NNNNNN.vseg.tmp` their compaction could
//! leave behind) is ignored.
//!
//! Every boot scans every frame of every segment, so every frame's CRC
//! is checked on every boot, superseded frames included. Sealing a
//! segment is just an fsync of the old tail and a fresh header for the
//! new one; nothing else is rewritten.
//!
//! Each payload is one JSON object describing either a whole-unit
//! record (`"kind":"unit"`) or a per-function record (`"kind":"fn"`).
//! [`VerdictStore::append`] writes it straight into the frame buffer
//! behind a placeholder `[len][crc]`, then fills in both: no [`Json`]
//! value, no per-frame `String`, and the journal's queued summaries are
//! read in place through `RecordRef`, never cloned. The bytes are
//! exactly what [`Json::to_line`] prints for the same object (the writer
//! shares its escaping and integer primitives), and boot decodes them
//! with the wire protocol's [`json::parse`]. Keys are 64-bit
//! fingerprints; they are serialized as 16-digit hex strings because
//! [`Json`] holds numbers as `f64`, which silently loses precision above
//! 2^53.
//!
//! ## Compaction and the size bound
//!
//! Appending a verdict for a fingerprint that already has one leaves
//! the old frame on disk as dead bytes. [`VerdictStore::maintain`]
//! (run by the journal writer after a commit) compacts each sealed
//! segment at least a third of whose frame bytes are dead (the same
//! predicate that decides whether a pass runs at all) by copying its
//! live frames forward into the tail, through the same frame writer
//! appends use, fsyncing, and only then deleting the segment. A crash
//! before that fsync leaves a torn tail, which boot truncates back to
//! the old view; a crash after it leaves the segment beside its copies,
//! which boot folds later-wins into the same verdicts, and the next
//! pass deletes it. When `--cache-max-bytes` is set, a pass first
//! evicts whole sealed segments oldest-first while the store would not
//! fit even with its victims compacted, so no frame is copied out of a
//! segment the same pass evicts, and nothing is evicted while the live
//! frames fit; after the copies it evicts again until the store fits.
//! Eviction only costs warmth, never answers. Maintenance and
//! `clear-cache`'s wipe hold one lock, so a wipe waits for an in-flight
//! pass and no copy lands after it.
//!
//! ## Integrity: cold fallback, never a wrong verdict
//!
//! The cache is a pure performance artifact, so every defect in the
//! store degrades to a (partially) cold start, never to an incorrect
//! answer — fingerprints are recomputed from source before a cached
//! verdict is served:
//!
//! * a missing segment, bad magic, or version mismatch quarantines
//!   that one segment and keeps loading the rest;
//! * a truncated or bit-flipped frame truncates the tail at the last
//!   good byte, or quarantines the sealed segment it lives in (its
//!   good prefix is still replayed into memory);
//! * a frame whose CRC is valid but whose JSON violates the schema is
//!   skipped — frame boundaries are intact, so later frames survive;
//! * every failure increments a load-error count surfaced as
//!   `cache_load_errors` in the `status` response.
//!
//! Verdicts that are not pure functions of the source are never
//! written: only `accepted`/`rejected` summaries qualify, and any
//! record mentioning `V501` (resource limit) or `V502` (internal
//! error) is refused at append time.

use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use vault_core::check::CheckStats;
use vault_core::interface::ReadSet;
use vault_core::{CheckSummary, Verdict};
use vault_syntax::diag::Label;
use vault_syntax::{Code, DiagView, Diagnostic, LabelView, Severity, Span};

use crate::incremental::FnVerdict;
use crate::json::{self, write_arr, Json, Obj};
use crate::pool::lock_unpoisoned as lock;
use crate::proto;

/// Identifies a Vault verdict segment file.
const MAGIC: &[u8; 8] = b"VAULTCCH";

/// Format version; a mismatch (older or newer) quarantines the segment.
/// Bump whenever the payload schema or the fingerprint recipe changes.
/// Version 2: per-function records hold declaration-relative
/// diagnostics under position-independent fingerprints. Version 3:
/// per-function records are keyed by declaration text alone and carry
/// their read set. Version 4: every per-function verdict is checked
/// from a body that parsed, so the records lose version 3's flag for
/// verdicts checked from a recovered parse; a version 3 store, which
/// may hold such verdicts, boots cold.
pub const FORMAT_VERSION: u32 = 4;

/// Magic plus version.
const HEADER_LEN: u64 = 12;

/// Frames larger than this are treated as corruption (a length field
/// hit by a bit flip can claim gigabytes; no real record comes close).
const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Suffix a quarantined segment is renamed under.
const QUARANTINE_SUFFIX: &str = ".bad";

/// Default size at which the active tail seals and a new one starts.
pub const DEFAULT_SEGMENT_MAX_BYTES: u64 = 4 * 1024 * 1024;

/// The file name of segment `id`.
pub fn segment_file_name(id: u32) -> String {
    format!("seg-{id:06}.vseg")
}

/// Parse a segment id out of a `seg-NNNNNN.vseg` file name.
fn parse_segment_id(name: &str) -> Option<u32> {
    let digits = name.strip_prefix("seg-")?.strip_suffix(".vseg")?;
    if digits.len() != 6 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Tuning knobs for the store.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Seal the active tail and start a new segment once it reaches
    /// this many bytes.
    pub segment_max_bytes: u64,
    /// Total on-disk bound (`--cache-max-bytes`); maintenance evicts
    /// oldest-first and compacts the rest until the store fits. `None`
    /// means unbounded.
    pub max_bytes: Option<u64>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            segment_max_bytes: DEFAULT_SEGMENT_MAX_BYTES,
            max_bytes: None,
        }
    }
}

/// One replayable cache entry.
pub enum Record {
    /// A whole-unit verdict, keyed by `unit_fingerprint(name, source)`.
    Unit {
        /// The unit fingerprint.
        fp: u64,
        /// The memoized summary.
        summary: CheckSummary,
    },
    /// A per-function verdict, keyed by the incremental engine's
    /// function key (base hash plus declaration text).
    Fn {
        /// The function key.
        fp: u64,
        /// The function's diagnostics, every span relative to the
        /// declaration start and rendered only when a check assembles
        /// them, with the read set that says when they still hold.
        /// Shared with the engine's cache, never copied.
        views: Arc<FnVerdict>,
        /// The function's checker counters.
        stats: CheckStats,
    },
}

impl Record {
    /// The record as the frame writer reads it.
    pub(crate) fn as_ref(&self) -> RecordRef<'_> {
        match self {
            Record::Unit { fp, summary } => RecordRef::Unit { fp: *fp, summary },
            Record::Fn { fp, views, stats } => RecordRef::Fn {
                fp: *fp,
                views,
                stats,
            },
        }
    }
}

/// A [`Record`] borrowed: what [`VerdictStore::append_borrowed`] writes,
/// so the journal hands over the summaries its queue shares with the
/// unit cache without copying them.
#[derive(Clone, Copy)]
pub(crate) enum RecordRef<'a> {
    /// A whole-unit verdict.
    Unit {
        /// The unit fingerprint.
        fp: u64,
        /// The memoized summary.
        summary: &'a CheckSummary,
    },
    /// A per-function verdict.
    Fn {
        /// The function key.
        fp: u64,
        /// The function's relative diagnostics and read set.
        views: &'a FnVerdict,
        /// The function's checker counters.
        stats: &'a CheckStats,
    },
}

impl RecordRef<'_> {
    fn key(&self) -> RecKey {
        match self {
            RecordRef::Unit { fp, .. } => RecKey::Unit(*fp),
            RecordRef::Fn { fp, .. } => RecKey::Fn(*fp),
        }
    }

    /// Whether the record may be written at all (see [`persistable`]).
    fn persistable(&self) -> bool {
        match self {
            RecordRef::Unit { summary, .. } => persistable(
                Some(summary.verdict),
                summary.diagnostics.iter().map(|d| d.code.as_str()),
            ),
            RecordRef::Fn { views, .. } => {
                persistable(None, views.diags.iter().map(|d| d.code.as_str()))
            }
        }
    }
}

/// Everything a successful load recovered, plus how many frames (or
/// whole segments) had to be discarded on the way.
#[derive(Default)]
pub struct Loaded {
    /// Whole-unit records, in append order (later wins on duplicates).
    pub units: Vec<(u64, CheckSummary)>,
    /// Per-function records, in append order.
    pub fns: Vec<(u64, Arc<FnVerdict>, CheckStats)>,
    /// Load failures survived: bad headers, truncated, corrupt, or
    /// schema-violating frames.
    pub errors: u64,
    /// Segments renamed aside as unreadable during this load.
    pub quarantined: u64,
}

/// Store health counters surfaced through `status`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreHealth {
    /// Tail segments sealed since boot.
    pub segments_sealed: u64,
    /// Maintenance passes that compacted (copied forward and deleted)
    /// at least one sealed segment.
    pub compactions_run: u64,
    /// Bytes of dead or evicted data reclaimed since boot.
    pub bytes_reclaimed: u64,
    /// Segments quarantined (renamed aside), including any found
    /// already quarantined at boot.
    pub segments_quarantined: u64,
    /// Frames currently live (addressable by some fingerprint).
    pub live_frames: u64,
    /// Total bytes across all segment files.
    pub disk_bytes: u64,
    /// Appends that wrote and fsynced at least one frame since boot.
    /// The service's journal writer makes one per group commit, so
    /// fewer commits than journaled requests means grouping happened.
    pub journal_commits: u64,
}

/// What a live frame is keyed by. Unit and function fingerprints are
/// separate namespaces, so the kind is part of the key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum RecKey {
    Unit(u64),
    Fn(u64),
}

/// Where a live frame lives: segment id, byte offset of the frame's
/// length field, payload length (the frame occupies `8 + len` bytes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Loc {
    seg: u32,
    off: u64,
    len: u32,
}

/// Per-segment accounting.
#[derive(Clone, Copy, Debug, Default)]
struct SegMeta {
    /// File length in bytes.
    len: u64,
    /// Bytes of superseded or undecodable frames (reclaimable).
    dead_bytes: u64,
}

struct Inner {
    tail_id: u32,
    tail: File,
    tail_len: u64,
    /// Every segment on disk, keyed by id; the highest is the tail.
    metas: BTreeMap<u32, SegMeta>,
    /// Fingerprint → newest frame holding its verdict.
    live: HashMap<RecKey, Loc>,
    /// Set when a failed append could not be rolled back; the store
    /// refuses further appends until reopened (answers are unaffected).
    broken: bool,
}

/// The open verdict store: loads once at construction, then appends;
/// `maintain` compacts and enforces the size bound in the background.
pub struct VerdictStore {
    dir: PathBuf,
    cfg: StoreConfig,
    inner: Mutex<Inner>,
    /// Held through every `maintain` pass and every `wipe`: passes run
    /// one at a time, and a wipe never overlaps a pass's copies.
    maintenance: Mutex<()>,
    segments_sealed: AtomicU64,
    compactions_run: AtomicU64,
    bytes_reclaimed: AtomicU64,
    segments_quarantined: AtomicU64,
    journal_commits: AtomicU64,
}

fn other(msg: &str) -> io::Error {
    io::Error::other(msg.to_string())
}

/// Rename a segment aside as `<name>.bad` (best effort — quarantine
/// must never turn a bad segment into a fatal boot).
fn quarantine(path: &Path) {
    let mut bad = path.as_os_str().to_owned();
    bad.push(QUARANTINE_SUFFIX);
    let _ = fs::rename(path, bad);
}

#[cfg(feature = "chaos")]
use crate::chaos::PersistFault;

/// Mirror of `chaos::PersistFault` so fault-point call sites compile
/// (to nothing) without the feature.
#[cfg(not(feature = "chaos"))]
#[derive(Clone, Copy)]
#[allow(dead_code)] // never constructed without the chaos feature
enum PersistFault {
    Error,
    ShortWrite,
}

#[cfg(feature = "chaos")]
fn chaos_fault(point: &str) -> Option<PersistFault> {
    crate::chaos::persist_fault(point)
}

#[cfg(not(feature = "chaos"))]
fn chaos_fault(_point: &str) -> Option<PersistFault> {
    None
}

impl VerdictStore {
    /// Open (creating if necessary) the store under `dir`, replaying
    /// every live verdict it holds. Corruption is consumed here: the
    /// returned [`Loaded`] carries the error and quarantine counts,
    /// bad segments are renamed aside, and the tail is truncated to
    /// its last good frame, ready for appends.
    pub fn open(dir: &Path, cfg: StoreConfig) -> io::Result<(VerdictStore, Loaded)> {
        fs::create_dir_all(dir)?;
        let mut loaded = Loaded::default();

        let mut seg_ids: Vec<u32> = Vec::new();
        let mut preexisting_bad = 0u64;
        for entry in fs::read_dir(dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(QUARANTINE_SUFFIX) {
                preexisting_bad += 1;
            } else if let Some(id) = parse_segment_id(&name) {
                seg_ids.push(id);
            }
        }
        seg_ids.sort_unstable();

        // Records in global append order; `Loc` is `None` for frames
        // salvaged out of a quarantined segment (replayed into memory,
        // but without disk backing).
        let mut records: Vec<(RecKey, Option<Loc>, Record)> = Vec::new();
        let mut metas: BTreeMap<u32, SegMeta> = BTreeMap::new();

        let tail_id_on_disk = seg_ids.last().copied();
        for &id in &seg_ids {
            let is_tail = Some(id) == tail_id_on_disk;
            let path = dir.join(segment_file_name(id));
            let bytes = fs::read(&path).unwrap_or_default();
            if is_tail && bytes.is_empty() {
                // A brand-new (or never-written) tail: initialized below.
                metas.insert(id, SegMeta::default_with_len(0));
                continue;
            }
            let scan = scan_segment(&bytes, is_tail);
            loaded.errors += scan.errors;
            if scan.healthy {
                for (key, off, len, rec) in scan.records {
                    records.push((key, Some(Loc { seg: id, off, len }), rec));
                }
                // A torn tail's good_len stops short of the file: the
                // garbage is truncated away when the tail opens below.
                metas.insert(id, SegMeta::default_with_len(scan.good_len));
            } else {
                // Unreadable sealed segment (or a tail with a bad
                // header): keep whatever decoded, rename the file
                // aside, keep booting.
                for (key, _, _, rec) in scan.records {
                    records.push((key, None, rec));
                }
                quarantine(&path);
                loaded.quarantined += 1;
            }
        }

        // Pick the tail: the highest healthy segment id, or a fresh
        // segment after the highest id seen (quarantined tails must
        // not be resurrected).
        let tail_id = match metas.keys().next_back() {
            Some(&id) if Some(id) == tail_id_on_disk => id,
            _ => tail_id_on_disk.map_or(0, |t| t + 1),
        };
        let tail_path = dir.join(segment_file_name(tail_id));
        let mut tail = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(&tail_path)?;
        let mut tail_len = metas.get(&tail_id).map(|m| m.len).unwrap_or(0);
        if tail_len < HEADER_LEN {
            tail.set_len(0)?;
            tail.seek(SeekFrom::Start(0))?;
            tail.write_all(MAGIC)?;
            tail.write_all(&FORMAT_VERSION.to_le_bytes())?;
            tail_len = HEADER_LEN;
        } else {
            // Drop any torn bytes past the last good frame.
            tail.set_len(tail_len)?;
            tail.seek(SeekFrom::Start(tail_len))?;
        }
        tail.sync_data()?;
        metas.insert(tail_id, SegMeta::default_with_len(tail_len));

        // Fold the record stream into the live map (later wins) and
        // hand the replay out in append order.
        let mut live: HashMap<RecKey, Loc> = HashMap::new();
        for (key, loc, rec) in records {
            if let Some(loc) = loc {
                live.insert(key, loc);
            } else {
                live.remove(&key);
            }
            match rec {
                Record::Unit { fp, summary } => loaded.units.push((fp, summary)),
                Record::Fn { fp, views, stats } => loaded.fns.push((fp, views, stats)),
            }
        }
        // Dead bytes = whatever a segment holds beyond its live frames.
        let mut live_bytes: BTreeMap<u32, u64> = BTreeMap::new();
        for loc in live.values() {
            *live_bytes.entry(loc.seg).or_default() += 8 + loc.len as u64;
        }
        for (&id, meta) in metas.iter_mut() {
            let alive = live_bytes.get(&id).copied().unwrap_or(0);
            meta.dead_bytes = meta.len.saturating_sub(HEADER_LEN).saturating_sub(alive);
        }

        let store = VerdictStore {
            dir: dir.to_path_buf(),
            cfg,
            inner: Mutex::new(Inner {
                tail_id,
                tail,
                tail_len,
                metas,
                live,
                broken: false,
            }),
            maintenance: Mutex::new(()),
            segments_sealed: AtomicU64::new(0),
            compactions_run: AtomicU64::new(0),
            bytes_reclaimed: AtomicU64::new(0),
            segments_quarantined: AtomicU64::new(preexisting_bad + loaded.quarantined),
            journal_commits: AtomicU64::new(0),
        };
        Ok((store, loaded))
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The active tail segment's path (tests reach in to corrupt it).
    pub fn tail_path(&self) -> PathBuf {
        let inner = lock(&self.inner);
        self.dir.join(segment_file_name(inner.tail_id))
    }

    /// Store health counters for `status`.
    pub fn health(&self) -> StoreHealth {
        let inner = lock(&self.inner);
        StoreHealth {
            segments_sealed: self.segments_sealed.load(Ordering::Relaxed),
            compactions_run: self.compactions_run.load(Ordering::Relaxed),
            bytes_reclaimed: self.bytes_reclaimed.load(Ordering::Relaxed),
            segments_quarantined: self.segments_quarantined.load(Ordering::Relaxed),
            live_frames: inner.live.len() as u64,
            disk_bytes: inner.metas.values().map(|m| m.len).sum(),
            journal_commits: self.journal_commits.load(Ordering::Relaxed),
        }
    }

    /// Append a batch of records as CRC-framed payloads, then fsync
    /// once. Records that must never be persisted (non-deterministic
    /// verdicts, `V501`/`V502` diagnostics) are silently skipped.
    pub fn append(&self, records: &[Record]) -> io::Result<()> {
        self.append_borrowed(records.iter().map(Record::as_ref))
    }

    /// [`Self::append`] over borrowed records. Each payload is written
    /// straight into the frame buffer behind a placeholder header, which
    /// is then filled in with the payload's length and CRC.
    pub(crate) fn append_borrowed<'a>(
        &self,
        records: impl IntoIterator<Item = RecordRef<'a>>,
    ) -> io::Result<()> {
        let mut buf = Vec::new();
        let mut frames = Vec::new();
        for record in records {
            if !record.persistable() {
                continue;
            }
            let start = buf.len();
            buf.extend_from_slice(&[0; 8]);
            write_record(&mut buf, record);
            let len = (buf.len() - start - 8) as u32;
            let crc = crc32(&buf[start + 8..]);
            buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
            buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
            frames.push((record.key(), len));
        }
        if frames.is_empty() {
            return Ok(());
        }
        self.write_frames(lock(&self.inner), &buf, &frames)?;
        self.journal_commits.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The one path by which frames reach a segment after its header:
    /// write `buf`, whole frames whose keys and payload lengths
    /// `frames` lists in order, at the tail, sealing it first when they
    /// would overflow it; point `live` at the new frames and count what
    /// they supersede as dead. The fsync runs after the store's lock is
    /// released, so [`Self::health`] never waits for it.
    fn write_frames(
        &self,
        mut inner: MutexGuard<'_, Inner>,
        buf: &[u8],
        frames: &[(RecKey, u32)],
    ) -> io::Result<()> {
        if inner.broken {
            return Err(other(
                "verdict store offline after an unrecovered write error",
            ));
        }
        if inner.tail_len > HEADER_LEN
            && inner.tail_len + buf.len() as u64 > self.cfg.segment_max_bytes
        {
            self.seal_tail(&mut inner)?;
        }
        let pre = inner.tail_len;
        match chaos_fault("append.write") {
            Some(PersistFault::Error) => {
                // Clean failure before any byte moved: the store stays
                // consistent and usable.
                return Err(other("chaos: injected append error"));
            }
            Some(PersistFault::ShortWrite) => {
                // A torn write followed by process death: leave the
                // partial bytes on disk and refuse further appends, as
                // a crashed process would.
                let _ = inner.tail.write_all(&buf[..buf.len() / 2]);
                inner.broken = true;
                return Err(other("chaos: injected torn append"));
            }
            None => {}
        }
        if let Err(e) = inner.tail.write_all(buf) {
            // Roll the torn bytes back so the in-process store stays
            // usable; if even that fails, go offline (reopen recovers).
            let rolled = inner
                .tail
                .set_len(pre)
                .and_then(|_| inner.tail.seek(SeekFrom::Start(pre)).map(|_| ()));
            if rolled.is_err() {
                inner.broken = true;
            }
            return Err(e);
        }
        // The frames are on disk; account them live even if the fsync
        // below fails (durability is then unknown, which can only cost
        // warmth at the next boot, never an answer).
        let mut off = pre;
        let tail_id = inner.tail_id;
        for &(key, len) in frames {
            let loc = Loc {
                seg: tail_id,
                off,
                len,
            };
            if let Some(old) = inner.live.insert(key, loc) {
                if let Some(meta) = inner.metas.get_mut(&old.seg) {
                    meta.dead_bytes += 8 + old.len as u64;
                }
            }
            off += 8 + len as u64;
        }
        inner.tail_len = off;
        if let Some(meta) = inner.metas.get_mut(&tail_id) {
            meta.len = off;
        }
        if chaos_fault("append.sync").is_some() {
            return Err(other("chaos: injected fsync failure"));
        }
        let tail = inner.tail.try_clone()?;
        drop(inner);
        tail.sync_data()
    }

    /// Seal the current tail (fsync it) and start a fresh segment.
    /// Called with the lock held.
    fn seal_tail(&self, inner: &mut Inner) -> io::Result<()> {
        if chaos_fault("seal").is_some() {
            return Err(other("chaos: injected seal failure"));
        }
        inner.tail.sync_data()?;
        let new_id = inner.tail_id + 1;
        let mut f = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(self.dir.join(segment_file_name(new_id)))?;
        f.write_all(MAGIC)?;
        f.write_all(&FORMAT_VERSION.to_le_bytes())?;
        f.sync_data()?;
        inner.tail = f;
        inner.tail_id = new_id;
        inner.tail_len = HEADER_LEN;
        inner
            .metas
            .insert(new_id, SegMeta::default_with_len(HEADER_LEN));
        self.segments_sealed.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Delete segment `id` and forget any live frame it still holds.
    /// Returns the bytes it held. Called with the lock held.
    fn delete_segment(&self, inner: &mut Inner, id: u32) -> io::Result<u64> {
        fs::remove_file(self.dir.join(segment_file_name(id)))?;
        inner.live.retain(|_, l| l.seg != id);
        Ok(inner.metas.remove(&id).map_or(0, |m| m.len))
    }

    /// Discard every persisted verdict (`clear-cache` reaches the disk
    /// through this): sealed segments are deleted and the tail is
    /// truncated to a fresh header. Waits for an in-flight maintenance
    /// pass, so none of its copies can land after the wipe.
    pub fn wipe(&self) -> io::Result<()> {
        let _pass = lock(&self.maintenance);
        let mut inner = lock(&self.inner);
        let sealed: Vec<u32> = inner
            .metas
            .keys()
            .copied()
            .filter(|&id| id != inner.tail_id)
            .collect();
        for id in sealed {
            let _ = fs::remove_file(self.dir.join(segment_file_name(id)));
            inner.metas.remove(&id);
        }
        inner.tail.set_len(0)?;
        inner.tail.seek(SeekFrom::Start(0))?;
        inner.tail.write_all(MAGIC)?;
        inner.tail.write_all(&FORMAT_VERSION.to_le_bytes())?;
        inner.tail.sync_data()?;
        inner.tail_len = HEADER_LEN;
        let tail_id = inner.tail_id;
        inner
            .metas
            .insert(tail_id, SegMeta::default_with_len(HEADER_LEN));
        inner.live.clear();
        // A wipe is a full reset: an offline store comes back.
        inner.broken = false;
        Ok(())
    }

    /// Whether background maintenance would accomplish anything:
    /// either a sealed segment is worth compacting (at least a third of
    /// its frame bytes are dead), or the store exceeds its size bound.
    pub fn needs_maintenance(&self) -> bool {
        let inner = lock(&self.inner);
        if let Some(max) = self.cfg.max_bytes {
            let total: u64 = inner.metas.values().map(|m| m.len).sum();
            if total > max {
                return true;
            }
        }
        inner
            .metas
            .iter()
            .any(|(&id, m)| id != inner.tail_id && m.worth_compacting())
    }

    /// Run one maintenance pass: evict what the size bound cannot keep
    /// even once compacted, compact every remaining sealed segment worth
    /// compacting, then evict oldest-first until the bound holds. A
    /// segment with a few dead frames is left alone, unread: copying its
    /// live frames would cost a whole read for little space. A pass that
    /// finds another in progress waits for it.
    pub fn maintain(&self) -> io::Result<()> {
        let _pass = lock(&self.maintenance);
        // Each victim's live frames, snapshotted under the lock.
        let mut victims: BTreeMap<u32, Vec<(RecKey, Loc)>> = BTreeMap::new();
        {
            let mut inner = lock(&self.inner);
            // Evict first, counting every victim at its live bytes: no
            // frame is copied out of a segment this pass evicts, and
            // nothing is evicted while the live frames fit.
            self.enforce_bound(&mut inner, true)?;
            for (&id, meta) in &inner.metas {
                if id != inner.tail_id && meta.worth_compacting() {
                    victims.insert(id, Vec::new());
                }
            }
            for (key, loc) in &inner.live {
                if let Some(frames) = victims.get_mut(&loc.seg) {
                    frames.push((*key, *loc));
                }
            }
        }
        let mut compacted = false;
        for (id, mut frames) in victims {
            // File order, not `live`'s hash order: a seeded fault then
            // tears the same copies on every run.
            frames.sort_unstable_by_key(|(_, loc)| loc.off);
            compacted |= self.compact_segment(id, &frames)?;
        }
        if compacted {
            self.compactions_run.fetch_add(1, Ordering::Relaxed);
        }
        self.enforce_bound(&mut lock(&self.inner), false)
    }

    /// Copy sealed segment `id`'s live frames (`frames`, snapshotted in
    /// file order) into the tail, then delete the segment once the
    /// copies are durable. The read and the CRC checks run without the
    /// store lock; a segment whose frames no longer check out is left
    /// alone. Returns whether the segment was deleted.
    fn compact_segment(&self, id: u32, frames: &[(RecKey, Loc)]) -> io::Result<bool> {
        let mut copied = 0u64;
        if !frames.is_empty() {
            let Ok(src) = fs::read(self.dir.join(segment_file_name(id))) else {
                return Ok(false);
            };
            let Some(bytes) = frames
                .iter()
                .map(|(_, loc)| frame_at(&src, loc))
                .collect::<Option<Vec<&[u8]>>>()
            else {
                return Ok(false);
            };
            let inner = lock(&self.inner);
            let mut buf = Vec::new();
            let mut copies = Vec::new();
            for ((key, loc), frame) in frames.iter().zip(bytes) {
                // A frame superseded since the snapshot is dead already.
                if inner.live.get(key) == Some(loc) {
                    buf.extend_from_slice(frame);
                    copies.push((*key, loc.len));
                }
            }
            if !copies.is_empty() {
                self.write_frames(inner, &buf, &copies)?;
            }
            copied = buf.len() as u64;
        }
        if chaos_fault("compact.unlink").is_some() {
            return Err(other(
                "chaos: injected crash before a compacted segment's delete",
            ));
        }
        let freed = self.delete_segment(&mut lock(&self.inner), id)?;
        self.bytes_reclaimed
            .fetch_add(freed.saturating_sub(copied), Ordering::Relaxed);
        Ok(true)
    }

    /// Enforce `--cache-max-bytes`: evict whole sealed segments oldest
    /// first until the store fits; if only the tail remains and still
    /// overflows, seal it and evict that. With `as_compacted`, a sealed
    /// segment worth compacting counts only its live frames, the bytes
    /// compaction would copy. Eviction costs warmth only. Called with
    /// the lock held.
    fn enforce_bound(&self, inner: &mut Inner, as_compacted: bool) -> io::Result<()> {
        let Some(max) = self.cfg.max_bytes else {
            return Ok(());
        };
        let mut evicted = 0u64;
        loop {
            let tail_id = inner.tail_id;
            let total: u64 = inner
                .metas
                .iter()
                .map(|(&id, m)| {
                    if as_compacted && id != tail_id && m.worth_compacting() {
                        m.len.saturating_sub(HEADER_LEN + m.dead_bytes)
                    } else {
                        m.len
                    }
                })
                .sum();
            if total <= max {
                break;
            }
            match inner.metas.keys().copied().find(|&id| id != tail_id) {
                Some(id) => evicted += self.delete_segment(inner, id)?,
                None => {
                    if inner.tail_len <= HEADER_LEN {
                        break; // an empty store that still exceeds the bound
                    }
                    self.seal_tail(inner)?;
                }
            }
        }
        if evicted > 0 {
            self.bytes_reclaimed.fetch_add(evicted, Ordering::Relaxed);
        }
        Ok(())
    }
}

impl SegMeta {
    fn default_with_len(len: u64) -> SegMeta {
        SegMeta { len, dead_bytes: 0 }
    }

    /// The one victim predicate, for a sealed segment: at least a third
    /// of its frame bytes are dead, so a compaction reads at most three
    /// bytes per byte it frees. A segment where every other verdict was
    /// superseded qualifies even when its dead frames are a little
    /// shorter than its live ones.
    fn worth_compacting(&self) -> bool {
        self.dead_bytes > 0 && self.dead_bytes * 3 >= self.len.saturating_sub(HEADER_LEN)
    }
}

/// The whole frame `loc` names in segment image `seg`, if its length
/// field and CRC still check out.
fn frame_at<'a>(seg: &'a [u8], loc: &Loc) -> Option<&'a [u8]> {
    let start = loc.off as usize;
    let frame = seg.get(start..start + 8 + loc.len as usize)?;
    let len = u32::from_le_bytes(frame[..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(frame[4..8].try_into().expect("4 bytes"));
    (len == loc.len && crc32(&frame[8..]) == crc).then_some(frame)
}

/// Result of fully scanning one segment image.
struct Scan {
    /// Decoded frames in file order: (key, offset, payload len, record).
    records: Vec<(RecKey, u64, u32, Record)>,
    /// Byte length of the good prefix.
    good_len: u64,
    /// Frames (or headers) that had to be skipped or cut.
    errors: u64,
    /// Whether the file can keep serving as a segment. A tail is
    /// healthy whenever its header is (torn frames are truncated
    /// away); a sealed segment with any framing damage is not.
    healthy: bool,
}

/// Walk a raw segment image, decoding every intact frame.
///
/// A frame whose CRC is valid but whose payload violates the schema is
/// *skipped* — the framing is intact, so every later frame is still
/// addressable. Only framing damage (truncation, bit flips, absurd
/// lengths) ends the walk, because nothing after it can be trusted.
fn scan_segment(bytes: &[u8], is_tail: bool) -> Scan {
    let mut scan = Scan {
        records: Vec::new(),
        good_len: 0,
        errors: 0,
        healthy: true,
    };
    if bytes.len() < HEADER_LEN as usize
        || &bytes[..8] != MAGIC
        || u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) != FORMAT_VERSION
    {
        scan.errors = 1;
        scan.healthy = false;
        return scan;
    }
    let mut pos = HEADER_LEN as usize;
    loop {
        if pos == bytes.len() {
            break; // clean end of segment
        }
        if bytes.len() - pos < 8 {
            scan.errors += 1; // truncated frame header
            scan.healthy = is_tail;
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if len > MAX_FRAME_LEN || bytes.len() - pos - 8 < len as usize {
            scan.errors += 1; // truncated or absurd payload
            scan.healthy = is_tail;
            break;
        }
        let payload = &bytes[pos + 8..pos + 8 + len as usize];
        if crc32(payload) != crc {
            scan.errors += 1; // bit flip
            scan.healthy = is_tail;
            break;
        }
        match std::str::from_utf8(payload)
            .ok()
            .and_then(|s| json::parse(s).ok())
            .and_then(|j| decode_record(&j))
        {
            Some(record) => scan
                .records
                .push((record.as_ref().key(), pos as u64, len, record)),
            None => scan.errors += 1, // CRC fine but schema violated: skip
        }
        pos += 8 + len as usize;
    }
    scan.good_len = pos as u64;
    scan
}

/// Whether a record is a pure function of the source and safe to
/// replay on a later boot. `V501` depends on the wall clock / fuel and
/// `V502` may be chaos-injected; neither may survive a restart.
fn persistable<'a>(verdict: Option<Verdict>, mut codes: impl Iterator<Item = &'a str>) -> bool {
    matches!(
        verdict,
        None | Some(Verdict::Accepted) | Some(Verdict::Rejected)
    ) && codes.all(|c| c != "V501" && c != "V502")
}

/// Write one record's payload, a JSON object, to `out`. The caller has
/// checked that the record is [`persistable`].
fn write_record(out: &mut Vec<u8>, record: RecordRef<'_>) {
    let mut o = Obj::open(out);
    match record {
        RecordRef::Unit { fp, summary } => {
            o.str("kind", "unit");
            write_hex(o.key("fp"), [fp]);
            o.str("name", &summary.name);
            o.str(
                "verdict",
                match summary.verdict {
                    Verdict::Accepted => "accepted",
                    _ => "rejected",
                },
            );
            write_arr(
                o.key("diagnostics"),
                &summary.diagnostics,
                proto::write_diag,
            );
            write_counters(o.key("stats"), &summary.stats);
        }
        RecordRef::Fn { fp, views, stats } => {
            o.str("kind", "fn");
            write_hex(o.key("fp"), [fp]);
            write_arr(o.key("diags"), &views.diags, write_relative_diag);
            write_counters(o.key("stats"), stats);
            let callees = views.reads.fns.iter().flat_map(|&(name, sig)| [name, sig]);
            write_hex(
                o.key("reads"),
                std::iter::once(views.reads.rest).chain(callees),
            );
        }
    }
    o.close();
}

/// Write `words` as one JSON string of 16 lowercase hex digits each:
/// keys are hex strings because [`Json`] holds numbers as `f64`.
fn write_hex(out: &mut Vec<u8>, words: impl IntoIterator<Item = u64>) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push(b'"');
    for word in words {
        out.extend((0..16).rev().map(|i| HEX[(word >> (4 * i)) as usize & 0xf]));
    }
    out.push(b'"');
}

fn decode_record(j: &Json) -> Option<Record> {
    let fp = u64::from_str_radix(j.get("fp")?.as_str()?, 16).ok()?;
    match j.get("kind")?.as_str()? {
        "unit" => {
            let verdict = match j.get("verdict")?.as_str()? {
                "accepted" => Verdict::Accepted,
                "rejected" => Verdict::Rejected,
                _ => return None,
            };
            let diagnostics = decode_diags(j.get("diagnostics")?)?;
            let summary = CheckSummary {
                name: j.get("name")?.as_str()?.to_string(),
                verdict,
                diagnostics,
                stats: decode_stats(j.get("stats")?)?,
            };
            if !persistable(
                Some(summary.verdict),
                summary.diagnostics.iter().map(|d| d.code.as_str()),
            ) {
                return None;
            }
            Some(Record::Unit { fp, summary })
        }
        "fn" => {
            let diags = j
                .get("diags")?
                .as_arr()?
                .iter()
                .map(decode_relative_diag)
                .collect::<Option<Vec<_>>>()?;
            if !persistable(None, diags.iter().map(|d| d.code.as_str())) {
                return None;
            }
            let views = FnVerdict {
                diags,
                reads: decode_reads(j.get("reads")?.as_str()?)?,
            };
            Some(Record::Fn {
                fp,
                views: Arc::new(views),
                stats: decode_stats(j.get("stats")?)?,
            })
        }
        _ => None,
    }
}

/// A read set as one hex string: the non-function fingerprint, then a
/// `(name hash, signature fingerprint)` pair per callee, 16 digits each
/// (written by [`write_record`]).
fn decode_reads(hex: &str) -> Option<ReadSet> {
    if !hex.is_ascii() || hex.len() % 32 != 16 {
        return None;
    }
    let word = |i: usize| u64::from_str_radix(&hex[i * 16..(i + 1) * 16], 16).ok();
    Some(ReadSet {
        rest: word(0)?,
        fns: (0..hex.len() / 32)
            .map(|k| Some((word(1 + 2 * k)?, word(2 + 2 * k)?)))
            .collect::<Option<_>>()?,
    })
}

/// A declaration-relative diagnostic: spans as offsets from the
/// declaration start, no line/column and no rendering (both depend on
/// where the declaration sits when a check assembles it).
fn write_relative_diag(out: &mut Vec<u8>, d: &Diagnostic) {
    let mut o = Obj::open(out);
    o.str("code", d.code.as_str());
    o.str("severity", d.severity.as_str());
    o.str("message", &d.message);
    o.num("start", d.span.start as u64);
    o.num("end", d.span.end as u64);
    write_arr(o.key("labels"), &d.labels, |out, l| {
        let mut o = Obj::open(out);
        o.str("message", &l.message);
        o.num("start", l.span.start as u64);
        o.num("end", l.span.end as u64);
        o.close();
    });
    o.close();
}

fn decode_relative_diag(j: &Json) -> Option<Diagnostic> {
    let span = |j: &Json| {
        let start = j.get("start")?.as_u64()? as u32;
        let end = j.get("end")?.as_u64()? as u32;
        (start <= end).then(|| Span::new(start, end))
    };
    Some(Diagnostic {
        code: Code::from_str_code(j.get("code")?.as_str()?)?,
        severity: Severity::from_str_severity(j.get("severity")?.as_str()?)?,
        span: span(j)?,
        message: j.get("message")?.as_str()?.to_string(),
        labels: j
            .get("labels")?
            .as_arr()?
            .iter()
            .map(|l| {
                Some(Label {
                    span: span(l)?,
                    message: l.get("message")?.as_str()?.to_string(),
                })
            })
            .collect::<Option<Vec<_>>>()?,
    })
}

fn decode_diags(j: &Json) -> Option<Vec<DiagView>> {
    j.as_arr()?.iter().map(decode_diag).collect()
}

fn decode_diag(j: &Json) -> Option<DiagView> {
    Some(DiagView {
        code: j.get("code")?.as_str()?.to_string(),
        severity: j.get("severity")?.as_str()?.to_string(),
        message: j.get("message")?.as_str()?.to_string(),
        start: j.get("start")?.as_u64()? as u32,
        end: j.get("end")?.as_u64()? as u32,
        line: j.get("line")?.as_u64()? as u32,
        col: j.get("col")?.as_u64()? as u32,
        labels: j
            .get("labels")?
            .as_arr()?
            .iter()
            .map(|l| {
                Some(LabelView {
                    message: l.get("message")?.as_str()?.to_string(),
                    line: l.get("line")?.as_u64()? as u32,
                    col: l.get("col")?.as_u64()? as u32,
                })
            })
            .collect::<Option<Vec<_>>>()?,
        rendered: j.get("rendered")?.as_str()?.to_string(),
    })
}

/// The checker counters, without the phase timings: a replayed verdict
/// did none of that work. The wire encoding of [`CheckStats`] extends
/// these.
pub(crate) fn counters(s: &CheckStats) -> [(&'static str, u64); 7] {
    [
        ("statements", s.statements as u64),
        ("calls", s.calls as u64),
        ("joins", s.joins as u64),
        ("loop_iterations", s.loop_iterations as u64),
        ("keys_allocated", s.keys_allocated as u64),
        ("snapshots", s.snapshots as u64),
        ("frames_copied", s.frames_copied as u64),
    ]
}

fn write_counters(out: &mut Vec<u8>, s: &CheckStats) {
    let mut o = Obj::open(out);
    for (key, value) in counters(s) {
        o.num(key, value);
    }
    o.close();
}

fn decode_stats(j: &Json) -> Option<CheckStats> {
    // Timing fields are deliberately not persisted: a replayed verdict
    // did zero work on this boot, so its phase times are zero.
    Some(CheckStats {
        statements: j.get("statements")?.as_u64()? as usize,
        calls: j.get("calls")?.as_u64()? as usize,
        joins: j.get("joins")?.as_u64()? as usize,
        loop_iterations: j.get("loop_iterations")?.as_u64()? as usize,
        keys_allocated: j.get("keys_allocated")?.as_u64()? as usize,
        snapshots: j.get("snapshots")?.as_u64()? as usize,
        frames_copied: j.get("frames_copied")?.as_u64()? as usize,
        ..CheckStats::default()
    })
}

/// The CRC-32 lookup tables for slicing by 8, built at compile time:
/// `CRC_TABLES[0]` is the classic bytewise table, and `CRC_TABLES[k][b]`
/// is the CRC of byte `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`), the same
/// checksum gzip and PNG use. Slice-by-8: eight table lookups fold in
/// eight bytes at a time, and the last `len % 8` bytes go one at a time.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// The bytewise CRC-32 loop, the oracle [`crc32`] is tested against.
#[cfg(test)]
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vault-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn summary(name: &str, verdict: Verdict) -> CheckSummary {
        CheckSummary {
            name: name.to_string(),
            verdict,
            diagnostics: Vec::new(),
            stats: CheckStats {
                statements: 7,
                ..Default::default()
            },
        }
    }

    fn unit(fp: u64, name: &str, verdict: Verdict) -> Record {
        Record::Unit {
            fp,
            summary: summary(name, verdict),
        }
    }

    fn open(dir: &Path) -> (VerdictStore, Loaded) {
        VerdictStore::open(dir, StoreConfig::default()).unwrap()
    }

    /// Segments this small seal every one or two appends.
    const SMALL: StoreConfig = StoreConfig {
        segment_max_bytes: 300,
        max_bytes: None,
    };

    /// One `append` of an accepted unit record per fingerprint.
    fn append_units(store: &VerdictStore, fps: impl IntoIterator<Item = u64>) {
        for fp in fps {
            store
                .append(&[unit(fp, "u.vlt", Verdict::Accepted)])
                .unwrap();
        }
    }

    /// Names of every entry in `dir`, sorted.
    fn dir_listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    fn unit_fps(loaded: &Loaded) -> Vec<u64> {
        loaded.units.iter().map(|(fp, _)| *fp).collect()
    }

    /// The live unit view after replay: later records win.
    fn live_units(loaded: &Loaded) -> HashMap<u64, CheckSummary> {
        loaded.units.iter().cloned().collect()
    }

    /// The payload the frame writer writes for `record`, or `None` when
    /// the record may not be persisted.
    fn payload(record: &Record) -> Option<String> {
        let record = record.as_ref();
        record.persistable().then(|| {
            let mut out = Vec::new();
            write_record(&mut out, record);
            String::from_utf8(out).expect("payloads are UTF-8")
        })
    }

    #[test]
    fn record_writer_and_crc_match_their_oracles() {
        let (summaries, mut records) = crate::proto::tests::writer_inputs();
        records.extend(
            summaries
                .into_iter()
                .enumerate()
                .map(|(i, summary)| Record::Unit {
                    fp: (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    summary,
                }),
        );
        let mut written = (0, 0);
        for record in &records {
            let Some(line) = payload(record) else {
                continue;
            };
            let parsed = json::parse(&line).unwrap();
            assert_eq!(parsed.to_line(), line, "a payload is canonical JSON");
            let decoded = decode_record(&parsed).expect("a payload decodes");
            assert_eq!(payload(&decoded).as_deref(), Some(line.as_str()));
            match (record, &decoded) {
                (Record::Unit { fp, summary }, Record::Unit { fp: f, summary: s }) => {
                    assert_eq!(
                        (fp, &summary.name, summary.verdict),
                        (f, &s.name, s.verdict)
                    );
                    assert_eq!(summary.diagnostics, s.diagnostics);
                    assert_eq!(counters(&summary.stats), counters(&s.stats));
                    written.0 += 1;
                }
                (
                    Record::Fn { fp, views, stats },
                    Record::Fn {
                        fp: f,
                        views: v,
                        stats: t,
                    },
                ) => {
                    assert_eq!((fp, views), (f, v));
                    assert_eq!(counters(stats), counters(t));
                    written.1 += 1;
                }
                _ => panic!("a record decoded as the other kind"),
            }
        }
        assert!(written.0 > 500 && written.1 > 1000, "walked {written:?}");

        // Slice-by-8 against the bytewise loop: every length 0..=4096 at
        // every start offset modulo 8, over random bytes.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC3C3);
        let buf: Vec<u8> = (0..4096 + 8).map(|_| rng.gen_range(0..=255u8)).collect();
        for off in 0..8 {
            for len in 0..=4096 {
                let bytes = &buf[off..off + len];
                assert_eq!(crc32(bytes), crc32_bytewise(bytes), "off {off} len {len}");
            }
        }
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // Canonical check values for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// A function verdict that read one callee.
    fn fn_verdict(diags: Vec<Diagnostic>) -> Arc<FnVerdict> {
        Arc::new(FnVerdict {
            diags,
            reads: ReadSet {
                rest: 0x0123_4567_89ab_cdef,
                fns: vec![(0xfeed, 0xbeef)].into(),
            },
        })
    }

    #[test]
    fn round_trips_unit_and_fn_records() {
        let dir = tmp_dir("roundtrip");
        let (store, loaded) = open(&dir);
        assert_eq!(loaded.errors, 0);
        assert!(loaded.units.is_empty());
        store
            .append(&[
                unit(0xDEAD_BEEF_0000_0001, "a.vlt", Verdict::Accepted),
                Record::Fn {
                    fp: 2,
                    views: fn_verdict(vec![Diagnostic::error(
                        Code::KeyNotHeld,
                        Span::new(1, 2),
                        "leak",
                    )
                    .with_label(Span::new(0, 1), "opened here")]),
                    stats: CheckStats {
                        calls: 3,
                        ..Default::default()
                    },
                },
            ])
            .unwrap();
        assert_eq!(store.health().live_frames, 2);
        drop(store);

        let (_store, loaded) = open(&dir);
        assert_eq!(loaded.errors, 0);
        assert_eq!(loaded.units.len(), 1);
        assert_eq!(loaded.units[0].0, 0xDEAD_BEEF_0000_0001);
        assert_eq!(loaded.units[0].1, summary("a.vlt", Verdict::Accepted));
        assert_eq!(loaded.fns.len(), 1);
        assert_eq!(loaded.fns[0].0, 2);
        assert_eq!(
            loaded.fns[0].1,
            fn_verdict(vec![Diagnostic::error(
                Code::KeyNotHeld,
                Span::new(1, 2),
                "leak"
            )
            .with_label(Span::new(0, 1), "opened here")])
        );
        assert_eq!(loaded.fns[0].2.calls, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_encoding_is_byte_stable() {
        // The frame payloads of one unit record (a diagnostic with a
        // label) and one function record, byte for byte: a store must
        // replay under every build of one format, so any change here
        // needs a `FORMAT_VERSION` bump.
        let src = "void f() {\n  tracked(F) FILE x = fopen();\n}\n";
        let diag = Diagnostic::error(Code::KeyLeak, Span::new(13, 40), "key `F` leaks")
            .with_label(Span::new(0, 8), "declared here");
        let unit = Record::Unit {
            fp: 0x0123_4567_89ab_cdef,
            summary: CheckSummary {
                name: "a.vlt".to_string(),
                verdict: Verdict::Rejected,
                diagnostics: vec![DiagView::new(
                    &diag,
                    &vault_syntax::SourceMap::new("a.vlt", src),
                )],
                stats: CheckStats {
                    statements: 4,
                    calls: 1,
                    frames_copied: 2,
                    check_micros: 99,
                    ..Default::default()
                },
            },
        };
        let func = Record::Fn {
            fp: 7,
            views: fn_verdict(vec![diag]),
            stats: CheckStats {
                joins: 3,
                lex_micros: 5,
                ..Default::default()
            },
        };
        assert_eq!(
            payload(&unit).unwrap(),
            r#"{"kind":"unit","fp":"0123456789abcdef","name":"a.vlt","verdict":"rejected","diagnostics":[{"code":"V304","severity":"error","message":"key `F` leaks","start":13,"end":40,"line":2,"col":3,"labels":[{"message":"declared here","line":1,"col":1}],"rendered":"error[V304]: key `F` leaks\n  --> a.vlt:2:3\n   |   tracked(F) FILE x = fopen();\n   |   ^^^^^^^^^^^^^^^^^^^^^^^^^^^\n   = note: declared here (at a.vlt:1:1)\n"}],"stats":{"statements":4,"calls":1,"joins":0,"loop_iterations":0,"keys_allocated":0,"snapshots":0,"frames_copied":2}}"#
        );
        assert_eq!(
            payload(&func).unwrap(),
            r#"{"kind":"fn","fp":"0000000000000007","diags":[{"code":"V304","severity":"error","message":"key `F` leaks","start":13,"end":40,"labels":[{"message":"declared here","start":0,"end":8}]}],"stats":{"statements":0,"calls":0,"joins":3,"loop_iterations":0,"keys_allocated":0,"snapshots":0,"frames_copied":0},"reads":"0123456789abcdef000000000000feed000000000000beef"}"#
        );
    }

    #[test]
    fn nondeterministic_verdicts_are_never_written() {
        let dir = tmp_dir("nondet");
        let (store, _) = open(&dir);
        store
            .append(&[
                unit(1, "a.vlt", Verdict::ResourceLimit),
                unit(2, "b.vlt", Verdict::InternalError),
                Record::Fn {
                    fp: 3,
                    views: fn_verdict(vec![Diagnostic::error(
                        Code::LimitExceeded,
                        Span::new(0, 0),
                        "deadline exceeded",
                    )]),
                    stats: CheckStats::default(),
                },
            ])
            .unwrap();
        drop(store);
        let (_store, loaded) = open(&dir);
        assert_eq!(loaded.errors, 0);
        assert!(loaded.units.is_empty());
        assert!(loaded.fns.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_replays_the_good_prefix_and_counts_one_error() {
        let dir = tmp_dir("trunc");
        let (store, _) = open(&dir);
        store
            .append(&[
                unit(1, "a.vlt", Verdict::Accepted),
                unit(2, "b.vlt", Verdict::Rejected),
            ])
            .unwrap();
        let path = store.tail_path();
        drop(store);

        // Chop mid-way through the second frame (a crash mid-append).
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 11).unwrap();
        drop(f);

        let (store, loaded) = open(&dir);
        assert_eq!(loaded.errors, 1);
        assert_eq!(unit_fps(&loaded), vec![1]);
        // The torn tail was truncated away: appends extend good data.
        store
            .append(&[unit(3, "c.vlt", Verdict::Accepted)])
            .unwrap();
        drop(store);
        let (_store, loaded) = open(&dir);
        assert_eq!(loaded.errors, 0);
        assert_eq!(unit_fps(&loaded), vec![1, 3]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_truncates_the_tail_at_the_corrupt_frame() {
        let dir = tmp_dir("flip");
        let (store, _) = open(&dir);
        store
            .append(&[
                unit(1, "a.vlt", Verdict::Accepted),
                unit(2, "b.vlt", Verdict::Rejected),
            ])
            .unwrap();
        let path = store.tail_path();
        drop(store);

        // Flip one payload bit in the *first* frame: its CRC fails, so
        // the frame boundary itself is untrusted and everything after
        // it in this segment is dropped too.
        let mut bytes = std::fs::read(&path).unwrap();
        let target = HEADER_LEN as usize + 8 + 5;
        bytes[target] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let (_store, loaded) = open(&dir);
        assert_eq!(loaded.errors, 1);
        assert!(loaded.units.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema_bad_frame_with_valid_crc_is_skipped_not_fatal() {
        // Regression for the v1 tail-loss bug: a frame whose CRC is
        // fine but whose JSON violates the schema used to discard
        // every frame after it. Frame boundaries are intact, so only
        // the bad frame may be lost.
        let dir = tmp_dir("schema-skip");
        let (store, _) = open(&dir);
        store
            .append(&[unit(1, "a.vlt", Verdict::Accepted)])
            .unwrap();
        let path = store.tail_path();
        drop(store);

        // Splice a valid-CRC garbage-JSON frame mid-log...
        let mut bytes = std::fs::read(&path).unwrap();
        let garbage = br#"{"kind":"mystery","fp":"zz"}"#;
        let mut frame = Vec::new();
        frame.extend_from_slice(&(garbage.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(garbage).to_le_bytes());
        frame.extend_from_slice(garbage);
        bytes.extend_from_slice(&frame);
        std::fs::write(&path, &bytes).unwrap();

        // ...then append a real record after it.
        let (store, loaded) = open(&dir);
        assert_eq!(loaded.errors, 1);
        assert_eq!(unit_fps(&loaded), vec![1]);
        store
            .append(&[unit(2, "b.vlt", Verdict::Rejected)])
            .unwrap();
        drop(store);
        let (_store, loaded) = open(&dir);
        assert_eq!(loaded.errors, 1, "garbage frame is skipped every boot");
        assert_eq!(unit_fps(&loaded), vec![1, 2], "frames after it survive");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_quarantines_the_segment() {
        let dir = tmp_dir("version");
        let (store, _) = open(&dir);
        store
            .append(&[unit(1, "a.vlt", Verdict::Accepted)])
            .unwrap();
        let path = store.tail_path();
        drop(store);

        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] = bytes[8].wrapping_add(1); // future format version
        std::fs::write(&path, &bytes).unwrap();

        let (store, loaded) = open(&dir);
        assert_eq!(loaded.errors, 1);
        assert_eq!(loaded.quarantined, 1);
        assert!(loaded.units.is_empty());
        assert_eq!(store.health().segments_quarantined, 1);
        // The bad file was renamed aside, not destroyed.
        assert!(!path.exists());
        assert!(
            path.with_extension("vseg.bad").exists() || {
                let mut bad = path.as_os_str().to_owned();
                bad.push(".bad");
                PathBuf::from(bad).exists()
            }
        );
        // A fresh tail is usable immediately.
        store
            .append(&[unit(2, "b.vlt", Verdict::Rejected)])
            .unwrap();
        drop(store);
        let (_store, loaded) = open(&dir);
        assert_eq!(loaded.errors, 0);
        assert_eq!(unit_fps(&loaded), vec![2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wipe_empties_the_store_on_disk() {
        let dir = tmp_dir("wipe");
        let (store, _) = VerdictStore::open(&dir, SMALL).unwrap();
        append_units(&store, 1..=8);
        assert!(
            store.health().segments_sealed > 0,
            "tiny segments must seal"
        );
        store.wipe().unwrap();
        assert_eq!(store.health().live_frames, 0);
        // Appends after a wipe still land on a valid header.
        store
            .append(&[unit(9, "b.vlt", Verdict::Rejected)])
            .unwrap();
        drop(store);
        let (_store, loaded) = VerdictStore::open(&dir, SMALL).unwrap();
        assert_eq!(loaded.errors, 0);
        assert_eq!(unit_fps(&loaded), vec![9]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn leftover_v1_log_is_ignored() {
        let dir = tmp_dir("v1-leftover");
        std::fs::create_dir_all(&dir).unwrap();
        let v1 = dir.join("verdicts.vcache");
        std::fs::write(&v1, b"VAULTCCH\x01\x00\x00\x00").unwrap();
        let (store, loaded) = open(&dir);
        assert_eq!((loaded.errors, loaded.quarantined), (0, 0));
        assert!(loaded.units.is_empty() && loaded.fns.is_empty());
        assert!(v1.exists(), "an unknown file is left alone");
        drop(store);

        // An older build also kept an `index.vidx` of live frames. A
        // leftover one, however wrong, must not hide a single frame.
        let (store, _) = VerdictStore::open(&dir, SMALL).unwrap();
        append_units(&store, 1..=10);
        assert!(store.health().segments_sealed >= 2);
        drop(store);
        let index = dir.join("index.vidx");
        std::fs::write(&index, b"VAULTIDX\x01\x00\x00\x00garbage").unwrap();
        // Older builds compacted through `seg-N.vseg.tmp` files. A
        // leftover one is never adopted, even when it holds a whole
        // valid segment image.
        let tmp = dir.join(format!("{}.tmp", segment_file_name(0)));
        let other = tmp_dir("v1-leftover-tmp");
        let (s, _) = open(&other);
        s.append(&[unit(99, "z.vlt", Verdict::Rejected)]).unwrap();
        std::fs::copy(s.tail_path(), &tmp).unwrap();
        drop(s);
        let _ = std::fs::remove_dir_all(&other);
        let (store, loaded) = VerdictStore::open(&dir, SMALL).unwrap();
        assert_eq!((loaded.errors, loaded.quarantined), (0, 0));
        assert_eq!(unit_fps(&loaded), (1..=10).collect::<Vec<_>>());
        assert!(
            index.exists() && v1.exists() && tmp.exists(),
            "unknown files are left alone"
        );
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_directory_holds_only_segments() {
        let dir = tmp_dir("only-segments");
        let only_segments = |when: &str| {
            let names = dir_listing(&dir);
            assert!(!names.is_empty(), "{when}: no tail segment");
            for name in names {
                assert!(
                    parse_segment_id(&name).is_some(),
                    "{when}: unexpected file `{name}`"
                );
            }
        };
        let (store, _) = VerdictStore::open(&dir, SMALL).unwrap();
        only_segments("after open");
        // Write every fingerprint twice so sealed segments go dead.
        append_units(&store, (1..=8).chain(1..=8));
        assert!(store.health().segments_sealed >= 3);
        only_segments("after sealing");
        assert!(store.needs_maintenance());
        store.maintain().unwrap();
        assert!(store.health().compactions_run >= 1);
        only_segments("after maintenance");
        store.wipe().unwrap();
        only_segments("after wipe");
        drop(store);
        let (_s, loaded) = VerdictStore::open(&dir, SMALL).unwrap();
        assert!(loaded.units.is_empty());
        only_segments("after reopen");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn boot_crc_checks_superseded_frames() {
        let dir = tmp_dir("dead-frame-flip");
        let (store, _) = VerdictStore::open(&dir, SMALL).unwrap();
        append_units(&store, 1..=10);
        // Supersede fp 1: its frame in the first sealed segment is now
        // dead, and nothing at boot needs to read it for its value.
        store
            .append(&[unit(1, "u.vlt", Verdict::Rejected)])
            .unwrap();
        assert!(store.health().segments_sealed >= 2);
        drop(store);
        // One clean boot first, so a boot that skipped frames it knew
        // to be dead would skip this one.
        drop(VerdictStore::open(&dir, SMALL).unwrap());
        let seg0 = dir.join(segment_file_name(0));
        let mut bytes = std::fs::read(&seg0).unwrap();
        bytes[HEADER_LEN as usize + 8 + 5] ^= 0x10; // inside fp 1's dead frame
        std::fs::write(&seg0, &bytes).unwrap();

        let (_s, loaded) = VerdictStore::open(&dir, SMALL).unwrap();
        assert_eq!(loaded.errors, 1, "the dead frame's CRC was checked");
        assert_eq!(loaded.quarantined, 1);
        assert!(!seg0.exists(), "the segment was renamed aside");
        let live = live_units(&loaded);
        assert_eq!(live[&1].verdict, Verdict::Rejected, "the newer frame wins");
        assert!(live.contains_key(&10), "later segments still load");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sealing_splits_the_store_and_reopen_loads_every_segment() {
        let dir = tmp_dir("seal");
        let (store, _) = VerdictStore::open(&dir, SMALL).unwrap();
        append_units(&store, 1..=10);
        let health = store.health();
        assert!(health.segments_sealed >= 2, "got {health:?}");
        assert_eq!(health.live_frames, 10);
        drop(store);
        let (_store, loaded) = VerdictStore::open(&dir, SMALL).unwrap();
        assert_eq!(loaded.errors, 0);
        assert_eq!(unit_fps(&loaded), (1..=10).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_reclaims_superseded_frames() {
        let dir = tmp_dir("compact");
        let cfg = StoreConfig {
            segment_max_bytes: 400,
            max_bytes: None,
        };
        let (store, _) = VerdictStore::open(&dir, cfg).unwrap();
        // Fill sealed segments with verdicts, then supersede them all.
        for round in 0..3 {
            for fp in 1..=6 {
                let v = if round == 2 {
                    Verdict::Rejected
                } else {
                    Verdict::Accepted
                };
                store.append(&[unit(fp, "u.vlt", v)]).unwrap();
            }
        }
        let before = store.health();
        assert!(before.segments_sealed >= 1);
        assert!(store.needs_maintenance(), "sealed segments are mostly dead");
        store.maintain().unwrap();
        let after = store.health();
        assert!(after.compactions_run >= 1, "got {after:?}");
        assert!(after.bytes_reclaimed > 0);
        assert!(after.disk_bytes < before.disk_bytes);
        assert_eq!(after.live_frames, 6);
        drop(store);
        // Every surviving answer is the latest one.
        let (_s, loaded) = VerdictStore::open(&dir, cfg).unwrap();
        assert_eq!(loaded.errors, 0);
        let live = live_units(&loaded);
        assert_eq!(live.len(), 6);
        for fp in 1..=6 {
            assert_eq!(live[&fp].verdict, Verdict::Rejected, "fp {fp}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Segments this size hold two unit frames each.
    const PAIRS: StoreConfig = StoreConfig {
        segment_max_bytes: 500,
        max_bytes: None,
    };

    /// A store whose one compaction victim still holds a live frame:
    /// units 1–6 accepted two to a segment, then unit 1 rejected in a
    /// fresh tail, so segment 0 holds dead unit 1 and live unit 2.
    /// Returns the store, reopened, with the view its boot replayed;
    /// the caller runs the pass.
    fn store_with_one_victim(dir: &Path) -> (VerdictStore, HashMap<u64, CheckSummary>) {
        let (store, _) = VerdictStore::open(dir, PAIRS).unwrap();
        append_units(&store, 1..=6);
        store
            .append(&[unit(1, "u.vlt", Verdict::Rejected)])
            .unwrap();
        drop(store);
        let (store, loaded) = VerdictStore::open(dir, PAIRS).unwrap();
        (store, live_units(&loaded))
    }

    /// One pass over [`store_with_one_victim`]: returns the victim's
    /// path and bytes, the tail's path and its length before the copy.
    fn compact_one_victim(store: &VerdictStore, dir: &Path) -> (PathBuf, Vec<u8>, PathBuf, u64) {
        let victim = dir.join(segment_file_name(0));
        let image = std::fs::read(&victim).unwrap();
        let tail = store.tail_path();
        let pre = std::fs::metadata(&tail).unwrap().len();
        store.maintain().unwrap();
        assert!(!victim.exists(), "the victim was deleted");
        assert_eq!(store.tail_path(), tail, "the copy fit the tail");
        let post = std::fs::metadata(&tail).unwrap().len();
        assert!(post > pre, "the live frame was copied forward");
        (victim, image, tail, pre)
    }

    #[test]
    fn restart_between_copy_fsync_and_delete_keeps_the_newest_verdicts() {
        let dir = tmp_dir("crash-pre-delete");
        let (store, expected) = store_with_one_victim(&dir);
        let (victim, image, _, _) = compact_one_victim(&store, &dir);
        drop(store);
        // Crash here: the copies are durable, the victim not yet gone.
        std::fs::write(&victim, &image).unwrap();
        let (store, recovered) = VerdictStore::open(&dir, PAIRS).unwrap();
        assert_eq!(recovered.errors, 0, "victim and copies scan cleanly");
        assert_eq!(live_units(&recovered), expected, "newest verdicts win");
        assert_eq!(expected[&1].verdict, Verdict::Rejected);
        // The victim is all dead now; the next pass deletes it.
        assert!(store.needs_maintenance());
        store.maintain().unwrap();
        assert!(!victim.exists(), "the next pass deleted the victim");
        drop(store);
        let (_s, loaded) = VerdictStore::open(&dir, PAIRS).unwrap();
        assert_eq!(loaded.errors, 0);
        assert_eq!(live_units(&loaded), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_inside_a_torn_copy_keeps_the_old_view() {
        let dir = tmp_dir("crash-torn-copy");
        let (store, expected) = store_with_one_victim(&dir);
        let (victim, image, tail, pre) = compact_one_victim(&store, &dir);
        drop(store);
        // Crash here: the copy is torn mid-frame and was never fsynced,
        // so the victim was never deleted.
        std::fs::write(&victim, &image).unwrap();
        let f = OpenOptions::new().write(true).open(&tail).unwrap();
        f.set_len(pre + 10).unwrap();
        drop(f);
        let (_s, recovered) = VerdictStore::open(&dir, PAIRS).unwrap();
        assert_eq!(recovered.errors, 1, "the torn copy is cut away");
        assert_eq!(live_units(&recovered), expected, "old view, exactly");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wipe_during_maintenance_never_resurrects_a_verdict() {
        let dir = tmp_dir("wipe-race");
        for round in 0..8 {
            let (store, _) = VerdictStore::open(&dir, SMALL).unwrap();
            append_units(&store, (1..=12).chain(1..=12));
            assert!(store.needs_maintenance(), "round {round}");
            let store = Arc::new(store);
            let start = Arc::new(std::sync::Barrier::new(2));
            let pass = {
                let (store, start) = (Arc::clone(&store), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    store.maintain().unwrap();
                })
            };
            start.wait();
            store.wipe().unwrap();
            pass.join().unwrap();
            drop(store);
            let (_s, loaded) = VerdictStore::open(&dir, SMALL).unwrap();
            assert_eq!(loaded.errors, 0, "round {round}");
            assert!(
                loaded.units.is_empty(),
                "round {round}: a verdict from before the wipe came back"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_max_bytes_evicts_oldest_segments_until_the_store_fits() {
        let dir = tmp_dir("bound");
        let cfg = StoreConfig {
            segment_max_bytes: 300,
            max_bytes: Some(1000),
        };
        let (store, _) = VerdictStore::open(&dir, cfg).unwrap();
        // Distinct fingerprints: nothing is superseded, so compaction
        // alone cannot shrink the store — eviction must.
        append_units(&store, 1..=40);
        assert!(store.health().disk_bytes > 1000);
        assert!(store.needs_maintenance());
        store.maintain().unwrap();
        let health = store.health();
        assert!(health.disk_bytes <= 1000, "got {health:?}");
        assert!(health.bytes_reclaimed > 0);
        assert!(health.live_frames < 40, "eviction dropped old warmth");
        assert!(health.live_frames > 0, "newest verdicts survive");
        drop(store);
        // The survivors replay cleanly, newest-first semantics intact.
        let (_s, loaded) = VerdictStore::open(&dir, cfg).unwrap();
        assert_eq!(loaded.errors, 0);
        let live = live_units(&loaded);
        assert!(live.contains_key(&40), "the newest verdict must survive");
        assert!(!live.contains_key(&1), "the oldest segment was evicted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_bounded_pass_evicts_the_oldest_segment_without_copying_it() {
        let dir = tmp_dir("evict-first");
        // Segment 0 holds dead unit 1 and live unit 2.
        let (store, _) = store_with_one_victim(&dir);
        let total = store.health().disk_bytes;
        drop(store);
        let victim = dir.join(segment_file_name(0));
        let victim_len = std::fs::metadata(&victim).unwrap().len();
        // Room for everything but segment 0, whose live frame alone
        // keeps the store's live bytes over the bound.
        let cfg = StoreConfig {
            max_bytes: Some(total - victim_len),
            ..PAIRS
        };
        let (store, _) = VerdictStore::open(&dir, cfg).unwrap();
        assert!(store.needs_maintenance());
        let tail = store.tail_path();
        let pre = std::fs::metadata(&tail).unwrap().len();
        store.maintain().unwrap();
        assert!(!victim.exists(), "the oldest segment was evicted");
        assert_eq!(store.tail_path(), tail);
        assert_eq!(
            std::fs::metadata(&tail).unwrap().len(),
            pre,
            "none of its frames were copied into the tail"
        );
        let health = store.health();
        assert_eq!((health.compactions_run, health.live_frames), (0, 5));
        assert_eq!(health.disk_bytes, total - victim_len);
        drop(store);
        let (_s, loaded) = VerdictStore::open(&dir, cfg).unwrap();
        assert_eq!(loaded.errors, 0);
        let live = live_units(&loaded);
        let mut fps: Vec<u64> = live.keys().copied().collect();
        fps.sort_unstable();
        assert_eq!(fps, [1, 3, 4, 5, 6]);
        assert_eq!(live[&1].verdict, Verdict::Rejected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_bounded_pass_leaves_a_lightly_dead_segment_unread() {
        let dir = tmp_dir("light-dead");
        // Ten unit frames to a segment: units 1–30 fill segments 0–2,
        // then unit 11 again seals segment 2 and lands in tail 3, so
        // segment 1 is 10% dead.
        let frame = payload(&unit(1, "u.vlt", Verdict::Accepted)).unwrap().len() as u64 + 8;
        let seg_len = HEADER_LEN + 10 * frame;
        let cfg = StoreConfig {
            segment_max_bytes: seg_len,
            // Room for everything but segment 0.
            max_bytes: Some(4 * HEADER_LEN + 31 * frame - seg_len),
        };
        let (store, _) = VerdictStore::open(&dir, cfg).unwrap();
        append_units(&store, 1..=30);
        store
            .append(&[unit(11, "u.vlt", Verdict::Rejected)])
            .unwrap();
        assert_eq!(store.health().segments_sealed, 3);
        assert!(store.needs_maintenance(), "the store is over its bound");
        let light = dir.join(segment_file_name(1));
        let image = std::fs::read(&light).unwrap();
        let tail = store.tail_path();
        let pre = std::fs::metadata(&tail).unwrap().len();
        store.maintain().unwrap();
        assert!(!dir.join(segment_file_name(0)).exists(), "oldest evicted");
        assert_eq!(
            std::fs::read(&light).unwrap(),
            image,
            "the 10%-dead segment was left as it was"
        );
        assert_eq!(store.tail_path(), tail);
        assert_eq!(
            std::fs::metadata(&tail).unwrap().len(),
            pre,
            "none of its frames were copied into the tail"
        );
        let health = store.health();
        assert_eq!((health.compactions_run, health.live_frames), (0, 20));
        assert!(health.disk_bytes <= cfg.max_bytes.unwrap());
        drop(store);
        let (_s, loaded) = VerdictStore::open(&dir, cfg).unwrap();
        assert_eq!(loaded.errors, 0);
        let live = live_units(&loaded);
        assert_eq!(live.len(), 20);
        assert_eq!(live[&11].verdict, Verdict::Rejected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_sealed_segment_is_quarantined_and_the_rest_load() {
        let dir = tmp_dir("quarantine-sealed");
        let (store, _) = VerdictStore::open(&dir, SMALL).unwrap();
        append_units(&store, 1..=10);
        assert!(store.health().segments_sealed >= 2);
        drop(store);
        // Bit-flip the middle of the first sealed segment.
        let seg0 = dir.join(segment_file_name(0));
        let mut bytes = std::fs::read(&seg0).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&seg0, &bytes).unwrap();

        let (store, loaded) = VerdictStore::open(&dir, SMALL).unwrap();
        assert_eq!(loaded.quarantined, 1);
        assert!(loaded.errors >= 1);
        assert!(!seg0.exists(), "bad segment renamed aside");
        // Frames before the flip and every later segment still loaded.
        let live = live_units(&loaded);
        assert!(live.contains_key(&10));
        assert!(live.len() < 10, "some warmth was lost to the flip");
        assert!(!live.is_empty());
        // The store keeps serving.
        store
            .append(&[unit(99, "z.vlt", Verdict::Rejected)])
            .unwrap();
        drop(store);
        let (_s, loaded) = VerdictStore::open(&dir, SMALL).unwrap();
        assert!(live_units(&loaded).contains_key(&99));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
