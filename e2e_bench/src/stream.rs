//! Seeded request streams for the four workloads.
//!
//! Every stream is a pure function of the workload name and the seed:
//! the same seed gives byte-identical request lines. Sources are held
//! as shared [`Chunk`]s whose JSON string escape is computed once, so a
//! request line is assembled by concatenation inside the timed loop and
//! thousands of versions of a large unit cost little memory.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;
use vault_corpus::synth::{self, ProjectConfig, Shape, SynthConfig};
use vault_server::{Json, UnitIn};

/// Client connections of the open loop, each driven by one thread: the
/// host has two cores, and `vaultd` runs `--jobs 2` on the same machine.
/// The closed loops use one connection: one client waiting on each reply
/// leaves the daemon's two workers the cores, and every replay of a
/// request then meets the same daemon state.
pub const CONNECTIONS: usize = 2;

/// The workload names, in the order a full run visits them.
pub const NAMES: [&str; 4] = [
    "edit_stream",
    "cold_batch",
    "project_rebuild",
    "shared_cache_open",
];

/// Offered load of `shared_cache_open`, in requests per second across
/// both connections: a quarter of the ~2000 req/s `vaultd` sustained on
/// the same mix and store when its two connections were driven closed
/// loop instead (2 cores, at the commit that introduced the benchmark).
/// Frozen, so both sides of a comparison offer the same load. At half
/// that capacity, queueing behind misses amplified the host's own speed
/// swings into the latency medians far past the benchmark's bounds.
pub const SHARED_RATE_RPS: f64 = 500.0;

/// A run of Vault source with its JSON string escape precomputed.
pub struct Chunk {
    raw: String,
    esc: String,
}

impl Chunk {
    /// Wrap `raw`, escaping it once for the wire.
    pub fn new(raw: String) -> Arc<Chunk> {
        let quoted = Json::str(raw.as_str()).to_line();
        let esc = quoted[1..quoted.len() - 1].to_string();
        Arc::new(Chunk { raw, esc })
    }

    /// The source text.
    pub fn raw(&self) -> &str {
        &self.raw
    }
}

/// A source text as a sequence of chunks.
pub type Doc = Vec<Arc<Chunk>>;

/// One compilation unit: a name plus its source as a chunk sequence.
#[derive(Clone)]
pub struct Unit {
    /// The unit name (plain ASCII, needs no JSON escaping).
    pub name: Arc<str>,
    /// The source, in order.
    pub chunks: Doc,
}

impl Unit {
    fn new(name: impl Into<Arc<str>>, chunks: Doc) -> Unit {
        let name = name.into();
        debug_assert!(name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"._-".contains(&b)));
        Unit { name, chunks }
    }

    /// The full source text.
    pub fn source(&self) -> String {
        self.chunks.iter().map(|c| c.raw()).collect()
    }

    /// The unit as the service's input type.
    pub fn to_unit_in(&self) -> UnitIn {
        UnitIn {
            name: self.name.to_string(),
            source: self.source(),
        }
    }
}

/// The wire operation of a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `check`: independent units.
    Check,
    /// `check-project`: an ordered manifest whose units import each other.
    CheckProject,
}

impl Op {
    /// The `op` string on the wire.
    pub fn as_str(self) -> &'static str {
        match self {
            Op::Check => "check",
            Op::CheckProject => "check-project",
        }
    }
}

/// One request of a stream.
#[derive(Clone)]
pub struct Request {
    /// The operation.
    pub op: Op,
    /// The units it carries.
    pub units: Vec<Unit>,
}

impl Request {
    /// Append this request's JSON line, newline included, to `out`.
    pub fn write_line(&self, id: u64, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"op\":\"");
        out.extend_from_slice(self.op.as_str().as_bytes());
        out.extend_from_slice(format!("\",\"id\":{id},\"units\":[").as_bytes());
        for (i, u) in self.units.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            out.extend_from_slice(b"{\"name\":\"");
            out.extend_from_slice(u.name.as_bytes());
            out.extend_from_slice(b"\",\"source\":\"");
            for c in &u.chunks {
                out.extend_from_slice(c.esc.as_bytes());
            }
            out.extend_from_slice(b"\"}");
        }
        out.extend_from_slice(b"]}\n");
    }

    /// The request line without its newline.
    pub fn line(&self, id: u64) -> String {
        let mut out = Vec::new();
        self.write_line(id, &mut out);
        out.pop();
        String::from_utf8(out).expect("request lines are UTF-8")
    }

    /// The units as the service's input type.
    pub fn units_in(&self) -> Vec<UnitIn> {
        self.units.iter().map(Unit::to_unit_in).collect()
    }

    /// The prefix every successful reply to this request starts with.
    pub fn ok_prefix(&self, id: u64) -> String {
        format!("{{\"id\":{id},\"op\":\"{}\",\"ok\":true,", self.op.as_str())
    }
}

/// How requests are offered.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Load {
    /// Each connection sends its next request when the previous reply
    /// is in.
    Closed,
    /// Requests are sent at Poisson arrival times regardless of replies.
    Open {
        /// Offered requests per second, across all connections.
        rate_rps: f64,
    },
}

/// One workload: its streams plus how `vaultd` is configured for it.
pub struct Workload {
    /// The workload name.
    pub name: &'static str,
    /// Closed or open loop.
    pub load: Load,
    /// Replies slower than this miss the latency objective.
    pub latency_limit_ms: f64,
    /// `vaultd --cache N`; `None` keeps the daemon default.
    pub cache_capacity: Option<usize>,
    /// One request stream per connection.
    pub streams: Vec<Vec<Request>>,
    /// Open loop only: each request's send time, as an offset from the
    /// start of the run, per connection.
    pub schedule: Vec<Vec<Duration>>,
    /// Units journaled into the verdict store before the daemon boots.
    /// When non-empty, the daemon also runs with `--cache-max-bytes`
    /// at half of the primed store's size.
    pub prime: Vec<Unit>,
}

impl Workload {
    /// Keep only the first `per_conn` requests of every stream.
    pub fn truncate(&mut self, per_conn: usize) {
        for s in &mut self.streams {
            s.truncate(per_conn);
        }
        for s in &mut self.schedule {
            s.truncate(per_conn);
        }
    }

    /// Requests across all streams.
    pub fn len(&self) -> usize {
        self.streams.iter().map(Vec::len).sum()
    }

    /// Whether every stream is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Build workload `name` for one replay of about `seconds`, or `None`
/// for an unknown name. Closed loops send a fixed number of requests,
/// sized at about four fifths of the rate the commit that introduced the
/// benchmark sustained, so both sides of a comparison do the same work
/// and a replay rarely meets its deadline. The open loop schedules its
/// frozen rate over `seconds`.
pub fn build(name: &str, seed: u64, seconds: f64) -> Option<Workload> {
    // Requests per connection at a frozen rate per connection.
    let sized = |rps_per_conn: f64| (seconds * rps_per_conn).round().max(1.0) as usize;
    let w = match name {
        "edit_stream" => Workload {
            name: "edit_stream",
            load: Load::Closed,
            latency_limit_ms: 50.0,
            cache_capacity: None,
            streams: vec![edit_stream(sub_seed(seed, 10), sized(290.0))],
            schedule: Vec::new(),
            prime: Vec::new(),
        },
        "cold_batch" => Workload {
            name: "cold_batch",
            load: Load::Closed,
            latency_limit_ms: 250.0,
            cache_capacity: None,
            streams: vec![cold_batch(seed, sized(170.0))],
            schedule: Vec::new(),
            prime: Vec::new(),
        },
        "project_rebuild" => Workload {
            name: "project_rebuild",
            load: Load::Closed,
            latency_limit_ms: 250.0,
            cache_capacity: None,
            streams: vec![project_rebuild(sub_seed(seed, 30), sized(16.0))],
            schedule: Vec::new(),
            prime: Vec::new(),
        },
        "shared_cache_open" => {
            let (streams, schedule, prime) =
                shared_cache(seed, sized(SHARED_RATE_RPS / CONNECTIONS as f64));
            Workload {
                name: "shared_cache_open",
                load: Load::Open {
                    rate_rps: SHARED_RATE_RPS,
                },
                latency_limit_ms: 25.0,
                cache_capacity: Some(256),
                schedule: schedule
                    .into_iter()
                    .map(|offsets| {
                        offsets
                            .into_iter()
                            .map(|f| Duration::from_secs_f64(f * seconds))
                            .collect()
                    })
                    .collect(),
                streams,
                prime,
            }
        }
        _ => return None,
    };
    Some(w)
}

/// Seed of the code the gated workloads work on: the files of the
/// `edit_stream` session, the `cold_batch` pool and the `project_rebuild`
/// project. Their size and shape set most of a request's cost, so they
/// are the same for every `--seed`, which draws the traffic over them:
/// the edits, which file or unit each request carries, and the names.
/// Runs with different seeds then measure the same program on the same
/// code.
const CODE_SEED: u64 = 0x5EED_C0DE;

/// A seed for one independent purpose of one run.
fn sub_seed(seed: u64, purpose: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.gen_range(0..u64::MAX)
}

/// Uniform draw from `[0, 1)`.
fn unit_f64(rng: &mut StdRng) -> f64 {
    rng.gen_range(0..1u64 << 53) as f64 / (1u64 << 53) as f64
}

fn single(op: Op, unit: Unit) -> Request {
    Request {
        op,
        units: vec![unit],
    }
}

/// `n` draws from a mix given as `(kind, count)` pairs, dealt in shuffled
/// blocks that each hold every kind exactly `count` times. A run then
/// carries the mix's exact shares, whatever the seed, and so does every
/// stretch of a few blocks.
fn dealt<K: Copy>(mix: &[(K, usize)], rng: &mut StdRng, n: usize) -> Vec<K> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut block: Vec<K> = mix
            .iter()
            .flat_map(|&(k, count)| std::iter::repeat_n(k, count))
            .collect();
        for i in (1..block.len()).rev() {
            block.swap(i, rng.gen_range(0..i + 1));
        }
        out.extend(block);
    }
    out.truncate(n);
    out
}

/// Split a `synth` program into its shared prelude and one chunk per
/// function, so an edit replaces only the chunk it touches.
fn split_functions(source: &str) -> Doc {
    let mut starts: Vec<usize> = source
        .match_indices("\nvoid ")
        .map(|(i, _)| i + 1)
        .collect();
    starts.insert(0, 0);
    starts.push(source.len());
    starts
        .windows(2)
        .map(|w| Chunk::new(source[w[0]..w[1]].to_string()))
        .collect()
}

/// Replace every whole-identifier occurrence of `from` in `text`.
fn replace_word(text: &str, from: &str, to: &str) -> String {
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let bytes = text.as_bytes();
    let mut out = String::with_capacity(text.len() + 16);
    let mut last = 0;
    for (i, _) in text.match_indices(from) {
        let before = i.checked_sub(1).map(|j| bytes[j]);
        let after = bytes.get(i + from.len()).copied();
        if before.is_some_and(is_ident) || after.is_some_and(is_ident) {
            continue;
        }
        out.push_str(&text[last..i]);
        out.push_str(to);
        last = i + from.len();
    }
    out.push_str(&text[last..]);
    out
}

/// The guarded local a `synth` Mixed function declares on its third
/// line (`R3:point pt = new(rgn) ...`), under its current name.
fn point_local(f: &str) -> Option<&str> {
    let after = &f[f.find(":point ")? + ":point ".len()..];
    Some(&after[..after.find(' ')?])
}

/// Files one `edit_stream` session works on.
const SESSION_FILES: usize = 4;

/// Versions of a file an undo can go back to.
const UNDO_DEPTH: usize = 16;

/// Lines a body edit keeps inserted in one function, and functions an
/// edit keeps added to one file: inserts and deletes balance around
/// these, so a file neither grows nor shrinks over a run.
const MAX_ADDED: usize = 2;

/// The kinds of edit `edit_stream` makes.
#[derive(Clone, Copy)]
enum Edit {
    /// Insert or delete a line in a body (changes the unit's length).
    BodyLine,
    /// Change one digit of a literal (same length).
    Literal,
    /// Rename a function's guarded local.
    RenameLocal,
    /// Add or remove a whole function.
    AddRemoveFn,
    /// Rename a parameter in a signature and its body.
    Signature,
    /// Go back to one of the file's recent versions.
    Undo,
}

/// The `edit_stream` mix per 20 edits: 40% body line, 20% literal, 15%
/// local rename, 10% add/remove a function, 10% signature, 5% undo.
const EDIT_MIX: [(Edit, usize); 6] = [
    (Edit::BodyLine, 8),
    (Edit::Literal, 4),
    (Edit::RenameLocal, 3),
    (Edit::AddRemoveFn, 2),
    (Edit::Signature, 2),
    (Edit::Undo, 1),
];

/// `edit_stream`: one IDE session on one connection. The session owns
/// four 48-function units and, on every request, edits one of them and
/// re-sends it. The edit mix ([`EDIT_MIX`]) is what a person typing
/// produces, not just same-length digit swaps. The files are the same
/// for every seed ([`CODE_SEED`]); the seed draws the edits.
fn edit_stream(seed: u64, requests: usize) -> Vec<Request> {
    let mut code = StdRng::seed_from_u64(sub_seed(CODE_SEED, 10));
    // `(name, current version, recent versions)` per file.
    let mut files: Vec<(Arc<str>, Doc, Vec<Doc>)> = (0..SESSION_FILES)
        .map(|f| {
            // Exactly 10% of the functions carry a seeded bug (the
            // generator seed is redrawn until they do).
            let program = loop {
                let p = synth::generate(&SynthConfig {
                    functions: 48,
                    stmts_per_fn: 12,
                    seed: code.gen_range(0..u64::MAX),
                    bug_rate: 0.1,
                    shape: Shape::Mixed,
                });
                if p.seeded.len() == 5 {
                    break p;
                }
            };
            (
                format!("ide_{f}.vlt").into(),
                split_functions(&program.source),
                Vec::new(),
            )
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut extras = 0usize;
    let edits = dealt(&EDIT_MIX, &mut rng, requests);
    let mut out: Vec<Request> = Vec::with_capacity(requests);
    for edit in edits {
        let (name, doc, history) = &mut files[rng.gen_range(0..SESSION_FILES)];
        if !history.is_empty() {
            edit_function_unit(edit, doc, history, &mut rng, &mut extras);
        }
        out.push(single(Op::Check, Unit::new(name.clone(), doc.clone())));
        history.push(doc.clone());
        if history.len() > UNDO_DEPTH {
            history.remove(0);
        }
    }
    out
}

/// Literals of the lines body edits insert start here; the generator's
/// own `x = x + k` lines use single digits.
const INSERTED_LITERAL: u32 = 10;

/// Whether `line` is one a body edit inserted into a function whose
/// guarded local is `local`.
fn is_inserted_line(line: &str, local: &str) -> bool {
    line.strip_prefix(&format!("  {local}.x = {local}.x + "))
        .and_then(|rest| rest.strip_suffix(';'))
        .and_then(|n| n.parse::<u32>().ok())
        .is_some_and(|n| n >= INSERTED_LITERAL)
}

/// Whether to add (rather than remove) when `added` items are in place:
/// always below one, never at [`MAX_ADDED`], otherwise a coin flip.
fn grow(added: usize, rng: &mut StdRng) -> bool {
    added == 0 || (added < MAX_ADDED && rng.gen_bool(0.5))
}

/// Apply one `edit` to `doc`, a `synth` Mixed unit split by
/// [`split_functions`]. `history` ends with the version being edited.
fn edit_function_unit(
    edit: Edit,
    doc: &mut Doc,
    history: &[Doc],
    rng: &mut StdRng,
    extras: &mut usize,
) {
    // Functions the body edits apply to: the generated ones, which all
    // declare a guarded `point` local.
    let bodies: Vec<usize> = (1..doc.len())
        .filter(|&i| point_local(doc[i].raw()).is_some())
        .collect();
    let i = bodies[rng.gen_range(0..bodies.len())];
    let f = doc[i].raw().to_string();
    let local = point_local(&f).expect("filtered above").to_string();
    match edit {
        Edit::BodyLine => {
            // Line 3 comes right after the local is declared and before
            // any seeded early delete, so an access inserted there never
            // changes the function's verdict.
            let mut lines: Vec<&str> = f.lines().collect();
            let inserted: Vec<usize> = (3..lines.len())
                .filter(|&k| is_inserted_line(lines[k], &local))
                .collect();
            let insert = format!(
                "  {local}.x = {local}.x + {};",
                rng.gen_range(INSERTED_LITERAL..100)
            );
            if grow(inserted.len(), rng) {
                lines.insert(3, &insert);
            } else {
                lines.remove(inserted[rng.gen_range(0..inserted.len())]);
            }
            doc[i] = Chunk::new(lines.join("\n") + "\n");
        }
        Edit::Literal => {
            let at = f.find("; y=").expect("generated locals set y") + "; y=".len();
            let digit = f.as_bytes()[at] - b'0';
            let bumped = ((digit + 1) % 10 + b'0') as char;
            doc[i] = Chunk::new(format!("{}{bumped}{}", &f[..at], &f[at + 1..]));
        }
        Edit::RenameLocal => {
            let to = if local == "pt" { "pt_r" } else { "pt" };
            doc[i] = Chunk::new(replace_word(&f, &local, to));
        }
        Edit::AddRemoveFn => {
            let extra: Vec<usize> = (1..doc.len())
                .filter(|&k| doc[k].raw().starts_with("void extra_"))
                .collect();
            if grow(extra.len(), rng) {
                *extras += 1;
                let k = *extras;
                let at = rng.gen_range(1..doc.len() + 1);
                doc.insert(
                    at,
                    Chunk::new(format!(
                        "void extra_{k}(bool flag, int n) {{\n  \
                         tracked(EX{k}) region er = Region.create();\n  \
                         EX{k}:point ep = new(er) point {{x={k}; y=1;}};\n  \
                         ep.x++;\n  Region.delete(er);\n}}\n"
                    )),
                );
            } else {
                doc.remove(extra[rng.gen_range(0..extra.len())]);
            }
        }
        Edit::Signature => {
            // Rename the second parameter in the signature and body.
            let (from, to) = if f.contains("int n)") {
                ("n", "count")
            } else {
                ("count", "n")
            };
            doc[i] = Chunk::new(replace_word(&f, from, to));
        }
        Edit::Undo if history.len() >= 2 => {
            let back = rng.gen_range(2..history.len() + 1);
            *doc = history[history.len() - back].clone();
        }
        Edit::Undo => {}
    }
}

/// Every statement mix the generator has.
const SHAPES: [Shape; 6] = [
    Shape::Mixed,
    Shape::Straight,
    Shape::Branchy,
    Shape::Loopy,
    Shape::VariantHeavy,
    Shape::Sockets,
];

/// Distinct source texts for `cold_batch`: every corpus program plus
/// `synth` units across all six shapes.
fn batch_pool(seed: u64) -> Vec<(String, Arc<Chunk>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool: Vec<(String, Arc<Chunk>)> = vault_corpus::all_programs()
        .into_iter()
        .map(|p| (p.id.to_string(), Chunk::new(p.source)))
        .collect();
    // Sizes follow the position.
    for (i, shape) in SHAPES.iter().cycle().take(96).enumerate() {
        let program = synth::generate(&SynthConfig {
            functions: 4 + (i * 7) % 21,
            stmts_per_fn: 12,
            seed: rng.gen_range(0..u64::MAX),
            bug_rate: 0.2,
            shape: *shape,
        });
        pool.push((format!("synth{i}"), Chunk::new(program.source)));
    }
    pool
}

/// `cold_batch`: a CI build farm. Every request is a `check` of 8 units
/// no cache has seen (unique names over a seeded pool of sources), so
/// every cache layer misses and the front end and checker do the work.
fn cold_batch(seed: u64, requests: usize) -> Vec<Request> {
    let pool = batch_pool(sub_seed(CODE_SEED, 20));
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 21));
    (0..requests)
        .map(|r| Request {
            op: Op::Check,
            units: (0..8)
                .map(|k| {
                    let (base, chunk) = &pool[rng.gen_range(0..pool.len())];
                    Unit::new(format!("b{r}_{k}_{base}.vlt"), vec![chunk.clone()])
                })
                .collect(),
        })
        .collect()
}

/// Literals of transfers `project_rebuild` inserts start here; the
/// generator's own literals are single digits.
const INSERTED_BASE: usize = 100_000;

fn is_inserted_xfer(line: &str) -> bool {
    line.strip_prefix("  chan_xfer(ch, ")
        .and_then(|rest| rest.strip_suffix(");"))
        .and_then(|n| n.parse::<usize>().ok())
        .is_some_and(|n| n >= INSERTED_BASE)
}

/// The kinds of edit `project_rebuild` makes.
#[derive(Clone, Copy)]
enum ProjectEdit {
    /// A worker's body: re-checks that one unit.
    WorkerBody,
    /// A comment in `net_iface`: re-checks it; its export surface is
    /// unchanged, so all 300 workers are interface-cutoff hits.
    IfaceComment,
    /// A declaration in `net_iface`: re-checks all 301 units.
    IfaceSignature,
}

/// The `project_rebuild` mix per 20 edits: 75% worker body, 15%
/// interface comment, 10% interface signature.
const PROJECT_MIX: [(ProjectEdit, usize); 3] = [
    (ProjectEdit::WorkerBody, 15),
    (ProjectEdit::IfaceComment, 3),
    (ProjectEdit::IfaceSignature, 2),
];

/// `project_rebuild`: a monorepo. The session owns a 301-unit
/// generated project (one `net_iface` interface unit plus 300 workers
/// importing it) and re-sends the whole manifest after every seeded
/// edit, in the proportions of [`PROJECT_MIX`]. Every edit yields a
/// text never sent before, so no edit is answered wholesale from cache.
fn project_rebuild(seed: u64, requests: usize) -> Vec<Request> {
    let project = synth::generate_project(&ProjectConfig {
        units: 300,
        fns_per_unit: 4,
        stmts_per_fn: 12,
        seed: sub_seed(CODE_SEED, 30),
        bug_rate: 0.1,
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let mut units: Vec<Unit> = project
        .units
        .iter()
        .map(|(name, source)| Unit::new(name.as_str(), vec![Chunk::new(source.clone())]))
        .collect();
    let iface = project.units[0].1.clone();
    let (mut comment, mut probe) = (String::new(), String::new());
    let edits = dealt(&PROJECT_MIX, &mut rng, requests);
    let mut out: Vec<Request> = Vec::with_capacity(requests);
    for (version, edit) in edits.into_iter().enumerate() {
        out.push(Request {
            op: Op::CheckProject,
            units: units.clone(),
        });
        match edit {
            ProjectEdit::WorkerBody => {
                // Insert a transfer with a never-used literal right after
                // a channel becomes ready (valid in every generated
                // function), first dropping the oldest such insertion
                // once the unit carries two.
                let line = format!("  chan_xfer(ch, {});", INSERTED_BASE + version);
                let u = rng.gen_range(1..units.len());
                let src = units[u].source();
                let mut lines: Vec<&str> = src.lines().collect();
                let inserted: Vec<usize> = (0..lines.len())
                    .filter(|&k| is_inserted_xfer(lines[k]))
                    .collect();
                if inserted.len() >= 2 {
                    lines.remove(inserted[0]);
                }
                let readies: Vec<usize> = (0..lines.len())
                    .filter(|&k| lines[k] == "  chan_ready(ch);")
                    .collect();
                lines.insert(readies[rng.gen_range(0..readies.len())] + 1, &line);
                units[u].chunks = vec![Chunk::new(lines.join("\n") + "\n")];
            }
            ProjectEdit::IfaceComment => comment = format!("// revision {version}\n"),
            ProjectEdit::IfaceSignature => probe = format!("int iface_probe_{version}();\n"),
        }
        units[0].chunks = vec![Chunk::new(format!("{iface}{probe}{comment}"))];
    }
    out
}

/// `shared_cache_open`: one daemon shared by many CI workers. 512 files
/// (the corpus plus 4–24-function `synth` units) in 4 seeded versions
/// each; every request checks one unit, its file drawn Zipf(s = 1.0).
/// Returns the streams, each request's send time as a fraction of the
/// run (Poisson arrivals: a Poisson process conditioned on its count
/// has independent uniform arrival times), and every unit, for priming.
fn shared_cache(seed: u64, per_conn: usize) -> (Vec<Vec<Request>>, Vec<Vec<f64>>, Vec<Unit>) {
    const FILES: usize = 512;
    const VERSIONS: usize = 4;
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 40));
    // Popularity rank fixes each file's kind and size, so the seed only
    // changes content, never how costly the popular files are: every
    // fourth rank is a corpus program, the rest are `synth` units of a
    // size and shape that follow the rank.
    let corpus = vault_corpus::all_programs();
    let bases: Vec<(String, String)> = (0..FILES)
        .map(|r| {
            if r % 4 == 3 {
                let p = &corpus[(r / 4) % corpus.len()];
                (p.id.to_string(), p.source.clone())
            } else {
                let program = synth::generate(&SynthConfig {
                    functions: 4 + (r * 7) % 21,
                    stmts_per_fn: 12,
                    seed: rng.gen_range(0..u64::MAX),
                    bug_rate: 0.1,
                    shape: SHAPES[r % SHAPES.len()],
                });
                (format!("synth{r}"), program.source)
            }
        })
        .collect();
    let files: Vec<Vec<Unit>> = bases
        .iter()
        .enumerate()
        .map(|(f, (base, source))| {
            let lines: Vec<&str> = source.lines().collect();
            (0..VERSIONS)
                .map(|v| {
                    let text = if v == 0 {
                        source.clone()
                    } else {
                        let mut edited = lines.clone();
                        let note = format!("// local revision {v}");
                        edited.insert(rng.gen_range(0..lines.len() + 1), &note);
                        edited.join("\n") + "\n"
                    };
                    Unit::new(format!("f{f}_{base}.vlt"), vec![Chunk::new(text)])
                })
                .collect()
        })
        .collect();
    let cdf: Vec<f64> = (1..=FILES)
        .scan(0.0, |acc, k| {
            *acc += 1.0 / k as f64;
            Some(*acc)
        })
        .collect();
    let total = cdf[FILES - 1];
    let mut streams = Vec::new();
    let mut schedule = Vec::new();
    for c in 0..CONNECTIONS {
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 41 + c as u64));
        let mut reqs = Vec::with_capacity(per_conn);
        for _ in 0..per_conn {
            let u = unit_f64(&mut rng) * total;
            let f = cdf.partition_point(|&x| x <= u).min(FILES - 1);
            let v = rng.gen_range(0..VERSIONS);
            reqs.push(single(Op::Check, files[f][v].clone()));
        }
        let mut at: Vec<f64> = (0..per_conn).map(|_| unit_f64(&mut rng)).collect();
        at.sort_by(f64::total_cmp);
        streams.push(reqs);
        schedule.push(at);
    }
    // Prime least popular first, so the units a warm boot replays last
    // (the ones its LRU keeps) are the popular ones.
    (
        streams,
        schedule,
        files.into_iter().rev().flatten().collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dealt_blocks_hold_the_exact_mix() {
        let mut rng = StdRng::seed_from_u64(3);
        let kinds = dealt(&[('a', 3), ('b', 1)], &mut rng, 18);
        assert_eq!(kinds.len(), 18);
        for block in kinds.chunks_exact(4) {
            assert_eq!(block.iter().filter(|&&k| k == 'b').count(), 1, "{block:?}");
        }
    }

    #[test]
    fn replace_word_respects_identifier_boundaries() {
        assert_eq!(
            replace_word("pt.x = pt.x + tpt; pt_r", "pt", "q"),
            "q.x = q.x + tpt; pt_r"
        );
        assert_eq!(
            replace_word("int n) { n = n - 1; new(n)", "n", "count"),
            "int count) { count = count - 1; new(count)"
        );
    }

    #[test]
    fn request_lines_parse_and_carry_the_source() {
        let unit = Unit::new(
            "a.vlt",
            vec![
                Chunk::new("int f() {\n  return \"7\";\n".into()),
                Chunk::new("}\n".into()),
            ],
        );
        let req = single(Op::Check, unit.clone());
        let v = vault_server::parse_json(&req.line(3)).expect("valid JSON");
        let (id, parsed) = vault_server::proto::parse_request(&v);
        assert_eq!(id, Some(3));
        assert_eq!(
            parsed.expect("valid request"),
            vault_server::Request::Check {
                units: vec![unit.to_unit_in()]
            }
        );
    }
}
