//! `vaultc` — the Vault checker command line.
//!
//! ```text
//! vaultc check [--jobs N] <file.vlt>...   check protocols, print diagnostics
//! vaultc check --project <vault.toml>     check a multi-unit project manifest
//! vaultc check --socket PATH <file.vlt>...check on a running vaultd (retries)
//! vaultc check --connect ADDR:PORT <f>... same, over TCP
//! vaultc emit-c <file.vlt>                check, then print the generated C
//! vaultc dump-cfg <file.vlt>              print each function's CFG as dot
//! vaultc stats <file.vlt>                 checker-effort statistics per unit
//! vaultc run [--fuel N] <file.vlt> <entry>
//!                                         check, then execute an entry function
//! vaultc explain <Vnnn>                   explain a diagnostic code
//! vaultc corpus [experiment]              run the built-in paper corpus
//! vaultc serve [--socket PATH] [--listen ADDR:PORT]
//!                                         run the vaultd checking service
//! ```
//!
//! `serve` accepts resource bounds: `--max-request-bytes N` caps request
//! lines, `--timeout-ms N` gives each unit a checking deadline, and
//! `--fuel N` caps loop-invariant fixpoint iterations. With `--socket`
//! and/or `--listen` it serves event-driven: one readiness loop
//! multiplexes every connection onto the `--jobs` pool threads, which
//! also run the checks, so `--jobs` bounds the checks running at once.
//! `check --socket` / `check --connect` retry transient connection
//! failures with jittered exponential backoff (`--retries N` to tune,
//! default 5). A local `check --jobs N` runs `N` pool threads and checks
//! on its own thread too.
//!
//! `check` defaults `--jobs` to the number of available hardware
//! threads, dedupes repeated input paths (after canonicalization), and
//! with `--project` checks a whole manifest of importing units through
//! the DAG scheduler. `--verbose` echoes the resolved job count.
//!
//! `run` compiles the checked program to register bytecode and runs it
//! on the `vault-vm` backend. The tree-walking interpreter of
//! `vault-eval` stays the oracle the differential suites hold the VM to:
//! same fault vocabulary, same fuel accounting, same outcomes.
//! `--fuel N` bounds execution; exhaustion is a distinct verdict.
//!
//! Exit code 0 when every input is accepted, 1 on protocol violations,
//! 2 on usage errors or unreadable inputs, and — for `run` only — 3 when
//! the entry ran out of fuel. `check` with multiple files reports
//! unreadable files and keeps going; if any file was unreadable the
//! exit code is 2 even when the rest were accepted.

use std::process::ExitCode;
use vault_core::{check_source, CheckSummary, Verdict};
use vault_server::{CheckService, Client, Json, RetryPolicy, ServiceConfig, UnitIn};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "check" => check_cmd(rest),
            "emit-c" if rest.len() == 1 => emit_c(&rest[0]),
            "dump-cfg" if rest.len() == 1 => dump_cfg(&rest[0]),
            "stats" if rest.len() == 1 => stats(&rest[0]),
            "run" => run_cmd(rest),
            "explain" if rest.len() == 1 => explain(&rest[0]),
            "corpus" => run_corpus(rest.first().map(String::as_str)),
            "synth" => synth_cmd(rest),
            "serve" => vault_server::serve_command("vaultc serve", rest, &["--jobs", "-j"], usage),
            _ => usage(),
        },
        None => usage(),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  vaultc check [--jobs N] [--verbose] [--socket PATH | --connect ADDR:PORT]\n               \
         [--retries N] <file.vlt>...\n  \
         vaultc check --project <vault.toml> [--jobs N] [--verbose]\n  \
         vaultc emit-c <file.vlt>\n  \
         vaultc dump-cfg <file.vlt>\n  vaultc stats <file.vlt>\n  \
         vaultc run [--fuel N] <file.vlt> <entry>\n  \
         vaultc explain <Vnnn>\n  vaultc corpus [E1..E15|X1..X6]\n  \
         vaultc synth --out DIR [--units N] [--fns-per-unit N] [--stmts N]\n               \
         [--seed N] [--bug-rate R]\n  \
         vaultc serve [--socket PATH] [--listen ADDR:PORT] [--jobs N] [--cache N]\n               \
         [--cache-dir PATH] [--cache-max-bytes N]\n               \
         [--max-request-bytes N] [--timeout-ms N] [--fuel N]"
    );
    ExitCode::from(2)
}

fn read(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("vaultc: cannot read `{path}`: {e}");
        ExitCode::from(2)
    })
}

/// Where a remote `check` ships its batch.
enum Remote {
    /// A vaultd Unix socket path (`--socket`).
    Socket(String),
    /// A vaultd TCP address (`--connect`).
    Tcp(String),
}

impl Remote {
    fn describe(&self) -> &str {
        match self {
            Remote::Socket(path) => path,
            Remote::Tcp(addr) => addr,
        }
    }
}

/// Parsed `check` arguments.
struct CheckArgs {
    jobs: usize,
    verbose: bool,
    remote: Option<(Remote, u32)>,
    project: Option<String>,
    paths: Vec<String>,
}

/// The default worker count when `--jobs` is not given: one job per
/// available hardware thread.
fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Parse `check` arguments: `--jobs N` / `-j N`, `--socket PATH` or
/// `--connect ADDR:PORT` (mutually exclusive), `--retries N`,
/// `--project MANIFEST`, and `--verbose` anywhere among the paths.
fn parse_check_args(rest: &[String]) -> Option<CheckArgs> {
    let mut jobs = default_jobs();
    let mut verbose = false;
    let mut socket: Option<String> = None;
    let mut connect: Option<String> = None;
    let mut retries = 5u32;
    let mut project: Option<String> = None;
    let mut paths = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--jobs" | "-j" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => jobs = n,
                _ => return None,
            },
            "--verbose" | "-v" => verbose = true,
            "--socket" => match it.next() {
                Some(path) => socket = Some(path.clone()),
                None => return None,
            },
            "--connect" => match it.next() {
                Some(addr) => connect = Some(addr.clone()),
                None => return None,
            },
            "--retries" => match it.next().and_then(|n| n.parse::<u32>().ok()) {
                Some(n) if n >= 1 => retries = n,
                _ => return None,
            },
            "--project" => match it.next() {
                Some(manifest) => project = Some(manifest.clone()),
                None => return None,
            },
            flag if flag.starts_with('-') => return None,
            path => paths.push(path.to_string()),
        }
    }
    let remote = match (socket, connect) {
        (Some(_), Some(_)) => return None, // one transport at a time
        (Some(path), None) => Some(Remote::Socket(path)),
        (None, Some(addr)) => Some(Remote::Tcp(addr)),
        (None, None) => None,
    };
    // A project manifest supplies the unit list itself; mixing it with
    // loose paths (or a remote daemon) is a usage error.
    match &project {
        Some(_) if !paths.is_empty() || remote.is_some() => return None,
        Some(_) => {}
        None if paths.is_empty() => return None,
        None => {}
    }
    Some(CheckArgs {
        jobs,
        verbose,
        remote: remote.map(|r| (r, retries)),
        project,
        paths,
    })
}

/// Drop repeated inputs: the same file named twice (even via different
/// spellings — `./a.vlt` vs `a.vlt` vs an absolute path) is checked
/// once, under its first spelling. Unresolvable paths dedupe on the raw
/// string and are reported by the read loop below.
fn dedupe_paths(paths: Vec<String>) -> Vec<String> {
    let mut seen = std::collections::HashSet::new();
    let mut kept = Vec::new();
    for path in paths {
        let key = std::fs::canonicalize(&path)
            .map(|p| p.to_string_lossy().into_owned())
            .unwrap_or_else(|_| path.clone());
        if seen.insert(key) {
            kept.push(path);
        }
    }
    kept
}

fn check_cmd(rest: &[String]) -> ExitCode {
    let Some(args) = parse_check_args(rest) else {
        return usage();
    };

    if let Some(manifest) = &args.project {
        return check_project_cmd(manifest, args.jobs, args.verbose);
    }

    // Read every input up front; an unreadable file is reported and
    // skipped rather than aborting the whole batch, but still forces
    // exit code 2 at the end.
    let paths = dedupe_paths(args.paths);
    let mut any_unreadable = false;
    let mut units: Vec<UnitIn> = Vec::new();
    for path in &paths {
        match read(path) {
            Ok(source) => units.push(UnitIn {
                name: path.clone(),
                source,
            }),
            Err(_) => any_unreadable = true,
        }
    }
    if args.verbose {
        eprintln!(
            "vaultc: checking {} unit(s) with {} job(s)",
            units.len(),
            args.jobs
        );
    }

    // With --socket or --connect, ship the batch to a running daemon
    // instead of checking locally; transient connection failures are
    // retried with jittered backoff.
    if let Some((remote, retries)) = args.remote {
        return check_remote(&remote, retries, units, any_unreadable);
    }

    // Summaries come back in input order, so output is byte-identical
    // at any --jobs.
    let svc = CheckService::new(ServiceConfig {
        jobs: args.jobs,
        cache_capacity: units.len().max(1),
        ..Default::default()
    });
    let (reports, _) = svc.check_units(units);
    let summaries: Vec<CheckSummary> = reports.into_iter().map(|r| (*r.summary).clone()).collect();

    let code = render_summaries(&summaries);
    if any_unreadable {
        ExitCode::from(2)
    } else {
        code
    }
}

/// Check a whole project manifest: load the ordered unit list, schedule
/// it across the worker pool, and print per-unit verdicts in manifest
/// order — byte-identical at any `--jobs`.
fn check_project_cmd(manifest: &str, jobs: usize, verbose: bool) -> ExitCode {
    let units = match vault_project::Manifest::load_units(std::path::Path::new(manifest)) {
        Ok(units) => units,
        Err(e) => {
            eprintln!("vaultc: cannot load project `{manifest}`: {e}");
            return ExitCode::from(2);
        }
    };
    if verbose {
        eprintln!(
            "vaultc: checking project `{manifest}` ({} unit(s)) with {} job(s)",
            units.len(),
            jobs
        );
    }
    let svc = CheckService::new(ServiceConfig {
        jobs,
        cache_capacity: (units.len() * 2).max(1),
        ..Default::default()
    });
    let wire: Vec<UnitIn> = units
        .into_iter()
        .map(|u| UnitIn {
            name: u.name,
            source: u.source,
        })
        .collect();
    let (reports, _) = svc.check_project(wire);
    let summaries: Vec<CheckSummary> = reports.into_iter().map(|r| (*r.summary).clone()).collect();
    render_summaries(&summaries)
}

/// Print each summary's diagnostics and verdict line; exit 1 if any
/// unit is not cleanly accepted.
fn render_summaries(summaries: &[CheckSummary]) -> ExitCode {
    let mut any_rejected = false;
    for summary in summaries {
        print!("{}", summary.render_diagnostics());
        match summary.verdict {
            Verdict::Accepted => println!("{}: accepted", summary.name),
            Verdict::Rejected => {
                println!(
                    "{}: rejected ({} error(s))",
                    summary.name,
                    summary.error_codes().len()
                );
                any_rejected = true;
            }
            // Not a protocol violation, but not a clean bill of health
            // either: the unit exhausted a resource bound or tripped an
            // internal fault, so fail closed.
            Verdict::ResourceLimit | Verdict::InternalError => {
                println!("{}: {}", summary.name, summary.verdict.as_str());
                any_rejected = true;
            }
        }
    }
    if any_rejected {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Check a batch on a running daemon, printing per-unit verdicts in the
/// same shape as the local path. Both transports answer byte-identically;
/// only the connect step differs.
fn check_remote(
    remote: &Remote,
    retries: u32,
    units: Vec<UnitIn>,
    any_unreadable: bool,
) -> ExitCode {
    let policy = RetryPolicy {
        attempts: retries,
        ..Default::default()
    };
    let mut client = match remote {
        Remote::Socket(path) => Client::with_policy(path, policy),
        Remote::Tcp(addr) => Client::tcp_with_policy(addr.clone(), policy),
    };
    let response = match client.check(&units) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "vaultc: daemon at `{}` unreachable after {retries} attempt(s): {e}",
                remote.describe()
            );
            return ExitCode::from(2);
        }
    };
    if response.get("ok").and_then(Json::as_bool) != Some(true) {
        let msg = response
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("malformed response");
        eprintln!("vaultc: daemon refused the batch: {msg}");
        return ExitCode::from(2);
    }
    let mut any_rejected = false;
    for u in response.get("units").and_then(Json::as_arr).unwrap_or(&[]) {
        let name = u.get("name").and_then(Json::as_str).unwrap_or("<unit>");
        let verdict = u.get("verdict").and_then(Json::as_str).unwrap_or("?");
        if let Some(diags) = u.get("diagnostics").and_then(Json::as_arr) {
            for d in diags {
                if let Some(rendered) = d.get("rendered").and_then(Json::as_str) {
                    print!("{rendered}");
                }
            }
        }
        match verdict {
            "accepted" => println!("{name}: accepted"),
            "rejected" => {
                let errors = u
                    .get("error_codes")
                    .and_then(Json::as_arr)
                    .map_or(0, <[Json]>::len);
                println!("{name}: rejected ({errors} error(s))");
                any_rejected = true;
            }
            other => {
                println!("{name}: {other}");
                any_rejected = true;
            }
        }
    }
    if any_unreadable {
        ExitCode::from(2)
    } else if any_rejected {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn emit_c(path: &str) -> ExitCode {
    let src = match read(path) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let result = check_source(path, &src);
    if result.verdict() != Verdict::Accepted {
        eprint!("{}", result.render_diagnostics());
        eprintln!("{path}: {}; not emitting C", result.verdict());
        return ExitCode::from(1);
    }
    print!(
        "{}",
        vault_core::codegen::emit_c(&result.program, &result.elaborated)
    );
    ExitCode::SUCCESS
}

fn dump_cfg(path: &str) -> ExitCode {
    let src = match read(path) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let result = check_source(path, &src);
    for f in result.program.functions() {
        if f.body.is_some() {
            print!("{}", vault_core::cfg::build_cfg(f).to_dot());
        }
    }
    ExitCode::SUCCESS
}

fn stats(path: &str) -> ExitCode {
    let src = match read(path) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let start = std::time::Instant::now();
    let result = check_source(path, &src);
    let wall = start.elapsed();
    println!("{path}: {}", result.verdict());
    println!(
        "checker: {} statements, {} calls, {} join points, {} loop iterations, {} keys",
        result.stats.statements,
        result.stats.calls,
        result.stats.joins,
        result.stats.loop_iterations,
        result.stats.keys_allocated
    );
    println!(
        "flow:    {} snapshots, {} frames copied (copy-on-write), {} micros wall",
        result.stats.snapshots,
        result.stats.frames_copied,
        wall.as_micros()
    );
    println!(
        "phases:  lex {}us, parse {}us, elaborate {}us, lower {}us, check {}us",
        result.stats.lex_micros,
        result.stats.parse_micros,
        result.stats.elaborate_micros,
        result.stats.lower_micros,
        result.stats.check_micros
    );
    let mut blocks = 0usize;
    let mut edges = 0usize;
    let mut fns = 0usize;
    for f in result.program.functions() {
        if f.body.is_some() {
            let cfg = vault_core::cfg::build_cfg(f);
            blocks += cfg.block_count();
            edges += cfg.edge_count();
            fns += 1;
        }
    }
    println!("shape:   {fns} function(s), {blocks} basic blocks, {edges} edges");
    ExitCode::SUCCESS
}

/// Parse `run` arguments: `--fuel N` anywhere around the two positional
/// arguments `<file.vlt> <entry>`.
fn parse_run_args(rest: &[String]) -> Option<(Option<u64>, String, String)> {
    let mut fuel: Option<u64> = None;
    let mut positional = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fuel" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) => fuel = Some(n),
                None => return None,
            },
            flag if flag.starts_with('-') => return None,
            path => positional.push(path.to_string()),
        }
    }
    let [path, entry] = positional.as_slice() else {
        return None;
    };
    Some((fuel, path.clone(), entry.clone()))
}

fn run_cmd(rest: &[String]) -> ExitCode {
    let Some((fuel, path, entry)) = parse_run_args(rest) else {
        return usage();
    };
    let src = match read(&path) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let result = check_source(&path, &src);
    if result.verdict() != Verdict::Accepted {
        eprint!("{}", result.render_diagnostics());
        eprintln!(
            "{path}: {}; refusing to run (pass a protocol-clean program)",
            result.verdict()
        );
        return ExitCode::from(1);
    }
    let compiled = vault_vm::compile(&result.program);
    let mut vm = vault_vm::Vm::new(&compiled, vault_eval::ExternTable::with_regions());
    if let Some(fuel) = fuel {
        vm.set_fuel(fuel);
    }
    let out = vm.run(&entry, vec![]);
    match out.result {
        Ok(v) => {
            println!("{entry} returned {v} ({} fuel)", out.fuel_used);
            if out.leaked_regions > 0 {
                println!("warning: {} region(s) leaked", out.leaked_regions);
            }
            ExitCode::SUCCESS
        }
        // Fuel exhaustion is a resource verdict, not a protocol fault —
        // callers scripting `--fuel` budgets need to tell them apart.
        Err(vault_eval::EvalError::OutOfFuel) => {
            eprintln!("{entry} ran out of fuel after {} step(s)", out.fuel_used);
            ExitCode::from(3)
        }
        Err(e) => {
            eprintln!("{entry} faulted: {e}");
            ExitCode::from(1)
        }
    }
}

fn explain(code: &str) -> ExitCode {
    match vault_syntax::Code::from_str_code(code) {
        Some(c) => {
            println!("{c}: {}", c.explain());
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("vaultc: unknown diagnostic code `{code}`");
            ExitCode::from(2)
        }
    }
}

fn run_corpus(filter: Option<&str>) -> ExitCode {
    let programs = match filter {
        Some(exp) => vault_corpus::programs_for(exp),
        None => vault_corpus::all_programs(),
    };
    if programs.is_empty() {
        eprintln!("vaultc: no corpus programs match");
        return ExitCode::from(2);
    }
    let mut mismatches = 0;
    for p in &programs {
        let r = check_source(p.id, &p.source);
        let got = r.verdict();
        let ok = match &p.expect {
            vault_corpus::Expectation::Accept => got == Verdict::Accepted,
            vault_corpus::Expectation::Reject(codes) => {
                got == Verdict::Rejected && codes.iter().all(|c| r.has_code(*c))
            }
        };
        let mark = if ok { "ok " } else { "MISMATCH" };
        println!(
            "[{mark}] {:4} {:32} {} — {}",
            p.experiment, p.id, got, p.description
        );
        if !ok {
            mismatches += 1;
        }
    }
    println!(
        "corpus: {} program(s), {} mismatch(es)",
        programs.len(),
        mismatches
    );
    if mismatches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `vaultc synth`: write a deterministic multi-unit socket project
/// (`vault.toml` + one `.vlt` per unit) for the scaling experiments.
/// `--bug-rate R` seeds a fraction of worker units with one protocol or
/// capability bug each; the seeded ground truth is printed per unit so
/// detection runs can diff against it.
fn synth_cmd(rest: &[String]) -> ExitCode {
    let mut cfg = vault_corpus::synth::ProjectConfig::default();
    let mut out: Option<String> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut num = |name: &str| -> Option<usize> {
            match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => Some(n),
                _ => {
                    eprintln!("vaultc: {name} needs a positive integer");
                    None
                }
            }
        };
        match arg.as_str() {
            "--out" | "-o" => match it.next() {
                Some(dir) => out = Some(dir.clone()),
                None => return usage(),
            },
            "--units" => match num("--units") {
                Some(n) => cfg.units = n,
                None => return usage(),
            },
            "--fns-per-unit" => match num("--fns-per-unit") {
                Some(n) => cfg.fns_per_unit = n,
                None => return usage(),
            },
            "--stmts" => match num("--stmts") {
                Some(n) => cfg.stmts_per_fn = n,
                None => return usage(),
            },
            "--seed" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) => cfg.seed = n,
                None => return usage(),
            },
            "--bug-rate" => match it.next().and_then(|n| n.parse::<f64>().ok()) {
                Some(r) if (0.0..=1.0).contains(&r) => cfg.bug_rate = r,
                _ => {
                    eprintln!("vaultc: --bug-rate needs a number in [0, 1]");
                    return usage();
                }
            },
            _ => return usage(),
        }
    }
    let Some(out) = out else {
        eprintln!("vaultc: synth needs --out DIR");
        return usage();
    };
    let project = vault_corpus::synth::generate_project(&cfg);
    if let Err(e) = project.write_to(std::path::Path::new(&out)) {
        eprintln!("vaultc: cannot write project under `{out}`: {e}");
        return ExitCode::from(2);
    }
    for (unit, bug) in &project.seeded {
        println!(
            "seeded {:12} {:?} (expect {})",
            project.units[*unit].0,
            bug,
            bug.expected_code()
        );
    }
    println!(
        "synth: wrote {} unit(s) + vault.toml under {out} (seed {}, {} seeded bug(s))",
        project.units.len(),
        cfg.seed,
        project.seeded.len()
    );
    ExitCode::SUCCESS
}
