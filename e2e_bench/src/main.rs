//! `e2e_bench`: the end-to-end benchmark for `vaultd`.
//!
//! ```text
//! e2e_bench [--workload NAME] [--seed S] [--seconds N] [--trace [0|1]]
//!           [--vaultd PATH]
//! ```
//!
//! Without `--workload`, runs all four workloads in turn. Without
//! `--trace` (or with `--trace 0`), drives a `vaultd` child process and
//! prints the end-to-end metrics; with `--trace` (or `--trace 1`),
//! replays a prefix of the same streams in-process and prints the
//! per-layer metrics. Either way the last line of output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. `--vaultd`
//! defaults to the `vaultd` built beside this binary. The exit code is
//! 0 when every reply matched the reference, 1 otherwise, and 2 for a
//! usage error.

use std::path::PathBuf;
use std::process::ExitCode;
use vault_e2e_bench::{e2e, stream, trace};

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// The run length used when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 30.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    vaultd: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        vaultd: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--vaultd" => args.vaultd = Some(value("a path")?.into()),
            "--trace" => {
                args.trace = it
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1")
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// A per-run scratch directory under `target/e2e_bench`, removed when
/// the run ends. Paths stay relative to the working directory so the
/// socket path stays short.
struct Scratch(PathBuf);

impl Scratch {
    fn new(workload: &str) -> std::io::Result<Scratch> {
        let dir =
            PathBuf::from("target/e2e_bench").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            eprintln!(
                "usage: e2e_bench [--workload NAME] [--seed S] [--seconds N] [--trace [0|1]] \
                 [--vaultd PATH]"
            );
            return ExitCode::from(2);
        }
    };
    let vaultd = args.vaultd.clone().unwrap_or_else(|| {
        std::env::current_exe()
            .ok()
            .and_then(|exe| exe.parent().map(|dir| dir.join("vaultd")))
            .unwrap_or_else(|| PathBuf::from("vaultd"))
    });
    let names: Vec<String> = match &args.workload {
        Some(name) => vec![name.clone()],
        None => stream::NAMES.iter().map(|s| s.to_string()).collect(),
    };
    let mut all_correct = true;
    for name in &names {
        // A timed run replays its stream `REPLAYS` times; the traced run
        // replays a prefix of the same stream.
        let Some(w) = stream::build(name, args.seed, args.seconds / e2e::REPLAYS as f64) else {
            eprintln!(
                "e2e_bench: unknown workload `{name}` (known: {})",
                stream::NAMES.join(", ")
            );
            return ExitCode::from(2);
        };
        let scratch = match Scratch::new(name) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("e2e_bench: cannot create a scratch directory: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mode = if args.trace {
            "traced in-process replay"
        } else {
            "vaultd over its socket"
        };
        println!(
            "== {name}: seed {}, {} s, {mode}, {:?} load over {} connections ==",
            args.seed,
            args.seconds,
            w.load,
            w.streams.len()
        );
        let outcome = if args.trace {
            trace::run(&vaultd, &w, args.seconds, &scratch.0)
        } else {
            e2e::run(&vaultd, &w, args.seed, args.seconds, &scratch.0)
        };
        let a = match outcome {
            Ok(a) => a,
            Err(e) => {
                eprintln!("e2e_bench: {e}");
                return ExitCode::FAILURE;
            }
        };
        for m in &a.metrics {
            println!("  {:<36} {:>14.6} {}", m.name, m.value, m.unit);
        }
        for note in &a.notes {
            println!("  # {note}");
        }
        for mismatch in &a.mismatches {
            eprintln!("e2e_bench: MISMATCH {mismatch}");
        }
        let correct = a.failed == 0 && a.mismatches.is_empty();
        all_correct &= correct;
        println!(
            "{}",
            e2e::result_line(correct, a.attempted, a.failed, &a.metrics)
        );
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
