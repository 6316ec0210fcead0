//! `vaultd` — the Vault protocol-checking daemon.
//!
//! ```text
//! vaultd [--socket PATH] [--listen ADDR:PORT] [--jobs N] [--cache N]
//!        [--cache-dir PATH] [--cache-max-bytes N]
//!        [--max-request-bytes N] [--timeout-ms N] [--fuel N]
//! ```
//!
//! With `--socket` and/or `--listen`, serves the JSON-lines protocol on
//! a Unix domain socket and/or a TCP listener until a client sends
//! `{"op":"shutdown"}`. Serving is event-driven: one readiness loop
//! multiplexes every connection onto the `--jobs` pool threads, with
//! per-connection backpressure so a stalled reader wedges only itself.
//! Each request runs start to finish on one pool thread, the most
//! recently freed one, which checks the request's last unit itself and
//! queues the rest; a thread waiting for queued checks runs them, so
//! `--jobs` bounds both the requests and the checks running at once.
//! Without either flag, serves a single session over stdin/stdout
//! (exiting at EOF) — handy behind an inetd-style supervisor or for
//! piping; that session's thread also checks units itself.
//!
//! `--cache-dir` names a directory for the persistent warm-start cache:
//! verdicts journaled there by a previous run are replayed at boot, so
//! a restarted daemon answers its first requests at warm-cache speed
//! (a corrupt or version-mismatched segment falls back to a cold start
//! for the affected frames and shows up as `cache_load_errors` /
//! `segments_quarantined` in `status`). `--cache-max-bytes` bounds that
//! directory's size: the store evicts whole oldest segments while it
//! would not fit even with its superseded frames compacted away, then
//! compacts the rest — evictions only cost warmth, never answers.
//!
//! `--max-request-bytes` caps how large one request line may grow,
//! `--timeout-ms` gives every compilation unit a checking deadline, and
//! `--fuel` caps loop-invariant fixpoint iterations; exceeding a
//! per-unit bound yields a `resource-limit` verdict, exceeding a
//! per-request bound a structured error reply. Shutdown drains
//! in-flight work within a bounded grace period.

use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: vaultd [--socket PATH] [--listen ADDR:PORT] [--jobs N] [--cache N]\n              \
         [--cache-dir PATH] [--cache-max-bytes N]\n              \
         [--max-request-bytes N] [--timeout-ms N] [--fuel N]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    vault_server::serve_command("vaultd", &args, &["--jobs"], usage)
}
