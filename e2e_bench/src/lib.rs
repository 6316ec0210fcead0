//! End-to-end benchmark for `vaultd`.
//!
//! Four seeded traffic shapes ([`stream`]) are driven against a real
//! `vaultd` child process over its Unix socket ([`daemon`], [`drive`]),
//! with replies checked against an independent reference
//! ([`reference`]) and scored as client-side latency, throughput,
//! set-up time, memory and server CPU ([`e2e`]). A separate traced run
//! ([`trace`]) replays a prefix of the same streams in-process and
//! times the calls into each layer's public functions from this
//! package's own code, so the program itself carries no tracing.
//! `BENCHMARK.md` beside this package explains the workloads and
//! metrics.

pub mod daemon;
pub mod drive;
pub mod e2e;
pub mod reference;
pub mod stats;
pub mod stream;
pub mod trace;
