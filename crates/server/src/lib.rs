//! # vault-server
//!
//! `vaultd`: a persistent, parallel, incremental protocol-checking
//! service over the `vault-core` checker.
//!
//! The paper's checker is a one-shot batch tool; this crate turns it
//! into a long-running daemon many clients can hammer:
//!
//! * **Wire protocol** — JSON lines over a Unix domain socket or stdio
//!   ([`proto`], [`server`]): `check`, `emit-c`, `stats`, `status`,
//!   `clear-cache`, `shutdown`, with structured machine-readable
//!   diagnostics (code, severity, span, rendered message).
//! * **Parallelism** — each batch of compilation units fans out across
//!   a std-only thread pool ([`pool`]) whose `jobs` threads also serve
//!   the multiplexer's requests; responses preserve input order, so
//!   parallel checking is byte-identical to sequential.
//! * **Incrementality** — per-unit verdicts are memoized in a
//!   content-hash (FNV-1a) LRU cache ([`cache`]); re-checking unchanged
//!   sources is a cache hit that skips the checker entirely. On a unit
//!   miss, a function-granular engine ([`incremental`]) reuses the
//!   cached elaboration environment and per-function verdicts, so an
//!   edit inside one function body re-checks only that function.
//! * **Observability** — per-request wall time, queue depth, cache
//!   hit/miss and fault counters ([`metrics`]), served by the `status`
//!   request.
//! * **Fault tolerance** — check jobs run under `catch_unwind`, so a
//!   checker panic costs one `internal-error` verdict, not a worker or
//!   the daemon; per-unit deadlines and fuel ([`service::ServiceLimits`])
//!   turn pathological inputs into `resource-limit` verdicts; shutdown
//!   drains in-flight work within a bounded grace period; and the
//!   [`client`] retries over fresh connections with jittered backoff.
//!   A `chaos` feature compiles in a fault-injection harness (`chaos`
//!   module) for torture tests.
//!
//! ```
//! use vault_server::{CheckService, ServiceConfig, UnitIn};
//!
//! let svc = CheckService::new(ServiceConfig {
//!     jobs: 2,
//!     cache_capacity: 64,
//!     ..Default::default()
//! });
//! let report = svc.check_unit(UnitIn {
//!     name: "f.vlt".into(),
//!     source: "void f() { }".into(),
//! });
//! assert_eq!(report.summary.verdict, vault_core::Verdict::Accepted);
//! assert!(!report.cached);
//! assert!(svc.check_unit(UnitIn {
//!     name: "f.vlt".into(),
//!     source: "void f() { }".into(),
//! }).cached);
//! ```

#![warn(missing_docs)]

pub mod cache;
#[cfg(feature = "chaos")]
pub mod chaos;
pub mod client;
pub mod incremental;
mod journal;
pub mod json;
pub mod metrics;
pub mod mux;
pub mod persist;
mod poll;
pub mod pool;
pub mod proto;
pub mod server;
pub mod service;
pub mod singleflight;

pub use cache::{fnv1a_64, unit_fingerprint, LruCache};
pub use client::{Client, RetryPolicy};
pub use incremental::{FnVerdict, IncrementalEngine};
pub use json::{parse as parse_json, Json};
pub use metrics::{Metrics, StatusSnapshot};
pub use mux::{MuxConfig, MuxServer};
pub use persist::{StoreConfig, StoreHealth, VerdictStore};
pub use pool::{SubmitError, ThreadPool, UnitIn};
pub use proto::{Request, UnitReport};
pub use server::{serve_command, serve_connection, serve_stdio, SHUTDOWN_GRACE};
pub use service::{CheckService, ServiceConfig, ServiceLimits};
