//! Reply checking against an independent reference.
//!
//! The reference answer for a `check` unit is a fresh monolithic
//! [`vault_core::check_summary`]; for a `check-project` manifest it is
//! the sequential [`vault_project::check_project`]. Neither touches the
//! daemon's caches, incremental engine, singleflight, or scheduler.
//! Replies are compared with their run-dependent fields (wall times and
//! `cached`) normalized away.

use crate::stream::{Op, Request};
use std::sync::Arc;
use vault_core::{CheckSummary, Limits};
use vault_server::proto::{encode_check, encode_check_project, UnitReport};
use vault_server::Json;

/// Zero the fields that legitimately differ between runs: wall times
/// and whether an answer came from a cache.
pub fn strip_run_fields(v: Json) -> Json {
    match v {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| match k.as_str() {
                    "wall_micros" | "check_micros" => (k, Json::num(0)),
                    "cached" => (k, Json::Bool(false)),
                    _ => (k, strip_run_fields(v)),
                })
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.into_iter().map(strip_run_fields).collect()),
        other => other,
    }
}

/// A reply line with its run-dependent fields normalized.
pub fn normalize(reply: &str) -> Result<String, String> {
    vault_server::parse_json(reply)
        .map(|v| strip_run_fields(v).to_line())
        .map_err(|e| format!("unparseable reply: {e}"))
}

/// The normalized reply a correct daemon gives to request `id` whose
/// units have the `summaries`.
pub fn expected_reply(op: Op, id: u64, summaries: &[CheckSummary]) -> String {
    let reports: Vec<UnitReport> = summaries
        .iter()
        .map(|s| UnitReport {
            summary: Arc::new(s.clone()),
            cached: false,
            check_micros: 0,
        })
        .collect();
    let json = match op {
        Op::Check => encode_check(Some(id), &reports, 0),
        Op::CheckProject => encode_check_project(Some(id), &reports, 0),
    };
    json.to_line()
}

/// The reference summaries for every unit of `req`.
pub fn reference_summaries(req: &Request) -> Vec<CheckSummary> {
    match req.op {
        Op::Check => req
            .units
            .iter()
            .map(|u| vault_core::check_summary(&u.name, &u.source()))
            .collect(),
        Op::CheckProject => {
            let units: Vec<vault_project::ProjectUnit> = req
                .units
                .iter()
                .map(|u| vault_project::ProjectUnit::new(&*u.name, u.source()))
                .collect();
            vault_project::check_project(&units, &Limits::default())
        }
    }
}

/// Check one reply to request `id` against the reference.
pub fn check_reply(req: &Request, id: u64, reply: &str) -> Result<(), String> {
    let got = normalize(reply)?;
    let want = expected_reply(req.op, id, &reference_summaries(req));
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "reply to request {id} differs from the reference: got {} bytes, want {} bytes",
            got.len(),
            want.len()
        ))
    }
}
