//! Validate committed bench artifacts (CI gate for the bench plumbing).
//!
//! Usage: `check_bench [path...]` (default: `BENCH_ingest.json`,
//! `BENCH_storage.json`, `BENCH_query.json` and `BENCH_server.json`). Exits non-zero — failing the
//! CI step — when a file is missing, is not valid JSON, or lacks its required
//! rows with positive `records_per_sec` rates. Per-artifact requirements:
//!
//! - `BENCH_ingest.json`: `ingest_engines` rows `tree_walk`, `automaton`,
//!   `automaton_cached`, `stream_tree_walk` and `stream_automaton`; on a full
//!   run the cold `automaton` row must clear 400k records/s and the
//!   end-to-end `stream_automaton` row 1.5M records/s — the compiled match
//!   path must stay decisively ahead of the tree walk, cold and streamed.
//! - `BENCH_storage.json`: `storage` rows `wal_append`, `segment_flush`,
//!   `recovery_replay`; on a full (non-smoke) run, `segment_flush` and
//!   `recovery_replay` must additionally clear 200k records/s — the durability
//!   tier must never become the ingest bottleneck, and recovery must replay
//!   (not retrain) its way back to serving.
//! - `BENCH_query.json`: `query_ast` rows `planned_selective`,
//!   `scan_selective`, `planned_cached`, `planned_group_by`, `scan_group_by`.
//! - `BENCH_server.json`: `server` rows `http_ingest` and `http_query` — the
//!   loopback HTTP front end (parse → admission → engine → response). No floor:
//!   the rates fold in socket and scheduling costs on whatever cores CI grants,
//!   but both rows must exist with positive rates.

use serde::Value;
use std::process::ExitCode;

/// Throughput floor for the durable tier's full-run flush/replay rows.
const STORAGE_FLOOR_RPS: f64 = 200_000.0;

/// Full-run floor for the cold compiled-automaton row (every line masked +
/// tokenized + matched, no line cache).
const COLD_AUTOMATON_FLOOR_RPS: f64 = 400_000.0;

/// Full-run floor for the end-to-end streaming engine under the automaton
/// (shards, batching, worker pool, per-worker caches, batch reordering).
const STREAM_AUTOMATON_FLOOR_RPS: f64 = 1_500_000.0;

fn fail(msg: &str) -> bool {
    eprintln!("[check_bench] FAIL: {msg}");
    false
}

fn rate_of(rows: &[Value], group: &str, name: &str) -> Option<f64> {
    rows.iter().find_map(|row| {
        match (
            row.get("group"),
            row.get("name"),
            row.get("records_per_sec"),
        ) {
            (Some(Value::String(g)), Some(Value::String(n)), Some(rate))
                if g == group && n == name =>
            {
                match rate {
                    Value::Float(f) => Some(*f),
                    Value::UInt(u) => Some(*u as f64),
                    _ => None,
                }
            }
            _ => None,
        }
    })
}

/// Validate one artifact; returns false (after printing the reason) on failure.
fn check_artifact(path: &str) -> bool {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => return fail(&format!("cannot read {path}: {err}")),
    };
    let doc: Value = match serde_json::from_str(&text) {
        Ok(doc) => doc,
        Err(err) => return fail(&format!("{path} is not valid JSON: {err}")),
    };
    let bench = match doc.get("bench") {
        Some(Value::String(name)) => name.clone(),
        other => return fail(&format!("{path}: unexpected `bench` field: {other:?}")),
    };
    let full_run = matches!(doc.get("mode"), Some(Value::String(mode)) if mode == "full");
    let Some(Value::Array(rows)) = doc.get("rows") else {
        return fail(&format!("{path}: missing `rows` array"));
    };

    // (group, row, full-run throughput floor) per artifact kind.
    let required: &[(&str, &str, f64)] = match bench.as_str() {
        "ingest" => &[
            ("ingest_engines", "tree_walk", 0.0),
            ("ingest_engines", "automaton", COLD_AUTOMATON_FLOOR_RPS),
            ("ingest_engines", "automaton_cached", 0.0),
            ("ingest_engines", "stream_tree_walk", 0.0),
            (
                "ingest_engines",
                "stream_automaton",
                STREAM_AUTOMATON_FLOOR_RPS,
            ),
        ],
        "storage" => &[
            ("storage", "wal_append", 0.0),
            ("storage", "segment_flush", STORAGE_FLOOR_RPS),
            ("storage", "recovery_replay", STORAGE_FLOOR_RPS),
        ],
        "query" => &[
            ("query_ast", "planned_selective", 0.0),
            ("query_ast", "scan_selective", 0.0),
            ("query_ast", "planned_cached", 0.0),
            ("query_ast", "planned_group_by", 0.0),
            ("query_ast", "scan_group_by", 0.0),
        ],
        "server" => &[
            ("server", "http_ingest", 0.0),
            ("server", "http_query", 0.0),
        ],
        other => return fail(&format!("{path}: unknown bench kind {other:?}")),
    };

    for &(group, name, floor) in required {
        match rate_of(rows, group, name) {
            Some(rate) if rate > 0.0 && rate.is_finite() => {
                if full_run && rate < floor {
                    return fail(&format!(
                        "{path}: row {name} at {rate:.0} records/s is below the {floor:.0} floor"
                    ));
                }
                println!("[check_bench] {name:<18} {rate:>14.0} records/s");
            }
            Some(rate) => return fail(&format!("{path}: row {name} has bad rate {rate}")),
            None => {
                return fail(&format!(
                    "{path}: required {group} row missing or malformed: {name}"
                ))
            }
        }
    }
    println!("[check_bench] OK: {path} has all required {bench} rows");
    true
}

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    let paths = if paths.is_empty() {
        vec![
            "BENCH_ingest.json".to_string(),
            "BENCH_storage.json".to_string(),
            "BENCH_query.json".to_string(),
            "BENCH_server.json".to_string(),
        ]
    } else {
        paths
    };
    if paths.iter().all(|p| check_artifact(p)) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
