//! Tiny-scale runs of every workload, untraced and traced: each prints every
//! metric `BENCHMARK.json` lists, with its unit, and exits 0.

use serde::Value;
use std::path::Path;
use std::process::Command;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let doc = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
    let Some(Value::Array(metrics)) = doc.get(section) else {
        panic!("BENCHMARK.json has no {section} list");
    };
    metrics
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Value::String(name)), Some(Value::String(unit))) => (name.clone(), unit.clone()),
            _ => panic!("metric without name or unit in {section}"),
        })
        .collect()
}

fn run_tiny(workload: &str, trace: bool) {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
        ])
        .arg(if trace { "1" } else { "0" })
        .arg("--tiny")
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} (trace {trace}) failed: {stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        stdout.lines().any(|l| l.starts_with("descriptor {")),
        "no descriptor line"
    );
    let last = stdout.lines().last().expect("output has a result line");
    let result = serde_json::parse_value(last).expect("the last line is JSON");
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{last}");
    let Some(Value::Object(metrics)) = result.get("metrics") else {
        panic!("result has no metrics object: {last}");
    };
    let section = if trace { "per_layer" } else { "end_to_end" };
    let expected = listed(section);
    assert_eq!(metrics.len(), expected.len(), "metric count of {section}");
    for (name, unit) in expected {
        let (_, entry) = metrics
            .iter()
            .find(|(key, _)| *key == name)
            .unwrap_or_else(|| panic!("{workload} does not report {name}"));
        assert_eq!(
            entry.get("unit"),
            Some(&Value::String(unit.clone())),
            "{name} unit"
        );
        assert!(
            matches!(
                entry.get("value"),
                Some(Value::Float(_) | Value::UInt(_) | Value::Int(_))
            ),
            "{name} has no numeric value"
        );
        let line = format!("metric {name} = ");
        let printed = stdout
            .lines()
            .find(|l| l.starts_with(&line))
            .unwrap_or_else(|| panic!("no readable line for {name}"));
        assert!(printed.contains(&format!(" {unit} (")), "{printed}");
    }
}

#[test]
fn bulk_ingest_prints_every_metric() {
    run_tiny("bulk_ingest", false);
    run_tiny("bulk_ingest", true);
}

#[test]
fn parse_offline_prints_every_metric() {
    run_tiny("parse_offline", false);
    run_tiny("parse_offline", true);
}

#[test]
fn unknown_workloads_and_missing_arguments_fail() {
    let bin = env!("CARGO_BIN_EXE_perfbench");
    let unknown = Command::new(bin)
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("binary runs");
    assert!(!unknown.status.success());
    assert!(unknown.stdout.is_empty(), "no result may be printed");
    let missing = Command::new(bin)
        .args(["--workload", "bulk_ingest"])
        .output()
        .expect("binary runs");
    assert!(!missing.status.success());
}
