//! Golden telemetry of two fixed `esvm` runs: the event streams, the
//! explain records and the metrics tables must stay byte-identical to
//! the fixtures under `tests/fixtures/`.
//!
//! Each `.jsonl` fixture is the `--events-out` file followed by the
//! `"type":"explain"` lines of the `--trace-out` file with their
//! wall-clock `ts_us` field removed; each `.csv` fixture is the
//! `--metrics-out` file as written.
//!
//! * A faulted `chaos` run (`chaos_repair_golden.jsonl`,
//!   `chaos_metrics_golden.csv`) pins every repair decision — winner,
//!   incremental cost, candidate and unfit tallies — so any change to
//!   how repair scores the up servers shows up as a diff.
//! * A five-algorithm `compare` run (`compare_telemetry_golden.jsonl`,
//!   `compare_metrics_golden.csv`) pins MIEC placements, local-search
//!   moves, the online greedy's counters and every algorithm's
//!   `energy.*` gauges.

use std::path::{Path, PathBuf};
use std::process::Command;

const ESVM: &str = env!("CARGO_BIN_EXE_esvm");

/// Drops the `"ts_us":…` member, the only non-deterministic field of an
/// explain record.
fn without_timestamp(line: &str) -> String {
    match line.find(",\"ts_us\":") {
        Some(at) => {
            let rest = &line[at + 1..];
            let end = rest.find([',', '}']).expect("unterminated ts_us member");
            format!("{}{}", &line[..at], &rest[end..])
        }
        None => line.to_owned(),
    }
}

/// What one golden run wrote.
struct Telemetry {
    /// The events file, then the explain lines without `ts_us`.
    jsonl: String,
    explains: usize,
    metrics: String,
}

/// Runs `esvm` with `args` plus all three telemetry flags, writing into
/// a fresh scratch directory named `name`.
fn run_with_telemetry(name: &str, args: &[&str]) -> Telemetry {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let events = dir.join("events.jsonl");
    let trace = dir.join("trace.jsonl");
    let metrics = dir.join("metrics.csv");
    let out = Command::new(ESVM)
        .args(args)
        .arg("--events-out")
        .arg(&events)
        .arg("--trace-out")
        .arg(&trace)
        .arg("--metrics-out")
        .arg(&metrics)
        .output()
        .expect("spawn esvm");
    assert!(
        out.status.success(),
        "esvm {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut jsonl = std::fs::read_to_string(&events).unwrap();
    let explains: Vec<String> = std::fs::read_to_string(&trace)
        .unwrap()
        .lines()
        .filter(|l| l.starts_with("{\"type\":\"explain\""))
        .map(without_timestamp)
        .collect();
    for line in &explains {
        jsonl.push_str(line);
        jsonl.push('\n');
    }
    Telemetry {
        jsonl,
        explains: explains.len(),
        metrics: std::fs::read_to_string(&metrics).unwrap(),
    }
}

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name);
    std::fs::read_to_string(path).unwrap()
}

#[test]
fn faulted_chaos_run_matches_the_committed_golden() {
    let got = run_with_telemetry(
        "chaos_golden",
        &[
            "chaos",
            "--vms",
            "200",
            "--servers",
            "30",
            "--fault-rate",
            "0.7",
            "--seed",
            "3",
            "--algos",
            "miec,miec-ls",
        ],
    );
    assert_eq!(got.explains, 9, "expected one explain record per repair");
    assert_eq!(
        got.jsonl,
        fixture("chaos_repair_golden.jsonl"),
        "chaos events or repair explain records drifted from tests/fixtures/chaos_repair_golden.jsonl"
    );
    assert_eq!(
        got.metrics,
        fixture("chaos_metrics_golden.csv"),
        "chaos metrics drifted from tests/fixtures/chaos_metrics_golden.csv"
    );
}

#[test]
fn compare_telemetry_matches_the_committed_golden() {
    let got = run_with_telemetry(
        "compare_golden",
        &[
            "compare",
            "--vms",
            "60",
            "--servers",
            "12",
            "--seed",
            "5",
            "--seeds",
            "1",
            "--algos",
            "miec,miec-ls,ffps-ls,online-greedy,ffps",
        ],
    );
    assert_eq!(
        got.explains, 223,
        "expected one explain record per placement and move"
    );
    assert_eq!(
        got.jsonl,
        fixture("compare_telemetry_golden.jsonl"),
        "compare events or explain records drifted from tests/fixtures/compare_telemetry_golden.jsonl"
    );
    assert_eq!(
        got.metrics,
        fixture("compare_metrics_golden.csv"),
        "compare metrics drifted from tests/fixtures/compare_metrics_golden.csv"
    );
}

#[test]
fn timestamp_is_the_only_member_removed() {
    assert_eq!(
        without_timestamp(r#"{"type":"explain","vm":1,"span":2,"ts_us":3.5}"#),
        r#"{"type":"explain","vm":1,"span":2}"#
    );
    assert_eq!(
        without_timestamp(r#"{"type":"explain","ts_us":3.5,"vm":1}"#),
        r#"{"type":"explain","vm":1}"#
    );
    assert_eq!(without_timestamp(r#"{"vm":1}"#), r#"{"vm":1}"#);
}
