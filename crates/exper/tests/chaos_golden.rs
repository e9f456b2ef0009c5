//! Golden output of a faulted `esvm chaos` run: the event stream and
//! the repair explain records must stay byte-identical to
//! `tests/fixtures/chaos_repair_golden.jsonl`.
//!
//! The fixture is the `--events-out` file followed by the
//! `"type":"explain"` lines of the `--trace-out` file with their
//! wall-clock `ts_us` field removed. It pins every repair decision —
//! winner, incremental cost, candidate and unfit tallies — so any change
//! to how repair scores the up servers shows up as a diff.

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

#[test]
fn faulted_chaos_run_matches_the_committed_golden() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("chaos_golden");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let events = dir.join("events.jsonl");
    let trace = dir.join("trace.jsonl");
    let out = Command::new(ESVM)
        .args([
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
            "--events-out",
            events.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("spawn esvm");
    assert!(
        out.status.success(),
        "esvm chaos failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut got = std::fs::read_to_string(&events).unwrap();
    let explains: Vec<String> = std::fs::read_to_string(&trace)
        .unwrap()
        .lines()
        .filter(|l| l.starts_with("{\"type\":\"explain\""))
        .map(without_timestamp)
        .collect();
    assert_eq!(explains.len(), 9, "expected one explain record per repair");
    for line in explains {
        got.push_str(&line);
        got.push('\n');
    }

    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/chaos_repair_golden.jsonl");
    let want = std::fs::read_to_string(golden).unwrap();
    assert_eq!(
        got, want,
        "chaos events or repair explain records drifted from tests/fixtures/chaos_repair_golden.jsonl"
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
