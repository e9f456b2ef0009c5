//! Crash/recover smoke against the built `esvm` binary: the journal
//! survives a process that dies without warning.
//!
//! * `gen` → `serve --journal` → chop the journal tail mid-record →
//!   `serve --recover` reports the torn bytes and resumes journaling to
//!   the same file → a second `--recover` sees no tear.
//! * A live `serve --journal` session is killed with SIGKILL after its
//!   replies; `--recover` restores every placement it acknowledged.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const ESVM: &str = env!("CARGO_BIN_EXE_esvm");

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `esvm args…` to completion and returns its stdout; panics with
/// stderr when it exits non-zero.
fn esvm(args: &[&str]) -> String {
    let out = Command::new(ESVM).args(args).output().expect("spawn esvm");
    assert!(
        out.status.success(),
        "esvm {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The count in the report's `placed` row.
fn placed(report: &str) -> u64 {
    report
        .lines()
        .find_map(|l| l.trim_start().strip_prefix("placed"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no placed row in:\n{report}"))
}

#[test]
fn torn_journal_tail_is_dropped_and_the_resumed_journal_is_clean() {
    let dir = scratch("torn_tail");
    let trace = dir.join("trace.esvt");
    let journal = dir.join("serve.esvj");
    let crashed = dir.join("crashed.esvj");
    let (trace, journal, crashed) = (
        trace.to_str().unwrap(),
        journal.to_str().unwrap(),
        crashed.to_str().unwrap(),
    );
    esvm(&[
        "gen",
        "--vms",
        "400",
        "--servers",
        "40",
        "--interarrival",
        "0.2",
        "--out",
        trace,
    ]);
    let served = esvm(&["serve", "--trace", trace, "--journal", journal]);
    assert!(served.contains("journal appends"), "{served}");

    // A crash mid-append: the last 13 bytes never reached the disk.
    let bytes = std::fs::read(journal).unwrap();
    std::fs::write(crashed, &bytes[..bytes.len() - 13]).unwrap();
    let recovered = esvm(&["serve", "--recover", crashed, "--journal", crashed]);
    assert!(recovered.contains("torn bytes dropped"), "{recovered}");
    assert!(recovered.contains("recovery (ms)"), "{recovered}");

    // The resumed journal was truncated in place: no tear any more.
    let again = esvm(&["serve", "--recover", crashed]);
    assert!(again.contains("recovered"), "{again}");
    assert!(!again.contains("torn bytes"), "{again}");
    assert_eq!(placed(&recovered), placed(&again));
}

#[test]
fn sigkilled_session_recovers_every_acknowledged_placement() {
    let dir = scratch("sigkill");
    let journal = dir.join("live.esvj");
    let journal = journal.to_str().unwrap();
    let mut child = Command::new(ESVM)
        .args([
            "serve",
            "--servers",
            "20",
            "--journal",
            journal,
            "--fsync-every",
            "1",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn esvm serve");
    let mut stdin = child.stdin.take().unwrap();
    let mut replies = BufReader::new(child.stdout.take().unwrap());
    let mut acknowledged = 0u64;
    for id in 0..60u32 {
        // Overlapping requests, so the session keeps several servers busy.
        writeln!(stdin, "REQ {id} {} 20 2.0 4.0", 1 + id / 4).unwrap();
        stdin.flush().unwrap();
        let mut line = String::new();
        replies.read_line(&mut line).unwrap();
        assert!(
            line.starts_with("PLACED") || line.starts_with("REJECTED"),
            "{line}"
        );
        acknowledged += u64::from(line.starts_with("PLACED"));
    }
    // No drain, no exit path: the process dies where it stands.
    child.kill().unwrap();
    child.wait().unwrap();

    let recovered = esvm(&["serve", "--recover", journal]);
    assert!(recovered.contains("recovered"), "{recovered}");
    assert!(acknowledged > 0);
    assert_eq!(placed(&recovered), acknowledged, "{recovered}");
}
