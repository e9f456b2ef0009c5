//! The host fingerprint stored with every result: wall-clock numbers
//! mean something only next to the machine and code they came from.

use std::path::Path;
use std::process::Command;

/// `{"nproc":…,"cpu":…,"rustc":…,"commit":…}`.
pub fn fingerprint(root: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["-V"], root).unwrap_or_else(|| "unknown".into());
    // A checkout exported without git metadata has no commit to name.
    let commit = if root.join(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"], root)
    } else {
        None
    }
    .unwrap_or_else(|| "none".into());
    format!(
        "{{\"nproc\":{nproc},\"cpu\":{},\"rustc\":{},\"commit\":{}}}",
        json_string(&cpu),
        json_string(&rustc),
        json_string(&commit)
    )
}

fn command_line(program: &str, args: &[&str], cwd: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
