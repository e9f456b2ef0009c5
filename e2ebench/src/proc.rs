//! Spawning `esvm` the way a user would, with its peak resident set.

use std::io::{self, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitStatus, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Environment variables that change how `esvm` spreads work over
/// threads. They are removed from every spawned process (and from the
/// harness itself) so each workload runs exactly as its arguments say.
pub const ESVM_ENV: [&str; 4] = [
    "ESVM_THREADS",
    "ESVM_SHARDS",
    "ESVM_BATCH",
    "ESVM_AUTO_CUTOFF",
];

/// The release `esvm` binary under test.
pub struct Esvm {
    bin: PathBuf,
}

impl Esvm {
    /// The binary at `bin`, which must exist. The path is made absolute:
    /// processes start in their own run directory.
    pub fn new(bin: PathBuf) -> Result<Self, String> {
        let bin = std::fs::canonicalize(&bin)
            .map_err(|e| format!("esvm binary {}: {e}", bin.display()))?;
        Ok(Self { bin })
    }

    /// Spawns `esvm args…` in `cwd` with stdout and stderr piped and,
    /// when `stdin` is set, stdin piped too (otherwise `/dev/null`).
    pub fn spawn(&self, args: &[&str], cwd: &Path, stdin: bool) -> io::Result<Running> {
        let mut cmd = Command::new(&self.bin);
        cmd.args(args)
            .current_dir(cwd)
            .stdin(if stdin { Stdio::piped() } else { Stdio::null() })
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        for var in ESVM_ENV {
            cmd.env_remove(var);
        }
        let spawned = Instant::now();
        let mut child = cmd.spawn()?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut err = child.stderr.take().expect("stderr is piped");
        let stderr = std::thread::spawn(move || {
            let mut text = String::new();
            let _ = err.read_to_string(&mut text);
            text
        });
        Ok(Running {
            stdin: child.stdin.take(),
            stdout,
            spawned,
            child,
            stderr: Some(stderr),
            peak: None,
            reaped: false,
        })
    }

    /// Runs `esvm args…` to completion with no input, sampling its peak
    /// resident set.
    pub fn run(&self, args: &[&str], cwd: &Path) -> io::Result<Exited> {
        let mut running = self.spawn(args, cwd, false)?;
        running.watch_peak();
        running.finish()
    }
}

/// A spawned `esvm` process. Dropping it unfinished kills and reaps the
/// process, so no run leaves one behind.
pub struct Running {
    /// The child's stdin, when piped.
    pub stdin: Option<ChildStdin>,
    /// The child's stdout.
    pub stdout: BufReader<ChildStdout>,
    /// When the process was spawned.
    pub spawned: Instant,
    child: Child,
    stderr: Option<JoinHandle<String>>,
    peak: Option<JoinHandle<u64>>,
    reaped: bool,
}

/// A reaped process.
pub struct Exited {
    /// Exit status.
    pub status: ExitStatus,
    /// Spawn to exit.
    pub wall: Duration,
    /// `VmHWM` (KiB) last read from `/proc/<pid>/status` before exit;
    /// 0 unless the process was started by [`Esvm::run`].
    pub peak_rss_kib: u64,
    /// Everything the process wrote to stdout after the caller stopped
    /// reading it line by line.
    pub stdout: String,
    /// Everything the process wrote to stderr.
    pub stderr: String,
}

impl Exited {
    /// `Ok` for a clean exit, otherwise a description with the tail of
    /// stderr (a panic, such as one on a closed pipe, exits with 101).
    pub fn check(&self, what: &str) -> Result<(), String> {
        if self.status.success() {
            return Ok(());
        }
        let tail: String = self
            .stderr
            .lines()
            .rev()
            .take(3)
            .collect::<Vec<_>>()
            .join(" | ");
        Err(format!("{what} exited with {}: {tail}", self.status))
    }
}

/// How often [`Esvm::run`] samples a batch command's `VmHWM`.
const PEAK_POLL: Duration = Duration::from_millis(1);

/// The process's peak resident set (`VmHWM`, KiB) so far, or `None`
/// once it has exited. The kernel's `ru_maxrss` is no substitute: it
/// also counts the parent's pages the child held between fork and exec.
fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

impl Running {
    /// The process's peak resident set so far (KiB); it must be alive.
    pub fn peak_rss_kib(&self) -> io::Result<u64> {
        vm_hwm_kib(self.child.id()).ok_or_else(|| io::Error::other("process has exited"))
    }

    /// Samples the peak resident set until the process exits.
    fn watch_peak(&mut self) {
        let pid = self.child.id();
        self.peak = Some(std::thread::spawn(move || {
            let mut last = 0;
            while let Some(kib) = vm_hwm_kib(pid) {
                last = kib;
                std::thread::sleep(PEAK_POLL);
            }
            last
        }));
    }

    /// Closes stdin, drains stdout to EOF, and reaps the process.
    pub fn finish(mut self) -> io::Result<Exited> {
        drop(self.stdin.take());
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest)?;
        // Stdout closes as the process exits.
        let wall = self.spawned.elapsed();
        // The watcher stops once the process is a zombie, which it stays
        // until reaped below, so it never reads a recycled pid.
        let peak_rss_kib = self.peak.take().map_or(0, |h| h.join().unwrap_or(0));
        let status = self.child.wait()?;
        self.reaped = true;
        let stderr = self.join_stderr();
        Ok(Exited {
            status,
            wall,
            peak_rss_kib,
            stdout: rest,
            stderr,
        })
    }

    fn join_stderr(&mut self) -> String {
        self.stderr
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default()
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            if let Some(h) = self.peak.take() {
                let _ = h.join();
            }
            let _ = self.child.wait();
            self.join_stderr();
        }
    }
}
