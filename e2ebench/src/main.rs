//! End-to-end benchmark of the `esvm` binary.
//!
//! ```text
//! bash e2ebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it spawns the release binary, feeds it only
//! generated inputs and measures what its users see; with `--trace 1`
//! it calls each crate's public functions in process and reports
//! per-layer numbers from in-memory spans. Every run checks the
//! program's outputs; the last stdout line is the JSON result. See
//! `e2ebench/README.md` for the workloads, metrics and predictions.

mod check;
mod figures;
mod host;
mod inputs;
mod offline;
mod proc;
mod serve;
mod spans;
mod stats;
mod traced;

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts the heap allocations of this process, so the traced run can
/// report exact allocations per served request.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a statistic
// that publishes no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations (including reallocations) made so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Run files live here, relative to the repository root. Relative on
/// purpose: Unix socket paths are limited to about 100 bytes.
const RUN_DIR: &str = "e2ebench/run";

/// The benchmark workloads (README.md says why each was chosen).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `esvm all`: every paper table and figure at 50 seeds.
    PaperFigures,
    /// `esvm gen` then `esvm solve` on 100k VMs / 10k servers.
    Offline100k,
    /// `esvm serve` over stdin/stdout, heavy load, 16 outstanding.
    ServePipeHeavy,
    /// `esvm serve --socket --journal`, light load with faults, one
    /// outstanding, then a `--recover` restart.
    ServeSocketDurable,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::PaperFigures,
        Workload::Offline100k,
        Workload::ServePipeHeavy,
        Workload::ServeSocketDurable,
    ];

    /// The name used on the command line and in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFigures => "paper-figures",
            Workload::Offline100k => "offline-100k",
            Workload::ServePipeHeavy => "serve-pipe-heavy",
            Workload::ServeSocketDurable => "serve-socket-durable",
        }
    }
}

/// What every workload needs.
pub struct Ctx {
    /// The binary under test.
    pub esvm: proc::Esvm,
    /// Workload seed.
    pub seed: u64,
    /// Measuring time per run.
    pub seconds: f64,
    /// A fresh directory for this run's files (relative to the root).
    pub dir: PathBuf,
    /// Usable cores.
    pub nproc: usize,
}

/// What one run measured, and every check that failed.
#[derive(Default)]
pub struct Report {
    /// Operations tried: processes spawned, lines sent, checks made.
    pub attempted: u64,
    /// One entry per failed operation or check.
    pub failures: Vec<String>,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Printed with the metrics but left out of the result line: values
    /// too seed-dependent to gate a change by a relative bound.
    pub info: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Adds an informational value.
    pub fn info(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.info.push((name.into(), value, unit));
    }

    /// Counts one checked operation; records its failure, if any.
    pub fn check<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        result.map_err(|e| self.failures.push(e)).ok()
    }

    /// The result line: the metrics only when every check
    /// passed.
    fn result_json(&self) -> String {
        let correct = self.failures.is_empty();
        let mut metrics = String::new();
        if correct {
            for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(
                    metrics,
                    "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                );
            }
        }
        let failed = self.failures.len() as u64;
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(failed).max(1)
        )
    }
}

/// Runs `esvm args…` at least `min` times and until `seconds` have
/// passed, checking each run's exit and its stdout with `verify`.
/// Returns every run's spawn-to-exit seconds and peak RSS (KiB), or
/// `None` once a run fails (the failure is recorded in `r`).
pub fn repeat(
    ctx: &Ctx,
    r: &mut Report,
    args: &[&str],
    min: usize,
    seconds: f64,
    mut verify: impl FnMut(&str) -> Result<(), String>,
) -> Option<(Vec<f64>, Vec<f64>)> {
    let what = format!("esvm {}", args[0]);
    let (mut wall, mut rss) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while wall.len() < min || start.elapsed().as_secs_f64() < seconds {
        let run = ctx.esvm.run(args, &ctx.dir);
        let exited = r.check(run.map_err(|e| format!("{what}: {e}")))?;
        r.check(exited.check(&what))?;
        r.check(verify(&exited.stdout))?;
        wall.push(exited.wall.as_secs_f64());
        rss.push(exited.peak_rss_kib as f64);
    }
    Some((wall, rss))
}

/// The batch workloads' client-visible metrics, from the spawn-to-exit
/// times of repeated set-up and batch commands. A batch user's request
/// is one command, so the request metrics describe the command, and a
/// restart without a journal repeats the command, so `recover_s` is
/// `batch_s`.
pub fn batch_metrics(r: &mut Report, setup_s: &[f64], batch_s: &[f64], rss_kib: &[f64]) {
    let batch = stats::median(batch_s);
    r.metric("setup_s", stats::median(setup_s), "s");
    r.metric("batch_s", batch, "s");
    r.metric("req_p50_us", batch * 1e6, "us");
    r.metric("req_p99_us", stats::tail(batch_s) * 1e6, "us");
    r.metric(
        "req_per_s",
        batch_s.len() as f64 / batch_s.iter().sum::<f64>(),
        "1/s",
    );
    // Each sample can only undershoot the peak (it is polled), so the
    // largest is the best estimate.
    let peak = rss_kib.iter().copied().fold(0.0, f64::max);
    r.metric("rss_peak_mb", peak / 1024.0, "MB");
    r.metric("recover_s", batch, "s");
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    esvm: PathBuf,
}

const USAGE: &str =
    "usage: esvm-e2ebench --esvm PATH --workload NAME --seed N --seconds S --trace 0|1
workloads: paper-figures offline-100k serve-pipe-heavy serve-socket-durable";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_owned())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed must be an unsigned integer".to_owned())?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
        esvm: PathBuf::from(get("--esvm")?),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // In-process references and the traced run must not pick up a
    // thread policy from the caller's environment either.
    for var in proc::ESVM_ENV {
        std::env::remove_var(var);
    }
    let esvm = match proc::Esvm::new(args.esvm) {
        Ok(esvm) => esvm,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mode = if args.trace { "traced" } else { "e2e" };
    let dir = Path::new(RUN_DIR).join(format!(
        "{}-{mode}-{}",
        args.workload.name(),
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        esvm,
        seed: args.seed,
        seconds: args.seconds,
        dir,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };

    let mut report = if args.trace {
        traced::run(&ctx)
    } else {
        match args.workload {
            Workload::PaperFigures => figures::e2e(&ctx),
            Workload::Offline100k => offline::e2e(&ctx),
            Workload::ServePipeHeavy => serve::e2e_pipe(&ctx),
            Workload::ServeSocketDurable => serve::e2e_socket(&ctx),
        }
    };
    let _ = std::fs::remove_dir_all(&ctx.dir);
    for (name, value, _) in &report.metrics {
        if !value.is_finite() {
            report.failures.push(format!("metric {name} is {value}"));
        }
    }

    let host = host::fingerprint(Path::new("."));
    println!(
        "e2ebench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host {host}");
    for failure in &report.failures {
        println!("FAILED {failure}");
    }
    let error_rate = report.failures.len() as f64 / report.attempted.max(1) as f64;
    report.info("error_rate", error_rate, "ratio");
    for (name, value, unit) in &report.metrics {
        println!("  {name:<44} {value:>16.6} {unit}");
    }
    for (name, value, unit) in &report.info {
        println!("  {name:<44} {value:>16.6} {unit} (info, not gated)");
    }
    let result = report.result_json();
    let record = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{host},\"result\":{result}}}\n",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace
    );
    append(&Path::new(RUN_DIR).join("history.jsonl"), &record);
    println!("{result}");
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn append(path: &Path, text: &str) {
    use std::io::Write as _;
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(text.as_bytes()));
    if let Err(e) = written {
        eprintln!("cannot append to {}: {e}", path.display());
    }
}
