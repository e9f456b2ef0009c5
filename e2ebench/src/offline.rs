//! `offline-100k`: `esvm gen` writes a 100k-VM / 10k-server ESVT trace
//! of the paper's workload model (mean interarrival 4, mean duration
//! 5), then `esvm solve --algos miec,ffps` allocates it. MIEC's scan
//! over every server dominates; the serve layers sit idle.

use std::path::Path;

use esvm_core::AllocatorKind;
use esvm_simcore::{AllocationProblem, Assignment};
use rand::SeedableRng;

use crate::{batch_metrics, check, repeat, Ctx, Report};

/// VMs in the trace.
pub const VMS: usize = 100_000;
/// Servers in the trace.
pub const SERVERS: usize = 10_000;
/// `esvm gen` runs per run; their median is the set-up time.
const SETUP_REPS: usize = 31;
/// `esvm solve` runs per run, at least.
const MIN_BATCHES: usize = 3;

/// The `esvm gen` arguments writing the seeded trace to `out`.
fn gen_args(seed: u64, out: &str) -> Vec<String> {
    [
        "gen",
        "--vms",
        &VMS.to_string(),
        "--servers",
        &SERVERS.to_string(),
        "--interarrival",
        "4",
        "--duration",
        "5",
        "--seed",
        &seed.to_string(),
        "--out",
        out,
    ]
    .map(str::to_owned)
    .to_vec()
}

/// The same trace written in process.
pub fn write_trace(seed: u64, path: &Path) -> Result<(), String> {
    esvm_workload::WorkloadConfig::new(VMS, SERVERS)
        .mean_interarrival(4.0)
        .mean_duration(5.0)
        .generate_esvt_file(seed, path)
        .map_err(|e| format!("in-process trace generation failed: {e}"))
}

/// Allocates `problem` with `kind` the way `esvm solve` does (RNG seed
/// 0, sequential scan).
pub fn allocate<'p>(
    problem: &'p AllocationProblem,
    kind: AllocatorKind,
) -> Result<Assignment<'p>, String> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    kind.build()
        .allocate(problem, &mut rng)
        .map_err(|e| format!("in-process {} failed: {e}", kind.name()))
}

/// The `esvm solve` table cells of an audited assignment: total, run,
/// idle and transition energy, and CPU utilization.
fn audit_cells(assignment: &Assignment<'_>) -> Result<Vec<String>, String> {
    let report = assignment
        .audit()
        .map_err(|e| format!("audit failed: {e}"))?;
    Ok(vec![
        format!("{:.0}", report.total_cost),
        format!("{:.0}", report.breakdown.run),
        format!("{:.0}", report.breakdown.idle),
        format!("{:.0}", report.breakdown.transition),
        format!("{:.1}", report.utilization.avg_cpu * 100.0),
    ])
}

/// Σ cpu · duration over the problem's VMs, in compute-unit time units.
fn work(problem: &AllocationProblem) -> f64 {
    problem.vms().iter().map(|vm| vm.cpu_time()).sum()
}

/// The end-to-end run.
pub fn e2e(ctx: &Ctx) -> Report {
    let mut r = Report::default();
    // Set-up: writing the trace. Every run must write the same bytes.
    let trace = "trace.esvt";
    let path = ctx.dir.join(trace);
    let gen = gen_args(ctx.seed, trace);
    let gen: Vec<&str> = gen.iter().map(String::as_str).collect();
    let mut first: Option<Vec<u8>> = None;
    let Some((setup, _)) = repeat(ctx, &mut r, &gen, SETUP_REPS, 0.0, |_| {
        let bytes = std::fs::read(&path).map_err(|e| format!("cannot read trace: {e}"))?;
        match &first {
            None => first = Some(bytes),
            Some(b) if *b == bytes => {}
            Some(_) => return Err("esvm gen wrote different traces for one seed".into()),
        }
        Ok(())
    }) else {
        return r;
    };

    // The in-process audit the printed rows must equal.
    let Some(problem) = r.check(
        esvm_workload::esvt::read_esvt_file(&path).map_err(|e| format!("trace does not load: {e}")),
    ) else {
        return r;
    };
    let mut want = Vec::new();
    for kind in [AllocatorKind::Miec, AllocatorKind::Ffps] {
        let Some(cells) = r.check(allocate(&problem, kind).and_then(|a| audit_cells(&a))) else {
            return r;
        };
        want.push((kind.name(), cells));
    }

    let mut totals = Vec::new();
    let solve = ["solve", "--trace", trace, "--algos", "miec,ffps"];
    let Some((batch, rss)) = repeat(ctx, &mut r, &solve, MIN_BATCHES, ctx.seconds, |out| {
        totals = want
            .iter()
            .map(|(algo, cells)| check::solve_totals(out, algo, cells))
            .collect::<Result<_, _>>()?;
        Ok(())
    }) else {
        return r;
    };

    batch_metrics(&mut r, &setup, &batch, &rss);
    let (miec, ffps) = (totals[0], totals[1]);
    r.metric("energy_cost", miec / work(&problem), "W/CU");
    r.info("energy_reduction_pct", (ffps - miec) / ffps * 100.0, "%");
    r
}
