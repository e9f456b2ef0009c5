//! `paper-figures`: `esvm all`, every paper table and figure at the
//! paper's 50 seeds. Many small instances (≤ 500 VMs), so per-instance
//! fixed costs dominate; the only workload that runs the `esvm-par`
//! seed fan-out and the `esvm-analysis` fits. Its inputs are fixed by
//! the paper, so the workload seed changes nothing.

use crate::{batch_metrics, check, repeat, stats, Ctx, Report};

/// `esvm table1` spawns per run; their median is the set-up time.
const SETUP_REPS: usize = 31;
/// `esvm all` runs per run, at least.
const MIN_BATCHES: usize = 3;

/// `esvm all` as the benchmark runs it: at most two seed threads, and
/// never more than the host has.
pub fn threads(ctx: &Ctx) -> usize {
    ctx.nproc.min(2)
}

/// The end-to-end run.
pub fn e2e(ctx: &Ctx) -> Report {
    let mut r = Report::default();
    // The reference is the same command regenerated in process on one
    // thread: the output must not depend on the thread count.
    let args: Vec<String> = ["all", "--threads", "1"].map(str::to_owned).to_vec();
    let Some(reference) = r.check(
        esvm_exper::cli::run(&args)
            .map(|out| out + "\n")
            .map_err(|e| format!("in-process esvm all failed: {e}")),
    ) else {
        return r;
    };

    // Set-up: the fixed cost of any `esvm` invocation — process start
    // and the catalog tables every figure run builds first.
    let Some((setup, _)) = repeat(ctx, &mut r, &["table1"], SETUP_REPS, 0.0, |_| Ok(())) else {
        return r;
    };
    let threads = threads(ctx).to_string();
    let all = ["all", "--threads", &threads];
    let Some((batch, rss)) = repeat(ctx, &mut r, &all, MIN_BATCHES, ctx.seconds, |out| {
        same_output(out, &reference)
    }) else {
        return r;
    };

    batch_metrics(&mut r, &setup, &batch, &rss);
    let points = check::reduction_points(&reference);
    let energy = check::e3_miec_energy_per_work(&reference);
    if r.check(if points.is_empty() || energy.is_empty() {
        Err("esvm all output has no energy figures".to_owned())
    } else {
        Ok(())
    })
    .is_some()
    {
        r.metric("energy_cost", stats::mean(&energy), "W/CU");
        r.info("energy_reduction_pct", stats::mean(&points), "%");
    }
    r
}

fn same_output(got: &str, reference: &str) -> Result<(), String> {
    if got == reference {
        return Ok(());
    }
    let line = got
        .lines()
        .zip(reference.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| got.lines().count().min(reference.lines().count()));
    Err(format!(
        "esvm all output differs from the single-thread in-process run at line {}",
        line + 1
    ))
}
