//! One module per paper artefact: Tables I–II and Figs. 2–9.
//!
//! Every `figN` function returns a [`Figure`] holding the
//! same series the paper plots, with the same fitting-curve families
//! attached. All of them accept `ExpOptions` so the
//! CLI runs them at paper scale while tests and benches run them in
//! quick mode. Each `figN` computes all of its own points;
//! [`paper_figures`] draws the whole set on one [`Sweep`], so a point
//! two figures share is computed once. [`ext_migration`],
//! [`ext_arrivals`] and [`ext_overload`] are extension experiments
//! beyond the paper: the
//! allocation-vs-migration trade-off of Section V, the sensitivity to
//! non-Poisson arrival streams, and behaviour under overload with
//! admission control.

mod ext_arrivals;
mod ext_migration;
mod ext_overload;
mod fig2;
mod fig3;
mod fig4;
mod fig5;
mod fig6;
mod fig7;
mod fig8;
mod fig9;
mod sweep;
mod tables;

pub use ext_arrivals::{ext_arrivals, ext_arrivals_rows, ArrivalRow};
pub use ext_migration::{ext_migration, ext_migration_rows, MigrationRow};
pub use ext_overload::{ext_overload, ext_overload_rows, OverloadRow};
pub use fig2::fig2;
pub use fig3::fig3;
pub use fig4::fig4;
pub use fig5::fig5;
pub use fig6::fig6;
pub use fig7::fig7;
pub use fig8::fig8;
pub use fig9::fig9;
pub use sweep::{PointSummary, Sweep};
pub use tables::{table1, table2};

use crate::runner::RunError;
use crate::{ExpOptions, Figure, MonteCarlo};
use esvm_core::AllocatorKind;
use esvm_workload::WorkloadConfig;

/// Figs. 2–9 in paper order, all drawn on `sweep`. This is the one
/// figure list of `esvm all` and `esvm report`.
///
/// # Errors
///
/// The first [`RunError`], in figure order.
pub fn paper_figures(sweep: &Sweep) -> Result<Vec<Figure>, RunError> {
    PLOTS.iter().map(|plot| plot(sweep)).collect()
}

/// The body of a `figN`: the figure drawn on the points of a sweep.
type Plot = fn(&Sweep) -> Result<Figure, RunError>;

/// The body of each `figN`, in paper order.
const PLOTS: [Plot; 8] = [
    fig2::plot,
    fig3::plot,
    fig4::plot,
    fig5::plot,
    fig6::plot,
    fig7::plot,
    fig8::plot,
    fig9::plot,
];

/// The paper's inter-arrival sweep: "The mean inter-arrival time varies
/// from 0.5 to 10 time units."
pub(crate) fn interarrival_sweep() -> Vec<f64> {
    vec![0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0]
}

/// The paper's VM-count sweep (Fig. 2/7): 100–500 VMs, servers = half
/// the VMs; scaled down in quick mode.
pub(crate) fn vm_count_sweep(opts: &ExpOptions) -> Vec<usize> {
    [100, 200, 300, 400, 500]
        .into_iter()
        .map(|c| opts.scale_vms(c))
        .collect()
}

/// The sweep point every figure starts from: `vm_count` VMs on half as
/// many servers, mean inter-arrival `ia`, mean length 5, transition 1.
pub(crate) fn point_config(vm_count: usize, ia: f64) -> WorkloadConfig {
    WorkloadConfig::new(vm_count, (vm_count / 2).max(1))
        .mean_interarrival(ia)
        .mean_duration(5.0)
        .transition_time(1.0)
}

/// The two algorithms every figure compares.
pub(crate) const COMPARED: [AllocatorKind; 2] = [AllocatorKind::Miec, AllocatorKind::Ffps];

/// Shorthand for the executor configured by `opts`.
pub(crate) fn executor(opts: &ExpOptions) -> MonteCarlo {
    MonteCarlo::new(opts.seeds, opts.threads)
}

/// Percentage helper.
pub(crate) fn pct(fraction: f64) -> f64 {
    fraction * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(quick: bool) -> ExpOptions {
        ExpOptions {
            seeds: 1,
            threads: 2,
            quick,
        }
    }

    #[test]
    fn the_suite_computes_each_shared_point_once() {
        for quick in [true, false] {
            let sweep = Sweep::new(&opts(quick));
            assert_eq!(paper_figures(&sweep).unwrap().len(), PLOTS.len());
            assert_eq!(
                (sweep.requested(), sweep.computed()),
                (182, 105),
                "quick: {quick}"
            );
        }
    }

    #[test]
    fn each_standalone_figure_computes_every_point_it_requests() {
        let points = [35, 7, 35, 21, 21, 35, 14, 14];
        for (n, (plot, expected)) in PLOTS.into_iter().zip(points).enumerate() {
            let sweep = Sweep::new(&opts(true));
            plot(&sweep).unwrap();
            assert_eq!(
                (sweep.requested(), sweep.computed()),
                (expected, expected),
                "fig{}",
                n + 2
            );
        }
    }
}
