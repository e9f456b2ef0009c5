//! Fig. 7 — standard VM types on server types 1–3: energy reduction
//! ratio vs mean inter-arrival time, one series per VM count,
//! logarithmic fits.
//!
//! Paper shape: with the standard-only workload MIEC saves up to ~20 %,
//! roughly twice the all-types saving of Fig. 2; the printed fits are
//! logarithmic, i.e. the ratio rises with inter-arrival time and then
//! saturates as the load becomes very light.

use super::{interarrival_sweep, pct, point_config, vm_count_sweep, Sweep};
use crate::runner::RunError;
use crate::{ExpOptions, Figure, Series};
use esvm_analysis::fit::FitKind;
use esvm_workload::catalog;

/// Reproduces Fig. 7: standard VM types only, server types 1–3 only,
/// transition time 1 min, mean length 5 min.
///
/// # Errors
///
/// Propagates the first [`RunError`].
pub fn fig7(opts: &ExpOptions) -> Result<Figure, RunError> {
    plot(&Sweep::new(opts))
}

/// Fig. 7 on the points of `sweep`.
pub(super) fn plot(sweep: &Sweep) -> Result<Figure, RunError> {
    let mut figure = Figure::new(
        "Fig. 7",
        "energy reduction ratio of the allocation of standard types of VMs on types 1-3 of servers",
        "mean inter-arrival time",
        "energy reduction ratio (%)",
    );

    for vm_count in vm_count_sweep(sweep.opts()) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for ia in interarrival_sweep() {
            let config = point_config(vm_count, ia)
                .vm_types(catalog::standard_vm_types())
                .server_types(catalog::server_types_1_3());
            xs.push(ia);
            ys.push(pct(sweep.point(&config)?.reduction));
        }
        figure.push(Series::with_fit(
            format!("{vm_count} VMs"),
            xs,
            ys,
            FitKind::Logarithmic,
        ));
    }
    figure.note("standard VM types (m1 family) on server types 1-3 only");
    Ok(figure)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpOptions {
        ExpOptions {
            seeds: 3,
            threads: 4,
            quick: true,
        }
    }

    #[test]
    fn five_series_with_log_fits() {
        let fig = fig7(&tiny()).unwrap();
        assert_eq!(fig.series.len(), 5);
        for s in &fig.series {
            assert_eq!(s.fit.expect("fit").kind, FitKind::Logarithmic);
        }
    }

    #[test]
    fn savings_are_positive() {
        let fig = fig7(&tiny()).unwrap();
        for s in &fig.series {
            let mean = s.y.iter().sum::<f64>() / s.y.len() as f64;
            assert!(mean > 0.0, "{}: mean {mean}%", s.label);
        }
    }
}
