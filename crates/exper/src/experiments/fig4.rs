//! Fig. 4 — energy reduction ratio vs the memory load of the system,
//! one series per VM count, logarithmic fits.
//!
//! The paper quantifies the *load* of the system by the average
//! utilization obtained with the FFPS method (Section IV-C). Shape: the
//! reduction ratio decreases with load and the decrease flattens.

use super::{interarrival_sweep, pct, point_config, vm_count_sweep, Sweep};
use crate::runner::RunError;
use crate::{ExpOptions, Figure, Series};
use esvm_analysis::fit::FitKind;

/// Reproduces Fig. 4: the Fig. 2 sweep re-plotted against memory load.
///
/// # Errors
///
/// Propagates the first [`RunError`].
pub fn fig4(opts: &ExpOptions) -> Result<Figure, RunError> {
    plot(&Sweep::new(opts))
}

/// Fig. 4 on the points of `sweep`: on a sweep that already drew
/// Fig. 2, every point is a cache hit.
pub(super) fn plot(sweep: &Sweep) -> Result<Figure, RunError> {
    let mut figure = Figure::new(
        "Fig. 4",
        "energy reduction ratio vs the memory load of the system",
        "memory load of the system (%)",
        "energy reduction ratio (%)",
    );

    for vm_count in vm_count_sweep(sweep.opts()) {
        // (load, ratio) pairs; load varies inversely with inter-arrival.
        let mut pairs: Vec<(f64, f64)> = Vec::new();
        for ia in interarrival_sweep() {
            let point = sweep.point(&point_config(vm_count, ia))?;
            pairs.push((pct(point.ffps_mem), pct(point.reduction)));
        }
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (xs, ys): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
        figure.push(Series::with_fit(
            format!("{vm_count} VMs"),
            xs,
            ys,
            FitKind::Logarithmic,
        ));
    }
    figure.note("load = average memory utilization measured under FFPS (Section IV-C)");
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
    fn ratio_decreases_with_load() {
        let fig = fig4(&tiny()).unwrap();
        for s in &fig.series {
            // Compare the mean ratio over the lighter half vs the heavier
            // half of the load range (robust to Monte-Carlo noise).
            let n = s.y.len();
            let light: f64 = s.y[n / 2..].iter().sum::<f64>() / (n - n / 2) as f64;
            let heavy: f64 = s.y[..n / 2].iter().sum::<f64>() / (n / 2) as f64;
            // x ascends with load, so the light-load points are the LAST
            // ones only if load descends... pairs are sorted by load, so
            // the first half is light load.
            let (light, heavy) = (heavy, light);
            assert!(
                light > heavy,
                "{}: light-load saving {light}% ≤ heavy-load {heavy}%",
                s.label
            );
        }
    }

    #[test]
    fn log_fits_are_attached() {
        let fig = fig4(&tiny()).unwrap();
        for s in &fig.series {
            let fit = s.fit.expect("log fit");
            assert_eq!(fit.kind, FitKind::Logarithmic);
            assert!(fit.b < 0.0, "{}: slope {}", s.label, fit.b);
        }
    }

    #[test]
    fn loads_ascend_within_each_series() {
        let fig = fig4(&tiny()).unwrap();
        for s in &fig.series {
            assert!(s.x.windows(2).all(|w| w[0] <= w[1]), "{:?}", s.x);
        }
    }
}
