//! Fig. 6 — impact of the mean VM duration (2 / 5 / 10 min) on the
//! energy reduction ratio.
//!
//! Paper shape: shorter VMs → lighter, more dynamic load → FFPS wastes
//! more → MIEC saves more. The paper fits the 2-min series
//! logarithmically and the 5-/10-min series linearly.

use super::{interarrival_sweep, pct, point_config, Sweep};
use crate::runner::RunError;
use crate::{ExpOptions, Figure, Series};
use esvm_analysis::fit::FitKind;

/// Reproduces Fig. 6: 100 VMs on 50 servers, transition time 1 min, all
/// VM and server types, mean VM length ∈ {2, 5, 10} min.
///
/// # Errors
///
/// Propagates the first [`RunError`].
pub fn fig6(opts: &ExpOptions) -> Result<Figure, RunError> {
    plot(&Sweep::new(opts))
}

/// Fig. 6 on the points of `sweep`.
pub(super) fn plot(sweep: &Sweep) -> Result<Figure, RunError> {
    let vm_count = sweep.opts().scale_vms(100);
    let mut figure = Figure::new(
        "Fig. 6",
        "energy reduction ratio with varying mean length of VMs",
        "mean inter-arrival time",
        "energy reduction ratio (%)",
    );
    for (mean_len, fit_kind) in [
        (2.0, FitKind::Logarithmic),
        (5.0, FitKind::Linear),
        (10.0, FitKind::Linear),
    ] {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for ia in interarrival_sweep() {
            let point = sweep.point(&point_config(vm_count, ia).mean_duration(mean_len))?;
            xs.push(ia);
            ys.push(pct(point.reduction));
        }
        figure.push(Series::with_fit(
            format!("mean length of time duration = {mean_len} min"),
            xs,
            ys,
            fit_kind,
        ));
    }
    figure.note(format!(
        "{vm_count} VMs on {} servers, transition time 1 min",
        vm_count / 2
    ));
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
    fn three_duration_series() {
        let fig = fig6(&tiny()).unwrap();
        assert_eq!(fig.series.len(), 3);
    }

    #[test]
    fn shorter_vms_save_more() {
        let fig = fig6(&tiny()).unwrap();
        let mean = |l: &str| {
            let s = fig.series_by_label(l).unwrap();
            s.y.iter().sum::<f64>() / s.y.len() as f64
        };
        let short = mean("mean length of time duration = 2 min");
        let long = mean("mean length of time duration = 10 min");
        assert!(short > long, "2 min saves {short}%, 10 min saves {long}%");
    }
}
