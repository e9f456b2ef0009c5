//! Fig. 5 — impact of the server transition time (0.5 / 1 / 3 min) on
//! the energy reduction ratio.
//!
//! Paper shape: the shorter the transition time, the cheaper switching
//! off becomes, and the more energy MIEC saves. The paper fits the
//! 0.5-min and 1-min series linearly and the 3-min series exponentially.

use super::{interarrival_sweep, pct, point_config, Sweep};
use crate::runner::RunError;
use crate::{ExpOptions, Figure, Series};
use esvm_analysis::fit::FitKind;

/// Reproduces Fig. 5: 100 VMs on 50 servers, mean length 5 min, all VM
/// and server types, transition time ∈ {0.5, 1, 3} min.
///
/// # Errors
///
/// Propagates the first [`RunError`].
pub fn fig5(opts: &ExpOptions) -> Result<Figure, RunError> {
    plot(&Sweep::new(opts))
}

/// Fig. 5 on the points of `sweep`.
pub(super) fn plot(sweep: &Sweep) -> Result<Figure, RunError> {
    let vm_count = sweep.opts().scale_vms(100);
    let mut figure = Figure::new(
        "Fig. 5",
        "energy reduction ratio with varying transition time settings",
        "mean inter-arrival time",
        "energy reduction ratio (%)",
    );
    for (transition, fit_kind) in [
        (0.5, FitKind::Linear),
        (1.0, FitKind::Linear),
        (3.0, FitKind::Exponential),
    ] {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for ia in interarrival_sweep() {
            let point = sweep.point(&point_config(vm_count, ia).transition_time(transition))?;
            xs.push(ia);
            ys.push(pct(point.reduction));
        }
        figure.push(Series::with_fit(
            format!("transition time = {transition} min"),
            xs,
            ys,
            fit_kind,
        ));
    }
    figure.note(format!(
        "{vm_count} VMs on {} servers, mean length 5 min, α = P_peak × transition time",
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
    fn three_transition_series() {
        let fig = fig5(&tiny()).unwrap();
        assert_eq!(fig.series.len(), 3);
        assert!(fig.series_by_label("transition time = 0.5 min").is_some());
        assert!(fig.series_by_label("transition time = 3 min").is_some());
    }

    #[test]
    fn shorter_transition_saves_more() {
        let fig = fig5(&tiny()).unwrap();
        let mean = |l: &str| {
            let s = fig.series_by_label(l).unwrap();
            s.y.iter().sum::<f64>() / s.y.len() as f64
        };
        let short = mean("transition time = 0.5 min");
        let long = mean("transition time = 3 min");
        assert!(
            short > long,
            "0.5 min saves {short}%, 3 min saves {long}%"
        );
    }
}
