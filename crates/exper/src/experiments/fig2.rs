//! Fig. 2 — energy reduction ratio vs mean inter-arrival time, one
//! series per VM count (100–500), linear fits.
//!
//! Paper shape: the ratio increases roughly linearly with the mean
//! inter-arrival time, reaching ~10 % at 10 min; the curves for
//! 100–500 VMs coincide (scalability).

use super::{interarrival_sweep, pct, point_config, vm_count_sweep, Sweep};
use crate::runner::RunError;
use crate::{ExpOptions, Figure, Series};
use esvm_analysis::fit::FitKind;

/// Reproduces Fig. 2: all VM types on all server types, transition time
/// 1 min, mean VM length 5 min.
///
/// # Errors
///
/// Propagates the first [`RunError`] (overload or generation failure).
pub fn fig2(opts: &ExpOptions) -> Result<Figure, RunError> {
    plot(&Sweep::new(opts))
}

/// Fig. 2 on the points of `sweep`.
pub(super) fn plot(sweep: &Sweep) -> Result<Figure, RunError> {
    let opts = sweep.opts();
    let mut figure = Figure::new(
        "Fig. 2",
        "energy reduction ratio of the allocation of all types of VMs on all types of servers",
        "mean inter-arrival time",
        "energy reduction ratio (%)",
    );

    for vm_count in vm_count_sweep(opts) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for ia in interarrival_sweep() {
            let point = sweep.point(&point_config(vm_count, ia))?;
            xs.push(ia);
            ys.push(pct(point.reduction));
        }
        figure.push(Series::with_fit(
            format!("{vm_count} VMs"),
            xs,
            ys,
            FitKind::Linear,
        ));
    }
    figure.note(format!(
        "all 9 VM types, all 5 server types, servers = VMs/2, mean length 5, transition 1, {} seeds",
        opts.seeds
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
    fn produces_five_series_with_linear_fits() {
        let fig = fig2(&tiny()).unwrap();
        assert_eq!(fig.series.len(), 5);
        for s in &fig.series {
            assert_eq!(s.x.len(), interarrival_sweep().len());
            let fit = s.fit.expect("linear fit attached");
            assert_eq!(fit.kind, FitKind::Linear);
        }
    }

    #[test]
    fn saving_is_positive_at_long_interarrival() {
        let fig = fig2(&tiny()).unwrap();
        for s in &fig.series {
            let last = *s.y.last().unwrap();
            assert!(last > 0.0, "series {} ends at {last}%", s.label);
        }
    }
}
