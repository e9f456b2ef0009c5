//! Fig. 3 — average CPU and memory utilization of servers (100 VMs),
//! MIEC vs FFPS, vs mean inter-arrival time.
//!
//! Paper shape: FFPS CPU utilization is low and uneven against memory;
//! MIEC raises CPU utilization substantially and evens out the two
//! resources; utilization decreases with growing inter-arrival time.

use super::{interarrival_sweep, pct, point_config, Sweep};
use crate::runner::RunError;
use crate::{ExpOptions, Figure, Series};

/// Reproduces Fig. 3: utilization of servers with 100 VMs allocated.
///
/// # Errors
///
/// Propagates the first [`RunError`].
pub fn fig3(opts: &ExpOptions) -> Result<Figure, RunError> {
    plot(&Sweep::new(opts))
}

/// Fig. 3 on the points of `sweep`.
pub(super) fn plot(sweep: &Sweep) -> Result<Figure, RunError> {
    let vm_count = sweep.opts().scale_vms(100);
    let mut figure = Figure::new(
        "Fig. 3",
        format!("average CPU and memory utilization of servers with {vm_count} VMs allocated"),
        "mean inter-arrival time",
        "resource utilization (%)",
    );

    let mut xs = Vec::new();
    let mut cpu_miec = Vec::new();
    let mut mem_miec = Vec::new();
    let mut cpu_ffps = Vec::new();
    let mut mem_ffps = Vec::new();
    for ia in interarrival_sweep() {
        let point = sweep.point(&point_config(vm_count, ia))?;
        xs.push(ia);
        cpu_miec.push(pct(point.miec_cpu));
        mem_miec.push(pct(point.miec_mem));
        cpu_ffps.push(pct(point.ffps_cpu));
        mem_ffps.push(pct(point.ffps_mem));
    }
    figure.push(Series::plain("CPU utilization of MIEC", xs.clone(), cpu_miec));
    figure.push(Series::plain(
        "memory utilization of MIEC",
        xs.clone(),
        mem_miec,
    ));
    figure.push(Series::plain("CPU utilization of FFPS", xs.clone(), cpu_ffps));
    figure.push(Series::plain("memory utilization of FFPS", xs, mem_ffps));
    figure.note("utilization averaged over (server, time-unit) pairs hosting ≥ 1 VM");
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
    fn miec_utilization_dominates_ffps() {
        let fig = fig3(&tiny()).unwrap();
        let cpu_miec = fig.series_by_label("CPU utilization of MIEC").unwrap();
        let cpu_ffps = fig.series_by_label("CPU utilization of FFPS").unwrap();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&cpu_miec.y) > mean(&cpu_ffps.y),
            "MIEC {:?} vs FFPS {:?}",
            cpu_miec.y,
            cpu_ffps.y
        );
    }

    #[test]
    fn utilizations_are_percentages() {
        let fig = fig3(&tiny()).unwrap();
        assert_eq!(fig.series.len(), 4);
        for s in &fig.series {
            for &v in &s.y {
                assert!((0.0..=100.0).contains(&v), "{}: {v}", s.label);
            }
        }
    }

    #[test]
    fn miec_evens_out_cpu_and_memory() {
        // The gap |cpu − mem| should be smaller for MIEC than FFPS on
        // average (the paper's "more even" claim).
        let fig = fig3(&tiny()).unwrap();
        let get = |l: &str| fig.series_by_label(l).unwrap().y.clone();
        let gap = |a: &[f64], b: &[f64]| {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs())
                .sum::<f64>()
                / a.len() as f64
        };
        let miec_gap = gap(
            &get("CPU utilization of MIEC"),
            &get("memory utilization of MIEC"),
        );
        let ffps_gap = gap(
            &get("CPU utilization of FFPS"),
            &get("memory utilization of FFPS"),
        );
        assert!(
            miec_gap <= ffps_gap + 5.0,
            "MIEC gap {miec_gap} vs FFPS gap {ffps_gap}"
        );
    }
}
