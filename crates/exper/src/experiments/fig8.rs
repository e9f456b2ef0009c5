//! Fig. 8 — utilization for standard VM types: (a) all server types,
//! (b) server types 1–3.
//!
//! Paper shape: MIEC pushes both CPU and memory utilization above ~70 %
//! in both fleets; FFPS drops to ~30 % when large servers (types 4–5)
//! are in the fleet, because first-fit parks small VMs on big machines.

use super::{interarrival_sweep, pct, point_config, Sweep};
use crate::runner::RunError;
use crate::{ExpOptions, Figure, Series};
use esvm_workload::{catalog, ServerType};

/// Reproduces Fig. 8: standard VMs, 100 VMs on 50 servers, both server
/// fleets. Sub-figure (a) series are labelled `(a) …` (all server
/// types), sub-figure (b) series `(b) …` (types 1–3).
///
/// # Errors
///
/// Propagates the first [`RunError`].
pub fn fig8(opts: &ExpOptions) -> Result<Figure, RunError> {
    plot(&Sweep::new(opts))
}

/// Fig. 8 on the points of `sweep`.
pub(super) fn plot(sweep: &Sweep) -> Result<Figure, RunError> {
    let vm_count = sweep.opts().scale_vms(100);
    let mut figure = Figure::new(
        "Fig. 8",
        format!(
            "average CPU and memory utilization of servers with {vm_count} standard VMs allocated"
        ),
        "mean inter-arrival time",
        "resource utilization (%)",
    );
    let fleets: [(&str, Vec<ServerType>); 2] = [
        ("(a) all types", catalog::server_types().to_vec()),
        ("(b) types 1-3", catalog::server_types_1_3()),
    ];
    for (tag, fleet) in fleets {
        let mut xs = Vec::new();
        let mut cpu_miec = Vec::new();
        let mut mem_miec = Vec::new();
        let mut cpu_ffps = Vec::new();
        let mut mem_ffps = Vec::new();
        for ia in interarrival_sweep() {
            let config = point_config(vm_count, ia)
                .vm_types(catalog::standard_vm_types())
                .server_types(fleet.clone());
            let point = sweep.point(&config)?;
            xs.push(ia);
            cpu_miec.push(pct(point.miec_cpu));
            mem_miec.push(pct(point.miec_mem));
            cpu_ffps.push(pct(point.ffps_cpu));
            mem_ffps.push(pct(point.ffps_mem));
        }
        figure.push(Series::plain(
            format!("{tag} CPU utilization of MIEC"),
            xs.clone(),
            cpu_miec,
        ));
        figure.push(Series::plain(
            format!("{tag} memory utilization of MIEC"),
            xs.clone(),
            mem_miec,
        ));
        figure.push(Series::plain(
            format!("{tag} CPU utilization of FFPS"),
            xs.clone(),
            cpu_ffps,
        ));
        figure.push(Series::plain(
            format!("{tag} memory utilization of FFPS"),
            xs,
            mem_ffps,
        ));
    }
    figure.note("standard VM types; (a) = server types 1-5, (b) = server types 1-3");
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
    fn eight_series() {
        let fig = fig8(&tiny()).unwrap();
        assert_eq!(fig.series.len(), 8);
    }

    #[test]
    fn miec_dominates_ffps_in_both_fleets() {
        let fig = fig8(&tiny()).unwrap();
        let mean = |l: &str| {
            let s = fig.series_by_label(l).unwrap();
            s.y.iter().sum::<f64>() / s.y.len() as f64
        };
        for tag in ["(a) all types", "(b) types 1-3"] {
            assert!(
                mean(&format!("{tag} CPU utilization of MIEC"))
                    > mean(&format!("{tag} CPU utilization of FFPS")),
                "{tag}"
            );
        }
    }

    #[test]
    fn miec_utilization_is_fleet_insensitive() {
        // MIEC consolidates onto the servers it chooses, so its mean
        // utilization barely moves when the big server types 4–5 join
        // the fleet; FFPS's does. (The paper's stronger directional
        // claim — FFPS utilization *drops* with big servers present —
        // needs paper-scale statistics and does not hold at this tiny
        // scale, where first-fit instead strands many small servers.)
        let fig = fig8(&tiny()).unwrap();
        let mean = |l: &str| {
            let s = fig.series_by_label(l).unwrap();
            s.y.iter().sum::<f64>() / s.y.len() as f64
        };
        let all = mean("(a) all types CPU utilization of MIEC");
        let small = mean("(b) types 1-3 CPU utilization of MIEC");
        assert!(
            (all - small).abs() < 5.0,
            "MIEC all-types {all}% vs types-1-3 {small}%"
        );
    }
}
