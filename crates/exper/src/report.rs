//! Self-contained HTML reproduction report (`esvm report`).
//!
//! Runs the full artefact set — Tables I/II, Figs. 2–9 and the
//! extension experiments E1–E3 — and assembles one standalone HTML file
//! with embedded SVG plots ([`esvm_analysis::plot`]), data tables, and
//! the fitted curves with their adjusted R². No external assets, so the
//! file can be attached to an issue or a paper-review response as-is.

use crate::figure::Figure;
use crate::runner::RunError;
use crate::{experiments, ExpOptions};
use esvm_analysis::plot::LinePlot;
use esvm_analysis::Table;
use std::fmt::Write as _;

/// Converts one reproduced figure into an SVG plot.
fn figure_to_svg(figure: &Figure) -> String {
    let mut plot = LinePlot::new(
        format!("{}: {}", figure.id, figure.title),
        figure.x_label.clone(),
        figure.y_label.clone(),
    );
    for s in &figure.series {
        let points: Vec<(f64, f64)> =
            s.x.iter().copied().zip(s.y.iter().copied()).collect();
        plot = plot.series_with_fit(s.label.clone(), &points, s.fit);
    }
    plot.to_svg()
}

fn push_section(html: &mut String, heading: &str) {
    let _ = write!(html, "<h2>{}</h2>", escape(heading));
}

fn push_figure(html: &mut String, figure: &Figure) {
    push_section(html, &format!("{} — {}", figure.id, figure.title));
    html.push_str(&figure_to_svg(figure));
    let fits: Vec<String> = figure
        .series
        .iter()
        .filter_map(|s| {
            s.fit
                .map(|f| format!("<li>{} fit of {}: {}</li>", f.kind, escape(&s.label), f))
        })
        .collect();
    if !fits.is_empty() {
        let _ = write!(html, "<ul>{}</ul>", fits.join(""));
    }
    for note in &figure.notes {
        let _ = write!(html, "<p class=\"note\">{}</p>", escape(note));
    }
}

fn push_table(html: &mut String, heading: &str, table: &Table) {
    push_section(html, heading);
    let _ = write!(html, "<pre>{}</pre>", escape(&table.to_string()));
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

/// Mean per-term energy decomposition (Eq. 7: run + idle + transition)
/// of the headline contenders at one representative sweep point.
fn energy_decomposition(opts: &ExpOptions) -> Result<Table, RunError> {
    use esvm_core::AllocatorKind;
    use esvm_workload::WorkloadConfig;
    let (vms, servers) = if opts.quick { (40, 20) } else { (100, 50) };
    let config = WorkloadConfig::new(vms, servers).mean_interarrival(4.0);
    let algos = [
        AllocatorKind::Miec,
        AllocatorKind::MiecNoAlpha,
        AllocatorKind::Ffps,
    ];
    let point = crate::runner::MonteCarlo::new(opts.seeds, opts.threads)
        .compare(&config, &algos)?;
    let mut table = Table::new(vec![
        "algorithm",
        "mean total",
        "run",
        "idle",
        "transition",
        "idle share (%)",
        "transition share (%)",
    ]);
    for &algo in &algos {
        let (run, idle, transition) = point.mean_breakdown(algo);
        let total = run + idle + transition;
        table.row(vec![
            algo.name().to_owned(),
            format!("{total:.0}"),
            format!("{run:.0}"),
            format!("{idle:.0}"),
            format!("{transition:.0}"),
            format!("{:.1}", idle / total * 100.0),
            format!("{:.1}", transition / total * 100.0),
        ]);
    }
    Ok(table)
}

/// Builds the full report.
///
/// # Errors
///
/// Propagates the first [`RunError`] from any experiment.
pub fn html_report(opts: &ExpOptions) -> Result<String, RunError> {
    let mut html = String::from(
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\">\
         <title>esvm reproduction report</title>\
         <style>body{font-family:sans-serif;max-width:720px;margin:2em auto;padding:0 1em}\
         svg{max-width:100%;height:auto;border:1px solid #eee;margin:.5em 0}\
         pre{background:#f6f6f6;padding:.8em;overflow-x:auto}\
         .note{color:#666;font-size:.9em}\
         h1{border-bottom:2px solid #333}h2{margin-top:2em}</style></head><body>",
    );
    let _ = write!(
        html,
        "<h1>esvm reproduction report</h1>\
         <p>Xie, Jia, Yang, Zhang — <em>Energy Saving Virtual Machine \
         Allocation in Cloud Computing</em>, IEEE ICDCSW 2013. \
         {} Monte-Carlo seeds per sweep point{}.</p>",
        opts.seeds,
        if opts.quick {
            ", quick mode (scaled-down VM counts)"
        } else {
            ""
        }
    );

    push_table(
        &mut html,
        "Table I — the types of resource demands of VMs",
        &experiments::table1(),
    );
    push_table(
        &mut html,
        "Table II — the types of resource capacities and power consumption parameters of servers",
        &experiments::table2(),
    );
    push_table(
        &mut html,
        "Energy decomposition — Eq. 7 terms (run / idle / transition) per algorithm",
        &energy_decomposition(opts)?,
    );

    for figure in experiments::paper_figures(&experiments::Sweep::new(opts))? {
        push_figure(&mut html, &figure);
    }

    push_table(
        &mut html,
        "E1 — extra saving from live-migration consolidation",
        &experiments::ext_migration(opts)?,
    );
    push_table(
        &mut html,
        "E2 — sensitivity to the arrival process",
        &experiments::ext_arrivals(opts)?,
    );
    push_table(
        &mut html,
        "E3 — overload behaviour with admission control",
        &experiments::ext_overload(opts)?,
    );

    html.push_str("</body></html>");
    Ok(html)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_contains_every_artefact() {
        let opts = ExpOptions {
            seeds: 2,
            threads: 4,
            quick: true,
        };
        let html = html_report(&opts).unwrap();
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.ends_with("</html>"));
        for needle in [
            "Table I",
            "Table II",
            "Energy decomposition",
            "transition share",
            "Fig. 2",
            "Fig. 5",
            "Fig. 9",
            "E1",
            "E2",
            "E3",
            "<svg",
            "Adj.R²",
        ] {
            assert!(html.contains(needle), "missing {needle}");
        }
        // Eight figures → eight SVGs.
        assert_eq!(html.matches("<svg").count(), 8);
    }

    #[test]
    fn figure_to_svg_embeds_all_series() {
        let opts = ExpOptions {
            seeds: 2,
            threads: 4,
            quick: true,
        };
        let fig = experiments::fig5(&opts).unwrap();
        let svg = figure_to_svg(&fig);
        for s in &fig.series {
            assert!(svg.contains(&escape(&s.label)), "{}", s.label);
        }
    }
}
