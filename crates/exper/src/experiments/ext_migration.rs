//! Extension experiment E1 (not in the paper): how much extra energy
//! can live-migration consolidation recover on top of allocation, and
//! how does that depend on the migration energy cost `μ`?
//!
//! Section V of the paper positions allocation *against* migration;
//! this experiment quantifies the trade-off the paper leaves open. For
//! each `μ` it compares the audited energy of MIEC and FFPS before and
//! after the [`Consolidator`](esvm_core::Consolidator) post-pass.

use super::pct;
use crate::runner::RunError;
use crate::ExpOptions;
use esvm_analysis::Table;
use esvm_core::{AllocatorKind, Consolidator};
use esvm_par::{par_map, Parallelism};
use esvm_workload::WorkloadConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One row of the E1 table.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationRow {
    /// Migration energy per GB moved.
    pub mu: f64,
    /// Extra saving of MIEC + consolidation over plain MIEC (percent).
    pub miec_extra_saving: f64,
    /// Extra saving of FFPS + consolidation over plain FFPS (percent).
    pub ffps_extra_saving: f64,
    /// Mean migrations per run under MIEC + consolidation.
    pub miec_migrations: f64,
    /// Mean migrations per run under FFPS + consolidation.
    pub ffps_migrations: f64,
}

/// The migration energies E1 sweeps, in W·min per GB moved.
const MUS: [f64; 5] = [0.0, 1.0, 5.0, 20.0, 100.0];

/// One seed's `(base cost, consolidated cost, migrations)` for MIEC and
/// FFPS at every `μ`.
type SeedRows = [[(f64, f64, f64); 2]; MUS.len()];

/// Runs experiment E1 and returns the raw rows.
///
/// Seeds fan out over `opts.threads`. Each seed generates its problem
/// and allocates MIEC and FFPS once (the allocation does not depend on
/// `μ`), then consolidates for every `μ`; the rows are folded per `μ`
/// in seed order, so the result does not depend on the thread count.
///
/// # Errors
///
/// The [`RunError`] of the lowest failing seed.
pub fn ext_migration_rows(opts: &ExpOptions) -> Result<Vec<MigrationRow>, RunError> {
    let vm_count = opts.scale_vms(100);
    let config = WorkloadConfig::new(vm_count, (vm_count / 2).max(1))
        .mean_interarrival(4.0)
        .mean_duration(5.0)
        .transition_time(1.0);

    let seeds: Vec<u64> = (0..opts.seeds).collect();
    let per_seed = par_map(Parallelism::new(opts.threads), &seeds, |_, &seed| {
        seed_rows(&config, seed)
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    // Overloaded seeds are skipped for both algorithms, keeping the
    // comparison paired.
    let runs: Vec<&SeedRows> = per_seed.iter().flatten().collect();
    if runs.is_empty() {
        return Err(RunError::AllSeedsOverloaded {
            skipped: opts.seeds,
        });
    }
    let n = runs.len() as f64;

    let mut rows = Vec::with_capacity(MUS.len());
    for (m, mu) in MUS.into_iter().enumerate() {
        let mut extra = [0.0f64; 2];
        let mut migrations = [0.0f64; 2];
        for seed_rows in &runs {
            for (k, (base, consolidated, moves)) in seed_rows[m].into_iter().enumerate() {
                extra[k] += (base - consolidated) / base;
                migrations[k] += moves;
            }
        }
        rows.push(MigrationRow {
            mu,
            miec_extra_saving: pct(extra[0] / n),
            ffps_extra_saving: pct(extra[1] / n),
            miec_migrations: migrations[0] / n,
            ffps_migrations: migrations[1] / n,
        });
    }
    Ok(rows)
}

/// Seed `seed`'s rows, or `None` when MIEC or FFPS cannot place every
/// VM. Each algorithm allocates once and then consolidates at every
/// `μ`, so one base assignment is live at a time.
fn seed_rows(config: &WorkloadConfig, seed: u64) -> Result<Option<SeedRows>, RunError> {
    let problem = config.generate(seed)?;
    let mut rows = [[(0.0, 0.0, 0.0); 2]; MUS.len()];
    for (k, algo) in [AllocatorKind::Miec, AllocatorKind::Ffps]
        .into_iter()
        .enumerate()
    {
        let mut rng = StdRng::seed_from_u64(seed * 37 + k as u64);
        let Ok(base) = algo.build().allocate(&problem, &mut rng) else {
            return Ok(None);
        };
        for (row, mu) in rows.iter_mut().zip(MUS) {
            let schedule = Consolidator::new(mu)
                .consolidate(&base)
                .map_err(|error| RunError::Alloc { algo, seed, error })?;
            let audit = schedule.audit().map_err(RunError::Audit)?;
            row[k] = (base.total_cost(), audit.total_cost, audit.migrations as f64);
        }
    }
    Ok(Some(rows))
}

/// Renders experiment E1 as a table.
///
/// # Errors
///
/// Propagates the first [`RunError`].
pub fn ext_migration(opts: &ExpOptions) -> Result<Table, RunError> {
    let rows = ext_migration_rows(opts)?;
    let mut table = Table::new(vec![
        "μ (W·min/GB)",
        "miec +consol. saving (%)",
        "ffps +consol. saving (%)",
        "miec migrations/run",
        "ffps migrations/run",
    ]);
    for r in rows {
        table.row(vec![
            format!("{:.0}", r.mu),
            format!("{:.2}", r.miec_extra_saving),
            format!("{:.2}", r.ffps_extra_saving),
            format!("{:.1}", r.miec_migrations),
            format!("{:.1}", r.ffps_migrations),
        ]);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpOptions {
        ExpOptions {
            seeds: 3,
            threads: 2,
            quick: true,
        }
    }

    #[test]
    fn savings_are_nonnegative_and_decrease_with_mu() {
        let rows = ext_migration_rows(&tiny()).unwrap();
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.miec_extra_saving >= -1e-9, "{r:?}");
            assert!(r.ffps_extra_saving >= -1e-9, "{r:?}");
        }
        // Cheapest μ recovers at least as much as the dearest.
        assert!(rows[0].miec_extra_saving >= rows.last().unwrap().miec_extra_saving - 1e-9);
        assert!(rows[0].miec_migrations >= rows.last().unwrap().miec_migrations - 1e-9);
    }

    #[test]
    fn rows_do_not_depend_on_the_thread_count() {
        let rows = |threads| {
            ext_migration_rows(&ExpOptions {
                seeds: 5,
                threads,
                quick: true,
            })
            .unwrap()
        };
        assert_eq!(rows(1), rows(4));
    }

    #[test]
    fn table_renders() {
        let t = ext_migration(&tiny()).unwrap();
        assert_eq!(t.len(), 5);
        assert!(t.to_string().contains("migrations/run"));
    }
}
