//! Seeded, multi-threaded Monte-Carlo comparison runner.
//!
//! Every sweep point of every figure boils down to: generate `k` seeded
//! workloads, run a set of allocation algorithms on each, audit the
//! assignments, and aggregate costs and utilizations. [`MonteCarlo`]
//! does exactly that, fanning seeds out over a scoped thread pool.
//! Results are deterministic: workload generation is seeded by the run
//! seed, and each algorithm's RNG is seeded by `(run seed, algorithm
//! index)`, independent of thread scheduling.

use esvm_analysis::metrics::mean_energy_reduction_ratio;
use esvm_analysis::Summary;
use esvm_core::AllocatorKind;
use esvm_par::{par_map, Parallelism};
use esvm_simcore::AuditReport;
use esvm_workload::{GenerateError, WorkloadConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// Errors from a Monte-Carlo run.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RunError {
    /// Workload generation failed.
    Generate(GenerateError),
    /// An algorithm could not place a VM (overloaded instance).
    Alloc {
        /// Which algorithm failed.
        algo: AllocatorKind,
        /// Seed of the failing run.
        seed: u64,
        /// The underlying error.
        error: esvm_core::AllocError,
    },
    /// Auditing an assignment failed (would indicate an algorithm bug).
    Audit(esvm_simcore::Error),
    /// No algorithms were requested.
    NoAlgorithms,
    /// Every seeded instance was overloaded (no feasible placement), so
    /// there is nothing to aggregate.
    AllSeedsOverloaded {
        /// How many seeds were attempted and skipped.
        skipped: u64,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Generate(e) => write!(f, "workload generation failed: {e}"),
            RunError::Alloc { algo, seed, error } => {
                write!(f, "{algo} failed on seed {seed}: {error}")
            }
            RunError::Audit(e) => write!(f, "audit failed: {e}"),
            RunError::NoAlgorithms => write!(f, "no algorithms requested"),
            RunError::AllSeedsOverloaded { skipped } => {
                write!(f, "all {skipped} seeded instances were overloaded")
            }
        }
    }
}

impl std::error::Error for RunError {}

impl From<GenerateError> for RunError {
    fn from(e: GenerateError) -> Self {
        RunError::Generate(e)
    }
}

/// Aggregated comparison of several algorithms at one sweep point.
#[derive(Debug, Clone)]
pub struct ComparisonPoint {
    /// The compared algorithms, in request order.
    pub algos: Vec<AllocatorKind>,
    /// Per-algorithm total energy per seed: `costs[a][s]`.
    pub costs: Vec<Vec<f64>>,
    /// Per-algorithm mean CPU utilization (busy servers) per seed.
    pub cpu_utilization: Vec<Vec<f64>>,
    /// Per-algorithm mean memory utilization per seed.
    pub mem_utilization: Vec<Vec<f64>>,
    /// Per-algorithm energy breakdown `(run, idle, transition)` per seed.
    pub breakdowns: Vec<Vec<(f64, f64, f64)>>,
    /// Seeds skipped because the instance was overloaded for some
    /// algorithm (the whole seed is dropped for *all* algorithms, keeping
    /// the comparison paired). The paper's settings make this vanishingly
    /// rare; scaled-down quick runs can hit it.
    pub skipped_seeds: u64,
}

impl ComparisonPoint {
    fn index_of(&self, algo: AllocatorKind) -> usize {
        self.try_index_of(algo)
            .unwrap_or_else(|| panic!("{algo} was not part of this comparison"))
    }

    /// Position of `algo` in the comparison, if it took part — the
    /// non-panicking lookup front ends should use before indexing
    /// [`ComparisonPoint::costs`] directly.
    pub fn try_index_of(&self, algo: AllocatorKind) -> Option<usize> {
        self.algos.iter().position(|&a| a == algo)
    }

    /// Cost summary for one algorithm, or `None` when `algo` was not
    /// part of the comparison. An empty sample cannot occur: `compare`
    /// fails with [`RunError::AllSeedsOverloaded`] instead of
    /// returning one.
    pub fn try_cost_summary(&self, algo: AllocatorKind) -> Option<Summary> {
        Summary::of(&self.costs[self.try_index_of(algo)?])
    }

    /// Cost summary for one algorithm.
    ///
    /// # Panics
    ///
    /// Panics if `algo` was not part of the comparison.
    pub fn cost_summary(&self, algo: AllocatorKind) -> Summary {
        self.try_cost_summary(algo)
            .unwrap_or_else(|| panic!("{algo} was not part of this comparison"))
    }

    /// Mean per-seed energy-reduction ratio of `ours` against
    /// `baseline`, as a fraction (the paper's headline metric).
    ///
    /// # Panics
    ///
    /// Panics if either algorithm was not part of the comparison.
    pub fn reduction_ratio(&self, baseline: AllocatorKind, ours: AllocatorKind) -> f64 {
        mean_energy_reduction_ratio(
            &self.costs[self.index_of(baseline)],
            &self.costs[self.index_of(ours)],
        )
    }

    /// Mean CPU utilization (fraction) of one algorithm over all seeds.
    pub fn mean_cpu_utilization(&self, algo: AllocatorKind) -> f64 {
        let xs = &self.cpu_utilization[self.index_of(algo)];
        xs.iter().sum::<f64>() / xs.len() as f64
    }

    /// Mean memory utilization (fraction) of one algorithm over all
    /// seeds.
    pub fn mean_mem_utilization(&self, algo: AllocatorKind) -> f64 {
        let xs = &self.mem_utilization[self.index_of(algo)];
        xs.iter().sum::<f64>() / xs.len() as f64
    }

    /// A 95 % bootstrap confidence interval on the mean reduction ratio
    /// of `ours` vs `baseline` (fractions).
    ///
    /// # Panics
    ///
    /// Panics if either algorithm was not part of the comparison.
    pub fn reduction_ratio_ci(
        &self,
        baseline: AllocatorKind,
        ours: AllocatorKind,
    ) -> Option<(f64, f64)> {
        let base = &self.costs[self.index_of(baseline)];
        let our = &self.costs[self.index_of(ours)];
        let ratios: Vec<f64> = base
            .iter()
            .zip(our)
            .map(|(&b, &o)| if b == 0.0 { 0.0 } else { (b - o) / b })
            .collect();
        esvm_analysis::stats::bootstrap_mean_ci(&ratios, 2000, 0.95)
    }

    /// Mean energy breakdown `(run, idle, transition)` of one algorithm
    /// over all seeds.
    pub fn mean_breakdown(&self, algo: AllocatorKind) -> (f64, f64, f64) {
        let xs = &self.breakdowns[self.index_of(algo)];
        let n = xs.len() as f64;
        let sum = xs.iter().fold((0.0, 0.0, 0.0), |acc, b| {
            (acc.0 + b.0, acc.1 + b.1, acc.2 + b.2)
        });
        (sum.0 / n, sum.1 / n, sum.2 / n)
    }

    /// Number of seeds.
    pub fn seed_count(&self) -> usize {
        self.costs.first().map_or(0, Vec::len)
    }
}

/// One seeded run of one algorithm on one generated problem.
///
/// Standalone entry point used by examples and tests that want a single
/// audited comparison rather than an aggregate.
pub fn run_once(
    config: &WorkloadConfig,
    algo: AllocatorKind,
    seed: u64,
) -> Result<AuditReport, RunError> {
    let problem = config.generate(seed)?;
    let allocator = algo.build();
    let mut rng = algo_rng(seed, 0, algo);
    let assignment = allocator
        .allocate(&problem, &mut rng)
        .map_err(|error| RunError::Alloc { algo, seed, error })?;
    assignment.audit().map_err(RunError::Audit)
}

/// Derives the per-algorithm RNG for a run, mixing the seed, the
/// algorithm's position and its name so streams are independent.
fn algo_rng(seed: u64, index: usize, algo: AllocatorKind) -> StdRng {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
    for b in algo.name().bytes() {
        h = h.wrapping_mul(0x100_0000_01B3).wrapping_add(u64::from(b));
    }
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x2545_F491_4F6C_DD1D)
            .wrapping_add(index as u64)
            .wrapping_add(h),
    )
}

/// One algorithm's audited metrics on one seeded instance.
#[derive(Debug, Clone, Copy)]
struct AlgoRun {
    cost: f64,
    cpu_util: f64,
    mem_util: f64,
    breakdown: (f64, f64, f64),
}

/// The Monte-Carlo executor.
#[derive(Debug, Clone, Copy)]
pub struct MonteCarlo {
    /// Seeds `0..seeds` are run.
    pub seeds: u64,
    /// Worker threads fanning *seeds* out; each allocator runs
    /// single-threaded inside its seed.
    pub threads: usize,
}

impl MonteCarlo {
    /// Creates an executor with the given seed count and threads.
    pub fn new(seeds: u64, threads: usize) -> Self {
        Self {
            seeds,
            threads: threads.max(1),
        }
    }

    /// Runs every algorithm on every seeded workload and aggregates.
    ///
    /// # Errors
    ///
    /// The [`RunError`] of the lowest-numbered failing seed (the whole
    /// comparison is abandoned: partial Monte-Carlo aggregates would
    /// silently bias the figures). The reported error is independent of
    /// the thread count — every seed runs to completion and the
    /// first-in-seed-order failure wins, rather than whichever thread
    /// lost a race.
    pub fn compare(
        &self,
        config: &WorkloadConfig,
        algos: &[AllocatorKind],
    ) -> Result<ComparisonPoint, RunError> {
        if algos.is_empty() {
            return Err(RunError::NoAlgorithms);
        }
        let n_algos = algos.len();
        let n_seeds = self.seeds as usize;

        enum SeedOutcome {
            Done(Vec<AlgoRun>),
            Overloaded,
            Failed(RunError),
        }

        let seeds: Vec<u64> = (0..self.seeds).collect();
        let outcomes = par_map(Parallelism::new(self.threads), &seeds, |_i, &seed| {
            match Self::run_seed(config, algos, seed) {
                Ok(row) => SeedOutcome::Done(row),
                // An overloaded instance is dropped for every
                // algorithm, keeping the comparison paired.
                Err(RunError::Alloc {
                    error: esvm_core::AllocError::NoFeasibleServer(_),
                    ..
                }) => SeedOutcome::Overloaded,
                Err(e) => SeedOutcome::Failed(e),
            }
        });
        let results = {
            let mut done = Vec::with_capacity(n_seeds);
            for outcome in outcomes {
                match outcome {
                    SeedOutcome::Failed(e) => return Err(e),
                    other => done.push(other),
                }
            }
            done
        };

        let mut point = ComparisonPoint {
            algos: algos.to_vec(),
            costs: vec![Vec::with_capacity(n_seeds); n_algos],
            cpu_utilization: vec![Vec::with_capacity(n_seeds); n_algos],
            mem_utilization: vec![Vec::with_capacity(n_seeds); n_algos],
            breakdowns: vec![Vec::with_capacity(n_seeds); n_algos],
            skipped_seeds: 0,
        };
        for outcome in results {
            match outcome {
                SeedOutcome::Done(row) => {
                    for (a, run) in row.into_iter().enumerate() {
                        point.costs[a].push(run.cost);
                        point.cpu_utilization[a].push(run.cpu_util);
                        point.mem_utilization[a].push(run.mem_util);
                        point.breakdowns[a].push(run.breakdown);
                    }
                }
                SeedOutcome::Overloaded => point.skipped_seeds += 1,
                SeedOutcome::Failed(_) => unreachable!("failures returned above"),
            }
        }
        if point.seed_count() == 0 {
            return Err(RunError::AllSeedsOverloaded {
                skipped: point.skipped_seeds,
            });
        }
        Ok(point)
    }

    fn run_seed(
        config: &WorkloadConfig,
        algos: &[AllocatorKind],
        seed: u64,
    ) -> Result<Vec<AlgoRun>, RunError> {
        let problem = config.generate(seed)?;
        algos
            .iter()
            .enumerate()
            .map(|(index, &algo)| {
                let allocator = algo.build();
                let mut rng = algo_rng(seed, index, algo);
                let assignment = allocator
                    .allocate(&problem, &mut rng)
                    .map_err(|error| RunError::Alloc { algo, seed, error })?;
                let report = assignment.audit().map_err(RunError::Audit)?;
                Ok(AlgoRun {
                    cost: report.total_cost,
                    cpu_util: report.utilization.avg_cpu,
                    mem_util: report.utilization.avg_mem,
                    breakdown: (
                        report.breakdown.run,
                        report.breakdown.idle,
                        report.breakdown.transition,
                    ),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> WorkloadConfig {
        WorkloadConfig::new(30, 15).mean_interarrival(3.0)
    }

    #[test]
    fn compare_is_deterministic_across_thread_counts() {
        let algos = [AllocatorKind::Miec, AllocatorKind::Ffps];
        let a = MonteCarlo::new(6, 1).compare(&config(), &algos).unwrap();
        let b = MonteCarlo::new(6, 4).compare(&config(), &algos).unwrap();
        assert_eq!(a.costs, b.costs);
        assert_eq!(a.cpu_utilization, b.cpu_utilization);
    }

    #[test]
    fn first_failing_seed_wins_regardless_of_threads() {
        // A workload that audits fine but whose generation fails for
        // every seed would mask ordering; instead check the error is
        // stable across thread counts on a failing configuration.
        use esvm_workload::catalog;
        let bad = WorkloadConfig::new(10, 5)
            .vm_types(vec![catalog::VM_TYPES[6]])
            .server_types(vec![catalog::SERVER_TYPES[0]]);
        let a = MonteCarlo::new(6, 1)
            .compare(&bad, &[AllocatorKind::Miec])
            .unwrap_err();
        let b = MonteCarlo::new(6, 4)
            .compare(&bad, &[AllocatorKind::Miec])
            .unwrap_err();
        assert_eq!(a, b);
    }

    #[test]
    fn miec_beats_ffps_on_average() {
        let algos = [AllocatorKind::Miec, AllocatorKind::Ffps];
        let point = MonteCarlo::new(8, 4).compare(&config(), &algos).unwrap();
        let ratio = point.reduction_ratio(AllocatorKind::Ffps, AllocatorKind::Miec);
        assert!(ratio > 0.0, "expected positive saving, got {ratio}");
        assert_eq!(point.seed_count(), 8);
    }

    #[test]
    fn summaries_and_utilizations_are_reported() {
        let algos = [AllocatorKind::Miec, AllocatorKind::Ffps];
        let point = MonteCarlo::new(4, 2).compare(&config(), &algos).unwrap();
        let s = point.cost_summary(AllocatorKind::Miec);
        assert_eq!(s.n, 4);
        assert!(s.mean > 0.0);
        let u = point.mean_cpu_utilization(AllocatorKind::Miec);
        assert!((0.0..=1.0).contains(&u));
        assert!(point.mean_mem_utilization(AllocatorKind::Ffps) > 0.0);
    }

    #[test]
    fn reduction_ratio_ci_brackets_the_point_estimate() {
        let algos = [AllocatorKind::Miec, AllocatorKind::Ffps];
        let point = MonteCarlo::new(10, 4).compare(&config(), &algos).unwrap();
        let r = point.reduction_ratio(AllocatorKind::Ffps, AllocatorKind::Miec);
        let (lo, hi) = point
            .reduction_ratio_ci(AllocatorKind::Ffps, AllocatorKind::Miec)
            .unwrap();
        assert!(lo <= r && r <= hi, "[{lo}, {hi}] vs {r}");
        // The baseline against itself is exactly zero with a zero CI.
        let (lo, hi) = point
            .reduction_ratio_ci(AllocatorKind::Ffps, AllocatorKind::Ffps)
            .unwrap();
        assert_eq!((lo, hi), (0.0, 0.0));
    }

    #[test]
    fn empty_algorithm_list_is_rejected() {
        let err = MonteCarlo::new(2, 1).compare(&config(), &[]).unwrap_err();
        assert_eq!(err, RunError::NoAlgorithms);
    }

    #[test]
    fn run_once_produces_an_audit() {
        let report = run_once(&config(), AllocatorKind::Miec, 3).unwrap();
        assert!(report.total_cost > 0.0);
        assert!(report.breakdown.run > 0.0);
    }

    #[test]
    fn generation_errors_propagate() {
        use esvm_workload::catalog;
        let bad = WorkloadConfig::new(10, 5)
            .vm_types(vec![catalog::VM_TYPES[6]]) // m2.4xlarge
            .server_types(vec![catalog::SERVER_TYPES[0]]); // too small
        let err = MonteCarlo::new(2, 1)
            .compare(&bad, &[AllocatorKind::Miec])
            .unwrap_err();
        assert!(matches!(err, RunError::Generate(_)));
    }

    #[test]
    fn try_lookups_report_missing_algorithms_without_panicking() {
        let point = MonteCarlo::new(2, 1)
            .compare(&config(), &[AllocatorKind::Miec])
            .unwrap();
        assert_eq!(point.try_index_of(AllocatorKind::Miec), Some(0));
        assert_eq!(point.try_index_of(AllocatorKind::Ffps), None);
        assert!(point.try_cost_summary(AllocatorKind::Miec).is_some());
        assert!(point.try_cost_summary(AllocatorKind::Ffps).is_none());
    }

    #[test]
    #[should_panic(expected = "was not part")]
    fn querying_missing_algorithm_panics() {
        let point = MonteCarlo::new(2, 1)
            .compare(&config(), &[AllocatorKind::Miec])
            .unwrap();
        let _ = point.cost_summary(AllocatorKind::Ffps);
    }
}
