//! Name-based registry of all allocation algorithms.

use crate::{
    AllocResult, Allocator, BestFit, Ffps, FirstFit, LocalSearch, LowestIdlePower, Miec,
    OnlineGreedy, Random, Refined, RoundRobin,
};
use esvm_obs::Tracer;
use esvm_simcore::{AllocationProblem, Assignment};
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Every allocation algorithm in the workspace, by name.
///
/// Used by the CLI (`esvm --algo <name>`), trace tooling and the
/// experiment harness to construct allocators from configuration.
///
/// # Example
///
/// ```
/// use esvm_core::AllocatorKind;
/// let kind: AllocatorKind = "miec".parse()?;
/// assert_eq!(kind, AllocatorKind::Miec);
/// assert_eq!(kind.build().name(), "miec");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum AllocatorKind {
    /// [`Miec`] — the paper's heuristic.
    Miec,
    /// [`Miec::ignoring_transition_costs`] — ablation.
    MiecNoAlpha,
    /// [`Miec`] refined by [`LocalSearch`] — offline strengthening.
    MiecLocalSearch,
    /// [`Miec::with_assumed_duration`] — scoring blind to true
    /// durations (assumes the paper's default mean of 5 units).
    MiecBlindDuration,
    /// [`OnlineGreedy`] — the MIEC scoring rule run online: requests in
    /// arrival order, decisions irrevocable at arrival, departed VMs
    /// freed from the live ledgers.
    OnlineGreedy,
    /// [`Ffps`] — the paper's baseline.
    Ffps,
    /// [`FirstFit`].
    FirstFit,
    /// [`BestFit`].
    BestFit,
    /// [`LowestIdlePower`].
    LowestIdlePower,
    /// [`RoundRobin`].
    RoundRobin,
    /// [`Ffps`] refined by [`LocalSearch`] — how much of FFPS's waste
    /// an offline pass can recover.
    FfpsLocalSearch,
    /// [`Random`].
    Random,
}

impl AllocatorKind {
    /// All kinds, in presentation order.
    pub const ALL: [AllocatorKind; 12] = [
        AllocatorKind::Miec,
        AllocatorKind::MiecNoAlpha,
        AllocatorKind::MiecLocalSearch,
        AllocatorKind::MiecBlindDuration,
        AllocatorKind::OnlineGreedy,
        AllocatorKind::Ffps,
        AllocatorKind::FfpsLocalSearch,
        AllocatorKind::FirstFit,
        AllocatorKind::BestFit,
        AllocatorKind::LowestIdlePower,
        AllocatorKind::RoundRobin,
        AllocatorKind::Random,
    ];

    /// The canonical name (identical to the built allocator's
    /// [`Allocator::name`]).
    pub fn name(&self) -> &'static str {
        match self {
            AllocatorKind::Miec => "miec",
            AllocatorKind::MiecNoAlpha => "miec-noalpha",
            AllocatorKind::MiecLocalSearch => "miec-ls",
            AllocatorKind::MiecBlindDuration => "miec-blind",
            AllocatorKind::OnlineGreedy => "online-greedy",
            AllocatorKind::Ffps => "ffps",
            AllocatorKind::FfpsLocalSearch => "ffps-ls",
            AllocatorKind::FirstFit => "first-fit",
            AllocatorKind::BestFit => "best-fit",
            AllocatorKind::LowestIdlePower => "lowest-idle-power",
            AllocatorKind::RoundRobin => "round-robin",
            AllocatorKind::Random => "random",
        }
    }

    /// Constructs the allocator.
    pub fn build(&self) -> Box<dyn Allocator> {
        match self {
            AllocatorKind::Miec => Box::new(Miec::new()),
            AllocatorKind::MiecNoAlpha => Box::new(Miec::ignoring_transition_costs()),
            AllocatorKind::MiecLocalSearch => Box::new(Refined::new(
                Miec::new(),
                LocalSearch::new(),
                "miec-ls",
            )),
            AllocatorKind::MiecBlindDuration => Box::new(Miec::with_assumed_duration(5)),
            AllocatorKind::OnlineGreedy => Box::new(OnlineGreedy::new()),
            AllocatorKind::Ffps => Box::new(Ffps::new()),
            AllocatorKind::FfpsLocalSearch => Box::new(Refined::new(
                Ffps::new(),
                LocalSearch::new(),
                "ffps-ls",
            )),
            AllocatorKind::FirstFit => Box::new(FirstFit::new()),
            AllocatorKind::BestFit => Box::new(BestFit::new()),
            AllocatorKind::LowestIdlePower => Box::new(LowestIdlePower::new()),
            AllocatorKind::RoundRobin => Box::new(RoundRobin::new()),
            AllocatorKind::Random => Box::new(Random::new()),
        }
    }

    /// Builds and runs the allocator with telemetry: the instrumented
    /// kinds (the MIEC family, the local-search wrappers and the online
    /// greedy) report decision counters, histograms, per-decision
    /// events, hierarchical spans and explain records to `tracer`; the
    /// simple baselines run uninstrumented and report nothing.
    /// Placements are identical to [`AllocatorKind::build`] +
    /// [`Allocator::allocate`] with the same `rng` — the differential
    /// tracing suite pins placements and costs bit-identical across all
    /// kinds.
    ///
    /// # Errors
    ///
    /// Same contract as [`Allocator::allocate`].
    pub fn allocate_traced<'p, T: Tracer>(
        &self,
        problem: &'p AllocationProblem,
        rng: &mut dyn RngCore,
        tracer: &T,
    ) -> AllocResult<Assignment<'p>> {
        match self {
            AllocatorKind::Miec => Miec::new().allocate_traced(problem, tracer),
            AllocatorKind::MiecNoAlpha => {
                Miec::ignoring_transition_costs().allocate_traced(problem, tracer)
            }
            AllocatorKind::MiecBlindDuration => {
                Miec::with_assumed_duration(5).allocate_traced(problem, tracer)
            }
            AllocatorKind::MiecLocalSearch => {
                let base = Miec::new().allocate_traced(problem, tracer)?;
                LocalSearch::new()
                    .refine_traced(&base, tracer)
                    .map(|(refined, _)| refined)
            }
            AllocatorKind::FfpsLocalSearch => {
                let base = Ffps::new().allocate(problem, rng)?;
                LocalSearch::new()
                    .refine_traced(&base, tracer)
                    .map(|(refined, _)| refined)
            }
            AllocatorKind::OnlineGreedy => OnlineGreedy::new().allocate_traced(problem, tracer),
            _ => self.build().allocate(problem, rng),
        }
    }
}

impl fmt::Display for AllocatorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error parsing an [`AllocatorKind`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAllocatorError(String);

impl fmt::Display for ParseAllocatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown allocator {:?}; expected one of: {}",
            self.0,
            AllocatorKind::ALL
                .iter()
                .map(|k| k.name())
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

impl std::error::Error for ParseAllocatorError {}

impl FromStr for AllocatorKind {
    type Err = ParseAllocatorError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        AllocatorKind::ALL
            .iter()
            .find(|k| k.name() == s)
            .copied()
            .ok_or_else(|| ParseAllocatorError(s.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_parsing() {
        for kind in AllocatorKind::ALL {
            let parsed: AllocatorKind = kind.name().parse().unwrap();
            assert_eq!(parsed, kind);
            assert_eq!(kind.build().name(), kind.name());
            assert_eq!(kind.to_string(), kind.name());
        }
    }

    #[test]
    fn all_covers_every_variant_once() {
        use std::collections::HashSet;
        let names: HashSet<&str> = AllocatorKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), AllocatorKind::ALL.len());
        for name in ["miec-blind", "miec-ls", "ffps-ls", "online-greedy"] {
            assert!(names.contains(name), "{name} missing from ALL");
        }
    }

    #[test]
    fn observed_allocation_matches_build_allocate_for_every_kind() {
        use esvm_simcore::{Interval, PowerModel, ProblemBuilder, Resources};
        use rand::{rngs::StdRng, SeedableRng};

        let mut b = ProblemBuilder::new();
        for i in 0..5 {
            let scale = 1.0 + (i % 2) as f64;
            b = b.server(
                Resources::new(8.0 * scale, 16.0 * scale),
                PowerModel::new(40.0 * scale, 100.0 * scale),
                60.0 * scale,
            );
        }
        for j in 0..10u32 {
            b = b.vm(
                Resources::new(1.0 + f64::from(j % 3), 2.0 + f64::from(j % 4)),
                Interval::with_len(1 + j, 3 + (j % 4)),
            );
        }
        let p = b.build().unwrap();

        for kind in AllocatorKind::ALL {
            let mut rng = StdRng::seed_from_u64(9);
            let plain = kind.build().allocate(&p, &mut rng).unwrap();

            let events = esvm_obs::JsonlWriter::new(Vec::new());
            let metrics = esvm_obs::MetricsRegistry::new();
            let probe =
                esvm_obs::Telemetry { metrics: &metrics, events: Some(&events), tracer: None };
            let mut rng = StdRng::seed_from_u64(9);
            let observed = kind.allocate_traced(&p, &mut rng, &probe).unwrap();
            assert_eq!(observed.placement(), plain.placement(), "{kind}");
            assert_eq!(
                observed.total_cost().to_bits(),
                plain.total_cost().to_bits(),
                "{kind}"
            );
        }
    }

    #[test]
    fn unknown_name_errors_with_candidates() {
        let err = "galactic-fit".parse::<AllocatorKind>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("galactic-fit") && msg.contains("miec"), "{msg}");
    }
}
