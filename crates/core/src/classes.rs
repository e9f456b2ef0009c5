//! Spec-class grouping shared by the pruned candidate scans.
//!
//! Servers with identical capacity, power model and transition cost are
//! interchangeable while *asleep*: they give the same `fits` verdict and
//! bit-identical marginal scores for any VM. A candidate scan that walks
//! servers in id order therefore only needs to score the first asleep
//! member of each class — the strict `<` tie-break would pick exactly
//! that member anyway — so the pruning is placement-preserving. The
//! [`CandidateIndex`](crate::CandidateIndex) behind MIEC and the online
//! engine, and the local-search relocate pass, both use this.

use esvm_simcore::ServerSpec;

/// Spec-class partition of a server fleet.
#[derive(Debug, Clone)]
pub(crate) struct SpecClasses {
    /// Class index of each server, aligned with the spec slice.
    pub class_of: Vec<usize>,
    /// Number of distinct classes.
    pub count: usize,
}

/// Groups `specs` into classes of identical (capacity, power model,
/// transition cost). Quadratic in the number of *classes*, linear in the
/// number of servers — fleets are catalogs of a few models.
pub(crate) fn spec_classes(specs: &[ServerSpec]) -> SpecClasses {
    let mut reps: Vec<usize> = Vec::new();
    let class_of = specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let found = reps.iter().position(|&r| {
                let t = &specs[r];
                t.capacity() == s.capacity()
                    && t.power() == s.power()
                    && t.transition_cost() == s.transition_cost()
            });
            found.unwrap_or_else(|| {
                reps.push(i);
                reps.len() - 1
            })
        })
        .collect();
    SpecClasses {
        class_of,
        count: reps.len(),
    }
}
