//! Local-search refinement of an allocation.
//!
//! MIEC is greedy and online (one pass in start-time order); the exact
//! ILP is offline but only feasible on toy instances. This module fills
//! the gap between them: a first-improvement local search over the
//! *relocate* (move one VM to another server) and *swap* (exchange the
//! servers of two VMs) neighbourhoods, evaluated with the exact audit
//! cost model.
//!
//! Moves are scored with the paired delta machinery of
//! [`ServerLedger`]: a relocate is `incremental_cost(dst) −
//! decremental_cost(src)` and a swap is four such deltas — pure
//! `O(log K)` arithmetic per candidate, no clones, no `full_cost`
//! rescans inside the move loops. The seed's clone-and-rescan evaluation
//! is retained behind [`LocalSearch::reference`] as the oracle the fast
//! path is certified against (the same pattern PR 1 used for MIEC), and
//! the relocate scan prunes spec-class-symmetric asleep targets and can
//! optionally visit targets in cached-cost order.

use crate::classes::spec_classes;
use crate::{AllocError, AllocResult, Allocator};
use esvm_obs::{DecisionKind, Event, ExplainRecord, FieldValue, NoopTracer, Tracer};
use esvm_simcore::energy::full_cost;
use esvm_simcore::{
    AllocationProblem, Assignment, ServerId, ServerLedger, ServerSpec, Vm, VmId,
};
use rand::RngCore;
use std::collections::HashMap;

/// Per-server evaluation state for the search: a delta-scored
/// [`ServerLedger`] plus the hosted VM list with an id → slot map so
/// [`Host::remove`] is O(1) instead of a linear scan.
#[derive(Debug, Clone)]
struct Host {
    ledger: ServerLedger,
    vms: Vec<Vm>,
    slot_of: HashMap<VmId, usize>,
}

impl Host {
    fn new(spec: ServerSpec) -> Self {
        Self {
            ledger: ServerLedger::new(spec),
            vms: Vec::new(),
            slot_of: HashMap::new(),
        }
    }

    fn add(&mut self, vm: Vm) {
        self.slot_of.insert(vm.id(), self.vms.len());
        self.ledger.host(&vm);
        self.vms.push(vm);
    }

    fn remove(&mut self, vm: VmId) -> Vm {
        let idx = self.slot_of.remove(&vm).expect("vm hosted here");
        let v = self.vms.swap_remove(idx);
        if let Some(moved) = self.vms.get(idx) {
            self.slot_of.insert(moved.id(), idx);
        }
        self.ledger.unhost(&v);
        v
    }

    fn fits(&self, vm: &Vm) -> bool {
        self.ledger.fits(vm)
    }

    /// Cached O(1) total cost (delta-maintained by the ledger).
    fn cost(&self) -> f64 {
        self.ledger.cost()
    }

    // ---- Reference oracle probes (the seed's clone-and-rescan
    // evaluation, used only by `LocalSearch::reference`) ----

    /// Full rescan of the current VM set — the value the seed cached.
    fn reference_cost(&self) -> f64 {
        full_cost(self.ledger.spec(), &self.vms)
    }

    /// Cost if `vm` were added (no capacity check).
    fn cost_with(&self, vm: &Vm) -> f64 {
        let mut vms = self.vms.clone();
        vms.push(*vm);
        full_cost(self.ledger.spec(), &vms)
    }

    /// Cost if `vm` were removed.
    fn cost_without(&self, vm: VmId) -> f64 {
        let vms: Vec<Vm> = self.vms.iter().filter(|v| v.id() != vm).copied().collect();
        full_cost(self.ledger.spec(), &vms)
    }

    /// Whether `vm` fits if `leaving` were removed first (clone probe).
    fn reference_fits_replacing(&self, vm: &Vm, leaving: &Vm) -> bool {
        let mut usage = self.ledger.usage().clone();
        usage.remove(leaving.interval(), leaving.demand());
        usage.fits(vm.interval(), vm.demand(), self.ledger.spec().capacity())
    }

    /// Cost with `leaving` replaced by `vm`.
    fn cost_replacing(&self, vm: &Vm, leaving: VmId) -> f64 {
        let mut vms: Vec<Vm> = self
            .vms
            .iter()
            .filter(|v| v.id() != leaving)
            .copied()
            .collect();
        vms.push(*vm);
        full_cost(self.ledger.spec(), &vms)
    }
}

/// Disjoint mutable references to two hosts.
fn pair_mut(hosts: &mut [Host], a: usize, b: usize) -> (&mut Host, &mut Host) {
    debug_assert_ne!(a, b);
    if a < b {
        let (lo, hi) = hosts.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = hosts.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

/// Exact cost change on one swap side: `leaving` departs and `incoming`
/// arrives on `host`. When the two intervals' influence regions on the
/// current segment set are disjoint, the removal and insertion deltas
/// are exactly additive and the score is pure arithmetic; otherwise the
/// ledger is probed transiently (unhost, score, rehost — integer state
/// round-trips exactly, the float accumulator is checkpointed).
///
/// The boolean reports which path evaluated the side (`true` = the
/// influence-region fast path), so instrumented callers can count
/// fast-path hits vs checkpointed probe rollbacks.
fn swap_side_delta(host: &mut Host, leaving: &Vm, incoming: &Vm) -> (f64, bool) {
    let segments = host.ledger.segments();
    let independent = !segments
        .influence_region(leaving.interval())
        .overlaps(segments.influence_region(incoming.interval()));
    if independent {
        (
            host.ledger.incremental_cost(incoming) - host.ledger.decremental_cost(leaving),
            true,
        )
    } else {
        let checkpoint = host.ledger.checkpoint();
        let dec = host.ledger.unhost(leaving);
        let inc = host.ledger.incremental_cost(incoming);
        host.ledger.host(leaving);
        host.ledger.restore_costs(checkpoint);
        (inc - dec, false)
    }
}

/// One accepted move, in acceptance order. Returned by
/// [`LocalSearch::refine_traced`] so tests and benches can replay the
/// trajectory against the clone-and-rescan oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SearchMove {
    /// `vm` moved from server `from` to server `to`.
    Relocate {
        /// The relocated VM.
        vm: VmId,
        /// Source server.
        from: ServerId,
        /// Destination server.
        to: ServerId,
        /// Accepted score (total-cost change, negative).
        delta: f64,
    },
    /// `a` (on `server_a`) and `b` (on `server_b`) exchanged servers.
    Swap {
        /// First VM.
        a: VmId,
        /// Second VM.
        b: VmId,
        /// Server hosting `a` before the swap.
        server_a: ServerId,
        /// Server hosting `b` before the swap.
        server_b: ServerId,
        /// Accepted score (total-cost change, negative).
        delta: f64,
    },
}

/// First-improvement local search over relocate + swap moves.
///
/// # Example
///
/// ```
/// use esvm_core::{Allocator, LocalSearch, Miec};
/// use esvm_simcore::{Interval, PowerModel, ProblemBuilder, Resources};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let problem = ProblemBuilder::new()
///     .server(Resources::new(8.0, 16.0), PowerModel::new(60.0, 120.0), 30.0)
///     .server(Resources::new(8.0, 16.0), PowerModel::new(50.0, 110.0), 25.0)
///     .vm(Resources::new(2.0, 4.0), Interval::new(1, 10))
///     .vm(Resources::new(2.0, 4.0), Interval::new(5, 14))
///     .build()?;
/// let mut rng = StdRng::seed_from_u64(0);
/// let base = Miec::new().allocate(&problem, &mut rng)?;
/// let refined = LocalSearch::new().refine(&base)?;
/// assert!(refined.total_cost() <= base.total_cost() + 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct LocalSearch {
    max_rounds: usize,
    enable_swaps: bool,
    ordered_targets: bool,
    reference: bool,
}

impl Default for LocalSearch {
    fn default() -> Self {
        Self {
            max_rounds: 50,
            enable_swaps: true,
            ordered_targets: false,
            reference: false,
        }
    }
}

impl LocalSearch {
    /// Creates the default search (relocate + swap, ≤ 50 rounds,
    /// delta-scored, seed visit order).
    pub fn new() -> Self {
        Self::default()
    }

    /// The seed's clone-and-rescan evaluation, retained as the oracle
    /// the delta-scored path is verified against (tests and the
    /// `local_search` bench). Functionally equivalent to
    /// [`LocalSearch::new`] up to certified floating-point score ties;
    /// an order of magnitude slower.
    pub fn reference() -> Self {
        Self {
            reference: true,
            ..Self::default()
        }
    }

    /// Visits relocation targets in ascending cached-cost order (cheap,
    /// already-awake servers first) instead of server-id order. Usually
    /// finds improving moves sooner; the first-improvement trajectory —
    /// and therefore the local optimum reached — may legitimately differ
    /// from the default order.
    pub fn with_ordered_targets(mut self) -> Self {
        self.ordered_targets = true;
        self
    }

    /// Caps the number of full improvement rounds.
    pub fn with_max_rounds(mut self, rounds: usize) -> Self {
        self.max_rounds = rounds.max(1);
        self
    }

    /// Disables the (quadratic) swap neighbourhood.
    pub fn relocate_only(mut self) -> Self {
        self.enable_swaps = false;
        self
    }

    /// Refines a complete assignment; the result never costs more.
    ///
    /// # Errors
    ///
    /// [`AllocError::Placement`] if the input is incomplete, or if the
    /// final placement fails re-validation (would indicate a bug).
    pub fn refine<'p>(&self, base: &Assignment<'p>) -> AllocResult<Assignment<'p>> {
        self.refine_traced(base, &NoopTracer).map(|(refined, _)| refined)
    }

    /// [`LocalSearch::refine`], additionally returning every accepted
    /// move in acceptance order — the trace the property tests and the
    /// `local_search` bench replay against the reference oracle — and
    /// reporting to `tracer`:
    ///
    /// * spans: the whole refinement runs under a `local_search.refine`
    ///   span with one `local_search.round` child per improvement round;
    /// * explain records: every accepted move emits a
    ///   [`DecisionKind::Relocate`] / [`DecisionKind::Swap`] record
    ///   (winner, source server, delta, and — for relocates —
    ///   candidates scanned and pruned-by-class counts);
    /// * events: one `local_search.relocate` / `local_search.swap` per
    ///   accepted move;
    /// * metrics: the scan tallies (moves considered / accepted /
    ///   rejected, spec-class pruned targets, influence-region
    ///   fast-path hits vs checkpointed probe rollbacks) and the
    ///   `local_search.accepted_delta` histogram.
    ///
    /// With [`NoopTracer`] the instrumentation compiles away and this
    /// *is* the uninstrumented search.
    ///
    /// # Errors
    ///
    /// Same as [`LocalSearch::refine`].
    pub fn refine_traced<'p, T: Tracer>(
        &self,
        base: &Assignment<'p>,
        tracer: &T,
    ) -> AllocResult<(Assignment<'p>, Vec<SearchMove>)> {
        let problem = base.problem();
        if let Some(vm) = base.unplaced().next() {
            return Err(AllocError::Placement(esvm_simcore::Error::Unplaced(vm)));
        }
        let _refine_span = tracer.span("local_search.refine");

        let mut hosts: Vec<Host> = problem.servers().iter().map(|s| Host::new(*s)).collect();
        let mut location: Vec<ServerId> = Vec::with_capacity(problem.vm_count());
        for (j, slot) in base.placement().iter().enumerate() {
            let server = slot.expect("complete");
            hosts[server.index()].add(problem.vms()[j]);
            location.push(server);
        }

        // Spec classes for asleep-target pruning (exactly
        // decision-preserving: twins of the first asleep class member
        // give bit-identical fits and scores, and first-improvement
        // visits that member first). The reference path skips pruning and
        // ordering to stay bit-faithful to the seed implementation.
        let prune = !self.reference;
        let classes = spec_classes(problem.servers());
        let mut class_seen: Vec<u64> = vec![u64::MAX; classes.count];
        let mut scan: u64 = 0;
        // Target visit order; stays the identity unless ordered_targets.
        let mut order: Vec<usize> = (0..hosts.len()).collect();
        let mut moves: Vec<SearchMove> = Vec::new();
        // Hot-loop tallies; flushed to the probe once after the search.
        let mut rounds = 0u64;
        let mut relocates_considered = 0u64;
        let mut relocates_accepted = 0u64;
        let mut swaps_considered = 0u64;
        let mut swaps_accepted = 0u64;
        let mut pruned_targets = 0u64;
        let mut fastpath_hits = 0u64;
        let mut probe_rollbacks = 0u64;

        for _ in 0..self.max_rounds {
            let mut improved = false;
            let _round_span = tracer.span("local_search.round");
            if T::ENABLED {
                rounds += 1;
            }

            // Relocate moves. (Index loop: the body needs `location[j]`
            // both read and written while `hosts` is borrowed mutably.)
            #[allow(clippy::needless_range_loop)]
            for j in 0..problem.vm_count() {
                let vm = problem.vms()[j];
                let src = location[j];
                // Per-VM scan tallies feed the explain record and the
                // run totals flushed once below.
                let mut vm_considered = 0u64;
                let mut vm_pruned = 0u64;
                // Score the departure once per VM: pure arithmetic on the
                // fast path, the seed's two full rescans on the oracle.
                let removal_gain = if self.reference {
                    hosts[src.index()].cost_without(vm.id()) - hosts[src.index()].reference_cost()
                } else {
                    -hosts[src.index()].ledger.decremental_cost(&vm)
                };
                if self.ordered_targets && !self.reference {
                    order.sort_unstable_by(|&x, &y| {
                        hosts[x].cost().total_cmp(&hosts[y].cost()).then(x.cmp(&y))
                    });
                }
                scan += 1;
                for &i in &order {
                    let dst = ServerId(i as u32);
                    if dst == src {
                        continue;
                    }
                    if prune && hosts[i].vms.is_empty() {
                        let class = classes.class_of[i];
                        if class_seen[class] == scan {
                            // A cheaper-or-equal asleep twin of the same
                            // spec class was already scored this scan.
                            if T::ENABLED {
                                vm_pruned += 1;
                            }
                            continue;
                        }
                        class_seen[class] = scan;
                    }
                    if !hosts[i].fits(&vm) {
                        continue;
                    }
                    let delta = if self.reference {
                        removal_gain + (hosts[i].cost_with(&vm) - hosts[i].reference_cost())
                    } else {
                        removal_gain + hosts[i].ledger.incremental_cost(&vm)
                    };
                    if T::ENABLED {
                        vm_considered += 1;
                    }
                    if delta < -1e-9 {
                        let v = hosts[src.index()].remove(vm.id());
                        hosts[i].add(v);
                        location[j] = dst;
                        moves.push(SearchMove::Relocate {
                            vm: vm.id(),
                            from: src,
                            to: dst,
                            delta,
                        });
                        improved = true;
                        if T::ENABLED {
                            relocates_accepted += 1;
                            tracer.observe("local_search.accepted_delta", -delta);
                            tracer.event(&Event {
                                name: "local_search.relocate",
                                fields: &[
                                    ("vm", FieldValue::U64(vm.id().index() as u64)),
                                    ("from", FieldValue::U64(src.index() as u64)),
                                    ("to", FieldValue::U64(dst.index() as u64)),
                                    ("delta", FieldValue::F64(delta)),
                                ],
                            });
                            tracer.explain(&ExplainRecord {
                                candidates: vm_considered,
                                pruned: vm_pruned,
                                shards: 1,
                                winner: Some(dst.index() as u64),
                                delta_cost: delta,
                                from: Some(src.index() as u64),
                                ..ExplainRecord::new(
                                    DecisionKind::Relocate,
                                    vm.id().index() as u64,
                                )
                            });
                        }
                        break;
                    }
                }
                if T::ENABLED {
                    relocates_considered += vm_considered;
                    pruned_targets += vm_pruned;
                }
            }

            // Swap moves.
            if self.enable_swaps {
                for a in 0..problem.vm_count() {
                    for b in (a + 1)..problem.vm_count() {
                        let (sa, sb) = (location[a], location[b]);
                        if sa == sb {
                            continue;
                        }
                        let va = problem.vms()[a];
                        let vb = problem.vms()[b];
                        let delta = if self.reference {
                            let ha = &hosts[sa.index()];
                            let hb = &hosts[sb.index()];
                            if !ha.reference_fits_replacing(&vb, &va)
                                || !hb.reference_fits_replacing(&va, &vb)
                            {
                                continue;
                            }
                            (ha.cost_replacing(&vb, va.id()) - ha.reference_cost())
                                + (hb.cost_replacing(&va, vb.id()) - hb.reference_cost())
                        } else {
                            let (ha, hb) = pair_mut(&mut hosts, sa.index(), sb.index());
                            if !ha.ledger.fits_replacing(&vb, &va)
                                || !hb.ledger.fits_replacing(&va, &vb)
                            {
                                continue;
                            }
                            let (da, fast_a) = swap_side_delta(ha, &va, &vb);
                            let (db, fast_b) = swap_side_delta(hb, &vb, &va);
                            if T::ENABLED {
                                for fast in [fast_a, fast_b] {
                                    if fast {
                                        fastpath_hits += 1;
                                    } else {
                                        probe_rollbacks += 1;
                                    }
                                }
                            }
                            da + db
                        };
                        if T::ENABLED {
                            swaps_considered += 1;
                        }
                        if delta < -1e-9 {
                            let va_owned = hosts[sa.index()].remove(va.id());
                            let vb_owned = hosts[sb.index()].remove(vb.id());
                            hosts[sa.index()].add(vb_owned);
                            hosts[sb.index()].add(va_owned);
                            location[a] = sb;
                            location[b] = sa;
                            moves.push(SearchMove::Swap {
                                a: va.id(),
                                b: vb.id(),
                                server_a: sa,
                                server_b: sb,
                                delta,
                            });
                            improved = true;
                            if T::ENABLED {
                                swaps_accepted += 1;
                                tracer.observe("local_search.accepted_delta", -delta);
                                tracer.event(&Event {
                                    name: "local_search.swap",
                                    fields: &[
                                        ("a", FieldValue::U64(va.id().index() as u64)),
                                        ("b", FieldValue::U64(vb.id().index() as u64)),
                                        ("server_a", FieldValue::U64(sa.index() as u64)),
                                        ("server_b", FieldValue::U64(sb.index() as u64)),
                                        ("delta", FieldValue::F64(delta)),
                                    ],
                                });
                                // `vm` is the a-side VM; `winner` is its
                                // new server, `from` its old one; the
                                // partner rides in `attempt`.
                                tracer.explain(&ExplainRecord {
                                    shards: 1,
                                    winner: Some(sb.index() as u64),
                                    delta_cost: delta,
                                    from: Some(sa.index() as u64),
                                    attempt: vb.id().index() as u64,
                                    ..ExplainRecord::new(
                                        DecisionKind::Swap,
                                        va.id().index() as u64,
                                    )
                                });
                            }
                        }
                    }
                }
            }

            if !improved {
                break;
            }
        }

        if T::ENABLED {
            tracer.add("local_search.rounds", rounds);
            tracer.add("local_search.relocates_considered", relocates_considered);
            tracer.add("local_search.relocates_accepted", relocates_accepted);
            tracer.add(
                "local_search.relocates_rejected",
                relocates_considered - relocates_accepted,
            );
            tracer.add("local_search.swaps_considered", swaps_considered);
            tracer.add("local_search.swaps_accepted", swaps_accepted);
            tracer.add("local_search.swaps_rejected", swaps_considered - swaps_accepted);
            tracer.add("local_search.spec_class_pruned", pruned_targets);
            tracer.add("local_search.swap_fastpath_hits", fastpath_hits);
            tracer.add("local_search.swap_probe_rollbacks", probe_rollbacks);
        }

        let placement: Vec<Option<ServerId>> = location.into_iter().map(Some).collect();
        let refined =
            Assignment::from_placement(problem, &placement).map_err(AllocError::Placement)?;
        Ok((refined, moves))
    }
}

/// An [`Allocator`] wrapper: run `base`, then refine with local search.
#[derive(Debug, Clone)]
pub struct Refined<A> {
    base: A,
    search: LocalSearch,
    name: &'static str,
}

impl<A: Allocator> Refined<A> {
    /// Wraps `base`; `name` labels the pipeline in tables.
    pub fn new(base: A, search: LocalSearch, name: &'static str) -> Self {
        Self { base, search, name }
    }
}

impl<A: Allocator> Allocator for Refined<A> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn allocate<'p>(
        &self,
        problem: &'p AllocationProblem,
        rng: &mut dyn RngCore,
    ) -> AllocResult<Assignment<'p>> {
        let base = self.base.allocate(problem, rng)?;
        self.search.refine(&base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ffps, Miec};
    use esvm_simcore::{Interval, PowerModel, ProblemBuilder, Resources};
    use rand::{rngs::StdRng, SeedableRng};

    fn problem() -> AllocationProblem {
        let mut b = ProblemBuilder::new();
        for i in 0..6 {
            let scale = 1.0 + (i % 3) as f64 * 0.5;
            b = b.server(
                Resources::new(8.0 * scale, 16.0 * scale),
                PowerModel::new(40.0 * scale, 100.0 * scale),
                60.0 * scale,
            );
        }
        for j in 0..14u32 {
            b = b.vm(
                Resources::new(1.0 + f64::from(j % 4), 2.0 + f64::from(j % 5)),
                Interval::with_len(1 + j * 2, 4 + (j % 3)),
            );
        }
        b.build().unwrap()
    }

    #[test]
    fn refinement_never_worsens() {
        let p = problem();
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let base = Ffps::new().allocate(&p, &mut rng).unwrap();
            let refined = LocalSearch::new().refine(&base).unwrap();
            assert!(
                refined.total_cost() <= base.total_cost() + 1e-9,
                "seed {seed}: {} > {}",
                refined.total_cost(),
                base.total_cost()
            );
            assert!(refined.audit().is_ok());
        }
    }

    #[test]
    fn refinement_improves_a_bad_start() {
        // Round-robin spreads everything; local search must consolidate.
        let p = problem();
        let mut rng = StdRng::seed_from_u64(0);
        let base = crate::RoundRobin::new().allocate(&p, &mut rng).unwrap();
        let refined = LocalSearch::new().refine(&base).unwrap();
        assert!(
            refined.total_cost() < base.total_cost() * 0.95,
            "expected ≥ 5% improvement over round-robin: {} vs {}",
            refined.total_cost(),
            base.total_cost()
        );
    }

    #[test]
    fn result_is_a_local_optimum_for_relocation() {
        let p = problem();
        let mut rng = StdRng::seed_from_u64(1);
        let base = Ffps::new().allocate(&p, &mut rng).unwrap();
        let refined = LocalSearch::new().refine(&base).unwrap();
        // No single relocation improves the refined solution.
        for j in 0..p.vm_count() {
            let vm = p.vms()[j];
            let src = refined.server_of(vm.id()).unwrap();
            for i in 0..p.server_count() {
                let dst = ServerId(i as u32);
                if dst == src {
                    continue;
                }
                let mut placement = refined.placement().to_vec();
                placement[j] = Some(dst);
                if let Ok(candidate) = Assignment::from_placement(&p, &placement) {
                    assert!(
                        candidate.total_cost() >= refined.total_cost() - 1e-6,
                        "relocating vm{j} to srv{i} improves: {} < {}",
                        candidate.total_cost(),
                        refined.total_cost()
                    );
                }
            }
        }
    }

    #[test]
    fn relocate_only_mode_works() {
        let p = problem();
        let mut rng = StdRng::seed_from_u64(2);
        let base = Ffps::new().allocate(&p, &mut rng).unwrap();
        let refined = LocalSearch::new()
            .relocate_only()
            .with_max_rounds(3)
            .refine(&base)
            .unwrap();
        assert!(refined.total_cost() <= base.total_cost() + 1e-9);
    }

    #[test]
    fn observed_refinement_matches_plain_and_reports_counts() {
        let p = problem();
        let mut rng = StdRng::seed_from_u64(0);
        let base = crate::RoundRobin::new().allocate(&p, &mut rng).unwrap();
        let plain = LocalSearch::new().refine(&base).unwrap();

        let sink = esvm_obs::JsonlWriter::new(Vec::new());
        let metrics = esvm_obs::MetricsRegistry::new();
        let probe = esvm_obs::Telemetry { metrics: &metrics, events: Some(&sink), tracer: None };
        let (observed, moves) = LocalSearch::new().refine_traced(&base, &probe).unwrap();

        // Instrumentation must not change any decision.
        assert_eq!(observed.placement(), plain.placement());
        assert_eq!(observed.total_cost().to_bits(), plain.total_cost().to_bits());

        let accepted = metrics.counter("local_search.relocates_accepted")
            + metrics.counter("local_search.swaps_accepted");
        assert_eq!(accepted, moves.len() as u64);
        assert!(metrics.counter("local_search.rounds") >= 1);
        assert!(
            metrics.counter("local_search.relocates_considered")
                >= metrics.counter("local_search.relocates_accepted")
        );
        let h = metrics.histogram("local_search.accepted_delta").unwrap();
        assert_eq!(h.count, moves.len() as u64);
        assert!(h.min > 0.0, "accepted improvements are recorded as positive gains");
        // One event line per accepted move.
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        assert_eq!(text.lines().count(), moves.len());
        assert!(text.lines().all(|l| {
            l.starts_with("{\"event\":\"local_search.relocate\"")
                || l.starts_with("{\"event\":\"local_search.swap\"")
        }));
    }

    #[test]
    fn instrumented_refine_matches_plain_and_explains_accepted_moves() {
        let p = problem();
        let mut rng = StdRng::seed_from_u64(0);
        let base = crate::RoundRobin::new().allocate(&p, &mut rng).unwrap();
        let (plain, plain_moves) = LocalSearch::new().refine_traced(&base, &NoopTracer).unwrap();

        let tracer = esvm_obs::CollectingTracer::new();
        let (traced, moves) = LocalSearch::new().refine_traced(&base, &tracer).unwrap();
        assert_eq!(traced.placement(), plain.placement());
        assert_eq!(traced.total_cost().to_bits(), plain.total_cost().to_bits());
        assert_eq!(moves, plain_moves);

        // One explain record per accepted move, in acceptance order,
        // with winner / source / delta matching the move trace.
        let explains = tracer.explains();
        assert_eq!(explains.len(), moves.len());
        for (entry, mv) in explains.iter().zip(&moves) {
            match *mv {
                SearchMove::Relocate { vm, from, to, delta } => {
                    assert_eq!(entry.record.kind, DecisionKind::Relocate);
                    assert_eq!(entry.record.vm, vm.index() as u64);
                    assert_eq!(entry.record.from, Some(from.index() as u64));
                    assert_eq!(entry.record.winner, Some(to.index() as u64));
                    assert_eq!(entry.record.delta_cost.to_bits(), delta.to_bits());
                    assert!(entry.record.candidates >= 1);
                }
                SearchMove::Swap { a, b, server_a, server_b, delta } => {
                    assert_eq!(entry.record.kind, DecisionKind::Swap);
                    assert_eq!(entry.record.vm, a.index() as u64);
                    assert_eq!(entry.record.attempt, b.index() as u64);
                    assert_eq!(entry.record.from, Some(server_a.index() as u64));
                    assert_eq!(entry.record.winner, Some(server_b.index() as u64));
                    assert_eq!(entry.record.delta_cost.to_bits(), delta.to_bits());
                }
            }
        }

        // Span tree: one refine root, one round child per round, all
        // closed.
        assert_eq!(tracer.open_spans(), 0);
        let spans = tracer.spans();
        let refines: Vec<_> =
            spans.iter().filter(|s| s.name == "local_search.refine").collect();
        assert_eq!(refines.len(), 1);
        let rounds = spans.iter().filter(|s| s.name == "local_search.round");
        assert!(rounds.clone().count() >= 1);
        for r in rounds {
            assert_eq!(r.parent, refines[0].id);
        }
    }

    #[test]
    fn wrapper_allocator_composes() {
        let p = problem();
        let wrapped = Refined::new(Miec::new(), LocalSearch::new(), "miec-ls");
        assert_eq!(wrapped.name(), "miec-ls");
        let mut rng = StdRng::seed_from_u64(3);
        let refined = wrapped.allocate(&p, &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let plain = Miec::new().allocate(&p, &mut rng).unwrap();
        assert!(refined.total_cost() <= plain.total_cost() + 1e-9);
    }

    #[test]
    fn incomplete_input_is_rejected() {
        let p = problem();
        let empty = Assignment::new(&p);
        assert!(LocalSearch::new().refine(&empty).is_err());
    }

    #[test]
    fn swap_bookkeeping_is_consistent() {
        // Force a scenario where swaps matter: two servers, two VMs each
        // better off exchanged (capacity prevents simple relocation).
        let p = ProblemBuilder::new()
            .server(Resources::new(4.0, 8.0), PowerModel::new(10.0, 90.0), 5.0)
            .server(Resources::new(8.0, 16.0), PowerModel::new(80.0, 160.0), 5.0)
            // Big VM must sit on server 1 unless the small one leaves.
            .vm(Resources::new(4.0, 8.0), Interval::new(1, 10))
            .vm(Resources::new(3.0, 3.0), Interval::new(1, 10))
            .build()
            .unwrap();
        let mut base = Assignment::new(&p);
        base.place(VmId(0), ServerId(1)).unwrap();
        base.place(VmId(1), ServerId(0)).unwrap();
        let refined = LocalSearch::new().refine(&base).unwrap();
        assert!(refined.audit().is_ok());
        assert!(refined.total_cost() <= base.total_cost() + 1e-9);
    }

    #[test]
    fn fast_and_reference_agree() {
        let p = problem();
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(seed);
            let base = crate::RoundRobin::new().allocate(&p, &mut rng).unwrap();
            let (fast, fast_moves) = LocalSearch::new().refine_traced(&base, &NoopTracer).unwrap();
            let (slow, slow_moves) =
                LocalSearch::reference().refine_traced(&base, &NoopTracer).unwrap();
            assert_eq!(
                fast_moves, slow_moves,
                "seed {seed}: trajectories diverged (would need tie certification)"
            );
            assert_eq!(fast.placement(), slow.placement(), "seed {seed}");
            assert!((fast.total_cost() - slow.total_cost()).abs() < 1e-6);
        }
    }

    #[test]
    fn ordered_targets_never_worsen() {
        let p = problem();
        let mut rng = StdRng::seed_from_u64(5);
        let base = crate::RoundRobin::new().allocate(&p, &mut rng).unwrap();
        let refined = LocalSearch::new()
            .with_ordered_targets()
            .refine(&base)
            .unwrap();
        assert!(refined.audit().is_ok());
        assert!(refined.total_cost() <= base.total_cost() + 1e-9);
    }

    #[test]
    fn traced_moves_replay_to_the_same_result() {
        let p = problem();
        let mut rng = StdRng::seed_from_u64(6);
        let base = crate::RoundRobin::new().allocate(&p, &mut rng).unwrap();
        let (refined, moves) = LocalSearch::new().refine_traced(&base, &NoopTracer).unwrap();
        assert!(!moves.is_empty(), "round-robin start should leave work");
        let mut placement: Vec<Option<ServerId>> = base.placement().to_vec();
        for m in &moves {
            match *m {
                SearchMove::Relocate { vm, from, to, delta } => {
                    assert_eq!(placement[vm.index()], Some(from));
                    assert!(delta < -1e-9);
                    placement[vm.index()] = Some(to);
                }
                SearchMove::Swap {
                    a,
                    b,
                    server_a,
                    server_b,
                    delta,
                } => {
                    assert_eq!(placement[a.index()], Some(server_a));
                    assert_eq!(placement[b.index()], Some(server_b));
                    assert!(delta < -1e-9);
                    placement[a.index()] = Some(server_b);
                    placement[b.index()] = Some(server_a);
                }
            }
        }
        assert_eq!(placement.as_slice(), refined.placement());
    }
}
