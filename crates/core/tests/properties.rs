//! Property-based tests of the allocation algorithms.

use esvm_core::{
    AllocError, Allocator, AllocatorKind, Consolidator, Ffps, LocalSearch, Miec, RoundRobin,
    SearchMove,
};
use esvm_obs::NoopTracer;
use esvm_simcore::energy::full_cost;
use esvm_simcore::{
    AllocationProblem, Assignment, Interval, PowerModel, Resources, ServerLedger, ServerSpec, Vm,
    VmId,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Whether two accepted moves are the same *decision*, ignoring the
/// recorded score: the delta-scored and clone-and-rescan evaluators
/// compute the same value through different float arithmetic, so the
/// `delta` fields legitimately differ in the last ulps.
fn same_decision(a: &SearchMove, b: &SearchMove) -> bool {
    match (a, b) {
        (
            SearchMove::Relocate { vm, from, to, .. },
            SearchMove::Relocate {
                vm: vm2,
                from: from2,
                to: to2,
                ..
            },
        ) => vm == vm2 && from == from2 && to == to2,
        (
            SearchMove::Swap {
                a: a1,
                b: b1,
                server_a: sa1,
                server_b: sb1,
                ..
            },
            SearchMove::Swap {
                a: a2,
                b: b2,
                server_a: sa2,
                server_b: sb2,
                ..
            },
        ) => a1 == a2 && b1 == b2 && sa1 == sa2 && sb1 == sb2,
        _ => false,
    }
}

/// The clone-and-rescan score of `m` against explicit per-server VM
/// lists: the ground truth every accepted move is checked against.
fn oracle_move_delta(problem: &AllocationProblem, hosts: &[Vec<Vm>], m: &SearchMove) -> f64 {
    let specs = problem.servers();
    let cost = |i: usize, vms: &[Vm]| full_cost(&specs[i], vms);
    match *m {
        SearchMove::Relocate { vm, from, to, .. } => {
            let v = problem.vms()[vm.index()];
            let without: Vec<Vm> = hosts[from.index()]
                .iter()
                .filter(|x| x.id() != vm)
                .copied()
                .collect();
            let mut with = hosts[to.index()].clone();
            with.push(v);
            (cost(from.index(), &without) - cost(from.index(), &hosts[from.index()]))
                + (cost(to.index(), &with) - cost(to.index(), &hosts[to.index()]))
        }
        SearchMove::Swap {
            a,
            b,
            server_a,
            server_b,
            ..
        } => {
            let (va, vb) = (problem.vms()[a.index()], problem.vms()[b.index()]);
            let mut ra: Vec<Vm> = hosts[server_a.index()]
                .iter()
                .filter(|x| x.id() != a)
                .copied()
                .collect();
            ra.push(vb);
            let mut rb: Vec<Vm> = hosts[server_b.index()]
                .iter()
                .filter(|x| x.id() != b)
                .copied()
                .collect();
            rb.push(va);
            (cost(server_a.index(), &ra) - cost(server_a.index(), &hosts[server_a.index()]))
                + (cost(server_b.index(), &rb) - cost(server_b.index(), &hosts[server_b.index()]))
        }
    }
}

/// Applies an accepted move to the explicit VM lists, mirroring the
/// search's own bookkeeping (`swap_remove`, push) so the list orders —
/// and therefore the float summation orders — stay identical.
fn apply_move(hosts: &mut [Vec<Vm>], m: &SearchMove) {
    let mut transfer = |vm: VmId, from: usize, to: usize| {
        let idx = hosts[from].iter().position(|x| x.id() == vm).unwrap();
        let v = hosts[from].swap_remove(idx);
        hosts[to].push(v);
    };
    match *m {
        SearchMove::Relocate { vm, from, to, .. } => transfer(vm, from.index(), to.index()),
        SearchMove::Swap {
            a,
            b,
            server_a,
            server_b,
            ..
        } => {
            transfer(a, server_a.index(), server_b.index());
            transfer(b, server_b.index(), server_a.index());
        }
    }
}

/// Per-server VM lists for a complete assignment, in VM-index order —
/// the same initial state `LocalSearch::refine_traced` builds.
fn host_lists(problem: &AllocationProblem, base: &Assignment) -> Vec<Vec<Vm>> {
    let mut hosts: Vec<Vec<Vm>> = vec![Vec::new(); problem.server_count()];
    for (j, slot) in base.placement().iter().enumerate() {
        hosts[slot.expect("complete").index()].push(problem.vms()[j]);
    }
    hosts
}

/// Certifies that the first VM two complete MIEC runs place differently
/// was a genuine tie: replayed at the common state, both chosen servers
/// offer the same score under the delta arithmetic *and* under the
/// clone-and-rescan reference arithmetic. On such ties the delta path
/// computes exact equality and takes the lowest id, while the
/// reference's difference-of-sums carries last-ulp rounding noise that
/// can break the tie either way — the only way the two are allowed to
/// disagree. `alpha_free`/`assumed` mirror the variant's scoring knobs.
fn certify_divergence_is_tie(
    problem: &AllocationProblem,
    fast: &Assignment,
    slow: &Assignment,
    alpha_free: bool,
    assumed: Option<u32>,
) -> Result<(), TestCaseError> {
    // Scoring ledgers as the variant saw them (α zeroed for the
    // transition-cost ablation); commitment always uses the real VM.
    let mut ledgers: Vec<ServerLedger> = problem
        .servers()
        .iter()
        .map(|s| {
            let alpha = if alpha_free { 0.0 } else { s.transition_cost() };
            ServerLedger::new(ServerSpec::new(s.id(), s.capacity(), *s.power(), alpha))
        })
        .collect();
    for j in problem.vms_by_start_time() {
        let vm = &problem.vms()[j];
        let f = fast.placement()[vm.id().index()].expect("complete run");
        let s = slow.placement()[vm.id().index()].expect("complete run");
        if f != s {
            let scoring = match assumed {
                None => *vm,
                Some(u) => Vm::new(vm.id(), vm.demand(), Interval::with_len(vm.start(), u)),
            };
            let (lf, ls) = (&ledgers[f.index()], &ledgers[s.index()]);
            let delta_gap =
                (lf.incremental_cost(&scoring) - ls.incremental_cost(&scoring)).abs();
            let reference_gap = (lf.reference_incremental_cost(&scoring)
                - ls.reference_incremental_cost(&scoring))
            .abs();
            prop_assert!(
                delta_gap < 1e-9 && reference_gap < 1e-9,
                "divergence at {} is not an FP tie: delta gap {:e}, reference gap {:e}",
                vm.id(), delta_gap, reference_gap
            );
            return Ok(());
        }
        ledgers[s.index()].host(vm);
    }
    Ok(())
}

/// Random problems where the first server can host any VM (so the
/// instance is always valid, though individual placements may still be
/// infeasible under load).
fn arb_problem() -> impl Strategy<Value = AllocationProblem> {
    let server = (1u32..=10, 1u32..=10, 1u32..=15, 1u32..=15, 0u32..=40);
    let vm = (1u32..=6, 1u32..=6, 1u32..=40, 1u32..=8);
    (
        proptest::collection::vec(server, 0..=4),
        proptest::collection::vec(vm, 0..=12),
    )
        .prop_map(|(servers, vms)| {
            let mut specs = vec![ServerSpec::new(
                0,
                Resources::new(12.0, 12.0),
                PowerModel::new(8.0, 30.0),
                15.0,
            )];
            for (i, (cpu, mem, idle, dynamic, alpha)) in servers.into_iter().enumerate() {
                specs.push(ServerSpec::new(
                    (i + 1) as u32,
                    Resources::new(f64::from(cpu), f64::from(mem)),
                    PowerModel::new(f64::from(idle), f64::from(idle + dynamic)),
                    f64::from(alpha),
                ));
            }
            let vms: Vec<Vm> = vms
                .into_iter()
                .enumerate()
                .map(|(j, (cpu, mem, start, len))| {
                    Vm::new(
                        j as u32,
                        Resources::new(f64::from(cpu.min(12)), f64::from(mem.min(12))),
                        Interval::with_len(start, len),
                    )
                })
                .collect();
            AllocationProblem::new(specs, vms).expect("valid by construction")
        })
}

/// Random problems whose servers are many copies of a few spec classes —
/// the homogeneous-rack shape where MIEC's spec-class pruning actually
/// prunes (every random spec in `arb_problem` tends to be unique).
fn arb_clustered_problem() -> impl Strategy<Value = AllocationProblem> {
    let class = (4u32..=12, 4u32..=12, 1u32..=15, 1u32..=15, 0u32..=40, 1usize..=5);
    let vm = (1u32..=4, 1u32..=4, 1u32..=40, 1u32..=8);
    (
        proptest::collection::vec(class, 1..=3),
        proptest::collection::vec(vm, 0..=15),
    )
        .prop_map(|(classes, vms)| {
            let mut specs = Vec::new();
            for (cpu, mem, idle, dynamic, alpha, copies) in classes {
                for _ in 0..copies {
                    specs.push(ServerSpec::new(
                        specs.len() as u32,
                        Resources::new(f64::from(cpu), f64::from(mem)),
                        PowerModel::new(f64::from(idle), f64::from(idle + dynamic)),
                        f64::from(alpha),
                    ));
                }
            }
            let vms: Vec<Vm> = vms
                .into_iter()
                .enumerate()
                .map(|(j, (cpu, mem, start, len))| {
                    Vm::new(
                        j as u32,
                        Resources::new(f64::from(cpu), f64::from(mem)),
                        Interval::with_len(start, len),
                    )
                })
                .collect();
            AllocationProblem::new(specs, vms).expect("valid by construction")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// MIEC's final cost equals the sum of the incremental costs it
    /// accepted — i.e. the greedy bookkeeping is exact.
    #[test]
    fn miec_cost_is_sum_of_increments(problem in arb_problem()) {
        let mut rng = StdRng::seed_from_u64(1);
        let Ok(assignment) = Miec::new().allocate(&problem, &mut rng) else {
            return Ok(());
        };
        // Replay the placements in start-time order, accumulating
        // increments on a fresh assignment.
        let mut replay = esvm_simcore::Assignment::new(&problem);
        let mut total = 0.0;
        for j in problem.vms_by_start_time() {
            let vm = &problem.vms()[j];
            let server = assignment.server_of(vm.id()).unwrap();
            total += replay.ledger(server).incremental_cost(vm);
            replay.place(vm.id(), server).unwrap();
        }
        prop_assert!((total - assignment.total_cost()).abs() < 1e-6);
    }

    /// Deterministic allocators ignore the RNG completely.
    #[test]
    fn deterministic_allocators_ignore_rng(problem in arb_problem(), s1 in 0u64..99, s2 in 100u64..199) {
        for kind in [
            AllocatorKind::Miec,
            AllocatorKind::MiecNoAlpha,
            AllocatorKind::FirstFit,
            AllocatorKind::BestFit,
            AllocatorKind::LowestIdlePower,
            AllocatorKind::RoundRobin,
        ] {
            let a = kind.build().allocate(&problem, &mut StdRng::seed_from_u64(s1));
            let b = kind.build().allocate(&problem, &mut StdRng::seed_from_u64(s2));
            match (a, b) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a.placement(), b.placement()),
                (Err(x), Err(y)) => prop_assert_eq!(x, y),
                _ => return Err(TestCaseError::fail(format!("{kind}: divergent outcomes"))),
            }
        }
    }

    /// The greedy invariant, verified by replay: at every step MIEC's
    /// chosen server has minimal incremental cost among all feasible
    /// servers at that step (ties broken by lowest id).
    #[test]
    fn miec_choice_is_stepwise_minimal(problem in arb_problem()) {
        let mut rng = StdRng::seed_from_u64(3);
        let Ok(assignment) = Miec::new().allocate(&problem, &mut rng) else {
            return Ok(());
        };
        let mut replay = esvm_simcore::Assignment::new(&problem);
        for j in problem.vms_by_start_time() {
            let vm = &problem.vms()[j];
            let chosen = assignment.server_of(vm.id()).unwrap();
            let chosen_delta = replay.ledger(chosen).incremental_cost(vm);
            for s in 0..problem.server_count() as u32 {
                let sid = esvm_simcore::ServerId(s);
                if !replay.ledger(sid).fits(vm) {
                    continue;
                }
                let delta = replay.ledger(sid).incremental_cost(vm);
                prop_assert!(
                    delta > chosen_delta - 1e-9
                        || (delta >= chosen_delta - 1e-9 && sid >= chosen),
                    "{}: server {} delta {} beats chosen {} delta {}",
                    vm.id(), s, delta, chosen.index(), chosen_delta
                );
            }
            replay.place(vm.id(), chosen).unwrap();
        }
    }

    /// The optimised MIEC (spec-class pruning + delta-based scoring)
    /// places every VM exactly where the reference implementation (full
    /// scan, clone-and-rescan scoring — the seed semantics) does, across
    /// all scoring variants — except on exact ties, where the reference's
    /// difference-of-sums breaks the tie by rounding noise; any such
    /// divergence must be certified as a genuine tie. Ffps, local search
    /// and migration share the unchanged `fits`/`full_cost` paths, so
    /// MIEC is the only allocator whose scoring arithmetic changed.
    #[test]
    fn optimised_miec_matches_reference_placements(problem in arb_problem(), seed in 0u64..1000) {
        for (fast, slow, alpha_free, assumed) in [
            (Miec::new(), Miec::reference(), false, None),
            (
                Miec::ignoring_transition_costs(),
                Miec::ignoring_transition_costs().with_reference_scoring(),
                true,
                None,
            ),
            (
                Miec::with_assumed_duration(4),
                Miec::with_assumed_duration(4).with_reference_scoring(),
                false,
                Some(4),
            ),
        ] {
            let a = fast.allocate(&problem, &mut StdRng::seed_from_u64(seed));
            let b = slow.allocate(&problem, &mut StdRng::seed_from_u64(seed));
            match (a, b) {
                (Ok(a), Ok(b)) => {
                    if a.placement() != b.placement() {
                        certify_divergence_is_tie(&problem, &a, &b, alpha_free, assumed)?;
                    }
                }
                (Err(x), Err(y)) => prop_assert_eq!(x, y),
                _ => return Err(TestCaseError::fail(
                    format!("{}: optimised and reference runs diverged", fast.name()),
                )),
            }
        }
    }

    /// Same equivalence on clustered fleets (many servers per spec
    /// class), where the pruning path is actually exercised: asleep
    /// duplicates are skipped yet the lowest-id tie-break must survive.
    #[test]
    fn pruning_preserves_placements_on_clustered_fleets(
        problem in arb_clustered_problem(),
        seed in 0u64..1000,
    ) {
        let a = Miec::new().allocate(&problem, &mut StdRng::seed_from_u64(seed));
        // Pruning in isolation (same delta scoring, full scan) must be
        // byte-identical — asleep same-class servers score bit-for-bit
        // the same, so skipping them can never change the argmin.
        let u = Miec::new().without_pruning().allocate(&problem, &mut StdRng::seed_from_u64(seed));
        match (&a, &u) {
            (Ok(a), Ok(u)) => prop_assert_eq!(a.placement(), u.placement()),
            (Err(x), Err(y)) => prop_assert_eq!(x, y),
            _ => return Err(TestCaseError::fail("pruned and unpruned runs diverged".to_string())),
        }
        let b = Miec::reference().allocate(&problem, &mut StdRng::seed_from_u64(seed));
        match (a, b) {
            (Ok(a), Ok(b)) => {
                if a.placement() != b.placement() {
                    certify_divergence_is_tie(&problem, &a, &b, false, None)?;
                }
            }
            (Err(x), Err(y)) => prop_assert_eq!(x, y),
            _ => return Err(TestCaseError::fail("pruned and reference runs diverged".to_string())),
        }
    }

    /// Every move the delta-scored local search accepts carries exactly
    /// the score the clone-and-rescan oracle assigns it at that state,
    /// and the accumulated deltas land on the refined total cost.
    #[test]
    fn local_search_deltas_match_rescan_oracle(problem in arb_problem(), seed in 0u64..1000) {
        let Ok(base) = RoundRobin::new().allocate(&problem, &mut StdRng::seed_from_u64(seed))
        else {
            return Ok(());
        };
        let (refined, moves) = LocalSearch::new().refine_traced(&base, &NoopTracer).unwrap();
        let mut hosts = host_lists(&problem, &base);
        let mut total = base.total_cost();
        for m in &moves {
            let delta = match *m {
                SearchMove::Relocate { delta, .. } | SearchMove::Swap { delta, .. } => delta,
            };
            prop_assert!(delta < -1e-9, "accepted a non-improving move: {:?}", m);
            let oracle = oracle_move_delta(&problem, &hosts, m);
            prop_assert!(
                (delta - oracle).abs() < 1e-9,
                "{:?}: delta {} vs rescan oracle {}",
                m, delta, oracle
            );
            apply_move(&mut hosts, m);
            total += delta;
        }
        prop_assert!(
            (total - refined.total_cost()).abs() < 1e-6,
            "accumulated {} vs audited {}",
            total, refined.total_cost()
        );
    }

    /// The delta-scored search takes exactly the same trajectory as the
    /// retained clone-and-rescan oracle. The two arithmetics agree to
    /// ~1e-9 on every score, so the only way the trajectories may
    /// legitimately part is a score sitting at the −1e-9 acceptance
    /// threshold, where last-ulp noise breaks the accept/skip decision
    /// either way — any divergence must certify as such a tie.
    #[test]
    fn local_search_matches_reference_modulo_ties(problem in arb_problem(), seed in 0u64..1000) {
        let Ok(base) = RoundRobin::new().allocate(&problem, &mut StdRng::seed_from_u64(seed))
        else {
            return Ok(());
        };
        let (fast, fast_moves) = LocalSearch::new().refine_traced(&base, &NoopTracer).unwrap();
        let (slow, slow_moves) =
            LocalSearch::reference().refine_traced(&base, &NoopTracer).unwrap();
        let prefix = fast_moves
            .iter()
            .zip(&slow_moves)
            .take_while(|(a, b)| same_decision(a, b))
            .count();
        if prefix == fast_moves.len() && prefix == slow_moves.len() {
            prop_assert_eq!(fast.placement(), slow.placement());
            return Ok(());
        }
        // Replay the common prefix, then certify the divergence: of the
        // two next accepted moves, the one at the earlier scan position
        // was accepted by one evaluator and skipped by the other, so its
        // true score must straddle the acceptance threshold.
        let mut hosts = host_lists(&problem, &base);
        for m in &fast_moves[..prefix] {
            apply_move(&mut hosts, m);
        }
        let candidates: Vec<f64> = [fast_moves.get(prefix), slow_moves.get(prefix)]
            .into_iter()
            .flatten()
            .map(|m| oracle_move_delta(&problem, &hosts, m))
            .collect();
        prop_assert!(
            candidates.iter().any(|d| (d + 1e-9).abs() < 1e-8),
            "divergence after {} moves is not an FP tie: next-move scores {:?}",
            prefix, candidates
        );
    }

    /// The delta-scored consolidation pass reaches the same schedule as
    /// the clone-and-rescan oracle; when an FP tie at the `min_gain`
    /// threshold lets them part, both still audit to nearly the same
    /// cost and neither ever exceeds the unconsolidated baseline.
    #[test]
    fn consolidation_fast_matches_reference(problem in arb_problem(), seed in 0u64..1000) {
        let Ok(base) = Ffps::new().allocate(&problem, &mut StdRng::seed_from_u64(seed))
        else {
            return Ok(());
        };
        let fast = Consolidator::new(1.0).consolidate(&base).unwrap();
        let slow = Consolidator::reference(1.0).consolidate(&base).unwrap();
        let fast_audit = fast.audit().unwrap();
        let slow_audit = slow.audit().unwrap();
        prop_assert!(fast_audit.total_cost <= base.total_cost() + 1e-6);
        prop_assert!(slow_audit.total_cost <= base.total_cost() + 1e-6);
        let same = (0..problem.vm_count())
            .all(|j| fast.pieces_of(VmId(j as u32)) == slow.pieces_of(VmId(j as u32)));
        if same {
            prop_assert_eq!(fast_audit.migrations, slow_audit.migrations);
            prop_assert!((fast_audit.total_cost - slow_audit.total_cost).abs() < 1e-6);
        } else {
            // A tied eviction decision shifts the total by ≈ min_gain.
            prop_assert!(
                (fast_audit.total_cost - slow_audit.total_cost).abs() < 1e-3,
                "schedules diverged by more than a tie: {} vs {}",
                fast_audit.total_cost, slow_audit.total_cost
            );
        }
    }

    /// Failure is honest: when an allocator reports NoFeasibleServer,
    /// the VM it names really fits no server at that point of its run.
    #[test]
    fn first_fit_failure_names_a_truly_stuck_vm(problem in arb_problem()) {
        let mut rng = StdRng::seed_from_u64(5);
        if let Err(AllocError::NoFeasibleServer(vm)) =
            esvm_core::FirstFit::new().allocate(&problem, &mut rng)
        {
            // Re-run the prefix before `vm` and verify no server fits it.
            let mut partial = esvm_simcore::Assignment::new(&problem);
            for j in problem.vms_by_start_time() {
                let v = &problem.vms()[j];
                if v.id() == vm {
                    break;
                }
                let sid = (0..problem.server_count() as u32)
                    .map(esvm_simcore::ServerId)
                    .find(|&s| partial.ledger(s).fits(v))
                    .expect("prefix was placeable");
                partial.place(v.id(), sid).unwrap();
            }
            let stuck = &problem.vms()[vm.index()];
            for s in 0..problem.server_count() as u32 {
                prop_assert!(!partial.ledger(esvm_simcore::ServerId(s)).fits(stuck));
            }
        }
    }
}
