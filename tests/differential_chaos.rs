//! Differential harness: the chaos replay engine against the offline
//! allocators.
//!
//! The contract that makes fault injection trustworthy has two halves.
//! First, with an **empty fault plan** the replay engine must reproduce
//! the offline allocator *bit for bit* — same placement vector, same
//! `total_cost()`, same per-component energy breakdown — for every
//! [`AllocatorKind`], so that any difference observed in a chaos run is
//! attributable to the injected faults alone. Second, with faults
//! injected, every run must complete without panicking and the Eq. 7
//! decomposition (run + idle + transition) must still sum exactly to
//! each ledger's `cost()` — evictions and repairs may reshape the
//! schedule but can never break energy conservation.

use esvm::{
    AllocatorKind, ChaosEngine, ChaosError, EnergyBreakdown, FaultPlan, FaultPlanConfig,
    RepairPolicy, ServerLedger, ShedPolicy, WorkloadConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEEDS: u64 = 50;

/// Per-(kind, seed) RNG, identical for the offline oracle and the
/// replay's phase 1 so any divergence is attributable to the replay.
fn rng_for(kind: AllocatorKind, seed: u64) -> StdRng {
    let mut h: u64 = 0xA076_1D64_78BD_642F;
    for b in kind.name().bytes() {
        h = h.wrapping_mul(0x100_0000_01B3) ^ u64::from(b);
    }
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ h)
}

/// The exact fold the engine uses: per-component sums over ledgers in
/// server order. Applied identically to both sides of the comparison.
fn fold_breakdown(ledgers: &[ServerLedger]) -> EnergyBreakdown {
    let mut total = EnergyBreakdown::default();
    for ledger in ledgers {
        let b = ledger.energy_breakdown();
        total.run += b.run;
        total.idle += b.idle;
        total.transition += b.transition;
    }
    total
}

#[test]
fn empty_plan_replay_matches_every_offline_kind_bit_for_bit() {
    let config = WorkloadConfig::new(12, 6).mean_interarrival(3.0);
    let engine = ChaosEngine::new(FaultPlan::empty());
    for seed in 0..SEEDS {
        let problem = config.generate(seed).expect("generation is feasible");
        for kind in AllocatorKind::ALL {
            let allocator = kind.build();
            let offline = allocator.allocate(&problem, &mut rng_for(kind, seed));
            let replay = engine.run(&problem, &*allocator, &mut rng_for(kind, seed));
            let ctx = format!("{} seed {seed}", kind.name());
            match (&offline, &replay) {
                (Ok(off), Ok(rep)) => {
                    assert_eq!(off.placement(), &rep.placement[..], "{ctx}: placement");
                    assert_eq!(
                        off.total_cost().to_bits(),
                        rep.cost.to_bits(),
                        "{ctx}: total cost"
                    );
                    assert_eq!(
                        off.total_cost().to_bits(),
                        rep.offline_cost.to_bits(),
                        "{ctx}: phase-1 cost"
                    );
                    let ob = fold_breakdown(off.ledgers());
                    for (name, o, r) in [
                        ("run", ob.run, rep.breakdown.run),
                        ("idle", ob.idle, rep.breakdown.idle),
                        ("transition", ob.transition, rep.breakdown.transition),
                    ] {
                        assert_eq!(o.to_bits(), r.to_bits(), "{ctx}: energy.{name}");
                    }
                    for (i, (ol, rl)) in off.ledgers().iter().zip(&rep.ledgers).enumerate() {
                        assert_eq!(
                            ol.cost().to_bits(),
                            rl.cost().to_bits(),
                            "{ctx}: server {i} cost"
                        );
                    }
                    assert!(rep.shed.is_empty(), "{ctx}: shed without faults");
                    assert!(rep.refused.is_empty(), "{ctx}: refused without faults");
                    assert_eq!(rep.displaced, 0, "{ctx}: displaced without faults");
                    assert_eq!(rep.extra_transitions, 0, "{ctx}: fault transitions");
                    assert_eq!(
                        rep.cost.to_bits(),
                        rep.adjusted_cost().to_bits(),
                        "{ctx}: empty-plan surcharge must be zero"
                    );
                }
                (Err(oe), Err(ChaosError::Offline(re))) => {
                    assert_eq!(format!("{oe:?}"), format!("{re:?}"), "{ctx}: error");
                }
                (offline, replay) => panic!(
                    "{ctx}: offline and replay disagree on feasibility: \
                     {offline:?} vs {replay:?}"
                ),
            }
        }
    }
}

#[test]
fn faulted_replays_complete_and_conserve_energy_for_every_kind() {
    let config = WorkloadConfig::new(16, 6).mean_interarrival(2.0);
    let plan_config = FaultPlanConfig::with_fault_rate(0.6);
    for seed in 0..12 {
        let problem = config.generate(seed).expect("generation is feasible");
        let plan = FaultPlan::generate(&plan_config, problem.server_count(), problem.horizon(), seed);
        for kind in AllocatorKind::ALL {
            let allocator = kind.build();
            let engine = ChaosEngine::new(plan.clone());
            let Ok(report) = engine.run(&problem, &*allocator, &mut rng_for(kind, seed)) else {
                continue; // offline infeasibility, not a chaos failure
            };
            let ctx = format!("{} seed {seed}", kind.name());
            // Eq. 7 conservation per ledger: the decomposition sums to
            // cost() exactly, whatever evictions reshaped the schedule.
            for (i, ledger) in report.ledgers.iter().enumerate() {
                assert_eq!(
                    ledger.cost().to_bits(),
                    ledger.energy_breakdown().total().to_bits(),
                    "{ctx}: server {i} conservation"
                );
            }
            let total: f64 = report.ledgers.iter().map(ServerLedger::cost).sum();
            assert_eq!(total.to_bits(), report.cost.to_bits(), "{ctx}: cost fold");
            let fold = fold_breakdown(&report.ledgers);
            for (name, a, b) in [
                ("run", fold.run, report.breakdown.run),
                ("idle", fold.idle, report.breakdown.idle),
                ("transition", fold.transition, report.breakdown.transition),
            ] {
                assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: breakdown.{name}");
            }
            // Degradation bookkeeping: refused VMs were never hosted,
            // and a VM is never both shed and refused.
            for vm in &report.refused {
                assert_eq!(report.placement[vm.index()], None, "{ctx}: refused {vm:?}");
            }
            for vm in &report.shed {
                assert!(!report.refused.contains(vm), "{ctx}: shed and refused");
            }
            assert!(
                report.fault_transition_energy.is_finite(),
                "{ctx}: surcharge"
            );
        }
    }
}

#[test]
fn replay_is_deterministic_per_plan_and_policy() {
    let config = WorkloadConfig::new(20, 5).mean_interarrival(1.5);
    let problem = config.generate(9).expect("generation is feasible");
    let plan = FaultPlan::generate(
        &FaultPlanConfig::with_fault_rate(0.7),
        problem.server_count(),
        problem.horizon(),
        21,
    );
    for shed in [
        ShedPolicy::SmallestRemainingFirst,
        ShedPolicy::LargestRemainingFirst,
        ShedPolicy::ArrivalOrder,
    ] {
        let policy = RepairPolicy {
            shed,
            ..RepairPolicy::default()
        };
        let run = || {
            ChaosEngine::new(plan.clone())
                .with_policy(policy)
                .run(
                    &problem,
                    &*AllocatorKind::Miec.build(),
                    &mut rng_for(AllocatorKind::Miec, 9),
                )
                .expect("offline phase is feasible")
        };
        let a = run();
        let b = run();
        assert_eq!(a.placement, b.placement, "{shed}: placement");
        assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "{shed}: cost");
        assert_eq!(a.shed, b.shed, "{shed}: shed set");
        assert_eq!(a.refused, b.refused, "{shed}: refused set");
        assert_eq!(
            a.displaced_vm_minutes, b.displaced_vm_minutes,
            "{shed}: displaced minutes"
        );
    }
}
