//! The candidate index against a brute-force full scan.
//!
//! After every event of a random stream — arrivals, departures, `DOWN`
//! and `UP` over fleets mixing several spec classes — the
//! [`CandidateIndex`] argmin must equal the lexicographic `(delta, id)`
//! argmin over every up server, and its tallies must equal those of a
//! walk over every up server that skips empty servers standing behind a
//! lower-id empty twin (the scan the index replaces). The stream runs
//! twice: MIEC-style (hosting only, checked against `Miec` itself) and
//! through [`OnlineEngine`] (hosting, draining, down and up). MIEC's
//! admission control over the index is checked against the full scan
//! on an overloaded generated workload.

use esvm_core::{Allocator, Argmin, CandidateIndex, Miec, OnlineEngine};
use esvm_simcore::{
    Interval, PowerModel, ProblemBuilder, Resources, ServerId, ServerLedger, ServerSpec, Vm,
};
use esvm_workload::{catalog, WorkloadConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Three server models; a fleet draws each server from them, so most
/// classes have twins.
fn fleet(rng: &mut StdRng, n: usize) -> Vec<ServerSpec> {
    let models = [
        (
            Resources::new(8.0, 16.0),
            PowerModel::new(100.0, 200.0),
            50.0,
        ),
        (Resources::new(4.0, 8.0), PowerModel::new(60.0, 110.0), 30.0),
        (
            Resources::new(16.0, 32.0),
            PowerModel::new(150.0, 320.0),
            400.0,
        ),
    ];
    (0..n)
        .map(|i| {
            let (capacity, power, alpha) = models[rng.gen_range(0..models.len())];
            ServerSpec::new(i as u32, capacity, power, alpha)
        })
        .collect()
}

fn random_vm(rng: &mut StdRng, id: u32, earliest: u32) -> Vm {
    let cpu = f64::from(rng.gen_range(1u32..=4));
    let start = earliest + rng.gen_range(0u32..3);
    let len = rng.gen_range(1u32..15);
    Vm::new(
        id,
        Resources::new(cpu, cpu * 1.5),
        Interval::with_len(start, len),
    )
}

fn same_class(a: &ServerSpec, b: &ServerSpec) -> bool {
    a.capacity() == b.capacity()
        && a.power() == b.power()
        && a.transition_cost() == b.transition_cost()
}

fn score(ledgers: &[ServerLedger], vm: &Vm, i: usize) -> Option<f64> {
    ledgers[i].fits(vm).then(|| ledgers[i].incremental_cost(vm))
}

/// Lexicographic `(delta, id)` argmin over every up server.
fn full_scan(
    ledgers: &[ServerLedger],
    is_down: &dyn Fn(usize) -> bool,
    vm: &Vm,
) -> Option<(f64, ServerId)> {
    (0..ledgers.len())
        .filter(|&i| !is_down(i))
        .filter_map(|i| score(ledgers, vm, i).map(|d| (d, ServerId(i as u32))))
        .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
}

/// A walk over every up server in id order that skips an empty server
/// when a lower-id empty server of its class was already visited.
fn pruned_walk(
    specs: &[ServerSpec],
    ledgers: &[ServerLedger],
    is_down: &dyn Fn(usize) -> bool,
    vm: &Vm,
) -> Argmin {
    let mut seen: Vec<usize> = Vec::new();
    let mut pruned = 0u64;
    let mut visit = Vec::new();
    for i in (0..specs.len()).filter(|&i| !is_down(i)) {
        if ledgers[i].hosted_count() == 0 {
            if seen.iter().any(|&j| same_class(&specs[j], &specs[i])) {
                pruned += 1;
                continue;
            }
            seen.push(i);
        }
        visit.push(i as u32);
    }
    Argmin::over(visit, pruned, |i| score(ledgers, vm, i))
}

/// Checks the index against both oracles for `vm`.
fn check(
    specs: &[ServerSpec],
    ledgers: &[ServerLedger],
    index: &CandidateIndex,
    is_down: &dyn Fn(usize) -> bool,
    vm: &Vm,
    ctx: &str,
) -> Result<Argmin, TestCaseError> {
    let got = index.argmin(|i| score(ledgers, vm, i));
    let bits = |b: Option<(f64, ServerId)>| b.map(|(d, s)| (d.to_bits(), s));
    prop_assert_eq!(
        bits(got.best),
        bits(full_scan(ledgers, is_down, vm)),
        "{}: argmin",
        ctx
    );
    let walk = pruned_walk(specs, ledgers, is_down, vm);
    prop_assert_eq!(bits(got.best), bits(walk.best), "{}: walk argmin", ctx);
    prop_assert_eq!(
        (got.candidates, got.unfit, got.pruned, got.fp_ties),
        (walk.candidates, walk.unfit, walk.pruned, walk.fp_ties),
        "{}: tallies",
        ctx
    );
    Ok(got)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// MIEC-style use: arrivals in start order, every winner hosted,
    /// nothing ever leaves. The loop's placements equal `Miec`'s.
    #[test]
    fn hosting_only_index_matches_the_full_scan(seed in 0u64..u64::MAX, n in 1usize..14, m in 1usize..60) {
        let mut rng = StdRng::seed_from_u64(seed);
        let specs = fleet(&mut rng, n);
        let mut vms: Vec<Vm> = (0..m).map(|j| random_vm(&mut rng, j as u32, 0)).collect();
        vms.sort_by_key(|vm| vm.start());
        let vms: Vec<Vm> = vms
            .iter()
            .enumerate()
            .map(|(j, vm)| Vm::new(j as u32, vm.demand(), vm.interval()))
            .collect();
        let mut ledgers: Vec<ServerLedger> = specs.iter().map(|s| ServerLedger::new(*s)).collect();
        let mut index = CandidateIndex::new(&specs);
        let mut placement = Vec::new();
        for vm in &vms {
            let pick = check(&specs, &ledgers, &index, &|_| false, vm, &format!("vm {}", vm.id()))?;
            let Some((_, sid)) = pick.best else {
                placement.push(None);
                break;
            };
            ledgers[sid.index()].host(vm);
            index.hosted(sid);
            placement.push(Some(sid));
        }
        let mut builder = ProblemBuilder::new();
        for s in &specs {
            builder = builder.server(s.capacity(), *s.power(), s.transition_cost());
        }
        for vm in &vms {
            builder = builder.vm(vm.demand(), vm.interval());
        }
        let problem = builder.build().expect("valid problem");
        match Miec::new().allocate(&problem, &mut StdRng::seed_from_u64(0)) {
            Ok(a) => prop_assert_eq!(a.placement(), &placement[..]),
            Err(_) => prop_assert_eq!(placement.last(), Some(&None)),
        }
    }

    /// Online use: arrivals, explicit departures, scheduled departures,
    /// `DOWN` (with repair of the evicted VMs) and `UP`, checked after
    /// every event with a fresh probe VM, and each arrival's decision
    /// checked against the full scan.
    #[test]
    fn online_index_matches_the_full_scan(seed in 0u64..u64::MAX, n in 1usize..14, events in 1usize..120) {
        let mut rng = StdRng::seed_from_u64(seed);
        let specs = fleet(&mut rng, n);
        let mut engine = OnlineEngine::new(&specs);
        let mut next_id = 0u32;
        let mut arrived: Vec<u32> = Vec::new();
        for step in 0..events {
            let ctx = format!("step {step}");
            match rng.gen_range(0u32..10) {
                0..=5 => {
                    let vm = random_vm(&mut rng, next_id, engine.clock());
                    next_id += 1;
                    engine.advance_to(vm.start());
                    let is_down = |i: usize| engine.is_down(ServerId(i as u32));
                    let pick = check(&specs, engine.ledgers(), engine.candidate_index(), &is_down, &vm, &ctx)?;
                    let decision = engine.arrive(vm).expect("well-formed arrival");
                    prop_assert_eq!(decision.server(), pick.best.map(|(_, s)| s), "{}: decision", ctx);
                    arrived.push(vm.id().0);
                }
                6 if !arrived.is_empty() => {
                    let id = arrived[rng.gen_range(0..arrived.len())];
                    // Already departed or evicted ids are typed errors.
                    let _ = engine.depart(id.into());
                }
                7 | 8 => {
                    let server = ServerId(rng.gen_range(0..n as u32));
                    for victim in engine.set_down(server).expect("known server") {
                        engine.repair(victim, 2, 1);
                    }
                }
                _ => {
                    let server = ServerId(rng.gen_range(0..n as u32));
                    engine.set_up(server).expect("known server");
                }
            }
            let probe = random_vm(&mut rng, u32::MAX, engine.clock());
            let is_down = |i: usize| engine.is_down(ServerId(i as u32));
            check(&specs, engine.ledgers(), engine.candidate_index(), &is_down, &probe, &ctx)?;
        }
    }
}

/// Admission control over the candidate index rejects exactly the VMs
/// the full scan over every server rejects, with the same placements
/// and cost bits.
#[test]
fn admission_decisions_match_the_full_scan_oracle() {
    // Deliberately overloaded: many long-lived VMs on a two-server
    // fleet, so admission control actually rejects work.
    let config = WorkloadConfig::new(40, 2)
        .mean_interarrival(0.5)
        .mean_duration(20.0)
        .vm_types(catalog::standard_vm_types());
    let mut rejected_somewhere = false;
    for seed in 0..10 {
        let problem = config.generate(seed).expect("generation is feasible");
        let (seq_assignment, seq_rejected) = Miec::new()
            .allocate_with_admission(&problem)
            .expect("admission-controlled run cannot fail");
        rejected_somewhere |= !seq_rejected.is_empty();
        let (full_assignment, full_rejected) = Miec::new()
            .without_pruning()
            .allocate_with_admission(&problem)
            .expect("admission-controlled run cannot fail");
        assert_eq!(seq_rejected, full_rejected, "seed {seed}");
        assert_eq!(seq_assignment.placement(), full_assignment.placement(), "seed {seed}");
        assert_eq!(
            seq_assignment.total_cost().to_bits(),
            full_assignment.total_cost().to_bits(),
            "seed {seed}"
        );
    }
    assert!(
        rejected_somewhere,
        "the overload workload never triggered a rejection — the \
         admission-parity check is vacuous; tighten the configuration"
    );
}
