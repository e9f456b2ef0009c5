//! Differential harness: the online allocator against its offline
//! counterparts and against itself.
//!
//! Three contracts make `esvm serve` trustworthy:
//!
//! 1. **Determinism** — the online greedy is sequential by
//!    construction, so its placement must be bit-identical across
//!    repeated runs.
//! 2. **Source blindness** — a problem streamed from an ESVT trace
//!    must produce the same decisions as the same problem
//!    round-tripped through the text format.
//! 3. **The online ≥ offline bound** — irrevocable decisions can never
//!    beat the offline best (`min(MIEC, LocalSearch(online))`): local
//!    search only accepts improving moves, so the empirical
//!    competitive ratio is ≥ 1 on every seed, not just on average.

use esvm::workload::{esvt, trace};
use esvm::{Allocator, AllocatorKind, LocalSearch, Miec, WorkloadConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEEDS: u64 = 25;
const KIND: AllocatorKind = AllocatorKind::OnlineGreedy;

fn rng_for(seed: u64) -> StdRng {
    let mut h: u64 = 0xA076_1D64_78BD_642F;
    for b in KIND.name().bytes() {
        h = h.wrapping_mul(0x100_0000_01B3) ^ u64::from(b);
    }
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ h)
}

fn config() -> WorkloadConfig {
    WorkloadConfig::new(30, 8).mean_interarrival(2.0)
}

#[test]
fn online_greedy_is_rerun_stable() {
    for seed in 0..SEEDS {
        let problem = config().generate(seed).expect("generation is feasible");
        let oracle = KIND.build().allocate(&problem, &mut rng_for(seed));
        for round in 0..2 {
            let rerun = KIND.build().allocate(&problem, &mut rng_for(seed));
            let ctx = format!("seed {seed} round {round}");
            match (&oracle, &rerun) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.placement(), b.placement(), "{ctx}: placement");
                    assert_eq!(
                        a.total_cost().to_bits(),
                        b.total_cost().to_bits(),
                        "{ctx}: total cost"
                    );
                }
                (Err(a), Err(b)) => {
                    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{ctx}: error");
                }
                (a, b) => panic!("{ctx}: feasibility disagrees: {a:?} vs {b:?}"),
            }
        }
    }
}

#[test]
fn online_greedy_is_trace_format_blind_bit_for_bit() {
    for seed in 0..SEEDS {
        let problem = config().generate(seed).expect("generation is feasible");
        let from_text = trace::from_text(&trace::to_text(&problem)).expect("text load");
        let from_esvt =
            esvt::from_esvt(&esvt::to_esvt_with_block_len(&problem, 7)).expect("esvt load");

        let text_run = KIND.build().allocate(&from_text, &mut rng_for(seed));
        let esvt_run = KIND.build().allocate(&from_esvt, &mut rng_for(seed));
        let ctx = format!("seed {seed}");
        match (&text_run, &esvt_run) {
            (Ok(t), Ok(e)) => {
                assert_eq!(t.placement(), e.placement(), "{ctx}: placement");
                assert_eq!(
                    t.total_cost().to_bits(),
                    e.total_cost().to_bits(),
                    "{ctx}: total cost"
                );
                let ta = t.audit().expect("text audit");
                let ea = e.audit().expect("esvt audit");
                assert_eq!(
                    ta.total_cost.to_bits(),
                    ea.total_cost.to_bits(),
                    "{ctx}: audited cost"
                );
            }
            (Err(t), Err(e)) => {
                assert_eq!(format!("{t:?}"), format!("{e:?}"), "{ctx}: error");
            }
            (t, e) => panic!("{ctx}: the loads disagree on feasibility: {t:?} vs {e:?}"),
        }
    }
}

#[test]
fn online_cost_never_beats_the_offline_best() {
    let mut ratios = Vec::new();
    for seed in 0..SEEDS {
        let problem = config().generate(seed).expect("generation is feasible");
        let online = match KIND.build().allocate(&problem, &mut rng_for(seed)) {
            Ok(a) => a,
            // A tight instance the greedy cannot finish has no defined
            // ratio; the gap CLI reports it as infeasible.
            Err(_) => continue,
        };
        let offline = Miec::new()
            .allocate(&problem, &mut rng_for(seed))
            .expect("offline MIEC is feasible wherever online is");
        let refined = LocalSearch::new().refine(&online).expect("refine");

        let online_cost = online.total_cost();
        let best = offline.total_cost().min(refined.total_cost());
        assert!(
            refined.total_cost() <= online_cost + 1e-9,
            "seed {seed}: local search must not worsen the online run"
        );
        assert!(
            online_cost >= best - 1e-9,
            "seed {seed}: online {online_cost} < offline best {best}"
        );
        ratios.push(online_cost / best);
    }
    assert!(
        ratios.len() as u64 >= SEEDS - 2,
        "almost every seed must be feasible, got {}",
        ratios.len()
    );
    // The bound is tight enough to be meaningful: online never pays
    // more than 2x on this workload family.
    let max = ratios.iter().cloned().fold(f64::MIN, f64::max);
    assert!(max < 2.0, "competitive ratio blew up: {max}");
}
