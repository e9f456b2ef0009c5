//! Offline-refinement benchmark: delta-scored local search and
//! consolidation vs their retained clone-and-rescan reference
//! implementations, at a 500-VM / 100-server scale point. Records the
//! measured speedups and equivalence flags in `BENCH_localsearch.json`
//! at the repository root.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use esvm_bench::{assert_no_regression, committed_bench_field, time_best, time_pair_best};
use esvm_core::{Allocator, Consolidator, Ffps, LocalSearch, SearchMove};
use esvm_obs::{MetricsRegistry, NoopTracer};
use esvm_simcore::VmId;
use esvm_workload::WorkloadConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Same accepted decision, ignoring the recorded score (the two
/// evaluators' arithmetic differs in the last ulps).
fn same_decision(a: &SearchMove, b: &SearchMove) -> bool {
    match (a, b) {
        (
            SearchMove::Relocate { vm, from, to, .. },
            SearchMove::Relocate { vm: v2, from: f2, to: t2, .. },
        ) => vm == v2 && from == f2 && to == t2,
        (
            SearchMove::Swap { a: a1, b: b1, server_a: sa1, server_b: sb1, .. },
            SearchMove::Swap { a: a2, b: b2, server_a: sa2, server_b: sb2, .. },
        ) => a1 == a2 && b1 == b2 && sa1 == sa2 && sb1 == sb2,
        _ => false,
    }
}

/// 500 VMs on 100 servers: refine an FFPS allocation with the
/// delta-scored search (criterion timing), then compare against the
/// clone-and-rescan reference for both time and trajectory, run the same
/// comparison for the consolidation pass, and write the measurements to
/// `BENCH_localsearch.json`.
fn bench_local_search_at_scale(c: &mut Criterion) {
    const VMS: usize = 500;
    const SERVERS: usize = 100;
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_localsearch.json");
    // Read the committed baselines before this run overwrites the record.
    // The gates compare reference-normalized ratios, so machine-speed
    // drift between the recording and the checking run cancels out.
    let committed_ratio = committed_bench_field(path, "optimised_seconds")
        .zip(committed_bench_field(path, "reference_seconds"))
        .map(|(o, r)| o / r);
    let committed_consolidation_ratio =
        committed_bench_field(path, "consolidation_optimised_seconds")
            .zip(committed_bench_field(path, "consolidation_reference_seconds"))
            .map(|(o, r)| o / r);
    let problem = WorkloadConfig::new(VMS, SERVERS)
        .mean_interarrival(4.0)
        .generate(1)
        .expect("instance");
    let mut rng = StdRng::seed_from_u64(7);
    let base = Ffps::new().allocate(&problem, &mut rng).expect("base allocation");

    let mut group = c.benchmark_group("local_search_500vms_100servers");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("optimised"), |b| {
        b.iter(|| {
            let refined = LocalSearch::new().refine(black_box(&base)).unwrap();
            black_box(refined.total_cost())
        })
    });
    // Metrics-on scale point: the same search with counters and
    // histograms recording (the metrics-only probe).
    group.bench_function(BenchmarkId::from_parameter("instrumented"), |b| {
        b.iter(|| {
            let metrics = MetricsRegistry::new();
            let (refined, _) = LocalSearch::new()
                .refine_traced(black_box(&base), &metrics)
                .unwrap();
            black_box(refined.total_cost())
        })
    });
    group.finish();

    // Refinement equivalence: the delta-scored search must walk the same
    // first-improvement trajectory as the reference (up to FP ties at
    // the acceptance threshold, which these instances do not exhibit).
    let (fast, fast_moves) = LocalSearch::new().refine_traced(&base, &NoopTracer).unwrap();
    let (slow, slow_moves) = LocalSearch::reference()
        .refine_traced(&base, &NoopTracer)
        .unwrap();
    let trajectory_equivalent = fast_moves.len() == slow_moves.len()
        && fast_moves
            .iter()
            .zip(&slow_moves)
            .all(|(a, b)| same_decision(a, b));
    let placements_identical = fast.placement() == slow.placement();
    let rel = (fast.total_cost() - slow.total_cost()).abs() / slow.total_cost();
    assert!(
        rel < 1e-6,
        "optimised and reference refinement costs diverged: rel diff {rel:e}"
    );
    let improvement = 1.0 - fast.total_cost() / base.total_cost();

    // One instrumented run: the move-scan counters that characterise
    // this instance, plus a decision-equivalence check.
    let search_metrics = MetricsRegistry::new();
    let (observed, observed_moves) = LocalSearch::new()
        .refine_traced(&base, &search_metrics)
        .unwrap();
    assert_eq!(
        observed.placement(),
        fast.placement(),
        "instrumentation changed local-search placements at scale"
    );
    assert_eq!(observed_moves.len(), fast_moves.len());
    let relocates_considered = search_metrics.counter("local_search.relocates_considered");
    let swaps_considered = search_metrics.counter("local_search.swaps_considered");
    let spec_class_pruned = search_metrics.counter("local_search.spec_class_pruned");
    let swap_fastpath_hits = search_metrics.counter("local_search.swap_fastpath_hits");

    // Optimised and reference timed interleaved: their ratio is what
    // the regression gate compares across runs.
    let pair = time_pair_best(
        6,
        || LocalSearch::new().refine(&base).unwrap().total_cost(),
        || LocalSearch::reference().refine(&base).unwrap().total_cost(),
    );
    let (optimised_s, reference_s) = (pair.best_f, pair.best_g);
    let instrumented_s = time_best(7, || {
        let metrics = MetricsRegistry::new();
        let (refined, _) = LocalSearch::new()
            .refine_traced(&base, &metrics)
            .unwrap();
        refined.total_cost()
    });
    let speedup = reference_s / optimised_s;
    let instrumentation_overhead = instrumented_s / optimised_s - 1.0;
    println!(
        "local search @ {VMS} VMs / {SERVERS} servers: optimised {optimised_s:.3} s, \
         instrumented {instrumented_s:.3} s ({:+.1}%), reference {reference_s:.3} s, \
         {speedup:.1}x ({} moves, {:.1}% saved)",
        instrumentation_overhead * 100.0,
        fast_moves.len(),
        improvement * 100.0
    );
    // 5% acceptance margin widened by the ratio noise this run observed
    // (per-round spread of optimised/reference).
    assert_no_regression(
        "local search optimised/reference ratio (no-op probe)",
        optimised_s / reference_s,
        committed_ratio,
        0.05 + pair.ratio_noise,
    );

    // Consolidation pass, same treatment.
    let fast_schedule = Consolidator::new(2.0).consolidate(&base).unwrap();
    let slow_schedule = Consolidator::reference(2.0).consolidate(&base).unwrap();
    let schedules_identical = (0..problem.vm_count()).all(|j| {
        fast_schedule.pieces_of(VmId(j as u32)) == slow_schedule.pieces_of(VmId(j as u32))
    });
    // Even when a tied greedy decision lets the schedules part, the two
    // passes must save essentially the same energy.
    let fast_cost = fast_schedule.audit().unwrap().total_cost;
    let slow_cost = slow_schedule.audit().unwrap().total_cost;
    let consolidation_rel = (fast_cost - slow_cost).abs() / slow_cost;
    assert!(
        consolidation_rel < 1e-6,
        "optimised and reference consolidation costs diverged: rel diff {consolidation_rel:e}"
    );
    let consolidation_pair = time_pair_best(
        11,
        || {
            Consolidator::new(2.0)
                .consolidate(&base)
                .unwrap()
                .audit()
                .unwrap()
                .total_cost
        },
        || {
            Consolidator::reference(2.0)
                .consolidate(&base)
                .unwrap()
                .audit()
                .unwrap()
                .total_cost
        },
    );
    let (consolidation_optimised_s, consolidation_reference_s) =
        (consolidation_pair.best_f, consolidation_pair.best_g);
    let consolidation_speedup = consolidation_reference_s / consolidation_optimised_s;
    println!(
        "consolidation @ {VMS} VMs / {SERVERS} servers: optimised {consolidation_optimised_s:.3} s, \
         reference {consolidation_reference_s:.3} s, {consolidation_speedup:.1}x"
    );
    assert_no_regression(
        "consolidation optimised/reference ratio (no-op probe)",
        consolidation_optimised_s / consolidation_reference_s,
        committed_consolidation_ratio,
        0.05 + consolidation_pair.ratio_noise,
    );

    // Instrumented consolidation run for the eviction counters.
    let consolidator_metrics = MetricsRegistry::new();
    Consolidator::new(2.0)
        .consolidate_traced(&base, &consolidator_metrics)
        .unwrap();
    let evictions_committed =
        consolidator_metrics.counter("consolidator.evictions_committed");
    let consolidator_migrations = consolidator_metrics.counter("consolidator.migrations");

    let json = format!(
        "{{\n  \"benchmark\": \"local_search_refinement\",\n  \"vms\": {VMS},\n  \"servers\": {SERVERS},\n  \"workload_seed\": 1,\n  \"mean_interarrival\": 4.0,\n  \"optimised_seconds\": {optimised_s:.6},\n  \"instrumented_seconds\": {instrumented_s:.6},\n  \"instrumentation_overhead\": {instrumentation_overhead:.4},\n  \"reference_seconds\": {reference_s:.6},\n  \"speedup\": {speedup:.2},\n  \"moves_accepted\": {moves},\n  \"relocates_considered\": {relocates_considered},\n  \"swaps_considered\": {swaps_considered},\n  \"spec_class_pruned\": {spec_class_pruned},\n  \"swap_fastpath_hits\": {swap_fastpath_hits},\n  \"refinement_improvement\": {improvement:.6},\n  \"trajectory_equivalent\": {trajectory_equivalent},\n  \"placements_identical\": {placements_identical},\n  \"consolidation_optimised_seconds\": {consolidation_optimised_s:.6},\n  \"consolidation_reference_seconds\": {consolidation_reference_s:.6},\n  \"consolidation_speedup\": {consolidation_speedup:.2},\n  \"consolidator_evictions_committed\": {evictions_committed},\n  \"consolidator_migrations\": {consolidator_migrations},\n  \"consolidation_schedules_identical\": {schedules_identical},\n  \"consolidation_cost_rel_diff\": {consolidation_rel:.3e}\n}}\n",
        moves = fast_moves.len(),
    );
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("could not write {path}: {e}");
    }
}

criterion_group!(benches, bench_local_search_at_scale);
criterion_main!(benches);
