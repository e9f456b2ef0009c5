//! Micro-benchmarks of every allocation algorithm on the paper's
//! flagship instance (100 VMs on 50 servers, all catalogs), plus a
//! production-scale MIEC point (2000 VMs on 500 servers) that records
//! the optimised-vs-reference speedup in `BENCH_miec.json` at the repo
//! root, together with sequential MIEC timings at 20k, 100k and 1M VMs
//! measured on every run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use esvm_bench::{assert_no_regression, committed_bench_field, time_best, time_pair_best};
use esvm_core::{Allocator, AllocatorKind, Miec};
use esvm_obs::{DiscardSink, MetricsRegistry, Telemetry};
use esvm_workload::WorkloadConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_allocators(c: &mut Criterion) {
    let problem = WorkloadConfig::new(100, 50)
        .mean_interarrival(4.0)
        .generate(42)
        .expect("instance");
    let mut group = c.benchmark_group("allocate_100vms_50servers");
    for kind in AllocatorKind::ALL {
        let allocator = kind.build();
        group.bench_function(BenchmarkId::from_parameter(kind.name()), |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(7);
                let a = allocator.allocate(black_box(&problem), &mut rng).unwrap();
                black_box(a.total_cost())
            })
        });
    }
    group.finish();
}

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("miec_scaling");
    group.sample_size(10);
    for vms in [100usize, 200, 400] {
        let problem = WorkloadConfig::new(vms, vms / 2)
            .mean_interarrival(4.0)
            .generate(1)
            .expect("instance");
        group.bench_function(BenchmarkId::from_parameter(vms), |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(7);
                let a = Miec::new().allocate(black_box(&problem), &mut rng).unwrap();
                black_box(a.total_cost())
            })
        });
    }
    group.finish();
}

/// Replays the reference trajectory up to the first VM the two runs place
/// differently and asserts that, at that common state, both candidate
/// servers offered the same score under *both* arithmetics — i.e. the
/// divergence is a genuine tie whose winner the reference picked by
/// rounding noise, not a scoring bug. (Later placements may then differ
/// legitimately: the trajectories have forked.)
fn certify_first_divergence_is_fp_tie(
    problem: &esvm_simcore::AllocationProblem,
    fast: &esvm_simcore::Assignment,
    slow: &esvm_simcore::Assignment,
) {
    let mut replay = esvm_simcore::Assignment::new(problem);
    for j in problem.vms_by_start_time() {
        let vm = &problem.vms()[j];
        let f = fast.placement()[vm.id().index()].expect("complete run");
        let s = slow.placement()[vm.id().index()].expect("complete run");
        if f != s {
            let delta_gap =
                (replay.ledger(f).incremental_cost(vm) - replay.ledger(s).incremental_cost(vm)).abs();
            let reference_gap = (replay.ledger(f).reference_incremental_cost(vm)
                - replay.ledger(s).reference_incremental_cost(vm))
            .abs();
            assert!(
                delta_gap < 1e-9 && reference_gap < 1e-9,
                "first divergence at {} is not an FP tie: delta gap {delta_gap:e}, \
                 reference gap {reference_gap:e}",
                vm.id()
            );
            println!(
                "placement divergence at {} certified as an FP tie \
                 (delta gap {delta_gap:.1e}, reference gap {reference_gap:.1e})",
                vm.id()
            );
            return;
        }
        replay.place(vm.id(), s).expect("replaying a valid assignment");
    }
}

/// Measures one scale point: generates the seed-1 instance and returns
/// the lower-envelope sequential MIEC seconds over `runs` rounds. With
/// `check_full_scan`, first asserts the indexed placement and cost are
/// bit-identical to the full-scan oracle (`without_pruning`), so the
/// recorded timing cannot come from a divergent run.
fn measure_scale_point(
    prefix: &str,
    vms: usize,
    servers: usize,
    runs: usize,
    check_full_scan: bool,
) -> f64 {
    let problem = WorkloadConfig::new(vms, servers)
        .mean_interarrival(4.0)
        .generate(1)
        .expect("instance");
    if check_full_scan {
        let mut rng = StdRng::seed_from_u64(7);
        let indexed = Miec::new().allocate(&problem, &mut rng).unwrap();
        let full = Miec::new().without_pruning().allocate(&problem, &mut rng).unwrap();
        assert_eq!(
            indexed.placement(),
            full.placement(),
            "indexed MIEC diverged from the full scan at {vms} VMs / {servers} servers"
        );
        assert_eq!(
            indexed.total_cost().to_bits(),
            full.total_cost().to_bits(),
            "indexed MIEC cost diverged at {vms} VMs / {servers} servers"
        );
    }
    let seq_s = time_best(runs, || {
        let mut rng = StdRng::seed_from_u64(7);
        Miec::new().allocate(&problem, &mut rng).unwrap().total_cost()
    });
    println!("{prefix}: {vms} VMs / {servers} servers, sequential {seq_s:.3} s");
    seq_s
}

/// Production-scale point: 2000 VMs on 500 servers. Times the optimised
/// MIEC (delta scoring + spec-class pruning) against the reference
/// implementation (full scan, clone-and-rescan scoring), checks
/// placement equivalence, and writes the measurements to
/// `BENCH_miec.json` at the repository root.
///
/// Equivalence is asserted in two layers, because they have different
/// strength guarantees:
///
/// * pruning is *exactly* placement-preserving (asleep servers of one
///   spec class score bit-identically), so pruned vs unpruned must match
///   byte for byte;
/// * delta scoring vs the clone-and-rescan reference agree except where
///   two servers offer the *same* marginal cost: the delta path computes
///   the tie exactly and takes the lowest id, while the reference's
///   difference-of-sums carries ~1e-13 rounding noise that can break the
///   tie either way. Any divergence is therefore certified to be such an
///   FP tie (both arithmetics agree the scores are equal within 1e-9).
fn bench_miec_at_scale(c: &mut Criterion) {
    const VMS: usize = 2000;
    const SERVERS: usize = 500;
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_miec.json");
    // Read the committed baseline before this run overwrites the record.
    // The gate compares the reference-normalized ratio, so machine-speed
    // drift between the recording and the checking run cancels out.
    let committed_ratio = committed_bench_field(path, "optimised_seconds")
        .zip(committed_bench_field(path, "reference_seconds"))
        .map(|(o, r)| o / r);
    let problem = WorkloadConfig::new(VMS, SERVERS)
        .mean_interarrival(4.0)
        .generate(1)
        .expect("instance");

    let mut group = c.benchmark_group("miec_2000vms_500servers");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("optimised"), |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(7);
            let a = Miec::new().allocate(black_box(&problem), &mut rng).unwrap();
            black_box(a.total_cost())
        })
    });
    // Metrics-on scale point: same scan with counters and histograms
    // recording (events discarded) — the cost of turning telemetry on.
    group.bench_function(BenchmarkId::from_parameter("instrumented"), |b| {
        b.iter(|| {
            let metrics = MetricsRegistry::new();
            let a = Miec::new()
                .allocate_traced(black_box(&problem), &metrics)
                .unwrap();
            black_box(a.total_cost())
        })
    });
    group.finish();

    let mut rng = StdRng::seed_from_u64(7);
    let fast = Miec::new().allocate(&problem, &mut rng).unwrap();
    let unpruned = Miec::new()
        .without_pruning()
        .allocate(&problem, &mut rng)
        .unwrap();
    assert_eq!(
        fast.placement(),
        unpruned.placement(),
        "spec-class pruning changed placements at scale"
    );
    let slow = Miec::reference().allocate(&problem, &mut rng).unwrap();
    let placements_identical = fast.placement() == slow.placement();
    if !placements_identical {
        certify_first_divergence_is_fp_tie(&problem, &fast, &slow);
        let rel = (fast.total_cost() - slow.total_cost()).abs() / slow.total_cost();
        assert!(
            rel < 1e-6,
            "optimised and reference total costs diverged: rel diff {rel:e}"
        );
    }

    // One instrumented run: the scan counters that characterise this
    // instance, plus a decision-equivalence check against the plain run.
    let metrics = MetricsRegistry::new();
    let observed = Miec::new().allocate_traced(&problem, &metrics).unwrap();
    assert_eq!(
        observed.placement(),
        fast.placement(),
        "instrumentation changed MIEC placements at scale"
    );
    let candidates_considered = metrics.counter("miec.candidates_considered");
    let spec_class_pruned = metrics.counter("miec.spec_class_pruned");
    let fp_ties = metrics.counter("miec.fp_ties");

    // Optimised and reference timed interleaved: their ratio is what
    // the regression gate compares across runs.
    let pair = time_pair_best(
        15,
        || {
            let mut rng = StdRng::seed_from_u64(7);
            Miec::new().allocate(&problem, &mut rng).unwrap().total_cost()
        },
        || {
            let mut rng = StdRng::seed_from_u64(7);
            Miec::reference()
                .allocate(&problem, &mut rng)
                .unwrap()
                .total_cost()
        },
    );
    let (optimised_s, reference_s) = (pair.best_f, pair.best_g);
    let instrumented_s = time_best(7, || {
        let metrics = MetricsRegistry::new();
        Miec::new()
            .allocate_traced(&problem, &metrics)
            .unwrap()
            .total_cost()
    });
    // Provenance tracing at the same point. The noop leg pairs the
    // `allocate_observed` shim with `allocate_traced` on the same
    // metrics-only probe (the shim must cost nothing). The enabled leg
    // pairs the metrics-only probe with the composite `Telemetry` probe
    // holding a CollectingTracer (a span per decision plus one explain
    // record per placement). Each ratio comes from an interleaved pair
    // against the instrumented baseline so scheduler drift cancels, and the
    // enabled run reuses one warm tracer (reset between runs) so the
    // gate measures steady-state recording, not first-run page-ins.
    // Wall-clock ratios on shared machines still see multi-10ms
    // interference bursts that outlast one whole pair block, so the
    // measurement retries up to three times and keeps the best pair —
    // a genuine regression is persistent and fails all three.
    // ESVM_REQUIRE_TRACE_OVERHEAD=1 gates both at ≤10%.
    let mut warm_tracer = esvm_obs::CollectingTracer::new();
    let mut noop_best = (1.0, f64::INFINITY);
    let mut trace_best = (1.0, f64::INFINITY);
    for _ in 0..3 {
        let noop_pair = time_pair_best(
            7,
            || {
                let metrics = MetricsRegistry::new();
                Miec::new()
                    .allocate_observed(&problem, &mut DiscardSink, &metrics)
                    .unwrap()
                    .total_cost()
            },
            || {
                let metrics = MetricsRegistry::new();
                Miec::new()
                    .allocate_traced(&problem, &metrics)
                    .unwrap()
                    .total_cost()
            },
        );
        if noop_pair.best_g / noop_pair.best_f < noop_best.1 / noop_best.0 {
            noop_best = (noop_pair.best_f, noop_pair.best_g);
        }
        let trace_pair = time_pair_best(
            7,
            || {
                let metrics = MetricsRegistry::new();
                Miec::new()
                    .allocate_traced(&problem, &metrics)
                    .unwrap()
                    .total_cost()
            },
            || {
                let metrics = MetricsRegistry::new();
                warm_tracer.reset();
                let probe =
                    Telemetry { metrics: &metrics, events: None, tracer: Some(&warm_tracer) };
                Miec::new()
                    .allocate_traced(&problem, &probe)
                    .unwrap()
                    .total_cost()
            },
        );
        if trace_pair.best_g / trace_pair.best_f < trace_best.1 / trace_best.0 {
            trace_best = (trace_pair.best_f, trace_pair.best_g);
        }
        if noop_best.1 / noop_best.0 - 1.0 <= 0.10 && trace_best.1 / trace_best.0 - 1.0 <= 0.10
        {
            break;
        }
    }
    let (trace_noop_s, trace_enabled_s) = (noop_best.1, trace_best.1);
    let trace_noop_overhead = trace_noop_s / noop_best.0 - 1.0;
    let trace_overhead = trace_enabled_s / trace_best.0 - 1.0;
    println!(
        "miec tracing @ {VMS} VMs: noop tracer {trace_noop_s:.4} s ({:+.1}%), \
         collecting tracer {trace_enabled_s:.4} s ({:+.1}%) vs instrumented",
        trace_noop_overhead * 100.0,
        trace_overhead * 100.0
    );
    if std::env::var("ESVM_REQUIRE_TRACE_OVERHEAD").as_deref() == Ok("1") {
        assert!(
            trace_noop_overhead <= 0.10,
            "NoopTracer path exceeded 10% overhead: {:+.1}%",
            trace_noop_overhead * 100.0
        );
        assert!(
            trace_overhead <= 0.10,
            "enabled tracing exceeded 10% overhead: {:+.1}%",
            trace_overhead * 100.0
        );
    }
    let host_parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let unpruned_s = time_best(3, || {
        let mut rng = StdRng::seed_from_u64(7);
        Miec::new()
            .without_pruning()
            .allocate(&problem, &mut rng)
            .unwrap()
            .total_cost()
    });
    println!("miec full scan (without pruning): {unpruned_s:.3} s");

    // --- Scale points, sequential, measured on every run ---
    //
    // The 20k point is also checked against the full-scan oracle; the
    // two large points are too big for that (1M VMs × 100k servers is
    // 10^11 visits) and rest on the differential suites instead.
    let mut scale_json = String::new();
    for (prefix, vms, servers, runs, check) in [
        ("scale_20k", 20_000, 2_000, 3, true),
        ("scale_100k", 100_000, 10_000, 2, false),
        ("scale_1m", 1_000_000, 100_000, 1, false),
    ] {
        let seconds = measure_scale_point(prefix, vms, servers, runs, check);
        scale_json.push_str(&format!(
            ",\n  \"{prefix}_vms\": {vms},\n  \"{prefix}_servers\": {servers},\n  \
             \"{prefix}_sequential_seconds\": {seconds:.6}"
        ));
    }

    let speedup = reference_s / optimised_s;
    let instrumentation_overhead = instrumented_s / optimised_s - 1.0;
    println!(
        "miec @ {VMS} VMs / {SERVERS} servers: optimised {optimised_s:.3} s, \
         instrumented {instrumented_s:.3} s ({:+.1}%), reference {reference_s:.3} s, \
         {speedup:.1}x",
        instrumentation_overhead * 100.0
    );
    // Gate at the 5% acceptance margin widened by the ratio noise this
    // very run observed (per-round spread of optimised/reference): the
    // disabled-probe path must stay within noise of the committed number.
    println!(
        "miec ratio noise this run: {:.1}%",
        pair.ratio_noise * 100.0
    );
    assert_no_regression(
        "miec optimised/reference ratio (no-op probe)",
        optimised_s / reference_s,
        committed_ratio,
        0.05 + pair.ratio_noise,
    );

    let json = format!(
        "{{\n  \"benchmark\": \"miec_allocation\",\n  \"vms\": {VMS},\n  \"servers\": {SERVERS},\n  \"workload_seed\": 1,\n  \"mean_interarrival\": 4.0,\n  \"optimised_seconds\": {optimised_s:.6},\n  \"instrumented_seconds\": {instrumented_s:.6},\n  \"instrumentation_overhead\": {instrumentation_overhead:.4},\n  \"trace_noop_seconds\": {trace_noop_s:.6},\n  \"trace_noop_overhead\": {trace_noop_overhead:.4},\n  \"trace_seconds\": {trace_enabled_s:.6},\n  \"trace_overhead\": {trace_overhead:.4},\n  \"reference_seconds\": {reference_s:.6},\n  \"speedup\": {speedup:.2},\n  \"host_parallelism\": {host_parallelism},\n  \"unpruned_seconds\": {unpruned_s:.6},\n  \"candidates_considered\": {candidates_considered},\n  \"spec_class_pruned\": {spec_class_pruned},\n  \"fp_ties\": {fp_ties},\n  \"pruning_placement_exact\": true,\n  \"placements_identical\": {placements_identical},\n  \"divergences_certified_fp_ties\": true{scale_json}\n}}\n",
    );
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("could not write {path}: {e}");
    }
}

criterion_group!(benches, bench_allocators, bench_scaling, bench_miec_at_scale);
criterion_main!(benches);
