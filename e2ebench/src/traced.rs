//! The traced run (`--trace 1`): each layer's public functions called
//! in process inside in-memory spans, on the inputs of the workload the
//! prediction table in README.md ties the layer to. All four workload
//! pipelines run whatever `--workload` names, so every run reports every
//! per-layer metric. Each pipeline's
//! root span gives `trace.unattributed_share.<workload>`: the share of
//! its time that no layer span covers.

use std::cell::Cell;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use esvm_core::{AllocatorKind, Miec, OnlineEngine};
use esvm_exper::journal::{recover_file, JournalRecord, JournalWriter};
use esvm_exper::serve::{parse_request, ServeConfig, ServeSession};
use esvm_exper::{experiments, ExpOptions, Figure, RunError};
use esvm_obs::names::serve as names;
use esvm_obs::{DiscardSink, ExplainRecord, MetricsRegistry, NoopTracer, SpanId, Tracer};
use esvm_par::{par_map, Parallelism};
use esvm_simcore::ServerId;
use esvm_workload::WorkloadConfig;

use crate::inputs::{serve_fleet, serve_input, Line, ServeInput};
use crate::spans::Spans;
use crate::{allocations, check, figures, offline, serve, stats, Ctx, Report, Workload, RUN_DIR};

/// The traced run.
pub fn run(ctx: &Ctx) -> Report {
    let mut r = Report::default();
    let mut spans = Spans::new();
    let mut roots = Vec::new();
    for w in Workload::ALL {
        let root = spans.enter(root_name(w), None);
        let result = match w {
            Workload::PaperFigures => figure_layers(ctx, &mut spans, &mut r),
            Workload::Offline100k => offline_layers(ctx, &mut spans, &mut r),
            Workload::ServePipeHeavy => pipe_layers(ctx, &mut spans, &mut r),
            Workload::ServeSocketDurable => socket_layers(ctx, &mut spans, &mut r),
        };
        spans.exit(root);
        if r.check(result).is_none() {
            return r;
        }
        roots.push((w, root));
    }
    for (w, root) in roots {
        r.metric(
            format!("trace.unattributed_share.{}", w.name()),
            spans.unattributed_share(root),
            "ratio",
        );
    }

    println!(
        "  {:<34} {:>9} {:>12} {:>12}",
        "layer", "spans", "total_ms", "self_ms"
    );
    for (name, t) in spans.totals() {
        println!(
            "  {name:<34} {:>9} {:>12.3} {:>12.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    let path = Path::new(RUN_DIR).join("spans.jsonl");
    r.check(
        std::fs::write(&path, spans.to_jsonl())
            .map_err(|e| format!("cannot write {}: {e}", path.display())),
    );
    println!("  spans written to {}", path.display());
    r
}

fn root_name(w: Workload) -> &'static str {
    match w {
        Workload::PaperFigures => "workload.paper-figures",
        Workload::Offline100k => "workload.offline-100k",
        Workload::ServePipeHeavy => "workload.serve-pipe-heavy",
        Workload::ServeSocketDurable => "workload.serve-socket-durable",
    }
}

type FigureFn = fn(&ExpOptions) -> Result<Figure, RunError>;

const FIGURES: [(&str, &str, FigureFn); 8] = [
    (
        "exper.figure.fig2",
        "exper.figure.fig2_s",
        experiments::fig2,
    ),
    (
        "exper.figure.fig3",
        "exper.figure.fig3_s",
        experiments::fig3,
    ),
    (
        "exper.figure.fig4",
        "exper.figure.fig4_s",
        experiments::fig4,
    ),
    (
        "exper.figure.fig5",
        "exper.figure.fig5_s",
        experiments::fig5,
    ),
    (
        "exper.figure.fig6",
        "exper.figure.fig6_s",
        experiments::fig6,
    ),
    (
        "exper.figure.fig7",
        "exper.figure.fig7_s",
        experiments::fig7,
    ),
    (
        "exper.figure.fig8",
        "exper.figure.fig8_s",
        experiments::fig8,
    ),
    (
        "exper.figure.fig9",
        "exper.figure.fig9_s",
        experiments::fig9,
    ),
];

/// `paper-figures` layers: each figure single-threaded, then the seed
/// fan-out of fig. 2's largest point on the benchmark's thread count.
fn figure_layers(ctx: &Ctx, spans: &mut Spans, r: &mut Report) -> Result<(), String> {
    let opts = ExpOptions {
        seeds: 50,
        threads: 1,
        quick: false,
    };
    for (span, metric, figure) in FIGURES {
        let (out, secs) = spans.scope(span, |_| figure(&opts));
        out.map_err(|e| format!("{span} failed: {e}"))?;
        r.metric(metric, secs, "s");
    }

    let threads = figures::threads(ctx);
    let config = WorkloadConfig::new(500, 250)
        .mean_interarrival(4.0)
        .mean_duration(5.0)
        .transition_time(1.0);
    let seeds: Vec<u64> = (0..50).collect();
    let fanout = spans.enter("par.fanout", None);
    let items = par_map(Parallelism::new(threads), &seeds, |_, &seed| {
        let t0 = Instant::now();
        let ok = [AllocatorKind::Miec, AllocatorKind::Ffps]
            .into_iter()
            .all(|kind| esvm_exper::runner::run_once(&config, kind, seed).is_ok());
        (std::thread::current().id(), t0, Instant::now(), ok)
    });
    let mut busy: HashMap<std::thread::ThreadId, f64> = HashMap::new();
    for (seed, (thread, t0, t1, ok)) in items.into_iter().enumerate() {
        if !ok {
            return Err(format!("seed {seed} of the fan-out point failed"));
        }
        spans.record("par.seed", Some(seed as u64), t0, t1);
        *busy.entry(thread).or_default() += (t1 - t0).as_secs_f64();
    }
    spans.exit(fanout);
    // Threads that got no seed count as idle.
    let loads: Vec<f64> = busy
        .into_values()
        .chain(std::iter::repeat(0.0))
        .take(threads)
        .collect();
    let max = loads.iter().copied().fold(0.0, f64::max);
    r.metric("par.imbalance", max / stats::mean(&loads) - 1.0, "ratio");
    Ok(())
}

/// `offline-100k` layers: generate, read back, MIEC, FFPS, audit.
fn offline_layers(ctx: &Ctx, spans: &mut Spans, r: &mut Report) -> Result<(), String> {
    let path = ctx.dir.join("traced.esvt");
    let (out, secs) = spans.scope("workload.generate", |_| {
        offline::write_trace(ctx.seed, &path)
    });
    out?;
    r.metric("workload.generate_s", secs, "s");
    let (problem, secs) = spans.scope("workload.esvt_read", |_| {
        esvm_workload::esvt::read_esvt_file(&path)
    });
    let problem = problem.map_err(|e| format!("trace does not load: {e}"))?;
    r.metric("workload.esvt_read_s", secs, "s");

    let metrics = MetricsRegistry::new();
    let (miec, secs) = spans.scope("core.miec.allocate", |_| {
        Miec::new().allocate_observed(&problem, &mut DiscardSink, &metrics)
    });
    let miec = miec.map_err(|e| format!("MIEC failed: {e}"))?;
    r.metric("core.miec.allocate_s", secs, "s");
    let candidates = metrics.counter("miec.candidates_considered");
    let visits = candidates
        + metrics.counter("miec.spec_class_pruned")
        + metrics.counter("miec.unfit_skipped");
    r.metric("core.miec.server_visits", visits as f64, "count");
    r.metric("core.miec.candidates", candidates as f64, "count");

    let (ffps, secs) = spans.scope("core.ffps.allocate", |_| {
        offline::allocate(&problem, AllocatorKind::Ffps)
    });
    let ffps = ffps?;
    r.metric("core.ffps.allocate_s", secs, "s");
    let (audits, secs) = spans.scope("simcore.audit", |_| (miec.audit(), ffps.audit()));
    r.metric("simcore.audit_s", secs, "s");
    match audits {
        (Ok(m), Ok(f)) if m.total_cost < f.total_cost => Ok(()),
        (Ok(m), Ok(f)) => Err(format!(
            "MIEC energy {} is not below FFPS {}",
            m.total_cost, f.total_cost
        )),
        (m, f) => Err(format!("audit failed: {:?} / {:?}", m.err(), f.err())),
    }
}

/// Sums the explain records' candidate counts: how many servers each
/// online decision scored.
#[derive(Default)]
struct CandidateCount {
    candidates: Cell<u64>,
    decisions: Cell<u64>,
}

impl Tracer for CandidateCount {
    fn enter(&self, _name: &'static str) -> SpanId {
        SpanId::NONE
    }

    fn exit(&self, _id: SpanId) {}

    fn explain(&self, record: &ExplainRecord) {
        self.candidates
            .set(self.candidates.get() + record.candidates);
        self.decisions.set(self.decisions.get() + 1);
    }
}

/// `serve-pipe-heavy` layers: parse, `ServeSession::handle` (with its
/// allocations counted), the bare `OnlineEngine::arrive`, the
/// candidates each decision scores, and a metrics-registry update.
fn pipe_layers(ctx: &Ctx, spans: &mut Spans, r: &mut Report) -> Result<(), String> {
    let (input, _) = spans.scope("inputs.generate", |_| serve_input(&serve::PIPE, ctx.seed));
    let input = input?;
    let fleet = serve_fleet(ctx.seed)?;
    let n = input.wire.len();
    let reqs = (0..n).filter(|&i| input.is_req(i)).count();
    r.attempted += n as u64;

    let (_, secs) = spans.scope("exper.serve.parse", |_| {
        for line in &input.wire {
            let _ = black_box(parse_request(black_box(line)));
        }
    });
    r.metric("exper.serve.parse_ns", secs * 1e9 / n as f64, "ns");

    let metrics = MetricsRegistry::new();
    let mut session = ServeSession::new(&fleet, &metrics, &NoopTracer);
    let mut replies = Vec::with_capacity(n);
    let (mut handle_us, mut allocs) = (Vec::with_capacity(reqs), 0u64);
    spans.reserve(2 * n + 8);
    let outer = spans.enter("exper.serve.session", None);
    for (i, line) in input.wire.iter().enumerate() {
        let id = spans.enter("exper.serve.handle", Some(i as u64));
        let before = allocations();
        let reply = session.handle(line);
        let after = allocations();
        let ns = spans.exit(id);
        if input.is_req(i) {
            handle_us.push(ns as f64 / 1e3);
            allocs += after - before;
        }
        replies.push(reply.unwrap_or_default());
    }
    spans.exit(outer);
    r.metric("exper.serve.handle_us", stats::median(&handle_us), "us");
    r.metric(
        "exper.serve.allocs_per_req",
        allocs as f64 / reqs as f64,
        "count",
    );

    let mut engine = OnlineEngine::new(&fleet);
    let mut arrive_us = Vec::with_capacity(reqs);
    let outer = spans.enter("core.online.replay", None);
    for (i, line) in input.lines.iter().enumerate() {
        if let Line::Req(vm) = line {
            let id = spans.enter("core.online.arrive", Some(i as u64));
            let decision = engine.arrive(*vm);
            arrive_us.push(spans.exit(id) as f64 / 1e3);
            decision.map_err(|e| format!("engine refused VM {}: {e}", vm.id().0))?;
        }
    }
    spans.exit(outer);
    r.metric("core.online.arrive_us.p50", stats::median(&arrive_us), "us");
    r.metric(
        "core.online.arrive_us.p99",
        stats::percentile(&arrive_us, 99.0),
        "us",
    );
    let served = check::replies(&input.lines, &replies, input.problem.vm_count())?;
    check::same_placement(
        &input.problem,
        &served,
        &engine.placement(input.problem.vm_count()),
    )?;

    let counter = CandidateCount::default();
    spans.scope("core.online.explain", |_| {
        let mut engine = OnlineEngine::new(&fleet);
        for line in &input.lines {
            if let Line::Req(vm) = line {
                let _ = engine.arrive_traced(*vm, &counter);
            }
        }
    });
    r.metric(
        "core.online.candidates_per_decision",
        counter.candidates.get() as f64 / counter.decisions.get().max(1) as f64,
        "count",
    );

    let registry = MetricsRegistry::new();
    let (_, secs) = spans.scope("obs.metrics.update", |_| {
        for i in 0..reqs {
            registry.add(names::REQUESTS, 1);
            registry.observe(names::DECISION_US, (i % 64) as f64);
            registry.add(names::PLACED, 1);
        }
    });
    r.metric(
        "obs.metrics.update_ns",
        secs * 1e9 / (3 * reqs) as f64,
        "ns",
    );
    Ok(())
}

/// `serve-socket-durable` layers: the client over the socket, the same
/// lines through a journaled in-process session, journal appends and
/// syncs, the bare engine's repair path, and journal recovery.
fn socket_layers(ctx: &Ctx, spans: &mut Spans, r: &mut Report) -> Result<(), String> {
    let (input, _) = spans.scope("inputs.generate", |_| serve_input(&serve::SOCKET, ctx.seed));
    let input = input?;
    let fleet = serve_fleet(ctx.seed)?;
    let n = input.wire.len();
    let is_req: Vec<bool> = (0..n).map(|i| input.is_req(i)).collect();
    r.attempted += n as u64;
    spans.reserve(3 * n + 8);

    let outer = spans.enter("io.session", None);
    let client = serve::socket_session(ctx, &input, 0);
    if let Ok(client) = &client {
        for i in 0..n {
            spans.record(
                "io.request",
                Some(i as u64),
                client.sent[i],
                client.received[i],
            );
        }
    }
    spans.exit(outer);
    let client = client?;
    let client_p50 = stats::median(&client.req_latencies_us(&input));

    let journal = ctx.dir.join("traced.esvj");
    let metrics = MetricsRegistry::new();
    let mut session = ServeSession::new(&fleet, &metrics, &NoopTracer);
    let writer =
        JournalWriter::create(&journal, &fleet, 4096).map_err(|e| format!("journal: {e}"))?;
    session.set_journal(Some(writer));
    let mut replies = Vec::with_capacity(n);
    let mut handle_us = Vec::new();
    let outer = spans.enter("exper.serve.session", None);
    for (i, line) in input.wire.iter().enumerate() {
        let id = spans.enter("exper.serve.handle", Some(i as u64));
        let reply = session.handle(line);
        let ns = spans.exit(id);
        if is_req[i] {
            handle_us.push(ns as f64 / 1e3);
        }
        replies.push(reply.unwrap_or_default());
    }
    let finished = session.finish();
    spans.exit(outer);
    finished.map_err(|e| format!("journal checkpoint: {e}"))?;
    check::same_replies(&client.replies, &replies)?;
    r.metric(
        "io.transport_us",
        client_p50 - stats::median(&handle_us),
        "us",
    );
    r.metric(
        "exper.journal.appends",
        metrics.counter(names::JOURNAL_APPENDS) as f64,
        "count",
    );
    r.metric(
        "exper.journal.fsyncs",
        metrics.counter(names::JOURNAL_FSYNCS) as f64,
        "count",
    );
    let bytes = std::fs::metadata(&journal)
        .map_err(|e| format!("journal: {e}"))?
        .len();
    r.metric("exper.journal.bytes", bytes as f64, "bytes");

    journal_appends(ctx, &input.lines, &fleet, spans, r)?;

    let (evicted, repaired, shed) = repairs(&input, &replies, spans, r)?;
    r.metric("core.online.evicted", evicted as f64, "count");
    r.metric("core.online.repaired", repaired as f64, "count");
    r.metric("core.online.shed", shed as f64, "count");

    let recovered_metrics = MetricsRegistry::new();
    let (recovered, secs) = spans.scope("exper.journal.recover", |_| {
        let rec = recover_file(&journal).map_err(|e| format!("recover: {e}"))?;
        let mut restored = ServeSession::new(&rec.servers, &recovered_metrics, &NoopTracer);
        restored
            .replay(&rec.records)
            .map_err(|e| format!("replay: {e}"))?;
        Ok::<_, String>(restored.stats_line())
    });
    r.metric("exper.journal.recover_s", secs, "s");
    let recovered = recovered?;
    let live = session.stats_line();
    if check::stats_counters(&recovered) != check::stats_counters(&live) {
        return Err(format!("recovered {recovered:?}, live session {live:?}"));
    }
    Ok(())
}

/// Times `JournalWriter::append` for the records a serve session
/// journals for these lines, with `esvm serve`'s default group commit;
/// an append that crossed a group-commit boundary counts as a sync.
fn journal_appends(
    ctx: &Ctx,
    lines: &[Line],
    fleet: &[esvm_simcore::ServerSpec],
    spans: &mut Spans,
    r: &mut Report,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("journal: {e}");
    let config = ServeConfig::default();
    let mut writer =
        JournalWriter::create(ctx.dir.join("traced-appends.esvj"), fleet, 4096).map_err(io)?;
    let (mut append_ns, mut sync_ns) = (Vec::new(), Vec::new());
    let outer = spans.enter("exper.journal.write", None);
    for (i, line) in lines.iter().enumerate() {
        let record = match *line {
            Line::Req(vm) => JournalRecord::Req(vm),
            Line::Down(s) => JournalRecord::Down {
                server: ServerId(s),
                retries: config.max_retries,
                backoff: config.backoff,
            },
            Line::Up(s) => JournalRecord::Up(ServerId(s)),
            Line::Stats => continue,
        };
        let syncs = writer.fsyncs();
        let id = spans.enter("exper.journal.append", Some(i as u64));
        let appended = writer.append(&record);
        let ns = spans.exit(id) as f64;
        appended.map_err(io)?;
        if writer.fsyncs() == syncs {
            append_ns.push(ns);
        } else {
            sync_ns.push(ns);
        }
    }
    let id = spans.enter("exper.journal.sync", None);
    let synced = writer.sync();
    sync_ns.push(spans.exit(id) as f64);
    spans.exit(outer);
    synced.map_err(io)?;
    r.metric("exper.journal.append_ns", stats::mean(&append_ns), "ns");
    r.metric("exper.journal.sync_ms", stats::mean(&sync_ns) / 1e6, "ms");
    Ok(())
}

/// Replays the lines through the bare-engine oracle, timing each
/// evicted VM's bounded-backoff repair; its replies must equal the
/// serve session's. Returns (evicted, repaired, shed).
fn repairs(
    input: &ServeInput,
    session_replies: &[String],
    spans: &mut Spans,
    r: &mut Report,
) -> Result<(u64, u64, u64), String> {
    let mut repair_us = Vec::new();
    let outer = spans.enter("core.online.faults", None);
    let replayed = serve::engine_replies(input, |engine, vm| {
        let id = spans.enter("core.online.repair", Some(u64::from(vm.id().0)));
        let outcome = serve::default_repair(engine, vm);
        repair_us.push(spans.exit(id) as f64 / 1e3);
        outcome
    });
    spans.exit(outer);
    let (replies, engine) = replayed?;
    check::same_replies(session_replies, &replies)?;
    if repair_us.is_empty() {
        return Err("the fault lines evict no VM, so no repair was timed".into());
    }
    r.metric("core.online.repair_us", stats::mean(&repair_us), "us");
    let st = engine.stats();
    Ok((st.evicted, st.repaired, st.evicted - st.repaired))
}
