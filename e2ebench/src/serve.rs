//! The serve workloads: `esvm serve` driven by a closed-loop client
//! over a pipe or a Unix socket, with the replies checked against the
//! same lines fed to the engine in process.
//!
//! * `serve-pipe-heavy`: stdin/stdout, 16 requests outstanding, heavy
//!   load (mean interarrival 0.01, ~500 live VMs), no journal. The
//!   online argmin dominates; protocol and I/O are the smaller share.
//! * `serve-socket-durable`: `--socket` with `--journal`, one request
//!   outstanding (an interactive caller), light load (mean interarrival
//!   0.05, ~100 live VMs), seeded `DOWN`/`UP` faults aimed at servers
//!   that host VMs, and periodic `STATS`. Transport, reply writes and
//!   journal appends dominate; every seed also evicts and repairs VMs.
//!   Afterwards a `--recover` restart reads the journal back.

use std::io::{self, BufRead, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use esvm_core::{AllocatorKind, OnlineDecision, OnlineEngine, RepairOutcome};
use esvm_exper::journal::{recover_file, Checkpoint, JournalRecord};
use esvm_exper::serve::{ServeConfig, ServeSession};
use esvm_obs::{MetricsRegistry, NoopTracer};
use esvm_simcore::{AllocationProblem, ServerId, Vm};

use crate::inputs::{serve_fleet, serve_input, Line, ServeInput, ServeShape, FLEET};
use crate::proc::Exited;
use crate::{check, offline, stats, Ctx, Report};

/// `serve-pipe-heavy` input shape.
pub const PIPE: ServeShape = ServeShape {
    requests: 100_000,
    interarrival: 0.01,
    fault_rate: 0.0,
    stats_every: 0,
};
/// Requests the pipe client keeps outstanding.
const PIPE_WINDOW: usize = 16;

/// `serve-socket-durable` input shape.
pub const SOCKET: ServeShape = ServeShape {
    requests: 30_000,
    interarrival: 0.05,
    fault_rate: 0.05,
    stats_every: 1_000,
};

/// Sessions per run, at least. `req_p99_us` is taken over exactly
/// these first sessions, so faster code does not get more tries at a
/// low tail.
const MIN_SESSIONS: usize = 8;
/// Extra cold starts per run for the pipe workload's set-up time,
/// timed like a session's start.
const COLD_STARTS: usize = 31;
/// How long a spawned server may take to bind its socket.
const BIND_TIMEOUT: Duration = Duration::from_secs(20);

/// What one client session observed.
pub struct Session {
    /// Spawn to the first `STATS` reply.
    pub setup: Duration,
    /// One reply per input line.
    pub replies: Vec<String>,
    /// When each line was sent.
    pub sent: Vec<Instant>,
    /// When each reply arrived.
    pub received: Vec<Instant>,
    /// Counters of the last `STATS` after a `--recover` restart, and
    /// spawn-to-reply time of that restart (socket sessions only).
    pub recovered: Option<(String, Duration)>,
    /// The last checkpoint of the server's journal (socket sessions
    /// only): its committed Eq. 7 cost and counters at shutdown.
    pub checkpoint: Option<Checkpoint>,
    /// The server's peak resident set (KiB) after the last reply.
    pub peak_rss_kib: u64,
    /// The reaped server.
    pub exited: Exited,
}

impl Session {
    /// Client-observed latency of each `REQ` line, in microseconds.
    pub fn req_latencies_us(&self, input: &ServeInput) -> Vec<f64> {
        (0..self.replies.len())
            .filter(|&i| input.is_req(i))
            .map(|i| (self.received[i] - self.sent[i]).as_secs_f64() * 1e6)
            .collect()
    }

    /// `REQ` lines per second of the session, first send to last reply.
    pub fn req_rate(&self, input: &ServeInput) -> f64 {
        let reqs = input
            .lines
            .iter()
            .filter(|l| matches!(l, Line::Req(_)))
            .count();
        let span = *self.received.last().expect("sessions send lines") - self.sent[0];
        reqs as f64 / span.as_secs_f64()
    }
}

/// Sends `wire` keeping up to `window` lines unanswered and reads one
/// reply per line.
fn drive<W: Write, R: BufRead>(
    writer: &mut W,
    reader: &mut R,
    wire: &[String],
    window: usize,
) -> io::Result<(Vec<String>, Vec<Instant>, Vec<Instant>)> {
    let n = wire.len();
    let mut replies = Vec::with_capacity(n);
    let mut sent = Vec::with_capacity(n);
    let mut received = Vec::with_capacity(n);
    let mut buf = Vec::with_capacity(64);
    let mut send = |writer: &mut W, sent: &mut Vec<Instant>, i: usize| -> io::Result<()> {
        buf.clear();
        buf.extend_from_slice(wire[i].as_bytes());
        buf.push(b'\n');
        sent.push(Instant::now());
        writer.write_all(&buf)
    };
    while sent.len() < n.min(window) {
        let i = sent.len();
        send(writer, &mut sent, i)?;
    }
    let mut line = String::new();
    while replies.len() < n {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("server closed after {} of {n} replies", replies.len()),
            ));
        }
        received.push(Instant::now());
        replies.push(line.trim_end_matches('\n').to_owned());
        if sent.len() < n {
            let i = sent.len();
            send(writer, &mut sent, i)?;
        }
    }
    Ok((replies, sent, received))
}

/// Sends `STATS` and returns the reply.
fn stats_probe<W: Write, R: BufRead>(writer: &mut W, reader: &mut R) -> io::Result<String> {
    writer.write_all(b"STATS\n")?;
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "no STATS reply",
        ));
    }
    Ok(line.trim_end_matches('\n').to_owned())
}

fn fresh_stats(reply: &str) -> Result<(), String> {
    if reply.starts_with("STATS requests=0 ") {
        Ok(())
    } else {
        Err(format!("fresh server answered STATS with {reply:?}"))
    }
}

fn summary_printed(exited: &Exited) -> Result<(), String> {
    exited.check("esvm serve")?;
    if exited.stdout.contains("online serving session") {
        Ok(())
    } else {
        Err("esvm serve printed no session summary".into())
    }
}

fn io_err(what: &str) -> impl Fn(io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// One `esvm serve` session over stdin/stdout.
fn pipe_session(ctx: &Ctx, input: &ServeInput, window: usize) -> Result<Session, String> {
    let (fleet, seed) = (FLEET.to_string(), ctx.seed.to_string());
    let mut running = ctx
        .esvm
        .spawn(
            &["serve", "--servers", &fleet, "--seed", &seed],
            &ctx.dir,
            true,
        )
        .map_err(io_err("spawn esvm serve"))?;
    let mut stdin = running.stdin.take().expect("stdin is piped");
    let first = stats_probe(&mut stdin, &mut running.stdout).map_err(io_err("pipe"))?;
    let setup = running.spawned.elapsed();
    fresh_stats(&first)?;
    let (replies, sent, received) =
        drive(&mut stdin, &mut running.stdout, &input.wire, window).map_err(io_err("pipe"))?;
    let peak_rss_kib = running.peak_rss_kib().map_err(io_err("esvm serve"))?;
    drop(stdin);
    let exited = running.finish().map_err(io_err("esvm serve"))?;
    summary_printed(&exited)?;
    Ok(Session {
        setup,
        replies,
        sent,
        received,
        recovered: None,
        checkpoint: None,
        peak_rss_kib,
        exited,
    })
}

/// Spawn-to-first-`STATS`-reply times of `n` fresh `esvm serve`
/// processes on the pipe, each closed right after.
fn cold_starts(ctx: &Ctx, r: &mut Report, n: usize) -> Vec<f64> {
    let (fleet, seed) = (FLEET.to_string(), ctx.seed.to_string());
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let start = || -> Result<f64, String> {
            let mut running = ctx
                .esvm
                .spawn(
                    &["serve", "--servers", &fleet, "--seed", &seed],
                    &ctx.dir,
                    true,
                )
                .map_err(io_err("spawn esvm serve"))?;
            let mut stdin = running.stdin.take().expect("stdin is piped");
            let first = stats_probe(&mut stdin, &mut running.stdout).map_err(io_err("pipe"))?;
            let setup = running.spawned.elapsed().as_secs_f64();
            fresh_stats(&first)?;
            drop(stdin);
            summary_printed(&running.finish().map_err(io_err("esvm serve"))?)?;
            Ok(setup)
        };
        if let Some(setup) = r.check(start()) {
            out.push(setup);
        }
    }
    out
}

/// Connects to the socket a just-spawned server is about to bind.
fn connect(path: &std::path::Path, spawned: Instant) -> Result<UnixStream, String> {
    loop {
        match UnixStream::connect(path) {
            Ok(stream) => return Ok(stream),
            Err(e) if spawned.elapsed() > BIND_TIMEOUT => {
                return Err(format!("cannot connect to {}: {e}", path.display()))
            }
            Err(_) => std::thread::sleep(Duration::from_micros(50)),
        }
    }
}

/// One `esvm serve --socket --journal` session, then a `--recover`
/// restart on its journal. `tag` keeps the run's file names apart.
pub fn socket_session(ctx: &Ctx, input: &ServeInput, tag: usize) -> Result<Session, String> {
    let (fleet, seed) = (FLEET.to_string(), ctx.seed.to_string());
    let (sock, journal) = (format!("s{tag}.sock"), format!("j{tag}.esvj"));
    let running = ctx
        .esvm
        .spawn(
            &[
                "serve",
                "--servers",
                &fleet,
                "--seed",
                &seed,
                "--socket",
                &sock,
                "--journal",
                &journal,
            ],
            &ctx.dir,
            false,
        )
        .map_err(io_err("spawn esvm serve"))?;
    let stream = connect(&ctx.dir.join(&sock), running.spawned)?;
    let mut writer = stream.try_clone().map_err(io_err("socket"))?;
    let mut reader = io::BufReader::new(stream);
    let first = stats_probe(&mut writer, &mut reader).map_err(io_err("socket"))?;
    let setup = running.spawned.elapsed();
    fresh_stats(&first)?;
    let (replies, sent, received) =
        drive(&mut writer, &mut reader, &input.wire, 1).map_err(io_err("socket"))?;
    let peak_rss_kib = running.peak_rss_kib().map_err(io_err("esvm serve"))?;
    writer.shutdown(Shutdown::Write).map_err(io_err("socket"))?;
    let mut rest = String::new();
    io::Read::read_to_string(&mut reader, &mut rest).map_err(io_err("socket"))?;
    if !rest.is_empty() {
        return Err(format!("unexpected replies after the last line: {rest:?}"));
    }
    let exited = running.finish().map_err(io_err("esvm serve"))?;
    summary_printed(&exited)?;
    let checkpoint = last_checkpoint(&ctx.dir.join(&journal))?;

    // Restart on the journal; the first reply comes after replay.
    let sock2 = format!("r{tag}.sock");
    let restarted = ctx
        .esvm
        .spawn(
            &["serve", "--recover", &journal, "--socket", &sock2],
            &ctx.dir,
            false,
        )
        .map_err(io_err("spawn esvm serve --recover"))?;
    let stream = connect(&ctx.dir.join(&sock2), restarted.spawned)?;
    let mut writer = stream.try_clone().map_err(io_err("socket"))?;
    let mut reader = io::BufReader::new(stream);
    let after = stats_probe(&mut writer, &mut reader).map_err(io_err("socket"))?;
    let recover = restarted.spawned.elapsed();
    writer.shutdown(Shutdown::Write).map_err(io_err("socket"))?;
    summary_printed(&restarted.finish().map_err(io_err("esvm serve --recover"))?)?;
    let _ = std::fs::remove_file(ctx.dir.join(&journal));
    Ok(Session {
        setup,
        replies,
        sent,
        received,
        recovered: Some((check::stats_counters(&after).to_owned(), recover)),
        checkpoint: Some(checkpoint),
        peak_rss_kib,
        exited,
    })
}

/// The last checkpoint in a journal the server wrote.
fn last_checkpoint(path: &std::path::Path) -> Result<Checkpoint, String> {
    let recovered = recover_file(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    recovered
        .records
        .iter()
        .rev()
        .find_map(|record| match record {
            JournalRecord::Checkpoint(c) => Some(*c),
            _ => None,
        })
        .ok_or_else(|| format!("{} holds no checkpoint", path.display()))
}

/// The reply a bare `OnlineEngine` owes `line` when it applies it as
/// `esvm serve` does with default flags: `REQ` → `arrive`, `DOWN` →
/// `set_down` then `repair` of each evicted VM, `UP` → `set_up`, and
/// `STATS` → the session counters. An oracle that shares no code with
/// `ServeSession`. `repair` re-places one evicted VM, so callers can
/// time it.
pub fn apply_line(
    engine: &mut OnlineEngine,
    line: Line,
    repair: &mut impl FnMut(&mut OnlineEngine, Vm) -> RepairOutcome,
) -> Result<String, String> {
    Ok(match line {
        Line::Req(vm) => match engine.arrive(vm) {
            Ok(OnlineDecision::Placed(s)) => format!("PLACED {} {}", vm.id().0, s.0),
            Ok(OnlineDecision::Rejected) => format!("REJECTED {}", vm.id().0),
            Err(e) => return Err(format!("engine refused VM {}: {e}", vm.id().0)),
        },
        Line::Down(s) => {
            let victims = engine.set_down(ServerId(s)).map_err(|e| e.to_string())?;
            let evicted = victims.len();
            let repaired = victims
                .into_iter()
                .filter(|&vm| matches!(repair(engine, vm), RepairOutcome::Rehosted { .. }))
                .count();
            format!(
                "DOWNED {s} evicted={evicted} repaired={repaired} shed={}",
                evicted - repaired
            )
        }
        Line::Up(s) => {
            engine.set_up(ServerId(s)).map_err(|e| e.to_string())?;
            format!("UPPED {s}")
        }
        Line::Stats => {
            let st = engine.stats();
            format!(
                "STATS requests={} placed={} rejected={} departed={} evicted={} repaired={} \
                 overloaded=0 live={}",
                st.arrivals,
                st.placed,
                st.rejected,
                st.departed,
                st.evicted,
                st.repaired,
                engine.live_count()
            )
        }
    })
}

/// The replies a bare `OnlineEngine` owes the input's lines (see
/// [`apply_line`]), and the engine after the last one.
pub fn engine_replies(
    input: &ServeInput,
    mut repair: impl FnMut(&mut OnlineEngine, Vm) -> RepairOutcome,
) -> Result<(Vec<String>, OnlineEngine), String> {
    let mut engine = OnlineEngine::new(input.problem.servers());
    let replies = input
        .lines
        .iter()
        .map(|&line| apply_line(&mut engine, line, &mut repair))
        .collect::<Result<_, _>>()?;
    Ok((replies, engine))
}

/// `OnlineEngine::repair` with `esvm serve`'s default retry policy.
pub fn default_repair(engine: &mut OnlineEngine, vm: Vm) -> RepairOutcome {
    let config = ServeConfig::default();
    engine.repair(vm, config.max_retries, config.backoff)
}

/// An in-process `ServeSession` fed the same lines, as `esvm serve`
/// would be with default flags: its replies and committed Eq. 7 cost.
fn session_replies(input: &ServeInput, seed: u64) -> Result<(Vec<String>, f64), String> {
    let fleet = serve_fleet(seed)?;
    let metrics = MetricsRegistry::new();
    let mut session = ServeSession::new(&fleet, &metrics, &NoopTracer);
    let replies = input
        .wire
        .iter()
        .map(|line| session.handle(line).unwrap_or_default())
        .collect();
    Ok((replies, session.engine().committed_cost()))
}

/// The offline FFPS cost of the same VMs: the paper's baseline.
fn ffps_cost(problem: &AllocationProblem) -> Result<f64, String> {
    let assignment = offline::allocate(problem, AllocatorKind::Ffps)?;
    check::placement_cost(problem, assignment.placement())
}

/// Σ cpu · duration of the placed VMs.
fn placed_work(problem: &AllocationProblem, placement: &[Option<ServerId>]) -> f64 {
    problem
        .vms()
        .iter()
        .zip(placement)
        .filter(|(_, slot)| slot.is_some())
        .map(|(vm, _)| vm.cpu_time())
        .sum()
}

/// Runs sessions until the measuring time is up; checks each one.
fn sessions(
    ctx: &Ctx,
    r: &mut Report,
    input: &ServeInput,
    mut one: impl FnMut(usize) -> Result<Session, String>,
    mut verify: impl FnMut(&Session) -> Result<(), String>,
) -> Vec<Session> {
    let mut out = Vec::new();
    let start = Instant::now();
    while out.len() < MIN_SESSIONS || start.elapsed().as_secs_f64() < ctx.seconds {
        r.attempted += input.wire.len() as u64;
        let Some(session) = r.check(one(out.len())) else {
            break;
        };
        if r.check(verify(&session)).is_none() {
            break;
        }
        out.push(session);
    }
    out
}

/// The serve workloads' client-visible metrics, given the set-up
/// samples. Each is the median over the run's sessions, so one session
/// disturbed by the host does not move it, except the tail: a burst of
/// contention on the host inflates whole sessions' p99, often most of a
/// run's, while a change to the program moves every session's. So
/// `req_p99_us` is the lowest p99 of the first `MIN_SESSIONS` sessions,
/// a count that does not depend on the program's speed.
fn serve_metrics(r: &mut Report, input: &ServeInput, sessions: &[Session], setup: &[f64]) {
    let per_session = |f: &dyn Fn(&Session) -> f64| -> f64 {
        stats::median(&sessions.iter().map(f).collect::<Vec<_>>())
    };
    let samples: usize = sessions
        .iter()
        .map(|s| s.req_latencies_us(input).len())
        .sum();
    r.metric("setup_s", stats::median(setup), "s");
    r.metric(
        "batch_s",
        per_session(&|s| s.exited.wall.as_secs_f64()),
        "s",
    );
    r.metric(
        "req_p50_us",
        per_session(&|s| stats::median(&s.req_latencies_us(input))),
        "us",
    );
    let tail = sessions[..MIN_SESSIONS]
        .iter()
        .map(|s| stats::tail(&s.req_latencies_us(input)))
        .fold(f64::INFINITY, f64::min);
    r.metric("req_p99_us", tail, "us");
    r.metric("req_per_s", per_session(&|s| s.req_rate(input)), "1/s");
    r.metric(
        "rss_peak_mb",
        per_session(&|s| s.peak_rss_kib as f64) / 1024.0,
        "MB",
    );
    r.info("sessions", sessions.len() as f64, "count");
    r.info("req_latency_samples", samples as f64, "count");
}

/// `serve-pipe-heavy`, end to end.
pub fn e2e_pipe(ctx: &Ctx) -> Report {
    let mut r = Report::default();
    let Some(input) = r.check(serve_input(&PIPE, ctx.seed)) else {
        return r;
    };
    let Some((expected, engine)) = r.check(engine_replies(&input, default_repair)) else {
        return r;
    };
    let reference = engine.placement(input.problem.vm_count());
    let mut first: Option<f64> = None;
    let done = sessions(
        ctx,
        &mut r,
        &input,
        |_| pipe_session(ctx, &input, PIPE_WINDOW),
        |s| {
            let placement = check::replies(&input.lines, &s.replies, input.problem.vm_count())?;
            check::same_replies(&s.replies, &expected)?;
            if first.is_none() {
                // The audited cost of the PLACED replies must equal the
                // in-process replay's, bit for bit.
                first = Some(check::same_placement(
                    &input.problem,
                    &placement,
                    &reference,
                )?);
            }
            Ok(())
        },
    );
    if !r.failures.is_empty() {
        return r;
    }
    let cost = first.expect("at least one session passed");
    let Some(ffps) = r.check(ffps_cost(&input.problem)) else {
        return r;
    };
    let mut setup = cold_starts(ctx, &mut r, COLD_STARTS);
    if !r.failures.is_empty() {
        return r;
    }
    setup.extend(done.iter().map(|s| s.setup.as_secs_f64()));
    serve_metrics(&mut r, &input, &done, &setup);
    // No journal: a restart is a cold start.
    r.metric("recover_s", stats::median(&setup), "s");
    r.metric(
        "energy_cost",
        cost / placed_work(&input.problem, &reference),
        "W/CU",
    );
    r.info("energy_reduction_pct", (ffps - cost) / ffps * 100.0, "%");
    r
}

/// `serve-socket-durable`, end to end.
pub fn e2e_socket(ctx: &Ctx) -> Report {
    let mut r = Report::default();
    let Some(input) = r.check(serve_input(&SOCKET, ctx.seed)) else {
        return r;
    };
    let Some((reference, committed)) = r.check(session_replies(&input, ctx.seed)) else {
        return r;
    };
    // The in-process session must agree with the bare-engine oracle,
    // so a fault in the session code cannot hide behind the comparison
    // of the server with that same code.
    let Some((expected, engine)) = r.check(engine_replies(&input, default_repair)) else {
        return r;
    };
    if r.check(check::same_replies(&reference, &expected))
        .is_none()
        || r.check(
            if committed.to_bits() == engine.committed_cost().to_bits() {
                Ok(())
            } else {
                Err(format!(
                    "session committed {committed}, bare engine {}",
                    engine.committed_cost()
                ))
            },
        )
        .is_none()
    {
        return r;
    }
    // The faults are there to drive the repair path; a seed on which
    // they repair nothing would leave it unmeasured.
    let owed = engine.stats();
    if r.check(if owed.repaired > 0 {
        Ok(())
    } else {
        Err(format!(
            "the fault lines evict {} VMs and repair none",
            owed.evicted
        ))
    })
    .is_none()
    {
        return r;
    }
    let Some(placement) = r.check(check::replies(
        &input.lines,
        &reference,
        input.problem.vm_count(),
    )) else {
        return r;
    };
    let done = sessions(
        ctx,
        &mut r,
        &input,
        |k| socket_session(ctx, &input, k),
        |s| {
            check::replies(&input.lines, &s.replies, input.problem.vm_count())?;
            check::same_replies(&s.replies, &reference)?;
            // The cost and counters the server journaled at shutdown.
            let c = s.checkpoint.expect("socket sessions read their journal");
            check::same_checkpoint(&c, committed, &owed)?;
            let before = check::stats_counters(s.replies.last().expect("lines end in STATS"));
            match &s.recovered {
                Some((after, _)) if after == before => Ok(()),
                other => Err(format!(
                    "STATS after --recover is {:?}, before shutdown {before:?}",
                    other.as_ref().map(|o| &o.0)
                )),
            }
        },
    );
    if !r.failures.is_empty() {
        return r;
    }
    let Some(ffps) = r.check(ffps_cost(&input.problem)) else {
        return r;
    };
    let setup: Vec<f64> = done.iter().map(|s| s.setup.as_secs_f64()).collect();
    serve_metrics(&mut r, &input, &done, &setup);
    let recover: Vec<f64> = done
        .iter()
        .filter_map(|s| s.recovered.as_ref().map(|(_, d)| d.as_secs_f64()))
        .collect();
    r.metric("recover_s", stats::median(&recover), "s");
    // Every session's checkpoint holds these bits (checked above).
    let measured = f64::from_bits(
        done[0]
            .checkpoint
            .expect("socket sessions read their journal")
            .committed_cost_bits,
    );
    r.metric(
        "energy_cost",
        measured / placed_work(&input.problem, &placement),
        "W/CU",
    );
    r.info(
        "energy_reduction_pct",
        (ffps - measured) / ffps * 100.0,
        "%",
    );
    r.info("evicted", owed.evicted as f64, "count");
    r.info("repaired", owed.repaired as f64, "count");
    r.info("shed", (owed.evicted - owed.repaired) as f64, "count");
    r
}
