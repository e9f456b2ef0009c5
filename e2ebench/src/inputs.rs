//! Seeded inputs of the serve workloads: the fleet `esvm serve
//! --servers N --seed S` builds for itself, and the protocol lines a
//! client sends it.

use std::collections::{HashMap, VecDeque};

use esvm_chaos::{FaultEvent, FaultPlan, FaultPlanConfig};
use esvm_core::OnlineEngine;
use esvm_exper::serve::{parse_request, Request};
use esvm_simcore::{AllocationProblem, ServerId, ServerSpec, Vm};
use esvm_workload::WorkloadConfig;

use crate::serve::{apply_line, default_repair};

/// Servers in every serve workload's fleet.
pub const FLEET: usize = 5_000;

/// Mean VM lifetime of the paper's workload model, in time units.
const MEAN_DURATION: f64 = 5.0;

/// One protocol line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Line {
    /// `REQ id start dur cpu mem`.
    Req(Vm),
    /// `DOWN server`.
    Down(u32),
    /// `UP server`.
    Up(u32),
    /// `STATS`.
    Stats,
}

impl Line {
    /// The line as sent on the wire (without the newline). Demands
    /// print in Rust's shortest round-trip form, so the server parses
    /// back bit-identical values.
    pub fn wire(&self) -> String {
        match self {
            Line::Req(vm) => format!(
                "REQ {} {} {} {} {}",
                vm.id().0,
                vm.start(),
                vm.duration(),
                vm.demand().cpu,
                vm.demand().mem
            ),
            Line::Down(s) => format!("DOWN {s}"),
            Line::Up(s) => format!("UP {s}"),
            Line::Stats => "STATS".to_owned(),
        }
    }

    /// The request this line should parse to.
    fn request(&self) -> Request {
        match *self {
            Line::Req(vm) => Request::Req(vm),
            Line::Down(s) => Request::Down(ServerId(s)),
            Line::Up(s) => Request::Up(ServerId(s)),
            Line::Stats => Request::Stats,
        }
    }
}

/// The shape of a serve workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeShape {
    /// `REQ` lines.
    pub requests: usize,
    /// Mean time units between arrivals.
    pub interarrival: f64,
    /// Per-server crash probability of the seeded fault plan, which
    /// sets when outages happen and how long they last (0 = no
    /// `DOWN`/`UP` lines).
    pub fault_rate: f64,
    /// A `STATS` line after every this many lines (0 = none).
    pub stats_every: usize,
}

/// A generated serve input.
pub struct ServeInput {
    /// The fleet plus every requested VM, for audits.
    pub problem: AllocationProblem,
    /// The lines, in send order; the last one is `STATS`.
    pub lines: Vec<Line>,
    /// The same lines as wire text.
    pub wire: Vec<String>,
}

impl ServeInput {
    /// Whether line `i` is a `REQ`.
    pub fn is_req(&self, i: usize) -> bool {
        matches!(self.lines[i], Line::Req(_))
    }
}

/// The fleet `esvm serve --servers FLEET --seed seed` builds.
pub fn serve_fleet(seed: u64) -> Result<Vec<ServerSpec>, String> {
    Ok(WorkloadConfig::new(1, FLEET)
        .transition_time(1.0)
        .generate(seed)
        .map_err(|e| format!("fleet generation failed: {e}"))?
        .servers()
        .to_vec())
}

/// Generates the seeded lines of one serve workload: arrivals of the
/// paper's workload model in start order, the seeded fault plan's
/// `DOWN`/`UP` events before the first arrival at or after their time,
/// periodic `STATS`, and a final `STATS`.
///
/// Few of the fleet's servers host a VM at light load, so a plan
/// outage drawn uniformly over the fleet would mostly down an empty
/// server and leave the repair path idle. Each outage is therefore
/// moved to a server that hosts VMs when it starts: the one at index
/// `plan server mod busy count` among the busy servers in id order, as
/// a bare `OnlineEngine` fed the lines so far places them. Its `UP`
/// goes to the same server. An outage that finds no busy server is
/// left out, with its `UP`.
pub fn serve_input(shape: &ServeShape, seed: u64) -> Result<ServeInput, String> {
    let problem = WorkloadConfig::new(shape.requests, FLEET)
        .mean_interarrival(shape.interarrival)
        .mean_duration(MEAN_DURATION)
        .transition_time(1.0)
        .generate(seed)
        .map_err(|e| format!("workload generation failed: {e}"))?;
    if problem.servers() != serve_fleet(seed)?.as_slice() {
        return Err("generated fleet differs from the one esvm serve builds".into());
    }
    let plan = if shape.fault_rate > 0.0 {
        FaultPlan::generate(
            &FaultPlanConfig::with_fault_rate(shape.fault_rate),
            FLEET,
            problem.horizon(),
            seed,
        )
    } else {
        FaultPlan::empty()
    };
    let mut engine = OnlineEngine::new(problem.servers());
    // Plan server → the busy servers its open outages were moved to.
    let mut moved: HashMap<u32, VecDeque<u32>> = HashMap::new();
    let mut fault = |engine: &OnlineEngine, e: &FaultEvent| match e {
        FaultEvent::ServerDown { server, .. } => {
            let busy: Vec<u32> = engine
                .ledgers()
                .iter()
                .enumerate()
                .filter(|(_, ledger)| ledger.hosted_count() > 0)
                .map(|(s, _)| s as u32)
                .collect();
            let target = *busy.get(server.0 as usize % busy.len().max(1))?;
            moved.entry(server.0).or_default().push_back(target);
            Some(Line::Down(target))
        }
        FaultEvent::ServerUp { server, .. } => moved
            .get_mut(&server.0)
            .and_then(VecDeque::pop_front)
            .map(Line::Up),
    };
    let mut lines = Vec::with_capacity(shape.requests + plan.events().len() + 1);
    let push = |lines: &mut Vec<Line>, engine: &mut OnlineEngine, line: Line| {
        lines.push(line);
        if shape.stats_every > 0 && lines.len().is_multiple_of(shape.stats_every) {
            lines.push(Line::Stats);
        }
        apply_line(engine, line, &mut default_repair).map(drop)
    };
    let vms = problem.vms();
    let mut cursor = plan.cursor();
    for j in problem.vms_by_start_time() {
        for e in cursor.take_until(vms[j].start()) {
            if let Some(line) = fault(&engine, e) {
                push(&mut lines, &mut engine, line)?;
            }
        }
        push(&mut lines, &mut engine, Line::Req(vms[j]))?;
    }
    for e in cursor.rest() {
        if let Some(line) = fault(&engine, e) {
            push(&mut lines, &mut engine, line)?;
        }
    }
    lines.push(Line::Stats);

    let wire: Vec<String> = lines.iter().map(Line::wire).collect();
    for (line, text) in lines.iter().zip(&wire) {
        match parse_request(text) {
            Ok(Some(parsed)) if parsed == line.request() => {}
            other => return Err(format!("input line {text:?} parses to {other:?}")),
        }
    }
    Ok(ServeInput {
        problem,
        lines,
        wire,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_interleave_faults() {
        let shape = ServeShape {
            requests: 2_000,
            interarrival: 0.05,
            fault_rate: 0.05,
            stats_every: 100,
        };
        let a = serve_input(&shape, 7).unwrap();
        let b = serve_input(&shape, 7).unwrap();
        assert_eq!(a.wire, b.wire);
        let reqs = a.lines.iter().filter(|l| matches!(l, Line::Req(_))).count();
        assert_eq!(reqs, 2_000);
        assert!(a.lines.iter().any(|l| matches!(l, Line::Down(_))));
        assert!(a.lines.iter().any(|l| matches!(l, Line::Up(_))));
        assert_eq!(a.lines.last(), Some(&Line::Stats));
        assert_ne!(serve_input(&shape, 8).unwrap().wire, a.wire);
    }

    #[test]
    fn every_fault_evicts_and_the_evicted_are_repaired() {
        let shape = ServeShape {
            requests: 2_000,
            interarrival: 0.05,
            fault_rate: 0.05,
            stats_every: 0,
        };
        for seed in 0..5 {
            let input = serve_input(&shape, seed).unwrap();
            let (replies, engine) = crate::serve::engine_replies(&input, default_repair).unwrap();
            let mut downs = 0;
            for (line, reply) in input.lines.iter().zip(&replies) {
                if matches!(line, Line::Down(_)) {
                    downs += 1;
                    assert!(!reply.contains(" evicted=0 "), "{reply}");
                }
            }
            assert!(downs > 0, "seed {seed} has no DOWN lines");
            assert!(engine.stats().repaired > 0, "seed {seed} repairs nothing");
        }
    }
}
