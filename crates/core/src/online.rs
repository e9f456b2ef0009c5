//! Online (irrevocable-at-arrival) allocation.
//!
//! The offline allocators see the whole trace before placing anything.
//! [`OnlineEngine`] models the real cloud-provider setting instead: VM
//! requests arrive as a time-ordered event stream, each one gets a
//! placement decision *at arrival* using the same O(log K)
//! [`incremental_cost`] scoring as MIEC, and the decision is
//! irrevocable — no later relocation, no knowledge of future arrivals.
//! Departures are events too: when a VM's closed interval ends, its
//! capacity frees through [`unhost`], so a long-running service keeps
//! every ledger O(live VMs) instead of O(VMs ever seen).
//!
//! ## Cost accounting
//!
//! Unhosting a departed VM makes the ledger forget it ever ran, which
//! changes how *later* gaps on that server are priced (a fresh arrival
//! pays a switch-on instead of bridging an idle gap to history). The
//! engine therefore keeps a [`committed_cost`] accumulator with the
//! telescoping invariant `committed == retired + Σ ledger.cost()`:
//! hosting raises it by the placement delta, unhosting moves energy
//! from the live ledgers into `retired` without changing the sum. For
//! the online/offline optimality gap, decisions are exported as a
//! placement vector and re-audited by
//! [`Assignment::from_placement`] so both sides are measured by the
//! identical full-horizon Eq. 7 functional.
//!
//! ## Capacity correctness
//!
//! [`ServerLedger::fits`] is time-aware: it checks peak usage over the
//! arriving VM's interval. A new arrival at clock `t` can only overlap
//! VMs whose intervals reach `t` or later, and those are exactly the
//! ones still hosted (departures fire at `end + 1 > t`), so live-only
//! `fits` verdicts equal full-history verdicts and the final
//! `from_placement` replay is capacity-valid by construction.
//!
//! [`incremental_cost`]: esvm_simcore::ServerLedger::incremental_cost
//! [`unhost`]: esvm_simcore::ServerLedger::unhost
//! [`committed_cost`]: OnlineEngine::committed_cost
//! [`Assignment::from_placement`]: esvm_simcore::Assignment::from_placement

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::fmt;

use esvm_obs::{DecisionKind, ExplainRecord, NoopTracer, Tracer};
use esvm_simcore::{
    departure_time, AllocationProblem, Assignment, Interval, ServerId, ServerLedger, ServerSpec,
    TimeUnit, Vm, VmEvent, VmId,
};
use rand::RngCore;

use crate::{AllocError, AllocResult, Allocator, Argmin, CandidateIndex};

/// Typed rejection reasons of the online event loop. Every variant is a
/// *protocol* error: the event was malformed relative to the session
/// state and was not applied; the session itself stays usable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum OnlineError {
    /// The id already arrived in this session (placed, rejected or
    /// departed — ids are never reusable, which is what makes
    /// double-placement impossible).
    DuplicateVm(VmId),
    /// The arrival's start time lies before the session clock; an
    /// online decision for the past cannot be honoured.
    OutOfOrder {
        /// The offending VM.
        vm: VmId,
        /// Its claimed start time.
        start: TimeUnit,
        /// The session clock it would have to rewind.
        clock: TimeUnit,
    },
    /// A departure for an id that is not currently live.
    UnknownVm(VmId),
    /// A fault event named a server outside the fleet.
    UnknownServer(ServerId),
}

impl fmt::Display for OnlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnlineError::DuplicateVm(vm) => write!(f, "duplicate id: {vm} already arrived"),
            OnlineError::OutOfOrder { vm, start, clock } => write!(
                f,
                "out-of-order arrival: {vm} starts at {start} but the clock is at {clock}"
            ),
            OnlineError::UnknownVm(vm) => write!(f, "unknown id: {vm} is not live"),
            OnlineError::UnknownServer(s) => write!(f, "unknown server: {s}"),
        }
    }
}

impl std::error::Error for OnlineError {}

/// The irrevocable outcome of one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnlineDecision {
    /// The VM was placed on the given server.
    Placed(ServerId),
    /// No up server could host the VM; the request is refused.
    Rejected,
}

impl OnlineDecision {
    /// The chosen server, when placed.
    pub fn server(&self) -> Option<ServerId> {
        match self {
            OnlineDecision::Placed(s) => Some(*s),
            OnlineDecision::Rejected => None,
        }
    }

    /// Whether the request was placed.
    pub fn is_placed(&self) -> bool {
        matches!(self, OnlineDecision::Placed(_))
    }
}

/// Running tallies of one online session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct OnlineStats {
    /// Arrivals accepted into the event loop (well-formed requests).
    pub arrivals: u64,
    /// Arrivals that received a `Placed` decision.
    pub placed: u64,
    /// Arrivals refused for lack of a feasible up server.
    pub rejected: u64,
    /// VMs whose capacity was freed (scheduled end or explicit depart).
    pub departed: u64,
    /// VMs evicted because their server went down under a fault plan.
    pub evicted: u64,
    /// Evicted VMs re-placed by the bounded-backoff repair path.
    pub repaired: u64,
    /// Peak number of simultaneously live VMs.
    pub live_peak: u64,
}

/// Outcome of one [`OnlineEngine::repair_traced`] attempt sequence for
/// a single evicted VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairOutcome {
    /// The remainder of the VM's interval was re-placed.
    Rehosted {
        /// The server now hosting the remainder.
        server: ServerId,
        /// The (possibly backoff-delayed) restart time.
        start: TimeUnit,
        /// Which attempt succeeded (0 = immediate, k = after the k-th
        /// backoff delay).
        attempt: u32,
    },
    /// No feasible up server within the retry budget; the VM's
    /// remaining work is lost.
    Shed,
}

/// The online allocation engine: time-ordered arrivals in, irrevocable
/// decisions out. See the [module docs](self) for the model.
#[derive(Debug, Clone)]
pub struct OnlineEngine {
    ledgers: Vec<ServerLedger>,
    /// Awake servers plus one pristine server per spec class, and which
    /// servers are down: each decision scores only these, so it stays
    /// O(live) no matter how large the fleet is.
    index: CandidateIndex,
    /// Live placements: id → (vm, server).
    live: HashMap<VmId, (Vm, ServerId)>,
    /// Every id ever accepted — placed, rejected or departed.
    seen: HashSet<VmId>,
    /// Append-only decision log of placements, in arrival order.
    placements: Vec<(VmId, ServerId)>,
    /// Scheduled departures as (free time, id); min-heap.
    pending: BinaryHeap<Reverse<(TimeUnit, VmId)>>,
    clock: TimeUnit,
    retired_cost: f64,
    stats: OnlineStats,
}

impl OnlineEngine {
    /// A fresh session over the given fleet, clock at 0, all servers up.
    pub fn new(servers: &[ServerSpec]) -> Self {
        Self {
            ledgers: servers.iter().map(|s| ServerLedger::new(*s)).collect(),
            index: CandidateIndex::new(servers),
            live: HashMap::new(),
            seen: HashSet::new(),
            placements: Vec::new(),
            pending: BinaryHeap::new(),
            clock: 0,
            retired_cost: 0.0,
            stats: OnlineStats::default(),
        }
    }

    /// The session clock: no accepted arrival may start before it.
    pub fn clock(&self) -> TimeUnit {
        self.clock
    }

    /// Currently live VMs.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Session tallies so far.
    pub fn stats(&self) -> OnlineStats {
        self.stats
    }

    /// The per-server energy ledgers of the *live* hosted sets.
    pub fn ledgers(&self) -> &[ServerLedger] {
        &self.ledgers
    }

    /// Total Eq. 7 energy committed by every placement so far:
    /// `retired + Σ ledger.cost()` (the telescoping invariant of the
    /// module docs). Departures move energy between the two terms
    /// without changing the sum.
    pub fn committed_cost(&self) -> f64 {
        self.retired_cost + self.ledgers.iter().map(|l| l.cost()).sum::<f64>()
    }

    /// Energy of placements that have fully departed the live ledgers.
    pub fn retired_cost(&self) -> f64 {
        self.retired_cost
    }

    /// Whether `server` is currently marked down.
    pub fn is_down(&self, server: ServerId) -> bool {
        self.index.is_down(server)
    }

    /// The candidate set every decision scores.
    pub fn candidate_index(&self) -> &CandidateIndex {
        &self.index
    }

    /// The decision history as a placement vector over `n_vms` dense id
    /// slots (`None` = rejected or never arrived), ready for
    /// [`Assignment::from_placement`] re-audit.
    pub fn placement(&self, n_vms: usize) -> Vec<Option<ServerId>> {
        let mut slots = vec![None; n_vms];
        for (vm, sid) in self.placements.iter() {
            if let Some(slot) = slots.get_mut(vm.index()) {
                *slot = Some(*sid);
            }
        }
        slots
    }

    /// Returns a server to its class pool when its last hosted piece
    /// leaves. `unhost` reverses `host` exactly, so a drained ledger is
    /// indistinguishable from a fresh one and may again stand behind
    /// its class representative.
    fn note_unhosted(&mut self, sid: ServerId) {
        if self.ledgers[sid.index()].hosted_count() == 0 {
            self.index.drained(sid);
        }
    }

    /// The argmin of [`arrive_traced`](Self::arrive_traced) and
    /// [`rehost`](Self::rehost): the cheapest up server for `vm`.
    fn pick(&self, vm: &Vm) -> Argmin {
        let ledgers = &self.ledgers;
        self.index.argmin(|i| {
            let ledger = &ledgers[i];
            ledger.fits(vm).then(|| ledger.incremental_cost(vm))
        })
    }

    /// Hosts `vm` on `sid` and records the placement.
    fn commit(&mut self, vm: &Vm, sid: ServerId) {
        self.ledgers[sid.index()].host(vm);
        self.index.hosted(sid);
        self.live.insert(vm.id(), (*vm, sid));
        self.placements.push((vm.id(), sid));
        self.pending.push(Reverse((departure_time(vm), vm.id())));
        self.stats.live_peak = self.stats.live_peak.max(self.live.len() as u64);
    }

    /// Advances the clock to `t`, firing every departure scheduled at
    /// or before `t` in (time, id) order.
    pub fn advance_to(&mut self, t: TimeUnit) {
        while let Some(Reverse((at, vm))) = self.pending.peek().copied() {
            if at > t {
                break;
            }
            self.pending.pop();
            // Stale entries (explicitly departed or evicted ids) are
            // skipped: `live` is the source of truth.
            if let Some((vm, sid)) = self.live.remove(&vm) {
                self.retired_cost += self.ledgers[sid.index()].unhost(&vm);
                self.stats.departed += 1;
                self.note_unhosted(sid);
            }
        }
        self.clock = self.clock.max(t);
    }

    /// Explicitly departs a live VM ahead of (or at) schedule, freeing
    /// its capacity now. Returns the realized Eq. 7 cost decrease.
    pub fn depart(&mut self, vm: VmId) -> Result<f64, OnlineError> {
        let (vm, sid) = self.live.remove(&vm).ok_or(OnlineError::UnknownVm(vm))?;
        let freed = self.ledgers[sid.index()].unhost(&vm);
        self.retired_cost += freed;
        self.stats.departed += 1;
        self.note_unhosted(sid);
        Ok(freed)
    }

    /// Departs every live VM (session drain). Returns how many departed.
    pub fn drain(&mut self) -> usize {
        let mut ids: Vec<VmId> = self.live.keys().copied().collect();
        ids.sort_unstable();
        let n = ids.len();
        for id in ids {
            let _ = self.depart(id);
        }
        n
    }

    /// Uninstrumented arrival: decides, commits, schedules the departure.
    pub fn arrive(&mut self, vm: Vm) -> Result<OnlineDecision, OnlineError> {
        self.arrive_traced(vm, &NoopTracer)
    }

    /// The instrumented arrival path. The scan is the MIEC argmin over
    /// the [`CandidateIndex`] — ascending server ids, spec-class pruning
    /// of empty twins, [`incremental_cost`](ServerLedger::incremental_cost)
    /// scoring, strict `<` lowest-id tie-break — restricted to up
    /// servers.
    ///
    /// Precondition failures ([`OnlineError::OutOfOrder`],
    /// [`OnlineError::DuplicateVm`]) reject the event *before* it
    /// touches any state: the clock does not move and the id is not
    /// consumed, so a corrected resubmission can still succeed
    /// (except a duplicate, whose id is consumed by definition).
    pub fn arrive_traced<T: Tracer>(
        &mut self,
        vm: Vm,
        tracer: &T,
    ) -> Result<OnlineDecision, OnlineError> {
        if vm.start() < self.clock {
            return Err(OnlineError::OutOfOrder {
                vm: vm.id(),
                start: vm.start(),
                clock: self.clock,
            });
        }
        if self.seen.contains(&vm.id()) {
            return Err(OnlineError::DuplicateVm(vm.id()));
        }
        self.advance_to(vm.start());
        self.seen.insert(vm.id());
        self.stats.arrivals += 1;

        let _decision_span = tracer.lap_span("online.decision");
        let pick = self.pick(&vm);
        match pick.best {
            Some((delta, sid)) => {
                self.commit(&vm, sid);
                self.stats.placed += 1;
                if T::ENABLED {
                    tracer.explain(&ExplainRecord {
                        candidates: pick.candidates,
                        pruned: pick.pruned,
                        unfit: pick.unfit,
                        shards: 1,
                        winner: Some(sid.index() as u64),
                        delta_cost: delta,
                        fp_tie: pick.fp_ties > 0,
                        time: Some(vm.start() as u64),
                        ..ExplainRecord::new(DecisionKind::Place, vm.id().index() as u64)
                    });
                }
                Ok(OnlineDecision::Placed(sid))
            }
            None => {
                self.stats.rejected += 1;
                if T::ENABLED {
                    tracer.explain(&ExplainRecord {
                        candidates: pick.candidates,
                        pruned: pick.pruned,
                        unfit: pick.unfit,
                        shards: 1,
                        time: Some(vm.start() as u64),
                        ..ExplainRecord::new(DecisionKind::Reject, vm.id().index() as u64)
                    });
                }
                Ok(OnlineDecision::Rejected)
            }
        }
    }

    /// Marks `server` down, evicting its live VMs (capacity freed, ids
    /// consumed — an online service cannot replay irrevocable
    /// decisions). Returns the evicted VMs in ascending id order.
    pub fn set_down(&mut self, server: ServerId) -> Result<Vec<Vm>, OnlineError> {
        let i = server.index();
        if i >= self.ledgers.len() {
            return Err(OnlineError::UnknownServer(server));
        }
        self.index.down(server);
        let mut victims: Vec<Vm> = self
            .live
            .values()
            .filter(|(_, sid)| *sid == server)
            .map(|(vm, _)| *vm)
            .collect();
        victims.sort_unstable_by_key(|vm| vm.id());
        for vm in &victims {
            self.live.remove(&vm.id());
            self.retired_cost += self.ledgers[i].unhost(vm);
            self.stats.evicted += 1;
        }
        Ok(victims)
    }

    /// Marks `server` up again; it re-enters every later argmin scan.
    pub fn set_up(&mut self, server: ServerId) -> Result<(), OnlineError> {
        let i = server.index();
        if i >= self.ledgers.len() {
            return Err(OnlineError::UnknownServer(server));
        }
        // Eviction drained it on the way down, so it normally rejoins
        // as pristine; a redundant `set_up` is a no-op.
        self.index.up(server, self.ledgers[i].hosted_count() > 0);
        Ok(())
    }

    /// Re-places an evicted VM (single attempt, no retry schedule).
    ///
    /// This is the arrival argmin with the irrevocability bookkeeping
    /// relaxed where eviction demands it: the id is already consumed
    /// (`seen`), the clock does not move (repair happens *at* the fault
    /// instant, between arrivals), and the interval is whatever
    /// remainder the caller computed. Down servers are excluded by the
    /// same candidate-set construction as [`arrive_traced`].
    ///
    /// Returns the chosen server, or `None` when no up server fits.
    ///
    /// [`arrive_traced`]: OnlineEngine::arrive_traced
    fn rehost(&mut self, vm: &Vm) -> Option<ServerId> {
        let (_, sid) = self.pick(vm).best?;
        self.commit(vm, sid);
        self.stats.repaired += 1;
        Some(sid)
    }

    /// The bounded-backoff delay before retry `attempt` (1-based),
    /// mirroring `esvm_chaos::RepairPolicy::delay_for`: exponential
    /// doubling on `backoff`, saturating, never less than one tick.
    /// (Duplicated rather than imported: the chaos crate depends on
    /// this one.)
    fn repair_delay(backoff: u32, attempt: u32) -> TimeUnit {
        backoff
            .saturating_mul(1u32.checked_shl(attempt - 1).unwrap_or(u32::MAX))
            .max(1)
    }

    /// Runs the chaos-style bounded-backoff repair schedule for one
    /// evicted VM: an immediate re-place attempt at
    /// `max(clock, vm.start())`, then up to `max_retries` retries whose
    /// restart is pushed back by the exponential
    /// [`delay_for`](Self::repair_delay) schedule. A restart past the
    /// VM's end means the remaining work cannot run and the VM is shed.
    ///
    /// Never panics and never returns an error: repair is best-effort
    /// by contract — the fault already happened.
    pub fn repair_traced<T: Tracer>(
        &mut self,
        vm: Vm,
        max_retries: u32,
        backoff: u32,
        tracer: &T,
    ) -> RepairOutcome {
        let mut start = vm.start().max(self.clock);
        for attempt in 0..=max_retries {
            if attempt > 0 {
                start = start.saturating_add(Self::repair_delay(backoff, attempt));
            }
            if start > vm.end() {
                break;
            }
            let remainder = Vm::new(vm.id().0, vm.demand(), Interval::new(start, vm.end()));
            if let Some(server) = self.rehost(&remainder) {
                if T::ENABLED {
                    tracer.explain(&ExplainRecord {
                        winner: Some(server.index() as u64),
                        time: Some(start as u64),
                        ..ExplainRecord::new(DecisionKind::Repair, vm.id().index() as u64)
                    });
                }
                return RepairOutcome::Rehosted {
                    server,
                    start,
                    attempt,
                };
            }
        }
        if T::ENABLED {
            tracer.explain(&ExplainRecord {
                time: Some(self.clock as u64),
                ..ExplainRecord::new(DecisionKind::Shed, vm.id().index() as u64)
            });
        }
        RepairOutcome::Shed
    }

    /// Uninstrumented [`repair_traced`](Self::repair_traced).
    pub fn repair(&mut self, vm: Vm, max_retries: u32, backoff: u32) -> RepairOutcome {
        self.repair_traced(vm, max_retries, backoff, &NoopTracer)
    }

    /// Applies one canonical stream event (see
    /// [`event_order`](esvm_simcore::event_order)). Arrivals return
    /// their decision; departures return `None`. A departure for an id
    /// that already left (e.g. evicted, or drained early) is a no-op;
    /// one for an id that never arrived is [`OnlineError::UnknownVm`].
    pub fn apply(&mut self, event: VmEvent) -> Result<Option<OnlineDecision>, OnlineError> {
        match event {
            VmEvent::Arrive(vm) => self.arrive(vm).map(Some),
            VmEvent::Depart { vm, at } => {
                if !self.seen.contains(&vm) {
                    return Err(OnlineError::UnknownVm(vm));
                }
                self.advance_to(at);
                // `advance_to` already fired it if it was scheduled at
                // or before `at`; anything still live departs now.
                if self.live.contains_key(&vm) {
                    self.depart(vm)?;
                }
                Ok(None)
            }
        }
    }
}

/// The MIEC scoring rule run online: requests in arrival order, each
/// placed irrevocably on the feasible up server with the least
/// incremental Eq. 7 cost at that instant. Registered as
/// [`AllocatorKind::OnlineGreedy`](crate::AllocatorKind::OnlineGreedy)
/// so it flows through the differential suites, chaos replay and
/// `esvm query` like every offline kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineGreedy;

impl OnlineGreedy {
    /// Creates the online allocator.
    pub fn new() -> Self {
        Self
    }

    /// Instrumented run: replays the problem's canonical arrival order
    /// through an [`OnlineEngine`], then re-audits the decisions as a
    /// full-horizon [`Assignment`] (see the module docs on cost
    /// accounting). The engine's tallies go to `tracer` as `online.*`
    /// metrics.
    pub fn allocate_traced<'p, T: Tracer>(
        &self,
        problem: &'p AllocationProblem,
        tracer: &T,
    ) -> AllocResult<Assignment<'p>> {
        let _run_span = tracer.span("online.run");
        let mut engine = OnlineEngine::new(problem.servers());
        for j in problem.vms_by_start_time() {
            let vm = problem.vms()[j];
            // The feed is sorted by (start, id) over dense unique ids,
            // so the engine's preconditions hold by construction.
            match engine.arrive_traced(vm, tracer) {
                Ok(OnlineDecision::Placed(_)) => {}
                Ok(OnlineDecision::Rejected) => {
                    return Err(AllocError::NoFeasibleServer(vm.id()))
                }
                Err(e) => unreachable!("arrival-sorted feed violated online preconditions: {e}"),
            }
        }
        if T::ENABLED {
            let stats = engine.stats();
            tracer.add("online.arrivals", stats.arrivals);
            tracer.add("online.vms_placed", stats.placed);
            tracer.add("online.departures", stats.departed);
            tracer.set_gauge("online.live_peak", stats.live_peak as f64);
        }
        let placement = engine.placement(problem.vm_count());
        Ok(Assignment::from_placement(problem, &placement)?)
    }
}

impl Allocator for OnlineGreedy {
    fn name(&self) -> &'static str {
        "online-greedy"
    }

    fn allocate<'p>(
        &self,
        problem: &'p AllocationProblem,
        _rng: &mut dyn RngCore,
    ) -> AllocResult<Assignment<'p>> {
        self.allocate_traced(problem, &NoopTracer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esvm_simcore::{Interval, PowerModel, ProblemBuilder, Resources};
    use rand::{rngs::StdRng, SeedableRng};

    fn fleet(n: usize) -> Vec<ServerSpec> {
        (0..n)
            .map(|i| {
                ServerSpec::new(
                    i as u32,
                    Resources::new(8.0, 16.0),
                    PowerModel::new(100.0, 200.0),
                    120.0,
                )
            })
            .collect()
    }

    fn vm(id: u32, start: u32, end: u32, cpu: f64) -> Vm {
        Vm::new(id, Resources::new(cpu, cpu), Interval::new(start, end))
    }

    #[test]
    fn places_and_frees_capacity_on_departure() {
        let mut engine = OnlineEngine::new(&fleet(1));
        // Two VMs that saturate the server back to back: the second
        // only fits because the first departs first.
        assert!(engine.arrive(vm(0, 1, 10, 8.0)).unwrap().is_placed());
        assert_eq!(engine.live_count(), 1);
        let d = engine.arrive(vm(1, 11, 20, 8.0)).unwrap();
        assert_eq!(d, OnlineDecision::Placed(ServerId(0)));
        assert_eq!(engine.stats().departed, 1);
        assert_eq!(engine.live_count(), 1);
    }

    #[test]
    fn overlapping_saturation_is_rejected_not_errored() {
        let mut engine = OnlineEngine::new(&fleet(1));
        assert!(engine.arrive(vm(0, 1, 10, 8.0)).unwrap().is_placed());
        assert_eq!(
            engine.arrive(vm(1, 5, 8, 1.0)).unwrap(),
            OnlineDecision::Rejected
        );
        assert_eq!(engine.stats().rejected, 1);
    }

    #[test]
    fn duplicate_and_out_of_order_ids_are_typed_errors() {
        let mut engine = OnlineEngine::new(&fleet(2));
        engine.arrive(vm(0, 5, 9, 1.0)).unwrap();
        assert_eq!(
            engine.arrive(vm(0, 6, 9, 1.0)),
            Err(OnlineError::DuplicateVm(VmId(0)))
        );
        assert_eq!(
            engine.arrive(vm(1, 2, 9, 1.0)),
            Err(OnlineError::OutOfOrder {
                vm: VmId(1),
                start: 2,
                clock: 5,
            })
        );
        // Precondition failures consume nothing: the same id with a
        // corrected start still works.
        assert!(engine.arrive(vm(1, 5, 9, 1.0)).unwrap().is_placed());
    }

    #[test]
    fn depart_unknown_id_is_a_typed_error() {
        let mut engine = OnlineEngine::new(&fleet(1));
        assert_eq!(engine.depart(VmId(3)), Err(OnlineError::UnknownVm(VmId(3))));
        assert_eq!(
            engine.apply(VmEvent::Depart { vm: VmId(3), at: 1 }),
            Err(OnlineError::UnknownVm(VmId(3)))
        );
    }

    #[test]
    fn down_servers_are_never_chosen() {
        let mut engine = OnlineEngine::new(&fleet(2));
        engine.set_down(ServerId(0)).unwrap();
        let d = engine.arrive(vm(0, 1, 5, 1.0)).unwrap();
        assert_eq!(d, OnlineDecision::Placed(ServerId(1)));
        engine.set_down(ServerId(1)).unwrap();
        assert_eq!(
            engine.arrive(vm(1, 2, 5, 1.0)).unwrap(),
            OnlineDecision::Rejected
        );
        engine.set_up(ServerId(0)).unwrap();
        assert!(engine.arrive(vm(2, 3, 5, 1.0)).unwrap().is_placed());
        assert_eq!(engine.set_down(ServerId(9)), Err(OnlineError::UnknownServer(ServerId(9))));
    }

    #[test]
    fn eviction_frees_capacity_and_counts() {
        let mut engine = OnlineEngine::new(&fleet(2));
        engine.arrive(vm(0, 1, 10, 8.0)).unwrap();
        engine.arrive(vm(1, 1, 10, 8.0)).unwrap();
        let victims = engine.set_down(ServerId(0)).unwrap();
        assert_eq!(victims.len(), 1);
        assert_eq!(engine.stats().evicted, 1);
        assert_eq!(engine.live_count(), 1);
        // The scheduled departure of the evicted VM is stale, not a
        // double-unhost.
        engine.advance_to(20);
        assert_eq!(engine.stats().departed, 1);
    }

    #[test]
    fn committed_cost_is_conserved_across_departures() {
        let mut engine = OnlineEngine::new(&fleet(2));
        engine.arrive(vm(0, 1, 10, 4.0)).unwrap();
        engine.arrive(vm(1, 3, 6, 2.0)).unwrap();
        let before = engine.committed_cost();
        engine.advance_to(30);
        assert_eq!(engine.live_count(), 0);
        let after = engine.committed_cost();
        assert!(
            (before - after).abs() < 1e-9 * before.max(1.0),
            "departures must not change committed cost: {before} vs {after}"
        );
        assert!(engine.retired_cost() > 0.0);
    }

    #[test]
    fn matches_miec_when_no_departures_interleave() {
        // All VMs overlap one window, so online sees exactly the state
        // MIEC sees at each step and must pick identical servers.
        let mut builder = ProblemBuilder::new();
        for s in fleet(4) {
            builder = builder.server(s.capacity(), *s.power(), s.transition_cost());
        }
        for i in 0..10u32 {
            builder = builder.vm(
                Resources::new(1.0 + f64::from(i % 3), 2.0),
                Interval::new(1 + i, 40),
            );
        }
        let problem = builder.build().unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let online = OnlineGreedy::new().allocate(&problem, &mut rng).unwrap();
        let offline = crate::Miec::new().allocate(&problem, &mut rng).unwrap();
        assert_eq!(online.placement(), offline.placement());
        assert_eq!(
            online.total_cost().to_bits(),
            offline.total_cost().to_bits()
        );
    }

    #[test]
    fn repair_rehosts_the_remainder_on_another_server() {
        let mut engine = OnlineEngine::new(&fleet(2));
        engine.arrive(vm(0, 1, 10, 8.0)).unwrap();
        engine.advance_to(4);
        let victims = engine.set_down(ServerId(0)).unwrap();
        assert_eq!(victims.len(), 1);
        let outcome = engine.repair(victims[0], 3, 2);
        // Immediate attempt: remainder [4, 10] lands on the other server.
        assert_eq!(
            outcome,
            RepairOutcome::Rehosted {
                server: ServerId(1),
                start: 4,
                attempt: 0,
            }
        );
        assert_eq!(engine.stats().repaired, 1);
        assert_eq!(engine.live_count(), 1);
        // The rehosted remainder departs on schedule like any placement.
        engine.advance_to(20);
        assert_eq!(engine.live_count(), 0);
    }

    #[test]
    fn repair_backs_off_then_sheds_within_budget() {
        // One server only: while it is down, nothing can host, and the
        // backoff schedule (2, 4, 8 after the immediate try) pushes the
        // restart past the VM's end, so the repair sheds.
        let mut engine = OnlineEngine::new(&fleet(1));
        engine.arrive(vm(0, 1, 10, 2.0)).unwrap();
        let victims = engine.set_down(ServerId(0)).unwrap();
        assert_eq!(engine.repair(victims[0], 3, 2), RepairOutcome::Shed);
        assert_eq!(engine.stats().repaired, 0);
        // The engine stays usable after a shed.
        engine.set_up(ServerId(0)).unwrap();
        assert!(engine.arrive(vm(1, 2, 5, 1.0)).unwrap().is_placed());
    }

    #[test]
    fn repair_retry_succeeds_when_capacity_frees_in_time() {
        // Server 1 is saturated by a VM that departs at t=3; the evicted
        // VM's immediate attempt at t=1 fails but the first backoff
        // retry at t=1+2=3... still overlaps vm 1 (ends 2). Use end 2:
        // departure fires at 3, so a retry starting at 3 fits.
        let mut engine = OnlineEngine::new(&fleet(2));
        engine.arrive(vm(0, 1, 10, 8.0)).unwrap(); // server 0
        engine.arrive(vm(1, 1, 2, 8.0)).unwrap(); // server 1, departs at 3
        let victims = engine.set_down(ServerId(0)).unwrap();
        let outcome = engine.repair(victims[0], 3, 2);
        match outcome {
            RepairOutcome::Rehosted {
                server,
                start,
                attempt,
            } => {
                assert_eq!(server, ServerId(1));
                assert_eq!(start, 3);
                assert_eq!(attempt, 1);
            }
            RepairOutcome::Shed => panic!("retry should have succeeded"),
        }
        // Conservation: committed cost is still retired + live.
        let recomputed =
            engine.retired_cost() + engine.ledgers().iter().map(|l| l.cost()).sum::<f64>();
        assert!((engine.committed_cost() - recomputed).abs() < 1e-9);
    }

    #[test]
    fn drain_departs_everything() {
        let mut engine = OnlineEngine::new(&fleet(2));
        engine.arrive(vm(0, 1, 10, 1.0)).unwrap();
        engine.arrive(vm(1, 1, 10, 1.0)).unwrap();
        assert_eq!(engine.drain(), 2);
        assert_eq!(engine.live_count(), 0);
        assert_eq!(engine.stats().departed, 2);
    }
}
