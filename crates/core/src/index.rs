//! The candidate set of the Eq. 7 argmin ("cheapest feasible server").
//!
//! A server that hosts nothing scores exactly like every other empty
//! server of its spec class (see [`crate::classes`]), and the strict
//! `<` of an ascending-id scan keeps the lowest id on ties. So only two
//! kinds of server can win an argmin: *awake* servers (hosting at least
//! one piece) and the lowest-id *pristine* (up, empty) server of each
//! class. [`CandidateIndex`] keeps exactly that set, in ascending id
//! order, so a decision costs O(awake + classes) instead of O(fleet).
//!
//! Scoring the index in ascending order reproduces the full pruned scan
//! bit for bit: the same servers are scored in the same order, so the
//! winner, its delta and every tally of [`Argmin`] (including exact
//! ties) are what a walk over all servers would report.

use std::collections::BTreeSet;

use esvm_simcore::{ServerId, ServerSpec};

/// Where a server sits in the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Up and empty: interchangeable with its class twins.
    Pristine,
    /// Up and hosting at least one piece: always a candidate.
    Awake,
    /// Out of service: never a candidate.
    Down,
}

/// The servers an Eq. 7 argmin must score: every awake server plus the
/// lowest-id pristine server of each spec class, ascending by id.
///
/// The owner tells the index about four transitions — [`hosted`],
/// [`drained`], [`down`] and [`up`] — and scores candidates with
/// [`argmin`]. Every server starts up and pristine.
///
/// ```
/// use esvm_core::CandidateIndex;
/// use esvm_simcore::{PowerModel, Resources, ServerId, ServerSpec};
///
/// // Three identical servers: one class, so one representative.
/// let fleet: Vec<_> = (0..3)
///     .map(|i| ServerSpec::new(i, Resources::new(8.0, 16.0), PowerModel::new(100.0, 200.0), 50.0))
///     .collect();
/// let mut index = CandidateIndex::new(&fleet);
/// assert_eq!(index.candidates(), &[0]);
/// assert_eq!(index.pruned(), 2);
/// index.hosted(ServerId(0)); // server 0 wakes; server 1 now represents the class
/// assert_eq!(index.candidates(), &[0, 1]);
/// assert_eq!(index.pruned(), 1);
/// ```
///
/// [`hosted`]: CandidateIndex::hosted
/// [`drained`]: CandidateIndex::drained
/// [`down`]: CandidateIndex::down
/// [`up`]: CandidateIndex::up
/// [`argmin`]: CandidateIndex::argmin
#[derive(Debug, Clone)]
pub struct CandidateIndex {
    /// Spec class of each server.
    class_of: Vec<usize>,
    state: Vec<State>,
    /// Up, pristine servers per spec class, ascending id. Only the
    /// first member of each set is a candidate.
    pristine: Vec<BTreeSet<u32>>,
    /// Awake servers plus class representatives, ascending id.
    candidates: Vec<u32>,
    /// Pristine servers over all classes.
    n_pristine: usize,
    /// Classes with at least one pristine server (= representatives).
    n_reps: usize,
}

impl CandidateIndex {
    /// An index over `servers` with every server up and pristine.
    pub fn new(servers: &[ServerSpec]) -> Self {
        let classes = crate::classes::spec_classes(servers);
        let mut pristine = vec![BTreeSet::new(); classes.count];
        for (i, &class) in classes.class_of.iter().enumerate() {
            pristine[class].insert(i as u32);
        }
        let mut candidates: Vec<u32> = pristine
            .iter()
            .filter_map(|set| set.first().copied())
            .collect();
        candidates.sort_unstable();
        Self {
            state: vec![State::Pristine; servers.len()],
            class_of: classes.class_of,
            n_pristine: servers.len(),
            n_reps: candidates.len(),
            pristine,
            candidates,
        }
    }

    /// The servers an argmin scores, ascending by id.
    pub fn candidates(&self) -> &[u32] {
        &self.candidates
    }

    /// Pristine servers standing behind a lower-id twin of their class:
    /// Σ over classes of (pristine members − 1). They are never visited.
    pub fn pruned(&self) -> u64 {
        (self.n_pristine - self.n_reps) as u64
    }

    /// Whether `server` is marked down.
    pub fn is_down(&self, server: ServerId) -> bool {
        self.state.get(server.index()) == Some(&State::Down)
    }

    /// Scores every candidate in ascending id order; `score` returns
    /// the incremental cost, or `None` when the server cannot host.
    pub fn argmin(&self, score: impl FnMut(usize) -> Option<f64>) -> Argmin {
        Argmin::over(self.candidates.iter().copied(), self.pruned(), score)
    }

    /// `server` now hosts at least one piece. A no-op for awake or down
    /// servers.
    pub fn hosted(&mut self, server: ServerId) {
        let i = server.index();
        if self.state[i] == State::Pristine {
            self.leave_pristine(i);
            self.state[i] = State::Awake;
            self.insert_candidate(i as u32);
        }
    }

    /// The last piece left the up server `server`: it rejoins its class
    /// pool. A no-op unless the server is awake.
    pub fn drained(&mut self, server: ServerId) {
        let i = server.index();
        if self.state[i] == State::Awake {
            self.remove_candidate(i as u32);
            self.join_pristine(i);
        }
    }

    /// `server` leaves service and is never scored until [`up`](Self::up).
    pub fn down(&mut self, server: ServerId) {
        let i = server.index();
        match self.state[i] {
            State::Awake => self.remove_candidate(i as u32),
            State::Pristine => self.leave_pristine(i),
            State::Down => {}
        }
        self.state[i] = State::Down;
    }

    /// `server` returns to service, awake if it still hosts pieces
    /// (`busy`), pristine otherwise. A no-op unless it is down.
    pub fn up(&mut self, server: ServerId, busy: bool) {
        let i = server.index();
        if self.state[i] != State::Down {
            return;
        }
        if busy {
            self.state[i] = State::Awake;
            self.insert_candidate(i as u32);
        } else {
            self.join_pristine(i);
        }
    }

    /// Removes the pristine server `i` from its class pool, promoting
    /// the next member to representative when `i` was it.
    fn leave_pristine(&mut self, i: usize) {
        let set = &mut self.pristine[self.class_of[i]];
        let was_rep = set.first() == Some(&(i as u32));
        set.remove(&(i as u32));
        let next = set.first().copied();
        self.n_pristine -= 1;
        if was_rep {
            self.remove_candidate(i as u32);
            match next {
                Some(rep) => self.insert_candidate(rep),
                None => self.n_reps -= 1,
            }
        }
    }

    /// Adds the up server `i` to its class pool as pristine, taking over
    /// as representative when it is the lowest id.
    fn join_pristine(&mut self, i: usize) {
        let set = &mut self.pristine[self.class_of[i]];
        let old_rep = set.first().copied();
        set.insert(i as u32);
        self.n_pristine += 1;
        self.state[i] = State::Pristine;
        match old_rep {
            None => {
                self.n_reps += 1;
                self.insert_candidate(i as u32);
            }
            Some(rep) if (i as u32) < rep => {
                self.remove_candidate(rep);
                self.insert_candidate(i as u32);
            }
            Some(_) => {}
        }
    }

    fn insert_candidate(&mut self, id: u32) {
        if let Err(at) = self.candidates.binary_search(&id) {
            self.candidates.insert(at, id);
        }
    }

    fn remove_candidate(&mut self, id: u32) {
        if let Ok(at) = self.candidates.binary_search(&id) {
            self.candidates.remove(at);
        }
    }
}

/// The outcome of one Eq. 7 argmin, with the tallies the explain
/// records and `miec.*` counters report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Argmin {
    /// The winner and its incremental cost: the least delta, lowest id
    /// on exact ties. `None` when no scored server can host.
    pub best: Option<(f64, ServerId)>,
    /// Servers scored (they could host).
    pub candidates: u64,
    /// Servers visited that could not host.
    pub unfit: u64,
    /// Servers skipped unvisited behind a class representative.
    pub pruned: u64,
    /// Scored servers whose delta exactly tied the best so far.
    pub fp_ties: u64,
}

impl Argmin {
    /// Folds `ids` (ascending) into an argmin with a strict `<`, so the
    /// lowest id wins exact ties. `pruned` is carried into the result
    /// as is. With `0..n` this is the full-scan oracle.
    pub fn over(
        ids: impl IntoIterator<Item = u32>,
        pruned: u64,
        mut score: impl FnMut(usize) -> Option<f64>,
    ) -> Self {
        let mut out = Self {
            pruned,
            ..Self::default()
        };
        for id in ids {
            let Some(delta) = score(id as usize) else {
                out.unfit += 1;
                continue;
            };
            out.candidates += 1;
            match out.best {
                Some((cost, _)) if delta < cost => out.best = Some((delta, ServerId(id))),
                Some((cost, _)) if delta == cost => out.fp_ties += 1,
                Some(_) => {}
                None => out.best = Some((delta, ServerId(id))),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esvm_simcore::{PowerModel, Resources};

    /// Servers 0, 2, 4 in class A and 1, 3 in class B.
    fn mixed() -> CandidateIndex {
        let fleet: Vec<_> = (0..5u32)
            .map(|i| {
                let idle = if i % 2 == 0 { 100.0 } else { 80.0 };
                ServerSpec::new(
                    i,
                    Resources::new(8.0, 16.0),
                    PowerModel::new(idle, 200.0),
                    50.0,
                )
            })
            .collect();
        CandidateIndex::new(&fleet)
    }

    #[test]
    fn transitions_keep_awake_plus_lowest_pristine_per_class() {
        let mut index = mixed();
        assert_eq!(index.candidates(), &[0, 1]);
        assert_eq!(index.pruned(), 3);
        index.hosted(ServerId(0));
        assert_eq!(index.candidates(), &[0, 1, 2]);
        assert_eq!(index.pruned(), 2);
        index.hosted(ServerId(0)); // already awake
        assert_eq!(index.candidates(), &[0, 1, 2]);
        index.down(ServerId(1));
        assert_eq!(index.candidates(), &[0, 2, 3]);
        assert!(index.is_down(ServerId(1)));
        index.drained(ServerId(1)); // down servers stay out
        assert_eq!(index.candidates(), &[0, 2, 3]);
        index.up(ServerId(1), false);
        assert_eq!(index.candidates(), &[0, 1, 2]);
        index.drained(ServerId(0));
        assert_eq!(index.candidates(), &[0, 1]);
        assert_eq!(index.pruned(), 3);
        index.down(ServerId(3));
        index.up(ServerId(3), true);
        assert_eq!(index.candidates(), &[0, 1, 3]);
        assert_eq!(index.pruned(), 2);
    }

    #[test]
    fn a_class_with_no_pristine_member_contributes_nothing() {
        let mut index = mixed();
        index.hosted(ServerId(1));
        index.hosted(ServerId(3));
        assert_eq!(index.candidates(), &[0, 1, 3]);
        assert_eq!(index.pruned(), 2);
        index.drained(ServerId(3));
        assert_eq!(index.candidates(), &[0, 1, 3]);
        assert_eq!(index.pruned(), 2);
    }

    #[test]
    fn argmin_takes_the_lowest_id_on_ties_and_counts_in_order() {
        let scores = [Some(3.0), None, Some(2.0), Some(2.0), Some(5.0)];
        let out = Argmin::over(0..5, 7, |i| scores[i]);
        assert_eq!(out.best, Some((2.0, ServerId(2))));
        assert_eq!(
            (out.candidates, out.unfit, out.pruned, out.fp_ties),
            (4, 1, 7, 1)
        );
        assert_eq!(Argmin::over(0..2, 0, |_| None).best, None);
    }
}
