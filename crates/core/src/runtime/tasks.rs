//! The master's task/attempt table (§3.2.3, §3.2.6): which tasks are
//! pending, running or committed, and every attempt the master still
//! holds a record of.
//!
//! The table is pure state: no channels, stores, journal or clock reads
//! (`now` is an argument), so each transition is testable without a
//! cluster. [`super::master::Master`] performs the I/O a
//! transition implies — unpinning the blocks of a retired attempt,
//! journaling, appending to the WAL.
//!
//! An attempt record lives from [`TaskTable::begin`] until the attempt's
//! terminal report, the loss of its executor, or a master restart —
//! whichever comes first. Whether the attempt is still *current* (may
//! commit its task) is a separate fact: a speculative race's loser stops
//! being current when its rival commits, but its record — and with it
//! its input pins — stays until one of those three events retires it.
//!
//! # Need-driven revert
//!
//! A committed task can outlive every copy of its output. The table keeps
//! one invariant about such *dataless* commits, restored by
//! [`TaskTable::settle`] after every executor loss and every master
//! recovery: **a committed task with no surviving copy has every consumer
//! task committed**. A lost output is therefore recomputed only when some
//! consumer still has to read it — an eviction costs the victim's
//! unpushed work in the running stage (§3.2.5), not the inputs of stages
//! that finished long ago — and §3.2.6's ancestor recomputation happens
//! on demand: a later loss that reverts a consumer pulls the dataless
//! producer back in with it.

use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::ops::Range;
use std::time::Instant;

use pado_dag::DepType;

use crate::compiler::FopId;
use crate::runtime::message::{AttemptId, ExecId};
use crate::runtime::store::BlockRef;

#[derive(Debug, Clone)]
enum TaskState {
    Pending,
    /// The current attempts (more than one only while a speculative
    /// duplicate races the original; first commit wins).
    Running(Vec<AttemptId>),
    /// Committed; the executors holding the output.
    Done(Vec<ExecId>),
}

/// Everything the master knows about one launched attempt.
#[derive(Debug)]
pub(crate) struct Attempt {
    pub(crate) fop: FopId,
    pub(crate) index: usize,
    pub(crate) exec: ExecId,
    pub(crate) launched_at: Instant,
    pub(crate) speculative: bool,
    /// Input blocks pinned on `exec` at launch; whoever retires the
    /// record releases them.
    pub(crate) pins: Vec<BlockRef>,
}

/// What a terminal report (`TaskDone` / `TaskFailed`) means to the table.
#[derive(Debug)]
pub(crate) enum Report {
    /// This attempt already reported: the delivery is a complete no-op.
    Duplicate,
    /// First report of an attempt that may no longer commit (a race's
    /// loser, or one retired by executor loss or a restart). Carries the
    /// record when one was still held.
    Stale(Option<Attempt>),
    /// First report of a current attempt. The record is detached from its
    /// task, which is pending again unless a duplicate still runs; the
    /// caller either leaves it there (failure, discarded report) or
    /// follows with [`TaskTable::commit`].
    Current(Attempt),
}

/// What an executor loss did to the commits it left without a copy.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Lost {
    /// Commits pending again because a consumer still needs them —
    /// consumers first, the order they journal in.
    pub(crate) reverted: Vec<(FopId, usize)>,
    /// Commits whose last copy died with this executor and that nobody
    /// needs: still committed, in `(fop, index)` order.
    pub(crate) dropped: Vec<(FopId, usize)>,
}

/// The consumer task indices of producer task `index` along an edge of
/// type `dep` into a fop of `dst_par` tasks: the inverse of
/// [`required_src_indices`](super::master::required_src_indices).
pub(crate) fn consumer_indices(dep: DepType, index: usize, dst_par: usize) -> Range<usize> {
    match dep {
        DepType::OneToOne => index..dst_par.min(index + 1),
        DepType::OneToMany | DepType::ManyToMany => 0..dst_par,
        DepType::ManyToOne => {
            let d = index % dst_par.max(1);
            d..dst_par.min(d + 1)
        }
    }
}

/// Every fop, each after all the fops it feeds; among the fops free to
/// come next, the highest id. Fop ids usually ascend along edges — then
/// this is simply descending id — but a side input wired into the
/// interior of a fused chain can run from a higher id to a lower one.
fn consumers_first(outs: &[Vec<(FopId, DepType)>]) -> Vec<FopId> {
    let mut producers: Vec<Vec<FopId>> = vec![Vec::new(); outs.len()];
    for (f, edges) in outs.iter().enumerate() {
        for &(dst, _) in edges {
            producers[dst].push(f);
        }
    }
    let mut unplaced: Vec<usize> = outs.iter().map(Vec::len).collect();
    let mut free: BinaryHeap<FopId> = (0..outs.len()).filter(|&f| unplaced[f] == 0).collect();
    let mut order = Vec::with_capacity(outs.len());
    while let Some(f) = free.pop() {
        order.push(f);
        for &p in &producers[f] {
            unplaced[p] -= 1;
            if unplaced[p] == 0 {
                free.push(p);
            }
        }
    }
    assert_eq!(order.len(), outs.len(), "the plan's fops form a cycle");
    order
}

#[derive(Debug)]
pub(crate) struct TaskTable {
    tasks: Vec<Vec<TaskState>>,
    /// Committed tasks per fop, kept by [`TaskTable::set`].
    done: Vec<usize>,
    /// Per fop, the `(consumer fop, dependency)` of each out-edge. A fop
    /// without any is terminal: its commits live in the job sink and are
    /// never dataless.
    outs: Vec<Vec<(FopId, DepType)>>,
    /// The order [`TaskTable::settle`] walks fops in.
    consumers_first: Vec<FopId>,
    /// Whether a task was ever launched (a later launch is a relaunch).
    first_attempted: Vec<Vec<bool>>,
    /// User-code failures per task, toward the retry budget. In-memory
    /// state of one master: a restart clears it.
    failures: Vec<Vec<usize>>,
    /// Every attempt whose terminal report was processed: the idempotence
    /// keystone. The dedup windows suppress most duplicate deliveries; a
    /// replay that slips past them hits this set and changes nothing.
    /// Part of the replicated completion log: recovery restores it.
    completed: BTreeSet<AttemptId>,
    next_attempt: AttemptId,
    /// Every attempt launched and not yet retired. One is *current*
    /// while its task lists it as running.
    attempts: BTreeMap<AttemptId, Attempt>,
    /// Records in `attempts` per executor id: the task bodies it has not
    /// reported on yet. Kept by `begin`, `report` and `executor_lost`.
    held: Vec<usize>,
}

impl TaskTable {
    /// Every task pending. `outs[f]` lists fop `f`'s out-edges as
    /// `(consumer fop, dependency)`.
    pub(crate) fn new(parallelism: &[usize], outs: Vec<Vec<(FopId, DepType)>>) -> Self {
        debug_assert_eq!(parallelism.len(), outs.len());
        TaskTable {
            consumers_first: consumers_first(&outs),
            tasks: parallelism
                .iter()
                .map(|&p| vec![TaskState::Pending; p])
                .collect(),
            done: vec![0; parallelism.len()],
            outs,
            first_attempted: parallelism.iter().map(|&p| vec![false; p]).collect(),
            failures: parallelism.iter().map(|&p| vec![0; p]).collect(),
            completed: BTreeSet::new(),
            next_attempt: 1,
            attempts: BTreeMap::new(),
            held: Vec::new(),
        }
    }

    fn state(&self, fop: FopId, index: usize) -> Option<&TaskState> {
        self.tasks.get(fop).and_then(|ts| ts.get(index))
    }

    pub(crate) fn is_pending(&self, fop: FopId, index: usize) -> bool {
        matches!(self.state(fop, index), Some(TaskState::Pending))
    }

    /// Whether the task is committed. False for a slot the table does not
    /// have (a key from a shape that a recovery rolled back).
    pub(crate) fn is_done(&self, fop: FopId, index: usize) -> bool {
        matches!(self.state(fop, index), Some(TaskState::Done(_)))
    }

    pub(crate) fn fop_done(&self, fop: FopId) -> bool {
        self.done[fop] == self.tasks[fop].len()
    }

    /// The task count of a fop, fixed at construction from the plan.
    pub(crate) fn width(&self, fop: FopId) -> usize {
        self.tasks[fop].len()
    }

    /// Attempt records held on `exec`: the slots it has in use.
    pub(crate) fn held(&self, exec: ExecId) -> usize {
        self.held.get(exec).copied().unwrap_or(0)
    }

    /// Charges the task's retry budget a user-code failure; returns the sum.
    pub(crate) fn charge_failure(&mut self, fop: FopId, index: usize) -> usize {
        self.failures[fop][index] += 1;
        self.failures[fop][index]
    }

    #[cfg(test)]
    pub(crate) fn failures(&self, fop: FopId, index: usize) -> usize {
        self.failures[fop][index]
    }

    /// The one write to a task's state, so the per-fop committed count
    /// cannot drift. Returns the state it replaced.
    fn set(&mut self, fop: FopId, index: usize, state: TaskState) -> TaskState {
        let old = std::mem::replace(&mut self.tasks[fop][index], state);
        let is_done = |t: &TaskState| matches!(t, TaskState::Done(_));
        self.done[fop] -= usize::from(is_done(&old));
        self.done[fop] += usize::from(is_done(&self.tasks[fop][index]));
        old
    }

    /// Where a committed output lives; empty when the task is not
    /// committed (or its only copy is the job sink's).
    pub(crate) fn locations(&self, fop: FopId, index: usize) -> &[ExecId] {
        match self.state(fop, index) {
            Some(TaskState::Done(locations)) => locations,
            _ => &[],
        }
    }

    pub(crate) fn locations_mut(&mut self, fop: FopId, index: usize) -> Option<&mut Vec<ExecId>> {
        match &mut self.tasks[fop][index] {
            TaskState::Done(locations) => Some(locations),
            _ => None,
        }
    }

    /// Every committed task with its locations, in `(fop, index)` order.
    pub(crate) fn committed(&self) -> impl Iterator<Item = (FopId, usize, &[ExecId])> {
        self.tasks.iter().enumerate().flat_map(|(f, ts)| {
            ts.iter().enumerate().filter_map(move |(i, t)| match t {
                TaskState::Done(locations) => Some((f, i, locations.as_slice())),
                _ => None,
            })
        })
    }

    pub(crate) fn first_attempted(&self) -> &[Vec<bool>] {
        &self.first_attempted
    }

    pub(crate) fn next_attempt(&self) -> AttemptId {
        self.next_attempt
    }

    /// The completed-attempt set, ascending.
    pub(crate) fn completed(&self) -> Vec<AttemptId> {
        self.completed.iter().copied().collect()
    }

    /// The one "may this attempt still commit its task" test.
    pub(crate) fn is_current(&self, attempt: AttemptId) -> bool {
        self.attempts.get(&attempt).is_some_and(|a| {
            matches!(&self.tasks[a.fop][a.index], TaskState::Running(ids) if ids.contains(&attempt))
        })
    }

    /// Total current attempts.
    pub(crate) fn running(&self) -> usize {
        self.attempts
            .keys()
            .filter(|&&id| self.is_current(id))
            .count()
    }

    /// The tasks of `fop` with exactly one current attempt, with that
    /// attempt (the straggler candidates: duplicates never stack).
    pub(crate) fn sole_attempts(&self, fop: FopId) -> impl Iterator<Item = (usize, &Attempt)> {
        self.tasks[fop]
            .iter()
            .enumerate()
            .filter_map(|(i, t)| match t {
                TaskState::Running(ids) if ids.len() == 1 => Some((i, self.attempts.get(&ids[0])?)),
                _ => None,
            })
    }

    /// Registers a new current attempt: its task's only one, or —
    /// `speculative` — a duplicate racing the attempt already running.
    /// Returns the attempt's id and whether the task had been launched
    /// before.
    pub(crate) fn begin(&mut self, a: Attempt) -> (AttemptId, bool) {
        let id = self.next_attempt;
        self.next_attempt += 1;
        let relaunch = std::mem::replace(&mut self.first_attempted[a.fop][a.index], true);
        if let TaskState::Running(ids) = &mut self.tasks[a.fop][a.index] {
            ids.push(id);
        } else {
            self.set(a.fop, a.index, TaskState::Running(vec![id]));
        }
        self.held.resize(self.held.len().max(a.exec + 1), 0);
        self.held[a.exec] += 1;
        self.attempts.insert(id, a);
        (id, relaunch)
    }

    /// Takes an attempt off its task, if it is current; the last one
    /// leaving puts the task back to pending. Returns whether it was.
    fn detach(tasks: &mut [Vec<TaskState>], id: AttemptId, a: &Attempt) -> bool {
        let t = &mut tasks[a.fop][a.index];
        let TaskState::Running(ids) = t else {
            return false;
        };
        let before = ids.len();
        ids.retain(|&x| x != id);
        let was_current = ids.len() < before;
        if ids.is_empty() {
            *t = TaskState::Pending;
        }
        was_current
    }

    /// The idempotence gate every terminal report passes first: retires
    /// the attempt's record and says whether the report still counts.
    pub(crate) fn report(&mut self, attempt: AttemptId) -> Report {
        if !self.completed.insert(attempt) {
            return Report::Duplicate;
        }
        let Some(a) = self.attempts.remove(&attempt) else {
            return Report::Stale(None);
        };
        self.held[a.exec] -= 1;
        if Self::detach(&mut self.tasks, attempt, &a) {
            Report::Current(a)
        } else {
            Report::Stale(Some(a))
        }
    }

    /// Commits task `(fop, index)` at `locations`. Every attempt still
    /// current on it lost the race: returned, and no longer current, but
    /// its record (and pins) stays until its own report or the loss of
    /// its executor.
    pub(crate) fn commit(
        &mut self,
        fop: FopId,
        index: usize,
        locations: Vec<ExecId>,
    ) -> Vec<AttemptId> {
        match self.set(fop, index, TaskState::Done(locations)) {
            TaskState::Running(losers) => losers,
            _ => Vec::new(),
        }
    }

    /// Retires every attempt on a lost executor (a task falls back to
    /// pending only when no attempt of it survives elsewhere), forgets
    /// `exec` as a location, and [settles](TaskTable::settle) the commits
    /// left without a copy: reverted when a consumer still needs them,
    /// dropped — still committed — otherwise.
    pub(crate) fn executor_lost(&mut self, exec: ExecId) -> Lost {
        let tasks = &mut self.tasks;
        self.attempts.retain(|&id, a| {
            if a.exec == exec {
                Self::detach(tasks, id, a);
            }
            a.exec != exec
        });
        if let Some(n) = self.held.get_mut(exec) {
            *n = 0;
        }
        let mut dropped = Vec::new();
        for (f, ts) in self.tasks.iter_mut().enumerate() {
            for (i, t) in ts.iter_mut().enumerate() {
                if let TaskState::Done(locations) = t {
                    let before = locations.len();
                    locations.retain(|&l| l != exec);
                    if locations.is_empty() && before > 0 {
                        dropped.push((f, i));
                    }
                }
            }
        }
        let reverted = self.settle();
        dropped.retain(|&(f, i)| self.dataless(f, i));
        Lost { reverted, dropped }
    }

    /// Whether a task is committed with no copy of its output left
    /// anywhere (a terminal task's copy is the job sink's).
    fn dataless(&self, fop: FopId, index: usize) -> bool {
        !self.outs[fop].is_empty()
            && matches!(&self.tasks[fop][index], TaskState::Done(l) if l.is_empty())
    }

    /// Whether `(fop, index)` breaks the invariant: dataless, with some
    /// consumer task not committed.
    fn unsettled(&self, fop: FopId, index: usize) -> bool {
        self.dataless(fop, index)
            && self.outs[fop].iter().any(|&(dst, dep)| {
                consumer_indices(dep, index, self.tasks[dst].len()).any(|d| !self.is_done(dst, d))
            })
    }

    /// Restores the invariant: every dataless commit with a consumer that
    /// is not committed goes back to pending. The walk is consumers first,
    /// so a revert is seen by the producers it makes needed, and it covers
    /// *every* dataless commit, not just one loss's: a producer dropped by
    /// an earlier loss comes back when a later one reverts its consumer.
    /// Returns the reverted tasks in walk order.
    pub(crate) fn settle(&mut self) -> Vec<(FopId, usize)> {
        let mut reverted = Vec::new();
        for at in 0..self.consumers_first.len() {
            let f = self.consumers_first[at];
            for i in 0..self.tasks[f].len() {
                if self.unsettled(f, i) {
                    self.set(f, i, TaskState::Pending);
                    reverted.push((f, i));
                }
            }
        }
        debug_assert!(
            (0..self.tasks.len()).all(|f| (0..self.tasks[f].len()).all(|i| !self.unsettled(f, i))),
            "a dataless commit still has an uncommitted consumer"
        );
        reverted
    }

    /// The restarted master's table: every task pending with its retry
    /// budget whole, no executor holding a record,
    /// the completed set *replaced* by the recovered completion log
    /// (pre-crash reports the network replays must still bounce), and
    /// attempt ids fenced past everything the dead master issued.
    /// `first_attempted` rows that do not fit the plan start over.
    /// Returns the pre-crash attempt records, whose pins the caller frees.
    pub(crate) fn reset(
        &mut self,
        first_attempted: &[Vec<bool>],
        completed: impl IntoIterator<Item = AttemptId>,
        max_attempt: AttemptId,
    ) -> Vec<Attempt> {
        let fenced = std::mem::take(&mut self.attempts).into_values().collect();
        let outs = std::mem::take(&mut self.outs);
        let parallelism: Vec<usize> = self.tasks.iter().map(Vec::len).collect();
        let fits = first_attempted.len() == parallelism.len();
        *self = TaskTable {
            first_attempted: parallelism
                .iter()
                .enumerate()
                .map(|(f, &p)| match first_attempted.get(f) {
                    Some(row) if fits && row.len() == p => row.clone(),
                    _ => vec![false; p],
                })
                .collect(),
            completed: completed.into_iter().collect(),
            next_attempt: max_attempt.max(self.next_attempt) + 1_000_000,
            ..TaskTable::new(&parallelism, outs)
        };
        fenced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PIN: BlockRef = BlockRef::Output { fop: 0, index: 0 };

    /// Two fops: 0 with two tasks, gathered by fop 1's one.
    fn table() -> TaskTable {
        TaskTable::new(&[2, 1], vec![vec![(1, DepType::ManyToOne)], vec![]])
    }

    /// A chain P(0) -> C(1) -> D(2) -> sink(3), one-to-one, two tasks
    /// each; every task committed on its own executor `10 * fop + index`
    /// unless `pending` lists it. The sink's copies are the job's.
    fn chain(pending: &[(FopId, usize)]) -> TaskTable {
        let one = |dst| vec![(dst, DepType::OneToOne)];
        let mut t = TaskTable::new(&[2; 4], vec![one(1), one(2), one(3), vec![]]);
        for f in 0..4 {
            for i in 0..2 {
                if !pending.contains(&(f, i)) {
                    t.commit(f, i, if f == 3 { vec![] } else { vec![10 * f + i] });
                }
            }
        }
        t
    }

    fn attempt(fop: FopId, index: usize, exec: ExecId, speculative: bool) -> Attempt {
        Attempt {
            fop,
            index,
            exec,
            launched_at: Instant::now(),
            speculative,
            pins: vec![PIN],
        }
    }

    fn begin(t: &mut TaskTable, fop: FopId, index: usize, exec: ExecId, spec: bool) -> AttemptId {
        t.begin(attempt(fop, index, exec, spec)).0
    }

    #[test]
    fn a_second_terminal_report_is_a_no_op() {
        let mut t = table();
        let (a, relaunch) = t.begin(attempt(0, 0, 5, false));
        assert!(!relaunch && t.is_current(a) && t.running() == 1);
        assert_eq!((t.held(5), t.held(6)), (1, 0));

        let Report::Current(rec) = t.report(a) else {
            panic!("first report of a current attempt");
        };
        assert_eq!(
            (rec.fop, rec.index, rec.exec, &rec.pins[..]),
            (0, 0, 5, &[PIN][..])
        );
        assert!(t.is_pending(0, 0), "detached: the task may relaunch");
        assert_eq!((t.running(), t.held(5)), (0, 0));

        let before = format!("{t:?}");
        assert!(matches!(t.report(a), Report::Duplicate));
        assert_eq!(format!("{t:?}"), before, "a duplicate changes nothing");

        // The next launch of the task is a relaunch under a fresh id.
        let (b, relaunch) = t.begin(attempt(0, 0, 5, false));
        assert!(relaunch && b > a);
        // A report for an attempt the table never issued is stale, once,
        // and frees no slot of the attempt that does run there.
        assert!(matches!(t.report(99), Report::Stale(None)));
        assert!(matches!(t.report(99), Report::Duplicate));
        assert_eq!(t.held(5), 1);
    }

    #[test]
    fn commit_returns_the_losers_and_their_pins_outlive_currency() {
        let mut t = table();
        let original = begin(&mut t, 0, 0, 1, false);
        let duplicate = begin(&mut t, 0, 0, 2, true);
        assert_eq!(t.sole_attempts(0).count(), 0, "a race is not a straggler");
        assert_eq!(t.running(), 2);

        // The duplicate reports first and wins.
        let Report::Current(win) = t.report(duplicate) else {
            panic!("the duplicate is current");
        };
        assert!(win.speculative);
        assert_eq!(t.commit(0, 0, vec![2]), vec![original]);
        assert!(t.is_done(0, 0));
        assert_eq!(t.locations(0, 0), &[2]);
        assert_eq!(t.running(), 0);
        assert!(!t.is_current(original));
        assert_eq!((t.held(1), t.held(2)), (1, 0), "a loser still runs");

        // The loser's record — pins included — waits for its own report.
        let Report::Stale(Some(loser)) = t.report(original) else {
            panic!("the loser's first report is stale and still carries its record");
        };
        assert_eq!((loser.exec, &loser.pins[..]), (1, &[PIN][..]));
        assert!(t.is_done(0, 0), "a stale report leaves the commit alone");
        assert!(matches!(t.report(original), Report::Duplicate));
        assert_eq!(t.held(1), 0);
    }

    #[test]
    fn executor_loss_retires_only_that_executors_attempts() {
        let mut t = table();
        let original = begin(&mut t, 0, 0, 1, false);
        let duplicate = begin(&mut t, 0, 0, 2, true);
        let lonely = begin(&mut t, 0, 1, 1, false);
        // Fop 1's output lives on executors 1 and 3.
        begin(&mut t, 1, 0, 3, false);
        t.commit(1, 0, vec![1, 3]);

        assert_eq!((t.held(1), t.held(2), t.held(3)), (2, 1, 1));
        assert_eq!(t.executor_lost(1), Lost::default());
        assert_eq!((t.held(1), t.held(2), t.held(3)), (0, 1, 1));
        assert!(!t.is_current(original) && !t.is_current(lonely));
        assert!(
            t.is_current(duplicate),
            "the survivor keeps the task running"
        );
        assert!(!t.is_pending(0, 0));
        assert!(t.is_pending(0, 1), "no attempt of 0.1 survived");
        assert_eq!(t.running(), 1);
        assert_eq!(t.locations(1, 0), &[3], "the other copy survives");
        // The lost executor's records are gone: late reports carry nothing.
        assert!(matches!(t.report(original), Report::Stale(None)));

        // Fop 1 is terminal: losing its last executor copy changes
        // nothing, the sink has it.
        assert_eq!(t.executor_lost(3), Lost::default());
        assert!(t.is_done(1, 0) && t.locations(1, 0).is_empty());

        // A loser on a lost executor is retired with it, pins and all.
        let Report::Current(_) = t.report(duplicate) else {
            panic!("the duplicate is current");
        };
        let late = begin(&mut t, 0, 0, 6, false);
        begin(&mut t, 0, 0, 7, true);
        assert_eq!(t.commit(0, 0, vec![7]), vec![late, late + 1]);
        t.executor_lost(6);
        assert!(matches!(t.report(late), Report::Stale(None)));
    }

    #[test]
    fn reset_fences_attempt_ids_and_replaces_the_completed_set() {
        let mut t = table();
        let a = begin(&mut t, 0, 0, 1, false);
        let b = begin(&mut t, 0, 1, 2, false);
        assert!(matches!(t.report(a), Report::Current(_)));
        t.commit(0, 0, vec![1]);
        assert_eq!((t.charge_failure(0, 1), t.charge_failure(0, 1)), (1, 2));

        // The log saw attempt 40 complete and never heard of `a`'s report.
        let first = vec![vec![true, false], vec![true]];
        let fenced = t.reset(&first, [40], 57);
        assert_eq!(fenced.len(), 1, "b's record comes back for its pins");
        assert_eq!((fenced[0].exec, &fenced[0].pins[..]), (2, &[PIN][..]));
        assert!((0..2).all(|i| t.is_pending(0, i)) && t.running() == 0);
        assert_eq!(
            (t.held(2), t.failures(0, 1)),
            (0, 0),
            "both die with the master"
        );
        assert_eq!(t.completed(), vec![40], "replaced, not merged");
        assert_eq!(t.first_attempted(), &first[..]);
        assert!(t.next_attempt() > 57 && t.next_attempt() > b);
        assert!(matches!(t.report(40), Report::Duplicate));
        assert!(matches!(t.report(b), Report::Stale(None)));
        let (_, relaunch) = t.begin(attempt(0, 0, 1, false));
        assert!(relaunch, "the log remembers 0.0 was launched");

        // A log that issued fewer ids than the dead master still fences.
        let issued = t.next_attempt();
        let misfit = vec![vec![true, false], vec![true; 3]];
        t.reset(&misfit, [], 0);
        assert!(t.next_attempt() > issued);
        assert_eq!((t.width(0), t.width(1)), (2, 1), "the plan's shape");
        // Rows that do not fit the plan start over.
        assert_eq!(t.first_attempted()[1], vec![false]);
        assert_eq!(t.first_attempted()[0], vec![true, false]);
        t.reset(&[], [], 0);
        assert_eq!(t.first_attempted(), &[vec![false; 2], vec![false]][..]);
    }

    #[test]
    fn consumer_indices_invert_required_src_indices() {
        use crate::compiler::{InputSlot, PlanEdge};
        use crate::runtime::master::required_src_indices;
        for dep in [
            DepType::OneToOne,
            DepType::OneToMany,
            DepType::ManyToOne,
            DepType::ManyToMany,
        ] {
            let edge = PlanEdge {
                src: 0,
                dst: 1,
                dep,
                slot: InputSlot::Main(0),
                cache: false,
                cross_stage: false,
                member: 0,
            };
            for (src_par, dst_par) in [(1, 1), (4, 4), (5, 2), (2, 5), (3, 1), (1, 3)] {
                for si in 0..src_par {
                    let want: Vec<usize> = (0..dst_par)
                        .filter(|&d| {
                            required_src_indices(&edge, d, src_par, dst_par).any(|s| s == si)
                        })
                        .collect();
                    let got: Vec<usize> = consumer_indices(dep, si, dst_par).collect();
                    assert_eq!(got, want, "{dep:?} {si} of {src_par} -> {dst_par}");
                }
            }
        }
    }

    #[test]
    fn a_lost_output_nobody_needs_is_dropped_and_stays_committed() {
        let mut t = chain(&[]);
        let lost = t.executor_lost(0);
        assert_eq!(lost.reverted, vec![]);
        assert_eq!(lost.dropped, vec![(0, 0)]);
        assert!(t.is_done(0, 0) && t.locations(0, 0).is_empty());
        assert!(t.fop_done(0), "the stage stays complete");
        // Already dropped: a second loss does not report it again.
        assert_eq!(t.executor_lost(1).dropped, vec![(0, 1)]);
    }

    #[test]
    fn a_lost_output_a_consumer_still_needs_is_reverted() {
        // The consumer is pending.
        let mut t = chain(&[(1, 0)]);
        let lost = t.executor_lost(0);
        assert_eq!((lost.reverted, lost.dropped), (vec![(0, 0)], vec![]));
        assert!(t.is_pending(0, 0) && !t.fop_done(0));

        // The consumer is running.
        let mut t = chain(&[(1, 1)]);
        begin(&mut t, 1, 1, 7, false);
        assert_eq!(t.executor_lost(1).reverted, vec![(0, 1)]);
        // Its sibling's consumer committed: untouched by that loss,
        // dropped by its own.
        assert_eq!(t.locations(0, 0), &[0]);
        assert_eq!(t.executor_lost(0).dropped, vec![(0, 0)]);
    }

    #[test]
    fn one_loss_reverts_a_chain_consumers_first() {
        // P.0 and C.0 both live on executor 5; D.0 is pending. C is
        // needed by D, and P only because C reverts: a producers-first
        // walk would find C still committed and drop P.
        let mut t = chain(&[(2, 0)]);
        t.locations_mut(0, 0).expect("committed")[0] = 5;
        t.locations_mut(1, 0).expect("committed")[0] = 5;
        let lost = t.executor_lost(5);
        assert_eq!(lost.reverted, vec![(1, 0), (0, 0)], "consumers first");
        assert_eq!(lost.dropped, vec![]);
        assert!(t.is_pending(0, 0) && t.is_pending(1, 0));
        assert!(
            t.is_done(0, 1) && t.is_done(1, 1),
            "the other lane is whole"
        );
    }

    #[test]
    fn the_walk_follows_edges_not_fop_ids() {
        // P is fop 2, C fop 1, D fop 3: the edge P -> C runs against id
        // order (a side input into the interior of a fused chain does).
        let one = |dst| vec![(dst, DepType::OneToOne)];
        let mut t = TaskTable::new(&[1; 4], vec![vec![], one(3), one(1), vec![]]);
        t.commit(2, 0, vec![5]);
        t.commit(1, 0, vec![5]);
        let lost = t.executor_lost(5);
        assert_eq!(lost.reverted, vec![(1, 0), (2, 0)]);
        assert_eq!(lost.dropped, vec![]);
    }

    #[test]
    fn a_later_loss_pulls_a_dropped_producer_back_in() {
        let mut t = chain(&[(2, 0)]);
        // Loss 1 takes P.0's copy; C.0 has its own, so P.0 is dropped.
        assert_eq!(t.executor_lost(0).dropped, vec![(0, 0)]);
        // Loss 2 takes C.0's copy while D.0 still needs it: C.0 reverts,
        // and will need P.0 again.
        let lost = t.executor_lost(10);
        assert_eq!(lost.reverted, vec![(1, 0), (0, 0)]);
        assert_eq!(lost.dropped, vec![]);
    }

    #[test]
    fn sink_safe_and_multi_location_commits_are_untouched() {
        let mut t = chain(&[(1, 0), (3, 0)]);
        t.locations_mut(0, 0).expect("committed").push(9);
        assert_eq!(t.executor_lost(0), Lost::default());
        assert_eq!(t.locations(0, 0), &[9], "the other copy serves");
        // A terminal commit with an executor location loses only that.
        t.commit(3, 0, vec![9]);
        assert_eq!(t.executor_lost(9).reverted, vec![(0, 0)]);
        assert!(t.is_done(3, 0) && t.locations(3, 0).is_empty());
    }

    #[test]
    fn a_speculative_survivor_keeps_its_producers_needed() {
        let mut t = chain(&[(1, 0)]);
        let original = begin(&mut t, 1, 0, 0, false);
        let duplicate = begin(&mut t, 1, 0, 8, true);
        // Executor 0 held P.0's only copy and ran C.0's original. The
        // duplicate keeps C.0 running, so P.0 is still needed.
        let lost = t.executor_lost(0);
        assert!(!t.is_current(original) && t.is_current(duplicate));
        assert!(!t.is_pending(1, 0));
        assert_eq!((lost.reverted, lost.dropped), (vec![(0, 0)], vec![]));
    }

    #[test]
    fn the_committed_count_follows_every_transition() {
        let mut t = table();
        assert!(!t.fop_done(0));
        let a = begin(&mut t, 0, 0, 1, false);
        assert!(matches!(t.report(a), Report::Current(_)));
        t.commit(0, 0, vec![1]);
        t.commit(0, 1, vec![1]);
        assert!(t.fop_done(0) && !t.fop_done(1));
        // Fop 1 is pending, so both commits are needed.
        assert_eq!(t.executor_lost(1).reverted, vec![(0, 0), (0, 1)]);
        assert!(!t.fop_done(0));
        t.commit(0, 0, vec![2]);
        t.commit(0, 0, vec![3]);
        t.commit(0, 1, vec![2]);
        assert!(t.fop_done(0), "a recommit counts once");
        t.reset(&[], [], 0);
        assert!(!t.fop_done(0) && t.committed().count() == 0);
    }
}
