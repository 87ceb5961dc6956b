//! Replayable invariant checker for the execution journal.
//!
//! [`check`] replays a frozen [`EventJournal`] — no access to the plan,
//! the master, or live state; the journal's embedded
//! [`JournalMeta`](crate::runtime::journal::JournalMeta) is all it needs
//! — and asserts the runtime laws the paper's protocol implies:
//!
//! 1. **Commit-once** (§3.2): at most one committing attempt per task
//!    between reverts; each attempt reports terminally at most once, and
//!    only after it was launched.
//! 2. **Inputs-before-launch** (§3.2.3): a task launches only when every
//!    required producer output is committed and neither reverted nor
//!    dropped (`OutputDropped`) since that commit.
//! 3. **Placement** (§3.2): no launch on a blacklisted or drained
//!    executor or one already evicted / failed / declared dead; no commit
//!    arrives from a lost executor (the master must discard those
//!    reports).
//! 4. **Recovery** (§3.2.5–§3.2.6): every container loss or blacklisting
//!    is followed by a replacement container, and on a successful run
//!    every reverted task is re-committed, every task ends committed, and
//!    every stage ends complete.
//! 5. **Bounded retransmission**: no message is retransmitted more than
//!    the journal's configured bound.
//! 6. **Stage bracketing**: `StageCompleted` only fires on an open
//!    stage, `StageReopened` only on a complete one.
//! 7. **Retry budget**: per-task failure counts stay below
//!    `max_task_attempts` on successful runs (counts reset when a
//!    recovered master resets its bookkeeping).
//! 8. **Memory accounting**: every store event's self-reported occupancy
//!    stays within the executor's (possibly chaos-shrunk) budget; pinned
//!    blocks are never spilled; a spilled block is reloaded before it is
//!    pinned again; every resumed push was first deferred; an attempt
//!    hit by an injected allocation failure never commits.
//! 9. *Retired* with the reconfiguration transaction it checked; the
//!    number is not reused, which leaves eleven live laws.
//! 10. **Crash-consistent recovery**: an attempt that was in flight at a
//!     master recovery is fenced — the recovered master must never accept
//!     a terminal report for it (each task still commits exactly once
//!     across the crash, which laws 1 and the terminal-once rule then
//!     enforce on the continuation); every `WalRecovered` pairs with a
//!     preceding `MasterRecovered`; and on a successful run the two
//!     counts are equal — the WAL is the only way a master recovers — so
//!     the journal of a recovered run is a consistent continuation of
//!     the pre-crash prefix.
//! 11. **Aborts fail well**: a run the master declared wedged
//!     (`RunAborted`, journaled before it cancels the run) still
//!     quiesces its worker pool — a `PoolQuiesced` event must follow the
//!     abort marker, and it must report zero jobs still in flight; and no run, aborted or not, may leak a worker
//!     thread (`PoolWorkerDetached` is always a violation — a healthy
//!     shutdown unblocks every job via the cancel token, so a detach
//!     means a worker outlived the shutdown grace). This law holds
//!     regardless of the `success` flag: failing well is part of the
//!     protocol.
//! 12. **An eviction costs what the paper says** (§3.2.5): reverts and
//!     drops happen only while a container loss or a master recovery is
//!     being handled. A `TaskReverted` that follows a loss (not a
//!     recovery's rollback) names a task whose output the lost executor
//!     may have held — its committing attempt ran there, a deferred push
//!     to it resumed, or the output left its producer for reserved
//!     executors the journal does not name and the loss is not a
//!     transient eviction — or that was already dropped, **and** that has
//!     a consumer task not committed at that position. An `OutputDropped`
//!     names a committed task whose consumers are all committed; one that
//!     follows a loss is attributed to the lost executor, which may have
//!     held the output.
//!
//! Test suites call [`assert_clean`] on every seeded run, so the ~330
//! chaos / network-chaos / drain / equivalence seeds verify protocol
//! conformance, not just byte-identical outputs.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::compiler::FopId;
use crate::runtime::journal::{EventJournal, JobEvent};
use crate::runtime::message::{AttemptId, ExecId};
use crate::runtime::store::BlockRef;

/// One invariant violation found during replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Canonical position of the offending record (index into
    /// [`EventJournal::records`]); `usize::MAX` for end-of-journal
    /// checks that have no single offending record.
    pub position: usize,
    /// Human-readable diagnostic naming the entities involved.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.position == usize::MAX {
            write!(f, "[end] {}", self.message)
        } else {
            write!(f, "[#{}] {}", self.position, self.message)
        }
    }
}

/// A task's standing commit, as replayed.
struct Commit {
    /// The committing attempt.
    attempt: AttemptId,
    /// Whether the commit pushed the output off its producer, to
    /// reserved executors the journal does not name.
    pushed: bool,
    /// Whether the output lost its last copy since (`OutputDropped`).
    dropped: bool,
}

impl Commit {
    /// Whether `exec` may hold a copy of the output, resumed pushes
    /// aside: the committing attempt ran there (`ran_on`) and kept it
    /// there, or the output reached reserved executors the journal does
    /// not name (a push at commit, a drain's copy) and `exec` is not a
    /// transient container being evicted.
    fn may_be_on(
        &self,
        ran_on: Option<ExecId>,
        exec: ExecId,
        evicted: bool,
        drained: bool,
    ) -> bool {
        (!self.pushed && ran_on == Some(exec)) || ((self.pushed || drained) && !evicted)
    }
}

/// `JournalMeta::required` inverted: each task's consumer tasks (law 12
/// asks once per revert and drop). Dense, one slot per task of the plan.
struct Consumers {
    /// Per fop, the slot of its first task; one past the last fop, the
    /// slot count.
    base: Vec<usize>,
    of_slot: Vec<Vec<(FopId, usize)>>,
}

impl Consumers {
    fn of(required: &[Vec<Vec<(FopId, usize)>>]) -> Self {
        let mut base = vec![0];
        for tasks in required {
            base.push(base[base.len() - 1] + tasks.len());
        }
        let mut inverted = Consumers {
            of_slot: vec![Vec::new(); base[base.len() - 1]],
            base,
        };
        for (f, tasks) in required.iter().enumerate() {
            for (i, producers) in tasks.iter().enumerate() {
                for &producer in producers {
                    // A producer outside the plan has no slot to fill.
                    if let Some(slot) = inverted.slot(producer) {
                        inverted.of_slot[slot].push((f, i));
                    }
                }
            }
        }
        inverted
    }

    fn slot(&self, (fop, index): (FopId, usize)) -> Option<usize> {
        let (from, to) = (*self.base.get(fop)?, *self.base.get(fop + 1)?);
        (index < to - from).then_some(from + index)
    }

    fn of_task(&self, task: (FopId, usize)) -> &[(FopId, usize)] {
        self.slot(task).map_or(&[], |s| &self.of_slot[s])
    }
}

/// What the master is handling, as far as reverts and drops go (law 12).
#[derive(Clone, Copy, PartialEq, Eq)]
enum RevertCause {
    /// Neither: a revert or drop here is a violation.
    None,
    /// The loss of `exec`, from the loss event to its replacement.
    Loss {
        exec: ExecId,
        /// A transient eviction: no reserved executor was lost.
        evicted: bool,
    },
    /// A master recovery, from the marker to the next launch.
    Recovery,
}

/// Replays the journal and returns every invariant violation found.
/// `success` tells the checker whether the job completed (end-of-journal
/// completeness laws only hold for successful runs; a failed job is
/// allowed to end with reverted tasks, open stages, and an exhausted
/// retry budget).
pub fn check(journal: &EventJournal, success: bool) -> Vec<Violation> {
    let meta = journal.meta();
    let mut violations = Vec::new();
    // attempt -> (fop, index, exec) of its launch
    let mut launched: HashMap<AttemptId, (FopId, usize, ExecId)> = HashMap::new();
    // attempts that already reported terminally (committed or failed)
    let mut terminal: HashSet<AttemptId> = HashSet::new();
    // task -> its standing commit
    let mut committed: HashMap<(FopId, usize), Commit> = HashMap::new();
    let mut blacklisted: HashSet<ExecId> = HashSet::new();
    let mut lost: HashSet<ExecId> = HashSet::new();
    let mut stage_complete = vec![false; meta.n_stages];
    // container losses + blacklistings not yet matched by a replacement
    let mut pending_replacements: usize = 0;
    // task -> failures since the last master recovery
    let mut failures: HashMap<(FopId, usize), usize> = HashMap::new();
    // (exec, to_master, seq) -> retransmission count
    let mut retransmits: HashMap<(ExecId, bool, u64), usize> = HashMap::new();
    // --- Memory-pressure domain (law 8) ---
    // exec -> applied store budget, seeded from the meta and updated by
    // `StoreBudgetChanged` (0 and usize::MAX both mean unlimited)
    let mut budgets: HashMap<ExecId, usize> = HashMap::new();
    // (exec, block) pairs currently on the disk tier
    let mut spilled_blocks: HashSet<(ExecId, BlockRef)> = HashSet::new();
    // (exec, block) -> live pin count
    let mut block_pins: HashMap<(ExecId, BlockRef), usize> = HashMap::new();
    // (fop, index, dest exec) -> deferrals not yet resumed
    let mut deferred: HashMap<(FopId, usize, ExecId), usize> = HashMap::new();
    // attempts hit by an injected allocation failure: must never commit
    let mut oomed: HashSet<AttemptId> = HashSet::new();
    // --- Durability domain (law 10) ---
    // attempts that were in flight (launched, not terminal) at a master
    // recovery: the recovered master must reject their stale reports
    let mut fenced_attempts: HashSet<AttemptId> = HashSet::new();
    let mut master_recoveries: usize = 0;
    let mut wal_recoveries: usize = 0;
    // --- Abort domain (law 11) ---
    // position of the first abort marker (RunAborted)
    let mut abort_marker: Option<usize> = None;
    // true once a PoolQuiesced follows the abort marker
    let mut quiesced_after_abort = false;
    // --- Need-driven revert (law 12) ---
    // (fop, index, exec) of every resumed push: a copy the journal names
    let mut resumed: Vec<(FopId, usize, ExecId)> = Vec::new();
    // drained executors (law 3); once there is one, outputs may sit on
    // reserved executors the journal does not name (law 12)
    let mut drained: Vec<ExecId> = Vec::new();
    // what the master is handling, as far as reverts and drops go
    let mut cause = RevertCause::None;
    // task -> consumer tasks, built at the first revert or drop: most
    // journals have neither
    let mut consumers: Option<Consumers> = None;
    // Why law 12 objects to a revert or drop of `task` at this position,
    // if it does: `needed` is what the event claims about the consumers.
    let mut law12 = |task: (FopId, usize),
                     needed: bool,
                     committed: &HashMap<(FopId, usize), Commit>|
     -> Option<String> {
        let of_task = consumers
            .get_or_insert_with(|| Consumers::of(&meta.required))
            .of_task(task);
        let waiting = of_task.iter().find(|c| !committed.contains_key(c));
        match (needed, waiting) {
            (true, None) => Some("every consumer of it is committed".into()),
            (false, Some((cf, ci))) => Some(format!("its consumer {cf}.{ci} is not committed")),
            _ => None,
        }
    };

    // Self-reported store occupancy must fit the executor's budget.
    fn check_occupancy(
        pos: usize,
        exec: ExecId,
        resident: usize,
        budgets: &HashMap<ExecId, usize>,
        default_budget: usize,
        violations: &mut Vec<Violation>,
    ) {
        let budget = budgets.get(&exec).copied().unwrap_or(default_budget);
        if budget != 0 && budget != usize::MAX && resident > budget {
            violations.push(Violation {
                position: pos,
                message: format!(
                    "store occupancy {resident} B on exec {exec} exceeds its {budget} B budget"
                ),
            });
        }
    }

    #[allow(clippy::too_many_arguments)]
    let check_launch = |pos: usize,
                        fop: FopId,
                        index: usize,
                        attempt: AttemptId,
                        exec: ExecId,
                        kind: &str,
                        launched: &mut HashMap<AttemptId, (FopId, usize, ExecId)>,
                        committed: &HashMap<(FopId, usize), Commit>,
                        blacklisted: &HashSet<ExecId>,
                        drained: &[ExecId],
                        lost: &HashSet<ExecId>,
                        violations: &mut Vec<Violation>| {
        if launched.insert(attempt, (fop, index, exec)).is_some() {
            violations.push(Violation {
                position: pos,
                message: format!("{kind} of task {fop}.{index} reuses attempt id {attempt}"),
            });
        }
        if let Some(Commit {
            attempt: winner, ..
        }) = committed.get(&(fop, index))
        {
            violations.push(Violation {
                position: pos,
                message: format!(
                    "{kind} of task {fop}.{index} (attempt {attempt}) while already \
                         committed by attempt {winner}"
                ),
            });
        }
        if blacklisted.contains(&exec) {
            violations.push(Violation {
                position: pos,
                message: format!(
                    "{kind} of task {fop}.{index} attempt {attempt} on blacklisted exec {exec}"
                ),
            });
        }
        if drained.contains(&exec) {
            violations.push(Violation {
                position: pos,
                message: format!(
                    "{kind} of task {fop}.{index} attempt {attempt} on drained exec {exec}"
                ),
            });
        }
        if lost.contains(&exec) {
            violations.push(Violation {
                position: pos,
                message: format!(
                    "{kind} of task {fop}.{index} attempt {attempt} on lost exec {exec}"
                ),
            });
        }
        if let Some(required) = meta.required.get(fop).and_then(|f| f.get(index)) {
            for &(sf, si) in required {
                if committed.get(&(sf, si)).is_none_or(|c| c.dropped) {
                    violations.push(Violation {
                        position: pos,
                        message: format!(
                            "{kind} of task {fop}.{index} attempt {attempt} before its \
                                 input {sf}.{si} is locatable"
                        ),
                    });
                }
            }
        }
    };

    for (pos, record) in journal.records().iter().enumerate() {
        if let JobEvent::TaskLaunched { .. } | JobEvent::SpeculativeLaunched { .. } = &record.event
        {
            if cause == RevertCause::Recovery {
                cause = RevertCause::None;
            }
        }
        match &record.event {
            JobEvent::TaskLaunched {
                fop,
                index,
                attempt,
                exec,
                ..
            } => check_launch(
                pos,
                *fop,
                *index,
                *attempt,
                *exec,
                "launch",
                &mut launched,
                &committed,
                &blacklisted,
                &drained,
                &lost,
                &mut violations,
            ),
            JobEvent::SpeculativeLaunched {
                fop,
                index,
                attempt,
                exec,
                ..
            } => check_launch(
                pos,
                *fop,
                *index,
                *attempt,
                *exec,
                "speculative launch",
                &mut launched,
                &committed,
                &blacklisted,
                &drained,
                &lost,
                &mut violations,
            ),
            JobEvent::TaskStarted {
                fop,
                index,
                attempt,
                exec,
            } => match launched.get(attempt) {
                None => violations.push(Violation {
                    position: pos,
                    message: format!(
                        "start of task {fop}.{index} attempt {attempt} that was never launched"
                    ),
                }),
                Some(&(lf, li, le)) => {
                    if (lf, li, le) != (*fop, *index, *exec) {
                        violations.push(Violation {
                            position: pos,
                            message: format!(
                                "start of attempt {attempt} as task {fop}.{index} on exec \
                                 {exec}, but it launched as task {lf}.{li} on exec {le}"
                            ),
                        });
                    }
                }
            },
            JobEvent::TaskCommitted {
                fop,
                index,
                attempt,
                exec,
                bytes_pushed,
                ..
            } => {
                match launched.get(attempt) {
                    None => violations.push(Violation {
                        position: pos,
                        message: format!(
                            "commit of task {fop}.{index} attempt {attempt} that was never \
                             launched"
                        ),
                    }),
                    Some(&(lf, li, _)) if (lf, li) != (*fop, *index) => {
                        violations.push(Violation {
                            position: pos,
                            message: format!(
                                "commit of attempt {attempt} as task {fop}.{index}, but it \
                                 launched as task {lf}.{li}"
                            ),
                        });
                    }
                    Some(_) => {}
                }
                if !terminal.insert(*attempt) {
                    violations.push(Violation {
                        position: pos,
                        message: format!(
                            "attempt {attempt} of task {fop}.{index} reported terminally twice"
                        ),
                    });
                }
                if lost.contains(exec) {
                    violations.push(Violation {
                        position: pos,
                        message: format!(
                            "commit of task {fop}.{index} attempt {attempt} accepted from \
                             lost exec {exec}"
                        ),
                    });
                }
                let commit = Commit {
                    attempt: *attempt,
                    pushed: *bytes_pushed > 0,
                    dropped: false,
                };
                if let Some(Commit {
                    attempt: winner, ..
                }) = committed.insert((*fop, *index), commit)
                {
                    violations.push(Violation {
                        position: pos,
                        message: format!(
                            "double commit of task {fop}.{index}: attempt {winner} committed, \
                             then attempt {attempt} committed without an intervening revert"
                        ),
                    });
                }
                if oomed.contains(attempt) {
                    violations.push(Violation {
                        position: pos,
                        message: format!(
                            "attempt {attempt} of task {fop}.{index} committed despite an \
                             injected allocation failure"
                        ),
                    });
                }
                if fenced_attempts.contains(attempt) {
                    violations.push(Violation {
                        position: pos,
                        message: format!(
                            "commit of task {fop}.{index} attempt {attempt} accepted after a \
                             master recovery fenced it"
                        ),
                    });
                }
            }
            JobEvent::TaskFailed {
                fop,
                index,
                attempt,
                ..
            } => {
                if !launched.contains_key(attempt) {
                    violations.push(Violation {
                        position: pos,
                        message: format!(
                            "failure of task {fop}.{index} attempt {attempt} that was never \
                             launched"
                        ),
                    });
                }
                if fenced_attempts.contains(attempt) {
                    violations.push(Violation {
                        position: pos,
                        message: format!(
                            "failure of task {fop}.{index} attempt {attempt} accepted after a \
                             master recovery fenced it"
                        ),
                    });
                }
                if !terminal.insert(*attempt) {
                    violations.push(Violation {
                        position: pos,
                        message: format!(
                            "attempt {attempt} of task {fop}.{index} reported terminally twice"
                        ),
                    });
                }
                let count = failures.entry((*fop, *index)).or_insert(0);
                *count += 1;
                let over_budget = *count > meta.max_task_attempts
                    || (success && *count >= meta.max_task_attempts && meta.max_task_attempts > 0);
                if over_budget {
                    violations.push(Violation {
                        position: pos,
                        message: format!(
                            "task {fop}.{index} failed {count} times (budget {}) {}",
                            meta.max_task_attempts,
                            if success {
                                "yet the job succeeded"
                            } else {
                                "exceeding the retry budget"
                            }
                        ),
                    });
                }
            }
            JobEvent::TaskReverted { fop, index } => {
                let task = (*fop, *index);
                let mut object = |why: String| {
                    violations.push(Violation {
                        position: pos,
                        message: format!("revert of task {fop}.{index} {why}"),
                    });
                };
                match (committed.remove(&task), cause) {
                    (None, _) => object("that was not committed".into()),
                    (_, RevertCause::None) => object(NOT_HANDLING.into()),
                    (_, RevertCause::Recovery) => {}
                    (Some(commit), RevertCause::Loss { exec, evicted }) => {
                        let ran_on = launched.get(&commit.attempt).map(|l| l.2);
                        let held = resumed.contains(&(*fop, *index, exec))
                            || commit.may_be_on(ran_on, exec, evicted, !drained.is_empty());
                        if !commit.dropped && !held {
                            object(format!(
                                "after the loss of exec {exec}, which never held it"
                            ));
                        }
                        if let Some(why) = law12(task, true, &committed) {
                            object(format!("though {why}"));
                        }
                    }
                }
            }
            JobEvent::OutputDropped { fop, index, exec } => {
                let task = (*fop, *index);
                let mut object = |why: String| {
                    violations.push(Violation {
                        position: pos,
                        message: format!("drop of output {fop}.{index} {why}"),
                    });
                };
                match (committed.get_mut(&task), cause) {
                    (None, _) => object("of a task that is not committed".into()),
                    (_, RevertCause::None) => object(NOT_HANDLING.into()),
                    (Some(commit), _) => {
                        if std::mem::replace(&mut commit.dropped, true) {
                            object("twice since its last commit".into());
                        }
                        if let RevertCause::Loss {
                            exec: lost,
                            evicted,
                        } = cause
                        {
                            let ran_on = launched.get(&commit.attempt).map(|l| l.2);
                            if lost != *exec {
                                object(format!(
                                    "blamed on exec {exec} while exec {lost} is the loss"
                                ));
                            } else if !resumed.contains(&(*fop, *index, lost))
                                && !commit.may_be_on(ran_on, lost, evicted, !drained.is_empty())
                            {
                                object(format!(
                                    "after the loss of exec {lost}, which never held it"
                                ));
                            }
                        }
                        if let Some(why) = law12(task, false, &committed) {
                            object(format!("though {why}"));
                        }
                    }
                }
            }
            JobEvent::ExecutorBlacklisted(e) => {
                if !blacklisted.insert(*e) {
                    violations.push(Violation {
                        position: pos,
                        message: format!("exec {e} blacklisted twice"),
                    });
                }
                pending_replacements += 1;
            }
            JobEvent::ContainerEvicted(e)
            | JobEvent::ReservedFailed(e)
            | JobEvent::ExecutorDeclaredDead(e) => {
                if !lost.insert(*e) {
                    violations.push(Violation {
                        position: pos,
                        message: format!("exec {e} lost twice"),
                    });
                }
                cause = RevertCause::Loss {
                    exec: *e,
                    evicted: matches!(record.event, JobEvent::ContainerEvicted(_)),
                };
                pending_replacements += 1;
                // The executor's memory died with it: clear its replayed
                // store state (the live store does the same, silently).
                budgets.remove(e);
                spilled_blocks.retain(|(ex, _)| ex != e);
                block_pins.retain(|(ex, _), _| ex != e);
                deferred.retain(|(_, _, ex), _| ex != e);
            }
            JobEvent::ContainerAdded(e) => {
                if let RevertCause::Loss { .. } = cause {
                    cause = RevertCause::None;
                }
                if lost.contains(e) || blacklisted.contains(e) {
                    violations.push(Violation {
                        position: pos,
                        message: format!("replacement container reuses retired exec id {e}"),
                    });
                }
                if pending_replacements == 0 {
                    violations.push(Violation {
                        position: pos,
                        message: format!("container {e} added with no preceding loss"),
                    });
                } else {
                    pending_replacements -= 1;
                }
            }
            JobEvent::HeartbeatMissed(_) => {}
            JobEvent::StageCompleted(s) => match stage_complete.get_mut(*s) {
                None => violations.push(Violation {
                    position: pos,
                    message: format!("completion of unknown stage {s}"),
                }),
                Some(flag) if *flag => violations.push(Violation {
                    position: pos,
                    message: format!("stage {s} completed while already complete"),
                }),
                Some(flag) => *flag = true,
            },
            JobEvent::StageReopened { stage, .. } => match stage_complete.get_mut(*stage) {
                None => violations.push(Violation {
                    position: pos,
                    message: format!("reopening of unknown stage {stage}"),
                }),
                Some(flag) if !*flag => violations.push(Violation {
                    position: pos,
                    message: format!("stage {stage} reopened while already open"),
                }),
                Some(flag) => *flag = false,
            },
            JobEvent::MessageRetransmitted {
                exec,
                to_master,
                seq,
            } => {
                let count = retransmits.entry((*exec, *to_master, *seq)).or_insert(0);
                *count += 1;
                if *count == meta.retransmit_bound + 1 {
                    let dir = if *to_master { "to-master" } else { "to-exec" };
                    violations.push(Violation {
                        position: pos,
                        message: format!(
                            "message seq {seq} on the {dir} link of exec {exec} retransmitted \
                             more than {} times",
                            meta.retransmit_bound
                        ),
                    });
                }
            }
            JobEvent::MasterRecovered => {
                // A recovered master rebuilds its per-task failure budget
                // from scratch, so the replay budget resets with it.
                failures.clear();
                master_recoveries += 1;
                cause = RevertCause::Recovery;
                // Every attempt in flight at the crash is fenced: the
                // recovered master must never accept its stale report.
                fenced_attempts.extend(launched.keys().filter(|a| !terminal.contains(a)));
            }
            JobEvent::WalRecovered { .. } => {
                wal_recoveries += 1;
                if wal_recoveries > master_recoveries {
                    violations.push(Violation {
                        position: pos,
                        message: format!(
                            "WAL recovery #{wal_recoveries} without a preceding master \
                             recovery (only {master_recoveries} seen)"
                        ),
                    });
                }
            }
            JobEvent::BlockAdmitted {
                exec,
                block,
                resident,
                ..
            } => {
                spilled_blocks.remove(&(*exec, *block));
                check_occupancy(
                    pos,
                    *exec,
                    *resident,
                    &budgets,
                    meta.executor_memory_bytes,
                    &mut violations,
                );
            }
            JobEvent::BlockSpilled {
                exec,
                block,
                resident,
                ..
            } => {
                if block_pins.get(&(*exec, *block)).copied().unwrap_or(0) > 0 {
                    violations.push(Violation {
                        position: pos,
                        message: format!("pinned block {block} spilled on exec {exec}"),
                    });
                }
                if !spilled_blocks.insert((*exec, *block)) {
                    violations.push(Violation {
                        position: pos,
                        message: format!("{block} spilled twice on exec {exec} without a reload"),
                    });
                }
                check_occupancy(
                    pos,
                    *exec,
                    *resident,
                    &budgets,
                    meta.executor_memory_bytes,
                    &mut violations,
                );
            }
            JobEvent::BlockLoaded {
                exec,
                block,
                resident,
                ..
            } => {
                if !spilled_blocks.remove(&(*exec, *block)) {
                    violations.push(Violation {
                        position: pos,
                        message: format!("reload of {block} on exec {exec} that was not spilled"),
                    });
                }
                check_occupancy(
                    pos,
                    *exec,
                    *resident,
                    &budgets,
                    meta.executor_memory_bytes,
                    &mut violations,
                );
            }
            JobEvent::BlockReleased {
                exec,
                block,
                resident,
                ..
            } => {
                spilled_blocks.remove(&(*exec, *block));
                check_occupancy(
                    pos,
                    *exec,
                    *resident,
                    &budgets,
                    meta.executor_memory_bytes,
                    &mut violations,
                );
            }
            JobEvent::BlockPinned { exec, block } => {
                if spilled_blocks.contains(&(*exec, *block)) {
                    violations.push(Violation {
                        position: pos,
                        message: format!(
                            "{block} pinned on exec {exec} while spilled (use before reload)"
                        ),
                    });
                }
                *block_pins.entry((*exec, *block)).or_insert(0) += 1;
            }
            JobEvent::BlockUnpinned { exec, block } => match block_pins.get_mut(&(*exec, *block)) {
                Some(n) => {
                    *n -= 1;
                    if *n == 0 {
                        block_pins.remove(&(*exec, *block));
                    }
                }
                None => violations.push(Violation {
                    position: pos,
                    message: format!("unpin of {block} on exec {exec} that holds no pin"),
                }),
            },
            JobEvent::StoreBudgetChanged { exec, budget } => {
                budgets.insert(*exec, *budget);
            }
            JobEvent::PushDeferred {
                fop, index, exec, ..
            } => {
                *deferred.entry((*fop, *index, *exec)).or_insert(0) += 1;
            }
            JobEvent::PushResumed {
                fop, index, exec, ..
            } => {
                resumed.push((*fop, *index, *exec));
                match deferred.get_mut(&(*fop, *index, *exec)) {
                    Some(n) if *n > 0 => *n -= 1,
                    _ => violations.push(Violation {
                        position: pos,
                        message: format!(
                            "push of output {fop}.{index} to exec {exec} resumed without a \
                             matching deferral"
                        ),
                    }),
                }
            }
            JobEvent::OomInjected {
                fop,
                index,
                attempt,
                ..
            } => {
                if !launched.contains_key(attempt) {
                    violations.push(Violation {
                        position: pos,
                        message: format!(
                            "allocation failure injected into attempt {attempt} of task \
                             {fop}.{index} that was never launched"
                        ),
                    });
                }
                oomed.insert(*attempt);
            }
            JobEvent::ExecutorDrained { exec } => drained.push(*exec),
            JobEvent::CacheHit { .. } | JobEvent::CacheMiss { .. } => {}
            JobEvent::RunAborted { .. } => {
                if abort_marker.is_none() {
                    abort_marker = Some(pos);
                    quiesced_after_abort = false;
                }
            }
            JobEvent::PoolQuiesced { in_flight } => {
                if *in_flight != 0 {
                    violations.push(Violation {
                        position: pos,
                        message: format!("pool quiesced with {in_flight} job(s) still in flight"),
                    });
                }
                if abort_marker.is_some() {
                    quiesced_after_abort = true;
                }
            }
            JobEvent::PoolWorkerDetached { worker } => {
                violations.push(Violation {
                    position: pos,
                    message: format!(
                        "worker {worker} detached: it outlived the shutdown grace and \
                         its thread leaked"
                    ),
                });
            }
        }
    }

    if success {
        for (fop, &par) in meta.parallelism.iter().enumerate() {
            for index in 0..par {
                if !committed.contains_key(&(fop, index)) {
                    violations.push(Violation {
                        position: usize::MAX,
                        message: format!("job succeeded but task {fop}.{index} never committed"),
                    });
                }
            }
        }
        for (s, &complete) in stage_complete.iter().enumerate() {
            if !complete {
                violations.push(Violation {
                    position: usize::MAX,
                    message: format!("job succeeded but stage {s} never completed"),
                });
            }
        }
        if pending_replacements > 0 {
            violations.push(Violation {
                position: usize::MAX,
                message: format!(
                    "{pending_replacements} container loss(es) never followed by a replacement"
                ),
            });
        }
        if master_recoveries != wal_recoveries {
            violations.push(Violation {
                position: usize::MAX,
                message: format!(
                    "{master_recoveries} master recoveries but {wal_recoveries} WAL \
                     recoveries: every restart must recover from the log"
                ),
            });
        }
    }

    // Law 11 end check runs regardless of `success`: failing well is
    // part of the protocol, so an aborted run owes the journal proof
    // that its pool drained.
    if abort_marker.is_some() && !quiesced_after_abort {
        violations.push(Violation {
            position: usize::MAX,
            message: "run aborted but the worker pool never quiesced \
                      (no PoolQuiesced after the abort marker)"
                .into(),
        });
    }

    violations
}

/// Law 12's diagnostic for a revert or drop nothing accounts for.
const NOT_HANDLING: &str = "outside the handling of a container loss or master recovery";

/// Panics with every violation found, or returns quietly on a clean
/// journal. The panic message includes the rendered timeline position of
/// each violation so a failing seed is directly debuggable.
pub fn assert_clean(journal: &EventJournal, success: bool) {
    let violations = check(journal, success);
    if !violations.is_empty() {
        let rendered: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
        panic!(
            "journal violates {} invariant(s):\n  {}",
            rendered.len(),
            rendered.join("\n  ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::journal::{JournalMeta, JournalRecord};

    /// Two chained single-task fops in one stage: 1.0 requires 0.0.
    fn meta() -> JournalMeta {
        JournalMeta {
            n_stages: 1,
            stage_of: vec![0, 0],
            parallelism: vec![1, 1],
            required: vec![vec![vec![]], vec![vec![(0, 0)]]],
            max_task_attempts: 4,
            retransmit_bound: 2,
            executor_memory_bytes: 0,
        }
    }

    fn journal_with(meta: JournalMeta, events: Vec<JobEvent>) -> EventJournal {
        let records = events
            .into_iter()
            .enumerate()
            .map(|(i, event)| JournalRecord {
                seq: i as u64,
                at_us: i as u64 * 10,
                stage: Some(0),
                event,
            })
            .collect();
        EventJournal::from_parts(meta, records)
    }

    fn journal(events: Vec<JobEvent>) -> EventJournal {
        journal_with(meta(), events)
    }

    fn launch(fop: FopId, index: usize, attempt: AttemptId, exec: ExecId) -> JobEvent {
        JobEvent::TaskLaunched {
            fop,
            index,
            attempt,
            exec,
            side_bytes_sent: 0,
            side_bytes_saved: 0,
            side_cache_misses: 0,
        }
    }

    fn commit(fop: FopId, index: usize, attempt: AttemptId, exec: ExecId) -> JobEvent {
        JobEvent::TaskCommitted {
            fop,
            index,
            attempt,
            exec,
            speculative: false,
            bytes_pushed: 0,
            preaggregated: 0,
            cache_hit: false,
        }
    }

    #[test]
    fn clean_successful_run_passes() {
        let j = journal(vec![
            launch(0, 0, 1, 0),
            commit(0, 0, 1, 0),
            launch(1, 0, 2, 1),
            commit(1, 0, 2, 1),
            JobEvent::StageCompleted(0),
        ]);
        assert_clean(&j, true);
    }

    #[test]
    fn law7_retry_budget_is_counted_per_task_and_starts_over_at_a_recovery() {
        let budget = meta().max_task_attempts as AttemptId;
        // Attempts `ids` of task 0.0 each launch and fail.
        let failing = |ids: std::ops::Range<AttemptId>| {
            ids.flat_map(|attempt| {
                let failed = JobEvent::TaskFailed {
                    fop: 0,
                    index: 0,
                    attempt,
                    exec: 0,
                };
                [launch(0, 0, attempt, 0), failed]
            })
            .collect::<Vec<_>>()
        };
        // ... then attempt 100 commits it and the job runs to its end.
        let succeeding = |mut events: Vec<JobEvent>| {
            events.extend([
                launch(0, 0, 100, 0),
                commit(0, 0, 100, 0),
                launch(1, 0, 101, 1),
                commit(1, 0, 101, 1),
                JobEvent::StageCompleted(0),
            ]);
            journal(events)
        };
        let over = |v: &[Violation], said: &str| v.iter().any(|v| v.message.contains(said));

        // One failure short of the budget: the task may still succeed.
        assert_clean(&succeeding(failing(0..budget - 1)), true);
        // The budget's worth of failures fails the job; succeeding anyway
        // means the master lost count.
        let v = check(&succeeding(failing(0..budget)), true);
        assert!(
            over(
                &v,
                "task 0.0 failed 4 times (budget 4) yet the job succeeded"
            ),
            "missing budget violation: {v:?}"
        );
        // A failed run may exhaust the budget, never exceed it.
        assert_clean(&journal(failing(0..budget)), false);
        let v = check(&journal(failing(0..budget + 1)), false);
        assert!(
            over(
                &v,
                "task 0.0 failed 5 times (budget 4) exceeding the retry budget"
            ),
            "missing budget violation: {v:?}"
        );
        // A recovered master counts from zero, and so does the law.
        let mut recovered = failing(0..budget - 1);
        recovered.push(JobEvent::MasterRecovered);
        recovered.push(JobEvent::WalRecovered {
            frames_replayed: 6,
            frames_truncated: 0,
            snapshot_restored: false,
        });
        recovered.extend(failing(50..50 + budget - 1));
        assert_clean(&succeeding(recovered), true);
    }

    #[test]
    fn law10_commit_of_fenced_attempt_is_detected() {
        // Attempt 1 was in flight at the recovery; the recovered master
        // must discard its report, never commit it.
        let j = journal(vec![
            launch(0, 0, 1, 0),
            JobEvent::MasterRecovered,
            commit(0, 0, 1, 0),
        ]);
        let v = check(&j, false);
        assert!(
            v.iter().any(|v| v.message.contains("fenced")),
            "missing fence violation: {v:?}"
        );
    }

    #[test]
    fn law10_failure_of_fenced_attempt_is_detected() {
        let j = journal(vec![
            launch(0, 0, 1, 0),
            JobEvent::MasterRecovered,
            JobEvent::TaskFailed {
                fop: 0,
                index: 0,
                attempt: 1,
                exec: 0,
            },
        ]);
        let v = check(&j, false);
        assert!(
            v.iter().any(|v| v.message.contains("fenced")),
            "missing fence violation: {v:?}"
        );
    }

    #[test]
    fn law10_recovered_run_with_fresh_attempts_is_clean() {
        // The canonical WAL-recovery shape: the in-flight attempt is
        // abandoned, the recovered master relaunches under a fenced
        // (much larger) attempt id, and the journal stays clean.
        let j = journal(vec![
            launch(0, 0, 1, 0),
            JobEvent::MasterRecovered,
            JobEvent::WalRecovered {
                frames_replayed: 2,
                frames_truncated: 1,
                snapshot_restored: false,
            },
            launch(0, 0, 1_000_001, 0),
            commit(0, 0, 1_000_001, 0),
            launch(1, 0, 1_000_002, 1),
            commit(1, 0, 1_000_002, 1),
            JobEvent::StageCompleted(0),
        ]);
        assert_clean(&j, true);
    }

    #[test]
    fn law10_wal_recovery_without_master_recovery_is_detected() {
        let j = journal(vec![JobEvent::WalRecovered {
            frames_replayed: 0,
            frames_truncated: 0,
            snapshot_restored: false,
        }]);
        let v = check(&j, false);
        assert!(
            v.iter().any(|v| v.message.contains("WAL recovery")),
            "missing pairing violation: {v:?}"
        );
    }

    #[test]
    fn law10_bare_master_recovery_in_a_complete_journal_is_detected() {
        let j = journal(vec![
            JobEvent::MasterRecovered,
            launch(0, 0, 1, 0),
            commit(0, 0, 1, 0),
            launch(1, 0, 2, 1),
            commit(1, 0, 2, 1),
            JobEvent::StageCompleted(0),
        ]);
        let v = check(&j, true);
        assert!(
            v.iter().any(|v| v.message.contains("WAL recoveries")),
            "missing count violation: {v:?}"
        );
    }

    #[test]
    fn law11_aborted_run_that_quiesces_is_clean() {
        let j = journal(vec![
            launch(0, 0, 1, 0),
            JobEvent::RunAborted {
                reason: "cancelled".into(),
            },
            JobEvent::PoolQuiesced { in_flight: 0 },
        ]);
        assert_clean(&j, false);
    }

    #[test]
    fn law11_stalled_run_that_quiesces_is_clean() {
        // A wedge cancels the run before shutdown: a body queued behind
        // the stuck ones may still start before the pool quiesces.
        let j = journal(vec![
            launch(0, 0, 1, 0),
            JobEvent::RunAborted {
                reason: "no progress within 300 ms".into(),
            },
            JobEvent::TaskStarted {
                fop: 0,
                index: 0,
                attempt: 1,
                exec: 0,
            },
            JobEvent::PoolQuiesced { in_flight: 0 },
        ]);
        assert_clean(&j, false);
    }

    #[test]
    fn law11_abort_without_quiesce_is_detected() {
        let j = journal(vec![
            launch(0, 0, 1, 0),
            JobEvent::RunAborted {
                reason: "cancelled".into(),
            },
        ]);
        let v = check(&j, false);
        assert!(
            v.iter().any(|v| v.message.contains("never quiesced")),
            "missing quiesce violation: {v:?}"
        );
    }

    #[test]
    fn law11_quiesce_before_abort_does_not_satisfy_the_law() {
        // The PoolQuiesced must FOLLOW the abort marker: a quiesce from
        // an earlier, unrelated point in the run proves nothing about
        // the aborted run's pool.
        let j = journal(vec![
            JobEvent::PoolQuiesced { in_flight: 0 },
            JobEvent::RunAborted {
                reason: "cancelled".into(),
            },
        ]);
        let v = check(&j, false);
        assert!(
            v.iter().any(|v| v.message.contains("never quiesced")),
            "missing quiesce violation: {v:?}"
        );
    }

    #[test]
    fn law11_quiesce_with_jobs_in_flight_is_detected() {
        let j = journal(vec![
            JobEvent::RunAborted {
                reason: "no progress within 300 ms".into(),
            },
            JobEvent::PoolQuiesced { in_flight: 2 },
        ]);
        let v = check(&j, false);
        assert!(
            v.iter()
                .any(|v| v.message.contains("2 job(s) still in flight")),
            "missing in-flight violation: {v:?}"
        );
    }

    #[test]
    fn law11_detached_worker_is_detected_even_on_success() {
        let j = journal(vec![
            launch(0, 0, 1, 0),
            commit(0, 0, 1, 0),
            launch(1, 0, 2, 1),
            commit(1, 0, 2, 1),
            JobEvent::StageCompleted(0),
            JobEvent::PoolWorkerDetached { worker: 3 },
        ]);
        let v = check(&j, true);
        assert!(
            v.iter().any(|v| v.message.contains("worker 3 detached")),
            "missing detach violation: {v:?}"
        );
    }

    #[test]
    fn injected_double_commit_is_detected_naming_both_attempts() {
        let j = journal(vec![
            launch(0, 0, 7, 0),
            JobEvent::SpeculativeLaunched {
                fop: 0,
                index: 0,
                attempt: 9,
                exec: 1,
                side_bytes_sent: 0,
                side_bytes_saved: 0,
                side_cache_misses: 0,
            },
            commit(0, 0, 7, 0),
            commit(0, 0, 9, 1),
        ]);
        let violations = check(&j, false);
        assert_eq!(violations.len(), 1, "violations: {violations:?}");
        let msg = &violations[0].message;
        assert!(msg.contains("double commit of task 0.0"), "got: {msg}");
        assert!(
            msg.contains("attempt 7") && msg.contains("attempt 9"),
            "diagnostic must name both attempts, got: {msg}"
        );
    }

    #[test]
    fn launch_before_inputs_locatable_is_detected() {
        let j = journal(vec![launch(1, 0, 1, 0)]);
        let violations = check(&j, false);
        assert!(
            violations
                .iter()
                .any(|v| v.message.contains("before its input 0.0 is locatable")),
            "got: {violations:?}"
        );
    }

    /// Three chained single-task fops in one stage: 0.0 -> 1.0 -> 2.0.
    fn chain_meta() -> JournalMeta {
        JournalMeta {
            stage_of: vec![0, 0, 0],
            parallelism: vec![1, 1, 1],
            required: vec![vec![vec![]], vec![vec![(0, 0)]], vec![vec![(1, 0)]]],
            ..meta()
        }
    }

    /// `check` on a failed-run journal over [`chain_meta`], rendered.
    fn chain_violations(events: Vec<JobEvent>) -> Vec<String> {
        let violations = check(&journal_with(chain_meta(), events), false);
        violations.iter().map(|v| v.message.clone()).collect()
    }

    fn dropped(fop: FopId, exec: ExecId) -> JobEvent {
        JobEvent::OutputDropped {
            fop,
            index: 0,
            exec,
        }
    }

    fn reverted(fop: FopId) -> JobEvent {
        JobEvent::TaskReverted { fop, index: 0 }
    }

    /// 0.0 and 1.0 committed on execs 5 and 6.
    fn two_commits() -> Vec<JobEvent> {
        vec![
            launch(0, 0, 1, 5),
            commit(0, 0, 1, 5),
            launch(1, 0, 2, 6),
            commit(1, 0, 2, 6),
        ]
    }

    fn with(mut events: Vec<JobEvent>, more: Vec<JobEvent>) -> Vec<JobEvent> {
        events.extend(more);
        events
    }

    #[test]
    fn consumers_index_inverts_required() {
        // 2.0 needs both tasks of fop 0 and 1.0; 1.0 needs 0.1; a
        // producer outside the plan is ignored.
        let required = vec![
            vec![vec![], vec![]],
            vec![vec![(0, 1), (7, 0)]],
            vec![vec![(0, 0), (0, 1), (1, 0)]],
        ];
        let c = Consumers::of(&required);
        assert_eq!(c.of_task((0, 0)), &[(2, 0)]);
        assert_eq!(c.of_task((0, 1)), &[(1, 0), (2, 0)]);
        assert_eq!(c.of_task((1, 0)), &[(2, 0)]);
        assert!(c.of_task((2, 0)).is_empty() && c.of_task((0, 2)).is_empty());
        assert!(c.of_task((7, 0)).is_empty());
    }

    #[test]
    fn a_drop_then_an_on_demand_recompute_is_clean() {
        // Exec 5 is evicted after 1.0 committed: 0.0 is dropped. Exec 6
        // then fails with 2.0 pending: 1.0 reverts and pulls 0.0 back in,
        // consumers first. Everything recomputes and the run succeeds.
        let events = with(
            two_commits(),
            vec![
                JobEvent::ContainerEvicted(5),
                dropped(0, 5),
                JobEvent::ContainerAdded(7),
                JobEvent::ReservedFailed(6),
                reverted(1),
                reverted(0),
                JobEvent::ContainerAdded(8),
                launch(0, 0, 3, 7),
                commit(0, 0, 3, 7),
                launch(1, 0, 4, 8),
                commit(1, 0, 4, 8),
                launch(2, 0, 5, 8),
                commit(2, 0, 5, 8),
                JobEvent::StageCompleted(0),
            ],
        );
        assert_clean(&journal_with(chain_meta(), events), true);
    }

    #[test]
    fn a_dropped_output_still_counts_as_committed_at_the_end() {
        let events = with(
            two_commits(),
            vec![
                JobEvent::ContainerEvicted(5),
                dropped(0, 5),
                JobEvent::ContainerAdded(7),
                launch(2, 0, 3, 7),
                commit(2, 0, 3, 7),
                JobEvent::StageCompleted(0),
            ],
        );
        assert_clean(&journal_with(chain_meta(), events), true);
    }

    #[test]
    fn law2_launch_against_a_dropped_producer_is_detected() {
        // 1.0's output was dropped (2.0 was committed then); 2.0 reverts
        // with its own executor and relaunches without 1.0 being
        // recomputed first.
        let events = with(
            two_commits(),
            vec![
                launch(2, 0, 3, 7),
                commit(2, 0, 3, 7),
                JobEvent::ContainerEvicted(6),
                dropped(1, 6),
                JobEvent::ContainerAdded(8),
                launch(2, 0, 4, 8),
            ],
        );
        let v = chain_violations(events);
        assert!(
            v.iter()
                .any(|m| m.contains("before its input 1.0 is locatable")),
            "got: {v:?}"
        );
    }

    #[test]
    fn law12_eager_revert_is_detected() {
        // 0.0's only consumer committed: losing its copy may drop it,
        // never revert it.
        let events = with(
            two_commits(),
            vec![JobEvent::ContainerEvicted(5), reverted(0)],
        );
        let v = chain_violations(events);
        assert!(
            v.iter()
                .any(|m| m.contains("revert of task 0.0 though every consumer of it is committed")),
            "got: {v:?}"
        );
    }

    #[test]
    fn law12_drop_of_a_needed_output_is_detected() {
        // 2.0 has not committed, so 1.0's output is still needed.
        let events = with(
            two_commits(),
            vec![JobEvent::ContainerEvicted(6), dropped(1, 6)],
        );
        let v = chain_violations(events);
        assert!(
            v.iter()
                .any(|m| m.contains("drop of output 1.0 though its consumer 2.0 is not committed")),
            "got: {v:?}"
        );
    }

    #[test]
    fn law12_revert_unrelated_to_the_lost_executor_is_detected() {
        // Exec 9 never held 1.0's output (it lives where it ran, on 6).
        let events = with(
            two_commits(),
            vec![JobEvent::ContainerEvicted(9), reverted(1)],
        );
        let v = chain_violations(events);
        assert!(
            v.iter()
                .any(|m| m.contains("after the loss of exec 9, which never held it")),
            "got: {v:?}"
        );
        // A pushed output lives on reserved executors: an eviction cannot
        // take it, a reserved failure can.
        let pushed = |loss: JobEvent| {
            let mut events = two_commits();
            events[3] = JobEvent::TaskCommitted {
                fop: 1,
                index: 0,
                attempt: 2,
                exec: 6,
                speculative: false,
                bytes_pushed: 64,
                preaggregated: 0,
                cache_hit: false,
            };
            chain_violations(with(events, vec![loss, reverted(1)]))
        };
        assert!(pushed(JobEvent::ContainerEvicted(6))
            .iter()
            .any(|m| m.contains("which never held it")));
        assert!(pushed(JobEvent::ReservedFailed(0)).is_empty());
        // A resumed push names its destination.
        let events = with(
            two_commits(),
            vec![
                JobEvent::PushDeferred {
                    fop: 1,
                    index: 0,
                    exec: 0,
                    bytes: 8,
                },
                JobEvent::PushResumed {
                    fop: 1,
                    index: 0,
                    exec: 0,
                    bytes: 8,
                },
                JobEvent::ReservedFailed(0),
                reverted(1),
            ],
        );
        assert!(chain_violations(events).is_empty());
    }

    #[test]
    fn law12_reverts_and_drops_need_a_loss_or_a_recovery() {
        let v = chain_violations(with(two_commits(), vec![reverted(1)]));
        assert!(
            v.iter().any(|m| m.contains("revert of task 1.0 outside")),
            "got: {v:?}"
        );
        let v = chain_violations(with(two_commits(), vec![dropped(0, 5)]));
        assert!(
            v.iter().any(|m| m.contains("drop of output 0.0 outside")),
            "got: {v:?}"
        );
        // A master recovery rolls back whatever its log lost, needed or
        // not, until the recovered master launches again.
        let recovery = vec![
            JobEvent::MasterRecovered,
            JobEvent::WalRecovered {
                frames_replayed: 1,
                frames_truncated: 1,
                snapshot_restored: false,
            },
        ];
        let rolled_back = with(with(two_commits(), recovery), vec![reverted(0)]);
        assert!(chain_violations(rolled_back.clone()).is_empty());
        let late = with(rolled_back, vec![launch(0, 0, 1_000_001, 5), reverted(1)]);
        assert!(chain_violations(late)
            .iter()
            .any(|m| m.contains("revert of task 1.0 outside")));
    }

    #[test]
    fn law12_drop_bookkeeping_is_checked() {
        let evicted = |more: Vec<JobEvent>| {
            chain_violations(with(
                with(two_commits(), vec![JobEvent::ContainerEvicted(5)]),
                more,
            ))
        };
        assert!(evicted(vec![dropped(0, 4)])
            .iter()
            .any(|m| m.contains("blamed on exec 4 while exec 5 is the loss")));
        assert!(evicted(vec![dropped(0, 5), dropped(0, 5)])
            .iter()
            .any(|m| m.contains("twice since its last commit")));
        assert!(evicted(vec![dropped(2, 5)])
            .iter()
            .any(|m| m.contains("drop of output 2.0 of a task that is not committed")));
        // An already-dropped output may revert under any later loss.
        let events = vec![
            dropped(0, 5),
            JobEvent::ContainerAdded(7),
            JobEvent::ContainerEvicted(6),
            reverted(1),
            reverted(0),
        ];
        assert!(evicted(events).is_empty());
    }

    #[test]
    fn launch_on_lost_or_blacklisted_executor_is_detected() {
        let j = journal(vec![
            JobEvent::ContainerEvicted(3),
            JobEvent::ContainerAdded(4),
            launch(0, 0, 1, 3),
        ]);
        assert!(check(&j, false)
            .iter()
            .any(|v| v.message.contains("on lost exec 3")),);
        let j = journal(vec![
            JobEvent::ExecutorBlacklisted(2),
            JobEvent::ContainerAdded(4),
            launch(0, 0, 1, 2),
        ]);
        assert!(check(&j, false)
            .iter()
            .any(|v| v.message.contains("on blacklisted exec 2")),);
    }

    #[test]
    fn launch_on_a_drained_executor_is_detected() {
        let drained = JobEvent::ExecutorDrained { exec: 2 };
        let v = check(&journal(vec![drained.clone(), launch(0, 0, 1, 2)]), false);
        assert!(
            v.iter().any(|v| v.message.contains("on drained exec 2")),
            "got: {v:?}"
        );
        // An attempt launched there before the drain may still commit,
        // and other executors keep taking work.
        let j = journal(vec![
            launch(0, 0, 1, 2),
            drained,
            commit(0, 0, 1, 2),
            launch(1, 0, 2, 3),
            commit(1, 0, 2, 3),
            JobEvent::StageCompleted(0),
        ]);
        assert_clean(&j, true);
    }

    /// Law 2 asks every launch of every fop for its inputs: 2.0 here, of
    /// a fop whose producer has more tasks than it (a width change is what
    /// the retired law-9 exemption used to skip).
    #[test]
    fn law2_holds_on_every_fop() {
        let gather = JournalMeta {
            stage_of: vec![0, 0],
            parallelism: vec![2, 1],
            required: vec![vec![vec![], vec![]], vec![vec![(0, 0), (0, 1)]]],
            ..meta()
        };
        let early = vec![launch(0, 0, 1, 5), commit(0, 0, 1, 5), launch(1, 0, 2, 6)];
        let v = check(&journal_with(gather.clone(), early), false);
        assert!(
            v.iter()
                .any(|v| v.message.contains("before its input 0.1 is locatable")),
            "got: {v:?}"
        );
        let in_order = vec![
            launch(0, 0, 1, 5),
            commit(0, 0, 1, 5),
            launch(0, 1, 2, 5),
            commit(0, 1, 2, 5),
            launch(1, 0, 3, 6),
            commit(1, 0, 3, 6),
            JobEvent::StageCompleted(0),
        ];
        assert_clean(&journal_with(gather, in_order), true);
    }

    #[test]
    fn eviction_without_replacement_fails_successful_runs_only() {
        let events = vec![
            launch(0, 0, 1, 0),
            commit(0, 0, 1, 0),
            launch(1, 0, 2, 1),
            commit(1, 0, 2, 1),
            JobEvent::StageCompleted(0),
            JobEvent::ContainerEvicted(5),
        ];
        let violations = check(&journal(events.clone()), true);
        assert!(
            violations
                .iter()
                .any(|v| v.message.contains("never followed by a replacement")),
            "got: {violations:?}"
        );
        assert!(check(&journal(events), false).is_empty());
    }

    #[test]
    fn stage_bracketing_is_enforced() {
        let j = journal(vec![
            JobEvent::StageCompleted(0),
            JobEvent::StageCompleted(0),
        ]);
        assert!(check(&j, false)
            .iter()
            .any(|v| v.message.contains("already complete")),);
        let j = journal(vec![JobEvent::StageReopened {
            stage: 0,
            recompute: true,
        }]);
        assert!(check(&j, false)
            .iter()
            .any(|v| v.message.contains("already open")),);
    }

    #[test]
    fn retransmission_bound_is_enforced() {
        let retry = JobEvent::MessageRetransmitted {
            exec: 1,
            to_master: true,
            seq: 5,
        };
        let j = journal(vec![retry.clone(), retry.clone()]);
        assert!(check(&j, false).is_empty(), "bound is 2, two retries fine");
        let j = journal(vec![retry.clone(), retry.clone(), retry]);
        let violations = check(&j, false);
        assert!(
            violations
                .iter()
                .any(|v| v.message.contains("retransmitted more than 2 times")),
            "got: {violations:?}"
        );
    }

    fn blk(fop: FopId, index: usize) -> BlockRef {
        BlockRef::Output { fop, index }
    }

    #[test]
    fn store_occupancy_over_budget_is_detected() {
        // The configured budget bounds self-reported occupancy.
        let m = JournalMeta {
            executor_memory_bytes: 64,
            ..meta()
        };
        let j = journal_with(
            m,
            vec![JobEvent::BlockAdmitted {
                exec: 0,
                block: blk(0, 0),
                bytes: 80,
                resident: 80,
            }],
        );
        assert!(
            check(&j, false)
                .iter()
                .any(|v| v.message.contains("exceeds its 64 B budget")),
            "got: {:?}",
            check(&j, false)
        );
        // A chaos shrink lowers the enforced budget mid-run, even when
        // the job started unlimited.
        let j = journal(vec![
            JobEvent::StoreBudgetChanged {
                exec: 0,
                budget: 32,
            },
            JobEvent::BlockAdmitted {
                exec: 0,
                block: blk(0, 0),
                bytes: 40,
                resident: 40,
            },
        ]);
        assert!(check(&j, false)
            .iter()
            .any(|v| v.message.contains("exceeds its 32 B budget")));
    }

    #[test]
    fn pinned_block_spill_is_detected() {
        let j = journal(vec![
            JobEvent::BlockAdmitted {
                exec: 0,
                block: blk(0, 0),
                bytes: 8,
                resident: 8,
            },
            JobEvent::BlockPinned {
                exec: 0,
                block: blk(0, 0),
            },
            JobEvent::BlockSpilled {
                exec: 0,
                block: blk(0, 0),
                bytes: 8,
                raw_bytes: 8,
                resident: 0,
            },
        ]);
        assert!(check(&j, false)
            .iter()
            .any(|v| v.message.contains("pinned block output 0.0 spilled")));
    }

    #[test]
    fn spilled_block_must_reload_before_pinning() {
        let spill_then_pin = vec![
            JobEvent::BlockAdmitted {
                exec: 0,
                block: blk(0, 0),
                bytes: 8,
                resident: 8,
            },
            JobEvent::BlockSpilled {
                exec: 0,
                block: blk(0, 0),
                bytes: 8,
                raw_bytes: 8,
                resident: 0,
            },
            JobEvent::BlockPinned {
                exec: 0,
                block: blk(0, 0),
            },
        ];
        assert!(check(&journal(spill_then_pin), false)
            .iter()
            .any(|v| v.message.contains("while spilled")));
        let with_reload = vec![
            JobEvent::BlockAdmitted {
                exec: 0,
                block: blk(0, 0),
                bytes: 8,
                resident: 8,
            },
            JobEvent::BlockSpilled {
                exec: 0,
                block: blk(0, 0),
                bytes: 8,
                raw_bytes: 8,
                resident: 0,
            },
            JobEvent::BlockLoaded {
                exec: 0,
                block: blk(0, 0),
                bytes: 8,
                resident: 8,
            },
            JobEvent::BlockPinned {
                exec: 0,
                block: blk(0, 0),
            },
            JobEvent::BlockUnpinned {
                exec: 0,
                block: blk(0, 0),
            },
        ];
        assert!(check(&journal(with_reload), false).is_empty());
    }

    #[test]
    fn oom_attempt_that_commits_is_detected() {
        let j = journal(vec![
            launch(0, 0, 1, 0),
            JobEvent::OomInjected {
                fop: 0,
                index: 0,
                attempt: 1,
                exec: 0,
            },
            commit(0, 0, 1, 0),
        ]);
        assert!(check(&j, false)
            .iter()
            .any(|v| v.message.contains("despite an injected allocation failure")));
    }

    #[test]
    fn push_resume_requires_a_deferral() {
        let j = journal(vec![JobEvent::PushResumed {
            fop: 0,
            index: 0,
            exec: 1,
            bytes: 8,
        }]);
        assert!(check(&j, false)
            .iter()
            .any(|v| v.message.contains("without a matching deferral")));
        let j = journal(vec![
            JobEvent::PushDeferred {
                fop: 0,
                index: 0,
                exec: 1,
                bytes: 8,
            },
            JobEvent::PushResumed {
                fop: 0,
                index: 0,
                exec: 1,
                bytes: 8,
            },
        ]);
        assert!(check(&j, false).is_empty());
    }

    #[test]
    fn incomplete_task_fails_successful_run() {
        let j = journal(vec![
            launch(0, 0, 1, 0),
            commit(0, 0, 1, 0),
            JobEvent::StageCompleted(0),
        ]);
        let violations = check(&j, true);
        assert!(
            violations
                .iter()
                .any(|v| v.message.contains("task 1.0 never committed")),
            "got: {violations:?}"
        );
    }
}
