//! The preemptible execution engine: an event-driven scheduler that can
//! checkpoint a running task out of its PRR at PR-safe points and
//! restore it later, generalizing the run-to-completion
//! [`simulate`](crate::simulate::simulate)/[`simulate_faulty`](crate::faulty::simulate_faulty)
//! loops.
//!
//! The paper's bounds (Eq 5/7) assume a task, once configured, runs to
//! completion. Preemption via partial reconfiguration breaks that
//! assumption: a PRR's live context can be read back over the same
//! ICAP/API path a bitstream travels, the region reclaimed for a more
//! urgent task, and the context written back later. Both transfers are
//! priced exactly like bitstream transfers — a context of `state_bytes`
//! takes `state_bytes / port_bytes_per_s` on the configuration port,
//! serialized with every other transfer ([`PreemptCosts`]).
//!
//! Dispatch order comes from the generalized [`Policy`] trait:
//! [`Policy::ranks_above`] orders released jobs (strict priority, EDF)
//! and [`Policy::preemptive`] opts a policy into checkpointing. The
//! engine is a discrete-event loop over integer nanoseconds, so its
//! output — a list of [`ScheduleSegment`]s with explicit windows — is
//! bit-deterministic and replayable by the `hprc-sim` renderer.
//!
//! Every transfer succeeds on its first attempt, as the paper's
//! Eq (5)/(7) assume: a miss's configuration window is `T_PRTR` long
//! and a resume's write-back window is the context's restore time.
//! Armed fault injection lives on the run-to-completion path
//! ([`simulate_faulty`](crate::faulty::simulate_faulty)).

use serde::{Deserialize, Serialize};

use crate::cache::{ConfigCache, TaskId};
use crate::policy::{JobView, Policy};

/// One periodic real-time task of the workload: `frames` jobs released
/// every `period_s` starting at `phase_s`, each needing `exec_s` of
/// uninterrupted-equivalent PRR time before `deadline_s` after release.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RtTask {
    /// The hardware task (module library index) each frame instantiates.
    pub task: TaskId,
    /// Pure execution time of one frame, seconds.
    pub exec_s: f64,
    /// Release period, seconds.
    pub period_s: f64,
    /// Relative deadline (after release), seconds.
    pub deadline_s: f64,
    /// Static priority; lower numbers are more urgent.
    pub priority: u32,
    /// Live context size read back on checkpoint / written back on
    /// restore, bytes.
    pub state_bytes: u64,
    /// Number of frames (jobs) released.
    pub frames: usize,
    /// Release offset of frame 0, seconds.
    pub phase_s: f64,
}

/// The context-save/restore cost model. Checkpoint and restore
/// transfers ride the configuration port and are priced like bitstream
/// transfers: `state_bytes / port_bytes_per_s` seconds each, serialized
/// with configuration transfers on the same port.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PreemptCosts {
    /// Decision latency `T_decision` charged at each dispatch, seconds.
    pub t_decision_s: f64,
    /// Control/activation latency `T_control`, seconds.
    pub t_control_s: f64,
    /// Partial-reconfiguration transfer time `T_PRTR`, seconds.
    pub t_partial_s: f64,
    /// PR-safe checkpoint granularity: a running job may only be
    /// suspended at `exec_start + k * quantum_s`, seconds.
    pub quantum_s: f64,
    /// Configuration-port bandwidth used for both context readback and
    /// write-back, bytes per second. Must be positive.
    pub port_bytes_per_s: f64,
}

impl PreemptCosts {
    /// Context-save (readback) time for a `state_bytes` checkpoint.
    pub fn save_s(&self, state_bytes: u64) -> f64 {
        state_bytes as f64 / self.port_bytes_per_s
    }

    /// Context-restore (write-back) time for a `state_bytes` checkpoint.
    pub fn restore_s(&self, state_bytes: u64) -> f64 {
        state_bytes as f64 / self.port_bytes_per_s
    }
}

/// Lifecycle state of one job (frame) in the preemptible engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TaskState {
    /// Released, waiting for a PRR.
    Ready,
    /// Executing in a PRR.
    Running {
        /// The PRR slot the job occupies.
        slot: usize,
    },
    /// Checkpointed out of its PRR; context lives in host memory.
    Preempted {
        /// Fraction of `exec_s` completed before the checkpoint.
        progress: f64,
        /// Time the context readback took, seconds.
        saved_state_s: f64,
    },
    /// Finished.
    Done,
}

/// A half-open `[start_ns, end_ns)` window on the simulation clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Window {
    /// Window start, nanoseconds.
    pub start_ns: u64,
    /// Window end, nanoseconds.
    pub end_ns: u64,
}

impl Window {
    /// Window length in nanoseconds.
    pub fn len_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One dispatch of one job onto one PRR, with every window the
/// `hprc-sim` renderer needs, in absolute nanoseconds. Segments are
/// emitted in dispatch order, so `decision.start_ns` is monotone
/// non-decreasing across the vector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduleSegment {
    /// The task dispatched.
    pub task: TaskId,
    /// Which frame (job) of the task.
    pub frame: u32,
    /// The PRR slot used.
    pub slot: usize,
    /// Decision window (`T_decision`).
    pub decision: Window,
    /// Configuration transfer window (absent on a hit).
    pub config: Option<Window>,
    /// Context write-back window (present when `resumed`).
    pub restore: Option<Window>,
    /// Control/activation window (`T_control`).
    pub control: Window,
    /// Execution window. Ends early (at the checkpoint instant) when
    /// `preempted`.
    pub exec: Window,
    /// Context readback window (present when `preempted`).
    pub save: Option<Window>,
    /// The configuration was already resident: no transfer charged.
    pub hit: bool,
    /// This segment resumes a previously checkpointed job.
    pub resumed: bool,
    /// This segment ends in a checkpoint (`save` present).
    pub preempted: bool,
}

impl ScheduleSegment {
    /// Instant the segment begins (its decision window).
    pub fn start_ns(&self) -> u64 {
        self.decision.start_ns
    }

    /// Instant the segment's last window closes.
    pub fn end_ns(&self) -> u64 {
        let mut end = self.control.end_ns.max(self.exec.end_ns);
        if let Some(w) = self.config {
            end = end.max(w.end_ns);
        }
        if let Some(w) = self.restore {
            end = end.max(w.end_ns);
        }
        if let Some(w) = self.save {
            end = end.max(w.end_ns);
        }
        end.max(self.decision.end_ns)
    }
}

/// Final accounting for one job (frame).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// The task this job instantiates.
    pub task: TaskId,
    /// Frame index within the task.
    pub frame: u32,
    /// Release instant, nanoseconds.
    pub release_ns: u64,
    /// Absolute deadline, nanoseconds.
    pub deadline_ns: u64,
    /// Completion instant (`None` if the job never finished).
    pub finish_ns: Option<u64>,
    /// Finished after its deadline, or never finished.
    pub missed: bool,
    /// Times the job was checkpointed out of a PRR.
    pub preemptions: u32,
    /// Context write-backs performed.
    pub restores: u32,
    /// Terminal lifecycle state ([`TaskState::Done`] once finished).
    pub state: TaskState,
}

/// Aggregate statistics of one preemptive simulation.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PreemptStats {
    /// Jobs released.
    pub jobs: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Completed jobs that finished after their deadline.
    pub deadline_misses: u64,
    /// Checkpoints performed.
    pub preemptions: u64,
    /// Context write-backs performed.
    pub restores: u64,
    /// Dispatches that found their configuration resident.
    pub hits: u64,
    /// Dispatches that charged a configuration transfer.
    pub misses: u64,
    /// Total context-readback time, nanoseconds.
    pub save_ns: u64,
    /// Total context-write-back time, nanoseconds.
    pub restore_ns: u64,
    /// Instant the last window of the schedule closes, nanoseconds.
    pub makespan_ns: u64,
}

impl PreemptStats {
    /// Fraction of jobs that finished after their deadline. Zero for
    /// an empty run.
    pub fn deadline_miss_ratio(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / self.jobs as f64
        }
    }

    /// Configuration hit ratio `H` over dispatches (zero when nothing
    /// dispatched).
    pub fn hit_ratio(&self) -> f64 {
        let calls = self.hits + self.misses;
        if calls == 0 {
            0.0
        } else {
            self.hits as f64 / calls as f64
        }
    }

    /// Schedule makespan in seconds.
    pub fn makespan_s(&self) -> f64 {
        self.makespan_ns as f64 / 1e9
    }
}

/// Result of one preemptive simulation: the renderable schedule, the
/// per-job accounting, and the aggregates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PreemptOutcome {
    /// Dispatch segments in dispatch order (monotone start times).
    pub segments: Vec<ScheduleSegment>,
    /// Per-job records, in `(release, task, frame)` order.
    pub jobs: Vec<JobRecord>,
    /// Aggregates.
    pub stats: PreemptStats,
}

/// Strict-priority dispatch: jobs with numerically lower
/// [`RtTask::priority`] always run first, checkpointing lower-priority
/// jobs out of their PRRs when [`preemptive`](StrictPriority::new).
/// Victim slots for ordinary cache replacement rotate round-robin.
#[derive(Debug, Clone, Default)]
pub struct StrictPriority {
    non_preemptive: bool,
    rr: usize,
}

impl StrictPriority {
    /// The preemptive variant.
    pub fn new() -> Self {
        StrictPriority {
            non_preemptive: false,
            rr: 0,
        }
    }

    /// Same ranking, but running jobs are never checkpointed — the
    /// run-to-completion baseline.
    pub fn non_preemptive() -> Self {
        StrictPriority {
            non_preemptive: true,
            rr: 0,
        }
    }
}

impl Policy for StrictPriority {
    fn name(&self) -> &'static str {
        if self.non_preemptive {
            "priority-np"
        } else {
            "priority"
        }
    }

    fn choose_victim(&mut self, cache: &ConfigCache, _task: TaskId, _index: usize) -> usize {
        let slot = self.rr % cache.slot_count();
        self.rr += 1;
        slot
    }

    fn on_access(&mut self, _task: TaskId, _slot: usize, _index: usize) {}

    fn ranks_above(&self, a: &JobView, b: &JobView) -> bool {
        a.priority < b.priority
    }

    fn preemptive(&self) -> bool {
        !self.non_preemptive
    }
}

/// Earliest-deadline-first dispatch: the job with the nearest absolute
/// deadline runs first, checkpointing later-deadline jobs when
/// [`preemptive`](Edf::new). Victim slots rotate round-robin.
#[derive(Debug, Clone, Default)]
pub struct Edf {
    non_preemptive: bool,
    rr: usize,
}

impl Edf {
    /// The preemptive variant.
    pub fn new() -> Self {
        Edf {
            non_preemptive: false,
            rr: 0,
        }
    }

    /// Same ranking without checkpointing.
    pub fn non_preemptive() -> Self {
        Edf {
            non_preemptive: true,
            rr: 0,
        }
    }
}

impl Policy for Edf {
    fn name(&self) -> &'static str {
        if self.non_preemptive {
            "edf-np"
        } else {
            "edf"
        }
    }

    fn choose_victim(&mut self, cache: &ConfigCache, _task: TaskId, _index: usize) -> usize {
        let slot = self.rr % cache.slot_count();
        self.rr += 1;
        slot
    }

    fn on_access(&mut self, _task: TaskId, _slot: usize, _index: usize) {}

    fn ranks_above(&self, a: &JobView, b: &JobView) -> bool {
        a.deadline_ns < b.deadline_ns
    }

    fn preemptive(&self) -> bool {
        !self.non_preemptive
    }
}

fn ns(s: f64) -> u64 {
    (s * 1e9).round() as u64
}

#[derive(Debug, Clone)]
struct Job {
    task: TaskId,
    frame: u32,
    priority: u32,
    release_ns: u64,
    deadline_ns: u64,
    exec_ns: u64,
    done_ns: u64,
    state_bytes: u64,
    state: TaskState,
    finish_ns: Option<u64>,
    preemptions: u32,
    restores: u32,
}

impl Job {
    fn view(&self) -> JobView {
        JobView {
            task: self.task,
            priority: self.priority,
            deadline_ns: self.deadline_ns,
            release_ns: self.release_ns,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Running {
    job: usize,
    seg: usize,
    exec_start_ns: u64,
    exec_end_ns: u64,
    preempt_at_ns: Option<u64>,
}

/// Total dispatch order: the policy's strict ranking first, then the
/// deterministic `(release, task, frame)` tie-break.
fn rank_before(policy: &dyn Policy, a: &Job, b: &Job) -> bool {
    let (va, vb) = (a.view(), b.view());
    if policy.ranks_above(&va, &vb) {
        return true;
    }
    if policy.ranks_above(&vb, &va) {
        return false;
    }
    (a.release_ns, a.task.0, a.frame) < (b.release_ns, b.task.0, b.frame)
}

/// Runs the periodic workload through `n_slots` PRRs under `policy`.
///
/// The engine is an event-driven loop over integer nanoseconds:
/// releases, completions, and checkpoint instants are the events.
/// Preemption happens lazily at PR-safe points: when a waiting job
/// outranks a running one (per [`Policy::ranks_above`], and only if
/// [`Policy::preemptive`]), the victim is marked for checkpoint at its
/// next quantum boundary; if by then no waiting job still outranks it,
/// the mark is cancelled. All transfers serialize on one configuration
/// port: a miss's configuration takes `costs.t_partial_s` and a
/// resume's context write-back takes
/// [`costs.restore_s(state_bytes)`](PreemptCosts::restore_s), each
/// rounded to the nanosecond.
///
/// Metrics go to `ctx.registry` under `sched.{policy}.preempt.*`; a
/// `sched.simulate_preemptive` span plus `sched.preempt.*` metric
/// deltas go to the journal.
///
/// # Panics
///
/// Panics when `n_slots == 0` or `costs.port_bytes_per_s <= 0`.
pub fn simulate_preemptive(
    tasks: &[RtTask],
    n_slots: usize,
    policy: &mut dyn Policy,
    costs: &PreemptCosts,
    ctx: &hprc_ctx::ExecCtx,
) -> PreemptOutcome {
    assert!(n_slots > 0, "at least one PRR slot is required");
    assert!(
        costs.port_bytes_per_s > 0.0,
        "configuration-port bandwidth must be positive"
    );
    let registry = &ctx.registry;
    let j = &ctx.journal;
    let js = j.enter("sched.simulate_preemptive", 0, 0);
    let outcome = simulate_preemptive_inner(tasks, n_slots, policy, costs);
    record_preempt_outcome(registry, policy.name(), &outcome);
    j.metric("sched.preempt.jobs", outcome.stats.jobs);
    j.metric("sched.preempt.preemptions", outcome.stats.preemptions);
    j.metric("sched.preempt.restores", outcome.stats.restores);
    j.metric(
        "sched.preempt.deadline_misses",
        outcome.stats.deadline_misses,
    );
    j.exit(js, 0);
    outcome
}

fn record_preempt_outcome(
    registry: &hprc_obs::Registry,
    policy_name: &str,
    outcome: &PreemptOutcome,
) {
    if !registry.is_enabled() {
        return;
    }
    let prefix = format!("sched.{policy_name}.preempt");
    let s = &outcome.stats;
    for (name, value) in [
        ("jobs", s.jobs),
        ("completed", s.completed),
        ("deadline_misses", s.deadline_misses),
        ("preemptions", s.preemptions),
        ("restores", s.restores),
        ("hits", s.hits),
        ("misses", s.misses),
    ] {
        registry.counter(&format!("{prefix}.{name}")).add(value);
    }
    registry
        .gauge(&format!("{prefix}.deadline_miss_ratio"))
        .set(s.deadline_miss_ratio());
    registry
        .gauge(&format!("{prefix}.hit_ratio"))
        .set(s.hit_ratio());
    registry
        .gauge(&format!("{prefix}.makespan_s"))
        .set(s.makespan_s());
}

fn simulate_preemptive_inner(
    tasks: &[RtTask],
    n_slots: usize,
    policy: &mut dyn Policy,
    costs: &PreemptCosts,
) -> PreemptOutcome {
    let quantum_ns = ns(costs.quantum_s).max(1);
    let t_decision_ns = ns(costs.t_decision_s);
    let t_control_ns = ns(costs.t_control_s);
    let t_partial_ns = ns(costs.t_partial_s);

    // Expand the periodic tasks into jobs ordered by (release, task, frame).
    let mut jobs: Vec<Job> = Vec::new();
    for t in tasks {
        for f in 0..t.frames {
            let release_ns = ns(t.phase_s + f as f64 * t.period_s);
            jobs.push(Job {
                task: t.task,
                frame: f as u32,
                priority: t.priority,
                release_ns,
                deadline_ns: release_ns + ns(t.deadline_s),
                exec_ns: ns(t.exec_s).max(1),
                done_ns: 0,
                state_bytes: t.state_bytes,
                state: TaskState::Ready,
                finish_ns: None,
                preemptions: 0,
                restores: 0,
            });
        }
    }
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| (jobs[i].release_ns, jobs[i].task.0, jobs[i].frame));

    let mut stats = PreemptStats {
        jobs: jobs.len() as u64,
        ..Default::default()
    };
    let mut segments: Vec<ScheduleSegment> = Vec::new();
    if jobs.is_empty() {
        return PreemptOutcome {
            segments,
            jobs: Vec::new(),
            stats,
        };
    }

    let mut cache = ConfigCache::new(n_slots);
    let mut running: Vec<Option<Running>> = (0..n_slots).map(|_| None).collect();
    let mut slot_free_ns: Vec<u64> = vec![0; n_slots];
    let mut port_free_ns: u64 = 0;
    let mut ready: Vec<usize> = Vec::new();
    let mut next_release = 0usize;
    let mut call: u64 = 0;
    let mut now: u64 = jobs[order[0]].release_ns;

    loop {
        // Releases due.
        while next_release < order.len() && jobs[order[next_release]].release_ns <= now {
            ready.push(order[next_release]);
            next_release += 1;
        }

        // Checkpoints and completions due, in slot order.
        for s in 0..n_slots {
            let Some(r) = running[s] else { continue };
            if let Some(p) = r.preempt_at_ns {
                if p <= now {
                    let warranted = ready
                        .iter()
                        .any(|&b| policy.ranks_above(&jobs[b].view(), &jobs[r.job].view()));
                    if !warranted {
                        // The urgency passed (the waiter ran elsewhere):
                        // cancel the mark and run on.
                        running[s].as_mut().expect("occupied").preempt_at_ns = None;
                    } else {
                        // Checkpoint: stop at the PR-safe point, read the
                        // context back over the (serialized) port.
                        let save_len = ns(costs.save_s(jobs[r.job].state_bytes)).max(1);
                        let start = p.max(port_free_ns);
                        let win = Window {
                            start_ns: start,
                            end_ns: start + save_len,
                        };
                        port_free_ns = win.end_ns;
                        slot_free_ns[s] = win.end_ns;
                        let job = &mut jobs[r.job];
                        job.done_ns += p - r.exec_start_ns;
                        job.preemptions += 1;
                        job.state = TaskState::Preempted {
                            progress: job.done_ns as f64 / job.exec_ns as f64,
                            saved_state_s: save_len as f64 / 1e9,
                        };
                        let seg = &mut segments[r.seg];
                        seg.exec.end_ns = p;
                        seg.save = Some(win);
                        seg.preempted = true;
                        stats.preemptions += 1;
                        stats.save_ns += save_len;
                        ready.push(r.job);
                        running[s] = None;
                    }
                    continue;
                }
            }
            if r.exec_end_ns <= now {
                let job = &mut jobs[r.job];
                job.done_ns = job.exec_ns;
                job.finish_ns = Some(r.exec_end_ns);
                job.state = TaskState::Done;
                if r.exec_end_ns > job.deadline_ns {
                    stats.deadline_misses += 1;
                }
                stats.completed += 1;
                slot_free_ns[s] = slot_free_ns[s].max(r.exec_end_ns);
                running[s] = None;
            }
        }

        // Dispatch ready jobs into free, usable slots.
        loop {
            // One in-flight job per task: a module has one instance, so a
            // second frame waits for (or hits on) the first frame's PRR.
            let active = |t: TaskId| {
                (0..n_slots).any(|s| running[s].map(|r| jobs[r.job].task == t).unwrap_or(false))
            };
            let mut best: Option<usize> = None; // index into `ready`
            for (k, &jid) in ready.iter().enumerate() {
                if active(jobs[jid].task) {
                    continue;
                }
                best = match best {
                    None => Some(k),
                    Some(b) if rank_before(policy, &jobs[jid], &jobs[ready[b]]) => Some(k),
                    keep => keep,
                };
            }
            let Some(best) = best else { break };
            let jid = ready[best];
            let is_free = |s: usize, running: &[Option<Running>], slot_free_ns: &[u64]| {
                running[s].is_none() && slot_free_ns[s] <= now
            };
            let choice = cache
                .slot_of(jobs[jid].task)
                .filter(|&s| is_free(s, &running, &slot_free_ns))
                .or_else(|| {
                    (0..n_slots).find(|&s| {
                        is_free(s, &running, &slot_free_ns) && cache.occupant(s).is_none()
                    })
                })
                .or_else(|| (0..n_slots).find(|&s| is_free(s, &running, &slot_free_ns)));
            let Some(slot) = choice else { break };
            ready.remove(best);

            call += 1;
            let this_call = call;
            let task = jobs[jid].task;
            let resumed = matches!(jobs[jid].state, TaskState::Preempted { .. });
            let decision = Window {
                start_ns: now,
                end_ns: now + t_decision_ns,
            };
            let mut cursor = decision.end_ns;
            let hit = !policy.forces_miss() && cache.occupant(slot) == Some(task);

            // Every transfer serializes on the configuration port.
            let mut transfer = |len_ns: u64| {
                let start = cursor.max(port_free_ns);
                let win = Window {
                    start_ns: start,
                    end_ns: start + len_ns,
                };
                port_free_ns = win.end_ns;
                cursor = win.end_ns;
                win
            };
            let config = if hit {
                stats.hits += 1;
                None
            } else {
                stats.misses += 1;
                let win = transfer(t_partial_ns);
                if let Some(x) = cache.slot_of(task) {
                    if x != slot {
                        // Stale copy elsewhere (a PRR still reading back a
                        // preempted job's context): the new transfer
                        // supersedes it.
                        cache.clear_slot(x);
                    }
                }
                cache.load(slot, task);
                policy.on_load(task, slot, this_call as usize);
                Some(win)
            };
            let restore = if resumed {
                let win = transfer(ns(costs.restore_s(jobs[jid].state_bytes)));
                stats.restores += 1;
                stats.restore_ns += win.len_ns();
                jobs[jid].restores += 1;
                Some(win)
            } else {
                None
            };

            let control = Window {
                start_ns: cursor,
                end_ns: cursor + t_control_ns,
            };
            let remaining = jobs[jid].exec_ns - jobs[jid].done_ns;
            let exec = Window {
                start_ns: control.end_ns,
                end_ns: control.end_ns + remaining,
            };
            jobs[jid].state = TaskState::Running { slot };
            running[slot] = Some(Running {
                job: jid,
                seg: segments.len(),
                exec_start_ns: exec.start_ns,
                exec_end_ns: exec.end_ns,
                preempt_at_ns: None,
            });
            policy.on_access(task, slot, this_call as usize);
            segments.push(ScheduleSegment {
                task,
                frame: jobs[jid].frame,
                slot,
                decision,
                config,
                restore,
                control,
                exec,
                save: None,
                hit,
                resumed,
                preempted: false,
            });
        }

        // Lazily mark preemption points: each still-waiting job may mark
        // the most-preemptible running job it outranks, at that job's
        // next PR-safe quantum boundary.
        if policy.preemptive() && !ready.is_empty() {
            let mut waiting: Vec<usize> = ready.clone();
            waiting.sort_by(|&a, &b| {
                if rank_before(policy, &jobs[a], &jobs[b]) {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Greater
                }
            });
            for &w in &waiting {
                let mut victim: Option<usize> = None;
                for s in 0..n_slots {
                    let Some(r) = running[s] else { continue };
                    if r.preempt_at_ns.is_some() {
                        continue;
                    }
                    if !policy.ranks_above(&jobs[w].view(), &jobs[r.job].view()) {
                        continue;
                    }
                    let k = now
                        .saturating_sub(r.exec_start_ns)
                        .div_ceil(quantum_ns)
                        .max(1);
                    let p = r.exec_start_ns + k * quantum_ns;
                    if p >= r.exec_end_ns {
                        continue; // it finishes before the next safe point
                    }
                    victim = match victim {
                        None => Some(s),
                        Some(v) => {
                            let vj = running[v].expect("occupied").job;
                            if rank_before(policy, &jobs[vj], &jobs[r.job]) {
                                Some(s) // r is even less urgent: prefer it
                            } else {
                                Some(v)
                            }
                        }
                    };
                }
                if let Some(s) = victim {
                    let r = running[s].as_mut().expect("occupied");
                    let k = now
                        .saturating_sub(r.exec_start_ns)
                        .div_ceil(quantum_ns)
                        .max(1);
                    r.preempt_at_ns = Some(r.exec_start_ns + k * quantum_ns);
                }
            }
        }

        // Next event: the earliest release, running end/checkpoint, or
        // slot-freeing save tail.
        let mut next = u64::MAX;
        if next_release < order.len() {
            next = next.min(jobs[order[next_release]].release_ns);
        }
        for s in 0..n_slots {
            if let Some(r) = &running[s] {
                let e = r
                    .preempt_at_ns
                    .map_or(r.exec_end_ns, |p| p.min(r.exec_end_ns));
                next = next.min(e);
            } else if slot_free_ns[s] > now {
                next = next.min(slot_free_ns[s]);
            }
        }
        if next == u64::MAX {
            debug_assert!(ready.is_empty(), "schedule stuck with ready jobs");
            break;
        }
        now = next;
    }

    stats.makespan_ns = segments.iter().map(|s| s.end_ns()).max().unwrap_or(0);
    let records = order
        .iter()
        .map(|&i| {
            let job = &jobs[i];
            JobRecord {
                task: job.task,
                frame: job.frame,
                release_ns: job.release_ns,
                deadline_ns: job.deadline_ns,
                finish_ns: job.finish_ns,
                missed: job.finish_ns.map(|f| f > job.deadline_ns).unwrap_or(true),
                preemptions: job.preemptions,
                restores: job.restores,
                state: job.state,
            }
        })
        .collect();
    PreemptOutcome {
        segments,
        jobs: records,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs() -> PreemptCosts {
        PreemptCosts {
            t_decision_s: 1e-6,
            t_control_s: 1e-6,
            t_partial_s: 1e-3,
            quantum_s: 2e-3,
            port_bytes_per_s: 100e6,
        }
    }

    fn task(id: usize, exec_s: f64, period_s: f64, priority: u32, frames: usize) -> RtTask {
        RtTask {
            task: TaskId(id),
            exec_s,
            period_s,
            deadline_s: period_s,
            priority,
            state_bytes: 100_000, // 1 ms save/restore at 100 MB/s
            frames,
            phase_s: 0.0,
        }
    }

    fn dctx() -> hprc_ctx::ExecCtx {
        hprc_ctx::ExecCtx::default()
    }

    #[test]
    fn single_task_runs_to_completion_without_preemption() {
        let tasks = [task(0, 0.01, 0.02, 0, 5)];
        let out = simulate_preemptive(&tasks, 2, &mut StrictPriority::new(), &costs(), &dctx());
        assert_eq!(out.stats.jobs, 5);
        assert_eq!(out.stats.completed, 5);
        assert_eq!(out.stats.preemptions, 0);
        // First dispatch misses (cold), the rest hit (resident, one slot).
        assert_eq!(out.stats.misses, 1);
        assert_eq!(out.stats.hits, 4);
        assert_eq!(out.stats.deadline_miss_ratio(), 0.0);
    }

    #[test]
    fn high_priority_arrival_preempts_long_low_priority_job() {
        // One long background job on one PRR; a short urgent frame lands
        // mid-run and must checkpoint it out.
        let long = RtTask {
            phase_s: 0.0,
            ..task(0, 0.100, 1.0, 9, 1)
        };
        let urgent = RtTask {
            phase_s: 0.010,
            ..task(1, 0.005, 1.0, 0, 1)
        };
        let out = simulate_preemptive(
            &[long, urgent],
            1,
            &mut StrictPriority::new(),
            &costs(),
            &dctx(),
        );
        assert_eq!(out.stats.completed, 2);
        assert!(out.stats.preemptions >= 1, "{:?}", out.stats);
        assert_eq!(out.stats.restores, out.stats.preemptions);
        // The urgent job finishes before the background job.
        let finish = |t: usize| {
            out.jobs
                .iter()
                .find(|j| j.task == TaskId(t))
                .unwrap()
                .finish_ns
                .unwrap()
        };
        assert!(finish(1) < finish(0));
        // The background job's record carries the checkpoint count and
        // its segments carry the save/restore windows.
        let bg = out.jobs.iter().find(|j| j.task == TaskId(0)).unwrap();
        assert!(bg.preemptions >= 1);
        assert!(out.segments.iter().any(|s| s.preempted && s.save.is_some()));
        assert!(out
            .segments
            .iter()
            .any(|s| s.resumed && s.restore.is_some()));
    }

    #[test]
    fn checkpoints_land_on_quantum_boundaries() {
        let long = task(0, 0.101, 1.0, 9, 1);
        let urgent = RtTask {
            phase_s: 0.0101,
            ..task(1, 0.005, 1.0, 0, 1)
        };
        let out = simulate_preemptive(
            &[long, urgent],
            1,
            &mut StrictPriority::new(),
            &costs(),
            &dctx(),
        );
        let q = ns(costs().quantum_s);
        for seg in out.segments.iter().filter(|s| s.preempted) {
            let ran = seg.exec.end_ns - seg.exec.start_ns;
            assert_eq!(ran % q, 0, "checkpoint not quantum-aligned: {seg:?}");
            assert!(ran >= q);
        }
    }

    #[test]
    fn non_preemptive_baseline_never_checkpoints() {
        let long = task(0, 0.100, 1.0, 9, 1);
        let urgent = RtTask {
            phase_s: 0.010,
            ..task(1, 0.005, 1.0, 0, 1)
        };
        for p in [
            &mut StrictPriority::non_preemptive() as &mut dyn Policy,
            &mut Edf::non_preemptive(),
        ] {
            let out = simulate_preemptive(&[long, urgent], 1, p, &costs(), &dctx());
            assert_eq!(out.stats.preemptions, 0);
            assert_eq!(out.stats.restores, 0);
            assert_eq!(out.stats.completed, 2);
        }
    }

    #[test]
    fn edf_ranks_by_deadline_not_priority() {
        let a = JobView {
            task: TaskId(0),
            priority: 9,
            deadline_ns: 100,
            release_ns: 0,
        };
        let b = JobView {
            task: TaskId(1),
            priority: 0,
            deadline_ns: 200,
            release_ns: 0,
        };
        let edf = Edf::new();
        assert!(edf.ranks_above(&a, &b));
        assert!(!edf.ranks_above(&b, &a));
        assert!(!edf.ranks_above(&a, &a), "strict on ties");
        let pri = StrictPriority::new();
        assert!(pri.ranks_above(&b, &a));
        assert!(!pri.ranks_above(&a, &a));
    }

    #[test]
    fn outcome_is_deterministic() {
        let tasks = [task(0, 0.02, 0.03, 2, 8), task(1, 0.004, 0.01, 0, 20)];
        let run = || simulate_preemptive(&tasks, 2, &mut Edf::new(), &costs(), &dctx());
        assert_eq!(run(), run());
    }

    #[test]
    fn segments_are_monotone_and_windows_are_ordered() {
        let tasks = [task(0, 0.02, 0.03, 2, 6), task(1, 0.004, 0.01, 0, 15)];
        // Every task checkpoints 100 kB, so every write-back is priced
        // the same.
        let restore_ns = ns(costs().restore_s(100_000));
        for n_slots in [2, 1] {
            let out = simulate_preemptive(
                &tasks,
                n_slots,
                &mut StrictPriority::new(),
                &costs(),
                &dctx(),
            );
            if n_slots == 1 {
                assert!(
                    out.stats.restores > 0,
                    "one PRR must restore: {:?}",
                    out.stats
                );
            }
            let mut prev = 0;
            for seg in &out.segments {
                assert!(seg.start_ns() >= prev, "dispatch order broken");
                prev = seg.start_ns();
                assert!(seg.decision.end_ns >= seg.decision.start_ns);
                if let Some(c) = seg.config {
                    assert!(c.start_ns >= seg.decision.end_ns);
                    // One clean partial transfer per miss.
                    assert_eq!(c.len_ns(), ns(costs().t_partial_s));
                }
                if let Some(r) = seg.restore {
                    assert!(r.start_ns >= seg.decision.end_ns);
                    assert_eq!(r.len_ns(), restore_ns);
                }
                assert!(seg.exec.start_ns >= seg.control.end_ns);
                if let Some(sv) = seg.save {
                    assert!(sv.start_ns >= seg.exec.end_ns);
                }
            }
        }
    }

    #[test]
    fn completed_jobs_account_their_full_execution() {
        let tasks = [task(0, 0.02, 0.03, 2, 6), task(1, 0.004, 0.01, 0, 15)];
        let out = simulate_preemptive(&tasks, 1, &mut Edf::new(), &costs(), &dctx());
        // Per-job exec time summed across that job's segments equals the
        // task's requirement, preempted or not.
        for rec in &out.jobs {
            let total: u64 = out
                .segments
                .iter()
                .filter(|s| s.task == rec.task && s.frame == rec.frame)
                .map(|s| s.exec.len_ns())
                .sum();
            let spec = ns(if rec.task == TaskId(0) { 0.02 } else { 0.004 }).max(1);
            assert_eq!(total, spec, "job {:?}#{}", rec.task, rec.frame);
        }
    }

    #[test]
    fn metrics_are_recorded_per_policy() {
        let tasks = [task(0, 0.02, 0.05, 2, 3), task(1, 0.004, 0.01, 0, 10)];
        let ctx = dctx().with_registry(hprc_obs::Registry::new());
        let out = simulate_preemptive(&tasks, 1, &mut Edf::new(), &costs(), &ctx);
        let snap = ctx.registry.snapshot();
        assert_eq!(snap.counters["sched.edf.preempt.jobs"], out.stats.jobs);
        assert_eq!(
            snap.counters["sched.edf.preempt.preemptions"],
            out.stats.preemptions
        );
        assert_eq!(
            snap.gauges["sched.edf.preempt.deadline_miss_ratio"],
            out.stats.deadline_miss_ratio()
        );
    }

    #[test]
    fn preempted_state_reports_progress_and_saved_context() {
        let long = task(0, 0.100, 10.0, 9, 1);
        let urgent = RtTask {
            phase_s: 0.010,
            // Long enough that the background job stays checkpointed for
            // a while; we inspect its state via the segment windows.
            ..task(1, 0.005, 10.0, 0, 1)
        };
        let out = simulate_preemptive(
            &[long, urgent],
            1,
            &mut StrictPriority::new(),
            &costs(),
            &dctx(),
        );
        let seg = out
            .segments
            .iter()
            .find(|s| s.preempted)
            .expect("a checkpoint happened");
        let save = seg.save.expect("save window present");
        // 100 kB at 100 MB/s = 1 ms readback.
        assert_eq!(save.len_ns(), 1_000_000);
        // Progress at the checkpoint is a whole number of quanta.
        assert!(seg.exec.len_ns() > 0 && seg.exec.len_ns() < ns(0.100));
    }
}
