//! # Multi-tenant solve scheduler — solver-as-a-service
//!
//! The paper's follow-on work (arXiv:1006.3148) makes explicit what
//! §1.3 implies: thread groups pinned to *distinct shared caches* run
//! independently without interfering. This module turns that into a
//! serving layer where **jobs/sec** is the headline metric: a machine
//! with several cache groups no longer runs one solve at a time —
//! disjoint core-set *slices* each serve their own stream of jobs.
//!
//! ```text
//!            submit / submit_blocking (admission control)
//!  clients ────────────────► [ JobQueue, bounded ]
//!                                   │ pop (policy: biggest-first | FIFO)
//!             ┌─────────────────────┼─────────────────────┐
//!             ▼                     ▼                     ▼
//!       slice 0 thread        slice 1 thread        slice N thread
//!       Machine::restrict     Machine::restrict     Machine::restrict
//!       (cache group 0)       (cache group 1)       (cache group N)
//!       persistent Runtime    persistent Runtime    persistent Runtime
//!       + GridPool            + GridPool            + GridPool
//!             │                     │                     │
//!             └────────── JobHandle::wait → JobReport ────┘
//! ```
//!
//! - **Admission control**: the [`JobQueue`] is bounded. [`Server::submit`]
//!   returns [`Rejected::Full`] (the spec comes back to the caller) when
//!   the queue is at capacity; [`Server::submit_blocking`] waits for
//!   space up to a deadline instead (backpressure).
//! - **Slices**: the machine is partitioned into disjoint core sets
//!   along [`Machine::cache_groups`] boundaries
//!   ([`Machine::restrict`]). Each slice keeps one persistent
//!   [`Runtime`] (workers pinned to the slice's cores) and its
//!   [`GridPool`](tb_runtime::GridPool) alive across jobs, so tenants
//!   pay neither spawn-per-job nor allocation-per-job. A slice computes
//!   on the client's pages: the payload grid is solved in place, and
//!   the pool grids a job pairs it with are placed by the slice thread
//!   that allocated them.
//! - **Packing policy**: a free slice takes the biggest queued job
//!   first ([`SchedPolicy::BiggestFirst`], throughput — big jobs don't
//!   convoy behind the tail), the oldest ([`SchedPolicy::Fifo`],
//!   latency), or the most urgent ([`SchedPolicy::Deadline`]:
//!   earliest-deadline-first over [`Priority`] classes, with aging so
//!   `Batch` jobs cannot starve — see [`deadline_pick`]).
//! - **Deadlines**: a [`JobSpec`] may carry a client deadline. The
//!   server predicts a service-time *floor* for the executing slice
//!   (observed MLUP/s for the (operator, element) pair, else the
//!   tb-model cache-bandwidth bound
//!   [`tb_model::service_floor_seconds`]) and, under
//!   [`Admission::Shed`], rejects jobs that would blow their deadline
//!   even starting immediately ([`Rejected::Infeasible`]) instead of
//!   queueing doomed work. [`JobReport::deadline_met`] records the
//!   honest outcome — measured from *submission-call entry*, so time
//!   blocked in [`Server::submit_blocking`] counts against the client
//!   deadline ([`JobReport::admission_wait`]).
//! - **Cancellation**: [`JobHandle::cancel`] removes a still-queued job
//!   atomically — a cancelled job never executes.
//! - **Accounting**: [`Server::stats`] aggregates per-[`Priority`]
//!   completion counts, p50/p99 latency, deadline misses, sheds and
//!   cancels ([`ServerStats`]).
//! - **Warm plans**: [`JobMethod::Tuned`] jobs tune through the plan
//!   cache keyed by the *executing slice's* sub-machine fingerprint.
//!   Identical slices share one fingerprint, so after the first cold
//!   tune every slice replays the winner with **zero** measurements.
//! - **Isolation**: a job that panics fails *its own* [`JobHandle`]
//!   with [`JobError`]; the slice's runtime survives and keeps serving
//!   (worker panics are caught and re-raised per dispatch, not poison).
//!
//! Every job returns a [`JobReport`] with queue-wait, service time,
//! MLUP/s, and an order-independent verification hash of the result
//! grid, so a serving deployment can spot-check any job against the
//! sequential oracle.

use std::any::{Any, TypeId};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tb_grid::{norm, Dims3, Grid3, Real, Region3};
use tb_model::MachineParams;
use tb_runtime::Runtime;
use tb_stencil::{Avg27, Jacobi6, Jacobi7, RunStats, StencilOp, VarCoeff7};
use tb_topology::{Machine, TeamLayout};

use crate::{solve_tuned_with_on, solve_with_on, Method, TuneOptions};

// ---------------------------------------------------------------------
// The bounded queue
// ---------------------------------------------------------------------

/// Why a submission was turned away. The item always comes back to the
/// caller, untouched — admission control never consumes rejected work.
#[derive(Debug)]
pub enum Rejected<I> {
    /// The bounded queue is at capacity (and stayed there for the whole
    /// deadline, for the blocking form).
    Full(I),
    /// The queue is closed for new work (server shutting down).
    Closed(I),
    /// Admission control predicts the job cannot meet its deadline even
    /// starting immediately on an idle slice: the optimistic service
    /// floor (second field) already exceeds the requested deadline.
    /// Only servers running [`Admission::Shed`] produce this.
    Infeasible(I, Duration),
}

impl<I> Rejected<I> {
    /// The rejected item, whatever the reason.
    pub fn into_inner(self) -> I {
        match self {
            Rejected::Full(i) | Rejected::Closed(i) | Rejected::Infeasible(i, _) => i,
        }
    }
}

struct QueueState<I> {
    items: VecDeque<I>,
    closed: bool,
}

/// A bounded MPMC job queue with admission control: producers are
/// rejected (or block up to a deadline) when the queue is full,
/// consumers pick items under a caller-supplied selection policy and
/// block while it is empty. Closing wakes everyone; consumers drain the
/// remaining items before seeing `None`.
pub struct JobQueue<I> {
    capacity: usize,
    state: Mutex<QueueState<I>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<I> JobQueue<I> {
    /// A queue admitting at most `capacity` (≥ 1) waiting items. Items
    /// being *executed* by a consumer no longer count against the bound.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity >= 1, "a job queue needs capacity >= 1");
        Self {
            capacity,
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently waiting (not the ones being executed).
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState<I>> {
        self.state.lock().expect("job queue poisoned")
    }

    /// Admit `item` iff there is room right now.
    fn try_push(&self, item: I) -> Result<(), Rejected<I>> {
        let mut s = self.lock();
        if s.closed {
            return Err(Rejected::Closed(item));
        }
        if s.items.len() >= self.capacity {
            return Err(Rejected::Full(item));
        }
        s.items.push_back(item);
        drop(s);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Admit `item`, waiting up to `timeout` for room (backpressure).
    /// `on_admit` runs on the item under the queue lock immediately
    /// before it becomes visible to consumers. The server stamps the
    /// admission instant here — a consumer can pick the item the moment
    /// the lock drops, so stamping after the push returns would race.
    fn push_deadline_with(
        &self,
        mut item: I,
        timeout: Duration,
        on_admit: impl FnOnce(&mut I),
    ) -> Result<(), Rejected<I>> {
        let deadline = Instant::now() + timeout;
        let mut s = self.lock();
        loop {
            if s.closed {
                return Err(Rejected::Closed(item));
            }
            if s.items.len() < self.capacity {
                on_admit(&mut item);
                s.items.push_back(item);
                drop(s);
                self.not_empty.notify_one();
                return Ok(());
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(Rejected::Full(item));
            }
            let (guard, _) = self
                .not_full
                .wait_timeout(s, deadline - now)
                .expect("job queue poisoned");
            s = guard;
        }
    }

    /// Take one item, chosen by `pick` from the current queue contents
    /// (`pick` returns an index into the `VecDeque`, front = oldest).
    /// Blocks while the queue is empty; returns `None` once it is
    /// closed *and* drained.
    ///
    /// # Picker contract
    /// `pick` is called with a non-empty queue and must return an index
    /// `< len`. An out-of-range index is a scheduler-policy bug: debug
    /// builds panic on it; release builds clamp to the newest item
    /// (index `len - 1`) so a buggy policy degrades to serving the tail
    /// instead of crashing the slice thread.
    pub fn pop_select(&self, pick: impl Fn(&VecDeque<I>) -> usize) -> Option<I> {
        let mut s = self.lock();
        loop {
            if !s.items.is_empty() {
                let idx = pick(&s.items);
                debug_assert!(
                    idx < s.items.len(),
                    "picker returned out-of-range index {idx} for a queue of {}",
                    s.items.len()
                );
                let idx = idx.min(s.items.len() - 1);
                let item = s.items.remove(idx).expect("index bounded above");
                drop(s);
                self.not_full.notify_one();
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s = self.not_empty.wait(s).expect("job queue poisoned");
        }
    }

    /// Remove and return the first queued item matching `pred`, if any —
    /// the cancellation primitive. Removal is atomic with respect to
    /// consumers: an item removed here was never observed by
    /// [`JobQueue::pop_select`] and never will be. Frees a capacity slot
    /// (blocked producers are woken).
    pub fn remove_where(&self, pred: impl Fn(&I) -> bool) -> Option<I> {
        let mut s = self.lock();
        let idx = s.items.iter().position(pred)?;
        let item = s.items.remove(idx).expect("position is in range");
        drop(s);
        self.not_full.notify_one();
        Some(item)
    }

    /// Close for new submissions and wake every waiter. Idempotent.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Remove and return everything still waiting (used by the server
    /// to cancel jobs that no slice will ever pick up).
    pub fn drain(&self) -> Vec<I> {
        self.lock().items.drain(..).collect()
    }
}

// ---------------------------------------------------------------------
// Job specification
// ---------------------------------------------------------------------

/// The operator a job applies — the same four operators the rest of the
/// workspace verifies bitwise, instantiable for either element type.
// Not `#[non_exhaustive]`: the hidden variant is a test hook, and
// callers are expected to match the four real operators exhaustively.
#[allow(clippy::manual_non_exhaustive)]
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum JobOp {
    /// The paper's Eq. 1 six-point Jacobi average.
    Jacobi6,
    /// Explicit-Euler heat step with the given diffusion number.
    Jacobi7Heat(f64),
    /// Seven-point variable-coefficient diffusion over the deterministic
    /// banded coefficient field ([`VarCoeff7::banded`]).
    VarCoeff7Banded,
    /// Dense 27-point average.
    Avg27,
    /// Test-only: panics inside the slice worker, to prove that one
    /// job's failure cannot poison other slices.
    #[doc(hidden)]
    PanicForTest,
}

impl JobOp {
    pub fn name(&self) -> &'static str {
        match self {
            JobOp::Jacobi6 => "jacobi6",
            JobOp::Jacobi7Heat(_) => "jacobi7",
            JobOp::VarCoeff7Banded => "varcoeff7",
            JobOp::Avg27 => "avg27",
            JobOp::PanicForTest => "panic-for-test",
        }
    }

    /// Streaming-store code balance (bytes/LUP) at the given element
    /// width — mirrors [`StencilOp::bytes_per_lup`] without constructing
    /// the operator ([`VarCoeff7::banded`] would allocate its whole
    /// coefficient grid just to answer). Streaming is the lowest-traffic
    /// store mode, which keeps the admission service-floor prediction
    /// optimistic (see [`tb_model::service_floor_seconds`]).
    pub fn streaming_bytes_per_lup(&self, element_bytes: usize) -> f64 {
        // Read + write streams; VarCoeff7 adds one coefficient read.
        let streams = match self {
            JobOp::VarCoeff7Banded => 3.0,
            _ => 2.0,
        };
        streams * element_bytes as f64
    }
}

/// The initial grid, carrying the element type with it.
#[derive(Clone, Debug)]
pub enum JobPayload {
    F64(Grid3<f64>),
    F32(Grid3<f32>),
}

impl JobPayload {
    pub fn dims(&self) -> Dims3 {
        match self {
            JobPayload::F64(g) => g.dims(),
            JobPayload::F32(g) => g.dims(),
        }
    }

    pub fn element(&self) -> &'static str {
        match self {
            JobPayload::F64(_) => "f64",
            JobPayload::F32(_) => "f32",
        }
    }

    /// Bytes per grid element (8 for `f64`, 4 for `f32`).
    pub fn element_bytes(&self) -> usize {
        match self {
            JobPayload::F64(_) => 8,
            JobPayload::F32(_) => 4,
        }
    }

    /// Order-independent checksum of the grid ([`norm::fingerprint`]
    /// over the whole region) — compare a job's [`JobReport::verify_hash`]
    /// against the oracle's payload to verify without keeping both grids.
    pub fn fingerprint(&self) -> u64 {
        match self {
            JobPayload::F64(g) => norm::fingerprint(g, &Region3::whole(g.dims())),
            JobPayload::F32(g) => norm::fingerprint(g, &Region3::whole(g.dims())),
        }
    }
}

/// How a job picks its execution strategy.
#[derive(Clone, Debug)]
pub enum JobMethod {
    /// Run exactly this method (its thread count must fit the slice).
    Fixed(Method),
    /// Let the plan-cache autotuner choose; the server overrides
    /// [`TuneOptions::machine`] with the executing slice's sub-machine,
    /// so the plan is keyed per sub-machine fingerprint and warm jobs
    /// replay with zero measurements on every identical slice.
    Tuned(TuneOptions),
}

/// Scheduling class of a job, from most to least urgent. Under
/// [`SchedPolicy::Deadline`] the class sets the *virtual deadline* of
/// jobs that don't carry a real one (see [`deadline_pick`]); the other
/// policies ignore it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Priority {
    /// Interactive: serve as soon as possible.
    Latency,
    /// The default class.
    #[default]
    Normal,
    /// Throughput work that tolerates waiting — but never starves: aging
    /// promotes it ahead of everything submitted after its grace period.
    Batch,
}

impl Priority {
    /// All classes, most urgent first — indexable by [`Priority::index`].
    pub const ALL: [Priority; 3] = [Priority::Latency, Priority::Normal, Priority::Batch];

    /// Dense index for per-class tables (`Latency` = 0 … `Batch` = 2).
    pub fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        match self {
            Priority::Latency => "latency",
            Priority::Normal => "normal",
            Priority::Batch => "batch",
        }
    }

    /// Aging-quantum multiplier for the class's virtual deadline:
    /// a deadline-less job behaves as if due `factor × aging` after
    /// submission.
    fn aging_factor(self) -> u32 {
        match self {
            Priority::Latency => 0,
            Priority::Normal => 1,
            Priority::Batch => 4,
        }
    }
}

/// One solve job: operator, initial grid, sweep count, strategy.
#[derive(Clone, Debug)]
pub struct JobSpec {
    pub op: JobOp,
    pub payload: JobPayload,
    pub sweeps: usize,
    pub method: JobMethod,
    /// Caller correlation id, copied into the report verbatim.
    pub tag: u64,
    /// Scheduling class (see [`Priority`]); `Normal` by default.
    pub priority: Priority,
    /// Client deadline, relative to the *submission-call entry* (so time
    /// blocked inside [`Server::submit_blocking`] counts against it).
    /// Under [`SchedPolicy::Deadline`] it drives EDF picking; under
    /// [`Admission::Shed`] an infeasible deadline is rejected up front.
    /// Every deadline job's outcome lands in
    /// [`JobReport::deadline_met`].
    pub deadline: Option<Duration>,
}

impl JobSpec {
    /// A fixed-method job with `tag = 0`, `Normal` priority, no deadline.
    pub fn new(op: JobOp, payload: JobPayload, sweeps: usize, method: JobMethod) -> Self {
        Self {
            op,
            payload,
            sweeps,
            method,
            tag: 0,
            priority: Priority::Normal,
            deadline: None,
        }
    }

    /// Builder form: set the scheduling class.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Builder form: set the client deadline (relative to submission).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Scheduling weight: total cell updates requested. The
    /// biggest-first policy orders the queue by this.
    pub fn weight(&self) -> u64 {
        let d = self.payload.dims();
        (d.nx * d.ny * d.nz * self.sweeps.max(1)) as u64
    }
}

// ---------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------

/// Tuning facts of a [`JobMethod::Tuned`] job.
#[derive(Clone, Debug)]
pub struct TunedJob {
    /// `true` when the plan was replayed from the cache — by contract
    /// such a job performed **zero** measurements.
    pub cache_hit: bool,
    /// Candidate measurements performed (0 on a warm hit).
    pub measurements: usize,
    /// Label of the plan that ran.
    pub plan: String,
}

/// What every finished job reports.
#[derive(Clone, Debug)]
pub struct JobReport {
    pub job_id: u64,
    pub tag: u64,
    /// Index of the slice that served the job.
    pub slice: usize,
    pub op: &'static str,
    pub dims: Dims3,
    pub sweeps: usize,
    /// Scheduling class the job ran under.
    pub priority: Priority,
    /// Submission-call entry → admission into the queue: the time the
    /// client spent blocked in [`Server::submit_blocking`] waiting for a
    /// queue slot (zero for the non-blocking [`Server::submit`]). Kept
    /// separate from [`JobReport::queue_wait`] so backpressure is
    /// visible instead of silently vanishing from the accounting.
    pub admission_wait: Duration,
    /// Admission → a slice picking the job up.
    pub queue_wait: Duration,
    /// Solve wall time on the slice (tuning included for cold tunes).
    pub service: Duration,
    /// Always `Duration::ZERO`: a slice solves the client's grid in
    /// place, so nothing is copied in. Kept only because the benchmark's
    /// span rebuild reads it; delete it once the benchmark stops reading
    /// it.
    pub ingest: Duration,
    /// Always `Duration::ZERO`: the result is the client's own grid, so
    /// nothing is copied out. Kept for the same reason as
    /// [`JobReport::ingest`].
    pub egress: Duration,
    /// Fresh grid allocations this job caused in the slice's pool — 0
    /// once the slice is warm for the job's shape, which is the
    /// observable "warm path allocates nothing" contract.
    pub pool_fresh: u64,
    pub mlups: f64,
    pub cell_updates: u64,
    /// Order-independent checksum of the result grid; equal to the
    /// sequential oracle's [`JobPayload::fingerprint`] iff the solve is
    /// bitwise-correct.
    pub verify_hash: u64,
    /// For deadline jobs: whether the job finished within
    /// [`JobSpec::deadline`], measured from submission-call entry (so
    /// admission blocking counts). `None` when no deadline was set.
    pub deadline_met: Option<bool>,
    /// The admission predictor's optimistic service-time floor for this
    /// job — observed MLUP/s for the (operator, element) pair when this
    /// server has served one, else the tb-model cache-bandwidth bound
    /// (only under [`Admission::Shed`]). `None` when no estimate was
    /// available at submission.
    pub predicted_service: Option<Duration>,
    /// Present on tuned jobs.
    pub tuned: Option<TunedJob>,
}

impl JobReport {
    /// Admission wait + queue wait + service: what the submitting client
    /// experienced from submission-call entry to completion.
    pub fn latency(&self) -> Duration {
        self.admission_wait + self.queue_wait + self.service
    }
}

/// A failed job. Failures are per-job: the slice that ran it survives.
#[derive(Clone, Debug)]
pub struct JobError {
    pub job_id: u64,
    pub message: String,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {}: {}", self.job_id, self.message)
    }
}

impl std::error::Error for JobError {}

/// Result grid (same element type as submitted) plus the report.
pub type JobOutcome = Result<(JobPayload, JobReport), JobError>;

struct JobState {
    done: Mutex<Option<JobOutcome>>,
    cv: Condvar,
}

impl JobState {
    fn new() -> Arc<Self> {
        Arc::new(JobState {
            done: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    fn complete(&self, outcome: JobOutcome) {
        *self.done.lock().expect("job state poisoned") = Some(outcome);
        self.cv.notify_all();
    }
}

/// Ticket for a submitted job; [`JobHandle::wait`] blocks until a slice
/// finished it, [`JobHandle::cancel`] pulls it back out of the queue.
pub struct JobHandle {
    id: u64,
    state: Arc<JobState>,
    queue: std::sync::Weak<JobQueue<QueuedJob>>,
    stats: std::sync::Weak<Mutex<StatsInner>>,
}

impl JobHandle {
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Remove the job from the queue if no slice has picked it up yet.
    /// Removal is atomic with the slices' queue pops, so a job cancelled
    /// here **never executes**; [`JobHandle::wait`] then returns a
    /// cancellation [`JobError`]. Returns `false` (and changes nothing)
    /// when the job already started executing or finished.
    pub fn cancel(&self) -> bool {
        let Some(queue) = self.queue.upgrade() else {
            return false;
        };
        let id = self.id;
        match queue.remove_where(|j| j.id == id) {
            Some(job) => {
                if let Some(stats) = self.stats.upgrade() {
                    let mut s = stats.lock().expect("server stats poisoned");
                    s.cancels += 1;
                    s.classes[job.priority.index()].cancelled += 1;
                }
                job.state.complete(Err(JobError {
                    job_id: job.id,
                    message: "cancelled before execution".into(),
                }));
                true
            }
            None => false,
        }
    }

    /// Non-blocking: has the job finished?
    pub fn is_done(&self) -> bool {
        self.state
            .done
            .lock()
            .expect("job state poisoned")
            .is_some()
    }

    /// Block until the job finished and take its outcome.
    pub fn wait(self) -> JobOutcome {
        let mut done = self.state.done.lock().expect("job state poisoned");
        loop {
            if let Some(outcome) = done.take() {
                return outcome;
            }
            done = self.state.cv.wait(done).expect("job state poisoned");
        }
    }
}

// ---------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------

/// Queue-pop order when a slice frees up.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Oldest first: minimizes p50 latency.
    Fifo,
    /// Biggest requested work ([`JobSpec::weight`]) first: maximizes
    /// packing/throughput — long jobs start early instead of convoying
    /// behind the tail (ties break toward the oldest).
    #[default]
    BiggestFirst,
    /// Earliest (virtual) deadline first over [`Priority`] classes, with
    /// aging so `Batch` never starves — see [`deadline_pick`] for the
    /// exact discipline and its starvation bound.
    Deadline,
}

/// One queued job's scheduling facts, as the deadline policy sees them.
/// Public so policy properties (EDF optimality, aging bounds) can be
/// tested against [`deadline_pick`] on synthetic traces without running
/// a real server.
#[derive(Clone, Copy, Debug)]
pub struct SchedFacts {
    pub priority: Priority,
    /// Absolute client deadline, if the job carries one.
    pub deadline: Option<Instant>,
    /// Submission-call entry (aging counts from here, so admission
    /// blocking ages a job too).
    pub submitted: Instant,
}

impl SchedFacts {
    /// The job's virtual deadline: its real deadline when it has one,
    /// else `submitted + aging_factor(priority) · aging`.
    fn virtual_deadline(&self, aging: Duration) -> Instant {
        self.deadline
            .unwrap_or_else(|| self.submitted + aging * self.priority.aging_factor())
    }
}

/// The [`SchedPolicy::Deadline`] picker: earliest *virtual* deadline
/// first, ties broken toward the oldest submission (then the frontmost
/// queue position).
///
/// A job's virtual deadline is its client deadline when it has one;
/// deadline-less jobs get `submitted + factor·aging` with `factor` 0
/// (`Latency`), 1 (`Normal`) or 4 (`Batch`). Two properties follow:
///
/// * **EDF**: among deadline-bearing jobs this is exact
///   earliest-deadline-first, so for a single slice and simultaneous
///   submission it minimizes maximum lateness (Jackson's rule): if any
///   order meets every deadline, this one does.
/// * **Aging bounds `Batch` wait**: any job submitted after a `Batch`
///   job's virtual deadline `S + 4·aging` has a virtual deadline
///   *later* than it (real deadlines are ≥ their own submission
///   instant), so only the finitely many jobs already submitted before
///   that grace period expires can be served ahead of it — `Batch`
///   cannot starve under a continuous stream of urgent work.
///
/// `aging = 0` collapses every deadline-less job's virtual deadline to
/// its submission instant: plain FIFO with deadline jobs interleaved by
/// EDF. `items` must be non-empty; the returned index is `< len`.
pub fn deadline_pick(items: &[SchedFacts], aging: Duration) -> usize {
    assert!(!items.is_empty(), "deadline_pick needs a non-empty queue");
    items
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            a.virtual_deadline(aging)
                .cmp(&b.virtual_deadline(aging))
                .then(a.submitted.cmp(&b.submitted))
        })
        .map(|(i, _)| i)
        .expect("non-empty queue")
}

/// What besides queue capacity can turn a submission away.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum Admission {
    /// Admit anything the bounded queue accepts (the legacy behavior).
    #[default]
    QueueOnly,
    /// Additionally shed deadline jobs that are provably infeasible:
    /// when the *optimistic* service-time floor — the best observed
    /// MLUP/s for the (operator, element) pair on this server, else the
    /// tb-model shared-cache bandwidth bound
    /// ([`tb_model::service_floor_seconds`]) on these machine
    /// parameters — already exceeds the deadline, the job is rejected
    /// with [`Rejected::Infeasible`] instead of queueing work that is
    /// doomed to miss.
    Shed(MachineParams),
}

// ---------------------------------------------------------------------
// Server statistics
// ---------------------------------------------------------------------

/// Completed-job latencies kept per class for the percentile estimates —
/// a sliding window so a long-lived server reports *recent* tail
/// latency, not its whole history.
const STATS_WINDOW: usize = 4096;

#[derive(Default)]
struct ClassAccum {
    admitted: u64,
    completed: u64,
    failed: u64,
    cancelled: u64,
    deadlines: u64,
    deadline_misses: u64,
    latencies_ms: VecDeque<f64>,
    max_latency: Duration,
}

impl ClassAccum {
    fn record_latency(&mut self, latency: Duration) {
        if self.latencies_ms.len() >= STATS_WINDOW {
            self.latencies_ms.pop_front();
        }
        self.latencies_ms.push_back(latency.as_secs_f64() * 1e3);
        self.max_latency = self.max_latency.max(latency);
    }
}

#[derive(Default)]
struct StatsInner {
    classes: [ClassAccum; 3],
    sheds: u64,
    cancels: u64,
}

/// Linear-interpolation percentile over an *unsorted* sample; `0.0` on an
/// empty one. The rule is R-7 (Hyndman–Fan type 7, numpy's default): sort
/// the `n` samples, read rank `q·(n−1)` and interpolate linearly between
/// the two samples around it.
fn percentile_ms(samples: &VecDeque<f64>, q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = samples.iter().copied().collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Aggregates for one [`Priority`] class (a point-in-time snapshot).
#[derive(Clone, Debug, Default)]
pub struct ClassStats {
    /// Jobs admitted into the queue (includes still-queued/running).
    pub admitted: u64,
    /// Jobs that finished successfully.
    pub completed: u64,
    /// Jobs that failed in execution.
    pub failed: u64,
    /// Jobs cancelled before execution ([`JobHandle::cancel`] or server
    /// drop).
    pub cancelled: u64,
    /// Completed jobs that carried a deadline.
    pub deadlines: u64,
    /// ... of which finished after it.
    pub deadline_misses: u64,
    /// Median client latency ([`JobReport::latency`]) over the most
    /// recent 4096-job window, in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile client latency over the same window, ms.
    pub p99_ms: f64,
    /// Worst client latency ever observed (not windowed).
    pub max_ms: f64,
}

/// Point-in-time scheduling statistics ([`Server::stats`]).
#[derive(Clone, Debug, Default)]
pub struct ServerStats {
    /// Per-class aggregates, indexed by [`Priority::index`]
    /// (`Latency` = 0, `Normal` = 1, `Batch` = 2).
    pub classes: [ClassStats; 3],
    /// Submissions shed by admission control ([`Rejected::Infeasible`]).
    pub sheds: u64,
    /// Jobs cancelled before execution.
    pub cancels: u64,
}

impl ServerStats {
    /// The aggregates of one class.
    pub fn class(&self, p: Priority) -> &ClassStats {
        &self.classes[p.index()]
    }
}

/// Best observed LUP/s per (operator name, element name) — the admission
/// predictor's memory of what this server has actually achieved.
type RateMap = HashMap<(&'static str, &'static str), f64>;

/// How the machine is partitioned into slices.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum SlicePolicy {
    /// One slice per cache group — the paper's thread-group boundary,
    /// and the right default: groups behind distinct shared caches do
    /// not interfere.
    #[default]
    PerCacheGroup,
    /// Exactly `n` slices of near-equal core counts, carved
    /// contiguously from the cache groups in order (group boundaries
    /// are respected whenever the counts divide evenly). Useful to
    /// sub-split one big cache group, or to merge groups for jobs that
    /// need wider teams.
    Fixed(usize),
}

/// Knobs for [`Server::new`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bound of the admission queue (jobs waiting, not running).
    pub queue_capacity: usize,
    /// Latency-vs-throughput packing knob.
    pub policy: SchedPolicy,
    /// [`Runtime::with_pool_capacity`] for every slice runtime: a
    /// long-lived multi-tenant slice serves many problem shapes, so it
    /// parks more staging grids than the single-solve default.
    pub pool_capacity: usize,
    /// Machine partitioning.
    pub slices: SlicePolicy,
    /// Aging quantum of [`SchedPolicy::Deadline`]: a deadline-less job is
    /// scheduled as if due `aging_factor(priority) × aging` after
    /// submission (0 / 1× / 4× for `Latency` / `Normal` / `Batch` — see
    /// [`deadline_pick`]). Smaller values push deadline-less work ahead
    /// sooner; `Duration::ZERO` degenerates to FIFO-with-EDF-interleave.
    pub aging: Duration,
    /// Deadline admission control (see [`Admission`]).
    pub admission: Admission,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_capacity: 64,
            policy: SchedPolicy::default(),
            pool_capacity: 16,
            slices: SlicePolicy::default(),
            aging: Duration::from_millis(100),
            admission: Admission::QueueOnly,
        }
    }
}

/// Static description of one slice.
#[derive(Clone, Debug)]
pub struct SliceInfo {
    pub index: usize,
    /// The disjoint core set this slice owns.
    pub cores: Vec<usize>,
    /// Compute workers of the slice runtime (== `cores.len()`).
    pub threads: usize,
    /// [`Machine::signature`] of the slice's sub-machine — the machine
    /// half of its plan-cache fingerprint.
    pub signature: String,
}

struct QueuedJob {
    id: u64,
    spec: JobSpec,
    /// Submission-call entry — before any admission blocking.
    submitted: Instant,
    /// Admission into the queue; stamped under the queue lock by the
    /// blocking submit path ([`JobQueue::push_deadline_with`]), equal to
    /// `submitted` for the non-blocking path. `admitted - submitted` is
    /// the report's [`JobReport::admission_wait`].
    admitted: Instant,
    /// Absolute client deadline (`submitted + spec.deadline`).
    deadline: Option<Instant>,
    priority: Priority,
    /// The admission predictor's service-floor estimate, if any.
    predicted: Option<Duration>,
    weight: u64,
    state: Arc<JobState>,
}

/// The multi-tenant solve server. See the module docs for the shape.
///
/// Dropping the server closes the queue, lets every slice drain the
/// remaining admitted jobs, joins the slice threads, and fails any job
/// that never started (possible only for a paused server) with a
/// cancellation [`JobError`].
pub struct Server {
    queue: Arc<JobQueue<QueuedJob>>,
    slices: Vec<SliceInfo>,
    sub_machines: Vec<Machine>,
    threads: Vec<JoinHandle<()>>,
    policy: SchedPolicy,
    pool_capacity: usize,
    aging: Duration,
    admission: Admission,
    stats: Arc<Mutex<StatsInner>>,
    rates: Arc<Mutex<RateMap>>,
    next_id: AtomicU64,
}

/// Partition the machine's CPUs into disjoint slices per `policy`.
fn partition(machine: &Machine, policy: &SlicePolicy) -> Vec<Vec<usize>> {
    let groups = machine.cache_groups();
    match policy {
        SlicePolicy::PerCacheGroup => groups,
        SlicePolicy::Fixed(n) => {
            let all: Vec<usize> = groups.into_iter().flatten().collect();
            let n = (*n).clamp(1, all.len());
            let base = all.len() / n;
            let extra = all.len() % n;
            let mut out = Vec::with_capacity(n);
            let mut start = 0;
            for i in 0..n {
                let len = base + usize::from(i < extra);
                out.push(all[start..start + len].to_vec());
                start += len;
            }
            out
        }
    }
}

impl Server {
    /// Partition `machine` per the config and start one service thread
    /// (with its persistent pinned runtime) per slice.
    pub fn new(machine: &Machine, cfg: ServerConfig) -> Server {
        let mut s = Server::new_paused(machine, cfg);
        s.start();
        s
    }

    /// Like [`Server::new`], but without starting the slice threads:
    /// submissions are admitted (and rejected) by the queue alone until
    /// [`Server::start`]. Deterministic admission-control tests use
    /// this; production code wants [`Server::new`].
    pub fn new_paused(machine: &Machine, cfg: ServerConfig) -> Server {
        let parts = partition(machine, &cfg.slices);
        assert!(!parts.is_empty(), "machine has no cores to slice");
        let sub_machines: Vec<Machine> = parts.iter().map(|p| machine.restrict(p)).collect();
        let slices = parts
            .iter()
            .zip(&sub_machines)
            .enumerate()
            .map(|(index, (cores, sub))| SliceInfo {
                index,
                cores: cores.clone(),
                threads: sub.num_cpus(),
                signature: sub.signature(),
            })
            .collect();
        Server {
            queue: Arc::new(JobQueue::bounded(cfg.queue_capacity)),
            slices,
            sub_machines,
            threads: Vec::new(),
            policy: cfg.policy,
            pool_capacity: cfg.pool_capacity,
            aging: cfg.aging,
            admission: cfg.admission,
            stats: Arc::new(Mutex::new(StatsInner::default())),
            rates: Arc::new(Mutex::new(RateMap::new())),
            next_id: AtomicU64::new(1),
        }
    }

    /// Start the slice threads (idempotent).
    pub fn start(&mut self) {
        if !self.threads.is_empty() {
            return;
        }
        for (index, sub) in self.sub_machines.iter().enumerate() {
            let ctx = SliceCtx {
                queue: Arc::clone(&self.queue),
                sub: sub.clone(),
                index,
                policy: self.policy,
                pool_capacity: self.pool_capacity,
                aging: self.aging,
                stats: Arc::clone(&self.stats),
                rates: Arc::clone(&self.rates),
            };
            let handle = std::thread::Builder::new()
                .name(format!("tb-serve-s{index}"))
                .spawn(move || slice_loop(ctx))
                .expect("spawn slice thread");
            self.threads.push(handle);
        }
    }

    /// The slices this server schedules onto.
    pub fn slices(&self) -> &[SliceInfo] {
        &self.slices
    }

    /// Jobs admitted but not yet picked up by a slice.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The admission predictor's optimistic service-time floor for
    /// `spec`: the best LUP/s this server has *observed* for the
    /// (operator, element) pair when it has served one, else — only
    /// under [`Admission::Shed`] — the tb-model shared-cache bandwidth
    /// bound ([`tb_model::service_floor_seconds`]). Both are floors: the
    /// observed rate is the server's best case, and no schedule beats
    /// `M_c`. `None` when neither source applies.
    fn predict_service(&self, spec: &JobSpec) -> Option<Duration> {
        let weight = spec.weight();
        let observed = {
            let rates = self.rates.lock().expect("server rates poisoned");
            rates
                .get(&(spec.op.name(), spec.payload.element()))
                .map(|lups| Duration::from_secs_f64(weight as f64 / lups))
        };
        let modeled = match &self.admission {
            Admission::Shed(params) => {
                Some(Duration::from_secs_f64(tb_model::service_floor_seconds(
                    params,
                    spec.op
                        .streaming_bytes_per_lup(spec.payload.element_bytes()),
                    weight,
                )))
            }
            Admission::QueueOnly => None,
        };
        // Both are optimistic floors; take the tighter (larger) one.
        match (observed, modeled) {
            (Some(o), Some(m)) => Some(o.max(m)),
            (o, m) => o.or(m),
        }
    }

    // `Rejected` hands the (large) spec back by design — admission
    // control must return the rejected job for resubmission.
    #[allow(clippy::result_large_err)]
    fn enqueue(
        &self,
        spec: JobSpec,
        push: impl FnOnce(QueuedJob) -> Result<(), Rejected<QueuedJob>>,
    ) -> Result<JobHandle, Rejected<JobSpec>> {
        // Stamp at submission-call entry: everything after this instant —
        // admission blocking included — counts against the client.
        let submitted = Instant::now();
        let predicted = self.predict_service(&spec);
        if let (Admission::Shed(_), Some(deadline), Some(floor)) =
            (&self.admission, spec.deadline, predicted)
        {
            if floor > deadline {
                let mut s = self.stats.lock().expect("server stats poisoned");
                s.sheds += 1;
                return Err(Rejected::Infeasible(spec, floor));
            }
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let state = JobState::new();
        let priority = spec.priority;
        let job = QueuedJob {
            id,
            weight: spec.weight(),
            deadline: spec.deadline.map(|d| submitted + d),
            priority,
            predicted,
            spec,
            submitted,
            admitted: submitted,
            state: Arc::clone(&state),
        };
        match push(job) {
            Ok(()) => {
                self.stats.lock().expect("server stats poisoned").classes[priority.index()]
                    .admitted += 1;
                Ok(JobHandle {
                    id,
                    state,
                    queue: Arc::downgrade(&self.queue),
                    stats: Arc::downgrade(&self.stats),
                })
            }
            Err(Rejected::Full(j)) => Err(Rejected::Full(j.spec)),
            Err(Rejected::Closed(j)) => Err(Rejected::Closed(j.spec)),
            // The queue itself never sheds; the arm exists for the match.
            Err(Rejected::Infeasible(j, p)) => Err(Rejected::Infeasible(j.spec, p)),
        }
    }

    /// Admit a job iff the queue has room **right now**; a full queue
    /// returns [`Rejected::Full`] with the spec, untouched.
    #[allow(clippy::result_large_err)]
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, Rejected<JobSpec>> {
        self.enqueue(spec, |j| self.queue.try_push(j))
    }

    /// Admit a job, blocking up to `timeout` for queue space
    /// (backpressure for closed-loop clients). Time spent blocked here
    /// is reported as [`JobReport::admission_wait`] — and counts against
    /// the job's deadline, which is relative to the call's entry.
    #[allow(clippy::result_large_err)]
    pub fn submit_blocking(
        &self,
        spec: JobSpec,
        timeout: Duration,
    ) -> Result<JobHandle, Rejected<JobSpec>> {
        self.enqueue(spec, |j| {
            // Stamp admission under the queue lock: a slice can pick the
            // job the moment it becomes visible, so stamping after the
            // push returns would race (and under-report queue wait).
            self.queue
                .push_deadline_with(j, timeout, |j| j.admitted = Instant::now())
        })
    }

    /// Point-in-time scheduling statistics: per-class completion counts,
    /// windowed p50/p99 client latency, deadline misses, sheds, cancels.
    pub fn stats(&self) -> ServerStats {
        let s = self.stats.lock().expect("server stats poisoned");
        let mut out = ServerStats {
            sheds: s.sheds,
            cancels: s.cancels,
            ..ServerStats::default()
        };
        for (accum, snap) in s.classes.iter().zip(out.classes.iter_mut()) {
            *snap = ClassStats {
                admitted: accum.admitted,
                completed: accum.completed,
                failed: accum.failed,
                cancelled: accum.cancelled,
                deadlines: accum.deadlines,
                deadline_misses: accum.deadline_misses,
                p50_ms: percentile_ms(&accum.latencies_ms, 0.50),
                p99_ms: percentile_ms(&accum.latencies_ms, 0.99),
                max_ms: accum.max_latency.as_secs_f64() * 1e3,
            };
        }
        out
    }

    /// Graceful shutdown: stop admitting, serve everything already
    /// admitted, join the slices. (Dropping does the same.)
    pub fn shutdown(self) {}
}

impl Drop for Server {
    fn drop(&mut self) {
        self.queue.close();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Only a never-started server can still hold admitted jobs.
        for job in self.queue.drain() {
            {
                let mut s = self.stats.lock().expect("server stats poisoned");
                s.cancels += 1;
                s.classes[job.priority.index()].cancelled += 1;
            }
            job.state.complete(Err(JobError {
                job_id: job.id,
                message: "server dropped before the job was scheduled".into(),
            }));
        }
    }
}

// ---------------------------------------------------------------------
// Slice execution
// ---------------------------------------------------------------------

/// Everything one slice's service thread needs — bundled so the loop has
/// one argument instead of nine.
struct SliceCtx {
    queue: Arc<JobQueue<QueuedJob>>,
    sub: Machine,
    index: usize,
    policy: SchedPolicy,
    pool_capacity: usize,
    aging: Duration,
    stats: Arc<Mutex<StatsInner>>,
    rates: Arc<Mutex<RateMap>>,
}

fn slice_loop(ctx: SliceCtx) {
    let SliceCtx {
        queue,
        sub,
        index,
        policy,
        pool_capacity,
        aging,
        stats,
        rates,
    } = ctx;
    // One persistent runtime per slice, workers pinned to the slice's
    // cores, alive across every job this slice ever serves.
    let layout = TeamLayout::new(&sub, sub.num_cpus(), 1);
    let rt = Runtime::new(&layout).with_pool_capacity(pool_capacity);
    // Constructed operators that own grids (the banded coefficient
    // field) are cached per shape, so warm jobs skip that allocation
    // too — see `banded_op`.
    let mut op_cache: OpCache = HashMap::new();
    let pick = |items: &VecDeque<QueuedJob>| -> usize {
        match policy {
            SchedPolicy::Fifo => 0,
            SchedPolicy::BiggestFirst => items
                .iter()
                .enumerate()
                .max_by(|(ia, a), (ib, b)| a.weight.cmp(&b.weight).then(ib.cmp(ia)))
                .map(|(i, _)| i)
                .unwrap_or(0),
            SchedPolicy::Deadline => {
                let facts: Vec<SchedFacts> = items
                    .iter()
                    .map(|j| SchedFacts {
                        priority: j.priority,
                        deadline: j.deadline,
                        submitted: j.submitted,
                    })
                    .collect();
                deadline_pick(&facts, aging)
            }
        }
    };
    while let Some(job) = queue.pop_select(pick) {
        let picked = Instant::now();
        let queue_wait = picked.duration_since(job.admitted);
        let admission_wait = job.admitted.duration_since(job.submitted);
        let QueuedJob {
            id,
            spec,
            state,
            deadline,
            priority,
            predicted,
            ..
        } = job;
        let tag = spec.tag;
        let op_name = spec.op.name();
        let element = spec.payload.element();
        let dims = spec.payload.dims();
        let sweeps = spec.sweeps;
        // A panicking job fails its own handle; the slice (and its
        // runtime, which already survives worker panics) keeps serving.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute(&rt, &sub, spec, &mut op_cache)
        }));
        let service = picked.elapsed();
        let deadline_met = deadline.map(|d| Instant::now() <= d);
        let outcome = match result {
            Ok(Ok(exec)) => {
                // Feed the admission predictor: remember the best rate
                // this server has achieved for the (op, element) pair.
                if exec.mlups > 0.0 {
                    let lups = exec.mlups * 1e6;
                    let mut r = rates.lock().expect("server rates poisoned");
                    let best = r.entry((op_name, element)).or_insert(lups);
                    *best = best.max(lups);
                }
                Ok((
                    exec.payload,
                    JobReport {
                        job_id: id,
                        tag,
                        slice: index,
                        op: op_name,
                        dims,
                        sweeps,
                        priority,
                        admission_wait,
                        queue_wait,
                        service,
                        ingest: Duration::ZERO,
                        egress: Duration::ZERO,
                        pool_fresh: exec.pool_fresh,
                        mlups: exec.mlups,
                        cell_updates: exec.cell_updates,
                        verify_hash: exec.verify_hash,
                        deadline_met,
                        predicted_service: predicted,
                        tuned: exec.tuned,
                    },
                ))
            }
            Ok(Err(message)) => Err(JobError {
                job_id: id,
                message,
            }),
            Err(panic) => Err(JobError {
                job_id: id,
                message: format!("job panicked: {}", panic_message(&panic)),
            }),
        };
        {
            let mut s = stats.lock().expect("server stats poisoned");
            let class = &mut s.classes[priority.index()];
            match &outcome {
                Ok((_, report)) => {
                    class.completed += 1;
                    class.record_latency(report.latency());
                    if let Some(met) = deadline_met {
                        class.deadlines += 1;
                        if !met {
                            class.deadline_misses += 1;
                        }
                    }
                }
                Err(_) => class.failed += 1,
            }
        }
        state.complete(outcome);
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    panic
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

/// What a finished solve hands back to [`slice_loop`] for the report.
struct Executed {
    payload: JobPayload,
    mlups: f64,
    cell_updates: u64,
    verify_hash: u64,
    pool_fresh: u64,
    tuned: Option<TunedJob>,
}

/// Constructed operators that own grids (today: [`VarCoeff7::banded`]'s
/// coefficient field), cached per element type and shape so a warm
/// slice allocates nothing per job. Bounded: a shape mix wider than
/// [`OP_CACHE_CAP`] distinct (type, dims) entries resets the cache.
type OpCache = HashMap<(TypeId, Dims3), Box<dyn Any + Send>>;

const OP_CACHE_CAP: usize = 32;

fn banded_op<T: Real>(cache: &mut OpCache, dims: Dims3) -> &VarCoeff7<T> {
    let key = (TypeId::of::<T>(), dims);
    if !cache.contains_key(&key) && cache.len() >= OP_CACHE_CAP {
        cache.clear();
    }
    cache
        .entry(key)
        .or_insert_with(|| Box::new(VarCoeff7::<T>::banded(dims)))
        .downcast_ref::<VarCoeff7<T>>()
        .expect("op cache entries are keyed by their TypeId")
}

/// Run one job on the slice's runtime, solving the client's grid in
/// place. The payload's element type picks the [`run_typed`]
/// instantiation; nothing else is per type.
fn execute(
    rt: &Runtime,
    sub: &Machine,
    spec: JobSpec,
    cache: &mut OpCache,
) -> Result<Executed, String> {
    let JobSpec {
        op,
        payload,
        sweeps,
        mut method,
        ..
    } = spec;
    if let JobMethod::Tuned(opts) = &mut method {
        // Key the tune by THIS slice's sub-machine fingerprint:
        // identical slices share warm plans, different shapes don't.
        opts.machine = Some(sub.clone());
    }
    match payload {
        JobPayload::F64(g) => run_typed(rt, op, g, sweeps, &method, cache, JobPayload::F64),
        JobPayload::F32(g) => run_typed(rt, op, g, sweeps, &method, cache, JobPayload::F32),
    }
}

/// The per-element job path: build the operator, solve, and collect
/// what the report needs, including the pool misses the job caused.
fn run_typed<T: Real>(
    rt: &Runtime,
    op: JobOp,
    grid: Grid3<T>,
    sweeps: usize,
    method: &JobMethod,
    cache: &mut OpCache,
    wrap: fn(Grid3<T>) -> JobPayload,
) -> Result<Executed, String> {
    fn solve<T: Real, Op: StencilOp<T>>(
        rt: &Runtime,
        op: &Op,
        grid: Grid3<T>,
        sweeps: usize,
        method: &JobMethod,
    ) -> Result<(Grid3<T>, RunStats, Option<TunedJob>), String> {
        match method {
            JobMethod::Fixed(m) => {
                solve_with_on(rt, op, grid, sweeps, m.clone()).map(|(g, s)| (g, s, None))
            }
            JobMethod::Tuned(opts) => {
                solve_tuned_with_on(rt, op, grid, sweeps, opts).map(|(g, s, t)| {
                    let tuned = TunedJob {
                        cache_hit: t.cache_hit,
                        measurements: t.measurements,
                        plan: t.plan.label(),
                    };
                    (g, s, Some(tuned))
                })
            }
        }
    }
    let pool = rt.grid_pool::<T>();
    let fresh_before = pool.fresh_allocations();
    let (grid, stats, tuned) = match op {
        JobOp::Jacobi6 => solve(rt, &Jacobi6, grid, sweeps, method),
        JobOp::Jacobi7Heat(k) => solve(rt, &Jacobi7::heat(k), grid, sweeps, method),
        JobOp::VarCoeff7Banded => {
            let op = banded_op::<T>(cache, grid.dims());
            solve(rt, op, grid, sweeps, method)
        }
        JobOp::Avg27 => solve(rt, &Avg27, grid, sweeps, method),
        JobOp::PanicForTest => panic!("poison-pill job"),
    }?;
    let payload = wrap(grid);
    Ok(Executed {
        verify_hash: payload.fingerprint(),
        mlups: stats.mlups(),
        cell_updates: stats.cell_updates,
        payload,
        pool_fresh: pool.fresh_allocations() - fresh_before,
        tuned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_grid::init;

    #[test]
    fn queue_admits_up_to_capacity_then_rejects() {
        let q: JobQueue<u32> = JobQueue::bounded(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        match q.try_push(3) {
            Err(Rejected::Full(item)) => assert_eq!(item, 3, "the item comes back"),
            other => panic!("expected Full rejection, got {other:?}"),
        }
        assert_eq!(q.len(), 2);
        // Popping frees a slot.
        assert_eq!(q.pop_select(|_| 0), Some(1));
        assert!(q.try_push(3).is_ok());
    }

    #[test]
    fn push_deadline_times_out_on_a_full_queue() {
        let q: JobQueue<u32> = JobQueue::bounded(1);
        q.try_push(1).unwrap();
        let t0 = Instant::now();
        match q.push_deadline_with(2, Duration::from_millis(30), |_| {}) {
            Err(Rejected::Full(2)) => {}
            other => panic!("expected Full, got {other:?}"),
        }
        assert!(t0.elapsed() >= Duration::from_millis(25), "really waited");
    }

    #[test]
    fn push_deadline_succeeds_when_a_consumer_frees_space() {
        let q: Arc<JobQueue<u32>> = Arc::new(JobQueue::bounded(1));
        q.try_push(1).unwrap();
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                q.pop_select(|_| 0)
            })
        };
        assert!(q
            .push_deadline_with(2, Duration::from_secs(10), |_| {})
            .is_ok());
        assert_eq!(consumer.join().unwrap(), Some(1));
        assert_eq!(q.pop_select(|_| 0), Some(2));
    }

    #[test]
    fn closed_queue_rejects_and_drains() {
        let q: JobQueue<u32> = JobQueue::bounded(4);
        q.try_push(7).unwrap();
        q.close();
        assert!(matches!(q.try_push(8), Err(Rejected::Closed(8))));
        assert!(matches!(
            q.push_deadline_with(9, Duration::from_millis(5), |_| {}),
            Err(Rejected::Closed(9))
        ));
        // Consumers still drain admitted items, then see None.
        assert_eq!(q.pop_select(|_| 0), Some(7));
        assert_eq!(q.pop_select(|_| 0), None);
    }

    #[test]
    fn partition_follows_cache_groups() {
        let m = Machine::nehalem_ep();
        assert_eq!(
            partition(&m, &SlicePolicy::PerCacheGroup),
            vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]]
        );
        // Forced split: contiguous near-equal chunks.
        assert_eq!(
            partition(&m, &SlicePolicy::Fixed(4)),
            vec![vec![0, 1], vec![2, 3], vec![4, 5], vec![6, 7]]
        );
        let uneven = partition(&m, &SlicePolicy::Fixed(3));
        assert_eq!(uneven.iter().map(Vec::len).sum::<usize>(), 8);
        assert_eq!(uneven.len(), 3);
        // More slices than cores clamps to one core per slice.
        assert_eq!(
            partition(&Machine::flat(2), &SlicePolicy::Fixed(5)).len(),
            2
        );
    }

    #[test]
    fn server_serves_a_job_and_verifies_against_the_oracle() {
        let m = Machine::flat(2);
        let server = Server::new(&m, ServerConfig::default());
        assert_eq!(server.slices().len(), 1);
        let initial: Grid3<f64> = init::random(Dims3::cube(12), 42);
        let spec = JobSpec::new(
            JobOp::Jacobi6,
            JobPayload::F64(initial.clone()),
            3,
            JobMethod::Fixed(Method::Parallel {
                threads: 2,
                streaming_stores: false,
            }),
        );
        let (payload, report) = server.submit(spec).unwrap().wait().expect("job succeeds");
        let (oracle, _) = crate::solve_with(&Jacobi6, initial, 3, Method::Sequential).unwrap();
        assert_eq!(
            report.verify_hash,
            JobPayload::F64(oracle.clone()).fingerprint()
        );
        match payload {
            JobPayload::F64(g) => norm::assert_grids_identical(
                &oracle,
                &g,
                &Region3::whole(oracle.dims()),
                "served vs oracle",
            ),
            _ => panic!("element type preserved"),
        }
        assert!(report.mlups > 0.0);
        assert_eq!(
            report.cell_updates,
            (3 * Dims3::cube(12).interior_len()) as u64
        );
    }

    #[test]
    fn biggest_first_picks_the_heaviest_queued_job() {
        // Paused server: jobs stack up; on start, the single slice must
        // serve the biggest job first (after the tiny head-of-line job
        // it grabs immediately).
        let m = Machine::flat(1);
        let mut server = Server::new_paused(
            &m,
            ServerConfig {
                policy: SchedPolicy::BiggestFirst,
                ..ServerConfig::default()
            },
        );
        let job = |edge: usize, tag: u64| {
            let mut spec = JobSpec::new(
                JobOp::Jacobi6,
                JobPayload::F64(init::random(Dims3::cube(edge), tag)),
                2,
                JobMethod::Fixed(Method::Sequential),
            );
            spec.tag = tag;
            spec
        };
        // Specs are built first so each `submit` is bracketed tightly:
        // admission is stamped at `submit` entry, hence
        // `before + queue_wait <= pick-up <= after + queue_wait` on this
        // thread's clock.
        let [small, big, medium] = [job(8, 1), job(16, 2), job(12, 3)].map(|spec| {
            let before = Instant::now();
            let handle = server.submit(spec).unwrap();
            (handle, before, Instant::now())
        });
        server.start();
        let queue_wait = |(handle, ..): (JobHandle, Instant, Instant)| {
            handle.wait().expect("jobs succeed").1.queue_wait
        };
        let (big_lo, medium_hi) = (big.1, medium.2);
        queue_wait(small);
        // Queue order on start: [small, big, medium]; biggest-first
        // picks big up before medium. (small may or may not go first
        // depending on when the slice wakes; order big < medium is the
        // policy's invariant.) Each job's own `queue_wait + service`
        // would not do: those clocks start at different admissions.
        assert!(
            big_lo + queue_wait(big) < medium_hi + queue_wait(medium),
            "biggest job must be picked up before the medium one"
        );
    }

    /// Satellite regression: an out-of-range picker index is a policy
    /// bug — debug builds panic on it; release builds clamp to the
    /// newest item instead of crashing the slice thread.
    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "picker returned out-of-range index")
    )]
    fn pop_select_out_of_range_picker_is_detected() {
        let q: JobQueue<u32> = JobQueue::bounded(4);
        q.try_push(10).unwrap();
        q.try_push(20).unwrap();
        // Index 99 is out of range for a 2-item queue: debug panics
        // (the attribute above), release clamps to the newest (index 1).
        let got = q.pop_select(|_| 99);
        assert_eq!(got, Some(20), "release builds clamp to the newest item");
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn deadline_pick_is_edf_with_aged_classes() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let aging = ms(100);
        let facts = |p: Priority, deadline: Option<Duration>, submitted: Duration| SchedFacts {
            priority: p,
            deadline: deadline.map(|d| t0 + d),
            submitted: t0 + submitted,
        };
        // Pure EDF among deadline jobs: earliest absolute deadline wins
        // regardless of class or queue position.
        let q = [
            facts(Priority::Batch, Some(ms(500)), ms(0)),
            facts(Priority::Latency, Some(ms(300)), ms(10)),
            facts(Priority::Normal, Some(ms(100)), ms(20)),
        ];
        assert_eq!(deadline_pick(&q, aging), 2);
        // Deadline-less jobs order by class horizon: Latency (0×aging)
        // beats Normal (1×) beats Batch (4×) at equal submission time.
        let q = [
            facts(Priority::Batch, None, ms(0)),
            facts(Priority::Normal, None, ms(0)),
            facts(Priority::Latency, None, ms(0)),
        ];
        assert_eq!(deadline_pick(&q, aging), 2);
        // Aging promotes old Batch ahead of fresh deadline-less Normal:
        // batch vd = 0 + 4·100 = 400ms < normal vd = 350 + 100 = 450ms.
        let q = [
            facts(Priority::Batch, None, ms(0)),
            facts(Priority::Normal, None, ms(350)),
        ];
        assert_eq!(deadline_pick(&q, aging), 0);
        // ... but not ahead of work submitted well inside its grace.
        let q = [
            facts(Priority::Batch, None, ms(0)),
            facts(Priority::Normal, None, ms(100)),
        ];
        assert_eq!(deadline_pick(&q, aging), 1);
        // Equal virtual deadlines tie toward the oldest submission, then
        // the frontmost position.
        let q = [
            facts(Priority::Normal, Some(ms(200)), ms(50)),
            facts(Priority::Normal, Some(ms(200)), ms(10)),
        ];
        assert_eq!(deadline_pick(&q, aging), 1);
        let q = [
            facts(Priority::Latency, None, ms(30)),
            facts(Priority::Latency, None, ms(30)),
        ];
        assert_eq!(deadline_pick(&q, aging), 0);
    }

    #[test]
    fn streaming_balance_matches_the_operators() {
        use tb_stencil::kernel::StoreMode;
        // The JobOp shortcut must agree with the real operators' code
        // balance under streaming stores, for both element widths.
        let v64: VarCoeff7<f64> = VarCoeff7::banded(Dims3::cube(4));
        let v32: VarCoeff7<f32> = VarCoeff7::banded(Dims3::cube(4));
        let cases: [(JobOp, f64, f64); 4] = [
            (
                JobOp::Jacobi6,
                StencilOp::<f64>::bytes_per_lup(&Jacobi6, StoreMode::Streaming),
                StencilOp::<f32>::bytes_per_lup(&Jacobi6, StoreMode::Streaming),
            ),
            (
                JobOp::Jacobi7Heat(0.1),
                StencilOp::<f64>::bytes_per_lup(&Jacobi7::heat(0.1), StoreMode::Streaming),
                StencilOp::<f32>::bytes_per_lup(&Jacobi7::heat(0.1), StoreMode::Streaming),
            ),
            (
                JobOp::VarCoeff7Banded,
                v64.bytes_per_lup(StoreMode::Streaming),
                v32.bytes_per_lup(StoreMode::Streaming),
            ),
            (
                JobOp::Avg27,
                StencilOp::<f64>::bytes_per_lup(&Avg27, StoreMode::Streaming),
                StencilOp::<f32>::bytes_per_lup(&Avg27, StoreMode::Streaming),
            ),
        ];
        for (op, want64, want32) in cases {
            assert_eq!(op.streaming_bytes_per_lup(8), want64, "{op:?} f64");
            assert_eq!(op.streaming_bytes_per_lup(4), want32, "{op:?} f32");
        }
    }

    #[test]
    fn cancel_removes_queued_jobs_and_counts_them() {
        // Paused server: the job can never be picked up, so cancel must
        // win the race deterministically.
        let m = Machine::flat(1);
        let server = Server::new_paused(&m, ServerConfig::default());
        let spec = JobSpec::new(
            JobOp::Jacobi6,
            JobPayload::F64(init::random(Dims3::cube(8), 7)),
            1,
            JobMethod::Fixed(Method::Sequential),
        )
        .with_priority(Priority::Batch);
        let handle = server.submit(spec).unwrap();
        assert!(handle.cancel(), "a queued job cancels");
        assert_eq!(server.queue_len(), 0, "cancel frees the queue slot");
        let err = handle.wait().expect_err("cancelled jobs fail their handle");
        assert!(err.message.contains("cancelled"), "got: {}", err.message);
        let stats = server.stats();
        assert_eq!(stats.cancels, 1);
        assert_eq!(stats.class(Priority::Batch).cancelled, 1);
        assert_eq!(stats.class(Priority::Batch).admitted, 1);
    }

    #[test]
    fn cancel_after_completion_is_a_no_op() {
        let m = Machine::flat(1);
        let server = Server::new(&m, ServerConfig::default());
        let spec = JobSpec::new(
            JobOp::Jacobi6,
            JobPayload::F64(init::random(Dims3::cube(8), 7)),
            1,
            JobMethod::Fixed(Method::Sequential),
        );
        let handle = server.submit(spec).unwrap();
        // Wait for completion without consuming the handle.
        while !handle.is_done() {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(!handle.cancel(), "a finished job cannot be cancelled");
        assert!(handle.wait().is_ok(), "the real outcome is preserved");
        assert_eq!(server.stats().cancels, 0);
    }

    #[test]
    fn infeasible_deadline_is_shed_at_admission() {
        let m = Machine::flat(1);
        let server = Server::new_paused(
            &m,
            ServerConfig {
                admission: Admission::Shed(MachineParams::nehalem_ep()),
                ..ServerConfig::default()
            },
        );
        // 64³ × 8 sweeps ≈ 2.1M updates: the Mc floor (16 B/LUP over
        // 80 GB/s) is ~420 µs — a 1 ns deadline is hopeless.
        let spec = JobSpec::new(
            JobOp::Jacobi6,
            JobPayload::F64(init::random(Dims3::cube(64), 3)),
            8,
            JobMethod::Fixed(Method::Sequential),
        )
        .with_deadline(Duration::from_nanos(1));
        match server.submit(spec) {
            Err(Rejected::Infeasible(spec, floor)) => {
                assert_eq!(spec.tag, 0, "the spec comes back untouched");
                assert!(floor > Duration::from_nanos(1));
                let want = tb_model::service_floor_seconds(
                    &MachineParams::nehalem_ep(),
                    16.0,
                    spec.weight(),
                );
                assert_eq!(floor, Duration::from_secs_f64(want));
            }
            Ok(_) => panic!("expected Infeasible, got an admitted job"),
            Err(other) => panic!("expected Infeasible, got {other:?}"),
        }
        assert_eq!(server.stats().sheds, 1);
        // The same job with a generous deadline is admitted — and its
        // report carries the predictor's floor.
        let spec = JobSpec::new(
            JobOp::Jacobi6,
            JobPayload::F64(init::random(Dims3::cube(64), 3)),
            8,
            JobMethod::Fixed(Method::Sequential),
        )
        .with_deadline(Duration::from_secs(60));
        assert!(server.submit(spec).is_ok());
        // QueueOnly servers never shed, however absurd the deadline.
        let lenient = Server::new_paused(&m, ServerConfig::default());
        let spec = JobSpec::new(
            JobOp::Jacobi6,
            JobPayload::F64(init::random(Dims3::cube(64), 3)),
            8,
            JobMethod::Fixed(Method::Sequential),
        )
        .with_deadline(Duration::from_nanos(1));
        assert!(lenient.submit(spec).is_ok());
    }

    /// Satellite regression: time blocked inside `submit_blocking` must
    /// surface as `admission_wait`, not vanish (the old code stamped the
    /// queue-wait clock at admission, hiding backpressure entirely).
    #[test]
    #[allow(clippy::result_large_err)] // the submitter closure returns the public submit type
    fn blocked_admission_time_is_reported_separately() {
        let m = Machine::flat(1);
        let server = Server::new_paused(
            &m,
            ServerConfig {
                queue_capacity: 1,
                policy: SchedPolicy::Fifo,
                ..ServerConfig::default()
            },
        );
        let job = |tag: u64| {
            let mut spec = JobSpec::new(
                JobOp::Jacobi6,
                JobPayload::F64(init::random(Dims3::cube(8), tag)),
                1,
                JobMethod::Fixed(Method::Sequential),
            );
            spec.tag = tag;
            spec
        };
        // Fill the queue, then block a second submission on it.
        let first = server.submit(job(1)).unwrap();
        let server = Arc::new(server);
        let submitter = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.submit_blocking(job(2), Duration::from_secs(30)))
        };
        // Give the submitter time to really block, then free the slot by
        // serving the first job by hand (the server stays paused so the
        // admission instants stay deterministic).
        std::thread::sleep(Duration::from_millis(50));
        let popped = server
            .queue
            .pop_select(|_| 0)
            .expect("the first job is queued");
        popped.state.complete(Err(JobError {
            job_id: popped.id,
            message: "served by hand".into(),
        }));
        let _ = first;
        let handle = submitter
            .join()
            .expect("submitter thread")
            .expect("admitted after the slot freed");
        // The blocked submission waited ≥ ~50ms and that wait is stamped
        // into the queued job as admission time.
        let queued = server
            .queue
            .remove_where(|j| j.id == handle.id())
            .expect("job 2 is still queued");
        let admission_wait = queued.admitted.duration_since(queued.submitted);
        assert!(
            admission_wait >= Duration::from_millis(40),
            "blocked admission must be visible, got {admission_wait:?}"
        );
        queued.state.complete(Err(JobError {
            job_id: queued.id,
            message: "served by hand".into(),
        }));
    }
}
