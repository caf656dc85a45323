//! The persistent worker team: spawn once, pin once, dispatch many.
//!
//! Dispatch protocol (one *epoch* per submitted task):
//!
//! 1. the dispatcher resets the completion counter, publishes the task
//!    pointer + participant count under the slot lock, bumps the epoch,
//!    and unparks the participating workers;
//! 2. every worker spins briefly on the epoch (cheap pickup when sweeps
//!    come back to back), then parks until a dispatch unparks it — an
//!    idle worker sleeps and leaves its core to whatever else runs
//!    there; on a new epoch it snapshots the slot, runs the task with
//!    its worker index if it participates, and increments the
//!    completion counter;
//! 3. the dispatcher spins briefly, then parks until the last
//!    participant unparks it, clears the task pointer, and re-raises
//!    the first worker panic, if any.
//!
//! The dispatcher blocks until every participant finished, so the task
//! closure may borrow the caller's stack — the lifetime erasure below is
//! sound for exactly that reason. Dispatches are serialized by a lock;
//! the communication lane has its own slot and may run concurrently
//! with a compute dispatch (that is its purpose).

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use tb_grid::Real;
use tb_sync::{lock, Backoff};
use tb_topology::{affinity, TeamLayout};

use crate::pool::GridPool;

/// Lifetime-erased broadcast task; valid only while its dispatcher
/// blocks in [`Runtime::run`].
type TaskRef = *const (dyn Fn(usize) + Sync + 'static);
/// Lifetime-erased one-shot comm task; valid until its [`CommHandle`]
/// joined.
type CommTaskRef = *mut (dyn FnMut() + Send + 'static);

/// Raw task pointers cross the `Mutex` into worker threads; the dispatch
/// protocol (dispatcher blocks until completion) is what makes that safe.
struct SendPtr<P>(P);
unsafe impl<P> Send for SendPtr<P> {}

struct TaskSlot {
    epoch: usize,
    task: Option<SendPtr<TaskRef>>,
    /// Workers `0..active` participate in this epoch.
    active: usize,
}

struct Lane {
    slot: Mutex<TaskSlot>,
    /// Mirrors `slot.epoch` so workers can poll without the lock.
    epoch: AtomicUsize,
    /// Participants that completed the current epoch.
    done: AtomicUsize,
    /// Thread blocked in [`Runtime::run`] for the current epoch; the
    /// last finishing participant unparks it, so the dispatcher does
    /// not have to burn a core spinning for the whole solve.
    waiter: Mutex<Option<std::thread::Thread>>,
    shutdown: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Lane {
    fn new() -> Self {
        Self {
            slot: Mutex::new(TaskSlot {
                epoch: 0,
                task: None,
                active: 0,
            }),
            epoch: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            waiter: Mutex::new(None),
            shutdown: AtomicBool::new(false),
            panic: Mutex::new(None),
        }
    }
}

struct CommSlot {
    epoch: usize,
    task: Option<SendPtr<CommTaskRef>>,
}

struct CommLane {
    slot: Mutex<CommSlot>,
    epoch: AtomicUsize,
    /// Highest epoch whose task has completed.
    done_epoch: AtomicUsize,
    /// Thread blocked in a [`CommHandle`] wait; unparked on completion.
    waiter: Mutex<Option<std::thread::Thread>>,
    shutdown: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// Longest a waiter parks before it rechecks its condition unasked. Every
/// wait is ended by the protocol's `unpark`, so this only bounds what a
/// lost wakeup would cost (latency, never a hang), and it caps an idle
/// thread at a few wakes per second.
const PARK_SAFETY_BOUND: Duration = Duration::from_millis(200);

/// Spin briefly, then yield, then park until `changed` returns true.
/// Each waiter registers where the thread that changes its condition
/// will `unpark` it, and the unpark token makes the park race-free: an
/// unpark that comes before the park makes the park return at once.
fn wait_until(changed: impl Fn() -> bool) {
    let backoff = Backoff::new();
    let mut yields = 0u32;
    while !changed() {
        if !backoff.is_completed() {
            backoff.snooze();
        } else if yields < 64 {
            std::thread::yield_now();
            yields += 1;
        } else {
            std::thread::park_timeout(PARK_SAFETY_BOUND);
        }
    }
}

fn worker_loop(lane: Arc<Lane>, index: usize, cpu: Option<usize>) {
    let _ = affinity::pin_opt(cpu);
    let mut seen = 0usize;
    loop {
        wait_until(|| {
            lane.epoch.load(Ordering::Acquire) != seen || lane.shutdown.load(Ordering::Acquire)
        });
        if lane.shutdown.load(Ordering::Acquire) {
            return;
        }
        let (epoch, task, active) = {
            let slot = lock(&lane.slot);
            (slot.epoch, slot.task.as_ref().map(|t| t.0), slot.active)
        };
        if epoch == seen {
            continue; // spurious wake; the slot is already consistent
        }
        seen = epoch;
        if index < active {
            let task = task.expect("dispatch published a task for this epoch");
            // SAFETY: the dispatcher blocks in `run` until all `active`
            // workers incremented `done`, so the closure (and everything
            // it borrows) outlives this call.
            let f = unsafe { &*task };
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(index)));
            if let Err(payload) = result {
                lock(&lane.panic).get_or_insert(payload);
            }
            if lane.done.fetch_add(1, Ordering::AcqRel) + 1 == active {
                // Last participant: wake the (parked) dispatcher.
                if let Some(waiter) = lock(&lane.waiter).as_ref() {
                    waiter.unpark();
                }
            }
        }
    }
}

fn comm_loop(lane: Arc<CommLane>, cpu: Option<usize>) {
    let _ = affinity::pin_opt(cpu);
    let mut seen = 0usize;
    loop {
        wait_until(|| {
            lane.epoch.load(Ordering::Acquire) != seen || lane.shutdown.load(Ordering::Acquire)
        });
        if lane.shutdown.load(Ordering::Acquire) {
            return;
        }
        let (epoch, task) = {
            let slot = lock(&lane.slot);
            (slot.epoch, slot.task.as_ref().map(|t| t.0))
        };
        if epoch == seen {
            continue;
        }
        seen = epoch;
        let task = task.expect("comm submit published a task");
        // SAFETY: the `CommHandle` returned by `submit_comm` borrows the
        // task for its own lifetime and waits for `done_epoch` before
        // releasing it (latest in its drop), so the closure is live.
        let f = unsafe { &mut *task };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        if let Err(payload) = result {
            lock(&lane.panic).get_or_insert(payload);
        }
        lane.done_epoch.store(epoch, Ordering::Release);
        if let Some(waiter) = lock(&lane.waiter).as_ref() {
            waiter.unpark();
        }
    }
}

/// A persistent team of compute workers (plus an optional dedicated
/// communication worker), pinned once at spawn and reused for every
/// dispatched task until dropped. See the crate docs for the lifecycle.
pub struct Runtime {
    lane: Arc<Lane>,
    workers: Vec<JoinHandle<()>>,
    /// Serializes compute dispatches (the comm lane is independent).
    dispatch: Mutex<()>,
    comm_lane: Option<Arc<CommLane>>,
    comm_worker: Option<JoinHandle<()>>,
    comm_core: Option<usize>,
    pools: Mutex<HashMap<TypeId, Box<dyn Any + Send>>>,
    pool_capacity: usize,
    /// Spawn ledger: OS threads started by this runtime so far.
    spawned: AtomicUsize,
}

/// Start one named worker thread and enter it in the spawn ledger —
/// the only place a runtime creates threads.
fn spawn_worker(
    spawned: &AtomicUsize,
    name: String,
    body: impl FnOnce() + Send + 'static,
) -> JoinHandle<()> {
    spawned.fetch_add(1, Ordering::Relaxed);
    std::thread::Builder::new()
        .name(name)
        .spawn(body)
        .expect("spawn runtime worker")
}

impl Runtime {
    /// Spawn one pinned worker per layout slot, plus a dedicated
    /// communication worker iff the layout reserved a
    /// [`comm_core`](TeamLayout::comm_core).
    pub fn new(layout: &TeamLayout) -> Self {
        Self::from_cpus(layout.cpus.clone(), layout.comm_core.map(Some))
    }

    /// `threads` unpinned compute workers, no communication worker.
    pub fn with_threads(threads: usize) -> Self {
        Self::from_cpus(vec![None; threads], None)
    }

    /// The general constructor: one compute worker per `cpus` entry
    /// (`Some(c)` pins to CPU `c`, `None` leaves the worker floating).
    /// `comm` controls the communication worker: `None` spawns none,
    /// `Some(pin)` spawns one with the given pin.
    pub fn from_cpus(cpus: Vec<Option<usize>>, comm: Option<Option<usize>>) -> Self {
        let lane = Arc::new(Lane::new());
        let spawned = AtomicUsize::new(0);
        let workers = cpus
            .into_iter()
            .enumerate()
            .map(|(index, cpu)| {
                let lane = Arc::clone(&lane);
                spawn_worker(&spawned, format!("tb-runtime-w{index}"), move || {
                    worker_loop(lane, index, cpu)
                })
            })
            .collect();
        let comm_core = comm.flatten();
        let (comm_lane, comm_worker) = match comm {
            None => (None, None),
            Some(cpu) => {
                let lane = Arc::new(CommLane {
                    slot: Mutex::new(CommSlot {
                        epoch: 0,
                        task: None,
                    }),
                    epoch: AtomicUsize::new(0),
                    done_epoch: AtomicUsize::new(0),
                    waiter: Mutex::new(None),
                    shutdown: AtomicBool::new(false),
                    panic: Mutex::new(None),
                });
                let worker = {
                    let lane = Arc::clone(&lane);
                    spawn_worker(&spawned, "tb-runtime-comm".into(), move || {
                        comm_loop(lane, cpu)
                    })
                };
                (Some(lane), Some(worker))
            }
        };
        Self {
            lane,
            workers,
            dispatch: Mutex::new(()),
            comm_lane,
            comm_worker,
            comm_core,
            pools: Mutex::new(HashMap::new()),
            pool_capacity: crate::pool::DEFAULT_POOL_CAPACITY,
            spawned,
        }
    }

    /// Set the eviction bound of every [`GridPool`] this runtime creates
    /// (builder style, before the first [`Runtime::grid_pool`] call).
    /// Long-lived runtimes serving many tenants and problem shapes — the
    /// job scheduler keeps one runtime per machine slice alive across
    /// jobs — want more than the default
    /// [`DEFAULT_POOL_CAPACITY`](crate::DEFAULT_POOL_CAPACITY) parked
    /// grids so a diverse job mix keeps hitting the pool.
    ///
    /// Pools already created keep their old capacity: the capacity is
    /// baked in at pool construction (first use per element type).
    pub fn with_pool_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity >= 1, "a grid pool needs capacity >= 1");
        self.pool_capacity = capacity;
        self
    }

    /// The capacity future [`Runtime::grid_pool`] pools are built with.
    pub fn pool_capacity(&self) -> usize {
        self.pool_capacity
    }

    /// A grid of exactly `dims` from this runtime's pool
    /// ([`GridPool::acquire`]): a hit is a recycled grid with stale
    /// contents, a miss a fresh zeroed grid whose pages the calling
    /// thread places (see the crate docs on ccNUMA page placement).
    pub fn acquire_grid<T: Real>(&self, dims: tb_grid::Dims3) -> tb_grid::Grid3<T> {
        self.grid_pool::<T>().acquire(dims)
    }

    /// `dst.copy_from_slice(src)` on the calling thread. Kept only
    /// because the benchmark times it as `runtime.place_copy`; delete it
    /// once the benchmark stops naming it.
    pub fn place_copy<T: Real>(&self, dst: &mut [T], src: &[T]) {
        dst.copy_from_slice(src);
    }

    /// Number of compute workers (the communication worker not included).
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Worker threads this runtime has spawned since construction
    /// (compute and communication) — its spawn ledger, in the style of
    /// [`GridPool::fresh_allocations`]. Workers are started once and
    /// live until drop, so the count stays at
    /// `threads() + has_comm_worker()` however many tasks are
    /// dispatched; a dispatch that started a thread would move it.
    pub fn worker_count(&self) -> usize {
        self.spawned.load(Ordering::Relaxed)
    }

    /// Whether a dedicated communication worker exists.
    pub fn has_comm_worker(&self) -> bool {
        self.comm_lane.is_some()
    }

    /// CPU the communication worker is pinned to, if any.
    pub fn comm_core(&self) -> Option<usize> {
        self.comm_core
    }

    /// Execute `task(index)` on compute workers `0..threads` and block
    /// until all of them finished. A worker panic is re-raised here.
    ///
    /// # Panics
    /// Panics if `threads` exceeds [`Runtime::threads`]. Must not be
    /// called from a task running on this same runtime (the workers are
    /// occupied; the dispatch would deadlock).
    pub fn run(&self, threads: usize, task: &(dyn Fn(usize) + Sync)) {
        assert!(
            threads <= self.workers.len(),
            "dispatch of {threads} threads on a runtime with {} workers",
            self.workers.len()
        );
        if threads == 0 {
            return;
        }
        let _serial = lock(&self.dispatch);
        self.lane.done.store(0, Ordering::Release);
        // Register this thread before the task is visible, so the last
        // worker cannot miss the unpark target.
        *lock(&self.lane.waiter) = Some(std::thread::current());
        {
            let mut slot = lock(&self.lane.slot);
            slot.epoch += 1;
            // SAFETY (lifetime erasure): we block below until all
            // participants completed, so the borrow outlives every use.
            slot.task = Some(SendPtr(unsafe {
                std::mem::transmute::<*const (dyn Fn(usize) + Sync), TaskRef>(task)
            }));
            slot.active = threads;
            self.lane.epoch.store(slot.epoch, Ordering::Release);
        }
        for worker in &self.workers[..threads] {
            worker.thread().unpark();
        }
        // Spin briefly (cheap for short sweeps), then park until the
        // last worker unparks us — the dispatcher must not burn a core
        // that a pinned worker needs for the whole solve.
        wait_until(|| self.lane.done.load(Ordering::Acquire) == threads);
        *lock(&self.lane.waiter) = None;
        lock(&self.lane.slot).task = None;
        if let Some(payload) = lock(&self.lane.panic).take() {
            std::panic::resume_unwind(payload);
        }
    }

    /// Hand `task` to the dedicated communication worker and return a
    /// handle that joins it. The task runs concurrently with compute
    /// dispatches; the returned handle borrows `task` (and `self`), so
    /// the closure cannot be touched or dropped until joined.
    ///
    /// # Panics
    /// Panics if the runtime has no communication worker, or if the
    /// previous comm task has not been joined yet (one in flight at a
    /// time — the protocol of one exchange per cycle).
    pub fn submit_comm<'a>(&'a self, task: &'a mut (dyn FnMut() + Send)) -> CommHandle<'a> {
        let lane = self
            .comm_lane
            .as_ref()
            .expect("runtime was built without a communication worker");
        let epoch = {
            let mut slot = lock(&lane.slot);
            assert!(
                lane.done_epoch.load(Ordering::Acquire) == slot.epoch,
                "previous comm task still in flight"
            );
            slot.epoch += 1;
            // SAFETY (lifetime erasure): the returned handle holds the
            // `'a` borrow and waits for completion no later than drop.
            slot.task = Some(SendPtr(unsafe {
                std::mem::transmute::<*mut (dyn FnMut() + Send), CommTaskRef>(task)
            }));
            lane.epoch.store(slot.epoch, Ordering::Release);
            slot.epoch
        };
        if let Some(worker) = &self.comm_worker {
            worker.thread().unpark();
        }
        CommHandle {
            runtime: self,
            epoch,
            joined: false,
            _task: PhantomData,
        }
    }

    /// The runtime's staging-grid pool for element type `T`. Pools are
    /// created on first use and shared by everything running on this
    /// runtime; see [`GridPool`] for the reuse contract.
    pub fn grid_pool<T: Real>(&self) -> Arc<GridPool<T>> {
        let mut pools = lock(&self.pools);
        let entry = pools.entry(TypeId::of::<T>()).or_insert_with(|| {
            Box::new(Arc::new(GridPool::<T>::with_capacity(self.pool_capacity)))
        });
        entry
            .downcast_ref::<Arc<GridPool<T>>>()
            .expect("pool registered under its own TypeId")
            .clone()
    }

    fn comm_wait(&self, epoch: usize) -> Option<Box<dyn Any + Send>> {
        let lane = self.comm_lane.as_ref().expect("handle implies comm lane");
        *lock(&lane.waiter) = Some(std::thread::current());
        wait_until(|| lane.done_epoch.load(Ordering::Acquire) >= epoch);
        *lock(&lane.waiter) = None;
        lock(&lane.slot).task = None;
        lock(&lane.panic).take()
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.lane.shutdown.store(true, Ordering::Release);
        for worker in &self.workers {
            worker.thread().unpark();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(lane) = &self.comm_lane {
            lane.shutdown.store(true, Ordering::Release);
        }
        if let Some(worker) = self.comm_worker.take() {
            worker.thread().unpark();
            let _ = worker.join();
        }
    }
}

/// Join handle of a task submitted with [`Runtime::submit_comm`]. Holds
/// the borrow of the task closure; joining (explicitly or on drop) waits
/// for the communication worker to finish it.
pub struct CommHandle<'a> {
    runtime: &'a Runtime,
    epoch: usize,
    joined: bool,
    _task: PhantomData<&'a mut ()>,
}

impl CommHandle<'_> {
    /// Block until the comm task completed; re-raises its panic, if any.
    pub fn join(mut self) {
        self.joined = true;
        if let Some(payload) = self.runtime.comm_wait(self.epoch) {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for CommHandle<'_> {
    fn drop(&mut self) {
        if self.joined {
            return;
        }
        let payload = self.runtime.comm_wait(self.epoch);
        if let (Some(payload), false) = (payload, std::thread::panicking()) {
            std::panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn broadcast_runs_every_index_exactly_once() {
        let rt = Runtime::with_threads(4);
        let hits: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        for _ in 0..50 {
            rt.run(4, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        }
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 50);
        }
    }

    #[test]
    fn subset_dispatch_leaves_other_workers_idle() {
        let rt = Runtime::with_threads(4);
        let hits: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        rt.run(2, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        rt.run(3, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        let got: Vec<u64> = hits.iter().map(|h| h.load(Ordering::Relaxed)).collect();
        assert_eq!(got, vec![2, 2, 1, 0]);
    }

    #[test]
    fn zero_thread_dispatch_is_a_noop() {
        let rt = Runtime::with_threads(1);
        rt.run(0, &|_| panic!("must not run"));
    }

    #[test]
    #[should_panic(expected = "runtime with 2 workers")]
    fn oversized_dispatch_is_rejected() {
        let rt = Runtime::with_threads(2);
        rt.run(3, &|_| {});
    }

    #[test]
    fn tasks_can_borrow_the_callers_stack() {
        let rt = Runtime::with_threads(3);
        let inputs = [1u64, 10, 100];
        let sum = AtomicU64::new(0);
        rt.run(3, &|i| {
            sum.fetch_add(inputs[i], Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 111);
    }

    #[test]
    fn worker_panic_propagates_and_runtime_survives() {
        let rt = Runtime::with_threads(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.run(2, &|i| {
                if i == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(caught.is_err(), "worker panic must re-raise on the caller");
        // The team stays usable after a task panic.
        let ok = AtomicU64::new(0);
        rt.run(2, &|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn comm_worker_runs_concurrently_with_compute() {
        let rt = Runtime::from_cpus(vec![None; 2], Some(None));
        assert!(rt.has_comm_worker());
        let flag = AtomicBool::new(false);
        let mut comm = || {
            flag.store(true, Ordering::Release);
        };
        let handle = rt.submit_comm(&mut comm);
        let sum = AtomicU64::new(0);
        rt.run(2, &|i| {
            sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
        });
        handle.join();
        assert!(flag.load(Ordering::Acquire));
        assert_eq!(sum.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn comm_tasks_are_reusable_across_cycles() {
        let rt = Runtime::from_cpus(Vec::new(), Some(None));
        let mut total = 0u64;
        for cycle in 0..20 {
            let mut task = || total += cycle;
            rt.submit_comm(&mut task).join();
        }
        assert_eq!(total, (0..20).sum::<u64>());
    }

    #[test]
    fn comm_panic_reraises_at_join() {
        let rt = Runtime::from_cpus(Vec::new(), Some(None));
        let mut task = || panic!("comm boom");
        let handle = rt.submit_comm(&mut task);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle.join()));
        assert!(caught.is_err());
        // And the comm worker survives for the next cycle.
        let mut ok = false;
        rt.submit_comm(&mut || ok = true).join();
        assert!(ok);
    }

    #[test]
    #[should_panic(expected = "without a communication worker")]
    fn submit_without_comm_worker_is_a_protocol_error() {
        let rt = Runtime::with_threads(1);
        let mut task = || {};
        let _ = rt.submit_comm(&mut task);
    }

    #[test]
    fn layout_constructor_reflects_comm_core() {
        let m = tb_topology::Machine::flat(4);
        let layout = TeamLayout::with_comm_core(&m, 3, 1);
        let rt = Runtime::new(&layout);
        assert_eq!(rt.threads(), 3);
        assert!(rt.has_comm_worker());
        assert_eq!(rt.comm_core(), layout.comm_core);
        assert_eq!(rt.worker_count(), 4, "three compute workers + comm");
        let plain = Runtime::new(&TeamLayout::new(&m, 2, 2));
        assert_eq!(plain.threads(), 4);
        assert!(!plain.has_comm_worker());
        assert_eq!(plain.worker_count(), 4);
    }

    #[test]
    fn new_pins_every_worker_to_its_layout_cpu() {
        // The CPUs a thread may run on, where Linux reports them.
        fn allowed_cpus() -> Option<String> {
            let status = std::fs::read_to_string("/proc/thread-self/status").ok()?;
            let list = status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
            Some(list.trim().to_string())
        }
        // What a thread pinned to CPU 0 reports, where pinning works.
        let pinned_to_0 = std::thread::spawn(|| {
            (affinity::pin_current_thread(0) == affinity::PinResult::Pinned)
                .then(allowed_cpus)
                .flatten()
        })
        .join()
        .unwrap();
        let mut layout = TeamLayout::new(&tb_topology::Machine::flat(1), 1, 1);
        assert_eq!(layout.cpus, vec![Some(0)]);
        for comm_core in [None, Some(0)] {
            layout.comm_core = comm_core;
            let rt = Runtime::new(&layout);
            assert_eq!(rt.has_comm_worker(), comm_core.is_some(), "{comm_core:?}");
            assert_eq!(rt.worker_count(), 1 + usize::from(comm_core.is_some()));
            let Some(want) = &pinned_to_0 else {
                continue;
            };
            let seen = Mutex::new(None);
            rt.run(1, &|_| *seen.lock().unwrap() = allowed_cpus());
            assert_eq!(seen.into_inner().unwrap().as_ref(), Some(want));
            if rt.has_comm_worker() {
                let mut seen = None;
                rt.submit_comm(&mut || seen = allowed_cpus()).join();
                assert_eq!(seen.as_ref(), Some(want), "comm worker");
            }
        }
    }

    #[test]
    fn pool_capacity_knob_reaches_created_pools() {
        let rt = Runtime::with_threads(1).with_pool_capacity(3);
        assert_eq!(rt.pool_capacity(), 3);
        let pool = rt.grid_pool::<f64>();
        assert_eq!(pool.capacity(), 3);
        for edge in 4..12 {
            pool.release(tb_grid::Grid3::zeroed(tb_grid::Dims3::cube(edge)));
        }
        assert_eq!(pool.free_grids(), 3, "runtime-configured bound holds");
        // Default runtimes keep the historical capacity.
        let plain = Runtime::with_threads(1);
        assert_eq!(
            plain.grid_pool::<f64>().capacity(),
            crate::pool::DEFAULT_POOL_CAPACITY
        );
    }

    #[test]
    fn acquire_grid_allocates_misses_and_reuses_hits() {
        use tb_grid::{Dims3, Grid3};
        let rt = Runtime::with_threads(2);
        let pool = rt.grid_pool::<f64>();

        // Miss: fresh zeroed grid, counted on the pool's ledger.
        let mut g: Grid3<f64> = rt.acquire_grid(Dims3::new(6, 5, 4));
        assert!(g.as_slice().iter().all(|v| *v == 0.0));
        assert_eq!(pool.fresh_allocations(), 1);

        // Hit: recycled storage, stale contents, no new allocation.
        g.set(1, 1, 1, 42.0);
        pool.release(g);
        let g: Grid3<f64> = rt.acquire_grid(Dims3::new(6, 5, 4));
        assert_eq!(g.get(1, 1, 1), 42.0, "reuse keeps stale contents");
        assert_eq!(pool.fresh_allocations(), 1, "warm path allocates nothing");
    }

    #[test]
    fn place_copy_is_bitwise() {
        let src: Vec<f64> = (0..997).map(|i| (i as f64).sin()).collect();
        let rt = Runtime::with_threads(3);
        let mut dst = vec![0.0f64; src.len()];
        rt.place_copy(&mut dst, &src);
        assert_eq!(dst, src);
    }

    #[test]
    fn grid_pool_is_shared_per_element_type() {
        let rt = Runtime::with_threads(1);
        let p1 = rt.grid_pool::<f64>();
        let p2 = rt.grid_pool::<f64>();
        assert!(Arc::ptr_eq(&p1, &p2));
        let q = rt.grid_pool::<f32>();
        q.release(tb_grid::Grid3::zeroed(tb_grid::Dims3::cube(4)));
        assert_eq!(q.free_grids(), 1);
        assert_eq!(p1.free_grids(), 0, "f32 and f64 pools are distinct");
    }
}
