//! # tb-runtime — persistent core-pinned worker teams
//!
//! The paper's multicore-aware design assumes *long-lived* thread groups
//! pinned to cores that repeatedly execute sweeps, with one group member
//! optionally dedicated to communication (§2.2–2.3). Spawning and
//! re-pinning a thread team on every sweep — what `std::thread::scope`
//! inside an executor amounts to — costs tens of microseconds per
//! worker, which is exactly the per-iteration management overhead that
//! kills temporal blocking at small block sizes.
//!
//! [`Runtime`] spawns its workers **once**, pins them according to a
//! [`tb_topology::TeamLayout`], and then executes submitted tasks until
//! dropped. Between tasks the workers spin briefly (cheap re-dispatch
//! when sweeps come back to back) and then park until the next dispatch
//! unparks them, so an idle runtime takes no core time from the solves
//! of other runtimes sharing its cores.
//!
//! ## Lifecycle
//!
//! 1. **Build** — [`Runtime::new`] (pinned per layout, with a dedicated
//!    communication worker iff the layout reserved a
//!    [`comm_core`](tb_topology::TeamLayout::comm_core)),
//!    [`Runtime::with_threads`] (unpinned), or [`Runtime::from_cpus`]
//!    (full control). Workers pin themselves on their first instruction.
//! 2. **Execute** — [`Runtime::run`] broadcasts a task to the first `n`
//!    compute workers and blocks until all of them finished; a worker
//!    panic is re-raised on the caller. [`Runtime::submit_comm`] hands a
//!    one-shot task to the communication worker and returns a
//!    [`CommHandle`] that joins on drop.
//! 3. **Drop** — workers are woken, told to shut down, and joined.
//!
//! ## When to share one runtime
//!
//! Share a single runtime whenever the same team geometry executes more
//! than one solve: autotune loops, repeated-solve services, long
//! time-stepping with convergence checks, calibration sweeps. Every
//! `tb-stencil` executor takes the runtime as an argument (`*_op_on`);
//! `tb-dist` and `tb-membench` keep one-shot forms beside their `*_on`
//! ones, which build a runtime per call. Do **not** call
//! [`Runtime::run`] from inside a task running on the same runtime — the
//! workers are occupied and the nested dispatch would deadlock.
//!
//! ## Comm-core reservation
//!
//! [`TeamLayout::with_comm_core`](tb_topology::TeamLayout::with_comm_core)
//! carves the machine's last CPU out of the compute layout;
//! [`Runtime::new`] turns that reservation into a dedicated communication
//! worker pinned there. The distributed solver couples it to the compute
//! team with the existing `tb_sync::Handoff` — the comm worker drives the
//! halo exchange while the compute workers advance the interior
//! trapezoid.
//!
//! ## Staging-buffer pool
//!
//! [`GridPool`] recycles staging grids (overlapped-exchange snapshots,
//! second buffers of two-grid pipelines, compressed-grid storage) across
//! solves sharing a runtime ([`Runtime::grid_pool`]). Reused grids keep
//! their stale contents; every consumer in this workspace writes a
//! region before reading it, which the bitwise verification suites hold
//! them to.
//!
//! ## ccNUMA page placement
//!
//! Pages commit on the NUMA domain of the thread that first *writes*
//! them. `Grid3::zeroed` asks for 64-byte alignment, above what std's
//! `alloc_zeroed` can get from `calloc`, so it memsets the buffer on the
//! allocating thread: every grid, pool misses included, is placed by the
//! thread that allocates it. To place a team's grids on its own domain
//! (the paper's one-pipeline-per-cache-group layout, arXiv:1006.3148),
//! allocate them on a thread pinned there, as a `tb_dist::DistSolver`
//! rank thread does before `DistSolver::from_global_op`.

mod pool;
mod team;

pub use pool::{GridPool, PooledGrid, DEFAULT_POOL_CAPACITY};
pub use team::{CommHandle, Runtime};
