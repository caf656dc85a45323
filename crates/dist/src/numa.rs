//! The §3 outlook: team-decomposed node solver.
//!
//! The paper's node-wide pipeline has every thread touching every block,
//! which defeats first-touch NUMA placement. The proposed fix is to run
//! **one pipeline per cache group** on its own subdomain — exactly the
//! distributed solver's structure, but with the halo exchange replaced
//! by in-memory slab copies between the teams' grids. Coupling depth is
//! the team pipeline depth `t·T`, so a team communicates once per `t·T`
//! sweeps, just like a rank of the cluster solver.
//!
//! The subdomain grids come from the [`Runtime`]'s pool and are
//! **first-touched by the team that later computes on them**: worker `k·t` fills team `k`'s
//! pair before the first cycle, so with pinned workers the pages land on
//! the right NUMA domain — the point of the whole exercise. Each cycle
//! then dispatches all teams at once; team `k` occupies workers
//! `k·t .. (k+1)·t`, each running its slice of the team's
//! [`PipelineRun`].
//!
//! Results remain bitwise identical to the sequential solver; the
//! redundant overlap-ring updates are the price, which
//! [`RunStats::cell_updates`] here *includes* (unlike
//! [`crate::DistSolver`]) so the ablation binary can report both the
//! raw and the useful rate.
//!
//! The same first-touch lever is available generically — outside this
//! decomposed solver — through `tb_runtime::placement`: any runtime
//! set to `Placement::WorkerFirstTouch` hands out pool grids whose
//! z-slabs its pinned workers zeroed/copied in their own compute
//! partitions, and the serve layer's ingest stage uses it to relocate
//! client payloads onto the executing slice's domain.

use std::sync::Mutex;
use std::time::Instant;

use tb_grid::{Grid3, GridPair, Real, Region3};
use tb_runtime::Runtime;
use tb_stencil::config::GridScheme;
use tb_stencil::pipeline::PipelineRun;
use tb_stencil::{Jacobi6, PipelineConfig, RunStats};
use tb_sync::{lock, SyncMode};
use tb_topology::{Machine, TeamLayout};

use crate::decomp::{Decomposition, LocalDomain};
use crate::halo::copy_region;

/// Parameters of the team-decomposed node run.
#[derive(Clone, Debug)]
pub struct NumaNodeConfig {
    /// Threads per team (`t`).
    pub team_size: usize,
    /// Number of teams = number of subdomains (`n`).
    pub n_teams: usize,
    /// Updates per thread within a team sweep (`T`).
    pub updates_per_thread: usize,
    /// Spatial block edges for the per-team pipelines.
    pub block: [usize; 3],
    /// Synchronization of the per-team pipelines.
    pub sync: SyncMode,
    /// Pin each team's threads to one cache group.
    pub pin: bool,
}

/// Pin layout for one team: `team_size` consecutive CPUs of cache group
/// `team` (wrapping inside the group when it is smaller than the team).
fn group_layout(machine: &Machine, team: usize, team_size: usize) -> TeamLayout {
    let groups = machine.cache_groups();
    let cpus = if groups.is_empty() {
        vec![None; team_size]
    } else {
        let group = &groups[team % groups.len()];
        (0..team_size)
            .map(|m| group.get(m % group.len().max(1)).copied())
            .collect()
    };
    TeamLayout {
        cpus,
        team_size,
        n_teams: 1,
        comm_core: None,
    }
}

/// Run `sweeps` Jacobi sweeps on `initial` with one pipelined team per
/// subdomain, coupled by multi-layer slab halos along z, on the given
/// persistent runtime (at least `team_size * n_teams` workers; team `k`
/// uses workers `k·t .. (k+1)·t`, so pin the runtime with a layout whose
/// teams match). Returns the final grid and merged stats (updates
/// *include* the redundant ring work).
fn run_numa_node_on<T: Real>(
    rt: &Runtime,
    initial: &Grid3<T>,
    cfg: &NumaNodeConfig,
    sweeps: usize,
) -> Result<(Grid3<T>, RunStats), String> {
    if cfg.n_teams == 0 || cfg.team_size == 0 || cfg.updates_per_thread == 0 {
        return Err("team_size, n_teams, updates_per_thread must be >= 1".into());
    }
    let threads_total = cfg.n_teams * cfg.team_size;
    if rt.threads() < threads_total {
        return Err(format!(
            "runtime has {} workers but {} teams of {} need {threads_total}",
            rt.threads(),
            cfg.n_teams,
            cfg.team_size
        ));
    }
    let dims = initial.dims();
    let h = cfg.team_size * cfg.updates_per_thread;
    let dec = Decomposition::try_new(dims, [1, 1, cfg.n_teams], h)?;

    struct Team<T: Real> {
        local: LocalDomain,
        pair: GridPair<T>,
        cfg: PipelineConfig,
    }

    // Validate every team's pipeline before touching the pool.
    let mut team_cfgs = Vec::with_capacity(cfg.n_teams);
    for k in 0..cfg.n_teams {
        let local = dec.local([0, 0, k]);
        let team_cfg = PipelineConfig {
            team_size: cfg.team_size,
            n_teams: 1,
            updates_per_thread: cfg.updates_per_thread,
            block: cfg.block,
            sync: cfg.sync,
            scheme: GridScheme::TwoGrid,
            audit: false,
        };
        team_cfg
            .validate(local.dims)
            .map_err(|e| format!("team {k}: {e}"))?;
        team_cfgs.push((local, team_cfg));
    }

    // First-touch init on the workers that will compute: worker `k·t`
    // builds team `k`'s pair from pooled grids, writing every cell of
    // the local box (so stale pool contents never survive), before any
    // cycle runs.
    let pool = rt.grid_pool::<T>();
    let slots: Vec<Mutex<Option<GridPair<T>>>> =
        (0..cfg.n_teams).map(|_| Mutex::new(None)).collect();
    {
        let team_cfgs = &team_cfgs;
        let slots = &slots;
        let pool = &pool;
        rt.run(threads_total, &|w| {
            if w % cfg.team_size != 0 {
                return;
            }
            let k = w / cfg.team_size;
            let local = &team_cfgs[k].0;
            let mut a = pool.acquire(local.dims);
            copy_region(initial, &local.region, &mut a, &Region3::whole(local.dims));
            let mut b = pool.acquire(local.dims);
            b.as_mut_slice().copy_from_slice(a.as_slice());
            *lock(&slots[k]) = Some(GridPair::from_parts(a, b));
        });
    }
    let mut teams: Vec<Team<T>> = team_cfgs
        .into_iter()
        .zip(slots)
        .map(|((local, cfg), slot)| Team {
            local,
            pair: slot
                .into_inner()
                .expect("rt.run re-raises a worker panic before this line")
                .expect("init task filled every team"),
            cfg,
        })
        .collect();

    let t0 = Instant::now();
    let mut updates = 0u64;
    let mut remaining = sweeps;
    let mut parity = 0usize; // shared by all teams: they advance in lockstep
    while remaining > 0 {
        let c = h.min(remaining);
        if parity == 1 {
            for t in &mut teams {
                t.pair.swap();
            }
        }
        // Couple the subdomains: copy `c` slab layers from each
        // neighbor's owned cells into this team's ghost rings. All
        // reads see cycle-start state because swaps happened above and
        // the copies go ghost-ward only (owned cells are never written).
        for k in 0..teams.len() {
            for (j, dir) in [(k.wrapping_sub(1), -1i64), (k + 1, 1)] {
                if dir == -1 && k == 0 || dir == 1 && j >= teams.len() {
                    continue;
                }
                let owned = teams[k].local.owned;
                let mut slab = owned;
                if dir == 1 {
                    slab.lo[2] = owned.hi[2];
                    slab.hi[2] = owned.hi[2] + c;
                } else {
                    slab.lo[2] = owned.lo[2] - c;
                    slab.hi[2] = owned.lo[2];
                }
                let src_local = teams[j].local.to_local(&slab);
                let dst_local = teams[k].local.to_local(&slab);
                // Split the borrow: j is k ± 1, so one side of the cut
                // holds the source team, the other the destination.
                let (src, dst) = if j < k {
                    let (a, b) = teams.split_at_mut(k);
                    (&a[j], &mut b[0])
                } else {
                    let (a, b) = teams.split_at_mut(j);
                    (&b[0], &mut a[k])
                };
                copy_region(src.pair.a(), &src_local, dst.pair.a_mut(), &dst_local);
            }
        }
        // Advance every team `c` sweeps at once: one dispatch, team `k`
        // on its own worker slice, each team driving its own pipeline.
        let op = Jacobi6;
        let runs: Vec<PipelineRun<'_, T, Jacobi6>> = teams
            .iter_mut()
            .map(|t| PipelineRun::new(&op, &mut t.pair, &t.cfg, c).expect("validated above"))
            .collect();
        rt.run(threads_total, &|w| {
            // SAFETY: each team's run sees exactly `team_size` distinct
            // member tids, dispatched once, and its pair is exclusively
            // borrowed by `runs` for the dispatch.
            unsafe { runs[w / cfg.team_size].worker(w % cfg.team_size) }
        });
        updates += runs.iter().map(|r| r.cells()).sum::<u64>();
        parity = c % 2;
        remaining -= c;
    }

    // Assemble: initial supplies the physical boundary, teams supply
    // their owned interiors.
    let mut out = initial.clone();
    for t in teams {
        let cur = if parity == 0 { t.pair.a() } else { t.pair.b() };
        let r = t.local.owned;
        copy_region(cur, &t.local.to_local(&r), &mut out, &r);
        let (a, b) = t.pair.into_parts();
        pool.release(a);
        pool.release(b);
    }
    Ok((out, RunStats::new(updates, t0.elapsed())))
}

/// The NUMA node solver on a one-shot runtime: pinned per cache group
/// when `cfg.pin` is set (team `k`'s workers on group `k`'s CPUs).
pub fn run_numa_node<T: Real>(
    initial: &Grid3<T>,
    machine: &Machine,
    cfg: &NumaNodeConfig,
    sweeps: usize,
) -> Result<(Grid3<T>, RunStats), String> {
    if cfg.n_teams == 0 || cfg.team_size == 0 || cfg.updates_per_thread == 0 {
        return Err("team_size, n_teams, updates_per_thread must be >= 1".into());
    }
    let cpus: Vec<Option<usize>> = if cfg.pin {
        (0..cfg.n_teams)
            .flat_map(|k| group_layout(machine, k, cfg.team_size).cpus)
            .collect()
    } else {
        vec![None; cfg.n_teams * cfg.team_size]
    };
    let rt = Runtime::from_cpus(cpus, None);
    run_numa_node_on(&rt, initial, cfg, sweeps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_grid::{init, norm, Dims3, Region3};
    use tb_stencil::{baseline, Jacobi6};

    fn reference(initial: &Grid3<f64>, sweeps: usize) -> Grid3<f64> {
        let mut pair = GridPair::from_initial(initial.clone());
        baseline::seq_sweeps_op(&Jacobi6, &mut pair, sweeps);
        pair.current(sweeps).clone()
    }

    fn cfg(team_size: usize, n_teams: usize, upt: usize) -> NumaNodeConfig {
        NumaNodeConfig {
            team_size,
            n_teams,
            updates_per_thread: upt,
            block: [8, 8, 8],
            sync: SyncMode::relaxed_default(),
            pin: false,
        }
    }

    #[test]
    fn matches_sequential_bitwise() {
        let dims = Dims3::cube(24);
        let initial: Grid3<f64> = init::random(dims, 17);
        let m = Machine::flat(4);
        for sweeps in [1usize, 4, 9] {
            let (got, stats) = run_numa_node(&initial, &m, &cfg(2, 2, 1), sweeps).unwrap();
            let want = reference(&initial, sweeps);
            norm::assert_grids_identical(
                &want,
                &got,
                &Region3::interior_of(dims),
                &format!("numa {sweeps} sweeps"),
            );
            assert!(stats.cell_updates >= (sweeps * dims.interior_len()) as u64);
        }
    }

    #[test]
    fn three_teams_deep_pipeline() {
        let dims = Dims3::new(20, 20, 36);
        let initial: Grid3<f64> = init::random(dims, 23);
        let m = Machine::nehalem_ep();
        let (got, _) = run_numa_node(&initial, &m, &cfg(2, 3, 2), 10).unwrap();
        norm::assert_grids_identical(
            &reference(&initial, 10),
            &got,
            &Region3::interior_of(dims),
            "3 teams t=2 T=2",
        );
    }

    #[test]
    fn pinned_layout_still_correct() {
        let dims = Dims3::cube(22);
        let initial: Grid3<f64> = init::random(dims, 5);
        let m = Machine::nehalem_ep();
        let mut c = cfg(2, 2, 1);
        c.pin = true;
        let (got, _) = run_numa_node(&initial, &m, &c, 6).unwrap();
        norm::assert_grids_identical(
            &reference(&initial, 6),
            &got,
            &Region3::interior_of(dims),
            "pinned",
        );
    }

    #[test]
    fn shared_runtime_reuses_pooled_team_grids() {
        let dims = Dims3::cube(24);
        let initial: Grid3<f64> = init::random(dims, 3);
        let rt = Runtime::with_threads(4);
        let want = reference(&initial, 6);
        for round in 0..3 {
            let (got, _) = run_numa_node_on(&rt, &initial, &cfg(2, 2, 1), 6).unwrap();
            norm::assert_grids_identical(
                &want,
                &got,
                &Region3::interior_of(dims),
                &format!("shared-runtime round {round}"),
            );
        }
        // Both teams' pairs went back to the pool after each run.
        assert_eq!(rt.grid_pool::<f64>().free_grids(), 4);
    }

    #[test]
    fn undersized_runtime_rejected() {
        let dims = Dims3::cube(24);
        let initial: Grid3<f64> = init::random(dims, 3);
        let rt = Runtime::with_threads(3);
        let err = run_numa_node_on(&rt, &initial, &cfg(2, 2, 1), 4).unwrap_err();
        assert!(err.contains("workers"), "{err}");
    }

    #[test]
    fn too_many_teams_rejected() {
        let dims = Dims3::cube(10);
        let initial: Grid3<f64> = init::random(dims, 1);
        let m = Machine::flat(8);
        // 10 cells over 6 teams -> owned slab 1 < h=2.
        let err = run_numa_node(&initial, &m, &cfg(2, 6, 1), 4).unwrap_err();
        assert!(err.contains("halo width"), "{err}");
    }
}
