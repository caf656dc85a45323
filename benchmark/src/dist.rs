//! The dist cell group: Jacobi6 on a global cube split `[2,1,1]` with
//! halo width 4, two ranks × `LocalExec::Seq` under `Universe::run`.
//! The x-split makes every halo face strided, so pack/unpack/exchange
//! get the largest share the dist layer ever sees; tb-stencil's team
//! executors and serve are bypassed. `dist-x2` runs it at full size.

use temporal_blocking::dist::{halo, solver, Decomposition, DistSolver, ExchangeMode, LocalExec};
use temporal_blocking::grid::{init, norm};
use temporal_blocking::net::{comm::pack_f64s, CartComm, Universe};
use temporal_blocking::prelude::*;
use temporal_blocking::stencil::baseline;
use temporal_blocking::stencil::kernel::StoreMode;
use temporal_blocking::topology::Machine;

use crate::ctx::{gbs, CellGroup, Ctx};
use crate::spec::DistProblem;
use crate::stats::median;
use crate::trace::Tracer;

const RANKS: usize = 2;
const HALO: usize = 4;
const X_SPLIT: [usize; 3] = [RANKS, 1, 1];

pub struct DistCells {
    problem: DistProblem,
    dims: Dims3,
    global: Grid3<f64>,
    /// Fingerprint of the serial solve of `global`.
    oracle: u64,
    /// Useful lattice-site updates of one solve.
    lups: f64,
}

/// One rank's share of a solve.
struct RankOut {
    timing: Solve,
    grid: Option<Grid3<f64>>,
    tracer: Tracer,
}

impl CellGroup for DistCells {
    fn min_sets(&self) -> usize {
        self.problem.min_reps
    }

    /// `dist_mlups` (Sync), then `dist_overlap_mlups` (Overlapped).
    fn set(&mut self, ctx: &mut Ctx) {
        for (metric, what, mode) in [
            ("dist_mlups", "dist sync", ExchangeMode::Sync),
            (
                "dist_overlap_mlups",
                "dist overlapped",
                ExchangeMode::Overlapped,
            ),
        ] {
            let Some(solve) = self.solve(ctx, what, X_SPLIT, HALO, mode) else {
                continue;
            };
            ctx.sample(metric, self.mlups(&solve));
            if ctx.trace && mode == ExchangeMode::Sync {
                ctx.sample("dist.setup_ms", solve.setup_s * 1e3);
                ctx.sample("dist.gather_ms", solve.gather_s * 1e3);
                ctx.sample("dist.halo_bytes", solve.halo_bytes as f64);
            }
        }
    }
}

/// What one verified distributed solve measured (per rank, then the
/// slowest rank's times and the summed bytes).
#[derive(Default)]
struct Solve {
    /// Slowest rank's `run_sweeps` wall time.
    wall_s: f64,
    setup_s: f64,
    gather_s: f64,
    halo_bytes: u64,
}

fn fingerprint(g: &Grid3<f64>) -> u64 {
    norm::fingerprint(g, &Region3::whole(g.dims()))
}

impl DistCells {
    /// Set-up: global init and the serial oracle.
    pub fn setup(ctx: &mut Ctx, problem: DistProblem) -> DistCells {
        if 2 * RANKS > ctx.nproc {
            ctx.skip(
                "dist ExchangeMode::OverlappedCommThread",
                "2 ranks x (compute + comm thread) exceed the CPUs",
            );
        }
        let dims = Dims3::cube(problem.edge);
        let global = init::random::<f64>(dims, ctx.seed + 1);
        let (oracle, _) = ctx.tracer.time("dist.serial_reference", |_| {
            fingerprint(&solver::serial_reference(&global, problem.sweeps))
        });
        DistCells {
            problem,
            dims,
            oracle: ctx.oracle(oracle),
            lups: (problem.sweeps * dims.interior_len()) as f64,
            global,
        }
    }

    /// One distributed solve: every rank carves its box, all start
    /// together, rank 0 gathers; the gathered grid is verified.
    fn solve(
        &self,
        ctx: &mut Ctx,
        what: &str,
        pgrid: [usize; 3],
        h: usize,
        mode: ExchangeMode,
    ) -> Option<Solve> {
        let dec = Decomposition::new(self.dims, pgrid, h);
        let (global, sweeps) = (&self.global, self.problem.sweeps);
        let parent = &ctx.tracer;
        let outs = Universe::run(RANKS, None, |comm| -> Result<RankOut, String> {
            let mut tracer = parent.fork(1 + comm.rank() as u32);
            let mut cart = CartComm::new(comm, pgrid);
            let (solver, setup_s) = tracer.time("dist.from_global_op", |_| {
                DistSolver::from_global_op(&dec, cart.coords(), global, LocalExec::Seq, Jacobi6)
            });
            let mut solver = solver?.with_exchange_mode(mode);
            cart.comm.barrier();
            let (_, wall_s) =
                tracer.time("dist.run_sweeps", |_| solver.run_sweeps(&mut cart, sweeps));
            let (grid, gather_s) = tracer.time("dist.gather_global", |_| {
                solver.gather_global(&mut cart, &dec, global)
            });
            Ok(RankOut {
                timing: Solve {
                    wall_s,
                    setup_s,
                    gather_s,
                    halo_bytes: solver.halo_bytes_sent,
                },
                grid,
                tracer,
            })
        });
        let mut solve = Solve::default();
        let mut gathered = None;
        for out in outs {
            match out {
                Ok(out) => {
                    solve.wall_s = solve.wall_s.max(out.timing.wall_s);
                    solve.setup_s = solve.setup_s.max(out.timing.setup_s);
                    solve.gather_s = solve.gather_s.max(out.timing.gather_s);
                    solve.halo_bytes += out.timing.halo_bytes;
                    gathered = gathered.or(out.grid);
                    ctx.tracer.absorb(out.tracer);
                }
                Err(e) => {
                    ctx.fail(format!("{what}: {e}"));
                    return None;
                }
            }
        }
        let ok = gathered.is_some_and(|g| fingerprint(&g) == self.oracle);
        ctx.check(ok, || {
            format!("{what}: gathered grid differs from the serial oracle")
        });
        Some(solve)
    }

    fn mlups(&self, solve: &Solve) -> f64 {
        self.lups / solve.wall_s / 1e6
    }

    /// Per-layer rungs of net and dist (traced pass only).
    pub fn layers(&mut self, ctx: &mut Ctx, machine: &Machine) {
        self.net_cells(ctx);
        let sweeps = self.problem.sweeps;
        ctx.sample("dist.cycles", sweeps.div_ceil(HALO) as f64);

        // Pack / unpack of one strided x-face and one contiguous z-face
        // of a rank's local box.
        let local = Decomposition::new(self.dims, X_SPLIT, HALO).local([0, 0, 0]);
        let mut grid = init::random::<f64>(local.dims, ctx.seed + 2);
        let whole = Region3::whole(local.dims);
        for (face, pack, unpack) in [
            (
                whole.high_face(0, HALO),
                "dist.pack_x_gbs",
                "dist.unpack_x_gbs",
            ),
            (
                whole.high_face(2, HALO),
                "dist.pack_z_gbs",
                "dist.unpack_z_gbs",
            ),
        ] {
            let bytes = face.count() * 8;
            let reps = (64 << 20) / bytes.max(1) + 1;
            let (payload, secs) = ctx.tracer.time("dist.pack_region", |_| {
                let mut last = halo::pack_region(&grid, &face);
                for _ in 1..reps {
                    last = std::hint::black_box(halo::pack_region(&grid, &face));
                }
                last
            });
            ctx.sample(pack, gbs(reps * bytes, secs));
            let (_, secs) = ctx.tracer.time("dist.unpack_region", |_| {
                for _ in 0..reps {
                    halo::unpack_region(&mut grid, &face, std::hint::black_box(&payload));
                }
            });
            ctx.sample(unpack, gbs(reps * bytes, secs));
        }

        // The same local boxes swept with no exchange at all.
        let walls = Universe::run(RANKS, None, |comm| {
            let mut pair = GridPair::from_initial(init::random::<f64>(local.dims, 3));
            comm.barrier();
            let t0 = std::time::Instant::now();
            baseline::seq_sweeps_op(&Jacobi6, &mut pair, sweeps);
            t0.elapsed().as_secs_f64()
        });
        let compute_only = self.lups / walls.into_iter().fold(0.0, f64::max) / 1e6;
        ctx.sample("dist.compute_only_mlups", compute_only);
        if let Some(dist) = ctx.median("dist_mlups") {
            ctx.sample("dist.exchange_share", 1.0 - dist / compute_only);
        }

        // Contiguous faces ([1,1,2]) and one exchange per sweep (h = 1).
        for (metric, what, pgrid, h) in [
            ("dist.zsplit_mlups", "dist z-split", [1, 1, RANKS], HALO),
            ("dist.h1_mlups", "dist h=1", X_SPLIT, 1),
        ] {
            if let Some(solve) = self.solve(ctx, what, pgrid, h, ExchangeMode::Sync) {
                ctx.sample(metric, self.mlups(&solve));
            }
        }

        // The shared-memory baseline on the same global grid.
        let team = ctx.team;
        let rt = Runtime::new(&TeamLayout::new(machine, team, 1));
        let mut pair = GridPair::from_initial(self.global.clone());
        let par_sweeps = sweeps.min(8);
        let mut rates = Vec::new();
        for _ in 0..3 {
            let (_, secs) = ctx.tracer.time("stencil.par_sweeps_op_on", |_| {
                baseline::par_sweeps_op_on(
                    &rt,
                    &Jacobi6,
                    &mut pair,
                    par_sweeps,
                    team,
                    StoreMode::Normal,
                )
            });
            rates.push((par_sweeps * self.dims.interior_len()) as f64 / secs / 1e6);
        }
        if let Some(dist) = ctx.median("dist_mlups") {
            ctx.sample("dist.efficiency", dist / median(&rates));
        }
    }

    /// Message latency, bandwidth and barrier between the two ranks.
    fn net_cells(&self, ctx: &mut Ctx) {
        const PINGS: usize = 2000;
        const BULK: usize = 100;
        const BULK_BYTES: usize = 1 << 20;
        let parent = &ctx.tracer;
        let outs = Universe::run(RANKS, None, |comm| {
            let mut tracer = parent.fork(1 + comm.rank() as u32);
            let peer = 1 - comm.rank();
            let small = pack_f64s(&[1.0]);
            let big = pack_f64s(&vec![1.0; BULK_BYTES / 8]);
            for _ in 0..100 {
                comm.sendrecv(peer, 1, small.clone());
            }
            let (_, ping_s) = tracer.time("net.sendrecv", |_| {
                for _ in 0..PINGS {
                    comm.sendrecv(peer, 1, small.clone());
                }
            });
            let (_, bulk_s) = tracer.time("net.sendrecv", |_| {
                for _ in 0..BULK {
                    comm.sendrecv(peer, 2, big.clone());
                }
            });
            let (_, barrier_s) = tracer.time("net.barrier", |_| {
                for _ in 0..PINGS {
                    comm.barrier();
                }
            });
            (ping_s, bulk_s, barrier_s, tracer)
        });
        for (rank, (ping_s, bulk_s, barrier_s, tracer)) in outs.into_iter().enumerate() {
            ctx.tracer.absorb(tracer);
            if rank == 0 {
                ctx.sample("net.pingpong_us", ping_s / PINGS as f64 * 1e6);
                ctx.sample("net.bandwidth_gbs", gbs(BULK * BULK_BYTES, bulk_s));
                ctx.sample("net.barrier_us", barrier_s / PINGS as f64 * 1e6);
            }
        }
    }
}
