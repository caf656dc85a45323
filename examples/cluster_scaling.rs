//! Distributed-memory demo: run the hybrid temporally blocked Jacobi on
//! an in-process "cluster" of ranks, verify the result against the
//! serial solver bit for bit, and show a weak-scaling table.
//!
//! This exercises the full §2 machinery — overlapping decomposition,
//! multi-layer halo exchange along successive directions, per-rank
//! pipelined updates — on real data, in both the synchronous baseline
//! schedule and the §2.3 overlapped schedule, driven by a dedicated
//! communication thread (each rank's runtime carries a communication
//! worker).
//!
//! ```sh
//! cargo run --release --example cluster_scaling
//! ```

use temporal_blocking::dist::{solver, Decomposition, DistSolver, ExchangeMode, LocalExec};
use temporal_blocking::grid::{init, norm, Dims3, Grid3, Region3};
use temporal_blocking::net::{CartComm, Universe};
use temporal_blocking::prelude::*;

fn main() {
    let sweeps = 8;
    let halo = 4; // updates per exchange cycle = n*t*T of the local pipeline

    println!("hybrid distributed Jacobi, halo width h = {halo}, {sweeps} sweeps");
    println!(
        "{:>6} {:>10} {:>12} {:>14} {:>10} {:>10} {:>11} {:>10}",
        "ranks", "grid", "local", "exchange", "MLUP/s", "halo[KB]", "gather[KB]", "verified"
    );

    for (pgrid, edge) in [
        ([1usize, 1, 1], 42usize),
        ([2, 1, 1], 52),
        ([2, 2, 1], 66),
        ([2, 2, 2], 82),
    ] {
        let ranks: usize = pgrid.iter().product();
        let dims = Dims3::cube(edge);
        let global: Grid3<f64> = init::random(dims, 7);
        let want = solver::serial_reference(&global, sweeps);
        let dec = Decomposition::new(dims, pgrid, halo);

        // Each rank runs a 2-thread pipeline with T=2 => depth 4 == halo.
        let cfg = PipelineConfig {
            team_size: 2,
            n_teams: 1,
            updates_per_thread: 2,
            block: [16, 8, 8],
            sync: SyncMode::relaxed_default(),
            scheme: temporal_blocking::stencil::config::GridScheme::TwoGrid,
            audit: false,
        };

        for (mode, comm_thread, mode_name) in [
            (ExchangeMode::Sync, false, "sync"),
            (ExchangeMode::Overlapped, true, "overlapped-ct"),
        ] {
            let global_ref = &global;
            let want_ref = &want;
            let cfg_ref = &cfg;
            let dec_ref = &dec;
            let results = Universe::run(ranks, None, move |comm| {
                let mut cart = CartComm::new(comm, pgrid);
                let mut s = DistSolver::from_global_op(
                    dec_ref,
                    cart.coords(),
                    global_ref,
                    LocalExec::Pipelined(cfg_ref.clone()),
                    Jacobi6,
                )
                .expect("valid hybrid config")
                .with_exchange_mode(mode);
                let rt =
                    Runtime::from_cpus(vec![None; cfg_ref.threads()], comm_thread.then_some(None));
                let stats = s.run_sweeps_on(&rt, &mut cart, sweeps);
                let verified = match s.gather_global(&mut cart, dec_ref, global_ref) {
                    Some(got) => {
                        norm::count_mismatches(want_ref, &got, &Region3::interior_of(dims)) == 0
                    }
                    None => true,
                };
                (
                    stats.mlups(),
                    verified,
                    s.halo_bytes_sent,
                    s.gather_bytes_sent,
                )
            });

            let agg: f64 = results.iter().map(|(m, ..)| m).sum();
            let all_ok = results.iter().all(|&(_, v, ..)| v);
            let halo_kb: u64 = results.iter().map(|r| r.2).sum();
            let gather_kb: u64 = results.iter().map(|r| r.3).sum();
            println!(
                "{:>6} {:>10} {:>12} {:>14} {:>10.1} {:>10.1} {:>11.1} {:>10}",
                ranks,
                format!("{dims}"),
                format!("{:?}", pgrid),
                mode_name,
                agg,
                halo_kb as f64 / 1e3,
                gather_kb as f64 / 1e3,
                all_ok
            );
            assert!(all_ok, "distributed result diverged from serial reference");
        }
    }
    println!("\nevery configuration matched the serial solver bitwise");
}
