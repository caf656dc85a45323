//! Experiment E4 — Fig. 6: distributed-memory strong and weak scaling of
//! the standard and pipelined Jacobi on 1..64 nodes.
//!
//! Modes:
//! * `--mode model` (default): nominal Nehalem-cluster curves through the
//!   scaling model (per-node rates below), plus ideal lines.
//! * `--mode sim`: same curves, but every point *executes* the real
//!   decomposition + multi-layer exchange + solver on a scaled problem
//!   with the full rank count and verifies it bitwise against the serial
//!   solver (DESIGN.md §4 substitution).
//! * `--mode host`: real timed weak-scaling runs with 1..N_cpu in-process
//!   ranks on this machine (small grids; wall-clock measurement).
//!
//! Per-node rates are taken from the paper's Fig. 3 measurement class:
//! standard 8PPN 2.9 GLUP/s, standard 1PPN ("hybrid vector", clearly
//! inferior) 2.2, pipelined 1PPN (ccNUMA-limited) 3.0, pipelined 2PPN
//! 3.4 GLUP/s; pipelined halo width h = n·t·T = 16.

#![forbid(unsafe_code)]

use tb_bench::Args;
use tb_dist::sim::{simulate, SimSpec};
use tb_model::{NetworkParams, ScalingConfig, ScalingMode};

struct Curve {
    label: &'static str,
    ppn: usize,
    node_lups: f64,
    halo: usize,
}

const CURVES: [Curve; 4] = [
    Curve {
        label: "standard 8PPN",
        ppn: 8,
        node_lups: 2.9e9,
        halo: 1,
    },
    Curve {
        label: "standard 1PPN",
        ppn: 1,
        node_lups: 2.2e9,
        halo: 1,
    },
    Curve {
        label: "pipelined 1PPN",
        ppn: 1,
        node_lups: 3.0e9,
        halo: 16,
    },
    Curve {
        label: "pipelined 2PPN",
        ppn: 2,
        node_lups: 3.4e9,
        halo: 16,
    },
];

const NODES: [usize; 4] = [1, 8, 27, 64];

fn config(c: &Curve, mode: ScalingMode) -> ScalingConfig {
    ScalingConfig {
        ppn: c.ppn,
        node_lups: c.node_lups,
        halo_h: c.halo,
        net: NetworkParams::qdr_infiniband(),
        mode,
        base_edge: 600,
    }
}

fn main() {
    let args = Args::parse();
    match args.mode(&["model", "sim", "host"]) {
        "sim" => sim(&args),
        "host" => host(&args),
        _ => model(),
    }
}

fn model() {
    println!("Fig. 6 — scaling model, 600^3 (strong) / 600^3 per process (weak)\n");
    for (mode, name) in [(ScalingMode::Strong, "strong"), (ScalingMode::Weak, "weak")] {
        println!("{name} scaling [GLUP/s]:");
        print!("{:<18}", "nodes");
        for n in NODES {
            print!(" {n:>10}");
        }
        println!();
        for c in &CURVES {
            let cfg = config(c, mode);
            print!("{:<18}", c.label);
            for n in NODES {
                print!(" {:>10.1}", cfg.predict(n).glups);
            }
            println!();
        }
        // Ideal lines: standard 8PPN and pipelined 2PPN node rates.
        for (label, rate) in [("ideal standard", 2.9e9), ("ideal pipelined", 3.4e9)] {
            print!("{label:<18}");
            for n in NODES {
                print!(" {:>10.1}", n as f64 * rate / 1e9);
            }
            println!();
        }
        println!();
    }
    println!(
        "paper's reading: strong scaling at large node counts is dominated by\n\
         communication and the temporal-blocking benefit is lost; weak scaling\n\
         keeps ~80% of the pipelined speedup, and 2PPN beats 1PPN because one\n\
         process per socket sidesteps the ccNUMA placement problem."
    );
}

fn sim(args: &Args) {
    let exec_edge = args.get_usize("--exec-size", 20);
    let sweeps = args.get_usize("--sweeps", 4);
    println!(
        "Fig. 6 — virtual cluster simulation (real protocol on {exec_edge}^3, nominal 600^3)\n"
    );
    let (mut halo_total, mut gather_total) = (0u64, 0u64);
    for (mode, name) in [(ScalingMode::Strong, "strong"), (ScalingMode::Weak, "weak")] {
        println!("{name} scaling [GLUP/s] (every point protocol-verified):");
        print!("{:<18}", "nodes");
        for n in NODES {
            print!(" {n:>10}");
        }
        println!();
        for c in &CURVES {
            print!("{:<18}", c.label);
            for n in NODES {
                // Cap the executed rank count so oversubscription stays
                // tractable; the nominal prediction still uses n.
                let spec = SimSpec {
                    nodes: n,
                    cfg: config(c, mode),
                    exec_edge,
                    exec_halo: 2,
                    exec_sweeps: sweeps,
                };
                let out = simulate(&spec);
                assert!(out.verified, "{} at {n} nodes failed verification", c.label);
                halo_total += out.halo_bytes;
                gather_total += out.gather_bytes;
                print!(" {:>10.1}", out.point.glups);
            }
            println!();
        }
        println!();
    }
    println!(
        "executed protocol traffic across all points: {:.2} MB halo, {:.2} MB gather",
        halo_total as f64 / 1e6,
        gather_total as f64 / 1e6
    );
    println!("all points executed the real exchange/update path and matched the serial solver");
}

fn host(args: &Args) {
    use tb_dist::net::{CartComm, Universe};
    use tb_dist::{solver, Decomposition, DistSolver, LocalExec};
    use tb_grid::{init, Dims3};
    use tb_stencil::Jacobi6;

    let edge_per_rank = args.get_usize("--size", 48);
    let sweeps = args.get_usize("--sweeps", 6);
    let max_ranks = tb_topology::detect::detect().num_cpus().max(2);
    println!(
        "Fig. 6 — host weak scaling, {edge_per_rank}^3 owned cells per rank, {sweeps} sweeps\n"
    );
    println!(
        "{:>6} {:>12} {:>14} {:>12} {:>12}",
        "ranks", "MLUP/s", "efficiency", "halo[MB]", "gather[MB]"
    );
    let mut base_rate = None;
    let mut ranks = 1usize;
    while ranks <= max_ranks {
        let pgrid = [ranks, 1, 1];
        let dims = Dims3::new(
            edge_per_rank * ranks + 2,
            edge_per_rank + 2,
            edge_per_rank + 2,
        );
        let dec = Decomposition::new(dims, pgrid, 2);
        let global = init::random::<f64>(dims, 11);
        let (global_ref, dec_ref) = (&global, &dec);
        let results = Universe::run(ranks, None, move |comm| {
            let mut cart = CartComm::new(comm, pgrid);
            let mut s = DistSolver::from_global_op(
                dec_ref,
                cart.coords(),
                global_ref,
                LocalExec::Seq,
                Jacobi6,
            )
            .unwrap();
            let t0 = std::time::Instant::now();
            let st = s.run_sweeps(&mut cart, sweeps);
            let secs = t0.elapsed().as_secs_f64();
            let _ = s.gather_global(&mut cart, dec_ref, global_ref);
            (
                st.cell_updates,
                secs,
                s.halo_bytes_sent,
                s.gather_bytes_sent,
            )
        });
        let elapsed = results.iter().map(|r| r.1).fold(0.0, f64::max);
        let total: u64 = results.iter().map(|r| r.0).sum();
        let halo: u64 = results.iter().map(|r| r.2).sum();
        let gather: u64 = results.iter().map(|r| r.3).sum();
        let mlups = total as f64 / elapsed / 1e6;
        let eff = base_rate
            .map(|b: f64| mlups / (b * ranks as f64))
            .unwrap_or(1.0);
        if base_rate.is_none() {
            base_rate = Some(mlups);
        }
        println!(
            "{ranks:>6} {mlups:>12.1} {eff:>14.2} {:>12.2} {:>12.2}",
            halo as f64 / 1e6,
            gather as f64 / 1e6
        );
        let _ = solver::serial_reference::<f64>; // keep the oracle linked for doc purposes
        ranks *= 2;
    }
}
