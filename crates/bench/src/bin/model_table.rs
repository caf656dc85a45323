//! Experiment E6 — the §1.4 diagnostic model numbers.
//!
//! Prints Eq. 4 block times and Eq. 5 speedups for the paper's Nehalem
//! parameters, checks the closed form 16T/(7+4T) the paper derives for
//! t = 4, shows the t·T→∞ limit (M_c/M_s) and the bandwidth-scaling
//! counterexample where temporal blocking cannot win.

#![forbid(unsafe_code)]

use tb_model::{pipeline, MachineParams};

fn main() {
    let m = MachineParams::nehalem_ep();
    let ideal = MachineParams {
        ms: 20.0e9,
        ms1: 10.0e9,
        mc: 80.0e9,
        ..m
    };
    println!("single-cache diagnostic model (Eqs. 4-5), Nehalem EP\n");
    println!(
        "{:>4} {:>6} {:>14} {:>12} {:>14}",
        "t", "T", "T_b [ns/LUP]", "speedup", "16T/(7+4T)"
    );
    for updates in [1usize, 2, 4, 8] {
        let t = 4usize;
        let tb = pipeline::team_block_time(&ideal, t, updates) * 1e9;
        let s = pipeline::pipeline_speedup(&ideal, t, updates);
        let closed = 16.0 * updates as f64 / (7.0 + 4.0 * updates as f64);
        println!("{t:>4} {updates:>6} {tb:>14.3} {s:>12.4} {closed:>14.4}");
    }
    println!(
        "\nT=1 speedup {:.4} (paper: 1.45); asymptotic limit Mc/Ms = {:.2} (paper: ~4)",
        pipeline::pipeline_speedup(&ideal, 4, 1),
        ideal.max_speedup()
    );

    let scaling = MachineParams::bandwidth_scaling(4);
    println!(
        "\ncounterexample — memory bandwidth scaling with cores (Ms = 4*Ms,1):\n\
         speedup at t=4, T=4: {:.3} (<= 1: such machines gain nothing, §1.4)",
        pipeline::pipeline_speedup(&scaling, 4, 4)
    );

    let core2 = MachineParams::core2_like();
    println!(
        "\nbandwidth-starved Core 2-like design: speedup at t=2, T=2: {:.2}\n\
         (older designs profit more — paper §3)",
        pipeline::pipeline_speedup(&core2, 2, 2)
    );
}
