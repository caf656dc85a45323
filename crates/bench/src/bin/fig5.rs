//! Experiment E3 — Fig. 5: theoretical multi-layer halo advantage versus
//! linear subdomain size `L` for h ∈ {2,4,8,16,32}, plus the inset
//! (computation/overall-time ratio for h=2 and h=32).
//!
//! Entirely analytic, using the paper's parameter set: QDR InfiniBand
//! (3.2 GB/s, 1.8 µs), 2000 MLUP/s per node, no buffer-copy cost, face-
//! only extra work (both simplifications stated in §2.1).
//!
//! `--realistic` switches to the implementation-accurate variant
//! (expanded slabs + buffer copies) for comparison.

#![forbid(unsafe_code)]

use tb_bench::Args;
use tb_model::halo::{computational_efficiency, fig5_network, halo_advantage, HaloWorkload};
use tb_model::NetworkParams;

fn main() {
    let args = Args::parse();
    let realistic = args.has("--realistic");
    let net = if realistic {
        NetworkParams::qdr_infiniband()
    } else {
        fig5_network()
    };
    let workload = |l: usize| -> HaloWorkload {
        if realistic {
            HaloWorkload::realistic([l, l, l], [true; 3], 2.0e9)
        } else {
            HaloWorkload::fig5(l)
        }
    };

    let hs = [2usize, 4, 8, 16, 32];
    let ls: Vec<usize> = vec![
        1, 2, 3, 4, 6, 8, 10, 14, 20, 28, 40, 56, 80, 110, 160, 220, 300, 400,
    ];

    println!(
        "Fig. 5 — multi-layer halo advantage ({} model)\n",
        if realistic { "realistic" } else { "paper" }
    );
    print!("{:>6}", "L");
    for h in hs {
        print!(" {:>10}", format!("h={h}"));
    }
    println!();
    for &l in &ls {
        print!("{l:>6}");
        let w = workload(l);
        for h in hs {
            print!(" {:>10.3}", halo_advantage(&w, &net, h));
        }
        println!();
    }

    println!("\ninset: computation / overall time");
    println!("{:>6} {:>10} {:>10}", "L", "h=2", "h=32");
    for &l in &ls {
        let w = workload(l);
        println!(
            "{l:>6} {:>10.3} {:>10.3}",
            computational_efficiency(&w, &net, 2),
            computational_efficiency(&w, &net, 32)
        );
    }
    println!(
        "\npaper's reading: no influence at large L; extra halo work relevant\n\
         only for h >~ 16 at 20 <~ L <~ 100; aggregation wins below L ~ 20 —\n\
         but there the efficiency inset shows the run is communication-bound\n\
         anyway, so the gain is squandered."
    );
}
