//! Row-phase conformance: every grid the facade hands back is in the
//! phase of the operator that swept it, whatever phase the input had,
//! and the phase never changes a bit of the result.
//!
//! A grid's phase is the cell that starts a cache line
//! (`Grid3::phase`); `StencilOp::ALIGNED_CELL` is the cell an
//! operator's row loop wants there — the first interior cell for the
//! cross operators, the cell before it for `Avg27`. The cells: every
//! `MethodFamily`'s default plan, plus the compressed pipeline and the
//! wavefront shape the tuner does not search, × {`Jacobi6`, `Avg27`}
//! × f64/f32 × an
//! input in the default phase or in `Avg27`'s, at an even sweep count
//! (the result lives in the input buffer, moved to the operator's
//! phase) and an odd one (it lives in the pooled B buffer, re-pointed
//! without a move). Each is bitwise equal to the sequential oracle run
//! directly on a default-phase pair, and its rows have the operator's
//! cell on a line.

use temporal_blocking::grid::aligned::ALIGN;
use temporal_blocking::grid::grid3::DEFAULT_PHASE;
use temporal_blocking::grid::{init, norm};
use temporal_blocking::plan::default_plan;
use temporal_blocking::prelude::*;
use temporal_blocking::run_plan_on;
use temporal_blocking::stencil::baseline;
use temporal_blocking::stencil::config::GridScheme;

/// Rows of 32 cells: whole cache lines in f64 and in f32, so every
/// row's cell `ALIGNED_CELL` shares one phase.
const DIMS: Dims3 = Dims3::new(32, 18, 16);
const TEAM: usize = 2;

/// Every family's default plan, then the explicit kinds the default
/// search leaves out.
fn plans() -> Vec<Plan> {
    let mut plans: Vec<Plan> = MethodFamily::ALL
        .into_iter()
        .map(|family| default_plan(family, TEAM))
        .collect();
    plans.push(Plan::new(Method::Pipelined(PipelineConfig {
        scheme: GridScheme::Compressed,
        ..PipelineConfig::default_for(TEAM, 1)
    })));
    plans.push(Plan::new(Method::Pipelined(PipelineConfig::wavefront(
        TEAM,
    ))));
    plans
}

fn check<T: Real, Op: StencilOp<T>>(rt: &Runtime, op: &Op) {
    let want = Op::ALIGNED_CELL;
    let initial: Grid3<T> = init::random(DIMS, 0x9A5E);
    assert_eq!(initial.phase(), DEFAULT_PHASE);
    for sweeps in [4, 5] {
        let mut pair = GridPair::from_initial(initial.clone());
        baseline::seq_sweeps_op(op, &mut pair, sweeps);
        let oracle = pair.current(sweeps);
        for plan in plans() {
            for input_phase in [DEFAULT_PHASE, <Avg27 as StencilOp<T>>::ALIGNED_CELL] {
                let mut input = initial.clone();
                input.set_phase(input_phase);
                let what = format!(
                    "{} {} x{sweeps} via {} from phase {input_phase}",
                    op.name(),
                    std::any::type_name::<T>(),
                    plan.label()
                );
                let (got, _) = run_plan_on(rt, op, &plan, input, sweeps)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                norm::assert_grids_identical(oracle, &got, &Region3::whole(DIMS), &what);
                for z in 0..DIMS.nz {
                    for y in 0..DIMS.ny {
                        let cell = &got.row(y, z)[want] as *const T as usize;
                        assert!(
                            cell.is_multiple_of(ALIGN),
                            "{what}: cell ({want},{y},{z}) is {} B past a line",
                            cell % ALIGN
                        );
                    }
                }
            }
        }
    }
}

fn both_operators<T: Real>() {
    let rt = Runtime::with_threads(TEAM);
    check::<T, _>(&rt, &Jacobi6);
    check::<T, _>(&rt, &Avg27);
}

#[test]
fn every_family_returns_the_operators_phase_bitwise_f64() {
    both_operators::<f64>();
}

#[test]
fn every_family_returns_the_operators_phase_bitwise_f32() {
    both_operators::<f32>();
}
