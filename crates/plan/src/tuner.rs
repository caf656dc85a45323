//! The model-pruned tuner.
//!
//! [`enumerate_family`] spans the candidate space of one method family;
//! [`predicted_mlups`] scores every candidate with the `tb-model`
//! analytic predictions (Eq. 2 roofline × Eq. 5 / diamond speedup,
//! demoted to baseline wherever the working set cannot stay in
//! the shared cache); [`tune`] measures only the top-K predicted
//! candidates, the incumbents among them, and returns a ranked
//! [`TuneReport`] with predicted-vs-measured MLUP/s, so the model's
//! pruning *and* its error are both visible.

use tb_grid::{Dims3, Real};
use tb_model::{
    diamond_speedup, max_cached_width, max_cached_width_mwd, op_roofline_lups, pipeline_speedup,
    MachineParams,
};
use tb_stencil::config::{GridScheme, WHOLE_EXTENT};
use tb_stencil::kernel::StoreMode;
use tb_stencil::{DiamondConfig, PipelineConfig, StencilOp, SyncMode};

use crate::ir::{Method, MethodFamily, Plan};

/// Tuner knobs.
#[derive(Clone, Copy, Debug)]
pub struct TuneConfig {
    /// Measure at most this many model-ranked candidates (the incumbents
    /// ride along inside this budget). The tuner additionally caps the
    /// measured set at half the enumerated candidates, so the model
    /// always discards at least as many candidates as are run.
    pub top_k: usize,
}

impl Default for TuneConfig {
    fn default() -> Self {
        TuneConfig { top_k: 8 }
    }
}

/// One candidate in a [`TuneReport`].
#[derive(Clone, Debug)]
pub struct TuneRow {
    pub plan: Plan,
    /// Analytic score (MLUP/s) from the `tb-model` predictions.
    pub predicted_mlups: f64,
    /// Measured MLUP/s; `None` for candidates the model pruned away or
    /// whose measurement failed.
    pub measured_mlups: Option<f64>,
    /// Whether this row is one of the caller's incumbents (default
    /// configs).
    pub incumbent: bool,
}

impl TuneRow {
    /// Relative model error `|predicted - measured| / measured`, when
    /// this row was measured.
    pub fn model_rel_error(&self) -> Option<f64> {
        let m = self.measured_mlups?;
        (m > 0.0).then(|| (self.predicted_mlups - m).abs() / m)
    }
}

/// Ranked outcome of one tuning run: every enumerated candidate with
/// its prediction, measured MLUP/s for the survivors, sorted measured
/// rows first (best measured on top), then the pruned remainder by
/// prediction.
#[derive(Clone, Debug, Default)]
pub struct TuneReport {
    pub rows: Vec<TuneRow>,
    /// Candidates enumerated before pruning.
    pub enumerated: usize,
    /// Candidates actually measured.
    pub measured: usize,
}

impl TuneReport {
    /// `measured / enumerated` — the acceptance metric of the pruning
    /// (≤ 0.5 by construction for non-degenerate candidate sets).
    pub fn pruning_ratio(&self) -> f64 {
        if self.enumerated == 0 {
            return 1.0;
        }
        self.measured as f64 / self.enumerated as f64
    }

    /// Best measured candidate.
    pub fn winner(&self) -> Option<&TuneRow> {
        self.rows
            .iter()
            .filter(|r| r.measured_mlups.is_some())
            .max_by(|a, b| {
                a.measured_mlups
                    .partial_cmp(&b.measured_mlups)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
    }

    /// The best measured incumbent — what a caller who never tunes
    /// could have had.
    pub fn incumbent(&self) -> Option<&TuneRow> {
        self.rows
            .iter()
            .find(|r| r.incumbent && r.measured_mlups.is_some())
    }

    /// Mean relative model error over the measured rows.
    pub fn mean_model_error(&self) -> Option<f64> {
        let errs: Vec<f64> = self
            .rows
            .iter()
            .filter_map(TuneRow::model_rel_error)
            .collect();
        if errs.is_empty() {
            return None;
        }
        Some(errs.iter().sum::<f64>() / errs.len() as f64)
    }
}

/// The incumbent (library-default) plan of a family, sized to `team`
/// compute threads — what a caller who never tunes would run.
///
/// The pipelined family takes its shape from
/// [`PipelineConfig::default_for`], the one place it is decided and
/// argued: whole-extent x edge (long inner loop for the prefetcher),
/// 8×8 y/z (16×16 loses in cache), depth 8 with `T` as a cap, two
/// grids; the diamond family takes its from
/// [`DiamondConfig::default_for`]. Every `team` up to 8 makes these
/// plans members of [`enumerate_family`]'s candidate set.
pub fn default_plan(family: MethodFamily, team: usize) -> Plan {
    let team = team.max(1);
    Plan::new(match family {
        MethodFamily::Parallel => Method::Parallel {
            threads: team,
            streaming_stores: false,
        },
        MethodFamily::Pipelined => Method::Pipelined(PipelineConfig::default_for(team, 1)),
        MethodFamily::Diamond => Method::Diamond(DiamondConfig::default_for(team)),
    })
}

/// Enumerate the candidate space of one family for a problem, keeping
/// only candidates that validate against `dims` and fit `team` threads.
///
/// The Parallel family enumerates plain stores only: NT stores lose on
/// every benchmark workload (`baseline.par_nt_mlups` 373–510 vs
/// `baseline.par_mlups` 792–833 MLUP/s on the DRAM-bound 288³ Jacobi6
/// they exist for; all four workloads in CHANGES.md, PR 15), and a knob
/// that never wins outside noise leaves the enumeration (ROADMAP Open
/// item 2). Explicit and cached `streaming_stores: true` plans still
/// parse, score and run; ROADMAP Open item 3 re-admits the knob once an
/// AVX / `sfence`-per-region path beats plain stores on that workload.
///
/// The pipelined family spans `T` × four block shapes × `d_u` on two
/// grids. Both long-x shapes use the whole-extent x edge, so the library
/// default is one of the candidates; the 8×8 one replaced `[32, 8, 8]`,
/// which lost to every long-x shape at every `T` (ROADMAP Open item 1:
/// 632 vs 1647–1956 MLUP/s on Jacobi6 288³). The diamond family spans
/// widths at one thread per tile.
///
/// Three kinds never won a measured cell and stay explicit plans only
/// (they parse, score and run; ROADMAP item 15): the compressed grid
/// (0.39× two-grid on Avg27 64³, 0.70× wall-clock on Jacobi6 288³; item
/// 29 may re-admit it), the wavefront shape [`PipelineConfig::wavefront`]
/// (baseline level), and `threads_per_tile > 1` (0.50–0.56× of one
/// thread per tile on private 2 MiB L2s).
pub fn enumerate_family<T: Real, Op: StencilOp<T>>(
    family: MethodFamily,
    params: &MachineParams,
    op: &Op,
    dims: Dims3,
    team: usize,
) -> Vec<Plan> {
    let team = team.max(1);
    let radius = Op::RADIUS;
    let mut plans = Vec::new();
    match family {
        MethodFamily::Parallel => {
            let mut threads: Vec<usize> = vec![1, team / 2, team];
            threads.retain(|&t| t >= 1);
            threads.sort_unstable();
            threads.dedup();
            for t in threads {
                plans.push(Plan::new(Method::Parallel {
                    threads: t,
                    streaming_stores: false,
                }));
            }
        }
        MethodFamily::Pipelined => {
            let default = PipelineConfig::default_for(team, 1);
            for updates in [1usize, 2, 4] {
                for block in [
                    [WHOLE_EXTENT, 16, 16],
                    [120, 20, 20],
                    [64, 16, 16],
                    [WHOLE_EXTENT, 8, 8],
                ] {
                    for du in [1u64, 4] {
                        plans.push(Plan::new(Method::Pipelined(PipelineConfig {
                            updates_per_thread: updates,
                            block,
                            sync: SyncMode::Relaxed { dl: 1, du, dt: 0 },
                            ..default.clone()
                        })));
                    }
                }
            }
        }
        MethodFamily::Diamond => {
            let w_cache = max_cached_width::<T, Op>(params, op, dims.nx, team);
            let mut widths = vec![4usize, 8, 16, 32, w_cache];
            widths.retain(|&w| w >= 2 * radius);
            widths.sort_unstable();
            widths.dedup();
            for width in widths {
                plans.push(Plan::new(Method::Diamond(DiamondConfig::with_width(
                    team, width,
                ))));
            }
        }
    }
    plans.retain(|p| p.validate_for(dims, radius).is_ok());
    plans
}

/// [`enumerate_family`] over every family.
pub fn enumerate_all<T: Real, Op: StencilOp<T>>(
    params: &MachineParams,
    op: &Op,
    dims: Dims3,
    team: usize,
) -> Vec<Plan> {
    MethodFamily::ALL
        .into_iter()
        .flat_map(|f| enumerate_family::<T, Op>(f, params, op, dims, team))
        .collect()
}

/// Analytic score of a plan in MLUP/s, from the `tb-model` predictions.
///
/// The structure mirrors the paper: Eq. 2 sets the streaming baseline,
/// the per-method speedup (Eq. 5, its diamond analogue) multiplies it,
/// and any candidate whose working set cannot stay in the shared cache
/// collapses to baseline speed — which is exactly what
/// lets the tuner discard it without a measurement.
pub fn predicted_mlups<T: Real, Op: StencilOp<T>>(
    params: &MachineParams,
    op: &Op,
    dims: Dims3,
    plan: &Plan,
) -> f64 {
    let radius = Op::RADIUS;
    let p0_stream = op_roofline_lups(params, op, StoreMode::Streaming);
    // One thread runs at its Ms,1 share of the socket roofline; more
    // threads scale linearly until the bus saturates.
    let parallel = |threads: usize, store| {
        let p0 = op_roofline_lups(params, op, store);
        (p0 * params.ms1 / params.ms * threads as f64).min(p0)
    };
    let lups = match &plan.method {
        Method::Sequential | Method::Blocked { .. } => parallel(1, StoreMode::Normal),
        Method::Parallel {
            threads,
            streaming_stores,
        } => parallel(
            *threads,
            if *streaming_stores {
                StoreMode::Streaming
            } else {
                StoreMode::Normal
            },
        ),
        Method::Pipelined(cfg) => {
            let speedup = pipeline_speedup(params, cfg.team_size, cfg.updates_per_thread);
            // §1.4's standing assumption: the shared cache holds the
            // (t·T)·d_u blocks in flight. The compressed scheme keeps a
            // single grid, halving the resident buffer count.
            let grids = match cfg.scheme {
                GridScheme::TwoGrid => 2.0,
                GridScheme::Compressed => 1.0,
            };
            let streams = grids + op.extra_read_streams();
            let block_cells =
                cfg.block[0].min(dims.nx) * cfg.block[1].min(dims.ny) * cfg.block[2].min(dims.nz);
            let block_bytes = streams * (block_cells * T::bytes()) as f64;
            let du = match cfg.sync {
                SyncMode::Barrier => 1.0,
                SyncMode::Relaxed { du, .. } => du as f64,
            };
            let resident =
                (cfg.team_size * cfg.updates_per_thread) as f64 * du.max(1.0) * block_bytes;
            let fits = resident <= params.cache_bytes as f64;
            p0_stream * if fits { speedup } else { 1.0 }
        }
        Method::Diamond(cfg) => {
            let w_max = max_cached_width_mwd::<T, Op>(
                params,
                op,
                dims.nx,
                cfg.threads,
                cfg.threads_per_tile,
            );
            let fits = cfg.width <= w_max;
            p0_stream
                * if fits {
                    diamond_speedup(params, cfg.width, radius)
                } else {
                    1.0
                }
        }
    };
    lups / 1.0e6
}

/// Score, prune, measure. `measure` runs one plan and returns its
/// MLUP/s; it is called for at most `min(top_k, enumerated/2)`
/// candidates — the model-ranked top of the field, with the
/// `incumbents` (in the caller's order, as far as the budget goes) each
/// guaranteed a slot by replacing the weakest-ranked pick that is not an
/// incumbent itself, so a tuned winner can never regress below a
/// default configuration without that being measured and visible.
pub fn tune<T: Real, Op: StencilOp<T>>(
    params: &MachineParams,
    op: &Op,
    dims: Dims3,
    mut candidates: Vec<Plan>,
    incumbents: &[Plan],
    cfg: &TuneConfig,
    mut measure: impl FnMut(&Plan) -> Result<f64, String>,
) -> TuneReport {
    for inc in incumbents {
        if !candidates.contains(inc) && inc.validate_for(dims, Op::RADIUS).is_ok() {
            candidates.push(inc.clone());
        }
    }
    let enumerated = candidates.len();
    let mut rows: Vec<TuneRow> = candidates
        .into_iter()
        .map(|plan| {
            let predicted_mlups = predicted_mlups(params, op, dims, &plan);
            let incumbent = incumbents.contains(&plan);
            TuneRow {
                plan,
                predicted_mlups,
                measured_mlups: None,
                incumbent,
            }
        })
        .collect();
    rows.sort_by(|a, b| {
        b.predicted_mlups
            .partial_cmp(&a.predicted_mlups)
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    // The measurement budget: top-k by prediction, capped so at least
    // half of the enumerated field is never run, incumbents in.
    let cap = (enumerated / 2).max(1);
    let k = cfg.top_k.clamp(1, cap);
    let mut picks: Vec<usize> = (0..rows.len().min(k)).collect();
    for inc in incumbents {
        let Some(i) = rows.iter().position(|r| r.plan == *inc) else {
            continue; // invalid for this problem
        };
        if picks.contains(&i) {
            continue;
        }
        if let Some(slot) = picks.iter().rposition(|&p| !rows[p].incumbent) {
            picks[slot] = i;
        }
    }

    let mut measured = 0usize;
    for i in picks {
        if let Ok(mlups) = measure(&rows[i].plan) {
            rows[i].measured_mlups = Some(mlups);
        }
        measured += 1;
    }

    // Measured rows first (best measured on top), pruned rows after,
    // still ordered by prediction.
    rows.sort_by(|a, b| match (a.measured_mlups, b.measured_mlups) {
        (Some(x), Some(y)) => y.partial_cmp(&x).unwrap_or(std::cmp::Ordering::Equal),
        (Some(_), None) => std::cmp::Ordering::Less,
        (None, Some(_)) => std::cmp::Ordering::Greater,
        (None, None) => b
            .predicted_mlups
            .partial_cmp(&a.predicted_mlups)
            .unwrap_or(std::cmp::Ordering::Equal),
    });

    TuneReport {
        rows,
        enumerated,
        measured,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_stencil::{Jacobi6, VarCoeff7};

    fn nehalem() -> MachineParams {
        MachineParams::nehalem_ep()
    }

    #[test]
    fn enumeration_spans_every_family_and_validates() {
        let p = nehalem();
        let dims = Dims3::cube(64);
        for family in MethodFamily::ALL {
            let plans = enumerate_family::<f64, _>(family, &p, &Jacobi6, dims, 4);
            assert!(!plans.is_empty(), "{family:?}");
            for plan in &plans {
                assert_eq!(plan.method.family(), family);
                plan.validate_for(dims, 1).unwrap();
                assert!(plan.method.threads() <= 4);
                // Pruned by measurement: NT stores are for explicit plans.
                assert!(!matches!(
                    plan.method,
                    Method::Parallel {
                        streaming_stores: true,
                        ..
                    }
                ));
            }
        }
        let all = enumerate_all::<f64, _>(&p, &Jacobi6, dims, 4);
        assert!(all.len() >= 25, "rich candidate space, got {}", all.len());
    }

    #[test]
    fn default_search_holds_only_kinds_that_have_won_a_cell() {
        // A team of 2: Parallel 2 (1 and 2 threads), Pipelined 24
        // (T × block × d_u, two grids) and Diamond 5 (widths, one thread
        // per tile). No compressed grid, no wavefront shape, no shared
        // tiles.
        let p = nehalem();
        for edge in [64, 288] {
            let all = enumerate_all::<f64, _>(&p, &Jacobi6, Dims3::cube(edge), 2);
            assert_eq!(all.len(), 31, "{edge}³");
            let count = |f| all.iter().filter(|c| c.method.family() == f).count();
            let counts = MethodFamily::ALL.map(count);
            assert_eq!(counts, [2, 24, 5], "{edge}³");
            for plan in &all {
                match &plan.method {
                    Method::Pipelined(cfg) => {
                        assert_eq!(cfg.scheme, GridScheme::TwoGrid, "{}", plan.label());
                        assert_ne!(*cfg, PipelineConfig::wavefront(2), "{}", plan.label());
                    }
                    Method::Diamond(cfg) => assert_eq!(cfg.threads_per_tile, 1),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn explicit_losers_still_score() {
        // Out of the search, not out of the model: an explicit compressed,
        // wavefront or shared-tile plan gets a finite positive score.
        let p = nehalem();
        let dims = Dims3::cube(64);
        let compressed = PipelineConfig {
            scheme: GridScheme::Compressed,
            ..PipelineConfig::default_for(2, 1)
        };
        for method in [
            Method::Pipelined(compressed),
            Method::Pipelined(PipelineConfig::wavefront(2)),
            Method::Diamond(DiamondConfig::with_width(2, 8).with_threads_per_tile(2)),
        ] {
            let plan = Plan::new(method);
            plan.validate_for(dims, 1).unwrap();
            let score = predicted_mlups::<f64, _>(&p, &Jacobi6, dims, &plan);
            assert!(score.is_finite() && score > 0.0, "{}", plan.label());
        }
    }

    #[test]
    fn enumeration_respects_small_grids() {
        // On a tiny grid the deep-pipeline candidates must be filtered.
        let p = nehalem();
        let plans =
            enumerate_family::<f64, _>(MethodFamily::Pipelined, &p, &Jacobi6, Dims3::cube(12), 4);
        for plan in &plans {
            plan.validate_for(Dims3::cube(12), 1).unwrap();
        }
    }

    #[test]
    fn model_demotes_uncacheable_candidates() {
        let p = nehalem();
        let dims = Dims3::cube(64);
        // A diamond too wide for the cache scores at baseline...
        let narrow = Plan::new(Method::Diamond(DiamondConfig::with_width(4, 8)));
        let huge = Plan::new(Method::Diamond(DiamondConfig::with_width(4, 1 << 14)));
        let s_narrow = predicted_mlups::<f64, _>(&p, &Jacobi6, dims, &narrow);
        let s_huge = predicted_mlups::<f64, _>(&p, &Jacobi6, dims, &huge);
        assert!(s_narrow > s_huge, "{s_narrow} vs {s_huge}");
        // ...and a cached width stays cached when sub-teams share tiles.
        let mwd = Plan::new(Method::Diamond(
            DiamondConfig::with_width(4, 8).with_threads_per_tile(4),
        ));
        assert!(predicted_mlups::<f64, _>(&p, &Jacobi6, dims, &mwd) >= s_narrow);
        // Extra read streams lower every score.
        let v: VarCoeff7<f64> = VarCoeff7::banded(dims);
        assert!(predicted_mlups::<f64, _>(&p, &v, dims, &narrow) < s_narrow);
    }

    #[test]
    fn parallel_score_saturates() {
        let p = nehalem();
        let dims = Dims3::cube(64);
        let at = |threads| {
            predicted_mlups::<f64, _>(
                &p,
                &Jacobi6,
                dims,
                &Plan::new(Method::Parallel {
                    threads,
                    streaming_stores: true,
                }),
            )
        };
        assert!(at(2) > at(1));
        assert!((at(4) - at(8)).abs() < 1e-9, "bus saturated past Ms/Ms,1");
    }

    #[test]
    fn tune_prunes_at_least_half_and_keeps_incumbent() {
        let p = nehalem();
        let dims = Dims3::cube(64);
        let candidates = enumerate_all::<f64, _>(&p, &Jacobi6, dims, 4);
        let n = candidates.len();
        let incumbent = default_plan(MethodFamily::Parallel, 4);
        let mut calls = 0usize;
        let report = tune::<f64, _>(
            &p,
            &Jacobi6,
            dims,
            candidates,
            std::slice::from_ref(&incumbent),
            &TuneConfig { top_k: 8 },
            |plan| {
                calls += 1;
                // Fake measurement: deterministic, favors a family the
                // model ranks into the budget on this machine.
                Ok(match plan.method.family() {
                    MethodFamily::Pipelined => 1000.0,
                    _ => 500.0,
                })
            },
        );
        assert_eq!(report.measured, calls);
        assert!(report.measured <= 8);
        assert!(report.pruning_ratio() <= 0.5, "{}", report.pruning_ratio());
        assert!(report.enumerated >= n);
        let inc = report.incumbent().expect("incumbent measured");
        assert_eq!(inc.plan, incumbent);
        let winner = report.winner().expect("winner");
        assert_eq!(winner.plan.method.family(), MethodFamily::Pipelined);
        assert!(winner.measured_mlups >= inc.measured_mlups);
        // Measured rows lead the ranking.
        assert!(report.rows[0].measured_mlups.is_some());
        assert!(report.rows.last().unwrap().measured_mlups.is_none());
        assert!(report.mean_model_error().is_some());
    }

    #[test]
    fn tune_survives_measurement_failures() {
        let p = nehalem();
        let dims = Dims3::cube(64);
        let candidates = enumerate_all::<f64, _>(&p, &Jacobi6, dims, 2);
        let incumbent = default_plan(MethodFamily::Parallel, 2);
        let mut n = 0usize;
        let report = tune::<f64, _>(
            &p,
            &Jacobi6,
            dims,
            candidates,
            &[incumbent],
            &TuneConfig { top_k: 4 },
            |_| {
                n += 1;
                if n == 1 {
                    Err("transient".into())
                } else {
                    Ok(100.0 + n as f64)
                }
            },
        );
        assert!(report.winner().is_some());
        assert!(report.rows.iter().any(|r| r.measured_mlups.is_none()));
    }

    #[test]
    fn incumbents_take_the_weakest_picks_inside_the_budget() {
        let p = nehalem();
        let dims = Dims3::cube(64);
        let candidates = enumerate_all::<f64, _>(&p, &Jacobi6, dims, 2);
        let n = candidates.len();
        let incumbents = [
            default_plan(MethodFamily::Parallel, 2),
            default_plan(MethodFamily::Pipelined, 2),
        ];
        // Both defaults are enumerated candidates: the field does not grow.
        assert!(incumbents.iter().all(|inc| candidates.contains(inc)));
        for top_k in [1usize, 2, 3, 8] {
            let mut run = Vec::new();
            let report = tune::<f64, _>(
                &p,
                &Jacobi6,
                dims,
                candidates.clone(),
                &incumbents,
                &TuneConfig { top_k },
                |plan| {
                    run.push(plan.clone());
                    Ok(if *plan == incumbents[1] {
                        2000.0
                    } else {
                        900.0
                    })
                },
            );
            assert_eq!((report.enumerated, report.measured), (n, top_k));
            // As many incumbents as the budget holds, first one first.
            for (i, inc) in incumbents.iter().enumerate() {
                assert_eq!(
                    run.contains(inc),
                    i < top_k,
                    "top_k {top_k}: {}",
                    inc.label()
                );
            }
            assert_eq!(report.rows.iter().filter(|r| r.incumbent).count(), 2);
            if top_k >= 2 {
                assert_eq!(report.winner().unwrap().plan, incumbents[1]);
                assert_eq!(report.incumbent().unwrap().plan, incumbents[1]);
            }
        }
    }

    #[test]
    fn default_plans_are_valid_and_shaped_for_every_team() {
        for team in [1usize, 2, 3, 4, 6, 8, 16] {
            for edge in [16usize, 64, 288] {
                let dims = Dims3::cube(edge.max(team + 2));
                for family in MethodFamily::ALL {
                    let plan = default_plan(family, team);
                    plan.validate_for(dims, 1).unwrap();
                    assert_eq!(plan.method.threads(), team);
                    // The whole-extent x edge survives the plan cache's text.
                    let text = plan.to_json().to_json();
                    let back = Plan::from_json(&crate::json::Json::parse(&text).unwrap());
                    assert_eq!(back.unwrap(), plan, "{text}");
                    // Every default (the diamond's w 16 included) is one of
                    // the tuner's candidates.
                    let members =
                        enumerate_family::<f64, _>(family, &nehalem(), &Jacobi6, dims, team);
                    assert!(members.contains(&plan), "{}", plan.label());
                    if let Some(cfg) = plan.diamond_config() {
                        assert_eq!(cfg, DiamondConfig::default_for(team));
                    }
                    let Some(cfg) = plan.pipeline_config() else {
                        continue;
                    };
                    assert!(cfg.stages() <= 8.max(team), "{}", plan.label());
                    assert_eq!(cfg.block, [WHOLE_EXTENT, 8.max(team), 8.max(team)]);
                }
                // The kinds the search leaves out keep valid explicit
                // shapes that survive the cache's text.
                let compressed = PipelineConfig {
                    scheme: GridScheme::Compressed,
                    ..PipelineConfig::default_for(team, 1)
                };
                for method in [
                    Method::Pipelined(compressed),
                    Method::Pipelined(PipelineConfig::wavefront(team)),
                ] {
                    let plan = Plan::new(method);
                    plan.validate_for(dims, 1).unwrap();
                    assert_eq!(plan.method.threads(), team);
                    let text = plan.to_json().to_json();
                    let back = Plan::from_json(&crate::json::Json::parse(&text).unwrap());
                    assert_eq!(back.unwrap(), plan, "{text}");
                }
            }
        }
    }
}
