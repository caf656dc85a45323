//! The strategy IR: a serializable execution [`Plan`].
//!
//! A `Plan` pins down *everything* the facade needs to reproduce a
//! solver run — the method and all of its parameters (`T`, block, `d_u`,
//! sync mode, diamond width, MWD sub-team, team shape) and the SIMD
//! path — in the spirit of Patus strategies: a small data program over
//! the `auto`-tunable parameters, separated from the stencil itself.
//! Plans round-trip through JSON
//! (see [`crate::json`]) so winners can be persisted by the
//! [`crate::cache`] and replayed without re-tuning.

use tb_grid::Dims3;
use tb_stencil::config::{GridScheme, WHOLE_EXTENT};
use tb_stencil::{DiamondConfig, PipelineConfig, SyncMode};

use crate::json::Json;

/// The five tunable method families.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MethodFamily {
    /// Thread-parallel standard sweeps (the baseline).
    Parallel,
    /// Pipelined temporal blocking on two grids.
    Pipelined,
    /// Pipelined temporal blocking on a compressed grid.
    Compressed,
    /// Wavefront temporal blocking.
    Wavefront,
    /// Wavefront-diamond temporal blocking (incl. MWD sub-teams).
    Diamond,
}

impl MethodFamily {
    pub const ALL: [MethodFamily; 5] = [
        MethodFamily::Parallel,
        MethodFamily::Pipelined,
        MethodFamily::Compressed,
        MethodFamily::Wavefront,
        MethodFamily::Diamond,
    ];

    pub fn name(self) -> &'static str {
        match self {
            MethodFamily::Parallel => "parallel",
            MethodFamily::Pipelined => "pipelined",
            MethodFamily::Compressed => "compressed",
            MethodFamily::Wavefront => "wavefront",
            MethodFamily::Diamond => "diamond",
        }
    }
}

/// Parameters of a pipelined run (shared by the two-grid and compressed
/// schemes): the paper's `t`, `n`, `T`, block edges, and sync mode.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PipeParams {
    pub team_size: usize,
    pub n_teams: usize,
    pub updates_per_thread: usize,
    pub block: [usize; 3],
    pub sync: SyncMode,
}

/// Method plus parameters — one arm per executor the facade exposes.
#[derive(Clone, PartialEq, Debug)]
pub enum PlanMethod {
    Parallel {
        threads: usize,
        streaming_stores: bool,
    },
    Pipelined(PipeParams),
    Compressed(PipeParams),
    Wavefront {
        threads: usize,
    },
    Diamond {
        threads: usize,
        width: usize,
        threads_per_tile: usize,
    },
}

impl PlanMethod {
    pub fn family(&self) -> MethodFamily {
        match self {
            PlanMethod::Parallel { .. } => MethodFamily::Parallel,
            PlanMethod::Pipelined(_) => MethodFamily::Pipelined,
            PlanMethod::Compressed(_) => MethodFamily::Compressed,
            PlanMethod::Wavefront { .. } => MethodFamily::Wavefront,
            PlanMethod::Diamond { .. } => MethodFamily::Diamond,
        }
    }

    /// Compute threads the method occupies.
    pub fn threads(&self) -> usize {
        match self {
            PlanMethod::Parallel { threads, .. } | PlanMethod::Wavefront { threads } => *threads,
            PlanMethod::Pipelined(p) | PlanMethod::Compressed(p) => p.team_size * p.n_teams,
            PlanMethod::Diamond { threads, .. } => *threads,
        }
    }
}

/// One reified execution plan.
#[derive(Clone, PartialEq, Debug)]
pub struct Plan {
    pub method: PlanMethod,
    /// Run the row loops widened to the host's vector ISA (`true`) or
    /// pinned to the build target's (`ScalarPath`). Bitwise-identical
    /// either way; throughput differs.
    pub simd: bool,
}

impl Plan {
    /// Plan for a method with the library defaults for the rest.
    pub fn new(method: PlanMethod) -> Self {
        Plan { method, simd: true }
    }

    /// The pipeline configuration this plan encodes, when its method is
    /// one of the two pipelined families.
    pub fn pipeline_config(&self) -> Option<PipelineConfig> {
        let (p, scheme) = match &self.method {
            PlanMethod::Pipelined(p) => (p, GridScheme::TwoGrid),
            PlanMethod::Compressed(p) => (p, GridScheme::Compressed),
            _ => return None,
        };
        Some(PipelineConfig {
            team_size: p.team_size,
            n_teams: p.n_teams,
            updates_per_thread: p.updates_per_thread,
            block: p.block,
            sync: p.sync,
            scheme,
            layout: None,
            audit: false,
        })
    }

    /// The diamond configuration this plan encodes, if any.
    pub fn diamond_config(&self) -> Option<DiamondConfig> {
        match self.method {
            PlanMethod::Diamond {
                threads,
                width,
                threads_per_tile,
            } => Some(
                DiamondConfig::with_width(threads, width).with_threads_per_tile(threads_per_tile),
            ),
            _ => None,
        }
    }

    /// Re-validate against a concrete problem (`radius` is the stencil
    /// operator's). Every cached plan passes through this before use so
    /// a stale or hand-edited cache can never produce an invalid run.
    pub fn validate_for(&self, dims: Dims3, radius: usize) -> Result<(), String> {
        match &self.method {
            PlanMethod::Parallel { threads, .. } | PlanMethod::Wavefront { threads } => {
                if *threads == 0 {
                    return Err("plan needs at least one thread".into());
                }
                if dims.nx < 3 || dims.ny < 3 || dims.nz < 3 {
                    return Err(format!("grid {dims} has no interior"));
                }
                Ok(())
            }
            PlanMethod::Pipelined(_) | PlanMethod::Compressed(_) => {
                self.pipeline_config().unwrap().validate(dims)
            }
            PlanMethod::Diamond { .. } => self.diamond_config().unwrap().validate(dims, radius),
        }
    }

    /// Serialize to the JSON tree.
    pub fn to_json(&self) -> Json {
        let method = match &self.method {
            PlanMethod::Parallel {
                threads,
                streaming_stores,
            } => Json::obj(vec![
                ("kind", Json::str("parallel")),
                ("threads", Json::usize(*threads)),
                ("streaming_stores", Json::Bool(*streaming_stores)),
            ]),
            PlanMethod::Pipelined(p) => pipe_json("pipelined", p),
            PlanMethod::Compressed(p) => pipe_json("compressed", p),
            PlanMethod::Wavefront { threads } => Json::obj(vec![
                ("kind", Json::str("wavefront")),
                ("threads", Json::usize(*threads)),
            ]),
            PlanMethod::Diamond {
                threads,
                width,
                threads_per_tile,
            } => Json::obj(vec![
                ("kind", Json::str("diamond")),
                ("threads", Json::usize(*threads)),
                ("width", Json::usize(*width)),
                ("threads_per_tile", Json::usize(*threads_per_tile)),
            ]),
        };
        Json::obj(vec![("method", method), ("simd", Json::Bool(self.simd))])
    }

    /// Parse a plan back out of the JSON tree. Unknown keys are ignored,
    /// so entries written when plans still carried an `"exchange"` mode
    /// keep loading.
    pub fn from_json(v: &Json) -> Result<Plan, String> {
        let m = v.get("method").ok_or("plan: missing method")?;
        let kind = m
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("plan: missing method.kind")?;
        let threads = |j: &Json| {
            j.get("threads")
                .and_then(Json::as_usize)
                .ok_or_else(|| "plan: missing threads".to_string())
        };
        let method = match kind {
            "parallel" => PlanMethod::Parallel {
                threads: threads(m)?,
                streaming_stores: m
                    .get("streaming_stores")
                    .and_then(Json::as_bool)
                    .unwrap_or(false),
            },
            "pipelined" => PlanMethod::Pipelined(pipe_from_json(m)?),
            "compressed" => PlanMethod::Compressed(pipe_from_json(m)?),
            "wavefront" => PlanMethod::Wavefront {
                threads: threads(m)?,
            },
            "diamond" => PlanMethod::Diamond {
                threads: threads(m)?,
                width: m
                    .get("width")
                    .and_then(Json::as_usize)
                    .ok_or("plan: missing width")?,
                threads_per_tile: m
                    .get("threads_per_tile")
                    .and_then(Json::as_usize)
                    .unwrap_or(1),
            },
            other => return Err(format!("plan: unknown method kind {other:?}")),
        };
        Ok(Plan {
            method,
            simd: v.get("simd").and_then(Json::as_bool).unwrap_or(true),
        })
    }

    /// One-line human-readable description for reports and logs.
    pub fn label(&self) -> String {
        let base = match &self.method {
            PlanMethod::Parallel {
                threads,
                streaming_stores,
            } => format!(
                "parallel threads={threads}{}",
                if *streaming_stores { " nt" } else { "" }
            ),
            PlanMethod::Pipelined(p) => pipe_label("pipelined", p),
            PlanMethod::Compressed(p) => pipe_label("compressed", p),
            PlanMethod::Wavefront { threads } => format!("wavefront threads={threads}"),
            PlanMethod::Diamond {
                threads,
                width,
                threads_per_tile,
            } => format!("diamond threads={threads} w={width} tpt={threads_per_tile}"),
        };
        if self.simd {
            base
        } else {
            format!("{base} simd=off")
        }
    }
}

fn pipe_label(kind: &str, p: &PipeParams) -> String {
    let sync = match p.sync {
        SyncMode::Barrier => "barrier".to_string(),
        SyncMode::Relaxed { dl, du, dt } => format!("dl={dl},du={du},dt={dt}"),
    };
    // A whole-extent x edge reads as what it means, not as 1048576.
    let edge = |b: usize| match b {
        WHOLE_EXTENT.. => "all".to_string(),
        _ => b.to_string(),
    };
    let [bx, by, bz] = p.block.map(edge);
    format!(
        "{kind} t={} n={} T={} block=[{bx}, {by}, {bz}] {sync}",
        p.team_size, p.n_teams, p.updates_per_thread
    )
}

fn pipe_json(kind: &str, p: &PipeParams) -> Json {
    let sync = match p.sync {
        SyncMode::Barrier => Json::obj(vec![("mode", Json::str("barrier"))]),
        SyncMode::Relaxed { dl, du, dt } => Json::obj(vec![
            ("mode", Json::str("relaxed")),
            ("dl", Json::num(dl as f64)),
            ("du", Json::num(du as f64)),
            ("dt", Json::num(dt as f64)),
        ]),
    };
    Json::obj(vec![
        ("kind", Json::str(kind)),
        ("team_size", Json::usize(p.team_size)),
        ("n_teams", Json::usize(p.n_teams)),
        ("updates_per_thread", Json::usize(p.updates_per_thread)),
        (
            "block",
            Json::Arr(p.block.iter().map(|&b| Json::usize(b)).collect()),
        ),
        ("sync", sync),
    ])
}

fn pipe_from_json(m: &Json) -> Result<PipeParams, String> {
    let field = |k: &str| {
        m.get(k)
            .and_then(Json::as_usize)
            .ok_or_else(|| format!("plan: missing {k}"))
    };
    let block_arr = m
        .get("block")
        .and_then(Json::as_arr)
        .ok_or("plan: missing block")?;
    if block_arr.len() != 3 {
        return Err("plan: block must have 3 edges".into());
    }
    let mut block = [0usize; 3];
    for (slot, v) in block.iter_mut().zip(block_arr) {
        *slot = v.as_usize().ok_or("plan: bad block edge")?;
    }
    let sync = match m.get("sync") {
        None => SyncMode::relaxed_default(),
        Some(s) => match s.get("mode").and_then(Json::as_str) {
            Some("barrier") => SyncMode::Barrier,
            Some("relaxed") => SyncMode::Relaxed {
                dl: s.get("dl").and_then(Json::as_u64).unwrap_or(1),
                du: s.get("du").and_then(Json::as_u64).unwrap_or(4),
                dt: s.get("dt").and_then(Json::as_u64).unwrap_or(0),
            },
            other => return Err(format!("plan: unknown sync mode {other:?}")),
        },
    };
    Ok(PipeParams {
        team_size: field("team_size")?,
        n_teams: field("n_teams")?,
        updates_per_thread: field("updates_per_thread")?,
        block,
        sync,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_plans() -> Vec<Plan> {
        let pipe = PipeParams {
            team_size: 4,
            n_teams: 2,
            updates_per_thread: 2,
            block: [120, 20, 20],
            sync: SyncMode::Relaxed {
                dl: 1,
                du: 4,
                dt: 8,
            },
        };
        let barrier = PipeParams {
            sync: SyncMode::Barrier,
            ..pipe.clone()
        };
        let mut plans = vec![
            Plan::new(PlanMethod::Parallel {
                threads: 8,
                streaming_stores: true,
            }),
            Plan::new(PlanMethod::Pipelined(pipe.clone())),
            Plan::new(PlanMethod::Pipelined(barrier)),
            Plan::new(PlanMethod::Compressed(pipe)),
            Plan::new(PlanMethod::Wavefront { threads: 4 }),
            Plan::new(PlanMethod::Diamond {
                threads: 4,
                width: 16,
                threads_per_tile: 2,
            }),
        ];
        plans.push(Plan {
            simd: false,
            ..plans[5].clone()
        });
        plans
    }

    #[test]
    fn json_roundtrip_every_variant() {
        for plan in sample_plans() {
            let text = plan.to_json().to_json();
            let back = Plan::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, plan, "{text}");
        }
    }

    #[test]
    fn configs_reconstruct() {
        let plans = sample_plans();
        let cfg = plans[1].pipeline_config().unwrap();
        assert_eq!(cfg.scheme, GridScheme::TwoGrid);
        assert_eq!(cfg.stages(), 16);
        let cfg = plans[3].pipeline_config().unwrap();
        assert_eq!(cfg.scheme, GridScheme::Compressed);
        let dia = plans[5].diamond_config().unwrap();
        assert_eq!((dia.threads, dia.width, dia.threads_per_tile), (4, 16, 2));
        assert!(plans[0].pipeline_config().is_none());
        assert!(plans[0].diamond_config().is_none());
    }

    #[test]
    fn validate_rejects_bad_geometry() {
        let plans = sample_plans();
        // 16-stage pipeline cannot fit a 10^3 grid.
        assert!(plans[1].validate_for(Dims3::cube(10), 1).is_err());
        assert!(plans[1].validate_for(Dims3::cube(64), 1).is_ok());
        // Diamond width below 2R is rejected by the diamond validator.
        let p = Plan::new(PlanMethod::Diamond {
            threads: 2,
            width: 2,
            threads_per_tile: 1,
        });
        assert!(p.validate_for(Dims3::cube(20), 2).is_err());
        assert!(p.validate_for(Dims3::cube(20), 1).is_ok());
        let z = Plan::new(PlanMethod::Parallel {
            threads: 0,
            streaming_stores: false,
        });
        assert!(z.validate_for(Dims3::cube(20), 1).is_err());
    }

    #[test]
    fn family_and_threads() {
        let plans = sample_plans();
        assert_eq!(plans[0].method.family().name(), "parallel");
        assert_eq!(plans[0].method.threads(), 8);
        assert_eq!(plans[1].method.threads(), 8); // 4 x 2 teams
        assert_eq!(plans[5].method.family(), MethodFamily::Diamond);
        assert_eq!(MethodFamily::ALL.len(), 5);
    }

    #[test]
    fn labels_are_informative() {
        let plans = sample_plans();
        assert!(plans[1].label().contains("T=2 block=[120, 20, 20]"));
        let default = crate::default_plan(MethodFamily::Pipelined, 2);
        assert!(default.label().contains("T=4 block=[all, 8, 8]"));
        assert!(plans[6].label().contains("simd=off"));
    }
}
