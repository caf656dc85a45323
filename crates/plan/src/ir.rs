//! The strategy IR: [`Method`] says how a solve runs, and it is also
//! the plan the tuner enumerates, the cache persists and the facade
//! replays.
//!
//! A `Method` pins down *everything* an executor needs — the method and
//! all of its parameters (`T`, block, `d_u`, sync mode and grid scheme,
//! diamond width, MWD sub-team, team shape) — in the spirit of Patus
//! strategies: a small data program over the `auto`-tunable parameters,
//! separated from the stencil itself. Methods round-trip through JSON
//! (see [`crate::json`]) so winners can be persisted by the
//! [`crate::cache`] and replayed without re-tuning, and
//! [`Method::validate_for`] is the one check every solve passes.

use tb_grid::Dims3;
use tb_stencil::config::{GridScheme, WHOLE_EXTENT};
use tb_stencil::{DiamondConfig, PipelineConfig, SyncMode};

use crate::json::Json;

/// The three tunable method families.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MethodFamily {
    /// Thread-parallel standard sweeps (the baseline).
    Parallel,
    /// Pipelined temporal blocking, on two grids or one compressed grid.
    Pipelined,
    /// Wavefront-diamond temporal blocking (incl. MWD sub-teams).
    Diamond,
}

impl MethodFamily {
    pub const ALL: [MethodFamily; 3] = [
        MethodFamily::Parallel,
        MethodFamily::Pipelined,
        MethodFamily::Diamond,
    ];

    pub fn name(self) -> &'static str {
        match self {
            MethodFamily::Parallel => "parallel",
            MethodFamily::Pipelined => "pipelined",
            MethodFamily::Diamond => "diamond",
        }
    }
}

/// How a solve runs: one arm per executor, with all of its parameters.
#[derive(Clone, PartialEq, Debug)]
pub enum Method {
    /// Plain sequential sweeps (the verification oracle).
    Sequential,
    /// Sequential sweeps with spatial blocking.
    Blocked { block: [usize; 3] },
    /// Thread-parallel standard sweeps (the paper's baseline).
    Parallel {
        threads: usize,
        streaming_stores: bool,
    },
    /// Pipelined temporal blocking (the paper's contribution, §1.3), on
    /// two grids or on one compressed grid as `cfg.scheme` says. The
    /// wavefront comparator (the paper's ref. 2) is the shape
    /// [`PipelineConfig::wavefront`].
    Pipelined(PipelineConfig),
    /// Wavefront-diamond temporal blocking (Malas, Hager et al. 2015):
    /// diamond tiles along z × time, no wind-up/wind-down waste, one
    /// width knob instead of block sizes and sync distances.
    Diamond(DiamondConfig),
}

impl Method {
    /// The tuner's family; the sequential methods count as the
    /// one-thread end of the baseline.
    pub fn family(&self) -> MethodFamily {
        match self {
            Method::Sequential | Method::Blocked { .. } | Method::Parallel { .. } => {
                MethodFamily::Parallel
            }
            Method::Pipelined(_) => MethodFamily::Pipelined,
            Method::Diamond(_) => MethodFamily::Diamond,
        }
    }

    /// Compute workers the method occupies (0: it runs on the calling
    /// thread).
    pub fn threads(&self) -> usize {
        match self {
            Method::Sequential | Method::Blocked { .. } => 0,
            Method::Parallel { threads, .. } => *threads,
            Method::Pipelined(cfg) => cfg.threads(),
            Method::Diamond(cfg) => cfg.threads,
        }
    }

    /// The pipeline configuration of a pipelined method.
    pub fn pipeline_config(&self) -> Option<PipelineConfig> {
        match self {
            Method::Pipelined(cfg) => Some(cfg.clone()),
            _ => None,
        }
    }

    /// The diamond configuration of a diamond method.
    pub fn diamond_config(&self) -> Option<DiamondConfig> {
        match self {
            Method::Diamond(cfg) => Some(cfg.clone()),
            _ => None,
        }
    }

    /// Validate against a concrete problem (`radius` is the stencil
    /// operator's): the one gate every facade solve, cached plan and
    /// tuner candidate passes, so neither a bad argument nor a stale or
    /// hand-edited cache can start an invalid run. A grid without
    /// interior is refused by every method.
    pub fn validate_for(&self, dims: Dims3, radius: usize) -> Result<(), String> {
        match self {
            Method::Pipelined(cfg) => cfg.validate(dims),
            Method::Diamond(cfg) => cfg.validate(dims, radius),
            Method::Parallel { threads: 0, .. } => Err("plan needs at least one thread".into()),
            Method::Blocked { block } if block.contains(&0) => {
                Err("block edges must be >= 1".into())
            }
            _ if dims.nx < 3 || dims.ny < 3 || dims.nz < 3 => {
                Err(format!("grid {dims} has no interior"))
            }
            _ => Ok(()),
        }
    }

    /// Serialize to the JSON tree, as `{"method":{…}}`. The configs'
    /// debug `audit` flags are not persisted (they parse back as
    /// `false`).
    pub fn to_json(&self) -> Json {
        let kind = |k: &str| ("kind", Json::str(k));
        let method = match self {
            Method::Sequential => Json::obj(vec![kind("sequential")]),
            Method::Blocked { block } => Json::obj(vec![kind("blocked"), ("block", edges(block))]),
            Method::Parallel {
                threads,
                streaming_stores,
            } => Json::obj(vec![
                kind("parallel"),
                ("threads", Json::usize(*threads)),
                ("streaming_stores", Json::Bool(*streaming_stores)),
            ]),
            Method::Pipelined(cfg) => pipe_json(cfg),
            Method::Diamond(cfg) => Json::obj(vec![
                kind("diamond"),
                ("threads", Json::usize(cfg.threads)),
                ("width", Json::usize(cfg.width)),
                ("threads_per_tile", Json::usize(cfg.threads_per_tile)),
            ]),
        };
        Json::obj(vec![("method", method)])
    }

    /// Parse a method back out of the JSON tree. Unknown keys are
    /// ignored, so entries written when plans still carried an
    /// `"exchange"` mode or a `"simd"` switch keep loading, and a
    /// `"wavefront"` entry parses to the pipelined shape
    /// [`PipelineConfig::wavefront`].
    pub fn from_json(v: &Json) -> Result<Method, String> {
        let m = v.get("method").ok_or("plan: missing method")?;
        let kind = m
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("plan: missing method.kind")?;
        let field = |k: &str| {
            m.get(k)
                .and_then(Json::as_usize)
                .ok_or_else(|| format!("plan: missing {k}"))
        };
        Ok(match kind {
            "sequential" => Method::Sequential,
            "blocked" => Method::Blocked {
                block: edges_from_json(m)?,
            },
            "parallel" => Method::Parallel {
                threads: field("threads")?,
                streaming_stores: m
                    .get("streaming_stores")
                    .and_then(Json::as_bool)
                    .unwrap_or(false),
            },
            "pipelined" => Method::Pipelined(pipe_from_json(m, GridScheme::TwoGrid)?),
            "compressed" => Method::Pipelined(pipe_from_json(m, GridScheme::Compressed)?),
            "wavefront" => Method::Pipelined(PipelineConfig::wavefront(field("threads")?)),
            "diamond" => Method::Diamond(
                DiamondConfig::with_width(field("threads")?, field("width")?)
                    .with_threads_per_tile(field("threads_per_tile").unwrap_or(1)),
            ),
            other => return Err(format!("plan: unknown method kind {other:?}")),
        })
    }

    /// One-line human-readable description for reports and logs.
    pub fn label(&self) -> String {
        match self {
            Method::Sequential => "sequential".to_string(),
            Method::Blocked { block } => format!("blocked block={block:?}"),
            Method::Parallel {
                threads,
                streaming_stores,
            } => format!(
                "parallel threads={threads}{}",
                if *streaming_stores { " nt" } else { "" }
            ),
            Method::Pipelined(cfg) => pipe_label(cfg),
            Method::Diamond(cfg) => format!(
                "diamond threads={} w={} tpt={}",
                cfg.threads, cfg.width, cfg.threads_per_tile
            ),
        }
    }
}

/// The JSON `kind` of a pipelined method: its grid scheme.
fn pipe_kind(cfg: &PipelineConfig) -> &'static str {
    match cfg.scheme {
        GridScheme::TwoGrid => "pipelined",
        GridScheme::Compressed => "compressed",
    }
}

fn pipe_label(cfg: &PipelineConfig) -> String {
    let sync = match cfg.sync {
        SyncMode::Barrier => "barrier".to_string(),
        SyncMode::Relaxed { dl, du, dt } => format!("dl={dl},du={du},dt={dt}"),
    };
    // A whole-extent x edge reads as what it means, not as 1048576.
    let edge = |b: usize| match b {
        WHOLE_EXTENT.. => "all".to_string(),
        _ => b.to_string(),
    };
    let [bx, by, bz] = cfg.block.map(edge);
    format!(
        "{} t={} n={} T={} block=[{bx}, {by}, {bz}] {sync}",
        pipe_kind(cfg),
        cfg.team_size,
        cfg.n_teams,
        cfg.updates_per_thread
    )
}

fn edges(block: &[usize; 3]) -> Json {
    Json::Arr(block.iter().map(|&b| Json::usize(b)).collect())
}

fn edges_from_json(m: &Json) -> Result<[usize; 3], String> {
    let arr = m
        .get("block")
        .and_then(Json::as_arr)
        .ok_or("plan: missing block")?;
    if arr.len() != 3 {
        return Err("plan: block must have 3 edges".into());
    }
    let mut block = [0usize; 3];
    for (slot, v) in block.iter_mut().zip(arr) {
        *slot = v.as_usize().ok_or("plan: bad block edge")?;
    }
    Ok(block)
}

fn pipe_json(cfg: &PipelineConfig) -> Json {
    let sync = match cfg.sync {
        SyncMode::Barrier => Json::obj(vec![("mode", Json::str("barrier"))]),
        SyncMode::Relaxed { dl, du, dt } => Json::obj(vec![
            ("mode", Json::str("relaxed")),
            ("dl", Json::num(dl as f64)),
            ("du", Json::num(du as f64)),
            ("dt", Json::num(dt as f64)),
        ]),
    };
    Json::obj(vec![
        ("kind", Json::str(pipe_kind(cfg))),
        ("team_size", Json::usize(cfg.team_size)),
        ("n_teams", Json::usize(cfg.n_teams)),
        ("updates_per_thread", Json::usize(cfg.updates_per_thread)),
        ("block", edges(&cfg.block)),
        ("sync", sync),
    ])
}

fn pipe_from_json(m: &Json, scheme: GridScheme) -> Result<PipelineConfig, String> {
    let field = |k: &str| {
        m.get(k)
            .and_then(Json::as_usize)
            .ok_or_else(|| format!("plan: missing {k}"))
    };
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
    Ok(PipelineConfig {
        team_size: field("team_size")?,
        n_teams: field("n_teams")?,
        updates_per_thread: field("updates_per_thread")?,
        block: edges_from_json(m)?,
        sync,
        scheme,
        audit: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_plans() -> Vec<Method> {
        let pipe = PipelineConfig {
            team_size: 4,
            n_teams: 2,
            updates_per_thread: 2,
            block: [120, 20, 20],
            sync: SyncMode::Relaxed {
                dl: 1,
                du: 4,
                dt: 8,
            },
            scheme: GridScheme::TwoGrid,
            audit: false,
        };
        let barrier = PipelineConfig {
            sync: SyncMode::Barrier,
            ..pipe.clone()
        };
        let compressed = PipelineConfig {
            scheme: GridScheme::Compressed,
            ..pipe.clone()
        };
        let mut plans = vec![
            Method::Parallel {
                threads: 8,
                streaming_stores: true,
            },
            Method::Pipelined(pipe),
            Method::Pipelined(barrier),
            Method::Pipelined(compressed),
            Method::Pipelined(PipelineConfig::wavefront(4)),
            Method::Diamond(DiamondConfig::with_width(4, 16).with_threads_per_tile(2)),
            Method::Diamond(DiamondConfig::with_width(4, 8)),
        ];
        plans.push(Method::Sequential);
        plans.push(Method::Blocked { block: [16, 8, 8] });
        plans
    }

    #[test]
    fn json_roundtrip_every_variant() {
        for plan in sample_plans() {
            let text = plan.to_json().to_json();
            let back = Method::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, plan, "{text}");
        }
        let blocked = sample_plans()[8].to_json().to_json();
        assert_eq!(blocked, r#"{"method":{"kind":"blocked","block":[16,8,8]}}"#);
    }

    #[test]
    fn retired_simd_switch_and_wavefront_kind_still_parse() {
        let parse = |text: &str| Method::from_json(&Json::parse(text).unwrap()).unwrap();
        let diamond = r#"{"method":{"kind":"diamond","threads":2,"width":8,"threads_per_tile":1}"#;
        for simd in [r#","simd":false}"#, r#","simd":true}"#, "}"] {
            let plan = parse(&format!("{diamond}{simd}"));
            assert_eq!(plan, Method::Diamond(DiamondConfig::with_width(2, 8)));
        }
        let plan = parse(r#"{"method":{"kind":"wavefront","threads":3},"simd":false}"#);
        assert_eq!(plan, Method::Pipelined(PipelineConfig::wavefront(3)));
        assert_eq!(
            (plan.family(), plan.threads()),
            (MethodFamily::Pipelined, 3)
        );
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
        let p = Method::Diamond(DiamondConfig::with_width(2, 2));
        assert!(p.validate_for(Dims3::cube(20), 2).is_err());
        assert!(p.validate_for(Dims3::cube(20), 1).is_ok());
        let z = Method::Parallel {
            threads: 0,
            streaming_stores: false,
        };
        assert!(z.validate_for(Dims3::cube(20), 1).is_err());
        assert!(plans[7].validate_for(Dims3::cube(20), 1).is_ok());
        // No interior: every method refuses, whatever its family.
        for plan in &plans {
            for dims in [Dims3::new(2, 20, 20), Dims3::new(20, 20, 2)] {
                assert!(plan.validate_for(dims, 1).is_err(), "{}", plan.label());
            }
        }
        let flat = Method::Blocked { block: [8, 0, 8] };
        assert!(flat.validate_for(Dims3::cube(20), 1).is_err());
    }

    #[test]
    fn family_and_threads() {
        let plans = sample_plans();
        assert_eq!(plans[0].family().name(), "parallel");
        assert_eq!(plans[0].threads(), 8);
        assert_eq!(plans[1].threads(), 8); // 4 x 2 teams
        assert_eq!(plans[3].family(), MethodFamily::Pipelined);
        assert_eq!(plans[4].threads(), 4);
        assert_eq!(plans[5].family(), MethodFamily::Diamond);
        assert_eq!(plans[7].family(), MethodFamily::Parallel);
        assert_eq!(plans[8].threads(), 0, "runs on the calling thread");
        assert_eq!(MethodFamily::ALL.len(), 3);
    }

    #[test]
    fn labels_are_informative() {
        let plans = sample_plans();
        assert!(plans[1].label().contains("T=2 block=[120, 20, 20]"));
        assert!(plans[3].label().starts_with("compressed t=4"));
        let default = crate::default_plan(MethodFamily::Pipelined, 2);
        assert!(default.label().contains("T=4 block=[all, 8, 8]"));
        assert!(plans[4].label().contains("t=4 n=1 T=1 block=[all, all, 4]"));
    }
}
