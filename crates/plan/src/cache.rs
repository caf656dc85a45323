//! The persistent plan cache.
//!
//! A versioned JSON store of tuning winners plus the membench
//! calibrations that fingerprinted them. A warm lookup costs *no*
//! measurement of any kind: the calibration section replays
//! `MachineParams` for a known topology signature (so the fingerprint
//! can be rebuilt without running membench), and the plan section
//! replays the winning [`Plan`] for a [`PlanKey`]. Entries from an
//! older schema, with corrupt JSON, or whose recorded dims disagree
//! with the request are rejected — the caller then re-tunes and the
//! store heals itself on the next save.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use tb_grid::Dims3;
use tb_model::MachineParams;
use tb_runtime::sync::lock;

use crate::ir::Plan;
use crate::json::Json;
use crate::key::PlanKey;

/// On-disk schema version. Bump on any incompatible layout change; old
/// files are then treated as empty (re-tuned, rewritten), never
/// misread.
pub const SCHEMA_VERSION: u64 = 1;

/// One persisted tuning winner.
#[derive(Clone, Debug, PartialEq)]
pub struct CacheEntry {
    pub plan: Plan,
    /// Problem dims the plan was tuned for (redundant with the key, but
    /// cross-checked on lookup so a hand-edited file cannot smuggle a
    /// plan onto the wrong problem).
    pub dims: [usize; 3],
    /// Measured MLUP/s of the winner at tune time.
    pub measured_mlups: f64,
    /// Model prediction for the winner at tune time.
    pub predicted_mlups: f64,
}

impl CacheEntry {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("plan", self.plan.to_json()),
            (
                "dims",
                Json::Arr(self.dims.iter().map(|&d| Json::usize(d)).collect()),
            ),
            ("measured_mlups", Json::num(self.measured_mlups)),
            ("predicted_mlups", Json::num(self.predicted_mlups)),
        ])
    }

    fn from_json(v: &Json) -> Result<CacheEntry, String> {
        let plan = Plan::from_json(v.get("plan").ok_or("entry: missing plan")?)?;
        let dims_arr = v
            .get("dims")
            .and_then(Json::as_arr)
            .ok_or("entry: missing dims")?;
        if dims_arr.len() != 3 {
            return Err("entry: dims must have 3 axes".into());
        }
        let mut dims = [0usize; 3];
        for (slot, d) in dims.iter_mut().zip(dims_arr) {
            *slot = d.as_usize().ok_or("entry: bad dim")?;
        }
        Ok(CacheEntry {
            plan,
            dims,
            measured_mlups: v
                .get("measured_mlups")
                .and_then(Json::as_f64)
                .ok_or("entry: missing measured_mlups")?,
            predicted_mlups: v
                .get("predicted_mlups")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
        })
    }
}

fn params_to_json(p: &MachineParams) -> Json {
    Json::obj(vec![
        ("ms", Json::num(p.ms)),
        ("ms1", Json::num(p.ms1)),
        ("mc", Json::num(p.mc)),
        ("cores_per_socket", Json::usize(p.cores_per_socket)),
        ("sockets", Json::usize(p.sockets)),
        ("cache_bytes", Json::usize(p.cache_bytes)),
    ])
}

fn params_from_json(v: &Json) -> Result<MachineParams, String> {
    let f = |k: &str| {
        v.get(k)
            .and_then(Json::as_f64)
            .filter(|x| *x > 0.0)
            .ok_or_else(|| format!("calibration: missing {k}"))
    };
    let u = |k: &str| {
        v.get(k)
            .and_then(Json::as_usize)
            .filter(|x| *x > 0)
            .ok_or_else(|| format!("calibration: missing {k}"))
    };
    Ok(MachineParams {
        ms: f("ms")?,
        ms1: f("ms1")?,
        mc: f("mc")?,
        cores_per_socket: u("cores_per_socket")?,
        sockets: u("sockets")?,
        cache_bytes: u("cache_bytes")?,
    })
}

/// The store: plans keyed by [`PlanKey::as_string`], calibrations keyed
/// by topology signature. Load-modify-save; insertion order is kept so
/// the file diffs cleanly.
#[derive(Clone, Debug, Default)]
pub struct PlanCache {
    path: Option<PathBuf>,
    plans: Vec<(String, CacheEntry)>,
    calibrations: Vec<(String, MachineParams)>,
}

impl PlanCache {
    /// A cache with no backing file — [`save`](Self::save) is a no-op.
    pub fn in_memory() -> PlanCache {
        PlanCache::default()
    }

    /// Default cache file: `$TB_PLAN_CACHE` if set, else
    /// `$XDG_CACHE_HOME/temporal-blocking/plans.json`, else
    /// `$HOME/.cache/temporal-blocking/plans.json`, else a relative
    /// `.tb-plan-cache.json` as a last resort.
    pub fn default_path() -> PathBuf {
        if let Ok(p) = std::env::var("TB_PLAN_CACHE") {
            if !p.is_empty() {
                return PathBuf::from(p);
            }
        }
        let base = std::env::var("XDG_CACHE_HOME")
            .ok()
            .filter(|p| !p.is_empty())
            .map(PathBuf::from)
            .or_else(|| {
                std::env::var("HOME")
                    .ok()
                    .filter(|p| !p.is_empty())
                    .map(|h| PathBuf::from(h).join(".cache"))
            });
        match base {
            Some(dir) => dir.join("temporal-blocking").join("plans.json"),
            None => PathBuf::from(".tb-plan-cache.json"),
        }
    }

    /// Load from `path`. A missing file yields an empty cache bound to
    /// that path; a corrupt file or a stale schema yields an empty cache
    /// too (the old contents are discarded on the next save — plans from
    /// an incompatible schema are never trusted).
    pub fn load(path: impl Into<PathBuf>) -> PlanCache {
        let path = path.into();
        let mut cache = PlanCache {
            path: Some(path.clone()),
            ..PlanCache::default()
        };
        let Ok(text) = std::fs::read_to_string(&path) else {
            return cache;
        };
        let Ok(root) = Json::parse(&text) else {
            return cache;
        };
        if root.get("schema").and_then(Json::as_u64) != Some(SCHEMA_VERSION) {
            return cache;
        }
        if let Some(pairs) = root.get("calibrations").and_then(Json::as_obj) {
            for (sig, v) in pairs {
                if let Ok(params) = params_from_json(v) {
                    cache.calibrations.push((sig.clone(), params));
                }
            }
        }
        if let Some(pairs) = root.get("plans").and_then(Json::as_obj) {
            for (key, v) in pairs {
                if let Ok(entry) = CacheEntry::from_json(v) {
                    cache.plans.push((key.clone(), entry));
                }
            }
        }
        cache
    }

    /// Load from [`default_path`](Self::default_path).
    pub fn load_default() -> PlanCache {
        PlanCache::load(PlanCache::default_path())
    }

    /// The backing file, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Stored calibration for a topology signature.
    pub fn calibration(&self, topology: &str) -> Option<MachineParams> {
        self.calibrations
            .iter()
            .find(|(sig, _)| sig == topology)
            .map(|(_, p)| *p)
    }

    /// Insert or replace the calibration for a topology signature.
    pub fn store_calibration(&mut self, topology: &str, params: MachineParams) {
        match self
            .calibrations
            .iter_mut()
            .find(|(sig, _)| sig == topology)
        {
            Some((_, slot)) => *slot = params,
            None => self.calibrations.push((topology.to_string(), params)),
        }
    }

    /// A warm hit: the stored winner for `key`, provided its recorded
    /// dims match the request *and* the plan still validates against
    /// them. Anything stale returns `None` — the caller re-tunes.
    pub fn lookup(&self, key: &PlanKey, dims: Dims3, radius: usize) -> Option<&CacheEntry> {
        let k = key.as_string();
        let (_, entry) = self.plans.iter().find(|(s, _)| *s == k)?;
        if entry.dims != [dims.nx, dims.ny, dims.nz] {
            return None;
        }
        entry.plan.validate_for(dims, radius).ok()?;
        Some(entry)
    }

    /// Insert or replace the winner for `key`.
    pub fn store(&mut self, key: &PlanKey, entry: CacheEntry) {
        let k = key.as_string();
        match self.plans.iter_mut().find(|(s, _)| *s == k) {
            Some((_, slot)) => *slot = entry,
            None => self.plans.push((k, entry)),
        }
    }

    /// Drop the entry for `key` (e.g. to force a re-tune).
    pub fn evict(&mut self, key: &PlanKey) {
        let k = key.as_string();
        self.plans.retain(|(s, _)| *s != k);
    }

    pub fn len(&self) -> usize {
        self.plans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::usize(SCHEMA_VERSION as usize)),
            (
                "calibrations",
                Json::Obj(
                    self.calibrations
                        .iter()
                        .map(|(sig, p)| (sig.clone(), params_to_json(p)))
                        .collect(),
                ),
            ),
            (
                "plans",
                Json::Obj(
                    self.plans
                        .iter()
                        .map(|(k, e)| (k.clone(), e.to_json()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Persist to the backing file (creating parent directories), via a
    /// temp file + rename so a crashed writer never leaves a torn cache.
    /// No-op for in-memory caches.
    pub fn save(&self) -> io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, self.to_json().to_json())?;
        std::fs::rename(&tmp, path)
    }
}

/// One in-process store per cache file, shared by every thread.
///
/// [`PlanCache`]'s plain load-modify-save flow is single-writer: two
/// scheduler workers tuning the same key concurrently would each load
/// the file, tune, and save — the slower writer silently dropping the
/// faster one's entry, and the shared `path.json.tmp` staging file
/// racing the rename. [`SharedPlanCache`] fixes both by interning one
/// shared store per (absolutized) path in a process-global registry:
/// every open of the same file yields the same store, all mutations and
/// saves serialize on its lock, and a winner stored by one thread is
/// immediately visible to every other thread *without* a reload.
///
/// External edits are still honored: the store remembers the file's
/// (mtime, length) at its last load/save and reloads before any access
/// when they changed — hand-edited plans, cleared files, and schema
/// bumps take effect in a long-lived server process, not just at the
/// next restart. Cross-*process* writers otherwise race at the file
/// level (last atomic rename wins, never a torn file).
#[derive(Clone)]
pub struct SharedPlanCache {
    inner: Arc<Mutex<SharedState>>,
}

struct SharedState {
    cache: PlanCache,
    /// (mtime, len) of the backing file as of the last load or save;
    /// `None` when the file did not exist.
    disk: Option<(std::time::SystemTime, u64)>,
}

fn disk_state(path: Option<&Path>) -> Option<(std::time::SystemTime, u64)> {
    let meta = std::fs::metadata(path?).ok()?;
    Some((meta.modified().ok()?, meta.len()))
}

impl SharedState {
    fn load(path: PathBuf) -> SharedState {
        let cache = PlanCache::load(path);
        let disk = disk_state(cache.path());
        SharedState { cache, disk }
    }
}

fn registry() -> &'static Mutex<HashMap<PathBuf, Arc<Mutex<SharedState>>>> {
    static REGISTRY: OnceLock<Mutex<HashMap<PathBuf, Arc<Mutex<SharedState>>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

impl SharedPlanCache {
    /// The shared store for `path`: loaded from disk on the first open
    /// in this process, the same in-memory store on every later open
    /// (different relative/absolute spellings of the same file unify).
    pub fn open(path: impl Into<PathBuf>) -> SharedPlanCache {
        let path = path.into();
        let key = std::path::absolute(&path).unwrap_or_else(|_| path.clone());
        let inner = Arc::clone(
            lock(registry())
                .entry(key)
                .or_insert_with(|| Arc::new(Mutex::new(SharedState::load(path)))),
        );
        SharedPlanCache { inner }
    }

    /// [`SharedPlanCache::open`] on [`PlanCache::default_path`].
    pub fn open_default() -> SharedPlanCache {
        SharedPlanCache::open(PlanCache::default_path())
    }

    /// Run `f` with exclusive access to the underlying store. Everything
    /// `f` mutates stays in memory; call [`PlanCache::save`] inside `f`
    /// (still under the lock) to persist atomically with the mutation.
    /// If the backing file changed on disk since the store last touched
    /// it, the store reloads first.
    pub fn with<R>(&self, f: impl FnOnce(&mut PlanCache) -> R) -> R {
        let mut guard = lock(&self.inner);
        let now = disk_state(guard.cache.path());
        if now != guard.disk {
            let path = guard
                .cache
                .path()
                .expect("pathless caches never change on disk");
            guard.cache = PlanCache::load(path.to_path_buf());
        }
        let r = f(&mut guard.cache);
        guard.disk = disk_state(guard.cache.path());
        r
    }

    /// Stored calibration for a topology signature.
    pub fn calibration(&self, topology: &str) -> Option<MachineParams> {
        self.with(|c| c.calibration(topology))
    }

    /// A warm hit, cloned out of the store (see [`PlanCache::lookup`]).
    pub fn lookup(&self, key: &PlanKey, dims: Dims3, radius: usize) -> Option<CacheEntry> {
        self.with(|c| c.lookup(key, dims, radius).cloned())
    }

    /// Insert the winner for `key` and persist, atomically with respect
    /// to every other thread sharing this store.
    pub fn store_and_save(&self, key: &PlanKey, entry: CacheEntry) -> io::Result<()> {
        self.with(|c| {
            c.store(key, entry);
            c.save()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Method, MethodFamily};
    use crate::key::MachineFingerprint;
    use crate::tuner::default_plan;
    use tb_runtime::topology::Machine;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tb-plan-cache-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn key(dims: Dims3) -> PlanKey {
        let fp = MachineFingerprint::new(&Machine::nehalem_ep(), &MachineParams::nehalem_ep());
        PlanKey::new::<f64>(fp, "jacobi6", dims, 8)
    }

    fn entry(dims: Dims3) -> CacheEntry {
        CacheEntry {
            plan: default_plan(MethodFamily::Diamond, 4),
            dims: [dims.nx, dims.ny, dims.nz],
            measured_mlups: 812.5,
            predicted_mlups: 900.0,
        }
    }

    #[test]
    fn roundtrips_through_disk() {
        let path = tmp("roundtrip.json");
        let dims = Dims3::cube(64);
        let mut c = PlanCache::load(&path);
        assert!(c.is_empty());
        c.store(&key(dims), entry(dims));
        c.store_calibration("2x4+L3:8388608", MachineParams::nehalem_ep());
        c.save().unwrap();

        let c2 = PlanCache::load(&path);
        assert_eq!(c2.len(), 1);
        let hit = c2.lookup(&key(dims), dims, 1).expect("warm hit");
        assert_eq!(hit, &entry(dims));
        let cal = c2.calibration("2x4+L3:8388608").expect("calibration hit");
        assert_eq!(cal, MachineParams::nehalem_ep());
        assert!(c2.calibration("1x64+nocache").is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_schema_is_rejected_wholesale() {
        let path = tmp("stale.json");
        let dims = Dims3::cube(64);
        let mut c = PlanCache::load(&path);
        c.store(&key(dims), entry(dims));
        c.save().unwrap();
        // Rewrite the file under a future schema: everything discarded.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("\"schema\":1", "\"schema\":999")).unwrap();
        let c2 = PlanCache::load(&path);
        assert!(c2.is_empty());
        assert!(c2.lookup(&key(dims), dims, 1).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_file_yields_empty_cache() {
        let path = tmp("corrupt.json");
        std::fs::write(&path, "{not json").unwrap();
        let c = PlanCache::load(&path);
        assert!(c.is_empty());
        // And it can recover by saving over the wreck.
        c.save().unwrap();
        assert!(Json::parse(&std::fs::read_to_string(&path).unwrap()).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_dims_entries_are_rejected() {
        let dims = Dims3::cube(64);
        let mut c = PlanCache::in_memory();
        // An entry whose recorded dims disagree with the lookup request
        // (as if the file were hand-edited): no hit.
        let mut bad = entry(dims);
        bad.dims = [32, 32, 32];
        c.store(&key(dims), bad);
        assert!(c.lookup(&key(dims), dims, 1).is_none());
        // A plan that no longer validates on the requested dims: no hit.
        let mut invalid = entry(dims);
        invalid.plan = Plan::new(Method::Diamond(tb_stencil::DiamondConfig::with_width(4, 2)));
        c.store(&key(dims), invalid);
        assert!(c.lookup(&key(dims), dims, 2).is_none());
    }

    #[test]
    fn store_replaces_and_evict_removes() {
        let dims = Dims3::cube(64);
        let mut c = PlanCache::in_memory();
        c.store(&key(dims), entry(dims));
        let mut better = entry(dims);
        better.measured_mlups = 1500.0;
        c.store(&key(dims), better.clone());
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup(&key(dims), dims, 1), Some(&better));
        c.evict(&key(dims));
        assert!(c.is_empty());
        assert!(c.save().is_ok(), "in-memory save is a no-op");
    }

    #[test]
    fn shared_store_is_interned_per_path() {
        let path = tmp("shared-intern.json");
        let dims = Dims3::cube(48);
        let a = SharedPlanCache::open(&path);
        let b = SharedPlanCache::open(&path);
        a.with(|c| c.store(&key(dims), entry(dims)));
        // The second handle sees the first handle's store without any
        // reload: one in-process store per path.
        assert_eq!(b.lookup(&key(dims), dims, 1), Some(entry(dims)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_store_and_save_yields_one_entry_and_a_parseable_file() {
        let path = tmp("shared-concurrent.json");
        std::fs::remove_file(&path).ok();
        let dims = Dims3::cube(40);
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let path = path.clone();
                std::thread::spawn(move || {
                    let cache = SharedPlanCache::open(&path);
                    cache.store_and_save(&key(dims), entry(dims)).unwrap();
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // All eight writers landed on the same key: one entry, and the
        // file on disk is valid JSON holding exactly that entry.
        let on_disk = PlanCache::load(&path);
        assert_eq!(on_disk.len(), 1);
        assert_eq!(on_disk.lookup(&key(dims), dims, 1), Some(&entry(dims)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_panicking_closure_leaves_the_shared_store_usable() {
        let path = tmp("shared-poison.json");
        std::fs::remove_file(&path).ok();
        let dims = Dims3::cube(36);
        let cache = SharedPlanCache::open(&path);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.with(|c| {
                c.store(&key(dims), entry(dims));
                panic!("closure panics while holding the store");
            })
        }));
        assert!(panicked.is_err());
        // The store is taken as the closure left it: the entry stored
        // before the panic is there, and saving still works.
        assert_eq!(cache.lookup(&key(dims), dims, 1), Some(entry(dims)));
        cache.store_and_save(&key(dims), entry(dims)).unwrap();
        let on_disk = PlanCache::load(&path);
        assert_eq!(on_disk.lookup(&key(dims), dims, 1), Some(&entry(dims)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn env_override_sets_default_path() {
        // Serialized by cargo's per-process test env: just exercise the
        // XDG/HOME fallback shape without mutating the environment.
        let p = PlanCache::default_path();
        assert!(p.to_string_lossy().ends_with(".json") || p.ends_with(".tb-plan-cache.json"));
    }
}
