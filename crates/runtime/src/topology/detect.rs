//! Best-effort host topology detection.
//!
//! On Linux, `/sys/devices/system/cpu/cpu*/topology/physical_package_id`
//! gives the socket of each online CPU and
//! `/sys/devices/system/cpu/cpu0/cache/index*/` describes the cache
//! hierarchy. Anything missing degrades gracefully to a flat machine with
//! `available_parallelism()` CPUs — detection must never fail, because the
//! solvers only use the topology as a placement hint.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use super::machine::{CacheLevel, CacheScope, Machine, NumaDomain, Socket};

/// Detect the host machine; never fails.
pub fn detect() -> Machine {
    let mut m = detect_from_sysfs(Path::new("/sys/devices/system/cpu")).unwrap_or_else(fallback);
    m.numa = detect_numa_from_sysfs(Path::new("/sys/devices/system/node"));
    m
}

/// Portable fallback: one socket holding every logical CPU.
fn fallback() -> Machine {
    let n = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    Machine::flat(n)
}

/// Parse a sysfs-like directory tree. Split out for testability: the unit
/// tests synthesize a fake sysfs.
pub(crate) fn detect_from_sysfs(root: &Path) -> Option<Machine> {
    let mut sockets: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let entries = fs::read_dir(root).ok()?;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let Some(cpu_id) = name
            .strip_prefix("cpu")
            .and_then(|s| s.parse::<usize>().ok())
        else {
            continue;
        };
        let pkg_path = entry.path().join("topology/physical_package_id");
        let pkg = fs::read_to_string(&pkg_path)
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .unwrap_or(0);
        sockets.entry(pkg).or_default().push(cpu_id);
    }
    if sockets.is_empty() {
        return None;
    }
    for cpus in sockets.values_mut() {
        cpus.sort_unstable();
    }
    let caches = detect_caches(&root.join("cpu0/cache"));
    Some(Machine {
        name: "detected".into(),
        sockets: sockets
            .into_iter()
            .map(|(id, cpus)| Socket { id, cpus })
            .collect(),
        caches,
        numa: Vec::new(),
    })
}

/// Parse the ccNUMA domains from a `/sys/devices/system/node`-shaped
/// tree (`node<N>/cpulist` holds range syntax like `0-3,8-11`). Returns
/// an empty list when the tree is missing or unparsable — the
/// sockets-as-nodes fallback in [`Machine::numa_nodes`] then applies.
pub(crate) fn detect_numa_from_sysfs(root: &Path) -> Vec<NumaDomain> {
    let mut nodes: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let Ok(entries) = fs::read_dir(root) else {
        return Vec::new();
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let Some(node_id) = name
            .strip_prefix("node")
            .and_then(|s| s.parse::<usize>().ok())
        else {
            continue;
        };
        let Some(cpus) = fs::read_to_string(entry.path().join("cpulist"))
            .ok()
            .and_then(|s| parse_cpu_list(s.trim()))
        else {
            continue;
        };
        if !cpus.is_empty() {
            nodes.insert(node_id, cpus);
        }
    }
    nodes
        .into_iter()
        .map(|(id, cpus)| NumaDomain { id, cpus })
        .collect()
}

/// Parse sysfs cpulist syntax: comma-separated single ids and
/// inclusive ranges, e.g. `"0-3,8-11"` or `"0"`. `None` on any
/// malformed piece (detection degrades to the fallback, never panics).
fn parse_cpu_list(s: &str) -> Option<Vec<usize>> {
    let mut out = Vec::new();
    if s.is_empty() {
        return Some(out);
    }
    for piece in s.split(',') {
        let piece = piece.trim();
        match piece.split_once('-') {
            Some((lo, hi)) => {
                let lo = lo.trim().parse::<usize>().ok()?;
                let hi = hi.trim().parse::<usize>().ok()?;
                if hi < lo {
                    return None;
                }
                out.extend(lo..=hi);
            }
            None => out.push(piece.parse::<usize>().ok()?),
        }
    }
    out.sort_unstable();
    out.dedup();
    Some(out)
}

fn detect_caches(cache_dir: &Path) -> Vec<CacheLevel> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(cache_dir) else {
        return default_caches();
    };
    for entry in entries.flatten() {
        let p = entry.path();
        let read = |f: &str| fs::read_to_string(p.join(f)).ok();
        let Some(level) = read("level").and_then(|s| s.trim().parse::<u8>().ok()) else {
            continue;
        };
        // Skip instruction caches.
        if let Some(t) = read("type") {
            if t.trim() == "Instruction" {
                continue;
            }
        }
        let Some(size) = read("size").and_then(|s| parse_size(s.trim())) else {
            continue;
        };
        // shared_cpu_list with more than one CPU => shared cache.
        let shared = read("shared_cpu_list")
            .map(|s| s.trim().contains(',') || s.trim().contains('-'))
            .unwrap_or(false);
        out.push(CacheLevel {
            level,
            size_bytes: size,
            scope: if shared {
                CacheScope::PerSocket
            } else {
                CacheScope::PerCore
            },
        });
    }
    if out.is_empty() {
        default_caches()
    } else {
        out.sort_by_key(|c| c.level);
        out.dedup_by_key(|c| c.level);
        out
    }
}

fn default_caches() -> Vec<CacheLevel> {
    vec![CacheLevel {
        level: 3,
        size_bytes: 8 * 1024 * 1024,
        scope: CacheScope::PerSocket,
    }]
}

/// Parse sysfs cache sizes like "32K", "8192K", "8M".
fn parse_size(s: &str) -> Option<usize> {
    if let Some(k) = s.strip_suffix(['K', 'k']) {
        k.parse::<usize>().ok().map(|v| v * 1024)
    } else if let Some(m) = s.strip_suffix(['M', 'm']) {
        m.parse::<usize>().ok().map(|v| v * 1024 * 1024)
    } else {
        s.parse::<usize>().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_sizes() {
        assert_eq!(parse_size("32K"), Some(32 * 1024));
        assert_eq!(parse_size("8M"), Some(8 * 1024 * 1024));
        assert_eq!(parse_size("123"), Some(123));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn detect_never_panics_and_has_cpus() {
        let m = detect();
        assert!(m.num_cpus() >= 1);
        assert!(!m.cache_groups().is_empty());
    }

    #[test]
    fn fallback_uses_available_parallelism() {
        let m = fallback();
        assert!(m.num_cpus() >= 1);
        assert_eq!(m.num_sockets(), 1);
    }

    #[test]
    fn synthetic_sysfs_is_parsed() {
        let dir = std::env::temp_dir().join(format!("tb-topo-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        for (cpu, pkg) in [(0, 0), (1, 0), (2, 1), (3, 1)] {
            let t = dir.join(format!("cpu{cpu}/topology"));
            fs::create_dir_all(&t).unwrap();
            fs::write(t.join("physical_package_id"), format!("{pkg}\n")).unwrap();
        }
        let c = dir.join("cpu0/cache/index3");
        fs::create_dir_all(&c).unwrap();
        fs::write(c.join("level"), "3\n").unwrap();
        fs::write(c.join("size"), "8192K\n").unwrap();
        fs::write(c.join("type"), "Unified\n").unwrap();
        fs::write(c.join("shared_cpu_list"), "0-3\n").unwrap();

        let m = detect_from_sysfs(&dir).unwrap();
        assert_eq!(m.num_sockets(), 2);
        assert_eq!(m.sockets[0].cpus, vec![0, 1]);
        assert_eq!(m.sockets[1].cpus, vec![2, 3]);
        let l3 = m.shared_cache().unwrap();
        assert_eq!(l3.size_bytes, 8 * 1024 * 1024);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_dir_returns_none() {
        assert!(detect_from_sysfs(Path::new("/nonexistent-tb-test")).is_none());
    }

    #[test]
    fn parse_cpu_lists() {
        assert_eq!(parse_cpu_list("0"), Some(vec![0]));
        assert_eq!(parse_cpu_list("0-3"), Some(vec![0, 1, 2, 3]));
        assert_eq!(parse_cpu_list("0-2,8-9,4"), Some(vec![0, 1, 2, 4, 8, 9]));
        assert_eq!(parse_cpu_list(""), Some(vec![]));
        assert_eq!(parse_cpu_list("3-1"), None);
        assert_eq!(parse_cpu_list("x"), None);
    }

    #[test]
    fn synthetic_numa_sysfs_is_parsed() {
        let dir = std::env::temp_dir().join(format!("tb-numa-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        for (node, list) in [(0, "0-1,4\n"), (1, "2-3,5\n")] {
            let d = dir.join(format!("node{node}"));
            fs::create_dir_all(&d).unwrap();
            fs::write(d.join("cpulist"), list).unwrap();
        }
        // Noise entries must be ignored.
        fs::create_dir_all(dir.join("possible")).unwrap();
        let nodes = detect_numa_from_sysfs(&dir);
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[0].id, 0);
        assert_eq!(nodes[0].cpus, vec![0, 1, 4]);
        assert_eq!(nodes[1].cpus, vec![2, 3, 5]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_numa_tree_yields_the_fallback() {
        assert!(detect_numa_from_sysfs(Path::new("/nonexistent-tb-numa")).is_empty());
        // And on the live host, detect() always reports >= 1 node.
        assert!(detect().num_numa_nodes() >= 1);
    }
}
