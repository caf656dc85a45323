//! Where a result file's numbers come from: machine, toolchain, commit.

use std::process::Command;

use temporal_blocking::plan::Json;
use temporal_blocking::topology::detect;

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `MemAvailable` of `/proc/meminfo` in MiB.
pub fn mem_available_mib() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/meminfo").ok()?;
    let line = text.lines().find(|l| l.starts_with("MemAvailable:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024)
}

/// (all jiffies, steal jiffies) of the aggregate `cpu` line of
/// `/proc/stat`: the share of a pass the hypervisor ran someone else on
/// our CPUs tells a disturbed run from a slow one.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = text
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal (guest times are
    // already inside user/nice).
    (fields.len() >= 8).then(|| (fields[..8].iter().sum(), fields[7]))
}

/// `L1d=48K L2=4096K L3=266240K` as sysfs reports cpu0's caches.
fn cache_sizes() -> String {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let read = |p: std::path::PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let mut out = Vec::new();
    for i in 0..8 {
        let dir = base.join(format!("index{i}"));
        let (Some(level), Some(kind), Some(size)) = (
            read(dir.join("level")),
            read(dir.join("type")),
            read(dir.join("size")),
        ) else {
            continue;
        };
        let suffix = match kind.as_str() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        out.push(format!("L{level}{suffix}={size}"));
    }
    out.join(" ")
}

fn target_features() -> String {
    #[allow(unused_mut)]
    let mut found: Vec<&str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        macro_rules! probe {
            ($($f:tt),*) => { $( if std::arch::is_x86_feature_detected!($f) { found.push($f); } )* };
        }
        probe!("sse2", "sse4.2", "avx", "avx2", "fma", "avx512f");
    }
    found.join(" ")
}

/// Machine, toolchain and commit, followed by the run's own `facts`.
pub fn collect(facts: Vec<(&str, Json)>) -> Json {
    let machine = detect::detect();
    // A benchmark checkout need not be a git repository.
    let commit = command_output("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let rustc = command_output("rustc", &["-vV"]).unwrap_or_else(|| "unknown".into());
    let mut pairs = vec![
        ("machine", Json::str(machine.signature())),
        ("caches", Json::str(cache_sizes())),
        (
            "mem_available_mib",
            mem_available_mib().map_or(Json::Null, |m| Json::Num(m as f64)),
        ),
        ("commit", Json::str(commit)),
        ("rustc", Json::str(rustc)),
        ("target_features", Json::str(target_features())),
    ];
    pairs.extend(facts);
    Json::obj(pairs)
}
