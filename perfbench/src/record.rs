//! The run record: what ran, where, and on which commit — so a number
//! is only ever compared with numbers from the same kind of machine.

use std::fs;
use std::path::Path;

use crate::json::Json;

/// nproc, CPU model and kernel release.
pub fn machine() -> Json {
    Json::obj()
        .field(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
        .field("cpu_model", cpu_model())
        .field("kernel", kernel_release())
}

/// The checked-out commit: `PERFBENCH_COMMIT` when set, else the
/// `.git` of the working directory, else `"unknown"` (a plain source
/// checkout has no history).
pub fn commit() -> String {
    if let Ok(commit) = std::env::var("PERFBENCH_COMMIT") {
        return commit;
    }
    git_head(Path::new(".git")).unwrap_or_else(|| "unknown".to_string())
}

fn git_head(git: &Path) -> Option<String> {
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|line| {
            let (id, name) = line.split_once(' ')?;
            (name == reference).then(|| id.to_string())
        })
}

/// The `model name` line of `/proc/cpuinfo`.
fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|line| {
                let (key, value) = line.split_once(':')?;
                (key.trim() == "model name").then(|| value.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `/proc/sys/kernel/osrelease`.
fn kernel_release() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|release| release.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}
