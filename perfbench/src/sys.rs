//! Process measurements read from Linux `/proc`, and the provenance
//! recorded with every result.

use std::process::{Command, Stdio};

/// `/proc/<pid>/stat` reports CPU time in `USER_HZ` ticks, which Linux
/// fixes at 100 per second for user space on every architecture it
/// supports.
const USER_HZ: f64 = 100.0;

/// CPU time (user + system, every thread, including finished ones) the
/// process has used so far, in seconds. Resolution is one tick (10 ms).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may hold spaces; fields after its
    // closing parenthesis start at field 3 (state).
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse::<u64>().expect("numeric tick count") as f64 };
    // Fields 14 (utime) and 15 (stime), counted from 3.
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident set size of the process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("VmHWM is reported");
    kb as f64 / 1024.0
}

/// Hardware threads this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// First line of a command's standard output, or `None` if it cannot
/// run or fails. Waits for the command to end.
fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).stderr(Stdio::null()).output().ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout).ok()?.lines().next().map(str::to_owned)
}

/// The commit being measured, or `unknown` outside a git checkout.
pub fn git_rev() -> String {
    first_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_owned())
}

/// The `rustc --version` line of the toolchain in this directory.
pub fn rustc_version() -> String {
    first_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_owned())
}
