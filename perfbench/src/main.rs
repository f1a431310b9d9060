//! Benchmark for symmerge: exhaustive explorations of fixed workloads,
//! end-to-end metrics with tracing off, per-layer metrics with it on,
//! and a correctness gate on every exploration. See `README.md` beside
//! this package and `BENCHMARK.json` at the repository root.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload search-wc6 --seed 1 --seconds 36 --trace 0
//! ```
//!
//! The process started by that command runs each exploration in a
//! fresh child process of its own binary (`--explore-once`), so peak
//! memory and allocator state belong to one exploration, and repeats
//! rounds of explorations of fixed engine seeds until `--seconds` is
//! spent. The last line of standard
//! output is the result as one JSON object.

mod metrics;
mod sample;
mod stats;
mod sys;
mod trace;
mod workload;

use std::collections::{BTreeMap, BTreeSet};
use std::io::Read;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use sample::Sample;
use stats::median;
use workload::Workload;

/// No new exploration starts once the run would pass this, so the
/// process ends well inside three minutes whatever `--seconds` says.
const RUN_LIMIT: Duration = Duration::from_secs(150);
/// An exploration still running this long after the run began is killed
/// and the run fails.
const KILL_AFTER: Duration = Duration::from_secs(170);

const USAGE: &str = "usage: perfbench --workload <search-wc6|dsm-tsort4|steal-wc6-j2> \
                     --seconds <n> [--seed <n>] [--trace <0|1>]";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run one exploration and print its [`Sample`] lines.
    explore_once: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, None, false);
    let mut explore_once = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--explore-once" {
            explore_once = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::by_name(value).ok_or_else(|| bad("a workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !f64::is_finite(s) || s <= 0.0 {
                    return Err(bad("a positive number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    // An exploration process runs once, whatever the run length.
    let seconds = match seconds {
        Some(s) => s,
        None if explore_once => 0.0,
        None => return Err("--seconds is required".to_owned()),
    };
    Ok(Args { workload, seed, seconds, trace, explore_once })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Library `Default`s read SYMMERGE_* variables; a set one would
    // silently change what is measured.
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SYMMERGE_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "perfbench: unset {} first; the benchmark measures library defaults",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    if args.explore_once {
        print!("{}", workload::explore_once(args.workload, args.seed, args.trace).to_lines());
        return ExitCode::SUCCESS;
    }
    run(&args)
}

/// Runs one exploration in a child process and collects its sample.
fn explore_in_child(
    w: &Workload,
    seed: u64,
    traced: bool,
    run_start: Instant,
) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--explore-once", "--workload", w.name, "--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start exploration: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    // Drain the pipe on a helper thread so a chatty child never blocks.
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let status = loop {
        let failure = match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if run_start.elapsed() <= KILL_AFTER => {
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
            Ok(None) => format!("exploration killed {KILL_AFTER:?} into the run"),
            Err(e) => format!("waiting on exploration: {e}"),
        };
        // Ignore a kill error: the child may have just exited.
        let _ = child.kill();
        break child.wait().map_err(|e| format!("{failure}; wait failed: {e}")).and(Err(failure));
    };
    let text = reader.join().expect("reader thread does not panic");
    let status = status?;
    if !status.success() {
        return Err(format!("exploration process failed: {status}"));
    }
    Sample::parse(&text.map_err(|e| format!("reading exploration output: {e}"))?)
}

/// The engine seed of the `k`-th search order of a run: `--seed` first,
/// then a fixed sequence derived from it.
fn engine_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn run(args: &Args) -> ExitCode {
    let w = args.workload;
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    // A run repeats rounds, and every round explores the same engine
    // seeds, so how many rounds fit into `--seconds` never changes which
    // work the figures describe. An untraced round explores each of the
    // workload's search orders once; a traced round explores `--seed`
    // traced, then untraced, and the pair gives the tracing overhead.
    let round: Vec<(u64, bool)> = if args.trace {
        vec![(args.seed, true), (args.seed, false)]
    } else {
        (0..w.search_orders()).map(|k| (engine_seed(args.seed, k), false)).collect()
    };
    let mut samples: Vec<(u64, Sample)> = Vec::new();
    let mut violations = Vec::new();
    'run: loop {
        let round_start = Instant::now();
        for &(seed, traced) in &round {
            let t = Instant::now();
            match explore_in_child(w, seed, traced, start) {
                Ok(s) => samples.push((seed, s)),
                Err(e) => {
                    violations.push(e);
                    break 'run;
                }
            }
            if start.elapsed() + t.elapsed() > RUN_LIMIT {
                break 'run;
            }
        }
        // Start another round only if, taking as long as the last, it
        // would end at most half its length past the budget: runs then
        // last `--seconds` on average.
        if start.elapsed() + round_start.elapsed() / 2 > budget {
            break;
        }
    }
    let wall = start.elapsed();
    for (seed, s) in &samples {
        violations.extend(s.violations.iter().map(|v| format!("seed {seed}: {v}")));
    }
    let exact_count = exact_count_check(w, &samples, &mut violations);

    let attempted: u64 = samples.iter().map(|(_, s)| s.attempted).sum();
    let failed: u64 = samples.iter().map(|(_, s)| s.failed).sum();
    let correct = violations.is_empty() && !samples.is_empty() && attempted > 0;

    println!(
        "# perfbench {} --seed {} --trace {}: {} explorations in {:.1} s",
        w.name,
        args.seed,
        u8::from(args.trace),
        samples.len(),
        wall.as_secs_f64()
    );
    for (i, (seed, s)) in samples.iter().enumerate() {
        let steps = s.counters.iter().find(|(n, _)| n == "steps").map_or(0, |&(_, v)| v);
        println!(
            "# exploration {i}: engine seed {seed}, traced {}, explore {:.3} s, cpu {:.2} s, \
             peak {:.1} MiB, {steps} steps, {} paths",
            u8::from(s.traced),
            s.explore_s,
            s.cpu_s,
            s.peak_rss_mb,
            s.attempted
        );
    }
    if let Some(line) = exact_count {
        println!("# exact-count check: {line}");
    }
    let metrics = if args.trace {
        print_notes(&samples);
        traced_metrics(&samples)
    } else {
        end_to_end_metrics(&samples, round.len(), attempted, failed)
    };
    print_table(&metrics);
    for v in &violations {
        println!("# FAILED: {v}");
    }
    let seeds: Vec<String> = round.iter().map(|(s, _)| s.to_string()).collect();
    println!(
        "# meta {{\"workload\": \"{}\", \"seed\": {}, \"engine_seeds\": [{}], \"trace\": {}, \
         \"nproc\": {}, \"git_rev\": \"{}\", \"rustc\": \"{}\"}}",
        w.name,
        args.seed,
        seeds.join(", "),
        args.trace,
        sys::nproc(),
        json_escape(&sys::git_rev()),
        json_escape(&sys::rustc_version())
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One reported metric with the values behind it.
struct Reported {
    name: &'static str,
    unit: &'static str,
    value: f64,
    values: Vec<f64>,
}

/// Set-up time is a median over every set-up of the run; the other
/// metrics are medians over rounds of the per-round mean, the mean over
/// the round's search orders.
fn end_to_end_metrics(
    samples: &[(u64, Sample)],
    round_len: usize,
    attempted: u64,
    failed: u64,
) -> Vec<Reported> {
    let per_round = |f: fn(&Sample) -> f64| -> Vec<f64> {
        samples
            .chunks(round_len)
            .map(|r| r.iter().map(|(_, s)| f(s)).sum::<f64>() / r.len() as f64)
            .collect()
    };
    let setup: Vec<f64> = samples.iter().flat_map(|(_, s)| s.setup_s.iter().copied()).collect();
    let per_metric: BTreeMap<&str, Vec<f64>> = BTreeMap::from([
        ("setup_s", setup),
        ("explore_s", per_round(|s| s.explore_s)),
        ("cpu_s", per_round(|s| s.cpu_s)),
        ("peak_rss_mb", per_round(|s| s.peak_rss_mb)),
        ("ok_frac", per_round(|s| 1.0 - stats::ratio(s.failed as f64, s.attempted as f64))),
    ]);
    metrics::END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let values = per_metric[name].clone();
            let value = if name == "ok_frac" {
                1.0 - stats::ratio(failed as f64, attempted as f64)
            } else {
                median(&values).unwrap_or(0.0)
            };
            Reported { name, unit, value, values }
        })
        .collect()
}

/// Per-layer medians over the traced explorations, and the tracing
/// overhead: traced over untraced median exploration time, minus one.
fn traced_metrics(samples: &[(u64, Sample)]) -> Vec<Reported> {
    let explore = |traced: bool| -> Vec<f64> {
        samples.iter().filter(|(_, s)| s.traced == traced).map(|(_, s)| s.explore_s).collect()
    };
    let overhead = match (median(&explore(true)), median(&explore(false))) {
        (Some(t), Some(u)) => t / u - 1.0,
        _ => 0.0,
    };
    metrics::PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            if name == "trace.overhead_frac" {
                return Reported { name, unit, value: overhead, values: Vec::new() };
            }
            let values: Vec<f64> = samples
                .iter()
                .filter(|(_, s)| s.traced)
                .filter_map(|(_, s)| s.layers.iter().find(|(n, _)| n == name).map(|&(_, v)| v))
                .collect();
            Reported { name, unit, value: median(&values).unwrap_or(0.0), values }
        })
        .collect()
}

/// Counters must repeat exactly across the explorations of one engine
/// seed on the sequential workloads. The fleet's do not (which worker
/// answers a query first depends on timing), so there they are only
/// reported.
fn exact_count_check(
    w: &Workload,
    samples: &[(u64, Sample)],
    violations: &mut Vec<String>,
) -> Option<String> {
    let (_, first) = samples.first()?;
    let mut varied = Vec::new();
    for (name, _) in &first.counters {
        let read = |s: &Sample| s.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
        // Each exploration against the first one of its engine seed.
        let repeats = samples.iter().all(|(seed, s)| {
            let (_, base) = samples.iter().find(|(b, _)| b == seed).expect("finds itself");
            read(s).is_some() && read(s) == read(base)
        });
        if !repeats {
            let reads: Vec<String> = samples
                .iter()
                .map(|(seed, s)| {
                    format!("{seed}:{}", read(s).map_or("-".to_owned(), |v| v.to_string()))
                })
                .collect();
            varied.push(format!("{name} [{}]", reads.join(", ")));
        }
    }
    if varied.is_empty() {
        let seeds: BTreeSet<u64> = samples.iter().map(|&(seed, _)| seed).collect();
        Some(format!(
            "all {} counters repeat per engine seed ({} explorations of {} seeds)",
            first.counters.len(),
            samples.len(),
            seeds.len()
        ))
    } else if w.is_fleet() {
        Some(format!("fleet counters vary run to run (exempt): {}", varied.join(", ")))
    } else {
        violations
            .extend(varied.into_iter().map(|v| format!("counter differs across one seed: {v}")));
        Some("FAILED, see below".to_owned())
    }
}

fn print_notes(samples: &[(u64, Sample)]) {
    if let Some((_, s)) = samples.iter().find(|(_, s)| s.traced) {
        for note in &s.notes {
            println!("# first traced exploration: {note}");
        }
    }
}

/// Per metric: the reported value, the quartiles and spread of the
/// per-exploration values behind it, their count, and the highest
/// percentile with at least ten of them beyond it.
fn print_table(metrics: &[Reported]) {
    println!(
        "# {:<28} {:>14} {:>6} {:>14} {:>14} {:>7} {:>4}  tail",
        "metric", "value", "unit", "q1", "q3", "spread", "n"
    );
    let dash = || "-".to_owned();
    for m in metrics {
        let (q1, q3) = match stats::quartiles(&m.values) {
            Some([q1, _, q3]) => (format!("{q1:.6}"), format!("{q3:.6}")),
            None => (dash(), dash()),
        };
        let spread = stats::relative_spread(&m.values).map_or_else(dash, |s| format!("{s:.3}"));
        let tail = stats::tail_percentile(&m.values)
            .map_or_else(dash, |(label, v, beyond)| format!("{label} {v:.6} ({beyond} beyond)"));
        println!(
            "# {:<28} {:>14.6} {:>6} {:>14} {:>14} {:>7} {:>4}  {tail}",
            m.name,
            m.value,
            m.unit,
            q1,
            q3,
            spread,
            m.values.len()
        );
    }
}

/// A finite JSON number; non-finite values (never expected) print as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}
