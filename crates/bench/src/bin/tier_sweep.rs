//! **tier_sweep** — cache-tier gate threshold sweep and byte-identity
//! check.
//!
//! Two questions about the tiered solver pipeline, answered on the
//! pipeline's motivating workload (`wc` at 6 symbolic stdin bytes under
//! Random search, the configuration whose cache-tier bookkeeping
//! dominated solver time before the gate):
//!
//! 1. **Where should the tier gate sit?** For each threshold on the
//!    axis (0 disables the gate), run the default engine configuration
//!    exhaustively with tests on and print the timing split — the gate
//!    is pure routing, so the generated-test count must not move.
//! 2. **Is the gated pipeline really result-identical?** For each
//!    threshold, re-run in canonical-model mode and require the
//!    generated tests to be *byte-identical* to the ungated reference
//!    (`gate = 0`) — the same contract the solver differential asserts
//!    at small sizes, checked here at the size the sweep actually tunes.
//!
//! The runs start from the configuration the `SYMMERGE_*` environment
//! selects (`symmerge_core::env`).
//!
//! ```sh
//! cargo run --release -p symmerge-bench --bin tier_sweep
//! ```

use symmerge_bench::env_configs;
use symmerge_bench::harness::{CsvOut, HarnessOpts};
use symmerge_core::{
    Budgets, Engine, EngineConfig, MergeMode, QceConfig, RunReport, SolverConfig, StrategyKind,
};
use symmerge_workloads::{by_name, InputConfig};

/// One exhaustive `wc`@6 Random run with the given solver pipeline on
/// the `base` configuration.
fn run(opts: &HarnessOpts, base: &EngineConfig, solver: SolverConfig) -> RunReport {
    let cfg = InputConfig { n_args: 0, arg_len: 1, stdin_len: 6 };
    let config = EngineConfig {
        merge_mode: MergeMode::None,
        strategy: StrategyKind::Random,
        qce: QceConfig { alpha: opts.alpha, ..QceConfig::default() },
        budgets: Budgets { max_time: Some(opts.budget), ..Budgets::default() },
        generate_tests: true,
        seed: opts.seed,
        solver,
        ..base.clone()
    };
    let engine = Engine::builder(by_name("wc").unwrap().program(&cfg))
        .config(config)
        .build()
        .expect("workload programs validate");
    let report = { engine }.run();
    assert!(!report.hit_budget, "raise --budget-ms, the sweep needs exhaustive runs");
    report
}

type TestBytes = Vec<(String, Vec<(String, u64)>, Vec<u64>)>;

/// Generated tests collapsed to comparable bytes (sorted, since the gate
/// may legitimately reorder completion under identical results).
fn test_bytes(report: &RunReport) -> TestBytes {
    let mut v: Vec<_> = report
        .tests
        .iter()
        .map(|t| (format!("{:?}", t.kind), t.inputs.clone(), t.predicted_outputs.clone()))
        .collect();
    v.sort();
    v
}

fn main() {
    let opts = HarnessOpts::parse(240_000);
    let (base, _) = env_configs();
    // (label, gate): the gate axis; `0` disables the gate.
    let axis: &[(&str, usize)] =
        &[("ungated", 0), ("gate-8", 8), ("gate-16", 16), ("gate-32", 32), ("gate-64", 64)];
    let solver_for = |gate: usize, canonical: bool| SolverConfig {
        tier_gate: gate,
        canonical_models: canonical,
        ..base.solver.clone()
    };

    let mut csv = CsvOut::create(
        "tier_sweep",
        "config,tier_gate,tests,sat_calls,cex_unsat_hits,cache_hits,\
         solver_ms,sat_ms,cache_ms,wall_ms,canonical_identical",
    );
    println!("# tier_sweep: wc@6 Random, cache-tier gate axis (exhaustive, tests on)");
    println!("# ident: canonical-model tests byte-identical to the ungated reference");
    println!(
        "{:18} {:>5} {:>7} {:>9} {:>9} {:>9} {:>10} {:>10} {:>10} {:>10} {:>6}",
        "config",
        "gate",
        "tests",
        "sat_calls",
        "cex_hits",
        "cache",
        "solver",
        "sat",
        "cache_t",
        "wall",
        "ident"
    );
    // The byte-identity reference: canonical models, gate off.
    let reference = test_bytes(&run(&opts, &base, solver_for(0, true)));
    for &(label, gate) in axis {
        let report = run(&opts, &base, solver_for(gate, false));
        let canonical = test_bytes(&run(&opts, &base, solver_for(gate, true)));
        assert_eq!(
            canonical, reference,
            "{label}: canonical tests diverged from the ungated reference"
        );
        let s = &report.solver;
        println!(
            "{label:18} {gate:>5} {:>7} {:>9} {:>9} {:>9} {:>10.2?} {:>10.2?} {:>10.2?} {:>10.2?} {:>6}",
            report.tests.len(),
            s.sat_calls,
            s.cex_unsat_hits,
            s.cache_hits,
            s.time,
            s.sat_time,
            s.cache_time,
            report.wall_time,
            "yes"
        );
        csv.row(&format!(
            "{label},{gate},{},{},{},{},{:.3},{:.3},{:.3},{:.3},yes",
            report.tests.len(),
            s.sat_calls,
            s.cex_unsat_hits,
            s.cache_hits,
            s.time.as_secs_f64() * 1e3,
            s.sat_time.as_secs_f64() * 1e3,
            s.cache_time.as_secs_f64() * 1e3,
            report.wall_time.as_secs_f64() * 1e3,
        ));
    }
    println!("# csv: {}", csv.path.display());
}
