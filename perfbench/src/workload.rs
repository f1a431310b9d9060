//! The benchmark's workloads and one exploration of one of them: build
//! the engine, explore to exhaustion, replay every generated test, and
//! measure each step.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use symmerge_core::{
    Budgets, DsmConfig, Engine, EngineConfig, ExploreStep, MergeConfig, MergeMode, ParallelConfig,
    ParallelEngine, QceAnalysis, QceConfig, RunReport, SchedulerKind, SolverConfig, StrategyKind,
    TestKind,
};
use symmerge_ir::Program;
use symmerge_workloads::InputConfig;

use crate::sample::Sample;
use crate::stats::{self, median, percentile, ratio};
use crate::sys;
use crate::trace::Tracer;

/// How often one exploration process repeats the set-up (compile plus
/// engine build) before exploring with the last engine built; `setup_s`
/// is the median over all of them.
const SETUP_REPS: usize = 64;

/// One benchmark workload: a mini-COREUTILS program at a fixed symbolic
/// input size, explored exhaustively in one engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    tool: &'static str,
    input: InputConfig,
    merge_mode: MergeMode,
    strategy: StrategyKind,
    /// Worker count of the work-stealing fleet; `None` runs the
    /// sequential engine step by step.
    fleet_jobs: Option<u32>,
    /// Basic blocks an exhaustive run covers, for any seed.
    covered_blocks: usize,
    /// Completed paths of an exhaustive run. Pinned only without
    /// merging, where the explored path set does not depend on the
    /// search order.
    completed_paths: Option<u64>,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "search-wc6",
        tool: "wc",
        input: InputConfig { n_args: 0, arg_len: 1, stdin_len: 6 },
        merge_mode: MergeMode::None,
        strategy: StrategyKind::Random,
        fleet_jobs: None,
        covered_blocks: 28,
        completed_paths: Some(5_461),
    },
    Workload {
        name: "dsm-tsort4",
        tool: "tsort",
        input: InputConfig { n_args: 0, arg_len: 1, stdin_len: 4 },
        merge_mode: MergeMode::Dynamic,
        strategy: StrategyKind::CoverageOptimized,
        fleet_jobs: None,
        covered_blocks: 50,
        completed_paths: None,
    },
    Workload {
        name: "steal-wc6-j2",
        tool: "wc",
        input: InputConfig { n_args: 0, arg_len: 1, stdin_len: 6 },
        merge_mode: MergeMode::None,
        strategy: StrategyKind::Random,
        fleet_jobs: Some(2),
        covered_blocks: 28,
        completed_paths: Some(5_461),
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Whether the workload runs the parallel fleet, whose counters are
    /// not reproducible run to run (which worker answers which query
    /// first depends on timing).
    pub fn is_fleet(&self) -> bool {
        self.fleet_jobs.is_some()
    }

    /// Search orders (engine seeds) an untraced run explores in each
    /// round. With merging, which states are explored, and so time and
    /// memory, depend on the order (tsort@4 takes 144 k–179 k steps
    /// across seeds), so a run averages over several; without merging
    /// every order explores the same paths and one stands for all.
    pub fn search_orders(&self) -> u64 {
        if self.merge_mode == MergeMode::None {
            1
        } else {
            4
        }
    }

    /// The engine configuration, every field spelled out. The nested
    /// configs take their `Default`s, which read `SYMMERGE_*` variables;
    /// the benchmark refuses to start while any is set, so they are the
    /// library defaults.
    fn engine_config(&self, seed: u64) -> EngineConfig {
        EngineConfig {
            merge_mode: self.merge_mode,
            strategy: self.strategy,
            qce: QceConfig::default(),
            dsm: DsmConfig::default(),
            merge: MergeConfig::default(),
            solver: SolverConfig::default(),
            // No limits: every run explores to exhaustion.
            budgets: Budgets::default(),
            generate_tests: true,
            affinity_scheduling: true,
            warm_migration: true,
            fault_plan: None,
            panic_isolation: false,
            checkpoint: None,
            seed,
        }
    }
}

/// A built engine, ready to explore.
enum Explorer {
    Sequential(Box<Engine>),
    Fleet(Box<ParallelEngine>),
}

impl Explorer {
    fn build(w: &Workload, program: Program, config: EngineConfig) -> Explorer {
        match w.fleet_jobs {
            None => Explorer::Sequential(Box::new(
                Engine::builder(program)
                    .config(config)
                    .build()
                    .expect("workload programs validate"),
            )),
            Some(jobs) => {
                let par = ParallelConfig {
                    jobs,
                    steps_per_round: 512,
                    steal_newest: false,
                    scheduler: SchedulerKind::Steal,
                };
                Explorer::Fleet(Box::new(
                    ParallelEngine::new(program, config, par).expect("workload programs validate"),
                ))
            }
        }
    }
}

/// Sets up, explores and replays `w` once with engine seed `seed`,
/// recording spans when `traced`.
pub fn explore_once(w: &Workload, seed: u64, traced: bool) -> Sample {
    let tool = symmerge_workloads::by_name(w.tool).expect("workload tool exists");
    let config = w.engine_config(seed);
    let mut tr = Tracer::new(traced);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let rep_config = config.clone();
        let t = Instant::now();
        let program = tr.span("ir.compile", |_| tool.program(&w.input));
        let compile = t.elapsed();
        if traced {
            // The engine build runs this analysis too; timed on its own
            // here, outside `setup_s`, to name its share.
            tr.span("qce.analysis", |_| black_box(QceAnalysis::run(&program, config.qce)));
        }
        let replay_program = program.clone();
        let t = Instant::now();
        let explorer = tr.span("engine.build", |_| Explorer::build(w, program, rep_config));
        setup_s.push((compile + t.elapsed()).as_secs_f64());
        built = Some((explorer, replay_program));
    }
    let (mut explorer, program) = built.expect("at least one set-up");

    let cpu0 = sys::cpu_seconds();
    let t = Instant::now();
    let report = tr.span("explore", |tr| match &mut explorer {
        Explorer::Sequential(e) => {
            tr.span("engine.seed", |_| e.seed_initial());
            let hit_budget = loop {
                match tr.span("engine.step", |_| e.explore_step()) {
                    ExploreStep::Progressed => {}
                    ExploreStep::Exhausted => break false,
                    ExploreStep::BudgetExhausted => break true,
                }
            };
            tr.span("engine.report", |_| e.report(hit_budget))
        }
        Explorer::Fleet(p) => tr.span("parallel.run", |_| p.run()),
    });
    let explore_s = t.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds() - cpu0;

    let mut violations = Vec::new();
    let mut mismatches = 0u64;
    let mut replayed_failures = BTreeSet::new();
    for test in &report.tests {
        match tr.span("ir.replay", |_| test.validate(&program)) {
            Ok(()) => {
                if let TestKind::AssertFailure { msg } = &test.kind {
                    replayed_failures.insert(msg.clone());
                }
            }
            Err(e) => {
                mismatches += 1;
                if mismatches <= 3 {
                    violations.push(format!("test replay mismatch: {e}"));
                }
            }
        }
    }
    let peak_rss_mb = sys::peak_rss_mb();

    check_outcome(w, &report, &replayed_failures, mismatches, &mut violations);
    let mut sample = Sample {
        traced,
        explore_s,
        cpu_s,
        peak_rss_mb,
        setup_s,
        attempted: report.completed_paths,
        failed: report.tests_dropped_unknown + report.quarantined_states + mismatches,
        counters: counters(&report),
        layers: Vec::new(),
        notes: Vec::new(),
        violations,
    };
    if traced {
        let jobs = w.fleet_jobs.unwrap_or(1);
        layer_metrics(&tr, &report, explore_s, cpu_s, jobs, &mut sample);
    }
    sample
}

/// The correctness gate: exhaustive, every test replays, reported and
/// replayed assertion failures agree, and the pinned totals hold.
fn check_outcome(
    w: &Workload,
    r: &RunReport,
    replayed_failures: &BTreeSet<String>,
    mismatches: u64,
    violations: &mut Vec<String>,
) {
    if r.hit_budget || r.leftover_states != 0 {
        violations.push(format!("exploration not exhaustive ({} states left)", r.leftover_states));
    }
    if mismatches > 0 {
        violations.push(format!("{mismatches} of {} tests failed replay", r.tests.len()));
    }
    let reported: BTreeSet<String> = r.assert_failures.iter().map(|f| f.msg.clone()).collect();
    if &reported != replayed_failures {
        violations.push(format!(
            "assertion failures reported {reported:?} but replayed {replayed_failures:?}"
        ));
    }
    if r.covered_blocks != w.covered_blocks {
        violations
            .push(format!("covered {} blocks, expected {}", r.covered_blocks, w.covered_blocks));
    }
    if let Some(paths) = w.completed_paths {
        if r.completed_paths != paths {
            violations.push(format!("{} completed paths, expected {paths}", r.completed_paths));
        }
    }
}

/// Work counters that must repeat exactly across runs of one seed.
fn counters(r: &RunReport) -> Vec<(String, u64)> {
    let s = &r.solver;
    let list = [
        ("completed_paths", r.completed_paths),
        ("tests", r.tests.len() as u64),
        ("tests_dropped_unknown", r.tests_dropped_unknown),
        ("assert_failures", r.assert_failures.len() as u64),
        ("picks", r.picks),
        ("steps", r.steps),
        ("merges", r.merges),
        ("merge_rejects", r.merge_rejects),
        ("ff_merged", r.ff_merged),
        ("ff_picks", r.dsm.ff_picks),
        ("sched_picks", r.sched_picks),
        ("sched_heap_repairs", r.sched_heap_repairs),
        ("covered_blocks", r.covered_blocks as u64),
        ("max_worklist", r.max_worklist as u64),
        ("solver.queries", s.queries),
        ("solver.sat_calls", s.sat_calls),
        ("solver.unknown", s.unknown),
        ("solver.cache_hits", s.cache_hits),
        ("solver.model_reuse_hits", s.model_reuse_hits),
        ("solver.cex_unsat_hits", s.cex_unsat_hits),
        ("solver.cex_sat_hits", s.cex_sat_hits),
        ("solver.ctx_hits", s.ctx_hits),
        ("solver.ctx_forks", s.ctx_forks),
        ("solver.ctx_rebuilds", s.ctx_rebuilds),
        ("solver.ctx_evictions", s.ctx_evictions),
        ("solver.ctx_clauses_resident", s.ctx_clauses_resident),
        ("solver.ctx_clauses_evicted", s.ctx_clauses_evicted),
        ("solver.ctx_clauses_compacted", s.ctx_clauses_compacted),
        ("solver.conflicts", s.conflicts),
        ("solver.decisions", s.decisions),
        ("solver.propagations", s.propagations),
        ("solver.learnt", s.learnt),
        ("solver.learnt_lits", s.learnt_lits),
        ("solver.gates_reused", s.gates_reused),
        ("solver.query_nodes", s.query_nodes),
        ("solver.retry_attempts", s.retry_attempts),
    ];
    list.into_iter().map(|(n, v)| (n.to_owned(), v)).collect()
}

/// The per-layer metrics of one traced exploration (names as in
/// `BENCHMARK.json`). Layers below a span (solver tiers) come from the
/// report's own counters and durations.
fn layer_metrics(
    tr: &Tracer,
    r: &RunReport,
    explore_s: f64,
    cpu_s: f64,
    jobs: u32,
    out: &mut Sample,
) {
    let s = &r.solver;
    let layers = tr.layers();
    let total = |name: &str| layers.get(name).map_or(0.0, |l| l.total_s);
    let med = |name: &str| median(&tr.durations(name)).unwrap_or(0.0);
    let solver_s = s.time.as_secs_f64();
    let sat_s = s.sat_time.as_secs_f64();
    let cache_s = s.cache_time.as_secs_f64();
    let route_s = s.route_time.as_secs_f64();
    let steps_us: Vec<f64> = tr.durations("engine.step").iter().map(|d| d * 1e6).collect();
    // Sequential: the summed `explore_step` spans. Fleet: worker-seconds
    // inside `ParallelEngine::run`, the only span around the fleet.
    let step_s = if steps_us.is_empty() {
        f64::from(jobs) * total("parallel.run")
    } else {
        total("engine.step")
    };
    let tier_hits = s.cache_hits
        + s.model_reuse_hits
        + s.cex_unsat_hits
        + s.cex_sat_hits
        + s.shared_query_hits
        + s.shared_cex_hits;
    let engine_self_s = stats::self_time(step_s, &[solver_s]);
    let other_s = stats::self_time(solver_s, &[sat_s, cache_s, route_s]);
    let residual_s = layers.get("explore").map_or(0.0, |x| x.self_s);
    let n = |v: u64| v as f64;
    let l: Vec<(&str, f64)> = vec![
        ("solver.route_s", route_s),
        ("solver.ctx_forks", n(s.ctx_forks)),
        ("solver.ctx_rebuilds", n(s.ctx_rebuilds)),
        ("solver.ctx_evictions", n(s.ctx_evictions)),
        ("solver.ctx_clauses_resident", n(s.ctx_clauses_resident)),
        ("solver.sat_s", sat_s),
        ("solver.conflicts", n(s.conflicts)),
        ("solver.propagations", n(s.propagations)),
        ("solver.decisions", n(s.decisions)),
        ("solver.learnt_lits", n(s.learnt_lits)),
        ("solver.gates_reused", n(s.gates_reused)),
        ("solver.query_nodes", n(s.query_nodes)),
        ("solver.cache_s", cache_s),
        ("solver.cache_hit_ratio", ratio(n(tier_hits), n(s.queries))),
        ("solver.queries", n(s.queries)),
        ("solver.sat_calls", n(s.sat_calls)),
        ("solver.other_s", other_s),
        ("solver.retry_attempts", n(s.retry_attempts)),
        ("engine.step_s", step_s),
        ("engine.step_us_p50", percentile(&steps_us, 50.0).unwrap_or(0.0)),
        ("engine.step_us_p99", percentile(&steps_us, 99.0).unwrap_or(0.0)),
        ("engine.self_s", engine_self_s),
        ("engine.steps", n(r.steps)),
        ("engine.picks", n(r.picks)),
        ("engine.residual_s", residual_s),
        ("merge.merges", n(r.merges)),
        ("merge.rejects", n(r.merge_rejects)),
        ("merge.accept_ratio", ratio(n(r.merges), n(r.merges + r.merge_rejects))),
        ("dsm.ff_merged", n(r.ff_merged)),
        ("dsm.ff_success_rate", r.ff_success_rate().unwrap_or(0.0)),
        ("strategy.sched_picks", n(r.sched_picks)),
        ("strategy.heap_repairs", n(r.sched_heap_repairs)),
        ("qce.analysis_s", med("qce.analysis")),
        ("ir.compile_s", med("ir.compile")),
        ("engine.build_s", med("engine.build")),
        ("testgen.tests", n(r.tests.len() as u64)),
        ("testgen.dropped_unknown", n(r.tests_dropped_unknown)),
        ("ir.replay_s", total("ir.replay")),
        ("parallel.steals", n(r.steals)),
        ("parallel.stolen_states", n(r.stolen_states)),
        ("parallel.idle_waits", n(r.idle_waits)),
        ("parallel.cpu_util", ratio(cpu_s, f64::from(jobs) * explore_s)),
        ("shared.query_hits", n(s.shared_query_hits)),
        ("shared.publishes", n(s.shared_publishes)),
        ("shared.sync_s", s.shared_sync_time.as_secs_f64()),
        ("shared.hit_ratio", ratio(n(s.shared_query_hits + s.shared_cex_hits), n(s.queries))),
    ];
    out.layers = l.into_iter().map(|(name, v)| (name.to_owned(), v)).collect();

    // Where the exploration's time went, layer by layer. The fleet's
    // solver times are summed over workers, so its split is in
    // worker-seconds (jobs × wall).
    let whole = if steps_us.is_empty() { step_s } else { explore_s };
    let split = [
        ("engine.seed", total("engine.seed")),
        ("engine.self", engine_self_s),
        ("solver.sat", sat_s),
        ("solver.cache", cache_s),
        ("solver.route", route_s),
        ("solver.other", other_s),
        ("engine.report", total("engine.report")),
        ("residual", residual_s),
    ];
    let parts: Vec<String> = split
        .iter()
        .map(|(name, v)| format!("{name} {v:.3} s ({:.1}%)", 100.0 * ratio(*v, whole)))
        .collect();
    out.notes.push(format!("self-time split of {whole:.3} s: {}", parts.join(", ")));

    if let Some((label, value, beyond)) = stats::tail_percentile(&steps_us) {
        out.notes.push(format!(
            "engine.step latency: {label} = {value:.1} us ({beyond} of {} steps beyond it)",
            steps_us.len()
        ));
    }
    for (name, l) in &layers {
        out.notes.push(format!(
            "span {name}: {} calls, total {:.6} s, self {:.6} s",
            l.calls, l.total_s, l.self_s
        ));
    }
}
