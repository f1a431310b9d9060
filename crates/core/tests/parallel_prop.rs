//! Property tests for the parallel engine's deterministic reduction and
//! the `jobs = 1` ≡ sequential contract.

use proptest::prelude::*;
use std::time::Duration;
use symmerge_core::{
    reduce_reports, Engine, EngineConfig, MergeMode, ParallelConfig, ParallelEngine, QceConfig,
    RunReport, ShardOutput, SolverStats, StrategyKind, TestCase, TestKind,
};
use symmerge_ir::minic;

/// An arbitrary small test case (the reducer only looks at observable
/// bytes, so synthetic contents exercise it as well as real runs).
fn arb_test() -> impl Strategy<Value = TestCase> {
    (
        prop_oneof![
            Just(TestKind::Halted),
            Just(TestKind::Returned),
            (0u8..4).prop_map(|n| TestKind::AssertFailure { msg: format!("m{n}") }),
        ],
        proptest::collection::vec(((0u8..4).prop_map(|n| format!("s{n}")), 0u64..8), 0..3),
        proptest::collection::vec(0u64..6, 0..3),
    )
        .prop_map(|(kind, inputs, predicted_outputs)| TestCase {
            inputs,
            predicted_outputs,
            kind,
        })
}

/// Arbitrary per-shard solver stats whose timing split upholds the
/// `time >= sat_time + cache_time + route_time` contract — the three
/// counters are disjoint segments of `time`, with recording upkeep as
/// the slack — so the reduction can be checked to preserve it.
fn arb_solver_stats() -> impl Strategy<Value = SolverStats> {
    (
        0u64..200,
        0u64..500,
        0u64..500,
        0u64..500,
        0u64..500,
        (0u64..5000, 0u64..80, 0u64..400),
        (0u64..300, 0u64..60),
        // Shared-cache fabric: the sync share is a *segment of*
        // `cache_time` (not a fourth disjoint term), exactly how a real
        // solver charges it.
        // ... paired with the unknown-retry ladder counters (nested to
        // stay under proptest's tuple-arity ceiling).
        ((0u64..50, 0u64..50, 0u64..80, 0u64..500), (0u64..40, 0u64..10, 0u64..30, 0u64..40)),
    )
        .prop_map(
            |(
                queries,
                sat_us,
                cache_us,
                route_us,
                slack_us,
                (propagations, learnt, learnt_lits),
                (gates_reused, ctx_clauses_compacted),
                (
                    (shared_query_hits, shared_cex_hits, shared_publishes, sync_us),
                    (retry_attempts, retry_reblasts, retry_recovered, forced_unknowns),
                ),
            )| SolverStats {
                queries,
                sat_calls: queries / 2,
                sat_time: Duration::from_micros(sat_us),
                cache_time: Duration::from_micros(cache_us + sync_us),
                route_time: Duration::from_micros(route_us),
                time: Duration::from_micros(sat_us + cache_us + sync_us + route_us + slack_us),
                propagations,
                learnt,
                learnt_lits,
                gates_reused,
                ctx_clauses_compacted,
                shared_query_hits,
                shared_cex_hits,
                shared_publishes,
                shared_sync_time: Duration::from_micros(sync_us),
                retry_attempts,
                retry_reblasts,
                retry_recovered,
                forced_unknowns,
                ..Default::default()
            },
        )
}

/// An arbitrary shard output with integer-valued multiplicities (what
/// real runs produce: sums of per-path multiplicities, exact in `f64`).
fn arb_shard_output() -> impl Strategy<Value = ShardOutput> {
    (
        0u64..50,
        0u32..40,
        proptest::collection::vec(arb_test(), 0..5),
        proptest::collection::vec((0u32..3, 0u32..20), 0..6),
        (0u64..1000, 0u64..1000, 0u64..20, 0usize..30),
        arb_solver_stats(),
    )
        .prop_map(
            |(completed, mult, tests, covered, (picks, steps, merges, max_worklist), solver)| {
                ShardOutput {
                    report: RunReport {
                        completed_paths: completed,
                        completed_multiplicity: f64::from(mult),
                        pruned_by_assume: completed / 3,
                        tests,
                        tests_dropped_unknown: completed / 7,
                        picks,
                        sched_picks: picks / 2,
                        sched_heap_repairs: picks / 3,
                        steps,
                        merges,
                        merge_rejects: merges * 2,
                        max_worklist,
                        leftover_states: (steps % 5) as usize,
                        steals: picks / 5,
                        stolen_states: picks / 4,
                        idle_waits: picks / 6,
                        quarantined_states: picks / 9,
                        total_blocks: 60,
                        ff_merged: merges / 2,
                        solver,
                        wall_time: Duration::from_micros(steps),
                        hit_budget: steps % 2 == 0,
                        ..RunReport::default()
                    },
                    covered,
                }
            },
        )
}

fn observable(r: &RunReport) -> impl PartialEq + std::fmt::Debug {
    (
        (
            r.completed_paths,
            r.completed_multiplicity.to_bits(),
            r.pruned_by_assume,
            r.tests.iter().map(TestCase::sort_key).collect::<Vec<_>>(),
            r.tests_dropped_unknown,
            r.picks,
            (r.sched_picks, r.sched_heap_repairs),
            r.steps,
            r.merges,
        ),
        (
            r.merge_rejects,
            r.max_worklist,
            r.leftover_states,
            r.covered_blocks,
            r.total_blocks,
            r.ff_merged,
            r.hit_budget,
        ),
        (
            (r.steals, r.stolen_states, r.idle_waits, r.quarantined_states),
            // Counters only: the timing fields of two real runs
            // legitimately differ, and their reduction is pinned by
            // `assert_timing_split`.
            (r.solver.queries, r.solver.sat_calls),
            (r.solver.propagations, r.solver.learnt, r.solver.learnt_lits),
            (r.solver.gates_reused, r.solver.ctx_clauses_compacted),
            (r.solver.shared_query_hits, r.solver.shared_cex_hits, r.solver.shared_publishes),
        ),
    )
}

/// Absorbing per-shard stats into a fleet total must preserve the
/// per-shard timing contract: sums of `sat_time`, `cache_time` and
/// `route_time` stay within the summed `time`. `shared_sync_time` is a
/// segment of `cache_time` — folding it in must not break the split,
/// and it can never exceed the cache share it lives inside.
fn assert_timing_split(r: &RunReport) {
    assert!(
        r.solver.time >= r.solver.sat_time + r.solver.cache_time + r.solver.route_time,
        "reduced stats violate time >= sat_time + cache_time + route_time: \
         {:?} < {:?} + {:?} + {:?}",
        r.solver.time,
        r.solver.sat_time,
        r.solver.cache_time,
        r.solver.route_time
    );
    assert!(
        r.solver.cache_time >= r.solver.shared_sync_time,
        "shared_sync_time must stay a segment of cache_time: {:?} > {:?}",
        r.solver.shared_sync_time,
        r.solver.cache_time
    );
}

proptest! {
    // Cases and seed are pinned so CI runs are exactly reproducible.
    #![proptest_config(ProptestConfig::with_cases(64).seed(0x5AAD_5AAD))]

    /// Reducing shard reports must not depend on the order the shards are
    /// presented in: any permutation (simulated by rotations + a reversal,
    /// which generate enough of the symmetric group to catch order
    /// dependence) yields the identical final report.
    #[test]
    fn reduction_is_permutation_invariant(
        parts in proptest::collection::vec(arb_shard_output(), 1..6),
        rotation in 0usize..6,
    ) {
        let reference = reduce_reports(&parts, 60);
        assert_timing_split(&reference);
        let k = rotation % parts.len();
        let mut rotated: Vec<ShardOutput> = parts[k..].to_vec();
        rotated.extend_from_slice(&parts[..k]);
        let from_rotated = reduce_reports(&rotated, 60);
        prop_assert_eq!(observable(&reference), observable(&from_rotated));
        prop_assert_eq!(reference.wall_time, from_rotated.wall_time);
        // Synthetic (deterministic) timing fields reduce order-invariantly.
        prop_assert_eq!(reference.solver.time, from_rotated.solver.time);
        prop_assert_eq!(reference.solver.sat_time, from_rotated.solver.sat_time);
        prop_assert_eq!(reference.solver.cache_time, from_rotated.solver.cache_time);
        prop_assert_eq!(reference.solver.route_time, from_rotated.solver.route_time);
        let mut reversed = parts.clone();
        reversed.reverse();
        let from_reversed = reduce_reports(&reversed, 60);
        prop_assert_eq!(observable(&reference), observable(&from_reversed));
        prop_assert_eq!(reference.wall_time, from_reversed.wall_time);
    }

    /// Reduction is also a pure function: reducing twice gives identical
    /// bytes (no hidden iteration-order dependence on hash maps).
    #[test]
    fn reduction_is_reproducible(parts in proptest::collection::vec(arb_shard_output(), 1..6)) {
        let a = reduce_reports(&parts, 60);
        let b = reduce_reports(&parts, 60);
        assert_timing_split(&a);
        prop_assert_eq!(observable(&a), observable(&b));
    }

    /// Every SAT-side work counter folds through the reduction as a plain
    /// per-shard sum — no counter may be dropped, double-counted, or
    /// folded asymmetrically (a `propagations`/`learnt` regression once
    /// hid here: they were accumulated on one solving path but not the
    /// other, so the fleet total depended on which path a shard took).
    #[test]
    fn solver_counters_reduce_to_the_shard_sum(
        parts in proptest::collection::vec(arb_shard_output(), 1..6),
    ) {
        let reduced = reduce_reports(&parts, 60);
        let sum = |f: fn(&SolverStats) -> u64| -> u64 {
            parts.iter().map(|p| f(&p.report.solver)).sum()
        };
        prop_assert_eq!(reduced.solver.queries, sum(|s| s.queries));
        prop_assert_eq!(reduced.solver.sat_calls, sum(|s| s.sat_calls));
        prop_assert_eq!(reduced.solver.propagations, sum(|s| s.propagations));
        prop_assert_eq!(reduced.solver.learnt, sum(|s| s.learnt));
        prop_assert_eq!(reduced.solver.learnt_lits, sum(|s| s.learnt_lits));
        prop_assert_eq!(reduced.solver.gates_reused, sum(|s| s.gates_reused));
        prop_assert_eq!(
            reduced.solver.ctx_clauses_compacted,
            sum(|s| s.ctx_clauses_compacted)
        );
        prop_assert_eq!(reduced.solver.shared_query_hits, sum(|s| s.shared_query_hits));
        prop_assert_eq!(reduced.solver.shared_cex_hits, sum(|s| s.shared_cex_hits));
        prop_assert_eq!(reduced.solver.shared_publishes, sum(|s| s.shared_publishes));
        prop_assert_eq!(reduced.solver.retry_attempts, sum(|s| s.retry_attempts));
        prop_assert_eq!(reduced.solver.retry_reblasts, sum(|s| s.retry_reblasts));
        prop_assert_eq!(reduced.solver.retry_recovered, sum(|s| s.retry_recovered));
        prop_assert_eq!(reduced.solver.forced_unknowns, sum(|s| s.forced_unknowns));
        // Quarantine accounting folds as a plain shard sum too: a
        // crashed worker's quarantined count must survive reduction.
        prop_assert_eq!(
            reduced.quarantined_states,
            parts.iter().map(|p| p.report.quarantined_states).sum::<u64>()
        );
        let sync_sum: Duration =
            parts.iter().map(|p| p.report.solver.shared_sync_time).sum();
        prop_assert_eq!(reduced.solver.shared_sync_time, sync_sum);
    }
}

const PROGRAM: &str = r#"
    fn main() {
        let x = sym_int("x");
        let y = sym_int("y");
        let acc = 0;
        if (x > 5) { acc = 1; } else { acc = 2; }
        if (y > 5) { putchar(acc); } else { putchar(acc + 2); }
        assert(x + y != 19, "pair");
    }
"#;

/// `jobs = 1` must take the exact legacy sequential code path: every
/// observable field — including raw test order, which the sharded
/// reduction canonicalizes but the sequential engine reports in
/// completion order — is byte-identical to `Engine::run`.
#[test]
fn jobs_1_exactly_matches_the_sequential_engine() {
    for mode in [MergeMode::None, MergeMode::Static, MergeMode::Dynamic] {
        let strategy = match mode {
            MergeMode::Static => StrategyKind::Topological,
            _ => StrategyKind::CoverageOptimized,
        };
        let config = EngineConfig {
            merge_mode: mode,
            strategy,
            qce: QceConfig { alpha: f64::INFINITY, ..QceConfig::default() },
            seed: 3,
            ..EngineConfig::default()
        };
        let program = minic::compile_with_width(PROGRAM, 8).unwrap();
        let sequential =
            Engine::builder(program.clone()).config(config.clone()).build().unwrap().run();
        let via_parallel = ParallelEngine::new(
            program,
            config,
            ParallelConfig { jobs: 1, steps_per_round: 7, ..Default::default() },
        )
        .unwrap()
        .run();
        assert_eq!(observable(&sequential), observable(&via_parallel), "{mode:?}");
        // Raw (unsorted) test order must match too — the fast path must
        // not reorder.
        let raw = |r: &RunReport| {
            r.tests
                .iter()
                .map(|t| (t.inputs.clone(), t.predicted_outputs.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(raw(&sequential), raw(&via_parallel), "{mode:?}: fast path reordered tests");
        assert_eq!(
            sequential.assert_failures.len(),
            via_parallel.assert_failures.len(),
            "{mode:?}"
        );
    }
}
