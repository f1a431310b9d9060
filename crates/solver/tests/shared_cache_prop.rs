//! Shared solver-cache fabric: differential and property suite.
//!
//! Three families of checks over [`SharedSolverCache`]:
//!
//! 1. **Result invariance** — with canonical models, turning the
//!    cross-worker cache fabric on must not change a single generated
//!    byte. Every core workload runs shared-on vs shared-off at
//!    `jobs ∈ {1, 2, 4}` under both schedulers and the sorted test
//!    bytes are compared exactly. This is the contract that lets the
//!    fabric default on: a shared verdict is just a verdict some other
//!    worker computed first, and a canonical minimal model depends only
//!    on the path condition's semantics, never on who solved it.
//! 2. **Collision regression** — the exact tier is hash-bucketed but
//!    full-key verified; two distinct constraint sets force-published
//!    under the *same* 64-bit hash must never alias each other's
//!    verdicts (the cross-worker variant of the private `QueryCache`'s
//!    key-verification guarantee).
//! 3. **Sync monotonicity** — the store is append-only and mirrors are
//!    cursor-based, so a worker's mirror can only ever grow: under any
//!    interleaving of publishes and syncs, `shared_mirror_entries()`
//!    never decreases, never exceeds `published()`, and catches up
//!    exactly after a final sync.

use std::sync::Arc;

use proptest::prelude::*;
use symmerge_core::{
    EngineConfig, MergeMode, ParallelConfig, ParallelEngine, QceConfig, RunReport, SchedulerKind,
    StrategyKind, TestKind,
};
use symmerge_expr::{ExprId, ExprPool};
use symmerge_solver::{Model, SharedSolverCache, Solver, SolverConfig};
use symmerge_workloads::{by_name, InputConfig};

/// The twelve core differential workloads at the exhaustive input sizes
/// the top-level suite pins (see `tests/differential.rs`).
const WORKLOADS: &[(&str, InputConfig)] = &[
    ("echo", InputConfig { n_args: 2, arg_len: 2, stdin_len: 0 }),
    ("link", InputConfig { n_args: 2, arg_len: 2, stdin_len: 0 }),
    ("sleep", InputConfig { n_args: 2, arg_len: 1, stdin_len: 0 }),
    ("nice", InputConfig { n_args: 2, arg_len: 2, stdin_len: 0 }),
    ("basename", InputConfig { n_args: 1, arg_len: 3, stdin_len: 0 }),
    ("dirname", InputConfig { n_args: 1, arg_len: 3, stdin_len: 0 }),
    ("cut", InputConfig { n_args: 2, arg_len: 2, stdin_len: 0 }),
    ("test", InputConfig { n_args: 2, arg_len: 2, stdin_len: 0 }),
    ("wc", InputConfig { n_args: 0, arg_len: 1, stdin_len: 3 }),
    ("rev", InputConfig { n_args: 0, arg_len: 1, stdin_len: 3 }),
    ("sum", InputConfig { n_args: 0, arg_len: 1, stdin_len: 3 }),
    ("cat", InputConfig { n_args: 1, arg_len: 1, stdin_len: 2 }),
];

/// A generated test collapsed to comparable bytes: termination class,
/// input assignments, predicted outputs (sorted — the reduction orders
/// tests by stable key, worker interleavings by completion).
type TestBytes = (String, Vec<(String, u64)>, Vec<u64>);

fn test_bytes(report: &RunReport) -> Vec<TestBytes> {
    let mut v: Vec<TestBytes> = report
        .tests
        .iter()
        .map(|t| {
            let class = match &t.kind {
                TestKind::Halted => "halted".to_string(),
                TestKind::Returned => "returned".to_string(),
                TestKind::AssertFailure { msg } => format!("assert:{msg}"),
            };
            (class, t.inputs.clone(), t.predicted_outputs.clone())
        })
        .collect();
    v.sort();
    v
}

/// One exhaustive parallel run with the shared-cache fabric pinned
/// explicitly, canonical models on,
/// and the same tiny round quota the top-level differential uses so
/// states migrate across workers constantly.
fn run(
    name: &str,
    cfg: InputConfig,
    scheduler: SchedulerKind,
    jobs: u32,
    shared: bool,
    incremental: bool,
) -> RunReport {
    let program = by_name(name).unwrap_or_else(|| panic!("unknown workload {name}")).program(&cfg);
    let config = EngineConfig {
        merge_mode: MergeMode::None,
        strategy: StrategyKind::Bfs,
        qce: QceConfig { alpha: 1e-12, ..QceConfig::default() },
        solver: SolverConfig {
            canonical_models: true,
            shared_cache: shared,
            use_incremental: incremental,
            ..SolverConfig::default()
        },
        seed: 11,
        ..EngineConfig::default()
    };
    let par = ParallelConfig { jobs, steps_per_round: 48, scheduler, ..Default::default() };
    let report =
        ParallelEngine::new(program, config, par).expect("workload programs validate").run();
    assert!(
        !report.hit_budget,
        "{name} {scheduler:?} jobs={jobs} shared={shared}: differential requires exhaustive runs"
    );
    report
}

/// Shared-on vs shared-off byte identity across both schedulers and
/// `jobs ∈ {1, 2, 4}` for a slice of the workload table.
fn shared_differential_for(workloads: &[(&str, InputConfig)], incremental: bool) {
    for &(name, cfg) in workloads {
        for scheduler in [SchedulerKind::Bsp, SchedulerKind::Steal] {
            for jobs in [1, 2, 4] {
                let off = run(name, cfg, scheduler, jobs, false, incremental);
                let on = run(name, cfg, scheduler, jobs, true, incremental);
                let who = format!(
                    "{name}: {scheduler:?} jobs={jobs} incr={incremental} shared on vs off"
                );
                assert_eq!(
                    (off.completed_paths, off.completed_multiplicity, off.covered_blocks),
                    (on.completed_paths, on.completed_multiplicity, on.covered_blocks),
                    "{who}: observable counters differ"
                );
                assert_eq!(
                    test_bytes(&off),
                    test_bytes(&on),
                    "{who}: canonical models must make generated tests byte-identical"
                );
            }
        }
    }
}

#[test]
fn shared_cache_differential_args_workloads_first_half() {
    shared_differential_for(&WORKLOADS[0..4], true);
}

#[test]
fn shared_cache_differential_args_workloads_second_half() {
    shared_differential_for(&WORKLOADS[4..8], true);
}

#[test]
fn shared_cache_differential_stdin_and_mixed_workloads() {
    shared_differential_for(&WORKLOADS[8..], true);
}

/// The re-blast scheme (`use_incremental = false`) routes every query
/// through input-group slicing, so the shared store sees whole-query
/// verdicts from a second solving path. Pin byte identity on that path
/// too. A spread of args/stdin/mixed workloads keeps the (slower)
/// re-blast runs bounded.
#[test]
fn shared_cache_differential_reblast_scheme() {
    shared_differential_for(&[WORKLOADS[1], WORKLOADS[6], WORKLOADS[8], WORKLOADS[11]], false);
}

/// Builds `n` structurally distinct single-constraint sets over one pool.
fn distinct_constraints(pool: &mut ExprPool, n: usize) -> Vec<ExprId> {
    let zero = pool.bv_const(0, 8);
    (0..n)
        .map(|i| {
            let x = pool.input(&format!("x{i}"), 8);
            pool.ne(x, zero)
        })
        .collect()
}

/// Two distinct sets force-published under the same 64-bit hash must
/// resolve to their own verdicts — the bucket is shared, the full-key
/// verification is not. A worker that trusted the hash alone would leak
/// one path condition's verdict to an unrelated one.
#[test]
fn cross_worker_full_key_collision_cannot_alias() {
    let mut pool = ExprPool::new(8);
    let cs = distinct_constraints(&mut pool, 2);
    let (set_a, set_b) = (&cs[0..1], &cs[1..2]);
    let cache = SharedSolverCache::new();

    const H: u64 = 0xDEAD_BEEF_DEAD_BEEF;
    assert!(cache.publish_verdict(H, set_a, None), "first publication must land");
    // The colliding set must miss, not inherit A's unsat verdict.
    assert_eq!(cache.verdict_for(H, set_b), None, "distinct set aliased through a hash bucket");
    assert_eq!(cache.verdict_for(H, set_a), Some(None), "publisher's own verdict lost");

    // Publish B under the same hash with the *opposite* verdict and
    // confirm both keys still resolve independently.
    let model = Model::new();
    assert!(cache.publish_verdict(H, set_b, Some(&model)));
    assert_eq!(cache.verdict_for(H, set_a), Some(None));
    assert!(matches!(cache.verdict_for(H, set_b), Some(Some(_))));
    assert_eq!(cache.published(), 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64).seed(0x5AAD_CAFE))]

    /// Under any interleaving of publishes and syncs, a worker's mirror
    /// is monotone: `shared_mirror_entries()` never decreases, never
    /// overtakes the store's `published()` count, and equals it after a
    /// final sync. This is the property that makes append-only +
    /// cursor mirrors safe — an entry a worker has acted on can never
    /// vanish out from under it.
    #[test]
    fn mirror_sync_is_monotone(ops in proptest::collection::vec(0u8..4, 1..48)) {
        let mut pool = ExprPool::new(8);
        let cs = distinct_constraints(&mut pool, ops.len());
        let cache = SharedSolverCache::new();
        let mut solver = Solver::new(SolverConfig {
            shared_cache: true,
            ..SolverConfig::default()
        });
        solver.attach_shared_cache(Arc::clone(&cache));

        let mut next = 0usize;
        let mut last_seen = 0usize;
        for op in ops {
            match op {
                // Publish a fresh unsat / sat exact verdict.
                0 => {
                    cache.publish_verdict(next as u64, &cs[next..=next], None);
                    next += 1;
                }
                1 => {
                    cache.publish_verdict(next as u64, &cs[next..=next], Some(&Model::new()));
                    next += 1;
                }
                // Re-publish the latest set: a no-op the mirror must
                // not count twice.
                2 if next > 0 => {
                    let last = next - 1;
                    cache.publish_verdict(last as u64, &cs[last..=last], None);
                }
                2 => {}
                // Sync the mirror mid-stream.
                _ => solver.sync_shared_cache(),
            }
            let seen = solver.shared_mirror_entries();
            prop_assert!(seen >= last_seen, "mirror shrank: {seen} < {last_seen}");
            prop_assert!(
                seen <= cache.published(),
                "mirror overtook the store: {seen} > {}",
                cache.published()
            );
            last_seen = seen;
        }
        solver.sync_shared_cache();
        prop_assert_eq!(
            solver.shared_mirror_entries(),
            cache.published(),
            "final sync must drain every publication into the mirror"
        );
    }
}
