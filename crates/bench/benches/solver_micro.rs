//! Solver microbenchmarks: raw bit-blast + CDCL cost, the effect of the
//! query cache and independent-constraint slicing (the KLEE-style
//! optimizations whose absence/presence shifts the paper's absolute
//! numbers but not its orderings), and the incremental prefix-context
//! path vs per-query re-blasting on branch-query sequences.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use symmerge_expr::{ExprId, ExprPool};
use symmerge_solver::{Solver, SolverConfig};

/// pc-style constraint set: a chain of byte comparisons plus a final
/// arithmetic relation, mimicking a parsing path condition.
fn parsing_pc(pool: &mut ExprPool, bytes: usize) -> Vec<ExprId> {
    let mut cs = Vec::new();
    let mut sum = pool.bv_const(0, 16);
    for i in 0..bytes {
        let b = pool.input(&format!("b{i}"), 16);
        let lo = pool.bv_const(b'0' as u64, 16);
        let hi = pool.bv_const(b'9' as u64, 16);
        cs.push(pool.uge(b, lo));
        cs.push(pool.ule(b, hi));
        sum = pool.add(sum, b);
    }
    let target = pool.bv_const(200, 16);
    cs.push(pool.ugt(sum, target));
    cs
}

/// An ite-heavy constraint like a merged state produces.
fn merged_pc(pool: &mut ExprPool, depth: usize) -> Vec<ExprId> {
    let mut v = pool.bv_const(0, 16);
    for i in 0..depth {
        let c_src = pool.input(&format!("c{i}"), 16);
        let zero = pool.bv_const(0, 16);
        let cond = pool.eq(c_src, zero);
        let k1 = pool.bv_const(i as u64 + 1, 16);
        let a = pool.add(v, k1);
        let two = pool.bv_const(2, 16);
        let b = pool.mul(v, two);
        v = pool.ite(cond, a, b);
    }
    let k = pool.bv_const(17, 16);
    vec![pool.eq(v, k)]
}

fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver");
    group.sample_size(20);

    group.bench_function("parsing_pc_8bytes", |bch| {
        bch.iter_batched(
            || {
                let mut pool = ExprPool::new(16);
                let cs = parsing_pc(&mut pool, 8);
                (pool, cs)
            },
            |(pool, cs)| {
                let mut solver =
                    Solver::new(SolverConfig { use_cache: false, ..Default::default() });
                black_box(solver.check(&pool, &cs))
            },
            criterion::BatchSize::SmallInput,
        )
    });

    group.bench_function("merged_ite_pc_depth12", |bch| {
        bch.iter_batched(
            || {
                let mut pool = ExprPool::new(16);
                let cs = merged_pc(&mut pool, 12);
                (pool, cs)
            },
            |(pool, cs)| {
                let mut solver =
                    Solver::new(SolverConfig { use_cache: false, ..Default::default() });
                black_box(solver.check(&pool, &cs))
            },
            criterion::BatchSize::SmallInput,
        )
    });

    // Ablation: repeated identical query with/without the cache.
    for (label, cache) in [("cache_on", true), ("cache_off", false)] {
        group.bench_function(format!("repeat_query_{label}"), |bch| {
            let mut pool = ExprPool::new(16);
            let cs = parsing_pc(&mut pool, 6);
            let mut solver = Solver::new(SolverConfig { use_cache: cache, ..Default::default() });
            bch.iter(|| black_box(solver.check(&pool, &cs)))
        });
    }

    // Incremental contexts vs re-blast on a shared-prefix branch-query
    // sequence — the engine's feasibility pattern: the path-condition
    // prefix stays fixed while one branch conjunct after another is
    // checked. The incremental path blasts the prefix once and assumes
    // each conjunct; the re-blast path rebuilds CNF + CDCL per query.
    for (label, inc) in [("incremental", true), ("reblast", false)] {
        group.bench_function(format!("branch_sequence_{label}"), |bch| {
            bch.iter_batched(
                || {
                    let mut pool = ExprPool::new(16);
                    let prefix = parsing_pc(&mut pool, 8);
                    let extras: Vec<ExprId> = (0..16u8)
                        .map(|i| {
                            let b = pool.input(&format!("b{}", i % 8), 16);
                            let k = pool.bv_const((b'0' + i % 10) as u64, 16);
                            if i % 2 == 0 {
                                pool.ugt(b, k)
                            } else {
                                pool.ule(b, k)
                            }
                        })
                        .collect();
                    (pool, prefix, extras)
                },
                |(pool, prefix, extras)| {
                    let mut solver = Solver::new(SolverConfig {
                        use_cache: false,
                        use_independence: false,
                        use_incremental: inc,
                        ..Default::default()
                    });
                    for &e in &extras {
                        black_box(solver.check_assuming(&pool, &prefix, e));
                    }
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }

    // Forks at a branch divergence: a binary tree of branch points,
    // every divergence queried for both children — the engine's access
    // pattern under interleaving search. The second child clones the
    // warm divergence context instead of re-blasting the shared prefix.
    group.bench_function("divergence_tree_fork", |bch| {
        bch.iter_batched(
            || {
                let mut pool = ExprPool::new(16);
                let prefix = parsing_pc(&mut pool, 6);
                // Three levels of divergence conjuncts.
                let levels: Vec<(ExprId, ExprId)> = (0..3u8)
                    .map(|i| {
                        let b = pool.input(&format!("b{}", i % 6), 16);
                        let k = pool.bv_const((b'0' + 2 * i) as u64, 16);
                        let c = pool.ugt(b, k);
                        (c, pool.not(c))
                    })
                    .collect();
                (pool, prefix, levels)
            },
            |(pool, prefix, levels)| {
                let mut solver = Solver::new(SolverConfig {
                    use_cache: false,
                    use_independence: false,
                    use_incremental: true,
                    ..Default::default()
                });
                // Walk the divergence tree breadth-first, querying
                // both polarities at every node, then extending both.
                let mut frontier: Vec<Vec<ExprId>> = vec![prefix.clone()];
                for &(c, not_c) in &levels {
                    let mut next = Vec::with_capacity(frontier.len() * 2);
                    for pc in frontier {
                        black_box(solver.check_assuming(&pool, &pc, c));
                        black_box(solver.check_assuming(&pool, &pc, not_c));
                        let mut with_c = pc.clone();
                        with_c.push(c);
                        let mut with_not = pc;
                        with_not.push(not_c);
                        next.push(with_c);
                        next.push(with_not);
                    }
                    frontier = next;
                }
                // Completion-style query on every leaf.
                for pc in &frontier {
                    let t = pool.true_();
                    black_box(solver.check_assuming(&pool, pc, t));
                }
            },
            criterion::BatchSize::SmallInput,
        )
    });

    // Ablation: independent-constraint slicing on a 3-component query.
    for (label, slicing) in [("slicing_on", true), ("slicing_off", false)] {
        group.bench_function(format!("independent_components_{label}"), |bch| {
            bch.iter_batched(
                || {
                    let mut pool = ExprPool::new(16);
                    let mut cs = Vec::new();
                    for g in 0..3 {
                        let mut pool_cs = parsing_pc(&mut pool, 4);
                        // Rename inputs per group by shifting each constraint
                        // through a distinct input.
                        let x = pool.input(&format!("g{g}"), 16);
                        let k = pool.bv_const(3, 16);
                        pool_cs.push(pool.ult(x, k));
                        cs.extend(pool_cs);
                    }
                    (pool, cs)
                },
                |(pool, cs)| {
                    let mut solver = Solver::new(SolverConfig {
                        use_cache: false,
                        use_independence: slicing,
                        ..Default::default()
                    });
                    black_box(solver.check(&pool, &cs))
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }

    group.finish();
}

criterion_group!(benches, bench_solver);
criterion_main!(benches);
