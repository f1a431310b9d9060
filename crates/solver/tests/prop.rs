//! End-to-end property tests: the bit-blast + CDCL pipeline must agree with
//! the expression evaluator on random expressions and assignments.

use proptest::prelude::*;
use symmerge_expr::{BvBinOp, CmpOp, ExprId, ExprPool};
use symmerge_solver::{SatResult, Solver, SolverConfig};

const WIDTH: u32 = 8;
const NUM_INPUTS: usize = 3;

/// A pool-independent recipe for a bitvector expression.
#[derive(Debug, Clone)]
enum Recipe {
    Const(u64),
    Input(u8),
    Bv(BvBinOp, Box<Recipe>, Box<Recipe>),
    Ite(CmpOp, Box<Recipe>, Box<Recipe>, Box<Recipe>, Box<Recipe>),
}

fn bv_op() -> impl Strategy<Value = BvBinOp> {
    prop_oneof![
        Just(BvBinOp::Add),
        Just(BvBinOp::Sub),
        Just(BvBinOp::Mul),
        Just(BvBinOp::UDiv),
        Just(BvBinOp::URem),
        Just(BvBinOp::SDiv),
        Just(BvBinOp::SRem),
        Just(BvBinOp::And),
        Just(BvBinOp::Or),
        Just(BvBinOp::Xor),
        Just(BvBinOp::Shl),
        Just(BvBinOp::LShr),
        Just(BvBinOp::AShr),
    ]
}

fn cmp_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ult),
        Just(CmpOp::Ule),
        Just(CmpOp::Slt),
        Just(CmpOp::Sle),
    ]
}

fn recipe() -> impl Strategy<Value = Recipe> {
    let leaf = prop_oneof![
        (0u64..256).prop_map(Recipe::Const),
        (0u8..NUM_INPUTS as u8).prop_map(Recipe::Input),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (bv_op(), inner.clone(), inner.clone()).prop_map(|(op, a, b)| Recipe::Bv(
                op,
                Box::new(a),
                Box::new(b)
            )),
            (cmp_op(), inner.clone(), inner.clone(), inner.clone(), inner).prop_map(
                |(op, a, b, t, e)| Recipe::Ite(
                    op,
                    Box::new(a),
                    Box::new(b),
                    Box::new(t),
                    Box::new(e)
                )
            ),
        ]
    })
}

fn build(p: &mut ExprPool, r: &Recipe) -> ExprId {
    match r {
        Recipe::Const(v) => p.bv_const(*v, WIDTH),
        Recipe::Input(i) => p.input(&format!("in{i}"), WIDTH),
        Recipe::Bv(op, a, b) => {
            let (a, b) = (build(p, a), build(p, b));
            p.bv(*op, a, b)
        }
        Recipe::Ite(op, a, b, t, e) => {
            let (a, b) = (build(p, a), build(p, b));
            let c = p.cmp(*op, a, b);
            let (t, e) = (build(p, t), build(p, e));
            p.ite(c, t, e)
        }
    }
}

fn no_cache_config() -> SolverConfig {
    SolverConfig { use_cache: false, use_incremental: false, ..Default::default() }
}

proptest! {
    // Cases and seed are pinned so CI runs are exactly reproducible.
    #![proptest_config(ProptestConfig::with_cases(96).seed(0x5EED_501E))]

    /// Pinning the inputs to a random environment, the circuit value of a
    /// random expression must equal the evaluator's value (both polarities).
    #[test]
    fn circuit_agrees_with_evaluator(
        r in recipe(),
        env in proptest::collection::vec(0u64..256, NUM_INPUTS),
    ) {
        let mut p = ExprPool::new(WIDTH);
        let e = build(&mut p, &r);
        // Pin inputs.
        let mut pins = Vec::new();
        for (i, &v) in env.iter().enumerate() {
            let x = p.input(&format!("in{i}"), WIDTH);
            let k = p.bv_const(v, WIDTH);
            pins.push(p.eq(x, k));
        }
        let lookup = |sym: symmerge_expr::SymbolId| {
            let idx: usize = p.symbol_name(sym).strip_prefix("in").unwrap().parse().unwrap();
            env[idx]
        };
        let want = p.eval(e, &lookup).as_bv();
        let wantc = p.bv_const(want, WIDTH);
        let agree = p.eq(e, wantc);
        let mut cs = pins.clone();
        cs.push(agree);
        let mut solver = Solver::new(no_cache_config());
        prop_assert!(solver.check(&p, &cs).is_sat(), "circuit disagrees with evaluator");
        let differ = p.not(agree);
        let mut cs = pins;
        cs.push(differ);
        prop_assert!(solver.check(&p, &cs).is_unsat(), "circuit is under-constrained");
    }

    /// Any model returned for a satisfiable random constraint actually
    /// satisfies it under the evaluator.
    #[test]
    fn models_are_genuine(
        r1 in recipe(),
        r2 in recipe(),
        op in cmp_op(),
    ) {
        let mut p = ExprPool::new(WIDTH);
        let a = build(&mut p, &r1);
        let b = build(&mut p, &r2);
        let c = p.cmp(op, a, b);
        let mut solver = Solver::new(no_cache_config());
        match solver.check(&p, &[c]) {
            SatResult::Sat(m) => prop_assert!(m.eval_bool(&p, c)),
            SatResult::Unsat => {
                // Cross-check with brute force over the (≤ 2^24) assignments
                // only when few inputs are involved; otherwise trust CDCL and
                // simply re-verify determinism.
                let syms = p.collect_inputs(c);
                if syms.len() <= 2 {
                    let n = syms.len() as u32;
                    let mut found = false;
                    'outer: for bits in 0u64..(1u64 << (8 * n)) {
                        let env = |sym: symmerge_expr::SymbolId| {
                            let pos = syms.iter().position(|&s| s == sym).unwrap();
                            bits >> (8 * pos) & 0xff
                        };
                        if p.eval_bool(c, &env) {
                            found = true;
                            break 'outer;
                        }
                    }
                    prop_assert!(!found, "solver said unsat but a witness exists");
                }
            }
            SatResult::Unknown => unreachable!("no budget configured"),
        }
    }

    /// Slicing on/off must agree on satisfiability.
    #[test]
    fn slicing_preserves_results(
        r1 in recipe(),
        r2 in recipe(),
    ) {
        let mut p = ExprPool::new(WIDTH);
        let a = build(&mut p, &r1);
        let b = build(&mut p, &r2);
        let k = p.bv_const(3, WIDTH);
        let c1 = p.ult(a, k);
        let c2 = p.ugt(b, k);
        let mut with = Solver::new(no_cache_config());
        let mut without = Solver::new(SolverConfig {
            use_independence: false,
            ..no_cache_config()
        });
        let ra = with.check(&p, &[c1, c2]);
        let rb = without.check(&p, &[c1, c2]);
        prop_assert_eq!(ra.is_sat(), rb.is_sat());
        prop_assert_eq!(ra.is_unsat(), rb.is_unsat());
    }

    /// The incremental assumption path (persistent context, extra solved
    /// under assumptions) must agree with the monolithic re-blast path on
    /// random prefix/extra splits, and its models must be genuine.
    #[test]
    fn incremental_agrees_with_reblast(
        r1 in recipe(),
        r2 in recipe(),
        r3 in recipe(),
        op in cmp_op(),
    ) {
        let mut p = ExprPool::new(WIDTH);
        let a = build(&mut p, &r1);
        let b = build(&mut p, &r2);
        let c = build(&mut p, &r3);
        let k = p.bv_const(3, WIDTH);
        let c1 = p.ult(a, k);
        let c2 = p.ugt(b, k);
        let extra = p.cmp(op, c, k);
        let mut inc = Solver::new(SolverConfig {
            use_incremental: true,
            ..no_cache_config()
        });
        let mut mono = Solver::new(SolverConfig {
            use_independence: false,
            ..no_cache_config()
        });
        // Two queries on the shared prefix exercise context reuse.
        let ri1 = inc.check_assuming(&p, &[c1, c2], extra);
        let not_extra = p.not(extra);
        let ri2 = inc.check_assuming(&p, &[c1, c2], not_extra);
        let rm1 = mono.check(&p, &[c1, c2, extra]);
        let rm2 = mono.check(&p, &[c1, c2, not_extra]);
        prop_assert_eq!(ri1.is_sat(), rm1.is_sat(), "positive polarity diverged");
        prop_assert_eq!(ri2.is_sat(), rm2.is_sat(), "negative polarity diverged");
        if let SatResult::Sat(m) = &ri1 {
            prop_assert!(m.satisfies(&p, &[c1, c2, extra]), "bogus incremental model");
        }
        if let SatResult::Sat(m) = &ri2 {
            prop_assert!(m.satisfies(&p, &[c1, c2, not_extra]), "bogus incremental model");
        }
    }

    /// In canonical-model mode, every solving path — independence slices,
    /// monolithic re-blast, incremental context — must return *exactly*
    /// the same (minimal) model, which is what lets the differential
    /// harness compare generated tests byte-for-byte.
    #[test]
    fn canonical_models_are_path_independent(
        r1 in recipe(),
        r2 in recipe(),
    ) {
        let mut p = ExprPool::new(WIDTH);
        let a = build(&mut p, &r1);
        let b = build(&mut p, &r2);
        let k = p.bv_const(3, WIDTH);
        let c1 = p.ult(a, k);
        let c2 = p.ugt(b, k);
        let canonical = |cfg: SolverConfig| SolverConfig { canonical_models: true, ..cfg };
        let mut sliced = Solver::new(canonical(no_cache_config()));
        let mut mono = Solver::new(canonical(SolverConfig {
            use_independence: false,
            ..no_cache_config()
        }));
        let mut inc = Solver::new(canonical(SolverConfig {
            use_incremental: true,
            ..no_cache_config()
        }));
        let rs = sliced.check(&p, &[c1, c2]);
        let rm = mono.check(&p, &[c1, c2]);
        let ri = inc.check_assuming(&p, &[c1], c2);
        match (&rs, &rm, &ri) {
            (SatResult::Sat(ms), SatResult::Sat(mm), SatResult::Sat(mi)) => {
                prop_assert_eq!(ms, mm, "sliced vs monolithic canonical models differ");
                prop_assert_eq!(ms, mi, "sliced vs incremental canonical models differ");
                prop_assert!(ms.satisfies(&p, &[c1, c2]));
            }
            (SatResult::Unsat, SatResult::Unsat, SatResult::Unsat) => {}
            other => prop_assert!(false, "paths disagree on satisfiability: {other:?}"),
        }
    }
}

/// The incremental config (caches off so every query really exercises
/// the context tree and its forks).
fn fork_config() -> SolverConfig {
    SolverConfig { use_incremental: true, ..no_cache_config() }
}

proptest! {
    // Cases and seed are pinned so CI runs are exactly reproducible.
    #![proptest_config(ProptestConfig::with_cases(96).seed(0xF0_4BED))]

    /// fork() ≡ fresh-blast: over random prefix/extension pairs, a solver
    /// driven down the fork path (divergence evidence seeded by querying
    /// both polarities, then both children extending the shared prefix)
    /// must return the same sat/unsat verdicts — and, in canonical-model
    /// mode, *byte-identical* models — as a solver that re-blasts every
    /// query from scratch.
    #[test]
    fn fork_equals_fresh_blast(
        r1 in recipe(),
        r2 in recipe(),
        r3 in recipe(),
        op in cmp_op(),
    ) {
        let mut p = ExprPool::new(WIDTH);
        let a = build(&mut p, &r1);
        let b = build(&mut p, &r2);
        let c = build(&mut p, &r3);
        let k = p.bv_const(5, WIDTH);
        let pre = p.ult(a, k);
        let ext = p.ugt(b, k);
        let not_ext = p.not(ext);
        let extra = p.cmp(op, c, k);
        let canonical = |cfg: SolverConfig| SolverConfig { canonical_models: true, ..cfg };
        let mut forked = Solver::new(canonical(fork_config()));
        let mut fresh = Solver::new(canonical(SolverConfig {
            use_incremental: false,
            use_independence: false,
            ..no_cache_config()
        }));
        // The branch: both polarities on [pre] record sibling evidence.
        let _ = forked.check_assuming(&p, &[pre], ext);
        let _ = forked.check_assuming(&p, &[pre], not_ext);
        // Both children extend the divergence point (fork, then move).
        let f1 = forked.check_assuming(&p, &[pre, ext], extra);
        let f2 = forked.check_assuming(&p, &[pre, not_ext], extra);
        let g1 = fresh.check(&p, &[pre, ext, extra]);
        let g2 = fresh.check(&p, &[pre, not_ext, extra]);
        for (who, f, g) in [("ext child", &f1, &g1), ("¬ext child", &f2, &g2)] {
            match (f, g) {
                (SatResult::Sat(mf), SatResult::Sat(mg)) => {
                    prop_assert_eq!(mf, mg, "{}: forked canonical model differs", who);
                }
                (SatResult::Unsat, SatResult::Unsat) => {}
                other => prop_assert!(false, "{who}: verdicts diverge: {other:?}"),
            }
        }
        if let SatResult::Sat(m) = &f1 {
            prop_assert!(m.satisfies(&p, &[pre, ext, extra]), "bogus forked model");
        }
    }

}
