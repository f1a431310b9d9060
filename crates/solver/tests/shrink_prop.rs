//! Property tests for the merged-state query-shrinking pipeline: learnt-
//! clause minimization (ccmin), ite-aware blasting, and fork-time
//! clause-DB compaction. The solver always runs every layer; each is
//! checked against a reference [`SolverContext`] built with that layer
//! off — the layers may shrink the CNF and the learnt store, never the
//! answer.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use symmerge_expr::{BvBinOp, CmpOp, ExprId, ExprPool};
use symmerge_solver::bitblast::BitBlaster;
use symmerge_solver::{
    Model, SatResult, SatSolver, SolveOutcome, Solver, SolverConfig, SolverContext,
};

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
        Just(BvBinOp::And),
        Just(BvBinOp::Or),
        Just(BvBinOp::Xor),
        Just(BvBinOp::Shl),
        Just(BvBinOp::LShr),
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

/// Builds the shape fork-time merging produces: a chain of `n` ites over
/// distinct selector conditions, each guarding a distinct merged value.
fn ite_chain(p: &mut ExprPool, n: usize) -> ExprId {
    let sel = p.input("sel", WIDTH);
    let mut e = p.bv_const(0, WIDTH);
    for i in 0..n {
        let k = p.bv_const(i as u64 + 1, WIDTH);
        let c = p.eq(sel, k);
        let v = p.input(&format!("in{}", i % NUM_INPUTS), WIDTH);
        let vk = p.add(v, k);
        e = p.ite(c, vk, e);
    }
    e
}

/// Incremental pipeline with canonical models, caches off so every query
/// reaches the shrinking layers under test.
fn base_config() -> SolverConfig {
    SolverConfig {
        use_incremental: true,
        canonical_models: true,
        use_cache: false,
        ..Default::default()
    }
}

/// The canonical minimal model of `ctx ∧ extra` over the inputs of
/// `set`: symbols in name order, each value minimized MSB first. It is
/// derived bit by bit through the public `solve_assuming_probe` alone,
/// independently of the solver's own minimization, so it is the
/// reference the solver's canonical models must equal byte for byte.
fn least_model(p: &mut ExprPool, ctx: &mut SolverContext, set: &[ExprId], extra: ExprId) -> Model {
    let mut syms = p.collect_inputs_many(set);
    syms.sort_unstable_by(|a, b| p.symbol_name(*a).cmp(p.symbol_name(*b)));
    let mut pinned = vec![extra];
    let mut model = Model::new();
    for sym in syms {
        let name = p.symbol_name(sym).to_owned();
        let x = p.input(&name, WIDTH);
        let mut value = 0u64;
        for i in (0..WIDTH).rev() {
            // Can bit `i` be 0 with the higher bits at their minimum?
            let mask = p.bv_const((0xFF << i) & 0xFF, WIDTH);
            let high = p.bv(BvBinOp::And, x, mask);
            let want = p.bv_const(value, WIDTH);
            let probe = p.eq(high, want);
            pinned.push(probe);
            if !matches!(ctx.solve_assuming_probe(p, &pinned, None), SolveOutcome::Sat(_)) {
                value |= 1 << i;
            }
            pinned.pop();
        }
        let v = p.bv_const(value, WIDTH);
        let pin = p.eq(x, v);
        pinned.push(pin);
        model.set(sym, value);
    }
    model
}

/// Decides each `(prefix, extra)` query on the default solver (context
/// forks, compaction, ccmin and ite factoring all on, canonical models)
/// and on a fresh `reference()` context holding `prefix`, then demands
/// identical verdicts and, on sat, a solver model byte-identical to the
/// reference context's canonical minimal model. Finally checks the
/// solver's timing split invariant.
fn assert_matches_reference(
    p: &mut ExprPool,
    reference: impl Fn() -> SolverContext,
    queries: &[(&[ExprId], ExprId)],
    what: &str,
) -> Result<(), TestCaseError> {
    let mut solver = Solver::new(base_config());
    for &(prefix, extra) in queries {
        let mut set: Vec<ExprId> = prefix.to_vec();
        set.push(extra);
        let ra = solver.check_assuming(p, prefix, extra);
        let mut ctx = reference();
        for &c in prefix {
            ctx.assert_constraint(p, c);
        }
        let rb = ctx.solve_assuming(p, &[extra], None);
        let same = matches!(
            (&ra, &rb),
            (SatResult::Sat(_), SolveOutcome::Sat(_))
                | (SatResult::Unsat, SolveOutcome::Unsat)
                | (SatResult::Unknown, SolveOutcome::Unknown)
        );
        prop_assert!(same, "{} off changed a verdict: {:?}", what, ra);
        if let SatResult::Sat(m) = &ra {
            prop_assert!(m.satisfies(p, &set), "bogus solver model");
            let least = least_model(p, &mut ctx, &set, extra);
            prop_assert_eq!(m, &least, "{} off changed the canonical model", what);
        }
    }
    let st = solver.stats();
    prop_assert!(
        st.time >= st.sat_time + st.cache_time + st.route_time,
        "sat_time + cache_time + route_time exceed total solver time"
    );
    Ok(())
}

proptest! {
    // Cases and seed are pinned so CI runs are exactly reproducible.
    #![proptest_config(ProptestConfig::with_cases(64).seed(0x5EED_CC01))]

    /// Learnt-clause minimization is a pure learnt-store optimization:
    /// the same query sequence with ccmin on and off must produce
    /// identical verdicts and byte-identical canonical models.
    #[test]
    fn ccmin_ablation_is_result_invariant(
        r1 in recipe(),
        r2 in recipe(),
        op in cmp_op(),
    ) {
        let mut p = ExprPool::new(WIDTH);
        let a = build(&mut p, &r1);
        let b = build(&mut p, &r2);
        let k = p.bv_const(5, WIDTH);
        let pre = p.ult(a, k);
        let ext = p.cmp(op, b, k);
        let not_ext = p.not(ext);
        let t = p.true_();
        let queries: [(&[ExprId], ExprId); 5] = [
            (&[pre], ext),
            (&[pre], not_ext),
            (&[pre, ext], t),
            (&[pre, not_ext], t),
            (&[pre, ext], not_ext),
        ];
        assert_matches_reference(&mut p, || SolverContext::with_options(false, true), &queries, "ccmin")?;
    }

    /// Minimized learnt clauses are still logical consequences of the
    /// blasted formula: asserting the negation of any stored learnt
    /// clause alongside the original CNF must be unsat.
    #[test]
    fn minimized_learnt_clauses_still_conflict(
        r1 in recipe(),
        r2 in recipe(),
        op in cmp_op(),
    ) {
        let mut p = ExprPool::new(WIDTH);
        let a = build(&mut p, &r1);
        let b = build(&mut p, &r2);
        let c = p.cmp(op, a, b);
        let mut bb = BitBlaster::new();
        bb.assert_true(&p, c);
        let cnf = bb.into_cnf();
        let mut sat = SatSolver::from_cnf(&cnf);
        sat.set_ccmin(true);
        let _ = sat.solve();
        let learnts = sat.learnt_clauses();
        let stats = sat.stats();
        if stats.learnt > 0 {
            prop_assert!(stats.learnt_lits > 0, "learnt clauses but no learnt_lits");
        }
        // Checking every learnt clause would square the runtime; the
        // first few cover both minimized and unminimized shapes.
        for clause in learnts.iter().take(8) {
            let mut probe = SatSolver::from_cnf(&cnf);
            for &l in clause {
                probe.add_clause(&[!l]);
            }
            prop_assert!(
                matches!(probe.solve(), SolveOutcome::Unsat),
                "negated learnt clause is satisfiable: minimization dropped a needed literal"
            );
        }
    }

    /// Ite-aware blasting is a pure encoding optimization: factored and
    /// per-link mux encodings of the same (merge-shaped) expressions must
    /// produce identical verdicts and byte-identical canonical models.
    #[test]
    fn ite_factoring_is_result_invariant(
        r1 in recipe(),
        chain_len in 2usize..10,
        op in cmp_op(),
    ) {
        let mut p = ExprPool::new(WIDTH);
        let a = build(&mut p, &r1);
        let chain = ite_chain(&mut p, chain_len);
        let k = p.bv_const(7, WIDTH);
        let pre = p.ule(a, k);
        let ext = p.cmp(op, chain, k);
        let not_ext = p.not(ext);
        let t = p.true_();
        let queries: [(&[ExprId], ExprId); 4] = [
            (&[pre], ext),
            (&[pre], not_ext),
            (&[pre, ext], t),
            (&[pre, not_ext], t),
        ];
        let reference = || SolverContext::with_options(true, false);
        assert_matches_reference(&mut p, reference, &queries, "ite-factor")?;
    }

    /// Fork-time compaction only discards satisfied or subsumed learnt
    /// clauses: a compacted context and its pristine clone must agree on
    /// every subsequent query, and compaction never grows the clause DB.
    #[test]
    fn compaction_preserves_verdicts(
        r1 in recipe(),
        r2 in recipe(),
        op in cmp_op(),
    ) {
        let mut p = ExprPool::new(WIDTH);
        let a = build(&mut p, &r1);
        let b = build(&mut p, &r2);
        let k = p.bv_const(5, WIDTH);
        let pre = p.ult(a, k);
        let ext = p.cmp(op, b, k);
        let not_ext = p.not(ext);
        let mut ctx = SolverContext::with_options(true, true);
        ctx.assert_constraint(&p, pre);
        // Work up a learnt store worth compacting.
        let _ = ctx.solve_assuming(&p, &[ext], None);
        let _ = ctx.solve_assuming(&p, &[not_ext], None);
        let mut pristine = ctx.fork();
        // fork() itself compacts, so the cumulative accessor is already
        // nonzero here; the explicit call must only add its own delta.
        let at_fork = ctx.clauses_compacted();
        let before = ctx.clause_count();
        let compacted = ctx.compact_learnts();
        prop_assert!(ctx.clause_count() <= before, "compaction grew the clause DB");
        prop_assert_eq!(
            at_fork + compacted, ctx.clauses_compacted(),
            "accessor disagrees with the compaction return value"
        );
        for extras in [&[ext][..], &[not_ext][..], &[][..]] {
            let rc = ctx.solve_assuming(&p, extras, None);
            let rp = pristine.solve_assuming(&p, extras, None);
            prop_assert_eq!(
                matches!(rc, SolveOutcome::Unsat),
                matches!(rp, SolveOutcome::Unsat),
                "compaction changed a verdict"
            );
        }
    }

    /// The full pipeline with every shrinking layer on against fresh
    /// contexts with all of them off (no forks, so no fork-time
    /// compaction): identical verdicts and byte-identical canonical
    /// models across a fork-driving query sequence.
    #[test]
    fn all_shrinking_layers_vs_reference(
        r1 in recipe(),
        r2 in recipe(),
        chain_len in 2usize..8,
    ) {
        let mut p = ExprPool::new(WIDTH);
        let a = build(&mut p, &r1);
        let b = build(&mut p, &r2);
        let chain = ite_chain(&mut p, chain_len);
        let k = p.bv_const(5, WIDTH);
        let pre = p.ult(a, k);
        let ext = p.ule(b, chain);
        let not_ext = p.not(ext);
        let t = p.true_();
        let queries: [(&[ExprId], ExprId); 6] = [
            (&[pre], ext),
            (&[pre], not_ext),
            (&[pre, ext], t),
            (&[pre, not_ext], t),
            (&[pre, ext], not_ext),
            (&[pre, not_ext], ext),
        ];
        let reference = || SolverContext::with_options(false, false);
        assert_matches_reference(&mut p, reference, &queries, "query-shrinking")?;
    }
}

/// A deep merge-produced ite-chain must blast to strictly fewer clauses
/// factored than per-link — and the counts are pinned exactly so any
/// encoding change is a conscious one.
#[test]
fn ite_chain_clause_counts_are_pinned() {
    let mut p = ExprPool::new(WIDTH);
    let chain = ite_chain(&mut p, 12);
    let zero = p.bv_const(0, WIDTH);
    let c = p.ugt(chain, zero);

    let mut factored = BitBlaster::with_ite_factor(true);
    factored.assert_true(&p, c);
    let factored_clauses = factored.cnf().num_clauses();

    let mut per_link = BitBlaster::with_ite_factor(false);
    per_link.assert_true(&p, c);
    let per_link_clauses = per_link.cnf().num_clauses();

    assert!(
        factored_clauses < per_link_clauses,
        "factored encoding ({factored_clauses}) not smaller than per-link ({per_link_clauses})"
    );
    // Pinned counts: update deliberately when the encoding changes.
    assert_eq!(factored_clauses, 1083, "factored clause count drifted");
    assert_eq!(per_link_clauses, 1329, "per-link clause count drifted");
}
