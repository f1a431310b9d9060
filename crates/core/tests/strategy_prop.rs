//! Property tests for scheduling: strategy bookkeeping under random
//! add/remove/pick interleavings, the topological order's laws, and the
//! byte-identity of the heapified `CoverageOptimized` against an O(n)
//! reference scan kept here.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use symmerge_core::strategy::{
    make_strategy, topo_cmp, CoverageOptimized, Oracle, StateMeta, Strategy as Scheduler,
};
use symmerge_core::{StateId, StrategyKind};
use symmerge_ir::{BlockId, FuncId};

struct NullOracle(StdRng);

impl Oracle for NullOracle {
    fn distance_to_uncovered(&mut self, _f: FuncId, _b: BlockId) -> Option<u32> {
        None
    }

    fn rng(&mut self) -> &mut StdRng {
        &mut self.0
    }
}

/// An oracle with mutable per-block distances that honours the heap
/// contract: distances only ever *grow* (coverage only shrinks the
/// uncovered set) and every mutation bumps the generation.
struct CovOracle {
    rng: StdRng,
    gen: u64,
    dist: HashMap<u32, u32>,
}

impl CovOracle {
    fn new(seed: u64) -> Self {
        CovOracle { rng: StdRng::seed_from_u64(seed), gen: 0, dist: HashMap::new() }
    }

    /// Simulates new coverage near `block`: its distance grows by
    /// `delta` (None stays None — unreachable stays unreachable).
    fn cover_near(&mut self, block: u32, delta: u32) {
        if let Some(d) = self.dist.get_mut(&block) {
            *d = d.saturating_add(delta);
        }
        self.gen += 1;
    }
}

impl Oracle for CovOracle {
    fn distance_to_uncovered(&mut self, _f: FuncId, block: BlockId) -> Option<u32> {
        self.dist.get(&block.0).copied()
    }

    fn coverage_generation(&self) -> u64 {
        self.gen
    }

    fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

/// The O(n) reference for [`CoverageOptimized`]: the same ε-random
/// picks off the same RNG stream and the same insertion-order
/// bookkeeping, but every ranked pick scans all live states with
/// current distances and takes the key minimum. The heap must match it
/// pick for pick.
#[derive(Default)]
struct ScanCoverage {
    metas: HashMap<StateId, StateMeta>,
    order: Vec<StateId>,
    pos: HashMap<StateId, usize>,
}

impl ScanCoverage {
    /// `CoverageOptimized`'s default random-pick probability.
    const EPSILON: f64 = 0.25;

    fn drop_from_order(&mut self, id: StateId) {
        if let Some(i) = self.pos.remove(&id) {
            self.order.swap_remove(i);
            if let Some(&moved) = self.order.get(i) {
                self.pos.insert(moved, i);
            }
        }
    }

    fn pick_ranked_scan(&self, oracle: &mut dyn Oracle) -> StateId {
        let key = |(&id, meta): (&StateId, &StateMeta)| {
            let dist = oracle
                .distance_to_uncovered(meta.func, meta.block)
                .map(u64::from)
                .unwrap_or(u64::MAX / 2);
            (dist, u64::MAX - meta.steps, u64::MAX - meta.affinity, id)
        };
        self.metas.iter().map(key).min().expect("non-empty").3
    }
}

impl Scheduler for ScanCoverage {
    fn add(&mut self, id: StateId, meta: StateMeta) {
        self.metas.insert(id, meta);
        self.pos.insert(id, self.order.len());
        self.order.push(id);
    }

    fn remove(&mut self, id: StateId) -> bool {
        self.drop_from_order(id);
        self.metas.remove(&id).is_some()
    }

    fn pick(&mut self, oracle: &mut dyn Oracle) -> Option<StateId> {
        if self.metas.is_empty() {
            return None;
        }
        let chosen = if oracle.rng().gen_bool(Self::EPSILON) {
            let k = oracle.rng().gen_range(0..self.order.len());
            self.order[k]
        } else {
            self.pick_ranked_scan(oracle)
        };
        self.drop_from_order(chosen);
        self.metas.remove(&chosen);
        Some(chosen)
    }

    fn len(&self) -> usize {
        self.metas.len()
    }
}

fn meta(topo: Vec<(u32, u32)>) -> StateMeta {
    let block = topo.last().map(|&(r, _)| r).unwrap_or(0);
    StateMeta { func: FuncId(0), block: BlockId(block), topo, steps: 0, affinity: 0 }
}

#[derive(Debug, Clone)]
enum Op {
    Add(u64),
    Remove(u64),
    Pick,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![(0u64..40).prop_map(Op::Add), (0u64..40).prop_map(Op::Remove), Just(Op::Pick),],
        1..120,
    )
}

#[derive(Debug, Clone, Copy)]
enum CovOp {
    /// `(id, block, steps, initial distance, affinity)`. Affinity is
    /// drawn from a *small* range on purpose: a removed-and-re-added id
    /// must be able to collide with its old registration on steps and
    /// affinity while differing in block, so the heap's stale-entry
    /// validation of the distance-determining location gets exercised
    /// (a monotone affinity counter would mask it).
    Add(u64, u32, u64, u32, u64),
    Remove(u64),
    Pick,
    /// Coverage invalidation: raise `block`'s distance by the delta.
    Cover(u32, u32),
}

fn cov_ops() -> impl Strategy<Value = Vec<CovOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0u64..30, 0u32..8, 0u64..4, 0u32..6, 0u64..3)
                .prop_map(|(id, b, s, d, a)| CovOp::Add(id, b, s, d, a)),
            (0u64..30).prop_map(CovOp::Remove),
            Just(CovOp::Pick),
            (0u32..8, 1u32..5).prop_map(|(b, d)| CovOp::Cover(b, d)),
        ],
        1..150,
    )
}

proptest! {
    // Cases and seed are pinned so CI runs are exactly reproducible.
    #![proptest_config(ProptestConfig::with_cases(64).seed(0x5EED_C04E))]

    /// Under any interleaving: picks return only live (added, not yet
    /// removed/picked) states, never duplicate, and `len` matches the live
    /// set size.
    #[test]
    fn strategies_respect_liveness(
        kind in prop_oneof![
            Just(StrategyKind::Dfs),
            Just(StrategyKind::Bfs),
            Just(StrategyKind::Random),
            Just(StrategyKind::CoverageOptimized),
            Just(StrategyKind::Topological),
        ],
        script in ops(),
        seed in 0u64..1000,
    ) {
        let mut strategy = make_strategy(kind);
        let mut oracle = NullOracle(StdRng::seed_from_u64(seed));
        // Note: ids may be re-added after being picked/removed — the engine
        // never does this (ids are fresh forever) but the strategy API
        // tolerates it, so the test only checks liveness discipline.
        let mut live: HashSet<u64> = HashSet::new();
        for op in script {
            match op {
                Op::Add(id) => {
                    if live.insert(id) {
                        strategy.add(StateId(id), meta(vec![(id as u32 % 7, id as u32)]));
                    }
                }
                Op::Remove(id) => {
                    let known = strategy.remove(StateId(id));
                    prop_assert_eq!(known, live.remove(&id));
                }
                Op::Pick => {
                    match strategy.pick(&mut oracle) {
                        Some(StateId(id)) => {
                            prop_assert!(live.remove(&id), "picked dead state {id}");
                        }
                        None => prop_assert!(live.is_empty(), "pick returned None with live states"),
                    }
                }
            }
            prop_assert_eq!(strategy.len(), live.len());
        }
        // Drain: every remaining live state must come out exactly once.
        let mut drained = HashSet::new();
        while let Some(StateId(id)) = strategy.pick(&mut oracle) {
            prop_assert!(drained.insert(id));
        }
        prop_assert_eq!(drained, live);
    }

    /// The heapified `CoverageOptimized` pick sequence is byte-identical
    /// to the O(n) reference scan (`ScanCoverage`) across random workloads:
    /// interleaved adds (with affinity-token churn — re-registered ids
    /// carry fresh affinity/steps), removes, picks (both the ranked and
    /// the ε-random path, driven by the same RNG stream), and mid-run
    /// coverage invalidation (distances raised monotonically, generation
    /// bumped). This is the tentpole's correctness contract: the heap is
    /// an optimization, never a behaviour change.
    #[test]
    fn cov_heap_pick_sequence_matches_scan(
        script in cov_ops(),
        seed in 0u64..500,
    ) {
        let run = |strategy: &mut dyn Scheduler| {
            let mut oracle = CovOracle::new(seed);
            let mut live: HashSet<u64> = HashSet::new();
            let mut picks: Vec<Option<StateId>> = Vec::new();
            for op in &script {
                match *op {
                    CovOp::Add(id, block, steps, dist, affinity) => {
                        if live.insert(id) {
                            oracle.dist.entry(block).or_insert(dist);
                            strategy.add(
                                StateId(id),
                                StateMeta {
                                    func: FuncId(0),
                                    block: BlockId(block),
                                    topo: vec![(block, 0)],
                                    steps,
                                    affinity,
                                },
                            );
                        }
                    }
                    CovOp::Remove(id) => {
                        strategy.remove(StateId(id));
                        live.remove(&id);
                    }
                    CovOp::Pick => {
                        let picked = strategy.pick(&mut oracle);
                        if let Some(StateId(id)) = picked {
                            live.remove(&id);
                        }
                        picks.push(picked);
                    }
                    CovOp::Cover(block, delta) => oracle.cover_near(block, delta),
                }
            }
            while let Some(id) = strategy.pick(&mut oracle) {
                live.remove(&id.0);
                picks.push(Some(id));
            }
            picks
        };
        prop_assert_eq!(
            run(&mut CoverageOptimized::default()),
            run(&mut ScanCoverage::default())
        );
    }

    /// `topo_cmp` is a total preorder consistent with its intended law:
    /// antisymmetric up to equal keys, transitive on sampled triples, and
    /// "deeper stack first" on prefix-equal stacks.
    #[test]
    fn topo_cmp_laws(
        a in proptest::collection::vec((0u32..5, 0u32..5), 1..4),
        b in proptest::collection::vec((0u32..5, 0u32..5), 1..4),
        c in proptest::collection::vec((0u32..5, 0u32..5), 1..4),
    ) {
        let (ma, mb, mc) = (meta(a.clone()), meta(b.clone()), meta(c.clone()));
        // Reflexive.
        prop_assert_eq!(topo_cmp(&ma, &ma), Ordering::Equal);
        // Antisymmetric.
        prop_assert_eq!(topo_cmp(&ma, &mb), topo_cmp(&mb, &ma).reverse());
        // Transitive (≤).
        if topo_cmp(&ma, &mb) != Ordering::Greater && topo_cmp(&mb, &mc) != Ordering::Greater {
            prop_assert_ne!(topo_cmp(&ma, &mc), Ordering::Greater);
        }
        // Prefix-equal: deeper first.
        let mut deeper = a.clone();
        deeper.push((0, 0));
        prop_assert_eq!(topo_cmp(&meta(deeper), &ma), Ordering::Less);
    }
}
