//! Cross-worker shared solver-verdict store ([`SharedSolverCache`]).
//!
//! PR 7's [`symmerge_expr::SharedExprPool`] made `ExprId`s globally
//! stable across the workers of a parallel run, but each worker still
//! warmed its *own* exact-match query cache from scratch — the fleet
//! paid for every verdict up to `jobs` times. This module is the
//! cache-side counterpart of the shared pool, and it copies the same
//! design:
//!
//! * a **shared, append-only store** of exact verdicts behind sharded
//!   locks — sharded 16 ways by the query's commutative
//!   [`set hash`](crate::solve) (writes take one shard's write lock, and
//!   only on first publication; duplicates are detected under a read
//!   lock first);
//! * **per-worker read mirrors** ([`SharedCacheMirror`]) that a
//!   [`crate::Solver`] consults lock-free on the query path: `sync()`
//!   copies any entries published since the last sync into the mirror's
//!   private index (cursor per shard — append-only storage is what makes
//!   a cursor sufficient), so the hot read path costs exactly what the
//!   private cache costs. A one-atomic-load version check makes the
//!   steady-state sync (nothing new) effectively free.
//!
//! Entries are **never evicted**: mirrors index into their own copies,
//! so the store only grows and a mirror can never lose an entry, which
//! `shared_cache_prop.rs` pins as the sync monotonicity property.
//! Entries are full-key verified on every hit, exactly like the private
//! [`QueryCache`](crate::solve): two distinct sets colliding on the
//! 64-bit prehash share a bucket but can never alias each other's
//! verdict, even across workers.
//!
//! **Result invariance.** Under canonical minimal models
//! ([`crate::SolverConfig::canonical_models`]) every verdict — including
//! the model — is a path-independent function of the constraint set, so
//! consuming a foreign worker's entry returns byte-for-byte what the
//! local solver would have computed; shared-on and shared-off runs are
//! byte-identical. Without canonical models, verdicts (sat/unsat) are
//! still invariant but *which* satisfying model a query returns may
//! depend on cross-worker timing: the first worker to publish a set
//! decides its stored model.

use crate::model::Model;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, LockResult, PoisonError, RwLock};
use symmerge_expr::ExprId;

/// Number of exact-tier shards (a power of two; the shard is the low
/// bits of the set hash). Matches the shared expression pool's consing
/// shard count — enough to keep publication writes from serializing at
/// the job counts this workspace targets.
const EXACT_SHARDS: usize = 16;

/// Recovers a (possibly poisoned) lock acquisition. A worker panicking
/// while holding a shard lock used to poison it and cascade the panic
/// into every other worker touching the shard — precisely the
/// all-or-nothing failure the panic-isolation layer exists to remove.
/// Recovery is sound here because the store is **append-only with
/// full-key-verified reads**: every publication pushes one fully
/// constructed record, so the worst a mid-publication panic can leave
/// behind is a pushed-but-unindexed exact entry, which readers simply
/// miss (a cache miss, never a wrong verdict).
fn recover<G>(r: LockResult<G>) -> G {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// One exact-tier shard: the published `(hash, set, verdict)` entries in
/// publication order (append-only — mirrors cursor into it) plus a
/// hash→entries index for duplicate detection and direct reads.
#[derive(Debug, Default)]
struct ExactShard {
    entries: Vec<ExactEntry>,
    index: HashMap<u64, Vec<u32>>,
}

/// A published exact verdict: `model` is `Some` for sat, `None` for
/// unsat (unknown verdicts are never published — a retry may have a
/// bigger budget).
#[derive(Debug, Clone)]
struct ExactEntry {
    hash: u64,
    set: Box<[ExprId]>,
    model: Option<Model>,
}

/// The cross-worker shared verdict store: an append-only exact-verdict
/// store behind sharded locks (full-key verified on every hit, so a
/// colliding prehash can never alias two distinct sets — not even
/// across workers). Workers read it through private lock-free mirrors
/// that catch up at step boundaries.
///
/// Construct one with [`SharedSolverCache::new`], hand the `Arc` to
/// every worker's engine, and attach it to each worker's solver
/// ([`crate::Solver::attach_shared_cache`]), which builds the worker's
/// private read mirror. Under canonical minimal models
/// ([`crate::SolverConfig::canonical_models`]) every published verdict
/// — including the model — is a path-independent function of the
/// constraint set, so consuming a foreign entry is byte-for-byte what
/// the local solver would have computed.
#[derive(Debug)]
pub struct SharedSolverCache {
    exact: Vec<RwLock<ExactShard>>,
    /// Bumped on every successful publication; mirrors compare it to
    /// skip the per-shard walk when nothing changed.
    version: AtomicUsize,
}

impl SharedSolverCache {
    /// Creates an empty store. It is unbounded, like the private query
    /// cache.
    pub fn new() -> Arc<SharedSolverCache> {
        Arc::new(SharedSolverCache {
            exact: (0..EXACT_SHARDS).map(|_| RwLock::new(ExactShard::default())).collect(),
            version: AtomicUsize::new(0),
        })
    }

    fn shard(&self, h: u64) -> &RwLock<ExactShard> {
        &self.exact[(h as usize) & (EXACT_SHARDS - 1)]
    }

    /// Publishes an exact verdict for the normalized set with prehash
    /// `h` (`model` is `Some` for sat, `None` for unsat). Returns
    /// whether the entry was newly inserted — a duplicate (some worker
    /// published the same set first) is a no-op, checked under a read
    /// lock before the write lock is taken.
    pub fn publish_verdict(&self, h: u64, set: &[ExprId], model: Option<&Model>) -> bool {
        let shard = self.shard(h);
        {
            let s = recover(shard.read());
            if lookup(&s, h, set).is_some() {
                return false;
            }
        }
        let mut s = recover(shard.write());
        // Double-check under the write lock: another worker may have
        // published between our read unlock and write lock.
        if lookup(&s, h, set).is_some() {
            return false;
        }
        let at = s.entries.len() as u32;
        s.entries.push(ExactEntry { hash: h, set: set.into(), model: model.cloned() });
        s.index.entry(h).or_default().push(at);
        self.version.fetch_add(1, Ordering::Release);
        true
    }

    /// Direct full-key-verified read of an exact verdict (`Some(None)`
    /// is a published unsat). Mirrors serve the hot path; this exists
    /// for the verification suite and debugging.
    pub fn verdict_for(&self, h: u64, set: &[ExprId]) -> Option<Option<Model>> {
        let s = recover(self.shard(h).read());
        lookup(&s, h, set).map(|e| e.model.clone())
    }

    /// Total published entries (observability; the monotonicity
    /// property compares mirror sizes against this).
    pub fn published(&self) -> usize {
        self.exact.iter().map(|s| recover(s.read()).entries.len()).sum()
    }
}

/// Full-key-verified bucket scan inside one shard.
fn lookup<'a>(shard: &'a ExactShard, h: u64, set: &[ExprId]) -> Option<&'a ExactEntry> {
    shard
        .index
        .get(&h)?
        .iter()
        .map(|&i| &shard.entries[i as usize])
        .find(|e| e.hash == h && *e.set == *set)
}

/// One mirrored exact-tier bucket: full constraint-set keys with their
/// verdicts (`None` = unsat, `Some` = sat with the published model).
type MirrorBucket = Vec<(Box<[ExprId]>, Option<Model>)>;

/// A worker-private, lock-free read mirror of a [`SharedSolverCache`].
///
/// Owned by one [`crate::Solver`]; `sync()` copies entries published
/// since the last sync (per-shard cursors over the append-only shards)
/// into a private index, after which lookups cost the same as the
/// private cache. Monotone by construction: cursors only advance and
/// mirrored entries are never dropped.
#[derive(Debug)]
pub(crate) struct SharedCacheMirror {
    shared: Arc<SharedSolverCache>,
    seen_version: usize,
    exact_cursors: [usize; EXACT_SHARDS],
    /// Mirrored exact tier, hash-bucketed with full keys like the
    /// private query cache.
    exact: HashMap<u64, MirrorBucket>,
}

impl SharedCacheMirror {
    pub(crate) fn new(shared: Arc<SharedSolverCache>) -> Self {
        SharedCacheMirror {
            shared,
            seen_version: 0,
            exact_cursors: [0; EXACT_SHARDS],
            exact: HashMap::new(),
        }
    }

    pub(crate) fn shared(&self) -> &SharedSolverCache {
        &self.shared
    }

    /// Catches the mirror up with everything published since the last
    /// sync. One atomic load when nothing changed.
    pub(crate) fn sync(&mut self) {
        let version = self.shared.version.load(Ordering::Acquire);
        if version == self.seen_version {
            return;
        }
        self.seen_version = version;
        for (i, cursor) in self.exact_cursors.iter_mut().enumerate() {
            let shard = recover(self.shared.exact[i].read());
            for e in &shard.entries[*cursor..] {
                self.exact.entry(e.hash).or_default().push((e.set.clone(), e.model.clone()));
            }
            *cursor = shard.entries.len();
        }
    }

    /// Mirrored exact verdict for `(h, set)`, full-key verified.
    pub(crate) fn verdict_for(&self, h: u64, set: &[ExprId]) -> Option<Option<&Model>> {
        self.exact.get(&h)?.iter().find(|(k, _)| **k == *set).map(|(_, m)| m.as_ref())
    }

    /// Total mirrored entries (the sync monotonicity observable).
    pub(crate) fn entries(&self) -> usize {
        self.exact.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::set_hash;
    use symmerge_expr::ExprPool;

    fn ids(pool: &mut ExprPool, names: &[&str]) -> Vec<ExprId> {
        let mut v: Vec<ExprId> = names
            .iter()
            .map(|n| {
                let x = pool.input(n, 8);
                let z = pool.bv_const(0, 8);
                pool.ne(x, z)
            })
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// A colliding prehash published by one worker must not alias
    /// another worker's distinct set — the cross-worker shape of PR 2's
    /// query-cache collision fix. The forced shared prehash lands both
    /// sets in the same shard and bucket; full-key verification must
    /// separate them.
    #[test]
    fn colliding_hashes_cannot_alias_distinct_sets() {
        let mut pool = ExprPool::new(8);
        let a = ids(&mut pool, &["a", "b"]);
        let b = ids(&mut pool, &["c", "d"]);
        assert_ne!(a, b);
        let cache = SharedSolverCache::new();
        let h = 0xDEAD_BEEF;
        assert!(cache.publish_verdict(h, &a, None));
        // Worker B's lookup of its own distinct set under the same hash.
        assert_eq!(cache.verdict_for(h, &b), None);
        assert_eq!(cache.verdict_for(h, &a), Some(None));
        // And through a mirror, which serves the real read path.
        let mut mirror = SharedCacheMirror::new(Arc::clone(&cache));
        mirror.sync();
        assert!(mirror.verdict_for(h, &b).is_none());
        assert_eq!(mirror.verdict_for(h, &a), Some(None));
    }

    #[test]
    fn duplicate_publication_is_a_no_op() {
        let mut pool = ExprPool::new(8);
        let a = ids(&mut pool, &["a", "b"]);
        let b = ids(&mut pool, &["c", "d"]);
        let cache = SharedSolverCache::new();
        let (ha, hb) = (set_hash(&a), set_hash(&b));
        assert!(cache.publish_verdict(ha, &a, None));
        assert!(!cache.publish_verdict(ha, &a, None));
        let mut m = Model::new();
        m.set(pool.intern_symbol("c"), 1);
        assert!(cache.publish_verdict(hb, &b, Some(&m)));
        // A second publication of the set, whatever its model, keeps
        // the first one.
        assert!(!cache.publish_verdict(hb, &b, Some(&Model::new())));
        assert_eq!(cache.verdict_for(hb, &b), Some(Some(m)));
        assert_eq!(cache.published(), 2);
    }

    /// A worker dying while holding shard locks must not take the rest
    /// of the fleet with it: publications and reads on the poisoned
    /// shards keep working (the append-only store has no torn states to
    /// observe). This pins the `PoisonError::into_inner` recovery — with
    /// plain `.unwrap()`/`.expect()` every call below would panic.
    #[test]
    fn poisoned_shard_does_not_cascade() {
        let mut pool = ExprPool::new(8);
        let a = ids(&mut pool, &["a", "b"]);
        let b = ids(&mut pool, &["c", "d"]);
        let cache = SharedSolverCache::new();
        let h = set_hash(&a);
        assert!(cache.publish_verdict(h, &a, None));
        // Poison every exact shard: a thread panics while holding each
        // write lock.
        let poisoner = Arc::clone(&cache);
        let t = std::thread::spawn(move || {
            let _guards: Vec<_> = poisoner.exact.iter().map(|s| s.write().unwrap()).collect();
            panic!("worker dies holding the shard locks");
        });
        assert!(t.join().is_err(), "the poisoner must have panicked");
        assert!(cache.exact.iter().all(|s| s.is_poisoned()), "locks must actually be poisoned");
        // Reads survive and still see the pre-panic entries...
        assert_eq!(cache.verdict_for(h, &a), Some(None));
        assert_eq!(cache.published(), 1);
        // ...publication still works, duplicates included...
        assert!(!cache.publish_verdict(h, &a, None));
        let mut m = Model::new();
        m.set(pool.intern_symbol("c"), 1);
        assert!(cache.publish_verdict(set_hash(&b), &b, Some(&m)));
        assert_eq!(cache.published(), 2);
        // ...and mirrors sync through the poisoned locks.
        let mut mirror = SharedCacheMirror::new(Arc::clone(&cache));
        mirror.sync();
        assert_eq!(mirror.verdict_for(h, &a), Some(None));
        assert_eq!(mirror.verdict_for(set_hash(&b), &b), Some(Some(&m)));
        assert_eq!(mirror.entries(), 2);
    }
}
