//! Forks are memcpys: a counting global allocator shows that
//! [`SatSolver::fork`] and [`SolverContext::fork`] make the same small
//! number of heap allocations however many clauses the forked database
//! holds. The solver keeps every clause in one literal arena behind
//! fixed-size headers and every watch list in one pool, and a context
//! keeps no second copy of its clauses, so a fork copies a fixed set of
//! flat vectors instead of allocating once per clause or watch list.

// A `GlobalAlloc` impl is unsafe by definition; this test binary is the
// only place the workspace's `unsafe_code` lint is relaxed, and the impl
// only forwards to `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use symmerge_expr::{ExprId, ExprPool};
use symmerge_solver::{Cnf, Lit, SatSolver, SolverContext};

/// Forwards to the system allocator, counting allocations per thread so
/// tests running in parallel do not see each other's.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; counting touches only a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// A satisfiable-leaning random 3-SAT instance (3 clauses per variable),
/// solved once so the solver also carries learnt clauses, phases and
/// activities.
fn solved_3sat(num_vars: usize, seed: u64) -> SatSolver {
    let mut state = seed;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut cnf = Cnf::new();
    let vars: Vec<Lit> = (0..num_vars).map(|_| cnf.new_lit()).collect();
    for _ in 0..3 * num_vars {
        let clause: Vec<Lit> = (0..3)
            .map(|_| {
                let v = vars[next() as usize % num_vars];
                if next() & 1 == 0 {
                    v
                } else {
                    !v
                }
            })
            .collect();
        cnf.add_clause(&clause);
    }
    let mut s = SatSolver::from_cnf(&cnf);
    let _ = s.solve();
    s
}

#[test]
fn sat_fork_allocations_do_not_grow_with_the_database() {
    let small = solved_3sat(60, 0x9e37_79b9_7f4a_7c15);
    let large = solved_3sat(1_200, 0x2545_f491_4f6c_dd1d);
    assert!(
        large.num_clauses() >= 10 * small.num_clauses(),
        "need a 10x spread: {} vs {} clauses",
        large.num_clauses(),
        small.num_clauses()
    );
    let (small_fork, small_allocs) = allocations(|| small.fork());
    let (large_fork, large_allocs) = allocations(|| large.fork());
    assert_eq!(small_fork.num_clauses(), small.num_clauses());
    assert_eq!(large_fork.num_clauses(), large.num_clauses());
    assert_eq!(
        small_allocs, large_allocs,
        "a fork copies a fixed set of vectors, whatever their length"
    );
    assert!(small_allocs <= 20, "one allocation per flat vector, got {small_allocs}");
}

/// A context asserting `x op y == k` at `width` bits: the same five
/// expression nodes — so the same blaster cache entries — for every
/// `op` and width, but very different clause counts.
fn context(width: u32, op: fn(&mut ExprPool, ExprId, ExprId) -> ExprId) -> SolverContext {
    let mut p = ExprPool::new(8);
    let x = p.input("x", width);
    let y = p.input("y", width);
    let applied = op(&mut p, x, y);
    let k = p.bv_const(77, width);
    let c = p.eq(applied, k);
    let mut ctx = SolverContext::new();
    ctx.assert_constraint(&p, c);
    ctx
}

#[test]
fn context_fork_allocations_do_not_grow_with_clause_count() {
    let mut small = context(8, ExprPool::add);
    let mut large = context(32, ExprPool::mul);
    // Compact first, as an earlier fork would have: the measured forks'
    // own compaction then finds nothing to do, and what is counted is
    // the snapshot itself.
    small.compact_learnts();
    large.compact_learnts();
    assert!(
        large.clause_count() >= 10 * small.clause_count(),
        "need a 10x spread: {} vs {} clauses",
        large.clause_count(),
        small.clause_count()
    );
    let (small_fork, small_allocs) = allocations(|| small.fork());
    let (large_fork, large_allocs) = allocations(|| large.fork());
    assert_eq!(small_fork.clause_count(), small.clause_count());
    assert_eq!(large_fork.clause_count(), large.clause_count());
    assert_eq!(
        small_allocs, large_allocs,
        "at a fixed blaster cache size, a context fork's allocations are fixed"
    );
}
