//! A CDCL SAT solver: watched literals, first-UIP learning, VSIDS,
//! phase saving, Luby restarts and learnt-clause database reduction.
//!
//! The design follows MiniSat's architecture, including its *incremental*
//! interface: clauses and variables can be added between solves
//! ([`SatSolver::add_clause`] / [`SatSolver::ensure_vars`]) and queries can
//! be posed under assumption literals
//! ([`SatSolver::solve_under_assumptions`]), which keeps learnt clauses,
//! variable activities and saved phases alive across a whole sequence of
//! related queries. The non-incremental usage (fresh CNF, fresh solver per
//! query — how KLEE drives STP in the paper's prototype) is the special
//! case [`SatSolver::from_cnf`] + [`SatSolver::solve`].

use crate::cnf::{Cnf, Lit, Var};

/// The result of a SAT call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveOutcome {
    /// Satisfiable, with a full assignment indexed by variable.
    Sat(Vec<bool>),
    /// Unsatisfiable.
    Unsat,
    /// The conflict budget was exhausted before a decision was reached.
    Unknown,
}

/// Counters describing the work a [`SatSolver`] performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SatStats {
    /// Number of branching decisions.
    pub decisions: u64,
    /// Number of literal propagations.
    pub propagations: u64,
    /// Number of conflicts analyzed.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of clauses learnt.
    pub learnt: u64,
    /// Total literals across stored learnt clauses, counted *after*
    /// conflict-clause minimization — `learnt_lits / learnt` is the mean
    /// learnt-clause width, the observable that ccmin shrinks.
    pub learnt_lits: u64,
}

/// Fixed-size clause header. A clause's literals live in the solver's
/// literal arena at `start..start + len`; clause refs (`u32`) index the
/// header vector, and a header never changes slot, so refs held by watch
/// lists and reasons stay valid however the arena is compacted.
#[derive(Debug, Clone, Copy)]
struct ClauseHeader {
    start: u32,
    /// Literal count in the low bits, plus the [`LEARNT`] and
    /// [`DELETED`] flags.
    len_flags: u32,
    activity: f64,
}

const LEARNT: u32 = 1 << 31;
const DELETED: u32 = 1 << 30;
const LEN_MASK: u32 = DELETED - 1;

impl ClauseHeader {
    fn len(self) -> usize {
        (self.len_flags & LEN_MASK) as usize
    }

    fn learnt(self) -> bool {
        self.len_flags & LEARNT != 0
    }

    fn deleted(self) -> bool {
        self.len_flags & DELETED != 0
    }

    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.start as usize + self.len()
    }

    fn set_len(&mut self, len: usize) {
        self.len_flags = (self.len_flags & !LEN_MASK) | len as u32;
    }
}

/// One literal's watch list: a `(start, len, cap)` segment of the shared
/// watch pool.
#[derive(Debug, Clone, Copy, Default)]
struct WatchSeg {
    start: u32,
    len: u32,
    cap: u32,
}

/// Every literal's watch list in one `u32` pool (indexed by
/// [`Lit::code`]). A list that outgrows its segment moves to the end of
/// the pool and leaves its old segment behind as waste, which
/// [`WatchLists::pack`] and [`WatchLists::rebuild`] reclaim. Entry order
/// within a list is exactly the order the entries were pushed or kept.
#[derive(Debug, Clone, Default)]
struct WatchLists {
    segs: Vec<WatchSeg>,
    pool: Vec<u32>,
    /// Pool slots no segment owns any more.
    waste: usize,
}

impl WatchLists {
    fn add_literal(&mut self) {
        let start = to_u32(self.pool.len());
        self.segs.push(WatchSeg { start, len: 0, cap: 0 });
    }

    #[cfg(test)]
    fn list(&self, code: usize) -> &[u32] {
        let s = self.segs[code];
        &self.pool[s.start as usize..(s.start + s.len) as usize]
    }

    fn push(&mut self, code: usize, cref: u32) {
        let mut s = self.segs[code];
        if s.len == s.cap {
            let new_cap = (s.cap * 2).max(4);
            if (s.start + s.cap) as usize == self.pool.len() {
                // The last segment in the pool grows in place.
                self.pool.resize((s.start + new_cap) as usize, 0);
            } else {
                let old = s.start as usize..(s.start + s.len) as usize;
                let start = self.pool.len();
                self.pool.extend_from_within(old);
                self.pool.resize(start + new_cap as usize, 0);
                self.waste += s.cap as usize;
                s.start = to_u32(start);
            }
            s.cap = new_cap;
        }
        self.pool[(s.start + s.len) as usize] = cref;
        s.len += 1;
        self.segs[code] = s;
    }

    /// Rebuilds every list from the clause database: each live clause
    /// (stored clauses have at least two literals) is watched by
    /// `lits[0]` and `lits[1]`, and every list holds its clauses in ref
    /// order. Segments are sized exactly, so the pool never outgrows the
    /// lists it held before.
    fn rebuild(&mut self, headers: &[ClauseHeader], arena: &[Lit]) {
        let watched = || {
            let live = headers.iter().enumerate().filter(|(_, h)| !h.deleted());
            live.map(|(i, h)| (to_u32(i), arena[h.start as usize], arena[h.start as usize + 1]))
        };
        for s in &mut self.segs {
            s.len = 0;
        }
        for (_, a, b) in watched() {
            self.segs[a.code()].len += 1;
            self.segs[b.code()].len += 1;
        }
        let mut offset = 0u32;
        for s in &mut self.segs {
            *s = WatchSeg { start: offset, len: 0, cap: s.len };
            offset += s.cap;
        }
        self.pool.clear();
        self.pool.resize(offset as usize, 0);
        for (cref, a, b) in watched() {
            for lit in [a, b] {
                let s = &mut self.segs[lit.code()];
                self.pool[(s.start + s.len) as usize] = cref;
                s.len += 1;
            }
        }
        self.waste = 0;
    }

    /// Packs every list into a fresh, exactly sized pool, keeping each
    /// list's entries in order.
    fn pack(&mut self) {
        let mut pool = Vec::with_capacity(self.pool.len() - self.waste);
        for s in &mut self.segs {
            let start = to_u32(pool.len());
            pool.extend_from_slice(&self.pool[s.start as usize..(s.start + s.len) as usize]);
            *s = WatchSeg { start, len: s.len, cap: s.len };
        }
        self.pool = pool;
        self.waste = 0;
    }
}

fn to_u32(n: usize) -> u32 {
    u32::try_from(n).expect("solver storage exceeds u32 indexing")
}

const UNASSIGNED: i8 = -1;

/// A CDCL SAT solver over a fixed CNF.
///
/// The clause database is flat: one literal arena plus fixed-size
/// headers, and one pool for all watch lists. Every field is a `Vec` of
/// plain values, so [`SatSolver::fork`] is a fixed number of `Vec`
/// copies whatever the clause and variable counts.
#[derive(Debug, Clone)]
pub struct SatSolver {
    headers: Vec<ClauseHeader>,
    arena: Vec<Lit>,
    /// Arena slots no live clause owns (deleted clauses, literals
    /// stripped by strengthening), reclaimed by `pack_arena`.
    arena_waste: usize,
    watches: WatchLists,
    assigns: Vec<i8>, // UNASSIGNED / 0 (false) / 1 (true)
    level: Vec<u32>,
    reason: Vec<Option<u32>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    heap: Vec<u32>,     // binary max-heap of variables by activity
    heap_pos: Vec<i32>, // var -> position in heap, or -1
    phase: Vec<bool>,
    seen: Vec<bool>,
    ok: bool,
    num_learnt: usize,
    /// Live (non-deleted) stored clauses, original + learnt — the O(1)
    /// size signal the solver-context tree charges clause-weighted
    /// eviction with. Unit clauses are enqueued on the trail rather than
    /// stored and are not counted.
    live_clauses: usize,
    conflict_budget: Option<u64>,
    failed_assumptions: Vec<Lit>,
    ccmin: bool,
    /// Level-0 trail length at the last [`SatSolver::compact_learnts`]
    /// full-DB sweep — the original-clause pass is skipped until new
    /// level-0 facts arrive, so repeated forks of the same parent only
    /// re-scan the (small) learnt store.
    compacted_trail: usize,
    stats: SatStats,
}

impl SatSolver {
    /// Builds a solver over the given CNF.
    pub fn from_cnf(cnf: &Cnf) -> Self {
        let n = cnf.num_vars();
        let mut s = SatSolver {
            headers: Vec::with_capacity(cnf.num_clauses()),
            arena: Vec::new(),
            arena_waste: 0,
            watches: WatchLists { segs: vec![WatchSeg::default(); 2 * n], ..Default::default() },
            assigns: vec![UNASSIGNED; n],
            level: vec![0; n],
            reason: vec![None; n],
            trail: Vec::with_capacity(n),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: vec![0.0; n],
            var_inc: 1.0,
            cla_inc: 1.0,
            heap: Vec::with_capacity(n),
            heap_pos: vec![-1; n],
            phase: vec![false; n],
            seen: vec![false; n],
            ok: true,
            num_learnt: 0,
            live_clauses: 0,
            conflict_budget: None,
            failed_assumptions: Vec::new(),
            ccmin: true,
            compacted_trail: 0,
            stats: SatStats::default(),
        };
        for v in 0..n as u32 {
            s.heap_insert(v);
        }
        for clause in cnf.clauses() {
            s.add_clause(clause);
            if !s.ok {
                break;
            }
        }
        s
    }

    /// Snapshots the solver into an independent copy: clause database
    /// (including every learnt clause), variable activities and order
    /// heap, saved phases, and the level-0 trail all carry over, so the
    /// fork resumes with the full heuristic state of the parent instead
    /// of relearning it.
    ///
    /// The copy is a fixed number of `Vec` memcpys: clauses live in one
    /// literal arena behind fixed-size headers and the watch lists in one
    /// pool, so no clause or list is allocated on its own. Callers that
    /// fork repeatedly run [`SatSolver::compact_learnts`] first, which
    /// also packs both pools so the copy carries no dead space.
    ///
    /// Forking is only meaningful between queries —
    /// [`SatSolver::solve_under_assumptions`] always backtracks to
    /// decision level 0 before returning, so nothing above level 0 can
    /// leak into the snapshot. Keeping learnt clauses is sound because
    /// they are implied by the clause database alone (assumptions are
    /// decisions, never clauses), and the incremental usage only ever
    /// *adds* clauses: everything the parent learnt remains implied in
    /// the fork no matter how the two diverge afterwards.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the solver is at decision level 0.
    pub fn fork(&self) -> SatSolver {
        debug_assert_eq!(self.decision_level(), 0, "fork mid-query");
        self.clone()
    }

    /// Limits the number of conflicts *per solve call* before the solver
    /// gives up with [`SolveOutcome::Unknown`]; `None` removes the limit.
    ///
    /// The budget is relative to each call, not cumulative, so a reused
    /// incremental solver gets a fresh allowance on every
    /// [`SatSolver::solve_under_assumptions`].
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.conflict_budget = budget;
    }

    /// Enables or disables recursive conflict-clause minimization
    /// (MiniSat-style ccmin). On by default, and the solver never turns
    /// it off: the unminimized analysis survives as the reference the
    /// shrink property suite compares against. Minimization only
    /// shrinks learnt clauses — every dropped literal is implied by the
    /// remaining ones — so the setting never changes verdicts, only
    /// clause widths.
    pub fn set_ccmin(&mut self, on: bool) {
        self.ccmin = on;
    }

    /// Snapshots the live learnt clauses. Every returned clause is implied
    /// by the original clause database (test hook: re-asserting its
    /// negation must be unsat even after minimization).
    pub fn learnt_clauses(&self) -> Vec<Vec<Lit>> {
        self.headers
            .iter()
            .filter(|h| h.learnt() && !h.deleted())
            .map(|h| self.arena[h.range()].to_vec())
            .collect()
    }

    /// Work counters.
    pub fn stats(&self) -> SatStats {
        self.stats
    }

    /// Number of live (non-deleted) stored clauses, original + learnt —
    /// the memory-residency proxy clause-weighted context eviction
    /// charges by. O(1): maintained incrementally.
    pub fn num_clauses(&self) -> usize {
        self.live_clauses
    }

    /// Whether the clause database is still consistent. Once this turns
    /// `false` the formula is unsatisfiable regardless of assumptions.
    pub fn is_consistent(&self) -> bool {
        self.ok
    }

    /// After an [`SolveOutcome::Unsat`] from
    /// [`SatSolver::solve_under_assumptions`] with `is_consistent()` still
    /// true: a subset of the assumption literals that already conflicts
    /// with the clause database (an assumption core).
    ///
    /// Note: the high-level `Solver` currently assumes a single extra
    /// literal per query, where this core is degenerate (it is that
    /// literal); its counterexample cache instead refines unsat cores
    /// from independence slices and dead context prefixes. This API is
    /// for multi-assumption callers of the incremental solver.
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.failed_assumptions
    }

    /// Grows the variable tables to at least `n` variables so literals
    /// over new variables can appear in subsequently added clauses and
    /// assumptions (incremental clause addition).
    pub fn ensure_vars(&mut self, n: usize) {
        while self.assigns.len() < n {
            let v = self.assigns.len() as u32;
            self.watches.add_literal();
            self.watches.add_literal();
            self.assigns.push(UNASSIGNED);
            self.level.push(0);
            self.reason.push(None);
            self.activity.push(0.0);
            self.heap_pos.push(-1);
            self.phase.push(false);
            self.seen.push(false);
            self.heap_insert(v);
        }
    }

    fn value(&self, l: Lit) -> Option<bool> {
        match self.assigns[l.var().index()] {
            UNASSIGNED => None,
            v => Some((v == 1) != l.is_negative()),
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause at decision level 0. Usable between solves for
    /// incremental clause addition; all variables must already exist
    /// (see [`SatSolver::ensure_vars`]).
    pub fn add_clause(&mut self, lits: &[Lit]) {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok {
            return;
        }
        // Canonicalize: drop duplicates / satisfied clauses / false lits.
        let mut ls: Vec<Lit> = lits.to_vec();
        ls.sort_unstable();
        ls.dedup();
        let mut out = Vec::with_capacity(ls.len());
        for &l in &ls {
            if ls.contains(&!l) {
                return; // tautology
            }
            match self.value(l) {
                Some(true) => return, // already satisfied at level 0
                Some(false) => {}     // drop the false literal
                None => out.push(l),
            }
        }
        match out.len() {
            0 => self.ok = false,
            1 => {
                self.enqueue(out[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
            }
            _ => {
                self.store_clause(&out, false, 0.0);
            }
        }
    }

    /// Appends a clause of at least two literals to the arena and
    /// watches its first two; returns its ref.
    fn store_clause(&mut self, lits: &[Lit], learnt: bool, activity: f64) -> u32 {
        let cref = to_u32(self.headers.len());
        self.watches.push(lits[0].code(), cref);
        self.watches.push(lits[1].code(), cref);
        let start = to_u32(self.arena.len());
        self.arena.extend_from_slice(lits);
        let flags = if learnt { LEARNT } else { 0 };
        self.headers.push(ClauseHeader { start, len_flags: to_u32(lits.len()) | flags, activity });
        if learnt {
            self.num_learnt += 1;
        }
        self.live_clauses += 1;
        cref
    }

    fn enqueue(&mut self, l: Lit, reason: Option<u32>) {
        debug_assert_eq!(self.value(l), None);
        let v = l.var().index();
        self.assigns[v] = i8::from(!l.is_negative());
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.phase[v] = !l.is_negative();
        self.trail.push(l);
    }

    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            // Walk the watch list in place (MiniSat's i/j scheme): `i`
            // reads, `j` writes back the entries that stay. Pushes land
            // on other literals' lists — a replacement watch is never
            // false, `false_lit` is — so this segment never moves.
            let seg = self.watches.segs[false_lit.code()];
            let (base, n) = (seg.start as usize, seg.len as usize);
            let (mut i, mut j) = (0, 0);
            let mut conflict = None;
            while i < n {
                let cref = self.watches.pool[base + i];
                i += 1;
                let h = self.headers[cref as usize];
                if h.deleted() {
                    continue;
                }
                let cs = h.start as usize;
                // Ensure the falsified literal sits at position 1.
                if self.arena[cs] == false_lit {
                    self.arena.swap(cs, cs + 1);
                }
                debug_assert_eq!(self.arena[cs + 1], false_lit);
                let first = self.arena[cs];
                if self.value(first) == Some(true) {
                    self.watches.pool[base + j] = cref;
                    j += 1;
                    continue;
                }
                // Look for a replacement watch.
                let mut moved = false;
                for k in cs + 2..cs + h.len() {
                    let lk = self.arena[k];
                    if self.value(lk) != Some(false) {
                        self.arena.swap(cs + 1, k);
                        self.watches.push(lk.code(), cref);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                self.watches.pool[base + j] = cref;
                j += 1;
                if self.value(first) == Some(false) {
                    conflict = Some(cref);
                    self.qhead = self.trail.len();
                    break;
                }
                self.enqueue(first, Some(cref));
            }
            // Keep any watches we did not visit after a conflict.
            self.watches.pool.copy_within(base + i..base + n, base + j);
            self.watches.segs[false_lit.code()].len = to_u32(j + n - i);
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn analyze(&mut self, mut confl: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::new(Var(0), false)]; // slot for the asserting literal
        let mut path_count = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        loop {
            {
                let ci = confl as usize;
                self.bump_clause(ci);
                let range = self.headers[ci].range();
                let skip = usize::from(p.is_some());
                for k in range.start + skip..range.end {
                    let q = self.arena[k];
                    let v = q.var().index();
                    if !self.seen[v] && self.level[v] > 0 {
                        self.seen[v] = true;
                        self.bump_var(v);
                        if self.level[v] >= self.decision_level() {
                            path_count += 1;
                        } else {
                            learnt.push(q);
                        }
                    }
                }
            }
            // Find the next marked literal on the trail.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            path_count -= 1;
            if path_count == 0 {
                learnt[0] = !pl;
                break;
            }
            p = Some(pl);
            confl = self.reason[pl.var().index()].expect("non-decision literal must have a reason");
        }
        // Recursive clause minimization (MiniSat ccmin): a non-asserting
        // literal is redundant when every antecedent chain from its reason
        // bottoms out in level-0 facts or literals already in the clause —
        // the clause without it is still implied, and shorter learnt
        // clauses propagate earlier and cost less to carry in forked
        // context DBs. At this point `seen` is true exactly for the vars
        // of `learnt[1..]`, which is what the domination walk tests
        // against; extra vars marked during probes are recorded in
        // `to_clear` so the final unmark loop can undo them.
        let mut to_clear: Vec<usize> = learnt.iter().map(|l| l.var().index()).collect();
        if self.ccmin && learnt.len() > 1 {
            let mut abstract_levels = 0u32;
            for &l in &learnt[1..] {
                abstract_levels |= 1 << (self.level[l.var().index()] & 31);
            }
            let mut j = 1;
            for i in 1..learnt.len() {
                let l = learnt[i];
                if self.reason[l.var().index()].is_none()
                    || !self.lit_redundant(l, abstract_levels, &mut to_clear)
                {
                    learnt[j] = l;
                    j += 1;
                }
            }
            learnt.truncate(j);
        }
        // Compute the backtrack level and position its literal at index 1.
        let back_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        for v in to_clear {
            self.seen[v] = false;
        }
        (learnt, back_level)
    }

    /// The ccmin domination walk: true iff `p`'s reason antecedents all
    /// bottom out in level-0 facts or clause literals (`seen`), possibly
    /// through further implied literals. Vars marked along a *successful*
    /// walk stay marked (they are themselves redundant-or-in-clause, so
    /// later probes can reuse the work) and are pushed onto `to_clear`;
    /// a failed walk unmarks everything it added.
    fn lit_redundant(&mut self, p: Lit, abstract_levels: u32, to_clear: &mut Vec<usize>) -> bool {
        let top = to_clear.len();
        let mut stack = vec![p];
        while let Some(l) = stack.pop() {
            let cref = self.reason[l.var().index()].expect("redundancy probe requires a reason");
            // Reason clauses keep their implied literal at position 0
            // (see `propagate`), so the antecedents are `lits[1..]`.
            let range = self.headers[cref as usize].range();
            for &q in &self.arena[range.start + 1..range.end] {
                let v = q.var().index();
                if self.seen[v] || self.level[v] == 0 {
                    continue;
                }
                if self.reason[v].is_none() || (1u32 << (self.level[v] & 31)) & abstract_levels == 0
                {
                    for &u in &to_clear[top..] {
                        self.seen[u] = false;
                    }
                    to_clear.truncate(top);
                    return false;
                }
                self.seen[v] = true;
                to_clear.push(v);
                stack.push(q);
            }
        }
        true
    }

    fn backtrack_to(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level as usize];
        for i in (lim..self.trail.len()).rev() {
            let v = self.trail[i].var().index();
            self.assigns[v] = UNASSIGNED;
            self.reason[v] = None;
            self.heap_insert(v as u32);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level as usize);
        self.qhead = lim;
    }

    fn bump_var(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap_update(v as u32);
    }

    fn bump_clause(&mut self, ci: usize) {
        if !self.headers[ci].learnt() {
            return;
        }
        self.headers[ci].activity += self.cla_inc;
        if self.headers[ci].activity > 1e20 {
            for h in &mut self.headers {
                if h.learnt() {
                    h.activity *= 1e-20;
                }
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= 0.95;
        self.cla_inc /= 0.999;
    }

    // ----- activity heap ------------------------------------------------

    fn heap_less(&self, a: u32, b: u32) -> bool {
        self.activity[a as usize] > self.activity[b as usize]
    }

    fn heap_insert(&mut self, v: u32) {
        if self.heap_pos[v as usize] >= 0 {
            return;
        }
        self.heap_pos[v as usize] = self.heap.len() as i32;
        self.heap.push(v);
        self.heap_sift_up(self.heap.len() - 1);
    }

    fn heap_update(&mut self, v: u32) {
        let pos = self.heap_pos[v as usize];
        if pos >= 0 {
            self.heap_sift_up(pos as usize);
        }
    }

    fn heap_sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap_less(self.heap[i], self.heap[parent]) {
                self.heap_swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn heap_sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < self.heap.len() && self.heap_less(self.heap[l], self.heap[best]) {
                best = l;
            }
            if r < self.heap.len() && self.heap_less(self.heap[r], self.heap[best]) {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap_swap(i, best);
            i = best;
        }
    }

    fn heap_swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.heap_pos[self.heap[i] as usize] = i as i32;
        self.heap_pos[self.heap[j] as usize] = j as i32;
    }

    fn heap_pop(&mut self) -> Option<u32> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.heap_pos[top as usize] = -1;
        let last = self.heap.pop().unwrap();
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_pos[last as usize] = 0;
            self.heap_sift_down(0);
        }
        Some(top)
    }

    // ----- clause-database maintenance -------------------------------------

    /// Whether clause `i` is the reason for its (true) first literal.
    fn locked(&self, i: usize) -> bool {
        let l0 = self.arena[self.headers[i].start as usize];
        self.value(l0) == Some(true) && self.reason[l0.var().index()] == Some(i as u32)
    }

    fn reduce_db(&mut self) {
        let mut cands: Vec<u32> = Vec::new();
        for (i, h) in self.headers.iter().enumerate() {
            // Locked clauses (currently a reason) must be kept.
            if h.learnt() && !h.deleted() && h.len() > 2 && !self.locked(i) {
                cands.push(i as u32);
            }
        }
        cands.sort_by(|&a, &b| {
            self.headers[a as usize]
                .activity
                .partial_cmp(&self.headers[b as usize].activity)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let to_remove = cands.len() / 2;
        for &cref in &cands[..to_remove] {
            self.delete_clause(cref as usize);
        }
        self.pack_arena();
        // Rebuild the watch lists from scratch (watch invariant: positions 0, 1).
        self.watches.rebuild(&self.headers, &self.arena);
    }

    /// Fork-time clause-DB compaction: a level-0 satisfied-clause sweep
    /// over the whole clause database plus bounded self-subsumption over
    /// the learnt store. Returns the number of clauses removed or
    /// strengthened.
    ///
    /// A fork copies the whole clause arena, so every clause the parent
    /// carries is paid again in each child and in every later
    /// propagation. Compacting just before the snapshot drops clauses
    /// already satisfied by level-0 facts, strips falsified literals,
    /// and applies self-subsumption (`C` strengthens `D` when
    /// `C ⊆ D ∪ {¬l}` for exactly one flipped literal `l` — `D` minus
    /// `¬l` is still implied). Level-0 facts are permanent (the prefix
    /// is append-only and level 0 is never backtracked), so the sweep is
    /// sound for original Tseitin clauses too, not just learnt ones —
    /// and a merged prefix's satisfied clauses overwhelmingly live in
    /// the original CNF. Everything removed is redundant with the
    /// remaining database plus the trail, so verdicts are unchanged for
    /// parent and fork alike. Clauses are strengthened in place; the
    /// literal arena and the watch pool are then packed, so the snapshot
    /// copies no dead space. Must be called between queries (decision
    /// level 0).
    pub fn compact_learnts(&mut self) -> u64 {
        debug_assert_eq!(self.decision_level(), 0, "compact mid-query");
        if !self.ok {
            return 0;
        }
        let mut compacted = 0u64;
        let mut units: Vec<Lit> = Vec::new();
        // Pass 1: sweep against the level-0 trail — delete satisfied
        // clauses, strip falsified literals. Locked clauses (reasons for
        // level-0 implied literals) are left untouched. The full-DB part
        // is gated on the trail having grown since the last sweep;
        // without new level-0 facts only the (small) learnt store can
        // have changed, so repeated forks of one parent stay cheap.
        let sweep_originals = self.trail.len() > self.compacted_trail;
        for i in 0..self.headers.len() {
            let h = self.headers[i];
            if h.deleted() || (!h.learnt() && !sweep_originals) || self.locked(i) {
                continue;
            }
            let mut satisfied = false;
            let mut kept = 0;
            for &l in &self.arena[h.range()] {
                match self.value(l) {
                    Some(true) => {
                        satisfied = true;
                        break;
                    }
                    Some(false) => {}
                    None => kept += 1,
                }
            }
            if satisfied {
                self.delete_clause(i);
                compacted += 1;
            } else if kept < h.len() {
                compacted += 1;
                if kept == 0 {
                    self.ok = false;
                } else if self.retain_lits(i, |s, l| s.value(l).is_none()) == 1 {
                    units.push(self.arena[h.start as usize]);
                    self.delete_clause(i);
                }
            }
        }
        self.compacted_trail = self.trail.len();
        compacted += self.subsume_learnts(&mut units);
        if compacted > 0 {
            // Strengthened clauses may have lost a watched literal:
            // rebuild the watch lists wholesale, as `reduce_db` does,
            // before any propagation touches them.
            self.pack_arena();
            self.watches.rebuild(&self.headers, &self.arena);
            for l in units {
                match self.value(l) {
                    Some(true) => {}
                    Some(false) => self.ok = false,
                    None => {
                        self.enqueue(l, None);
                        if self.propagate().is_some() {
                            self.ok = false;
                        }
                    }
                }
            }
        }
        if 2 * self.watches.waste > self.watches.pool.len() {
            self.watches.pack();
        }
        compacted
    }

    /// Pass 2 of [`SatSolver::compact_learnts`]: bounded
    /// self-subsumption among the surviving learnt clauses, shortest
    /// subsumers first. Variable signatures reject most pairs in O(1);
    /// the exact check tolerates one flipped literal (self-subsumption)
    /// or zero (plain subsumption). Clauses strengthened to a single
    /// literal are deleted and their literal pushed onto `units`.
    fn subsume_learnts(&mut self, units: &mut Vec<Lit>) -> u64 {
        const SUBSUMER_MAX_LITS: usize = 8;
        let mut check_budget: usize = 200_000;
        let mut compacted = 0u64;
        let var_sig =
            |lits: &[Lit]| lits.iter().fold(0u64, |s, l| s | 1u64 << (l.var().index() % 64));
        let mut refs: Vec<u32> = (0..self.headers.len())
            .filter(|&i| {
                let h = self.headers[i];
                h.learnt() && !h.deleted() && !self.locked(i)
            })
            .map(to_u32)
            .collect();
        if refs.is_empty() {
            return 0;
        }
        refs.sort_by_key(|&r| self.headers[r as usize].len());
        // Occurrence lists by variable, flattened: `occ[occ_start[v]..
        // occ_start[v + 1]]` holds the refs mentioning `v`, in `refs`
        // order.
        let mut occ_start = vec![0u32; self.assigns.len() + 1];
        for &r in &refs {
            for l in &self.arena[self.headers[r as usize].range()] {
                occ_start[l.var().index() + 1] += 1;
            }
        }
        for v in 0..self.assigns.len() {
            occ_start[v + 1] += occ_start[v];
        }
        let mut occ = vec![0u32; occ_start[self.assigns.len()] as usize];
        let mut fill = occ_start.clone();
        for &r in &refs {
            for l in &self.arena[self.headers[r as usize].range()] {
                let slot = &mut fill[l.var().index()];
                occ[*slot as usize] = r;
                *slot += 1;
            }
        }
        let occurrences = |v: usize| &occ[occ_start[v] as usize..occ_start[v + 1] as usize];
        let mut c_buf = [Lit(0); SUBSUMER_MAX_LITS];
        for &cref in &refs {
            if check_budget == 0 {
                break;
            }
            let hc = self.headers[cref as usize];
            if hc.deleted() || hc.len() > SUBSUMER_MAX_LITS {
                continue;
            }
            let c = &mut c_buf[..hc.len()];
            c.copy_from_slice(&self.arena[hc.range()]);
            let c = &*c;
            let csig = var_sig(c);
            // Probe via the clause's rarest variable.
            let probe = c
                .iter()
                .min_by_key(|l| occurrences(l.var().index()).len())
                .expect("stored clauses are non-empty")
                .var()
                .index();
            for &dref in occurrences(probe) {
                if dref == cref || check_budget == 0 {
                    continue;
                }
                check_budget -= 1;
                let hd = self.headers[dref as usize];
                if hd.deleted() || hd.len() < c.len() {
                    continue;
                }
                let d = &self.arena[hd.range()];
                if csig & !var_sig(d) != 0 {
                    continue;
                }
                // C subsumes D if every C literal occurs in D; one
                // polarity flip means D can drop the flipped literal.
                let mut flipped: Option<Lit> = None;
                let mut ok = true;
                for &l in c {
                    if d.contains(&l) {
                        continue;
                    }
                    if d.contains(&!l) && flipped.is_none() {
                        flipped = Some(!l);
                    } else {
                        ok = false;
                        break;
                    }
                }
                if !ok {
                    continue;
                }
                compacted += 1;
                match flipped {
                    None => self.delete_clause(dref as usize),
                    Some(drop) => {
                        if self.retain_lits(dref as usize, |_, l| l != drop) == 1 {
                            units.push(self.arena[hd.start as usize]);
                            self.delete_clause(dref as usize);
                        }
                    }
                }
            }
        }
        compacted
    }

    /// Marks clause `i` deleted. Its header keeps its slot (refs never
    /// move) and its literals become arena waste until the next
    /// `pack_arena`.
    fn delete_clause(&mut self, i: usize) {
        let h = &mut self.headers[i];
        debug_assert!(!h.deleted());
        if h.learnt() {
            self.num_learnt -= 1;
        }
        self.live_clauses -= 1;
        h.len_flags |= DELETED;
        self.arena_waste += h.len();
    }

    /// Strengthens clause `i` in place: keeps the literals `keep`
    /// accepts, in order, at the front of its range and returns the new
    /// length. The freed tail becomes arena waste.
    fn retain_lits(&mut self, i: usize, keep: impl Fn(&Self, Lit) -> bool) -> usize {
        let range = self.headers[i].range();
        let mut w = range.start;
        for k in range.clone() {
            let l = self.arena[k];
            if keep(self, l) {
                self.arena[w] = l;
                w += 1;
            }
        }
        self.arena_waste += range.end - w;
        let len = w - range.start;
        self.headers[i].set_len(len);
        len
    }

    /// Reclaims arena waste by sliding every live clause's literals down
    /// in ref order (arena order is ref order, so each slide moves left).
    /// Deleted headers keep their slot with an empty range.
    fn pack_arena(&mut self) {
        let mut w = 0usize;
        for h in &mut self.headers {
            if h.deleted() {
                h.start = to_u32(w);
                h.set_len(0);
                continue;
            }
            let r = h.range();
            let len = r.len();
            self.arena.copy_within(r, w);
            h.start = to_u32(w);
            w += len;
        }
        self.arena.truncate(w);
        self.arena_waste = 0;
    }

    // ----- main loop -------------------------------------------------------

    /// Decides the formula (no assumptions).
    pub fn solve(&mut self) -> SolveOutcome {
        self.solve_under_assumptions(&[])
    }

    /// Decides the formula under the given assumption literals.
    ///
    /// Assumptions are placed as the first decisions, MiniSat-style, so
    /// they never touch the clause database: everything learnt during the
    /// call remains valid for later calls with *different* assumptions.
    /// On [`SolveOutcome::Unsat`] caused by the assumptions,
    /// [`SatSolver::failed_assumptions`] holds an assumption core and
    /// [`SatSolver::is_consistent`] stays `true`; if the clause database
    /// itself is unsatisfiable, `is_consistent` turns `false`. The solver
    /// backtracks to decision level 0 before returning, so it is always
    /// ready for more clauses or another query.
    pub fn solve_under_assumptions(&mut self, assumptions: &[Lit]) -> SolveOutcome {
        self.failed_assumptions.clear();
        if !self.ok {
            return SolveOutcome::Unsat;
        }
        debug_assert_eq!(self.decision_level(), 0);
        if self.propagate().is_some() {
            self.ok = false;
            return SolveOutcome::Unsat;
        }
        let conflicts_at_entry = self.stats.conflicts;
        let mut restart_idx: u64 = 0;
        let mut conflicts_until_restart = luby(restart_idx) * 100;
        let mut conflicts_this_restart: u64 = 0;
        let mut max_learnt = (self.headers.len() as f64 * 0.4).max(4000.0);
        let outcome = 'search: loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_this_restart += 1;
                if let Some(budget) = self.conflict_budget {
                    if self.stats.conflicts - conflicts_at_entry >= budget {
                        break 'search SolveOutcome::Unknown;
                    }
                }
                if self.decision_level() == 0 {
                    self.ok = false;
                    break 'search SolveOutcome::Unsat;
                }
                let (learnt, back_level) = self.analyze(confl);
                self.backtrack_to(back_level);
                let asserting = learnt[0];
                if learnt.len() == 1 {
                    self.enqueue(asserting, None);
                } else {
                    self.stats.learnt_lits += learnt.len() as u64;
                    let cref = self.store_clause(&learnt, true, self.cla_inc);
                    self.stats.learnt += 1;
                    self.enqueue(asserting, Some(cref));
                }
                self.decay_activities();
            } else {
                if conflicts_this_restart >= conflicts_until_restart {
                    self.stats.restarts += 1;
                    restart_idx += 1;
                    conflicts_until_restart = luby(restart_idx) * 100;
                    conflicts_this_restart = 0;
                    self.backtrack_to(0);
                    continue;
                }
                if self.num_learnt as f64 > max_learnt {
                    self.reduce_db();
                    max_learnt *= 1.3;
                }
                // Re-place assumptions first (restarts and backjumps pop
                // them); each assumption owns one decision level.
                let mut assumed = None;
                while (self.decision_level() as usize) < assumptions.len() {
                    let p = assumptions[self.decision_level() as usize];
                    match self.value(p) {
                        Some(true) => {
                            // Already implied: open a dummy level.
                            self.trail_lim.push(self.trail.len());
                        }
                        Some(false) => {
                            // The clause database forces ¬p: unsat under
                            // these assumptions, with a core.
                            self.failed_assumptions = self.analyze_final(p);
                            break 'search SolveOutcome::Unsat;
                        }
                        None => {
                            assumed = Some(p);
                            break;
                        }
                    }
                }
                if let Some(p) = assumed {
                    self.stats.decisions += 1;
                    self.trail_lim.push(self.trail.len());
                    self.enqueue(p, None);
                    continue;
                }
                // Pick the next decision variable.
                let mut decision = None;
                while let Some(v) = self.heap_pop() {
                    if self.assigns[v as usize] == UNASSIGNED {
                        decision = Some(v);
                        break;
                    }
                }
                match decision {
                    None => {
                        // All variables assigned: satisfying assignment found.
                        let model = self.assigns.iter().map(|&a| a == 1).collect();
                        break 'search SolveOutcome::Sat(model);
                    }
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let lit = Lit::new(Var(v), !self.phase[v as usize]);
                        self.enqueue(lit, None);
                    }
                }
            }
        };
        self.backtrack_to(0);
        outcome
    }

    /// Computes the subset of assumptions responsible for forcing `p`
    /// false (MiniSat's `analyzeFinal`): walks the implication graph from
    /// `¬p` back to the assumption decisions.
    fn analyze_final(&mut self, p: Lit) -> Vec<Lit> {
        let mut out = vec![p];
        if self.decision_level() == 0 {
            return out;
        }
        self.seen[p.var().index()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().index();
            if !self.seen[v] {
                continue;
            }
            match self.reason[v] {
                None => {
                    // A decision — at this point every decision on the
                    // trail is an assumption (`¬p` itself if the caller
                    // assumed both polarities).
                    if self.level[v] > 0 {
                        out.push(l);
                    }
                }
                Some(cref) => {
                    let range = self.headers[cref as usize].range();
                    for &q in &self.arena[range.start + 1..range.end] {
                        if self.level[q.var().index()] > 0 {
                            self.seen[q.var().index()] = true;
                        }
                    }
                }
            }
            self.seen[v] = false;
        }
        self.seen[p.var().index()] = false;
        out
    }
}

#[cfg(test)]
impl SatSolver {
    /// Checks the arena and watch invariants (test hook, for use between
    /// queries): clause ranges are disjoint, ascend in ref order and lie
    /// inside the arena, whose length is the live literals plus the
    /// recorded waste; the live and learnt counters match the headers;
    /// watch segments are disjoint, lie inside the pool and, with the
    /// recorded waste, account for all of it; every live clause is
    /// watched exactly by its first two literals, and no entry points at
    /// a deleted clause.
    fn assert_invariants(&self) {
        let (mut live, mut learnt, mut live_lits, mut next) = (0, 0, 0, 0);
        for (i, h) in self.headers.iter().enumerate() {
            assert!(h.start as usize >= next, "clause {i} overlaps or precedes its predecessor");
            assert!(h.range().end <= self.arena.len(), "clause {i} runs past the arena");
            next = h.range().end;
            if h.deleted() {
                continue;
            }
            assert!(h.len() >= 2, "stored clause {i} has {} literals", h.len());
            live += 1;
            learnt += usize::from(h.learnt());
            live_lits += h.len();
        }
        assert_eq!(live, self.live_clauses, "live_clauses disagrees with the headers");
        assert_eq!(learnt, self.num_learnt, "num_learnt disagrees with the headers");
        assert_eq!(self.arena.len(), live_lits + self.arena_waste, "arena waste unaccounted");

        let w = &self.watches;
        assert_eq!(w.segs.len(), 2 * self.assigns.len(), "one watch list per literal");
        let mut segs: Vec<WatchSeg> = w.segs.iter().copied().filter(|s| s.cap > 0).collect();
        segs.sort_by_key(|s| s.start);
        for pair in segs.windows(2) {
            assert!(pair[0].start + pair[0].cap <= pair[1].start, "watch segments overlap");
        }
        for s in &w.segs {
            assert!(s.len <= s.cap, "watch list longer than its segment");
            assert!((s.start + s.cap) as usize <= w.pool.len(), "watch segment outside the pool");
        }
        let caps: usize = w.segs.iter().map(|s| s.cap as usize).sum();
        assert_eq!(w.pool.len(), caps + w.waste, "watch pool waste unaccounted");

        let mut watched_by: Vec<Vec<usize>> = vec![Vec::new(); self.headers.len()];
        for code in 0..w.segs.len() {
            for &cref in w.list(code) {
                assert!(!self.headers[cref as usize].deleted(), "watch on deleted clause {cref}");
                watched_by[cref as usize].push(code);
            }
        }
        for (i, h) in self.headers.iter().enumerate() {
            if h.deleted() {
                continue;
            }
            let s = h.start as usize;
            let mut want = vec![self.arena[s].code(), self.arena[s + 1].code()];
            want.sort_unstable();
            watched_by[i].sort_unstable();
            assert_eq!(watched_by[i], want, "clause {i} not watched by exactly lits[0], lits[1]");
        }
    }
}

/// The Luby restart sequence (1, 1, 2, 1, 1, 2, 4, …) with base 2.
fn luby(x: u64) -> u64 {
    // Find the finite subsequence that contains index `x` and its size.
    let (mut size, mut seq) = (1u64, 0u32);
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    let mut x = x;
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::Cnf;

    fn lit(cnf_vars: &[Lit], i: i32) -> Lit {
        let v = cnf_vars[(i.unsigned_abs() as usize) - 1];
        if i < 0 {
            !v
        } else {
            v
        }
    }

    fn make(num_vars: usize, clauses: &[&[i32]]) -> (Cnf, Vec<Lit>) {
        let mut cnf = Cnf::new();
        let vars: Vec<Lit> = (0..num_vars).map(|_| cnf.new_lit()).collect();
        for c in clauses {
            let ls: Vec<Lit> = c.iter().map(|&i| lit(&vars, i)).collect();
            cnf.add_clause(&ls);
        }
        (cnf, vars)
    }

    fn check_model(cnf: &Cnf, model: &[bool]) {
        for clause in cnf.clauses() {
            assert!(
                clause.iter().any(|l| model[l.var().index()] != l.is_negative()),
                "clause {clause:?} unsatisfied"
            );
        }
    }

    #[test]
    fn luby_sequence_prefix() {
        let expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn trivial_sat() {
        let (cnf, _) = make(2, &[&[1, 2], &[-1, 2], &[1, -2]]);
        match SatSolver::from_cnf(&cnf).solve() {
            SolveOutcome::Sat(m) => check_model(&cnf, &m),
            o => panic!("expected sat, got {o:?}"),
        }
    }

    #[test]
    fn trivial_unsat() {
        let (cnf, _) = make(1, &[&[1], &[-1]]);
        assert_eq!(SatSolver::from_cnf(&cnf).solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn empty_clause_unsat() {
        let mut cnf = Cnf::new();
        cnf.add_clause(&[]);
        assert_eq!(SatSolver::from_cnf(&cnf).solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn unit_propagation_chain_unsat() {
        // x1, x1→x2, x2→x3, x3→¬x1
        let (cnf, _) = make(3, &[&[1], &[-1, 2], &[-2, 3], &[-3, -1]]);
        assert_eq!(SatSolver::from_cnf(&cnf).solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // p_{i,j}: pigeon i in hole j. vars: p11=1, p12=2, p21=3, p22=4, p31=5, p32=6.
        let (cnf, _) = make(
            6,
            &[
                &[1, 2],
                &[3, 4],
                &[5, 6],
                &[-1, -3],
                &[-1, -5],
                &[-3, -5],
                &[-2, -4],
                &[-2, -6],
                &[-4, -6],
            ],
        );
        assert_eq!(SatSolver::from_cnf(&cnf).solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn pigeonhole_4_into_3_unsat() {
        let mut cnf = Cnf::new();
        let n_pigeons = 4;
        let n_holes = 3;
        let mut vars = vec![vec![]; n_pigeons];
        for row in vars.iter_mut() {
            for _ in 0..n_holes {
                row.push(cnf.new_lit());
            }
        }
        for row in &vars {
            cnf.add_clause(row);
        }
        for h in 0..n_holes {
            for (p1, row1) in vars.iter().enumerate() {
                for row2 in &vars[p1 + 1..] {
                    cnf.add_clause(&[!row1[h], !row2[h]]);
                }
            }
        }
        assert_eq!(SatSolver::from_cnf(&cnf).solve(), SolveOutcome::Unsat);
    }

    /// Deterministic xorshift generator; no external dependency needed.
    fn xorshift(mut seed: u64) -> impl FnMut() -> u64 {
        move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        }
    }

    /// Brute-force reference: whether some assignment of variables
    /// `1..=num_vars` satisfies every clause and every assumption
    /// (DIMACS-style signed literals).
    fn brute_force_sat(num_vars: usize, clauses: &[Vec<i32>], assumptions: &[i32]) -> bool {
        // Each clause as (positive, negative) variable masks: `bits`
        // satisfies it iff it sets a positive or clears a negative one.
        let masks = |c: &[i32]| {
            c.iter().fold((0u32, 0u32), |(pos, neg), &l| {
                let bit = 1 << (l.unsigned_abs() - 1);
                if l > 0 {
                    (pos | bit, neg)
                } else {
                    (pos, neg | bit)
                }
            })
        };
        let clauses: Vec<(u32, u32)> = clauses.iter().map(|c| masks(c)).collect();
        let units: Vec<(u32, u32)> = assumptions.iter().map(|&l| masks(&[l])).collect();
        (0u32..(1 << num_vars)).any(|bits| {
            clauses.iter().chain(&units).all(|&(pos, neg)| bits & pos != 0 || !bits & neg != 0)
        })
    }

    #[test]
    fn random_3sat_cross_checked_with_brute_force() {
        let mut next = xorshift(0x9e3779b97f4a7c15);
        for round in 0..60 {
            let num_vars = 4 + (next() % 9) as usize; // 4..=12
            let num_clauses = 3 + (next() % 40) as usize;
            let mut spec: Vec<Vec<i32>> = Vec::new();
            for _ in 0..num_clauses {
                let len = 1 + (next() % 3) as usize;
                let mut c = Vec::new();
                for _ in 0..len {
                    let v = 1 + (next() % num_vars as u64) as i32;
                    let sign = if next() & 1 == 0 { 1 } else { -1 };
                    c.push(v * sign);
                }
                spec.push(c);
            }
            let refs: Vec<&[i32]> = spec.iter().map(|c| c.as_slice()).collect();
            let (cnf, _) = make(num_vars, &refs);
            let brute_sat = brute_force_sat(num_vars, &spec, &[]);
            match SatSolver::from_cnf(&cnf).solve() {
                SolveOutcome::Sat(m) => {
                    assert!(brute_sat, "round {round}: solver sat, brute force unsat");
                    check_model(&cnf, &m);
                }
                SolveOutcome::Unsat => {
                    assert!(!brute_sat, "round {round}: solver unsat, brute force sat");
                }
                SolveOutcome::Unknown => panic!("no budget set, Unknown impossible"),
            }
        }
    }

    /// Solves `s` under `assumptions` and checks the verdict (and any
    /// model) against the brute-force reference for `spec`.
    fn cross_check(s: &mut SatSolver, num_vars: usize, spec: &[Vec<i32>], assumptions: &[i32]) {
        let as_lit = |l: i32| Lit::new(Var(l.unsigned_abs()), l < 0);
        let lits: Vec<Lit> = assumptions.iter().map(|&l| as_lit(l)).collect();
        let expected = brute_force_sat(num_vars, spec, assumptions);
        match s.solve_under_assumptions(&lits) {
            SolveOutcome::Sat(m) => {
                assert!(expected, "solver sat, brute force unsat: {spec:?} under {assumptions:?}");
                let holds = |l: i32| m[l.unsigned_abs() as usize] == (l > 0);
                assert!(assumptions.iter().all(|&l| holds(l)), "model breaks an assumption");
                assert!(spec.iter().all(|c| c.iter().any(|&l| holds(l))), "model breaks a clause");
            }
            SolveOutcome::Unsat => {
                assert!(!expected, "solver unsat, brute force sat: {spec:?} under {assumptions:?}");
            }
            SolveOutcome::Unknown => panic!("no budget set, Unknown impossible"),
        }
    }

    /// Random 3-SAT driven through interleaved clause additions,
    /// variable growth, assumption solves, compaction, learnt-DB
    /// reduction and forks: the arena and watch invariants hold after
    /// every step, and parent and fork verdicts both match brute force.
    #[test]
    fn arena_and_watch_invariants_hold_under_interleaved_operations() {
        let mut next = xorshift(0x2545f4914f6cdd1d);
        let (mut compacted, mut conflicts, mut reduced) = (0, 0, 0);
        for _ in 0..120 {
            let mut num_vars = 6 + (next() % 5) as usize; // 6..=10
            let random_clause = |next: &mut dyn FnMut() -> u64, num_vars: usize| {
                (0..1 + next() % 3)
                    .map(|_| {
                        let v = 1 + (next() % num_vars as u64) as i32;
                        if next() & 1 == 0 {
                            v
                        } else {
                            -v
                        }
                    })
                    .collect::<Vec<i32>>()
            };
            // Just under the 3-SAT threshold (~4.3 clauses per
            // variable), so solves under assumptions hit conflicts and
            // learn clauses worth reducing.
            let three = |next: &mut dyn FnMut() -> u64, num_vars: usize| {
                let mut c = random_clause(next, num_vars);
                while c.len() < 3 {
                    c.extend(random_clause(next, num_vars));
                }
                c.truncate(3);
                c
            };
            let mut spec: Vec<Vec<i32>> =
                (0..7 * num_vars / 2).map(|_| three(&mut next, num_vars)).collect();
            let mut cnf = Cnf::new();
            for _ in 0..num_vars {
                cnf.new_var();
            }
            let as_lit = |l: i32| Lit::new(Var(l.unsigned_abs()), l < 0);
            for c in &spec {
                cnf.add_clause(&c.iter().map(|&l| as_lit(l)).collect::<Vec<_>>());
            }
            let mut s = SatSolver::from_cnf(&cnf);
            s.assert_invariants();
            for step in 0..40 {
                match next() % 6 {
                    0 => {
                        let c = three(&mut next, num_vars);
                        s.add_clause(&c.iter().map(|&l| as_lit(l)).collect::<Vec<_>>());
                        spec.push(c);
                    }
                    1 | 2 => {
                        let mut assumptions = random_clause(&mut next, num_vars);
                        assumptions.truncate(next() as usize % 4);
                        cross_check(&mut s, num_vars, &spec, &assumptions);
                    }
                    3 => {
                        compacted += s.compact_learnts();
                    }
                    4 => {
                        let before = s.num_learnt;
                        s.reduce_db();
                        reduced += before - s.num_learnt;
                        if num_vars < 12 {
                            num_vars += 1;
                            s.ensure_vars(num_vars + 1);
                        }
                    }
                    _ => {
                        compacted += s.compact_learnts();
                        let mut child = s.fork();
                        child.assert_invariants();
                        // Diverge: the child gets one more clause.
                        let c = random_clause(&mut next, num_vars);
                        child.add_clause(&c.iter().map(|&l| as_lit(l)).collect::<Vec<_>>());
                        let mut child_spec = spec.clone();
                        child_spec.push(c);
                        let mut assumptions = random_clause(&mut next, num_vars);
                        assumptions.truncate(next() as usize % 3);
                        cross_check(&mut child, num_vars, &child_spec, &assumptions);
                        cross_check(&mut s, num_vars, &spec, &assumptions);
                        child.assert_invariants();
                        if next() & 1 == 0 {
                            (s, spec) = (child, child_spec);
                        }
                    }
                }
                s.assert_invariants();
                if step % 10 == 9 {
                    cross_check(&mut s, num_vars, &spec, &[]);
                }
            }
            conflicts += s.stats().conflicts;
        }
        // The walk must reach the paths it is meant to check.
        assert!(compacted > 0 && conflicts > 0 && reduced > 0, "{compacted} {conflicts} {reduced}");
    }

    #[test]
    fn conflict_budget_returns_unknown_or_decides() {
        // A moderately hard pigeonhole with a tiny budget must not panic.
        let mut cnf = Cnf::new();
        let n_pigeons = 7;
        let n_holes = 6;
        let mut vars = vec![vec![]; n_pigeons];
        for row in vars.iter_mut() {
            for _ in 0..n_holes {
                row.push(cnf.new_lit());
            }
        }
        for row in &vars {
            cnf.add_clause(row);
        }
        for h in 0..n_holes {
            for (p1, row1) in vars.iter().enumerate() {
                for row2 in &vars[p1 + 1..] {
                    cnf.add_clause(&[!row1[h], !row2[h]]);
                }
            }
        }
        let mut s = SatSolver::from_cnf(&cnf);
        s.set_conflict_budget(Some(10));
        let out = s.solve();
        assert!(matches!(out, SolveOutcome::Unknown | SolveOutcome::Unsat));
    }

    #[test]
    fn conflict_budget_is_per_call() {
        // Same hard pigeonhole: with a tiny per-call budget, a *second*
        // call must get a fresh allowance rather than being starved by
        // the cumulative conflict count of the first.
        let mut cnf = Cnf::new();
        let (n_pigeons, n_holes) = (7, 6);
        let mut vars = vec![vec![]; n_pigeons];
        for row in vars.iter_mut() {
            for _ in 0..n_holes {
                row.push(cnf.new_lit());
            }
        }
        for row in &vars {
            cnf.add_clause(row);
        }
        for h in 0..n_holes {
            for (p1, row1) in vars.iter().enumerate() {
                for row2 in &vars[p1 + 1..] {
                    cnf.add_clause(&[!row1[h], !row2[h]]);
                }
            }
        }
        let mut s = SatSolver::from_cnf(&cnf);
        s.set_conflict_budget(Some(5));
        let first = s.solve();
        assert!(matches!(first, SolveOutcome::Unknown));
        let conflicts_after_first = s.stats().conflicts;
        let second = s.solve();
        assert!(matches!(second, SolveOutcome::Unknown));
        // The second call performed its own conflicts instead of bailing
        // out immediately on the cumulative count.
        assert!(s.stats().conflicts >= conflicts_after_first + 5);
    }

    #[test]
    fn solve_under_assumptions_flips_verdicts_without_poisoning() {
        // (a ∨ b) ∧ (¬a ∨ b): assuming ¬b is unsat, assuming b is sat,
        // and the solver stays reusable throughout.
        let (cnf, vars) = make(2, &[&[1, 2], &[-1, 2]]);
        let (a, b) = (vars[0], vars[1]);
        let mut s = SatSolver::from_cnf(&cnf);
        assert!(matches!(s.solve_under_assumptions(&[!b]), SolveOutcome::Unsat));
        assert!(s.is_consistent(), "assumption failure must not poison the solver");
        let core = s.failed_assumptions().to_vec();
        assert!(core.contains(&!b), "core must name the failing assumption");
        match s.solve_under_assumptions(&[b, a]) {
            SolveOutcome::Sat(m) => check_model(&cnf, &m),
            o => panic!("expected sat, got {o:?}"),
        }
        // No assumptions at all: still sat.
        assert!(matches!(s.solve(), SolveOutcome::Sat(_)));
    }

    #[test]
    fn assumption_core_names_a_conflicting_subset() {
        // Chain a → b → c, plus assumption set {a, ¬c, d}: the core must
        // include ¬c (the failing assumption found during placement) and
        // a, but never the irrelevant d.
        let (cnf, vars) = make(4, &[&[-1, 2], &[-2, 3]]);
        let (a, c, d) = (vars[0], vars[2], vars[3]);
        let mut s = SatSolver::from_cnf(&cnf);
        assert!(matches!(s.solve_under_assumptions(&[a, !c, d]), SolveOutcome::Unsat));
        let core = s.failed_assumptions().to_vec();
        assert!(core.contains(&!c) || core.contains(&a), "core must touch the chain");
        assert!(!core.contains(&d), "independent assumption must not appear in the core");
        assert!(s.is_consistent());
    }

    #[test]
    fn incremental_clause_addition_between_solves() {
        // Start with (x ∨ y); learn a model; then add clauses one by one
        // until the formula becomes unsat — all on the same solver.
        let (cnf, vars) = make(2, &[&[1, 2]]);
        let (x, y) = (vars[0], vars[1]);
        let mut s = SatSolver::from_cnf(&cnf);
        assert!(matches!(s.solve(), SolveOutcome::Sat(_)));
        s.add_clause(&[!x]);
        match s.solve() {
            SolveOutcome::Sat(m) => {
                assert!(!m[x.var().index()], "x is forced false");
                assert!(m[y.var().index()], "y must carry the clause");
            }
            o => panic!("expected sat, got {o:?}"),
        }
        s.add_clause(&[!y]);
        assert!(matches!(s.solve(), SolveOutcome::Unsat));
        assert!(!s.is_consistent(), "database itself is now unsat");
        // Further queries stay unsat and must not panic.
        assert!(matches!(s.solve_under_assumptions(&[x]), SolveOutcome::Unsat));
    }

    #[test]
    fn ensure_vars_allows_new_variables_incrementally() {
        let (cnf, vars) = make(1, &[&[1]]);
        let x = vars[0];
        let mut s = SatSolver::from_cnf(&cnf);
        assert!(matches!(s.solve(), SolveOutcome::Sat(_)));
        // Introduce a brand-new variable and constrain it against x.
        let n = cnf.num_vars();
        s.ensure_vars(n + 1);
        let z = Var(n as u32).positive();
        s.add_clause(&[!x, z]);
        match s.solve_under_assumptions(&[]) {
            SolveOutcome::Sat(m) => {
                assert!(m[x.var().index()]);
                assert!(m[z.var().index()], "x → z must propagate");
            }
            o => panic!("expected sat, got {o:?}"),
        }
        assert!(matches!(s.solve_under_assumptions(&[!z]), SolveOutcome::Unsat));
        assert!(s.is_consistent());
    }

    #[test]
    fn stats_are_populated() {
        let (cnf, _) =
            make(5, &[&[1, 2, 3], &[-1, -2], &[-2, -3], &[-1, -3], &[2, 4], &[3, 5], &[-4, -5]]);
        let mut s = SatSolver::from_cnf(&cnf);
        let _ = s.solve();
        assert!(s.stats().propagations > 0);
    }
}
