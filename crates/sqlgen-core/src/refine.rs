//! Constraint-miss refinement: structure-preserving local search.
//!
//! When a generated query misses its constraint, full regeneration throws
//! the whole episode away. This module instead keeps the query's structure
//! and runs a **bounded, deterministic local search** over the component
//! that broke the constraint (DESIGN.md §12):
//!
//! 1. **Predicate constants** — swap a range/equality literal for another
//!    sampled value of the same column. The estimator's histogram
//!    `fraction_below` makes cardinality monotone in a range constant, so
//!    this tier almost always finds the fix.
//! 2. **Comparison operators** — swap `op` within the FSM's own operator
//!    set for the column type (numerics: all six; otherwise `{=, >, <}`),
//!    so every candidate stays inside the FSM language.
//! 3. **Predicate drops** — drop one AND/OR arm, the whole WHERE, or the
//!    HAVING clause (raises selectivity when every constant is too tight).
//! 4. **Join order** — swap adjacent joins (cost metric; never changes
//!    cardinality) while preserving the FROM invariant that every join's
//!    left side references an earlier table.
//!
//! Each candidate is scored with [`sqlgen_rl::Constraint::reward`] on the
//! shared estimator (memoized via `EstimatorCache`); the search accepts the
//! first candidate *inside* the constraint, otherwise takes the best
//! strictly improving candidate and iterates. Accepted steps therefore have
//! strictly increasing reward — the estimator score moves monotonically
//! toward the constraint interval, the invariant the `refine-validity` fuzz
//! family checks. A hard budget caps estimator evaluations; past it callers
//! fall back to resampling.
//!
//! **Determinism.** The search draws no randomness: move enumeration is a
//! pure function of the statement and the vocabulary (tiers in fixed
//! order, candidate constants taken evenly spaced from the column's sorted
//! sample), and scoring is bit-exact estimator arithmetic. Refining a
//! query is therefore a pure function of `(schema, constraint, query)`,
//! which keeps seeded generation and served responses reproducible.
//!
//! Results are memoized in a small LRU keyed on
//! `(schema fingerprint, constraint, missed SQL)` — the miss signature —
//! so repeated misses on the same shape (common under a trained policy)
//! cost one lookup.

use sqlgen_engine::{render, CmpOp, Predicate, Rhs, SelectQuery, Statement};
use sqlgen_fsm::{Token, Vocabulary};
use sqlgen_rl::{Metric, SqlGenEnv, Target, POINT_TOLERANCE};
use sqlgen_storage::Value;
use std::collections::HashMap;
use std::sync::Mutex;

/// Default hard budget on estimator evaluations per refinement. Structurally
/// unfixable misses never get near it — the reachability bound in [`search`]
/// rejects them after at most one eval — so the budget is spent only on
/// genuinely searchable neighborhoods.
pub const DEFAULT_REFINE_BUDGET: usize = 96;
/// Default capacity of the refinement LRU cache.
pub const DEFAULT_REFINE_CACHE_CAPACITY: usize = 512;
/// Default resampling rounds after refinement gives up (fallback policy).
pub const DEFAULT_RESAMPLE_ROUNDS: usize = 16;
/// Candidate constants tried per predicate atom per round (evenly spaced
/// over the column's sorted sample so the span is covered, not just the
/// neighborhood).
const CONSTANTS_PER_ATOM: usize = 8;

/// Knobs for constraint-miss refinement. Default **on**; the benches and
/// CLI expose a `--no-refine` escape hatch.
#[derive(Debug, Clone)]
pub struct RefineConfig {
    pub enabled: bool,
    /// Hard budget on estimator evaluations per refinement attempt.
    pub max_evals: usize,
    /// LRU capacity of the `(schema, constraint, miss)` result cache.
    pub cache_capacity: usize,
    /// Resampling rounds after local search gives up. Each round redraws
    /// the still-missing slots with fresh deterministic seeds and refines
    /// the redraws; `0` disables the fallback.
    pub resample_rounds: usize,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig {
            enabled: true,
            max_evals: DEFAULT_REFINE_BUDGET,
            cache_capacity: DEFAULT_REFINE_CACHE_CAPACITY,
            resample_rounds: DEFAULT_RESAMPLE_ROUNDS,
        }
    }
}

impl RefineConfig {
    /// Refinement disabled: the legacy generate-and-hope path, bit-exact.
    pub fn off() -> Self {
        RefineConfig {
            enabled: false,
            ..Default::default()
        }
    }
}

/// One accepted state of the search (for the `refine-validity` fuzz family
/// and debugging). `reward` strictly increases along the accepted chain.
#[derive(Debug, Clone)]
pub struct RefineStep {
    pub statement: Statement,
    pub sql: String,
    pub measured: f64,
    pub reward: f64,
}

/// Outcome of one bounded local search.
#[derive(Debug, Clone)]
pub struct RefineOutcome {
    /// A satisfying rewrite, if the search found one within budget.
    pub result: Option<(Statement, f64)>,
    /// Accepted intermediate states, in order (monotone in `reward`).
    pub steps: Vec<RefineStep>,
    /// Estimator evaluations spent.
    pub evals: usize,
}

/// Bounded local search from `stmt` (measured at `measured`, missing
/// `env.constraint`) toward the constraint. Pure: no RNG, no side effects
/// beyond the env's estimator memo cache. See the module docs for the move
/// tiers and acceptance rule.
pub fn search(env: &SqlGenEnv, stmt: &Statement, measured: f64, max_evals: usize) -> RefineOutcome {
    let constraint = env.constraint;
    if constraint.satisfied(measured) {
        return RefineOutcome {
            result: Some((stmt.clone(), measured)),
            steps: Vec::new(),
            evals: 0,
        };
    }
    let mut cur = stmt.clone();
    let mut cur_reward = constraint.reward(measured);
    let mut steps = Vec::new();
    let mut evals = 0usize;

    // Reachability bound for cardinality-from-below misses (the dominant
    // class: small tables, aggregate group counts). Every tier-1–3 move is
    // a constant/operator swap or a predicate/HAVING drop, and conjuncts
    // never *raise* cardinality (the `estimator` fuzz invariant), so the
    // predicate-free, HAVING-free rendering is an upper bound on anything
    // local search can reach; join reorders are cardinality-neutral. When
    // even the bound misses the constraint's floor, give up after at most
    // one eval instead of proving the local optimum move by move —
    // resampling redraws the slot far cheaper.
    if constraint.metric == Metric::Cardinality {
        let floor = match constraint.target {
            Target::Point(c) => c / (1.0 + POINT_TOLERANCE),
            Target::Range(lo, _) => lo,
        };
        if measured < floor {
            let mut loose = with_predicate(stmt, None);
            if let Statement::Select(q) = &mut loose {
                q.having = None;
            }
            let bound = if statement_predicate(stmt).is_none()
                && !matches!(stmt, Statement::Select(q) if q.having.is_some())
            {
                measured // nothing to loosen: the statement is its own bound
            } else {
                evals += 1;
                env.measure(&loose)
            };
            if bound < floor {
                return RefineOutcome {
                    result: None,
                    steps,
                    evals,
                };
            }
        }
    }

    loop {
        let mut best: Option<(Statement, f64, f64)> = None;
        let mut accepted = false;
        'cands: for cand in candidates(env.vocab, &cur) {
            if evals >= max_evals {
                break 'cands;
            }
            evals += 1;
            let m = env.measure(&cand);
            let r = constraint.reward(m);
            if constraint.satisfied(m) {
                // First candidate inside the constraint wins outright.
                // `reward ≥ 1/(1+tol)` inside the band while every
                // unsatisfied state scores strictly below it, so the
                // accepted chain stays strictly increasing.
                best = Some((cand, m, r));
                accepted = true;
                break 'cands;
            }
            if r > cur_reward && best.as_ref().is_none_or(|(_, _, br)| r > *br) {
                best = Some((cand, m, r));
            }
        }
        match best {
            Some((cand, m, r)) if accepted || r > cur_reward => {
                cur = cand;
                cur_reward = r;
                steps.push(RefineStep {
                    sql: render(&cur),
                    statement: cur.clone(),
                    measured: m,
                    reward: r,
                });
                if accepted {
                    return RefineOutcome {
                        result: Some((cur, m)),
                        steps,
                        evals,
                    };
                }
                if evals >= max_evals {
                    return RefineOutcome {
                        result: None,
                        steps,
                        evals,
                    };
                }
            }
            // No strictly improving neighbor (local optimum) or budget
            // exhausted mid-scan: give up, let the caller resample.
            _ => {
                return RefineOutcome {
                    result: None,
                    steps,
                    evals,
                }
            }
        }
    }
}

/// The refinement engine: bounded local search plus the
/// `(schema, constraint, miss-signature)` LRU memo.
pub struct Refiner {
    cfg: RefineConfig,
    cache: Mutex<RefineLru>,
}

impl Refiner {
    pub fn new(cfg: RefineConfig) -> Self {
        let capacity = cfg.cache_capacity;
        Refiner {
            cfg,
            cache: Mutex::new(RefineLru::new(capacity)),
        }
    }

    pub fn config(&self) -> &RefineConfig {
        &self.cfg
    }

    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Refines one missed statement. Returns the satisfying rewrite and
    /// its measured metric, or `None` when the search gave up (callers
    /// then fall back to resampling). Consults and fills the miss cache;
    /// emits `refine.*` metrics.
    pub fn refine(
        &self,
        env: &SqlGenEnv,
        stmt: &Statement,
        measured: f64,
    ) -> Option<(Statement, f64)> {
        if !self.cfg.enabled {
            return None;
        }
        sqlgen_obs::obs_count!("refine.attempts");
        let key = miss_key(env, stmt);
        if let Some(hit) = self.cache.lock().unwrap().get(&key) {
            sqlgen_obs::obs_count!("refine.cache.hits");
            if hit.is_some() {
                sqlgen_obs::obs_count!("refine.successes");
            }
            return hit;
        }
        sqlgen_obs::obs_count!("refine.cache.misses");
        let out = search(env, stmt, measured, self.cfg.max_evals);
        sqlgen_obs::obs_count!("refine.steps", out.evals as u64);
        if out.result.is_some() {
            sqlgen_obs::obs_count!("refine.successes");
        }
        self.cache.lock().unwrap().put(key, out.result.clone());
        out.result
    }

    /// Refines a finished episode in place (post-EOS: the token stream and
    /// the lane determinism contract are untouched — only the terminal
    /// statement is rewritten). Returns whether the episode now satisfies.
    pub fn refine_episode(&self, env: &SqlGenEnv, ep: &mut sqlgen_rl::Episode) -> bool {
        if ep.satisfied {
            return true;
        }
        match self.refine(env, &ep.statement, ep.measured) {
            Some((stmt, m)) => {
                ep.statement = stmt;
                ep.measured = m;
                ep.satisfied = true;
                true
            }
            None => false,
        }
    }
}

/// Cache key: schema fingerprint | constraint | rendered missed SQL.
/// The fingerprint folds the vocabulary's tables and column count so
/// generators over different schemas (or sample configs) never collide.
fn miss_key(env: &SqlGenEnv, stmt: &Statement) -> String {
    let mut fp = 0xcbf29ce484222325u64;
    for t in &env.vocab.tables {
        for b in t.as_bytes() {
            fp = (fp ^ *b as u64).wrapping_mul(0x100000001b3);
        }
    }
    fp ^= (env.vocab.columns.len() as u64) << 1 ^ env.vocab.values.len() as u64;
    format!("{fp:016x}|{}|{}", env.constraint, render(stmt))
}

/// Minimal LRU keyed by miss signature. `None` values memoize exhausted
/// searches so hopeless shapes don't re-burn the eval budget.
struct RefineLru {
    capacity: usize,
    tick: u64,
    map: HashMap<String, (u64, Option<(Statement, f64)>)>,
}

impl RefineLru {
    fn new(capacity: usize) -> Self {
        RefineLru {
            capacity: capacity.max(1),
            tick: 0,
            map: HashMap::new(),
        }
    }

    fn get(&mut self, key: &str) -> Option<Option<(Statement, f64)>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|slot| {
            slot.0 = tick;
            slot.1.clone()
        })
    }

    fn put(&mut self, key: String, value: Option<(Statement, f64)>) {
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            // Evict the least-recently-used entry.
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
            }
        }
        self.map.insert(key, (self.tick, value));
    }
}

// ---------------------------------------------------------------------------
// Move enumeration
// ---------------------------------------------------------------------------

/// All candidate rewrites of `stmt`, in tier order (constants, operators,
/// drops, join order). Deterministic: a pure function of `(vocab, stmt)`.
fn candidates(vocab: &Vocabulary, stmt: &Statement) -> Vec<Statement> {
    let mut out = Vec::new();
    let pred = statement_predicate(stmt);

    // Tier 1+2: constant and operator swaps on each Cmp atom.
    if let Some(p) = pred {
        let mut cmp_paths = Vec::new();
        collect_cmp_paths(p, &mut Vec::new(), &mut cmp_paths);
        for path in &cmp_paths {
            let Some((col, op, value)) = cmp_at(p, path) else {
                continue;
            };
            let Some(ci) = vocab_column(vocab, &col.table, &col.column) else {
                continue;
            };
            for v in constant_candidates(vocab, ci, &value) {
                out.push(with_cmp(stmt, path, op, Rhs::Value(v)));
            }
            for swapped in op_candidates(vocab, ci, op) {
                out.push(with_cmp(stmt, path, swapped, Rhs::Value(value.clone())));
            }
        }
        // Tier 3a: drop one AND/OR arm.
        let mut units = Vec::new();
        collect_unit_paths(p, &mut Vec::new(), &mut units);
        for path in &units {
            if path.is_empty() {
                continue; // whole-WHERE drop handled below
            }
            if let Some(rest) = remove_unit(p, path) {
                out.push(with_predicate(stmt, Some(rest)));
            }
        }
        // Tier 3b: drop the whole WHERE.
        out.push(with_predicate(stmt, None));
    }

    if let Statement::Select(q) = stmt {
        // Tier 3c: drop HAVING.
        if q.having.is_some() {
            let mut dropped = q.clone();
            dropped.having = None;
            out.push(Statement::Select(dropped));
        }
        // Tier 4: adjacent join swaps preserving the FROM invariant.
        for swapped in join_reorders(q) {
            out.push(Statement::Select(swapped));
        }
    }
    out
}

fn statement_predicate(stmt: &Statement) -> Option<&Predicate> {
    match stmt {
        Statement::Select(q) => q.predicate.as_ref(),
        Statement::Update(u) => u.predicate.as_ref(),
        Statement::Delete(d) => d.predicate.as_ref(),
        Statement::Insert(_) => None,
    }
}

fn with_predicate(stmt: &Statement, pred: Option<Predicate>) -> Statement {
    let mut out = stmt.clone();
    match &mut out {
        Statement::Select(q) => q.predicate = pred,
        Statement::Update(u) => u.predicate = pred,
        Statement::Delete(d) => d.predicate = pred,
        Statement::Insert(_) => {}
    }
    out
}

/// Paths (child indices; `Not` descends with 0) to every `Cmp` atom with a
/// literal right-hand side — the atoms tiers 1 and 2 can edit.
fn collect_cmp_paths(p: &Predicate, path: &mut Vec<u8>, out: &mut Vec<Vec<u8>>) {
    match p {
        Predicate::Cmp {
            rhs: Rhs::Value(_), ..
        } => out.push(path.clone()),
        Predicate::Not(inner) => {
            path.push(0);
            collect_cmp_paths(inner, path, out);
            path.pop();
        }
        Predicate::And(a, b) | Predicate::Or(a, b) => {
            path.push(0);
            collect_cmp_paths(a, path, out);
            path.pop();
            path.push(1);
            collect_cmp_paths(b, path, out);
            path.pop();
        }
        _ => {}
    }
}

fn node_at<'p>(p: &'p Predicate, path: &[u8]) -> &'p Predicate {
    let Some((&step, rest)) = path.split_first() else {
        return p;
    };
    match p {
        Predicate::Not(inner) => node_at(inner, rest),
        Predicate::And(a, b) | Predicate::Or(a, b) => node_at(if step == 0 { a } else { b }, rest),
        _ => p,
    }
}

fn cmp_at(p: &Predicate, path: &[u8]) -> Option<(sqlgen_engine::ColRef, CmpOp, Value)> {
    match node_at(p, path) {
        Predicate::Cmp {
            col,
            op,
            rhs: Rhs::Value(v),
        } => Some((col.clone(), *op, v.clone())),
        _ => None,
    }
}

/// Clones `stmt` with the `Cmp` atom at `path` rewritten to `(op, rhs)`.
fn with_cmp(stmt: &Statement, path: &[u8], op: CmpOp, rhs: Rhs) -> Statement {
    fn rewrite(p: &mut Predicate, path: &[u8], op: CmpOp, rhs: Rhs) {
        let Some((&step, rest)) = path.split_first() else {
            if let Predicate::Cmp { op: o, rhs: r, .. } = p {
                *o = op;
                *r = rhs;
            }
            return;
        };
        match p {
            Predicate::Not(inner) => rewrite(inner, rest, op, rhs),
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                rewrite(if step == 0 { a } else { b }, rest, op, rhs)
            }
            _ => {}
        }
    }
    let mut out = stmt.clone();
    let pred = match &mut out {
        Statement::Select(q) => q.predicate.as_mut(),
        Statement::Update(u) => u.predicate.as_mut(),
        Statement::Delete(d) => d.predicate.as_mut(),
        Statement::Insert(_) => None,
    };
    if let Some(p) = pred {
        rewrite(p, path, op, rhs);
    }
    out
}

/// Paths to droppable units: maximal subtrees that are not `And`/`Or`
/// (removing one promotes its sibling, keeping the tree well-formed).
fn collect_unit_paths(p: &Predicate, path: &mut Vec<u8>, out: &mut Vec<Vec<u8>>) {
    match p {
        Predicate::And(a, b) | Predicate::Or(a, b) => {
            path.push(0);
            collect_unit_paths(a, path, out);
            path.pop();
            path.push(1);
            collect_unit_paths(b, path, out);
            path.pop();
        }
        _ => out.push(path.clone()),
    }
}

/// Clones the tree with the unit at `path` removed (sibling promoted).
/// `path` must be non-empty and pass only through `And`/`Or` nodes.
fn remove_unit(p: &Predicate, path: &[u8]) -> Option<Predicate> {
    let (&step, rest) = path.split_first()?;
    match p {
        Predicate::And(a, b) | Predicate::Or(a, b) => {
            let (child, sibling) = if step == 0 { (a, b) } else { (b, a) };
            if rest.is_empty() {
                return Some((**sibling).clone());
            }
            let rebuilt = remove_unit(child, rest)?;
            let (l, r) = if step == 0 {
                (rebuilt, (**sibling).clone())
            } else {
                ((**sibling).clone(), rebuilt)
            };
            Some(match p {
                Predicate::And(..) => Predicate::And(Box::new(l), Box::new(r)),
                _ => Predicate::Or(Box::new(l), Box::new(r)),
            })
        }
        _ => None,
    }
}

fn vocab_column(vocab: &Vocabulary, table: &str, column: &str) -> Option<u32> {
    vocab
        .columns
        .iter()
        .position(|c| c.name == column && vocab.tables[c.table as usize] == table)
        .map(|i| i as u32)
}

/// Replacement constants for a `Cmp` atom on column `ci`: up to
/// [`CONSTANTS_PER_ATOM`] values evenly spaced over the column's sorted
/// vocabulary sample (so candidates span the selectivity range), minus the
/// current literal. Every candidate is a vocabulary value, hence a token
/// the FSM itself could have emitted.
fn constant_candidates(vocab: &Vocabulary, ci: u32, current: &Value) -> Vec<Value> {
    let mut vals: Vec<Value> = vocab
        .value_tokens_of(ci)
        .iter()
        .filter_map(|&tid| match vocab.token(tid as usize) {
            Token::Value(v) => Some(vocab.values[*v as usize].1.clone()),
            _ => None,
        })
        .collect();
    vals.sort_by(|a, b| a.total_cmp(b));
    vals.dedup_by(|a, b| a.total_cmp(b).is_eq());
    let cur_sql = current.to_sql();
    let picks: Vec<Value> = if vals.len() <= CONSTANTS_PER_ATOM {
        vals
    } else {
        (0..CONSTANTS_PER_ATOM)
            .map(|i| vals[i * (vals.len() - 1) / (CONSTANTS_PER_ATOM - 1)].clone())
            .collect()
    };
    picks
        .into_iter()
        .filter(|v| v.to_sql() != cur_sql)
        .collect()
}

/// Alternative operators for the atom, restricted to the FSM's operator
/// set for the column type (paper: strings get `{=, >, <}`).
fn op_candidates(vocab: &Vocabulary, ci: u32, current: CmpOp) -> Vec<CmpOp> {
    let allowed: &[CmpOp] = if vocab.columns[ci as usize].dtype.is_numeric() {
        &CmpOp::ALL
    } else {
        &[CmpOp::Eq, CmpOp::Gt, CmpOp::Lt]
    };
    allowed.iter().copied().filter(|&o| o != current).collect()
}

/// Adjacent join transpositions that keep the FROM invariant: every join's
/// left side must reference the base table or an earlier join's table.
fn join_reorders(q: &SelectQuery) -> Vec<SelectQuery> {
    let joins = &q.from.joins;
    let mut out = Vec::new();
    for i in 0..joins.len().saturating_sub(1) {
        let mut cand = q.clone();
        cand.from.joins.swap(i, i + 1);
        if from_order_valid(&cand.from) {
            out.push(cand);
        }
    }
    out
}

fn from_order_valid(from: &sqlgen_engine::FromClause) -> bool {
    from.joins.iter().enumerate().all(|(i, j)| {
        j.left.table == from.base || from.joins[..i].iter().any(|e| e.table == j.left.table)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlgen_engine::Estimator;
    use sqlgen_rl::Constraint;
    use sqlgen_storage::gen::tpch_database;
    use sqlgen_storage::sample::SampleConfig;

    fn setup() -> (sqlgen_storage::Database, Vocabulary) {
        let db = tpch_database(0.2, 21);
        let vocab = Vocabulary::build(
            &db,
            &SampleConfig {
                k: 20,
                ..Default::default()
            },
        );
        (db, vocab)
    }

    /// A simple range scan the estimator is monotone in: refinement must
    /// move it inside a constraint the original misses.
    #[test]
    fn search_fixes_a_missed_range_scan() {
        let (db, vocab) = setup();
        let est = Estimator::build(&db);
        // Start from a query the FSM could emit: full scan of lineitem,
        // then constrain cardinality far below the table size.
        let stmt = sqlgen_engine::parse("SELECT lineitem.l_orderkey FROM lineitem").unwrap();
        let full = est.cardinality(&stmt);
        assert!(full > 100.0, "fixture table too small: {full}");
        let constraint = Constraint::cardinality_range(1.0, full / 2.0);
        let env = SqlGenEnv::new(&vocab, &est, constraint);
        let measured = env.measure(&stmt);
        assert!(!constraint.satisfied(measured));
        let out = search(&env, &stmt, measured, DEFAULT_REFINE_BUDGET);
        // A full scan has no predicate to tighten, so tiers 1–3 offer no
        // moves; the search must report failure honestly, not loop.
        assert!(out.result.is_none());

        // Now a predicated query whose constant is simply too loose.
        let col = (0..vocab.columns.len() as u32)
            .find(|&ci| {
                let c = &vocab.columns[ci as usize];
                c.dtype.is_numeric()
                    && vocab.tables[c.table as usize] == "lineitem"
                    && !vocab.value_tokens_of(ci).is_empty()
            })
            .expect("lineitem has a sampled numeric column");
        let cname = &vocab.columns[col as usize].name;
        let vals = constant_candidates(&vocab, col, &Value::Null);
        let lo = &vals[0];
        let sql = format!(
            "SELECT lineitem.l_orderkey FROM lineitem WHERE lineitem.{cname} > {}",
            lo.to_sql()
        );
        let stmt = sqlgen_engine::parse(&sql).unwrap();
        let measured = env.measure(&stmt);
        let out = search(&env, &stmt, measured, DEFAULT_REFINE_BUDGET);
        if let Some((fixed, m)) = &out.result {
            assert!(constraint.satisfied(*m));
            assert_eq!(env.measure(fixed).to_bits(), m.to_bits());
            // Accepted rewards strictly increase.
            let mut prev = constraint.reward(measured);
            for step in &out.steps {
                assert!(step.reward > prev, "non-monotone step");
                prev = step.reward;
            }
        }
    }

    /// The search is deterministic: same inputs, same outcome, bit-exact.
    #[test]
    fn search_is_deterministic() {
        let (db, vocab) = setup();
        let est = Estimator::build(&db);
        let constraint = Constraint::cardinality_range(10.0, 100.0);
        let env = SqlGenEnv::new(&vocab, &est, constraint);
        let stmt = sqlgen_engine::parse("SELECT lineitem.l_orderkey FROM lineitem").unwrap();
        let m = env.measure(&stmt);
        let a = search(&env, &stmt, m, 64);
        let b = search(&env, &stmt, m, 64);
        assert_eq!(a.evals, b.evals);
        assert_eq!(
            a.steps.iter().map(|s| &s.sql).collect::<Vec<_>>(),
            b.steps.iter().map(|s| &s.sql).collect::<Vec<_>>()
        );
        match (&a.result, &b.result) {
            (Some((sa, ma)), Some((sb, mb))) => {
                assert_eq!(render(sa), render(sb));
                assert_eq!(ma.to_bits(), mb.to_bits());
            }
            (None, None) => {}
            _ => panic!("divergent results"),
        }
    }

    /// The LRU memoizes both successes and exhausted searches, and evicts
    /// least-recently-used entries at capacity.
    #[test]
    fn lru_caches_and_evicts() {
        let mut lru = RefineLru::new(2);
        lru.put("a".into(), None);
        lru.put("b".into(), None);
        assert!(lru.get("a").is_some()); // refreshes a
        lru.put("c".into(), None); // evicts b
        assert!(lru.get("b").is_none());
        assert!(lru.get("a").is_some());
        assert!(lru.get("c").is_some());
    }

    /// Unit-drop rewrites keep the predicate tree well formed and the
    /// query parseable/renderable at a fixpoint.
    #[test]
    fn candidate_rewrites_parse_and_rerender() {
        let (db, vocab) = setup();
        let sql = "SELECT lineitem.l_orderkey FROM lineitem WHERE \
                   lineitem.l_orderkey > 5 AND (lineitem.l_partkey < 100 OR \
                   NOT lineitem.l_suppkey = 3)";
        let stmt = sqlgen_engine::parse(sql).unwrap();
        let cands = candidates(&vocab, &stmt);
        assert!(!cands.is_empty());
        for cand in &cands {
            let rendered = render(cand);
            let reparsed = sqlgen_engine::parse(&rendered)
                .unwrap_or_else(|e| panic!("candidate failed to parse: {rendered}: {e:?}"));
            assert_eq!(render(&reparsed), rendered);
            sqlgen_engine::validate(&db, cand)
                .unwrap_or_else(|e| panic!("candidate invalid: {rendered}: {e:?}"));
        }
    }

    /// Join transpositions must preserve the "left references an earlier
    /// table" FROM invariant.
    #[test]
    fn join_reorders_preserve_from_invariant() {
        let (db, _vocab) = setup();
        let sql = "SELECT orders.o_orderkey FROM orders \
                   JOIN customer ON orders.o_custkey = customer.c_custkey \
                   JOIN lineitem ON orders.o_orderkey = lineitem.l_orderkey";
        let stmt = sqlgen_engine::parse(sql).unwrap();
        let Statement::Select(q) = &stmt else {
            unreachable!()
        };
        for cand in join_reorders(q) {
            assert!(from_order_valid(&cand.from));
            sqlgen_engine::validate(&db, &Statement::Select(cand)).unwrap();
        }
    }
}
