//! Template-based baseline (paper §7.1 "Template", after Bruno et al. \[10\]
//! and Mishra et al. \[38\]).
//!
//! A template is a statement whose predicate literals are tunable holes
//! ("the x in R.a < x"). Tuning combines the two published techniques:
//!
//! * **Mishra-style space pruning**: probe a batch of random hole
//!   assignments, keep the top-k by closeness to the constraint;
//! * **Bruno-style hill climbing**: from each surviving assignment, greedily
//!   move individual holes up/down the sorted candidate-value lists while
//!   the constraint distance shrinks.
//!
//! The template pool is built by "reassembling the predicates" of FSM
//! rollouts (as the paper constructs its template sets from the benchmarks'
//! provided templates), or supplied directly as SQL text.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlgen_engine::{ColRef, Predicate, Rhs, SelectQuery, Statement};
use sqlgen_fsm::{random_statement, FsmConfig, Vocabulary};
use sqlgen_rl::SqlGenEnv;
use sqlgen_storage::Value;

/// Visits every tunable literal (column, value) pair in a predicate,
/// including inside nested subqueries.
fn visit_pred_values<F: FnMut(&ColRef, &mut Value)>(p: &mut Predicate, f: &mut F) {
    match p {
        Predicate::Cmp { col, rhs, .. } => match rhs {
            Rhs::Value(v) => f(col, v),
            Rhs::Subquery(sub) => visit_select_values(sub, f),
        },
        Predicate::Like { .. } => {} // patterns are not value-pool tunable
        Predicate::In { sub, .. } | Predicate::Exists { sub } => visit_select_values(sub, f),
        Predicate::Not(inner) => visit_pred_values(inner, f),
        Predicate::And(a, b) | Predicate::Or(a, b) => {
            visit_pred_values(a, f);
            visit_pred_values(b, f);
        }
    }
}

fn visit_select_values<F: FnMut(&ColRef, &mut Value)>(q: &mut SelectQuery, f: &mut F) {
    if let Some(p) = &mut q.predicate {
        visit_pred_values(p, f);
    }
    if let Some(h) = &mut q.having {
        match &mut h.rhs {
            Rhs::Value(v) => f(&h.col, v),
            Rhs::Subquery(sub) => visit_select_values(sub, f),
        }
    }
}

/// Visits every tunable literal in a statement.
pub fn visit_statement_values<F: FnMut(&ColRef, &mut Value)>(s: &mut Statement, f: &mut F) {
    match s {
        Statement::Select(q) => visit_select_values(q, f),
        Statement::Update(u) => {
            if let Some(p) = &mut u.predicate {
                visit_pred_values(p, f);
            }
        }
        Statement::Delete(d) => {
            if let Some(p) = &mut d.predicate {
                visit_pred_values(p, f);
            }
        }
        Statement::Insert(_) => {}
    }
}

/// The column of every hole, in visit order.
pub fn hole_columns(s: &Statement) -> Vec<ColRef> {
    let mut out = Vec::new();
    let mut clone = s.clone();
    visit_statement_values(&mut clone, &mut |col, _| out.push(col.clone()));
    out
}

/// Overwrites the statement's holes with `values` (in visit order).
pub fn set_holes(s: &mut Statement, values: &[Value]) {
    let mut i = 0;
    visit_statement_values(s, &mut |_, v| {
        if let Some(nv) = values.get(i) {
            *v = nv.clone();
        }
        i += 1;
    });
    debug_assert_eq!(i, values.len(), "hole count mismatch");
}

/// Template-based generator.
pub struct TemplateGen {
    pub templates: Vec<Statement>,
    rng: StdRng,
    /// Random probes for the Mishra pruning phase.
    pub probes: usize,
    /// Assignments kept after pruning (hill-climb starts).
    pub top_k: usize,
    /// Maximum hill-climbing sweeps per start.
    pub climb_sweeps: usize,
    next_template: usize,
}

impl TemplateGen {
    /// Builds a template pool from FSM rollouts: statements with at least
    /// one tunable hole, deduplicated by structure.
    pub fn from_rollouts(vocab: &Vocabulary, cfg: &FsmConfig, n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut templates = Vec::with_capacity(n);
        let mut guard = 0;
        while templates.len() < n && guard < n * 50 {
            guard += 1;
            let (stmt, _) = random_statement(vocab, cfg, &mut rng);
            if !hole_columns(&stmt).is_empty() {
                templates.push(stmt);
            }
        }
        TemplateGen::from_statements(templates, seed ^ 0x7e3a)
    }

    pub fn from_statements(templates: Vec<Statement>, seed: u64) -> Self {
        TemplateGen {
            templates,
            rng: StdRng::seed_from_u64(seed),
            probes: 12,
            top_k: 3,
            climb_sweeps: 8,
            next_template: 0,
        }
    }

    /// Sorted candidate values for a hole's column, from the action space.
    fn candidates(env: &SqlGenEnv, col: &ColRef) -> Vec<Value> {
        let vocab = env.vocab;
        let Some(cid) = vocab
            .columns
            .iter()
            .position(|c| vocab.tables[c.table as usize] == col.table && c.name == col.column)
        else {
            return Vec::new();
        };
        vocab
            .value_tokens_of(cid as u32)
            .iter()
            .map(|&t| match vocab.token(t as usize) {
                sqlgen_fsm::Token::Value(v) => vocab.values[*v as usize].1.clone(),
                other => unreachable!("value token expected, got {other:?}"),
            })
            .collect()
    }

    /// Constraint reward of an assignment (higher = closer).
    fn score(env: &SqlGenEnv, template: &Statement, cands: &[Vec<Value>], idx: &[usize]) -> f64 {
        let mut stmt = template.clone();
        let values: Vec<Value> = idx.iter().zip(cands).map(|(&i, c)| c[i].clone()).collect();
        set_holes(&mut stmt, &values);
        env.constraint.reward(env.measure(&stmt))
    }

    /// Tunes one template toward the constraint: pruning + hill climbing.
    /// Returns the best concrete statement found (satisfied or not).
    pub fn tune(&mut self, env: &SqlGenEnv, template: &Statement) -> Statement {
        let holes = hole_columns(template);
        let cands: Vec<Vec<Value>> = holes.iter().map(|c| Self::candidates(env, c)).collect();
        if holes.is_empty() || cands.iter().any(Vec::is_empty) {
            return template.clone();
        }

        // Phase 1: Mishra-style probing.
        let mut starts: Vec<(f64, Vec<usize>)> = (0..self.probes)
            .map(|_| {
                let idx: Vec<usize> = cands
                    .iter()
                    .map(|c| self.rng.random_range(0..c.len()))
                    .collect();
                (Self::score(env, template, &cands, &idx), idx)
            })
            .collect();
        starts.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores"));
        starts.truncate(self.top_k);

        // Phase 2: Bruno-style hill climbing from each survivor.
        let mut best = starts[0].clone();
        for (score0, idx0) in starts {
            let mut cur = (score0, idx0);
            for _ in 0..self.climb_sweeps {
                let mut improved = false;
                for h in 0..cur.1.len() {
                    for step in [-1isize, 1] {
                        let ni = cur.1[h] as isize + step;
                        if ni < 0 || ni as usize >= cands[h].len() {
                            continue;
                        }
                        let mut idx = cur.1.clone();
                        idx[h] = ni as usize;
                        let s = Self::score(env, template, &cands, &idx);
                        if s > cur.0 {
                            cur = (s, idx);
                            improved = true;
                        }
                    }
                }
                if !improved || cur.0 >= 1.0 {
                    break;
                }
            }
            if cur.0 > best.0 {
                best = cur;
            }
        }

        let mut stmt = template.clone();
        let values: Vec<Value> = best
            .1
            .iter()
            .zip(&cands)
            .map(|(&i, c)| c[i].clone())
            .collect();
        set_holes(&mut stmt, &values);
        stmt
    }

    /// One tuning attempt on the next template (round-robin).
    pub fn generate(&mut self, env: &SqlGenEnv) -> Statement {
        assert!(!self.templates.is_empty(), "template pool is empty");
        let t = self.templates[self.next_template % self.templates.len()].clone();
        self.next_template += 1;
        self.tune(env, &t)
    }

    /// Tune until `n` satisfied statements or `max_attempts` tuning runs.
    pub fn find_satisfied(
        &mut self,
        env: &SqlGenEnv,
        n: usize,
        max_attempts: usize,
    ) -> (Vec<Statement>, usize) {
        let mut out = Vec::with_capacity(n);
        let mut attempts = 0;
        while out.len() < n && attempts < max_attempts {
            attempts += 1;
            let stmt = self.generate(env);
            if env.satisfies(&stmt) {
                out.push(stmt);
            }
        }
        (out, attempts)
    }

    /// Fraction of tuning attempts that land inside the constraint.
    pub fn accuracy(&mut self, env: &SqlGenEnv, n: usize) -> f64 {
        let mut hits = 0;
        for _ in 0..n {
            if env.satisfies(&self.generate(env)) {
                hits += 1;
            }
        }
        hits as f64 / n.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlgen_engine::{parse, Estimator};
    use sqlgen_rl::Constraint;
    use sqlgen_storage::gen::tpch_database;
    use sqlgen_storage::sample::SampleConfig;

    fn setup() -> (sqlgen_storage::Database, Vocabulary, Estimator) {
        let db = tpch_database(0.5, 4);
        let vocab = Vocabulary::build(
            &db,
            &SampleConfig {
                k: 30,
                ..Default::default()
            },
        );
        let est = Estimator::build(&db);
        (db, vocab, est)
    }

    #[test]
    fn hole_detection_and_substitution() {
        let mut stmt = parse(
            "SELECT lineitem.l_quantity FROM lineitem \
             WHERE lineitem.l_quantity < 10 AND lineitem.l_shipmode = 'AIR'",
        )
        .unwrap();
        let holes = hole_columns(&stmt);
        assert_eq!(holes.len(), 2);
        assert_eq!(holes[0].column, "l_quantity");
        set_holes(&mut stmt, &[Value::Int(42), Value::Text("RAIL".into())]);
        let sql = sqlgen_engine::render(&stmt);
        assert!(sql.contains("< 42") && sql.contains("'RAIL'"), "{sql}");
    }

    #[test]
    fn holes_inside_subqueries_are_found() {
        let stmt = parse(
            "SELECT orders.o_orderkey FROM orders WHERE orders.o_custkey IN \
             (SELECT customer.c_custkey FROM customer WHERE customer.c_acctbal > 100.0)",
        )
        .unwrap();
        assert_eq!(hole_columns(&stmt).len(), 1);
    }

    #[test]
    fn tuning_moves_toward_the_constraint() {
        let (_db, vocab, est) = setup();
        let template =
            parse("SELECT lineitem.l_quantity FROM lineitem WHERE lineitem.l_quantity < 1")
                .unwrap();
        // Target roughly half the table.
        let total = est.cardinality(&parse("SELECT lineitem.l_quantity FROM lineitem").unwrap());
        let target = total / 2.0;
        let env = SqlGenEnv::new(
            &vocab,
            &est,
            Constraint::cardinality_range(target * 0.7, target * 1.3),
        );
        let mut tg = TemplateGen::from_statements(vec![template.clone()], 1);
        let tuned = tg.tune(&env, &template);
        let before = env.constraint.reward(env.measure(&template));
        let after = env.constraint.reward(env.measure(&tuned));
        assert!(after > before, "tuning regressed: {before} -> {after}");
        assert!(after > 0.6, "hill climb should get close, got {after}");
    }

    #[test]
    fn template_pool_from_rollouts_has_holes() {
        let (_db, vocab, _est) = setup();
        let tg = TemplateGen::from_rollouts(&vocab, &FsmConfig::default(), 10, 7);
        assert_eq!(tg.templates.len(), 10);
        for t in &tg.templates {
            assert!(!hole_columns(t).is_empty());
        }
    }

    #[test]
    fn template_fails_when_structure_cannot_reach_target() {
        // The paper's Figure 6 anecdote: a template over a small table can
        // never reach a huge cardinality no matter the predicate values.
        let (_db, vocab, est) = setup();
        let template =
            parse("SELECT region.r_name FROM region WHERE region.r_regionkey < 3").unwrap();
        let env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_point(1e8));
        let mut tg = TemplateGen::from_statements(vec![template], 1);
        let (found, attempts) = tg.find_satisfied(&env, 1, 10);
        assert!(found.is_empty());
        assert_eq!(attempts, 10);
    }

    #[test]
    fn find_satisfied_on_reachable_constraint() {
        let (_db, vocab, est) = setup();
        let env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(10.0, 100_000.0));
        let mut tg = TemplateGen::from_rollouts(&vocab, &FsmConfig::default(), 8, 3);
        let (found, _) = tg.find_satisfied(&env, 3, 50);
        assert!(!found.is_empty());
        for s in &found {
            assert!(env.satisfies(s));
        }
    }
}
