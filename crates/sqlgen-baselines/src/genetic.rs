//! Genetic-algorithm baseline after Bati et al. \[8\] (paper related work:
//! "a genetic approach for random testing of database systems").
//!
//! Bati et al. evolve a population of queries through random mutations
//! (addition/removal of predicates, operand tweaks) selected by a fitness
//! function. The paper cites it as a constraint-blind random tester; here
//! the fitness *is* the constraint reward, making it a third, stronger
//! baseline between pure random search and the learned policy:
//!
//! * population of valid statements (seeded from FSM rollouts),
//! * mutations: re-tune a predicate literal, add/drop a predicate atom,
//!   regenerate the whole statement (structure-level mutation),
//! * tournament selection by §4.2 reward, elitism for the best individual.

use crate::template::{hole_columns, set_holes, visit_statement_values};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlgen_engine::Statement;
use sqlgen_fsm::{random_statement, FsmConfig, Token, Vocabulary};
use sqlgen_rl::SqlGenEnv;
use sqlgen_storage::Value;

/// GA hyper-parameters.
#[derive(Debug, Clone)]
pub struct GeneticConfig {
    pub population: usize,
    pub generations_per_attempt: usize,
    /// Probability of a structural mutation (full regeneration) vs a
    /// literal mutation.
    pub structure_mutation_rate: f64,
    pub tournament: usize,
}

impl Default for GeneticConfig {
    fn default() -> Self {
        GeneticConfig {
            population: 16,
            generations_per_attempt: 6,
            structure_mutation_rate: 0.25,
            tournament: 3,
        }
    }
}

/// The genetic baseline generator.
pub struct GeneticGen {
    pub cfg: GeneticConfig,
    rng: StdRng,
    population: Vec<Statement>,
}

impl GeneticGen {
    /// Seeds the population with FSM rollouts.
    pub fn new(vocab: &Vocabulary, fsm: &FsmConfig, cfg: GeneticConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6e6e);
        let population = (0..cfg.population)
            .map(|_| random_statement(vocab, fsm, &mut rng).0)
            .collect();
        GeneticGen {
            cfg,
            rng,
            population,
        }
    }

    fn fitness(env: &SqlGenEnv, stmt: &Statement) -> f64 {
        env.constraint.reward(env.measure(stmt))
    }

    /// One literal mutation: replace a random hole with a random candidate
    /// from the vocabulary's value pool for that column.
    fn mutate_literal(&mut self, env: &SqlGenEnv, stmt: &mut Statement) {
        let holes = hole_columns(stmt);
        if holes.is_empty() {
            return;
        }
        let target = self.rng.random_range(0..holes.len());
        // Current hole values, with the target replaced.
        let mut values: Vec<Value> = Vec::with_capacity(holes.len());
        visit_statement_values(stmt, &mut |_, v| values.push(v.clone()));
        let vocab = env.vocab;
        let col = &holes[target];
        if let Some(cid) = vocab
            .columns
            .iter()
            .position(|c| vocab.tables[c.table as usize] == col.table && c.name == col.column)
        {
            let pool = vocab.value_tokens_of(cid as u32);
            if !pool.is_empty() {
                let pick = pool[self.rng.random_range(0..pool.len())];
                if let Token::Value(vid) = vocab.token(pick as usize) {
                    values[target] = vocab.values[*vid as usize].1.clone();
                }
            }
        }
        set_holes(stmt, &values);
    }

    /// One evolution round over the population; returns the best individual
    /// and its fitness.
    pub fn evolve(&mut self, env: &SqlGenEnv) -> (Statement, f64) {
        for _ in 0..self.cfg.generations_per_attempt {
            let scored: Vec<f64> = self
                .population
                .iter()
                .map(|s| Self::fitness(env, s))
                .collect();
            let best_idx = scored
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                .map(|(i, _)| i)
                .unwrap_or(0);

            let mut next = Vec::with_capacity(self.population.len());
            // Elitism: the champion survives unchanged.
            next.push(self.population[best_idx].clone());
            while next.len() < self.population.len() {
                // Tournament selection.
                let mut winner = self.rng.random_range(0..self.population.len());
                for _ in 1..self.cfg.tournament {
                    let challenger = self.rng.random_range(0..self.population.len());
                    if scored[challenger] > scored[winner] {
                        winner = challenger;
                    }
                }
                let mut child = self.population[winner].clone();
                if self.rng.random::<f64>() < self.cfg.structure_mutation_rate {
                    // Structural mutation: brand-new individual.
                    child = random_statement(env.vocab, &env.fsm_config, &mut self.rng).0;
                } else {
                    self.mutate_literal(env, &mut child);
                }
                next.push(child);
            }
            self.population = next;
        }
        let (best, fit) = self
            .population
            .iter()
            .map(|s| (s, Self::fitness(env, s)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("non-empty population");
        (best.clone(), fit)
    }

    /// Generate-until-satisfied driver, mirroring the other baselines.
    pub fn find_satisfied(
        &mut self,
        env: &SqlGenEnv,
        n: usize,
        max_attempts: usize,
    ) -> (Vec<Statement>, usize) {
        let mut out: Vec<Statement> = Vec::with_capacity(n);
        let mut attempts = 0;
        while out.len() < n && attempts < max_attempts {
            attempts += 1;
            let (best, _) = self.evolve(env);
            if env.satisfies(&best) && !out.contains(&best) {
                out.push(best);
            }
        }
        (out, attempts)
    }

    /// Fraction of evolution attempts whose champion satisfies the
    /// constraint.
    pub fn accuracy(&mut self, env: &SqlGenEnv, n: usize) -> f64 {
        let mut hits = 0;
        for _ in 0..n {
            let (best, _) = self.evolve(env);
            if env.satisfies(&best) {
                hits += 1;
            }
        }
        hits as f64 / n.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlgen_engine::Estimator;
    use sqlgen_rl::Constraint;
    use sqlgen_storage::gen::tpch_database;
    use sqlgen_storage::sample::SampleConfig;

    fn setup() -> (sqlgen_storage::Database, Vocabulary, Estimator) {
        let db = tpch_database(0.25, 4);
        let vocab = Vocabulary::build(
            &db,
            &SampleConfig {
                k: 20,
                ..Default::default()
            },
        );
        let est = Estimator::build(&db);
        (db, vocab, est)
    }

    #[test]
    fn population_individuals_are_valid() {
        let (db, vocab, est) = setup();
        let env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(1.0, 1e6));
        let mut g = GeneticGen::new(&vocab, &env.fsm_config, GeneticConfig::default(), 1);
        for _ in 0..3 {
            let (best, _) = g.evolve(&env);
            sqlgen_engine::validate(&db, &best).unwrap();
        }
        for s in &g.population {
            sqlgen_engine::validate(&db, s).unwrap();
        }
    }

    #[test]
    fn evolution_improves_fitness_over_random() {
        let (_db, vocab, est) = setup();
        let constraint = Constraint::cardinality_range(200.0, 400.0);
        let env = SqlGenEnv::new(&vocab, &est, constraint);
        // Random champion fitness: best of population without evolution.
        let mut g = GeneticGen::new(&vocab, &env.fsm_config, GeneticConfig::default(), 2);
        let random_best: f64 = g
            .population
            .iter()
            .map(|s| GeneticGen::fitness(&env, s))
            .fold(0.0, f64::max);
        let (_, evolved) = g.evolve(&env);
        assert!(
            evolved >= random_best,
            "evolution regressed: {evolved} < {random_best}"
        );
    }

    #[test]
    fn beats_pure_random_on_point_constraints() {
        let (_db, vocab, est) = setup();
        let constraint = Constraint::cardinality_point(500.0);
        let env = SqlGenEnv::new(&vocab, &est, constraint);
        let mut genetic = GeneticGen::new(&vocab, &env.fsm_config, GeneticConfig::default(), 3);
        let genetic_acc = genetic.accuracy(&env, 20);
        let mut random = crate::RandomGen::new(3);
        let random_acc = random.accuracy(&env, 20 * 16 * 6); // same query budget
        assert!(
            genetic_acc > random_acc,
            "genetic {genetic_acc:.3} vs random {random_acc:.3}"
        );
    }

    #[test]
    fn find_satisfied_respects_budget_and_dedups() {
        let (_db, vocab, est) = setup();
        let env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(1e13, 1e14));
        let mut g = GeneticGen::new(&vocab, &env.fsm_config, GeneticConfig::default(), 4);
        let (found, attempts) = g.find_satisfied(&env, 2, 5);
        assert!(found.is_empty());
        assert_eq!(attempts, 5);
    }
}
