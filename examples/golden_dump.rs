//! Fixture dumper: records the exact token streams and pipeline output the
//! trainers produce for fixed seeds. Writes three committed fixtures:
//!
//! * `crates/sqlgen-rl/tests/fixtures/golden_tokens.json` — `ActorCritic`
//!   and `Reinforce` training and generation streams;
//! * `crates/sqlgen-rl/tests/fixtures/golden_ablation_tokens.json` —
//!   `MetaCriticTrainer` and `AcExtend` training and generation streams;
//! * `crates/sqlgen-core/tests/fixtures/golden_pipeline.json` — the full
//!   `GenConfig::fast()` pipeline with refinement off.
//!
//! The determinism tests pin every fixture bit-for-bit, and CI reruns this
//! dumper and fails on any diff, so the fixtures and their generator cannot
//! drift apart. Run from the repository root:
//!
//! ```sh
//! cargo run --release --example golden_dump
//! ```

use sqlgen_engine::Estimator;
use sqlgen_fsm::Vocabulary;
use sqlgen_rl::{
    AcExtend, ActorCritic, Constraint, MetaCriticTrainer, NetConfig, Reinforce, SqlGenEnv,
    TrainConfig,
};
use sqlgen_storage::gen::tpch_database;
use sqlgen_storage::sample::SampleConfig;

fn cfg() -> TrainConfig {
    TrainConfig {
        net: NetConfig {
            embed_dim: 16,
            hidden: 16,
            layers: 2,
            dropout: 0.3,
        },
        seed: 5,
        ..Default::default()
    }
}

fn main() {
    let db = tpch_database(0.2, 21);
    let vocab = Vocabulary::build(
        &db,
        &SampleConfig {
            k: 20,
            ..Default::default()
        },
    );
    let est = Estimator::build(&db);
    let env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(100.0, 800.0));

    let mut ac = ActorCritic::new(vocab.size(), cfg());
    let mut ac_train = Vec::new();
    for _ in 0..40 {
        let ep = ac.train_episode(&env);
        ac_train.push(ep.actions.clone());
    }
    let mut ac_generate = Vec::new();
    for _ in 0..10 {
        let ep = ac.generate(&env);
        ac_generate.push(ep.actions.clone());
    }

    let mut rf = Reinforce::new(vocab.size(), cfg());
    let mut rf_train = Vec::new();
    for _ in 0..20 {
        let ep = rf.train_episode(&env);
        rf_train.push(ep.actions.clone());
    }
    let mut rf_generate = Vec::new();
    for _ in 0..5 {
        let ep = rf.generate(&env);
        rf_generate.push(ep.actions.clone());
    }

    std::fs::write(
        "crates/sqlgen-rl/tests/fixtures/golden_tokens.json",
        format!(
            "{{\"ac_train\":{},\"ac_generate\":{},\"rf_train\":{},\"rf_generate\":{}}}\n",
            arr(&ac_train),
            arr(&ac_generate),
            arr(&rf_train),
            arr(&rf_generate)
        ),
    )
    .expect("write rl fixture");

    // Ablation trainers: the meta-critic (two tasks, trained round-robin)
    // and AC-extend (one network, constraint switched per episode).
    let constraints = [
        Constraint::cardinality_range(100.0, 800.0),
        Constraint::cardinality_range(1_000.0, 5_000.0),
    ];
    let envs: Vec<SqlGenEnv> = constraints
        .iter()
        .map(|&c| SqlGenEnv::new(&vocab, &est, c))
        .collect();
    let mut mc = MetaCriticTrainer::new(vocab.size(), constraints.to_vec(), cfg());
    let mut mc_train = Vec::new();
    for _ in 0..12 {
        for (i, env) in envs.iter().enumerate() {
            mc_train.push(mc.train_task(i, env).actions);
        }
    }
    let mut mc_generate = Vec::new();
    for _ in 0..4 {
        for (i, env) in envs.iter().enumerate() {
            mc_generate.push(mc.generate(i, env).actions);
        }
    }
    let mut ace = AcExtend::new(vocab.size(), cfg(), (10.0, 10_000.0));
    let mut ace_train = Vec::new();
    for _ in 0..12 {
        for env in &envs {
            ace_train.push(ace.train_episode(env).actions);
        }
    }
    let mut ace_generate = Vec::new();
    for _ in 0..4 {
        for env in &envs {
            ace_generate.push(ace.generate(env).actions);
        }
    }
    std::fs::write(
        "crates/sqlgen-rl/tests/fixtures/golden_ablation_tokens.json",
        format!(
            "{{\"mc_train\":{},\"mc_generate\":{},\"ace_train\":{},\"ace_generate\":{}}}\n",
            arr(&mc_train),
            arr(&mc_generate),
            arr(&ace_train),
            arr(&ace_generate)
        ),
    )
    .expect("write ablation fixture");

    // Core-level fixture: the full pipeline (vocab build, training, SQL
    // rendering) for GenConfig::fast().with_seed(5) with refinement off —
    // the configuration `golden_pipeline.rs` checks.
    use sqlgen_core::{GenConfig, LearnedSqlGen};
    let mut g = LearnedSqlGen::new(
        &db,
        Constraint::cardinality_range(100.0, 500.0),
        GenConfig::fast().with_seed(5).with_refine(false),
    );
    g.train(60);
    let trace_bits: Vec<String> = g
        .stats
        .reward_trace
        .iter()
        .map(|r| r.to_bits().to_string())
        .collect();
    let sql: Vec<String> = g
        .generate(8)
        .into_iter()
        .map(|q| format!("{:?}", q.sql))
        .collect();
    std::fs::write(
        "crates/sqlgen-core/tests/fixtures/golden_pipeline.json",
        format!(
            "{{\"reward_trace_bits\":[{}],\"sql\":[{}]}}\n",
            trace_bits.join(","),
            sql.join(",")
        ),
    )
    .expect("write core fixture");
    println!("fixtures written");
}

/// Renders episodes' token streams as a JSON array of arrays.
fn arr(eps: &[Vec<usize>]) -> String {
    let rows: Vec<String> = eps
        .iter()
        .map(|ep| {
            let toks: Vec<String> = ep.iter().map(|a| a.to_string()).collect();
            format!("[{}]", toks.join(","))
        })
        .collect();
    format!("[{}]", rows.join(","))
}
