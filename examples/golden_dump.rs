//! One-shot fixture dumper: records the exact token streams the pre-kernel
//! code produces for fixed seeds. The output is committed as
//! `crates/sqlgen-rl/tests/fixtures/golden_tokens.json` and guarded by the
//! determinism tests — the serial path must reproduce it bit-for-bit.

use sqlgen_engine::Estimator;
use sqlgen_fsm::Vocabulary;
use sqlgen_rl::{ActorCritic, Constraint, NetConfig, Reinforce, SqlGenEnv, TrainConfig};
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

    // Core-level fixture: the full pipeline (vocab build, training, SQL
    // rendering) for GenConfig::fast().with_seed(5).
    use sqlgen_core::{GenConfig, LearnedSqlGen};
    let mut g = LearnedSqlGen::new(
        &db,
        Constraint::cardinality_range(100.0, 500.0),
        GenConfig::fast().with_seed(5),
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
