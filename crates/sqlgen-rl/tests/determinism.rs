//! Determinism guarantee of the width-1 trainer entry points: they must
//! reproduce the pinned token streams bit-for-bit. `golden_tokens.json`
//! was dumped by `examples/golden_dump.rs` from the original per-episode
//! loops; `golden_ablation_tokens.json` from the meta-critic and
//! AC-extend trainers as they ran on the serial episode engine.

use sqlgen_engine::Estimator;
use sqlgen_fsm::Vocabulary;
use sqlgen_rl::{
    AcExtend, ActorCritic, Constraint, MetaCriticTrainer, NetConfig, Reinforce, SqlGenEnv,
    TrainConfig,
};
use sqlgen_storage::gen::tpch_database;
use sqlgen_storage::sample::SampleConfig;
use sqlgen_storage::Database;

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

fn testbed() -> (Database, Vocabulary) {
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

fn fixture_episodes(key: &str) -> Vec<Vec<usize>> {
    fixture_file_episodes("golden_tokens.json", key)
}

fn fixture_file_episodes(file: &str, key: &str) -> Vec<Vec<usize>> {
    let path = format!("{}/tests/fixtures/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(path).expect("golden fixture present");
    let v: serde_json::Value = serde_json::from_str(&text).expect("fixture parses");
    v.get(key)
        .unwrap_or_else(|| panic!("fixture key {key}"))
        .as_array()
        .expect("array of episodes")
        .iter()
        .map(|ep| {
            ep.as_array()
                .expect("array of tokens")
                .iter()
                .map(|t| t.as_u64().expect("token id") as usize)
                .collect()
        })
        .collect()
}

/// The serial entry points reproduce the exact token streams the original
/// (pre-arena, pre-fused-kernel) per-episode loops produced.
#[test]
fn serial_batches_reproduce_golden_token_streams() {
    let (db, vocab) = testbed();
    let est = Estimator::build(&db);
    let env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(100.0, 800.0));

    let mut ac = ActorCritic::new(vocab.size(), cfg());
    let train: Vec<Vec<usize>> = (0..40).map(|_| ac.train_episode(&env).actions).collect();
    assert_eq!(train, fixture_episodes("ac_train"), "AC training drifted");
    let generated: Vec<Vec<usize>> = (0..10).map(|_| ac.generate(&env).actions).collect();
    assert_eq!(
        generated,
        fixture_episodes("ac_generate"),
        "AC generation drifted"
    );

    let mut rf = Reinforce::new(vocab.size(), cfg());
    let train: Vec<Vec<usize>> = (0..20).map(|_| rf.train_episode(&env).actions).collect();
    assert_eq!(train, fixture_episodes("rf_train"), "RF training drifted");
    let generated: Vec<Vec<usize>> = (0..5).map(|_| rf.generate(&env).actions).collect();
    assert_eq!(
        generated,
        fixture_episodes("rf_generate"),
        "RF generation drifted"
    );
}

/// The meta-critic and AC-extend trainers reproduce their pinned token
/// streams: two constraint tasks trained round-robin, then generation.
#[test]
fn ablation_trainers_reproduce_golden_token_streams() {
    let (db, vocab) = testbed();
    let est = Estimator::build(&db);
    let constraints = [
        Constraint::cardinality_range(100.0, 800.0),
        Constraint::cardinality_range(1_000.0, 5_000.0),
    ];
    let envs: Vec<SqlGenEnv> = constraints
        .iter()
        .map(|&c| SqlGenEnv::new(&vocab, &est, c))
        .collect();
    let want = |key| fixture_file_episodes("golden_ablation_tokens.json", key);

    let mut mc = MetaCriticTrainer::new(vocab.size(), constraints.to_vec(), cfg());
    let mut train = Vec::new();
    for _ in 0..12 {
        for (i, env) in envs.iter().enumerate() {
            train.push(mc.train_task(i, env).actions);
        }
    }
    assert_eq!(train, want("mc_train"), "meta-critic training drifted");
    let mut generated = Vec::new();
    for _ in 0..4 {
        for (i, env) in envs.iter().enumerate() {
            generated.push(mc.generate(i, env).actions);
        }
    }
    assert_eq!(
        generated,
        want("mc_generate"),
        "meta-critic generation drifted"
    );

    let mut ace = AcExtend::new(vocab.size(), cfg(), (10.0, 10_000.0));
    let mut train = Vec::new();
    for _ in 0..12 {
        for env in &envs {
            train.push(ace.train_episode(env).actions);
        }
    }
    assert_eq!(train, want("ace_train"), "AC-extend training drifted");
    let mut generated = Vec::new();
    for _ in 0..4 {
        for env in &envs {
            generated.push(ace.generate(env).actions);
        }
    }
    assert_eq!(
        generated,
        want("ace_generate"),
        "AC-extend generation drifted"
    );
}
