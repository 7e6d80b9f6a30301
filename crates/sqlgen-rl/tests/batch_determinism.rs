//! Determinism contract of the batched GEMM inference engine.
//!
//! * Per-lane equivalence: every lane of a batched rollout reproduces, bit
//!   for bit, the serial `run_episode_infer` stream of that lane's seed
//!   (`base ^ lane`), including across continuous lane refills.
//! * `batch_size = 1` through the trainer facade is bit-identical to the
//!   legacy per-episode generation loop.
//! * A fixed `(seed, batch_size)` pair is reproducible run-to-run.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqlgen_engine::Estimator;
use sqlgen_fsm::Vocabulary;
use sqlgen_rl::{
    run_episode_infer, worker_seed, ActorCritic, ActorNet, BatchRollout, Constraint, InferRollout,
    NetConfig, SqlGenEnv, TrainConfig,
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

/// Each lane of the batched engine emits exactly the token/reward streams a
/// serial inference loop produces for that lane's seed, on a TPC-H-scale
/// vocabulary and with more jobs than lanes (forcing refills mid-run).
#[test]
fn batched_lanes_match_serial_inference_on_tpch() {
    let (db, vocab) = testbed();
    let est = Estimator::build(&db);
    let env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(100.0, 800.0));
    let actor = ActorNet::new(vocab.size(), &cfg().net, 1234);
    let base = 0xBA7C4;

    for &batch in &[2usize, 8] {
        let n = 2 * batch + 3; // uneven: some lanes run one extra episode
        let mut ro = BatchRollout::new();
        let tagged = ro.collect_tagged(&actor, &env, n, batch, base);
        assert_eq!(tagged.len(), n);

        for lane in 0..batch {
            let mut lane_eps: Vec<_> = tagged.iter().filter(|(_, l, _)| *l == lane).collect();
            lane_eps.sort_by_key(|(job, _, _)| *job);
            let mut rng = StdRng::seed_from_u64(worker_seed(base, lane));
            let mut iro = InferRollout::new();
            for (job, _, ep) in lane_eps {
                let serial = run_episode_infer(&actor, &env, &mut rng, &mut iro);
                assert_eq!(
                    ep.actions, serial.actions,
                    "batch={batch} lane={lane} job={job}: token stream diverged"
                );
                assert_eq!(
                    ep.rewards, serial.rewards,
                    "batch={batch} lane={lane} job={job}: rewards diverged"
                );
            }
        }
    }
}

/// Through the trainer facade, `generate_batched(n, 1)` is the legacy
/// serial path: identical episodes, same trainer RNG consumption.
#[test]
fn facade_batch_one_is_bit_identical_to_legacy_generate() {
    let (db, vocab) = testbed();
    let est = Estimator::build(&db);
    let env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(100.0, 800.0));

    let legacy: Vec<Vec<usize>> = {
        let mut ac = ActorCritic::new(vocab.size(), cfg());
        ac.train_batched(&env, 10, 1);
        (0..6).map(|_| ac.generate(&env).actions).collect()
    };
    let batched: Vec<Vec<usize>> = {
        let mut ac = ActorCritic::new(vocab.size(), cfg());
        ac.train_batched(&env, 10, 1);
        ac.generate_batched(&env, 6, 1)
            .into_iter()
            .map(|ep| ep.actions)
            .collect()
    };
    assert_eq!(legacy, batched, "batch_size=1 is not the legacy path");
}

/// A fixed `(seed, batch_size)` is bit-reproducible run-to-run through the
/// trainer facade, and episodes come back in job order.
#[test]
fn facade_batched_generation_is_reproducible() {
    let (db, vocab) = testbed();
    let est = Estimator::build(&db);
    let env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(100.0, 800.0));

    let run = || {
        let mut ac = ActorCritic::new(vocab.size(), cfg());
        ac.train_batched(&env, 10, 1);
        ac.generate_batched(&env, 13, 8)
            .into_iter()
            .map(|ep| ep.actions)
            .collect::<Vec<_>>()
    };
    let a = run();
    let b = run();
    assert_eq!(a.len(), 13);
    assert_eq!(a, b, "fixed (seed, batch) diverged between identical runs");
}
