//! Determinism contract of the batched GEMM inference engine.
//!
//! * Per-lane equivalence: every lane of a batched rollout reproduces, bit
//!   for bit, the reference `run_episode` (`train = false`) stream of that
//!   lane's seed (`base ^ lane`), including across continuous lane refills.
//! * A fixed `(seed, batch_size)` pair is reproducible run-to-run.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqlgen_engine::Estimator;
use sqlgen_fsm::Vocabulary;
use sqlgen_rl::{
    run_episode, worker_seed, ActorCritic, ActorNet, BatchRollout, Constraint, LaneSeeds,
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
/// reference inference loop produces for that lane's seed, on a TPC-H-scale
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
        let tagged = ro.collect_tagged(&actor, &env, n, batch, LaneSeeds::Base(base));
        assert_eq!(tagged.len(), n);

        for lane in 0..batch {
            let mut lane_eps: Vec<_> = tagged.iter().filter(|(_, l, _)| *l == lane).collect();
            lane_eps.sort_by_key(|(job, _, _)| *job);
            let mut rng = StdRng::seed_from_u64(worker_seed(base, lane));
            for (job, _, ep) in lane_eps {
                let serial = run_episode(&actor, &env, false, &mut rng);
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
