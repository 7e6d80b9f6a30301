//! Episodes and the serial reference rollout.
//!
//! One episode = one query generated token-by-token (Algorithm 1):
//! the FSM masks the action space, the actor samples, the environment
//! rewards executable prefixes. Production rollouts run on the lane
//! engines ([`crate::train_batch::TrainRollout`] for training,
//! [`crate::batch::BatchRollout`] for inference) at every width;
//! [`run_episode`] is the plain per-token loop they are checked against.

use crate::env::{RewardShaper, SqlGenEnv};
use crate::nets::{ActorNet, ActorStep, NetScratch};
use rand::Rng;
use sqlgen_engine::Statement;

/// A completed episode with everything the trainers need.
///
/// `steps` is filled only by the reference [`run_episode`]; the lane
/// engines keep the backward caches in their own arenas. `actions` and
/// `rewards` are always populated, so `len()` is defined on rewards.
pub struct Episode {
    pub steps: Vec<ActorStep>,
    pub actions: Vec<usize>,
    pub rewards: Vec<f32>,
    pub statement: Statement,
    /// Estimated metric (cardinality or cost) of the final statement.
    pub measured: f64,
    /// Whether the final statement satisfies the environment's constraint.
    pub satisfied: bool,
}

impl Episode {
    pub fn total_reward(&self) -> f32 {
        self.rewards.iter().sum()
    }

    pub fn len(&self) -> usize {
        self.rewards.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rewards.is_empty()
    }
}

/// Wraps up a finished environment rollout into an [`Episode`].
pub(crate) fn finish_episode(
    env: &SqlGenEnv,
    state: &sqlgen_fsm::GenState,
    actions: Vec<usize>,
    rewards: Vec<f32>,
) -> Episode {
    let statement = state
        .statement()
        .expect("episode terminates with a complete statement")
        .clone();
    let measured = env.measure(&statement);
    let satisfied = env.constraint.satisfied(measured);
    sqlgen_obs::obs_record!("rl.episode.reward", rewards.iter().sum::<f32>());
    sqlgen_obs::obs_record!("rl.episode.len", rewards.len() as f64);
    sqlgen_obs::obs_count!("rl.episodes.count");
    // Unconditional so the counter exists (and appears in traces and the
    // summary) even for runs where nothing satisfies the constraint.
    sqlgen_obs::obs_count!("gen.satisfied.count", u64::from(satisfied));
    Episode {
        steps: Vec::new(),
        actions,
        rewards,
        statement,
        measured,
        satisfied,
    }
}

/// Generates one query with the current policy, one token at a time on
/// the serial kernels, and returns it with its per-step caches in
/// `steps`. This allocating loop is the reference the lane engines are
/// checked against — the equivalence tests and the `batch-equivalence`
/// fuzz family — not a production path.
///
/// `train = true` enables dropout (the caches are collected either way).
/// Per token the RNG draws are the dropout mask draws (train only), then
/// one sampling draw.
pub fn run_episode<R: Rng + ?Sized>(
    actor: &ActorNet,
    env: &SqlGenEnv,
    train: bool,
    rng: &mut R,
) -> Episode {
    let mut state = env.reset();
    let mut shaper = RewardShaper::new();
    let mut lstm_state = actor.begin();
    let mut mask = vec![false; env.action_space()];
    let mut scratch = NetScratch::default();
    let mut steps = Vec::new();
    let mut actions = Vec::new();
    let mut rewards = Vec::new();
    let mut prev: Option<usize> = None;
    loop {
        state.mask_into(&mut mask);
        let mut step = ActorStep::default();
        actor.step_into(
            prev,
            &mut lstm_state,
            &mask,
            train,
            rng,
            &mut step,
            &mut scratch,
        );
        let action = step.action;
        steps.push(step);
        let (reward, done) = env.step(&mut state, action, &mut shaper);
        prev = Some(action);
        actions.push(action);
        rewards.push(reward);
        if done {
            break;
        }
    }
    let mut ep = finish_episode(env, &state, actions, rewards);
    ep.steps = steps;
    ep
}

/// Reward-to-go `R(τ_{t:T})` per step (the REINFORCE return).
pub fn rewards_to_go(rewards: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0; rewards.len()];
    rewards_to_go_into(rewards, &mut out);
    out
}

/// [`rewards_to_go`] into a caller-provided buffer (resized to match).
pub fn rewards_to_go_into(rewards: &[f32], out: &mut Vec<f32>) {
    out.clear();
    out.resize(rewards.len(), 0.0);
    let mut acc = 0.0;
    for t in (0..rewards.len()).rev() {
        acc += rewards[t];
        out[t] = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Constraint;
    use crate::nets::NetConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sqlgen_engine::Estimator;
    use sqlgen_fsm::Vocabulary;
    use sqlgen_storage::gen::tpch_database;
    use sqlgen_storage::sample::SampleConfig;

    #[test]
    fn rewards_to_go_is_suffix_sum() {
        assert_eq!(
            rewards_to_go(&[1.0, 0.0, 2.0, 1.0]),
            vec![4.0, 3.0, 3.0, 1.0]
        );
        assert!(rewards_to_go(&[]).is_empty());
    }

    #[test]
    fn episode_runs_end_to_end_and_is_valid() {
        let db = tpch_database(0.1, 2);
        let vocab = Vocabulary::build(
            &db,
            &SampleConfig {
                k: 8,
                ..Default::default()
            },
        );
        let est = Estimator::build(&db);
        let env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(1.0, 500.0));
        let actor = ActorNet::new(
            vocab.size(),
            &NetConfig {
                embed_dim: 8,
                hidden: 8,
                layers: 1,
                dropout: 0.0,
            },
            1,
        );
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let ep = run_episode(&actor, &env, true, &mut rng);
            assert_eq!(ep.steps.len(), ep.rewards.len());
            assert!(ep.len() >= 5, "even the smallest query has 5 tokens");
            sqlgen_engine::validate(&db, &ep.statement).unwrap();
            assert!(ep.measured >= 0.0);
        }
    }
}
