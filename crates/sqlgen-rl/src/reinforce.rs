//! The REINFORCE baseline algorithm (Williams 1992), §4.3.
//!
//! Plain policy gradient with reward-to-go returns and **no** baseline —
//! exactly the ablation the paper compares the actor-critic against in
//! Figure 8 (high return variance, slower/noisier convergence).

use crate::env::SqlGenEnv;
use crate::episode::{
    rewards_to_go_into, run_episode_infer, run_episode_into, Episode, InferRollout, Rollout,
};
use crate::nets::{ActorNet, ActorStep, NetConfig, NetGradsBatch, QuantizedActor};
use crate::train_batch::TrainRollout;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlgen_nn::{clip_grad_norm, Adam, Optimizer};

/// Trainer hyper-parameters (paper §7.1 values as defaults).
#[derive(Debug, Clone)]
pub struct TrainConfig {
    pub net: NetConfig,
    pub lr_actor: f32,
    pub lr_critic: f32,
    /// Entropy-regularization strength λ.
    pub lambda: f32,
    pub grad_clip: f32,
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            net: NetConfig::default(),
            lr_actor: 0.001,
            lr_critic: 0.003,
            lambda: 0.01,
            grad_clip: 5.0,
            seed: 0xacc01ade,
        }
    }
}

/// REINFORCE trainer.
pub struct Reinforce {
    pub actor: ActorNet,
    pub cfg: TrainConfig,
    opt: Adam,
    rng: StdRng,
    /// Recycled training-rollout arena (caches, scratch, LSTM state).
    rollout: Rollout,
    /// Recycled inference-rollout buffers.
    infer: InferRollout,
    /// Recycled returns buffer.
    returns: Vec<f32>,
}

impl Reinforce {
    pub fn new(action_space: usize, cfg: TrainConfig) -> Self {
        let actor = ActorNet::new(action_space, &cfg.net, cfg.seed);
        let opt = Adam::new(cfg.lr_actor);
        let rng = StdRng::seed_from_u64(cfg.seed ^ 0x5eed);
        Reinforce {
            actor,
            cfg,
            opt,
            rng,
            rollout: Rollout::new(),
            infer: InferRollout::new(),
            returns: Vec::new(),
        }
    }

    /// One policy-gradient update from a finished episode's steps/rewards.
    fn apply_update(&mut self, steps: &[ActorStep], rewards: &[f32]) {
        let mut returns = std::mem::take(&mut self.returns);
        rewards_to_go_into(rewards, &mut returns);
        self.actor.zero_grad();
        self.actor
            .backward_episode(steps, &returns, self.cfg.lambda);
        let mut params = self.actor.params_mut();
        clip_grad_norm(&mut params, self.cfg.grad_clip);
        self.opt.step(&mut params);
        self.returns = returns;
    }

    /// Runs one training episode and updates the policy. Returns the episode.
    pub fn train_episode(&mut self, env: &SqlGenEnv) -> Episode {
        let mut ro = std::mem::take(&mut self.rollout);
        let ep = run_episode_into(&self.actor, env, true, &mut self.rng, &mut ro);
        self.apply_update(ro.steps(), &ep.rewards);
        self.rollout = ro;
        ep
    }

    /// Trains on `episodes` episodes with up to `batch` lockstep GEMM
    /// lanes (batched BPTT with gradient accumulation).
    ///
    /// Each round rolls one episode per lane under the current policy
    /// (lane token streams bitwise match serial rollouts of the lane
    /// seeds), runs one lane-batched backward into per-lane gradient
    /// arenas, reduces the arenas in ascending lane order, and applies
    /// **one** clipped Adam step for the whole round. `batch <= 1` is the
    /// exact legacy serial path; larger batches are reproducible per
    /// `(seed, batch)` but a different deterministic run than serial
    /// training (one accumulated update per round instead of one per
    /// episode). See [`crate::train_batch`].
    pub fn train_batched(
        &mut self,
        env: &SqlGenEnv,
        episodes: usize,
        batch: usize,
    ) -> Vec<Episode> {
        if batch <= 1 {
            return (0..episodes).map(|_| self.train_episode(env)).collect();
        }
        let mut ro = TrainRollout::new();
        let mut grads = NetGradsBatch::default();
        let mut advantages: Vec<Vec<f32>> = Vec::new();
        let mut out = Vec::with_capacity(episodes);
        let mut remaining = episodes;
        while remaining > 0 {
            // One round = one episode per lane, bounding policy staleness
            // at `batch` episodes.
            let b = remaining.min(batch);
            let base: u64 = self.rng.random();
            let eps = ro.collect(&self.actor, env, b, base);
            if advantages.len() < b {
                advantages.resize_with(b, Vec::new);
            }
            for (lane, ep) in eps.iter().enumerate() {
                rewards_to_go_into(&ep.rewards, &mut advantages[lane]);
            }
            self.actor.ensure_grads(&mut grads, b);
            self.actor.backward_episodes_batch(
                b,
                &ro.steps,
                &ro.lens,
                &advantages,
                self.cfg.lambda,
                &mut grads,
            );
            self.actor.zero_grad();
            self.actor.accumulate_grads(&grads, b);
            let mut params = self.actor.params_mut();
            clip_grad_norm(&mut params, self.cfg.grad_clip);
            self.opt.step(&mut params);
            out.extend(eps);
            remaining -= b;
        }
        out
    }

    /// Generates a query without updating the network (inference).
    pub fn generate(&mut self, env: &SqlGenEnv) -> Episode {
        run_episode_infer(&self.actor, env, &mut self.rng, &mut self.infer)
    }

    /// Generates `n` queries with `batch` lockstep GEMM lanes (no updates).
    /// `batch <= 1` matches [`Reinforce::generate`] in a loop bit-for-bit;
    /// larger batches are reproducible per (seed, batch) — see
    /// [`crate::batch`] for the determinism contract.
    pub fn generate_batched(&mut self, env: &SqlGenEnv, n: usize, batch: usize) -> Vec<Episode> {
        if batch <= 1 {
            return (0..n).map(|_| self.generate(env)).collect();
        }
        let base: u64 = self.rng.random();
        crate::batch::collect_episodes_batched(&self.actor, env, n, batch, base)
    }

    /// Generates `n` queries on an int8 snapshot of the actor with `batch`
    /// lockstep lanes (no updates). Same engine and determinism contract
    /// as [`Reinforce::generate_batched`]; the sampled streams differ from
    /// the f32 path only within the quantization error of the logits.
    pub fn generate_batched_quant(
        &mut self,
        quant: &QuantizedActor,
        env: &SqlGenEnv,
        n: usize,
        batch: usize,
    ) -> Vec<Episode> {
        let base: u64 = self.rng.random();
        crate::batch::collect_episodes_batched(quant, env, n, batch.max(1), base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Constraint;
    use sqlgen_engine::Estimator;
    use sqlgen_fsm::Vocabulary;
    use sqlgen_storage::gen::tpch_database;
    use sqlgen_storage::sample::SampleConfig;

    /// REINFORCE must improve the average reward on a real constraint task.
    #[test]
    fn reinforce_improves_reward() {
        let db = tpch_database(0.2, 9);
        let vocab = Vocabulary::build(
            &db,
            &SampleConfig {
                k: 10,
                ..Default::default()
            },
        );
        let est = Estimator::build(&db);
        // A generous range constraint so the signal is learnable quickly.
        let env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(50.0, 5_000.0))
            .with_fsm_config(sqlgen_fsm::FsmConfig::spj());
        let cfg = TrainConfig {
            net: NetConfig {
                embed_dim: 16,
                hidden: 16,
                layers: 1,
                dropout: 0.0,
            },
            ..Default::default()
        };
        let mut trainer = Reinforce::new(vocab.size(), cfg);
        let mut early = 0.0;
        let mut late = 0.0;
        let n = 150;
        for i in 0..n {
            let ep = trainer.train_episode(&env);
            let r = ep.total_reward() / ep.len() as f32;
            if i < 30 {
                early += r;
            }
            if i >= n - 30 {
                late += r;
            }
        }
        assert!(
            late > early,
            "no improvement: early {early:.3} late {late:.3}"
        );
    }

    #[test]
    fn generation_does_not_change_weights() {
        let db = tpch_database(0.1, 9);
        let vocab = Vocabulary::build(
            &db,
            &SampleConfig {
                k: 8,
                ..Default::default()
            },
        );
        let est = Estimator::build(&db);
        let env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_point(100.0));
        let mut trainer = Reinforce::new(vocab.size(), TrainConfig::default());
        let before = trainer.actor.head.w.value.data.clone();
        for _ in 0..3 {
            trainer.generate(&env);
        }
        assert_eq!(before, trainer.actor.head.w.value.data);
    }
}
