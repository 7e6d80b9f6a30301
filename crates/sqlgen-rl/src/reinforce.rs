//! The REINFORCE baseline algorithm (Williams 1992), §4.3.
//!
//! Plain policy gradient with reward-to-go returns and **no** baseline —
//! exactly the ablation the paper compares the actor-critic against in
//! Figure 8 (high return variance, slower/noisier convergence).

use crate::batch::{BatchRollout, LaneSeeds};
use crate::env::SqlGenEnv;
use crate::episode::{rewards_to_go_into, Episode};
use crate::nets::{ActorNet, NetConfig, NetGradsBatch, QuantizedActor};
use crate::train_batch::TrainRollout;
use rand::rngs::StdRng;
use rand::SeedableRng;
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
    /// Training-rollout lanes and step arenas, kept across calls.
    rollout: TrainRollout,
    /// Per-lane gradient arenas. Lane 0's is kept across calls, so
    /// batch-1 training reuses it every episode; wider calls give the
    /// other lanes' full-size arenas back when they return.
    grads: NetGradsBatch,
    /// Per-lane returns buffers.
    returns: Vec<Vec<f32>>,
    /// Inference lanes, kept across calls.
    infer: BatchRollout,
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
            rollout: TrainRollout::new(),
            grads: NetGradsBatch::default(),
            returns: Vec::new(),
            infer: BatchRollout::new(),
        }
    }

    /// Runs one training episode and updates the policy. Returns the episode.
    pub fn train_episode(&mut self, env: &SqlGenEnv) -> Episode {
        self.train_batched(env, 1, 1)
            .pop()
            .expect("one episode per call")
    }

    /// Trains on `episodes` episodes with up to `batch` lockstep GEMM
    /// lanes (batched BPTT with gradient accumulation).
    ///
    /// Each round rolls one episode per lane under the current policy
    /// (lane streams per [`LaneSeeds::for_width`]; each lane's tokens
    /// bitwise match the reference rollout of its stream), runs one
    /// lane-batched backward into per-lane gradient arenas, reduces the
    /// arenas in ascending lane order, and applies **one** clipped Adam
    /// step for the whole round. `batch = 1` is one episode and one update
    /// per round on the trainer's own RNG; larger batches are reproducible
    /// per `(seed, batch)` but a different deterministic run (one
    /// accumulated update per round). See [`crate::train_batch`].
    pub fn train_batched(
        &mut self,
        env: &SqlGenEnv,
        episodes: usize,
        batch: usize,
    ) -> Vec<Episode> {
        let mut out = Vec::with_capacity(episodes);
        let mut remaining = episodes;
        while remaining > 0 {
            // One round = one episode per lane, bounding policy staleness
            // at `batch` episodes.
            let b = remaining.min(batch.max(1));
            let seeds = LaneSeeds::for_width(&mut self.rng, batch);
            let eps = self.rollout.collect(&self.actor, env, b, seeds);
            if self.returns.len() < b {
                self.returns.resize_with(b, Vec::new);
            }
            for (lane, ep) in eps.iter().enumerate() {
                rewards_to_go_into(&ep.rewards, &mut self.returns[lane]);
            }
            self.actor.ensure_grads(&mut self.grads, b);
            self.actor.backward_episodes_batch(
                b,
                &self.rollout.steps,
                &self.rollout.lens,
                &self.returns,
                self.cfg.lambda,
                &mut self.grads,
            );
            self.actor.accumulate_grads(&mut self.grads, b);
            let mut params = self.actor.params_mut();
            clip_grad_norm(&mut params, self.cfg.grad_clip);
            self.opt.step(&mut params);
            out.extend(eps);
            remaining -= b;
        }
        self.grads.truncate(1);
        out
    }

    /// Generates a query without updating the network (inference).
    pub fn generate(&mut self, env: &SqlGenEnv) -> Episode {
        self.generate_batched(env, 1, 1)
            .pop()
            .expect("one episode per call")
    }

    /// Generates `n` queries with `batch` lockstep GEMM lanes (no updates).
    /// `batch = 1` runs one lane on the trainer's own RNG, exactly like
    /// [`Reinforce::generate`] in a loop; larger batches are reproducible
    /// per (seed, batch) — see [`crate::batch`] for the determinism
    /// contract.
    pub fn generate_batched(&mut self, env: &SqlGenEnv, n: usize, batch: usize) -> Vec<Episode> {
        let seeds = LaneSeeds::for_width(&mut self.rng, batch);
        self.infer.collect(&self.actor, env, n, batch, seeds)
    }

    /// Generates `n` queries on an int8 snapshot of the actor with `batch`
    /// lockstep lanes (no updates). Same engine, lane seeding and
    /// determinism contract as [`Reinforce::generate_batched`]; the
    /// sampled streams differ from the f32 path only within the
    /// quantization error of the logits.
    pub fn generate_batched_quant(
        &mut self,
        quant: &QuantizedActor,
        env: &SqlGenEnv,
        n: usize,
        batch: usize,
    ) -> Vec<Episode> {
        let seeds = LaneSeeds::for_width(&mut self.rng, batch);
        self.infer.collect(quant, env, n, batch, seeds)
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

    /// The trainer keeps its gradient arenas across calls; swapping in an
    /// actor of another shape (as a checkpoint load can) must rebuild them
    /// rather than swap stale-shaped gradients into the new parameters.
    #[test]
    fn replacing_the_actor_rebuilds_gradient_arenas() {
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
        let net = |hidden| NetConfig {
            embed_dim: 8,
            hidden,
            layers: 1,
            dropout: 0.0,
        };
        let cfg = TrainConfig {
            net: net(8),
            ..Default::default()
        };
        let mut trainer = Reinforce::new(vocab.size(), cfg);
        trainer.train_episode(&env);
        trainer.actor = ActorNet::new(vocab.size(), &net(12), 3);
        trainer.train_episode(&env);
        for p in trainer.actor.params_mut() {
            assert_eq!((p.grad.rows, p.grad.cols), (p.value.rows, p.value.cols));
        }
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
