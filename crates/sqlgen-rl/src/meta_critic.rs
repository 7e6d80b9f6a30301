//! The meta-critic network (paper §6).
//!
//! One shared value function is trained across many constraint tasks. A
//! *constraint encoder* consumes recent `(state, action, reward)` triples of
//! the current task and produces an embedding `z` that identifies the task
//! ("the task directly determines the reward, given the query and selected
//! token"); the *meta-value network* maps `(state encoding h_t, z)` to a
//! V-value. Each task keeps its own actor; all actors are criticized by the
//! shared meta-critic, which is what transfers knowledge to unseen
//! constraints.
//!
//! Design note (documented in DESIGN.md): `z` is computed once per episode
//! from the *previous* episode's triples of the same task, so it is constant
//! within an episode; the encoder is trained by backpropagating the sum of
//! the per-step `∂L/∂z` through its final hidden state.

use crate::batch::{BatchRollout, LaneSeeds};
use crate::constraint::Constraint;
use crate::env::SqlGenEnv;
use crate::episode::Episode;
use crate::nets::{ActorNet, NetConfig, NetGradsBatch};
use crate::reinforce::TrainConfig;
use crate::train_batch::TrainRollout;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use sqlgen_nn::{clip_grad_norm, Adam, Embedding, LstmStack, Mlp, Optimizer, Param, StackCache};

/// Encoder hidden size (z dimension).
pub const ENCODER_HIDDEN: usize = 16;
/// How many recent (s, a, r) triples the encoder sees.
pub const ENCODER_WINDOW: usize = 32;

/// Encodes recent `(action, reward)` history into a task embedding `z`.
///
/// The state component of the paper's `(s, a, r)` triple is implicit: the
/// encoder LSTM reads the action sequence, which *is* the state trajectory.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConstraintEncoder {
    pub embed: Embedding,
    pub lstm: LstmStack,
}

impl ConstraintEncoder {
    pub fn new(vocab_size: usize, embed_dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        ConstraintEncoder {
            embed: Embedding::new(vocab_size + 1, embed_dim, &mut rng),
            lstm: LstmStack::new(embed_dim + 1, ENCODER_HIDDEN, 1, &mut rng),
        }
    }

    /// Encodes triples to `z`; returns the per-step caches for backprop.
    pub fn encode(&self, triples: &[(usize, f32)]) -> (Vec<f32>, Vec<StackCache>) {
        let mut state = self.lstm.zero_state();
        let mut caches = Vec::with_capacity(triples.len());
        let mut z = vec![0.0; ENCODER_HIDDEN];
        for &(action, reward) in triples {
            let mut x = self.embed.forward(action);
            x.push(reward);
            let (top, c) = self.lstm.forward_step(&x, &mut state);
            z = top;
            caches.push(c);
        }
        (z, caches)
    }

    /// Backprop `dz` (gradient w.r.t. the final hidden output) through the
    /// whole encoder sequence.
    pub fn backward(&mut self, triples: &[(usize, f32)], caches: &[StackCache], dz: &[f32]) {
        if caches.is_empty() {
            return;
        }
        let mut dtops = vec![vec![0.0; ENCODER_HIDDEN]; caches.len()];
        *dtops.last_mut().expect("non-empty") = dz.to_vec();
        let dxs = self.lstm.backward_sequence(caches, &dtops);
        for (&(action, _), dx) in triples.iter().zip(&dxs) {
            // The last input slot is the reward (no parameters).
            self.embed.backward(action, &dx[..dx.len() - 1]);
        }
    }

    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.embed.params_mut();
        p.extend(self.lstm.params_mut());
        p
    }

    pub fn zero_grad(&mut self) {
        self.embed.zero_grad();
        self.lstm.zero_grad();
    }
}

/// Per-step cache for the meta-critic's value estimates.
pub struct MetaValueStep {
    input_token: usize,
    caches: StackCache,
    mlp_cache: sqlgen_nn::MlpCache,
    pub value: f32,
}

/// The shared meta-critic: state LSTM + constraint encoder + value MLP.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetaCritic {
    pub embed: Embedding,
    pub lstm: LstmStack,
    pub encoder: ConstraintEncoder,
    pub mlp: Mlp,
    pub vocab_size: usize,
}

impl MetaCritic {
    pub fn new(vocab_size: usize, cfg: &NetConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        MetaCritic {
            embed: Embedding::new(vocab_size + 1, cfg.embed_dim, &mut rng),
            lstm: LstmStack::new(cfg.embed_dim, cfg.hidden, cfg.layers, &mut rng),
            encoder: ConstraintEncoder::new(vocab_size, cfg.embed_dim, seed ^ 0xe17c),
            mlp: Mlp::new(&[cfg.hidden + ENCODER_HIDDEN, 32, 1], &mut rng),
            vocab_size,
        }
    }

    /// V-values for an episode's input-token stream, conditioned on `z`.
    pub fn forward_episode(&self, input_tokens: &[usize], z: &[f32]) -> Vec<MetaValueStep> {
        let mut state = self.lstm.zero_state();
        let mut out = Vec::with_capacity(input_tokens.len());
        for &tok in input_tokens {
            let x = self.embed.forward(tok);
            let (h, caches) = self.lstm.forward_step(&x, &mut state);
            let mut joint = h;
            joint.extend_from_slice(z);
            let (v, mlp_cache) = self.mlp.forward(&joint);
            out.push(MetaValueStep {
                input_token: tok,
                caches,
                mlp_cache,
                value: v[0],
            });
        }
        out
    }

    /// Backprop the value-loss gradients; returns the accumulated `∂L/∂z`.
    pub fn backward_episode(&mut self, steps: &[MetaValueStep], dvalues: &[f32]) -> Vec<f32> {
        let hidden = self.lstm.hidden();
        let mut dz = vec![0.0; ENCODER_HIDDEN];
        let mut dtops = Vec::with_capacity(steps.len());
        for (s, &dv) in steps.iter().zip(dvalues) {
            let djoint = self.mlp.backward(&s.mlp_cache, &[dv]);
            dtops.push(djoint[..hidden].to_vec());
            for (a, b) in dz.iter_mut().zip(&djoint[hidden..]) {
                *a += b;
            }
        }
        let caches: Vec<StackCache> = steps.iter().map(|s| s.caches.clone()).collect();
        let dxs = self.lstm.backward_sequence(&caches, &dtops);
        for (s, dx) in steps.iter().zip(&dxs) {
            self.embed.backward(s.input_token, dx);
        }
        dz
    }

    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.embed.params_mut();
        p.extend(self.lstm.params_mut());
        p.extend(self.encoder.params_mut());
        p.extend(self.mlp.params_mut());
        p
    }

    pub fn zero_grad(&mut self) {
        self.embed.zero_grad();
        self.lstm.zero_grad();
        self.encoder.zero_grad();
        self.mlp.zero_grad();
    }
}

/// One pre-training task: a constraint, its actor, and its recent history.
pub struct TaskSlot {
    pub constraint: Constraint,
    pub actor: ActorNet,
    /// Recent (action, reward) triples feeding the constraint encoder.
    pub triples: Vec<(usize, f32)>,
    opt_actor: Adam,
}

/// Multi-task trainer with a shared meta-critic.
pub struct MetaCriticTrainer {
    pub tasks: Vec<TaskSlot>,
    pub critic: MetaCritic,
    pub cfg: TrainConfig,
    opt_critic: Adam,
    rng: StdRng,
    /// One-lane training rollout and actor gradient arena, kept across
    /// calls (every task's actor has the same shape).
    rollout: TrainRollout,
    grads: NetGradsBatch,
    /// One-lane inference rollout.
    infer: BatchRollout,
}

impl MetaCriticTrainer {
    /// Creates one actor per constraint plus the shared meta-critic.
    pub fn new(action_space: usize, constraints: Vec<Constraint>, cfg: TrainConfig) -> Self {
        let tasks = constraints
            .into_iter()
            .enumerate()
            .map(|(i, constraint)| TaskSlot {
                constraint,
                actor: ActorNet::new(action_space, &cfg.net, cfg.seed ^ (i as u64 * 7919 + 13)),
                triples: Vec::new(),
                opt_actor: Adam::new(cfg.lr_actor),
            })
            .collect();
        MetaCriticTrainer {
            tasks,
            critic: MetaCritic::new(action_space, &cfg.net, cfg.seed ^ 0x3e7a),
            opt_critic: Adam::new(cfg.lr_critic),
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x91e7),
            cfg,
            rollout: TrainRollout::new(),
            grads: NetGradsBatch::default(),
            infer: BatchRollout::new(),
        }
    }

    /// Adds a new task (e.g. an unseen constraint to adapt to); returns its
    /// index.
    pub fn add_task(&mut self, action_space: usize, constraint: Constraint) -> usize {
        let i = self.tasks.len();
        self.tasks.push(TaskSlot {
            constraint,
            actor: ActorNet::new(
                action_space,
                &self.cfg.net,
                self.cfg.seed ^ (i as u64 * 7919 + 13),
            ),
            triples: Vec::new(),
            opt_actor: Adam::new(self.cfg.lr_actor),
        });
        i
    }

    /// One training episode for task `idx`. The environment's constraint
    /// must match the task's (the caller builds envs per task).
    pub fn train_task(&mut self, idx: usize, env: &SqlGenEnv) -> Episode {
        debug_assert_eq!(env.constraint, self.tasks[idx].constraint);
        // One training lane on the trainer's own RNG.
        let ro = &mut self.rollout;
        let ep = ro
            .collect(
                &self.tasks[idx].actor,
                env,
                1,
                LaneSeeds::Own(&mut self.rng),
            )
            .pop()
            .expect("one lane, one episode");

        // Constraint encoding from the task's accumulated history.
        let (z, enc_caches) = self.critic.encoder.encode(&self.tasks[idx].triples);

        // Value estimates conditioned on z.
        let input_tokens: Vec<usize> = ro.steps[0][..ro.lens[0]]
            .iter()
            .map(|s| s.input_token)
            .collect();
        let vsteps = self.critic.forward_episode(&input_tokens, &z);
        let values: Vec<f32> = vsteps.iter().map(|s| s.value).collect();
        let (advantages, dvalues) =
            crate::actor_critic::ActorCritic::td_terms(&values, &ep.rewards);

        // Actor update: the one-lane batched backward.
        let task = &mut self.tasks[idx];
        task.actor.ensure_grads(&mut self.grads, 1);
        task.actor.backward_episodes_batch(
            1,
            &ro.steps,
            &ro.lens,
            std::slice::from_ref(&advantages),
            self.cfg.lambda,
            &mut self.grads,
        );
        task.actor.accumulate_grads(&mut self.grads, 1);
        let mut ap = task.actor.params_mut();
        clip_grad_norm(&mut ap, self.cfg.grad_clip);
        task.opt_actor.step(&mut ap);

        // Meta-critic update (value path + encoder through z).
        self.critic.zero_grad();
        let dz = self.critic.backward_episode(&vsteps, &dvalues);
        let triples = self.tasks[idx].triples.clone();
        self.critic.encoder.backward(&triples, &enc_caches, &dz);
        let mut cp = self.critic.params_mut();
        clip_grad_norm(&mut cp, self.cfg.grad_clip);
        self.opt_critic.step(&mut cp);

        // Record this episode's triples for the next encoding.
        let task = &mut self.tasks[idx];
        for (&a, &r) in ep.actions.iter().zip(&ep.rewards) {
            task.triples.push((a, r));
        }
        let overflow = task.triples.len().saturating_sub(ENCODER_WINDOW);
        if overflow > 0 {
            task.triples.drain(..overflow);
        }

        ep
    }

    /// Inference with task `idx`'s actor (one lane on the trainer's own
    /// RNG).
    pub fn generate(&mut self, idx: usize, env: &SqlGenEnv) -> Episode {
        let seeds = LaneSeeds::Own(&mut self.rng);
        self.infer
            .collect(&self.tasks[idx].actor, env, 1, 1, seeds)
            .pop()
            .expect("one lane, one episode")
    }

    pub fn rng_fork(&mut self) -> StdRng {
        StdRng::seed_from_u64(self.rng.random::<u64>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlgen_engine::Estimator;
    use sqlgen_fsm::{FsmConfig, Vocabulary};
    use sqlgen_storage::gen::tpch_database;
    use sqlgen_storage::sample::SampleConfig;

    #[test]
    fn encoder_distinguishes_histories() {
        let enc = ConstraintEncoder::new(50, 8, 1);
        let (z1, _) = enc.encode(&[(1, 0.9), (2, 0.8), (3, 1.0)]);
        let (z2, _) = enc.encode(&[(1, 0.0), (2, 0.1), (3, 0.0)]);
        let dist: f32 = z1
            .iter()
            .zip(&z2)
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f32>()
            .sqrt();
        assert!(dist > 1e-3, "identical encodings for different histories");
    }

    #[test]
    fn empty_history_encodes_to_zero() {
        let enc = ConstraintEncoder::new(50, 8, 1);
        let (z, caches) = enc.encode(&[]);
        assert_eq!(z, vec![0.0; ENCODER_HIDDEN]);
        assert!(caches.is_empty());
        // Backward on empty history is a no-op.
        let mut enc = enc;
        enc.backward(&[], &caches, &[1.0; ENCODER_HIDDEN]);
    }

    #[test]
    fn meta_value_depends_on_z() {
        let cfg = NetConfig {
            embed_dim: 8,
            hidden: 8,
            layers: 1,
            dropout: 0.0,
        };
        let mc = MetaCritic::new(20, &cfg, 2);
        let tokens = vec![20usize, 1, 2]; // BOS, then two tokens
        let z1 = vec![0.5; ENCODER_HIDDEN];
        let z2 = vec![-0.5; ENCODER_HIDDEN];
        let v1 = mc.forward_episode(&tokens, &z1);
        let v2 = mc.forward_episode(&tokens, &z2);
        assert_ne!(v1[2].value, v2[2].value);
    }

    #[test]
    fn multi_task_training_improves_rewards() {
        let db = tpch_database(0.2, 9);
        let vocab = Vocabulary::build(
            &db,
            &SampleConfig {
                k: 10,
                ..Default::default()
            },
        );
        let est = Estimator::build(&db);
        let constraints = vec![
            Constraint::cardinality_range(10.0, 500.0),
            Constraint::cardinality_range(500.0, 5_000.0),
        ];
        let cfg = TrainConfig {
            net: NetConfig {
                embed_dim: 16,
                hidden: 16,
                layers: 1,
                dropout: 0.0,
            },
            ..Default::default()
        };
        let mut trainer = MetaCriticTrainer::new(vocab.size(), constraints.clone(), cfg);
        let envs: Vec<SqlGenEnv> = constraints
            .iter()
            .map(|&c| SqlGenEnv::new(&vocab, &est, c).with_fsm_config(FsmConfig::spj()))
            .collect();
        // Untrained baseline across both tasks.
        let eval = |trainer: &mut MetaCriticTrainer, envs: &[SqlGenEnv]| -> f32 {
            let mut acc = 0.0;
            for (i, env) in envs.iter().enumerate() {
                for _ in 0..15 {
                    let ep = trainer.generate(i, env);
                    acc += ep.total_reward() / ep.len() as f32;
                }
            }
            acc / (15.0 * envs.len() as f32)
        };
        let untrained = eval(&mut trainer, &envs);
        for _ in 0..350 {
            for (i, env) in envs.iter().enumerate() {
                trainer.train_task(i, env);
            }
        }
        let trained = eval(&mut trainer, &envs);
        assert!(
            trained > untrained,
            "no improvement: untrained {untrained:.3} trained {trained:.3}"
        );
        // Tasks accumulated history for the encoder.
        assert!(!trainer.tasks[0].triples.is_empty());
        assert!(trainer.tasks[0].triples.len() <= ENCODER_WINDOW);
    }

    #[test]
    fn add_task_extends_the_task_list() {
        let cfg = TrainConfig::default();
        let mut trainer =
            MetaCriticTrainer::new(30, vec![Constraint::cardinality_point(10.0)], cfg);
        let idx = trainer.add_task(30, Constraint::cardinality_point(99.0));
        assert_eq!(idx, 1);
        assert_eq!(trainer.tasks.len(), 2);
    }
}
