//! Actor-critic training (paper §4.3, Algorithm 3).
//!
//! Advantage `A(s_t, a_t) = r_t + V_φ(s_{t+1}) − V_φ(s_t)` (the TD error,
//! with `V(terminal) = 0` and γ = 1); actor loss `−logπ·A − λH`, critic
//! loss `(r_t + V(s_{t+1}) − V(s_t))²` treated semi-gradient (the target is
//! a constant w.r.t. φ).

use crate::env::SqlGenEnv;
use crate::episode::{run_episode_infer, run_episode_into, Episode, InferRollout, Rollout};
use crate::nets::{
    ActorNet, ActorStep, CriticNet, CriticStep, NetGradsBatch, NetScratch, QuantizedActor,
};
use crate::reinforce::TrainConfig;
use crate::train_batch::TrainRollout;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqlgen_nn::{clip_grad_norm, Adam, Optimizer, StackState};

/// Actor-critic trainer — the algorithm LearnedSQLGen ships with.
pub struct ActorCritic {
    pub actor: ActorNet,
    pub critic: CriticNet,
    pub cfg: TrainConfig,
    opt_actor: Adam,
    opt_critic: Adam,
    rng: StdRng,
    /// Recycled actor-rollout arena.
    rollout: Rollout,
    /// Recycled inference-rollout buffers.
    infer: InferRollout,
    /// Recycled critic-step arena (`csteps[..n]` live per episode).
    csteps: Vec<CriticStep>,
    cstate: StackState,
    cscratch: NetScratch,
    values: Vec<f32>,
    advantages: Vec<f32>,
    dvalues: Vec<f32>,
}

impl ActorCritic {
    pub fn new(action_space: usize, cfg: TrainConfig) -> Self {
        let actor = ActorNet::new(action_space, &cfg.net, cfg.seed);
        let critic = CriticNet::new(action_space, &cfg.net, cfg.seed ^ 0xc717);
        Self::from_nets(actor, critic, cfg)
    }

    /// Builds a trainer around pre-constructed networks (used by the
    /// AC-extend ablation, which reserves context embedding rows).
    pub fn from_nets(actor: ActorNet, critic: CriticNet, cfg: TrainConfig) -> Self {
        ActorCritic {
            actor,
            critic,
            opt_actor: Adam::new(cfg.lr_actor),
            opt_critic: Adam::new(cfg.lr_critic),
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x5eed),
            cfg,
            rollout: Rollout::new(),
            infer: InferRollout::new(),
            csteps: Vec::new(),
            cstate: StackState::new(),
            cscratch: NetScratch::default(),
            values: Vec::new(),
            advantages: Vec::new(),
            dvalues: Vec::new(),
        }
    }

    /// Runs the critic over an episode's input-token stream into the
    /// recycled critic arena; returns the number of live steps.
    fn critic_forward_into(
        critic: &CriticNet,
        steps: &[ActorStep],
        train: bool,
        rng: &mut StdRng,
        csteps: &mut Vec<CriticStep>,
        state: &mut StackState,
        scratch: &mut NetScratch,
    ) -> usize {
        critic.lstm.reset_state(state);
        for (t, s) in steps.iter().enumerate() {
            if t == csteps.len() {
                csteps.push(CriticStep::default());
            }
            // Step 0 fed the actor's start token (BOS or a context row);
            // `None` makes the critic use its own start token there.
            let prev = if s.input_token >= critic.vocab_size {
                None
            } else {
                Some(s.input_token)
            };
            critic.step_into(prev, state, train, rng, &mut csteps[t], scratch);
        }
        steps.len()
    }

    /// TD advantages and critic-loss gradients for an episode.
    ///
    /// Returns `(advantages, dvalues)` with `A_t = r_t + V_{t+1} − V_t`
    /// and `dL/dV_t = −2·A_t` (semi-gradient of the squared TD error).
    pub fn td_terms(values: &[f32], rewards: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let mut adv = Vec::new();
        let mut dv = Vec::new();
        Self::td_terms_into(values, rewards, &mut adv, &mut dv);
        (adv, dv)
    }

    /// [`ActorCritic::td_terms`] into recycled buffers.
    pub fn td_terms_into(values: &[f32], rewards: &[f32], adv: &mut Vec<f32>, dv: &mut Vec<f32>) {
        let n = values.len();
        adv.clear();
        adv.resize(n, 0.0);
        dv.clear();
        dv.resize(n, 0.0);
        for t in 0..n {
            let v_next = if t + 1 < n { values[t + 1] } else { 0.0 };
            adv[t] = rewards[t] + v_next - values[t];
            dv[t] = -2.0 * adv[t];
        }
    }

    /// One actor+critic update from a finished episode's steps/rewards.
    fn apply_update(&mut self, steps: &[ActorStep], rewards: &[f32]) {
        let mut crng = StdRng::seed_from_u64(self.rng.random::<u64>());
        let mut csteps = std::mem::take(&mut self.csteps);
        let mut cstate = std::mem::take(&mut self.cstate);
        let mut cscratch = std::mem::take(&mut self.cscratch);
        let n = Self::critic_forward_into(
            &self.critic,
            steps,
            true,
            &mut crng,
            &mut csteps,
            &mut cstate,
            &mut cscratch,
        );
        self.values.clear();
        self.values.extend(csteps[..n].iter().map(|s| s.value));
        Self::td_terms_into(
            &self.values,
            rewards,
            &mut self.advantages,
            &mut self.dvalues,
        );

        self.actor.zero_grad();
        self.actor
            .backward_episode(steps, &self.advantages, self.cfg.lambda);
        let mut ap = self.actor.params_mut();
        clip_grad_norm(&mut ap, self.cfg.grad_clip);
        self.opt_actor.step(&mut ap);

        self.critic.zero_grad();
        self.critic.backward_episode(&csteps[..n], &self.dvalues);
        let mut cp = self.critic.params_mut();
        clip_grad_norm(&mut cp, self.cfg.grad_clip);
        self.opt_critic.step(&mut cp);

        self.csteps = csteps;
        self.cstate = cstate;
        self.cscratch = cscratch;
    }

    /// Runs one training episode and updates both networks.
    pub fn train_episode(&mut self, env: &SqlGenEnv) -> Episode {
        let mut ro = std::mem::take(&mut self.rollout);
        let ep = run_episode_into(&self.actor, env, true, &mut self.rng, &mut ro);
        self.apply_update(ro.steps(), &ep.rewards);
        self.rollout = ro;
        ep
    }

    /// Trains on `episodes` episodes with up to `batch` lockstep GEMM
    /// lanes — both networks' forwards and backwards run lane-batched.
    ///
    /// Per round: one episode per lane under the current policy, per-lane
    /// critic RNGs drawn up front in lane order (the serial path draws one
    /// per episode just before its critic forward), a lockstep critic
    /// forward over the collected token streams, one lane-batched backward
    /// per network into per-lane gradient arenas, an ascending-lane-order
    /// reduce, and **one** clipped Adam step per network per round.
    /// `batch <= 1` is the exact legacy serial path; larger batches are
    /// reproducible per `(seed, batch)` but a different deterministic run
    /// than serial training (see [`crate::train_batch`]).
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
        let mut agrads = NetGradsBatch::default();
        let mut cgrads = NetGradsBatch::default();
        let mut advantages: Vec<Vec<f32>> = Vec::new();
        let mut dvalues: Vec<Vec<f32>> = Vec::new();
        let mut out = Vec::with_capacity(episodes);
        let mut remaining = episodes;
        while remaining > 0 {
            // One round = one episode per lane, bounding policy staleness
            // at `batch` episodes.
            let b = remaining.min(batch);
            let base: u64 = self.rng.random();
            let eps = ro.collect(&self.actor, env, b, base);
            let mut crngs: Vec<StdRng> = (0..b)
                .map(|_| StdRng::seed_from_u64(self.rng.random::<u64>()))
                .collect();
            ro.critic_forward(&self.critic, b, &mut crngs);
            if advantages.len() < b {
                advantages.resize_with(b, Vec::new);
                dvalues.resize_with(b, Vec::new);
            }
            for (lane, ep) in eps.iter().enumerate() {
                self.values.clear();
                self.values
                    .extend(ro.csteps[lane][..ro.lens[lane]].iter().map(|s| s.value));
                Self::td_terms_into(
                    &self.values,
                    &ep.rewards,
                    &mut advantages[lane],
                    &mut dvalues[lane],
                );
            }

            self.actor.ensure_grads(&mut agrads, b);
            self.actor.backward_episodes_batch(
                b,
                &ro.steps,
                &ro.lens,
                &advantages,
                self.cfg.lambda,
                &mut agrads,
            );
            self.actor.zero_grad();
            self.actor.accumulate_grads(&agrads, b);
            let mut ap = self.actor.params_mut();
            clip_grad_norm(&mut ap, self.cfg.grad_clip);
            self.opt_actor.step(&mut ap);

            self.critic.ensure_grads(&mut cgrads, b);
            self.critic
                .backward_episodes_batch(b, &ro.csteps, &ro.lens, &dvalues, &mut cgrads);
            self.critic.zero_grad();
            self.critic.accumulate_grads(&cgrads, b);
            let mut cp = self.critic.params_mut();
            clip_grad_norm(&mut cp, self.cfg.grad_clip);
            self.opt_critic.step(&mut cp);

            out.extend(eps);
            remaining -= b;
        }
        out
    }

    /// Inference: generate a query with the trained policy.
    pub fn generate(&mut self, env: &SqlGenEnv) -> Episode {
        run_episode_infer(&self.actor, env, &mut self.rng, &mut self.infer)
    }

    /// Generates `n` queries with `batch` lockstep GEMM lanes (no updates).
    /// `batch <= 1` matches [`ActorCritic::generate`] in a loop
    /// bit-for-bit; larger batches are reproducible per (seed, batch) —
    /// see [`crate::batch`] for the determinism contract.
    pub fn generate_batched(&mut self, env: &SqlGenEnv, n: usize, batch: usize) -> Vec<Episode> {
        if batch <= 1 {
            return (0..n).map(|_| self.generate(env)).collect();
        }
        let base: u64 = self.rng.random();
        crate::batch::collect_episodes_batched(&self.actor, env, n, batch, base)
    }

    /// Generates `n` queries on an int8 snapshot of the actor with `batch`
    /// lockstep lanes (no updates). Same engine and determinism contract
    /// as [`ActorCritic::generate_batched`]; the sampled streams differ
    /// from the f32 path only within the quantization error of the logits.
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

use rand::Rng;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Constraint;
    use crate::nets::NetConfig;
    use sqlgen_engine::Estimator;
    use sqlgen_fsm::Vocabulary;
    use sqlgen_storage::gen::tpch_database;
    use sqlgen_storage::sample::SampleConfig;

    #[test]
    fn td_terms_match_hand_computation() {
        let values = [0.5f32, 0.2, 0.1];
        let rewards = [0.0f32, 0.0, 1.0];
        let (adv, dv) = ActorCritic::td_terms(&values, &rewards);
        assert!((adv[0] - (0.0 + 0.2 - 0.5)).abs() < 1e-6);
        assert!((adv[1] - (0.0 + 0.1 - 0.2)).abs() < 1e-6);
        assert!((adv[2] - (1.0 + 0.0 - 0.1)).abs() < 1e-6);
        for (a, d) in adv.iter().zip(&dv) {
            assert!((d + 2.0 * a).abs() < 1e-6);
        }
    }

    fn training_env_setup() -> (sqlgen_storage::Database, Vocabulary) {
        let db = tpch_database(0.2, 9);
        let vocab = Vocabulary::build(
            &db,
            &SampleConfig {
                k: 10,
                ..Default::default()
            },
        );
        (db, vocab)
    }

    #[test]
    fn actor_critic_improves_satisfaction_rate() {
        let (db, vocab) = training_env_setup();
        let est = Estimator::build(&db);
        // Tight enough that untrained policies rarely hit it.
        let env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(100.0, 800.0))
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
        let satisfaction = |t: &mut ActorCritic, n: usize| -> f32 {
            (0..n).filter(|_| t.generate(&env).satisfied).count() as f32 / n as f32
        };
        // Baseline: the untrained policy.
        let mut fresh = ActorCritic::new(vocab.size(), cfg.clone());
        let untrained = satisfaction(&mut fresh, 60);

        let mut trainer = ActorCritic::new(vocab.size(), cfg);
        for _ in 0..900 {
            trainer.train_episode(&env);
        }
        let trained = satisfaction(&mut trainer, 60);
        assert!(
            trained > untrained + 0.05,
            "no improvement: untrained {untrained:.3} trained {trained:.3}"
        );
    }

    /// The critic's value estimates should correlate with actual returns
    /// after training.
    #[test]
    fn critic_values_track_returns() {
        let (db, vocab) = training_env_setup();
        let est = Estimator::build(&db);
        let env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(10.0, 10_000.0))
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
        let mut trainer = ActorCritic::new(vocab.size(), cfg);
        for _ in 0..120 {
            trainer.train_episode(&env);
        }
        // After training, V(s_0) should be positive (expected return > 0)
        // rather than the 0 it started at.
        let mut rng = StdRng::seed_from_u64(1);
        let mut state = trainer.critic.begin();
        let v0 = trainer.critic.step(None, &mut state, false, &mut rng).value;
        assert!(v0 > 0.05, "critic uninformative: V(s0) = {v0}");
    }
}
