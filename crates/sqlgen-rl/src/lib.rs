//! Reinforcement learning for LearnedSQLGen (paper §4 and §6).
//!
//! * [`constraint`] — cardinality/cost constraints and the §4.2 rewards,
//! * [`mod@env`] — the database environment (FSM masking + estimator rewards),
//! * [`cache`] — LRU memo cache for estimator reward lookups,
//! * [`nets`] — actor (policy) and critic (value) LSTM networks,
//! * [`episode`] — episodes and the serial reference rollout,
//! * [`batch`] — the lockstep inference engine (every width, continuous
//!   lane refill),
//! * [`train_batch`] — the lockstep training engine (batched BPTT),
//! * [`reinforce`] — the REINFORCE baseline (Figure 8 ablation),
//! * [`actor_critic`] — the shipped A2C algorithm (Algorithm 3),
//! * [`ac_extend`] — constraint-in-the-state ablation (Figure 9),
//! * [`meta_critic`] — the §6 meta-critic for cross-constraint
//!   generalization.

pub mod ac_extend;
pub mod actor_critic;
pub mod batch;
pub mod cache;
pub mod constraint;
pub mod env;
pub mod episode;
pub mod meta_critic;
pub mod nets;
pub mod reinforce;
pub mod train_batch;

pub use ac_extend::AcExtend;
pub use actor_critic::ActorCritic;
pub use batch::{
    collect_episodes_batched, run_jobs_batched, worker_seed, BatchRollout, Job, JobOutcome,
    LaneSeeds,
};
pub use cache::{EstimatorCache, DEFAULT_ESTIMATOR_CACHE_CAPACITY};
pub use constraint::{Constraint, Metric, Target, POINT_TOLERANCE};
pub use env::{ExecBudget, ExecDb, ExecStats, RewardMode, RewardShaper, RewardSource, SqlGenEnv};
pub use episode::{rewards_to_go, rewards_to_go_into, run_episode, Episode};
pub use meta_critic::{ConstraintEncoder, MetaCritic, MetaCriticTrainer, TaskSlot};
pub use nets::{
    ActorNet, ActorStep, BatchScratch, CriticNet, CriticStep, InferActor, NetConfig, NetGradsBatch,
    NetScratch, QuantizedActor,
};
pub use reinforce::{Reinforce, TrainConfig};
pub use train_batch::TrainRollout;
