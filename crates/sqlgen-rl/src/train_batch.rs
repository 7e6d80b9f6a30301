//! Lane-batched training rollouts: batched BPTT with gradient accumulation
//! — the one training engine, at every width.
//!
//! The lockstep inference engine in [`crate::batch`] amortizes weight reads
//! across lanes for generation; this module extends the same lane protocol
//! to *training*, where the forward pass must record backward caches and
//! the backward pass must produce gradients. One training round rolls one
//! episode per lane (no refill — a round is a closed set of episodes
//! collected under one policy snapshot), then the trainer runs a
//! lane-batched BPTT into per-lane gradient arenas and applies **one**
//! accumulated optimizer step for the round.
//!
//! Determinism contract:
//!
//! * each lane's collected episode is bit-identical to the reference
//!   [`run_episode`](crate::episode::run_episode) (`train = true`) on that
//!   lane's stream (same dropout and sampling draws, same batched-kernel
//!   accumulation order as the serial kernels). Lane streams come from
//!   [`LaneSeeds`]: at width 1 the trainer's own RNG, wider
//!   [`worker_seed`](crate::batch::worker_seed)`(base, l)`;
//! * each lane's gradient arena is bit-identical to a serial backward of
//!   that lane's episode alone; arenas reduce into `Param::grad` in
//!   ascending lane order, so the summed gradient is deterministic;
//! * a round applies one accumulated update instead of one update per
//!   episode, so `batch > 1` training is a *different* (but
//!   per-`(seed, batch)` reproducible) run than `batch = 1` training,
//!   which is one round — one episode, one update — at a time.

use crate::batch::{record_step_latency, LaneSeeds, Lanes};
use crate::env::{RewardShaper, SqlGenEnv};
use crate::episode::{finish_episode, Episode};
use crate::nets::{ActorNet, ActorStep, CriticNet, CriticStep};
use rand::rngs::StdRng;
use sqlgen_fsm::GenState;
use sqlgen_nn::LstmBatchState;
use std::time::Instant;

/// One in-flight training episode owned by a lane.
struct LaneRun<'a> {
    state: GenState<'a>,
    shaper: RewardShaper,
    actions: Vec<usize>,
    rewards: Vec<f32>,
    /// Logical lane (index into the step arenas and the output).
    lane: usize,
}

/// Reusable buffers for lane-batched training rounds: the lockstep lane
/// buffers, the critic's batched LSTM state, and the per-lane
/// [`ActorStep`]/[`CriticStep`] arenas. One instance serves many rounds.
/// Each round first returns every lane's steps to a spare pool and grows
/// lanes from it, so the arenas hold about one round's worth of steps
/// (not every lane's longest episode ever) and, once the pool covers a
/// round, rounds allocate no steps.
#[derive(Default)]
pub struct TrainRollout {
    lanes: Lanes,
    cstate: LstmBatchState,
    /// Per-lane actor step arenas; `steps[lane][..lens[lane]]` live.
    pub steps: Vec<Vec<ActorStep>>,
    pub lens: Vec<usize>,
    /// Per-lane critic step arenas (used by the actor-critic trainer);
    /// `csteps[lane][..lens[lane]]` live after [`TrainRollout::critic_forward`].
    pub csteps: Vec<Vec<CriticStep>>,
    spare_steps: Vec<ActorStep>,
    spare_csteps: Vec<CriticStep>,
}

impl TrainRollout {
    pub fn new() -> Self {
        Self::default()
    }

    /// Rolls out one **training** episode per lane (`batch` lanes) in
    /// lockstep, dropout on, backward caches recorded into `self.steps`;
    /// lane streams come from `seeds`. Each lane's episode is
    /// bit-identical to a serial training rollout on its stream. Returns
    /// episodes in lane order (steps stay in the arena).
    ///
    /// Finished lanes are **compacted away** ([`Vec::swap_remove`]-style):
    /// physical slot `p` hosts logical lane `runs[p].lane`, every per-slot
    /// buffer (LSTM state, masks, RNGs, …) shrinks with the live set, and
    /// the batched kernels always run at the live width.
    pub fn collect(
        &mut self,
        actor: &ActorNet,
        env: &SqlGenEnv,
        batch: usize,
        mut seeds: LaneSeeds,
    ) -> Vec<Episode> {
        let b = batch.max(1);
        let vocab = env.action_space();
        let lanes = &mut self.lanes;
        lanes.start(actor.begin_batch(b), vocab, (0..b).map(|l| seeds.lane(l)));
        for arena in &mut self.steps {
            self.spare_steps.append(arena);
        }
        if self.steps.len() < b {
            self.steps.resize_with(b, Vec::new);
        }
        self.lens.clear();
        self.lens.resize(b, 0);

        let mut runs: Vec<LaneRun> = (0..b)
            .map(|lane| LaneRun {
                state: env.reset(),
                shaper: RewardShaper::new(),
                actions: Vec::new(),
                rewards: Vec::new(),
                lane,
            })
            .collect();
        let mut out: Vec<Option<Episode>> = (0..b).map(|_| None).collect();
        let mut done_slots: Vec<usize> = Vec::new();

        let mut t = 0usize;
        while !runs.is_empty() {
            let w = runs.len();
            let start = sqlgen_obs::timing_enabled().then(Instant::now);
            for (p, run) in runs.iter().enumerate() {
                run.state.mask_into_row(&mut lanes.masks, p);
            }
            // Every live lane gets an arena slot at `t`, from the spare
            // pool while it lasts.
            for run in &runs {
                let arena = &mut self.steps[run.lane];
                while arena.len() <= t {
                    arena.push(self.spare_steps.pop().unwrap_or_default());
                }
            }
            {
                // Permuted mutable arena borrows: each live lane's slot is
                // taken exactly once, in physical-slot order.
                let mut slots: Vec<Option<&mut Vec<ActorStep>>> =
                    self.steps[..b].iter_mut().map(Some).collect();
                let mut cur: Vec<&mut ActorStep> = runs
                    .iter()
                    .map(|run| {
                        let arena = slots[run.lane].take().expect("lanes are distinct");
                        &mut arena[t]
                    })
                    .collect();
                actor.train_step_batch(
                    &lanes.prev,
                    &mut lanes.state,
                    &lanes.masks[..w * vocab],
                    &mut lanes.rngs,
                    &mut lanes.scratch,
                    &mut cur,
                    &mut lanes.actions,
                );
            }
            done_slots.clear();
            for (p, run) in runs.iter_mut().enumerate() {
                let action = lanes.actions[p];
                let (reward, done) = env.step(&mut run.state, action, &mut run.shaper);
                lanes.prev[p] = Some(action);
                run.actions.push(action);
                run.rewards.push(reward);
                self.lens[run.lane] = t + 1;
                if done {
                    done_slots.push(p);
                }
            }
            // Compact finished slots out, highest physical index first so
            // each swap_remove only moves a still-live slot.
            for &p in done_slots.iter().rev() {
                let LaneRun {
                    state,
                    actions,
                    rewards,
                    lane,
                    ..
                } = runs.swap_remove(p);
                out[lane] = Some(finish_episode(env, &state, actions, rewards));
                seeds.retire(lanes.swap_remove(p));
            }
            record_step_latency(start, w);
            t += 1;
        }
        out.into_iter()
            .map(|e| e.expect("every lane finished an episode"))
            .collect()
    }

    /// Runs the critic over every lane's collected token stream in
    /// lockstep, filling `self.csteps[lane][..self.lens[lane]]`.
    /// `crngs[lane]` drives lane `lane`'s dropout draws.
    /// Input tokens the critic does not own (the actor's BOS/context rows,
    /// `>= critic.vocab_size`) fall back to the critic's own start token,
    /// exactly like the serial forward.
    /// The episode lengths are known up front here, so lanes are packed
    /// **statically**: physical slots sorted by descending length make the
    /// live set a contiguous prefix that only shrinks — the batched state
    /// is truncated to the live width each step instead of dragging
    /// finished lanes through the GEMMs. `crngs[lane]` is cloned into its
    /// physical slot once; each lane still consumes its own stream.
    pub fn critic_forward(&mut self, critic: &CriticNet, batch: usize, crngs: &mut [StdRng]) {
        let b = batch.max(1);
        debug_assert!(self.lens.len() >= b);
        debug_assert_eq!(crngs.len(), b);
        self.cstate = critic.begin_batch(b);
        for arena in &mut self.csteps {
            self.spare_csteps.append(arena);
        }
        if self.csteps.len() < b {
            self.csteps.resize_with(b, Vec::new);
        }
        let max_t = self.lens[..b].iter().copied().max().unwrap_or(0);
        // Physical slot `p` → logical lane `order[p]`, longest first.
        let order = sqlgen_nn::ragged_order(&self.lens[..b]);
        let mut prngs: Vec<StdRng> = order.iter().map(|&lane| crngs[lane].clone()).collect();
        let prev = &mut self.lanes.prev;
        prev.clear();
        prev.resize(b, None);
        for t in 0..max_t {
            let n_live = order.iter().take_while(|&&l| self.lens[l] > t).count();
            if n_live < self.cstate.batch {
                self.cstate.truncate_lanes(n_live);
            }
            for (p, &lane) in order[..n_live].iter().enumerate() {
                let tok = self.steps[lane][t].input_token;
                prev[p] = if tok >= critic.vocab_size {
                    None
                } else {
                    Some(tok)
                };
                let arena = &mut self.csteps[lane];
                while arena.len() <= t {
                    arena.push(self.spare_csteps.pop().unwrap_or_default());
                }
            }
            let mut slots: Vec<Option<&mut Vec<CriticStep>>> =
                self.csteps[..b].iter_mut().map(Some).collect();
            let mut cur: Vec<&mut CriticStep> = order[..n_live]
                .iter()
                .map(|&lane| {
                    let arena = slots[lane].take().expect("lanes are distinct");
                    &mut arena[t]
                })
                .collect();
            critic.forward_step_batch(
                &prev[..n_live],
                &mut self.cstate,
                &mut prngs[..n_live],
                &mut self.lanes.scratch,
                &mut cur,
            );
        }
    }
}
