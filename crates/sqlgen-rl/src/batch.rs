//! Batched lockstep rollout collection with continuous lane refill — the
//! one inference engine, at every width.
//!
//! Single-stream inference re-reads the full weight matrices once per token
//! (memory-bandwidth bound). The batched engine instead advances `B`
//! independent rollouts ("lanes") one token per lockstep iteration: each
//! weight block is read once per iteration and amortized across all lanes
//! via the matrix-matrix kernels in `sqlgen-nn`, raising arithmetic
//! intensity even on one core. At width 1 the kernels fall back to their
//! serial forms, so one lane costs what a plain per-token loop costs.
//!
//! Lane `l` owns its FSM [`GenState`], its [`RewardShaper`], and an RNG
//! stream chosen by [`LaneSeeds`]. When a lane emits `EOF` its finished
//! query is flushed and the lane immediately restarts on the next pending
//! job — **continuous refill** — so short queries never stall the batch.
//! Once no job is left for it, a lane is **compacted away**: every loop
//! here runs its kernels at the live width, never dragging finished lanes
//! through the GEMMs. A refilled lane keeps its RNG stream running, which
//! yields the determinism contract:
//!
//! * every lane's token stream is bit-identical to a loop of the reference
//!   [`run_episode`](crate::episode::run_episode) (`train = false`) over
//!   that lane's stream (the batched kernels accumulate in the same order
//!   as their serial counterparts, and each lane draws only from its own
//!   stream);
//! * for a fixed `(seeds, n, batch)` the collected episodes are a pure
//!   function of the policy weights — single-threaded lockstep has no
//!   scheduling freedom — so runs reproduce exactly;
//! * at width 1 ([`LaneSeeds::Own`]) the one lane runs on the caller's own
//!   RNG, so a trainer's `generate` loop draws exactly what a per-episode
//!   loop over the trainer's stream draws.

use crate::env::{RewardShaper, SqlGenEnv};
use crate::episode::{finish_episode, Episode};
use crate::nets::{BatchScratch, InferActor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlgen_fsm::GenState;
use sqlgen_nn::LstmBatchState;
use sqlgen_obs::TraceHandle;
use std::time::Instant;

/// The RNG seed for worker `w` of a batch drawn with base seed `base`.
#[inline]
pub fn worker_seed(base: u64, worker: usize) -> u64 {
    base ^ worker as u64
}

/// Where a rollout's lane RNG streams come from.
pub enum LaneSeeds<'r> {
    /// One lane, running on the caller's own stream, which it hands back
    /// advanced when the rollout ends.
    Own(&'r mut StdRng),
    /// Lane `l` runs on the stream seeded [`worker_seed`]`(base, l)`.
    Base(u64),
}

impl<'r> LaneSeeds<'r> {
    /// The seeding rule every trainer uses at configured width `batch`:
    /// width 1 runs on `rng` itself, so batch-1 episodes draw from the
    /// trainer's stream exactly as a per-episode loop would; wider batches
    /// draw one base seed from `rng`.
    pub fn for_width(rng: &'r mut StdRng, batch: usize) -> Self {
        if batch > 1 {
            LaneSeeds::Base(rng.random())
        } else {
            LaneSeeds::Own(rng)
        }
    }

    /// Lane `lane`'s starting stream.
    pub(crate) fn lane(&self, lane: usize) -> StdRng {
        match self {
            LaneSeeds::Own(rng) => {
                assert_eq!(lane, 0, "an own-stream rollout has exactly one lane");
                (**rng).clone()
            }
            LaneSeeds::Base(base) => StdRng::seed_from_u64(worker_seed(*base, lane)),
        }
    }

    /// Takes back a retired lane's stream; an own-stream rollout hands it
    /// to the caller.
    pub(crate) fn retire(&mut self, rng: StdRng) {
        if let LaneSeeds::Own(own) = self {
            **own = rng;
        }
    }
}

/// Elapsed microseconds since `t0`.
fn us_since(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64 / 1_000.0
}

/// The per-slot lockstep buffers every rollout loop shares: physical slot
/// `p` of each buffer belongs to the same lane, and every buffer holds
/// exactly the live lanes (the mask block may be longer; its first
/// `width × vocab` entries are live).
#[derive(Default)]
pub(crate) struct Lanes {
    pub(crate) state: LstmBatchState,
    pub(crate) scratch: BatchScratch,
    /// Row-major `[width × vocab]` FSM mask block.
    pub(crate) masks: Vec<bool>,
    pub(crate) prev: Vec<Option<usize>>,
    pub(crate) actions: Vec<usize>,
    pub(crate) rngs: Vec<StdRng>,
}

impl Lanes {
    /// Starts one fresh lane per stream in `rngs`: zeroed LSTM state
    /// (`state` must be that wide), start-token input.
    pub(crate) fn start(
        &mut self,
        state: LstmBatchState,
        vocab: usize,
        rngs: impl IntoIterator<Item = StdRng>,
    ) {
        self.rngs.clear();
        self.rngs.extend(rngs);
        let width = self.rngs.len();
        debug_assert_eq!(state.batch, width);
        self.state = state;
        self.masks.clear();
        self.masks.resize(width * vocab, false);
        self.prev.clear();
        self.prev.resize(width, None);
        self.actions.clear();
        self.actions.resize(width, 0);
    }

    /// Restarts slot `p` on a fresh stream: zeroed LSTM lane, start-token
    /// input.
    fn restart(&mut self, p: usize, rng: StdRng) {
        self.state.reset_lane(p);
        self.prev[p] = None;
        self.rngs[p] = rng;
    }

    /// Removes slot `p` [`Vec::swap_remove`]-style (the last slot moves
    /// into `p`) and returns its RNG stream. Legal mid-rollout because a
    /// lane's forward math reads only its own slot — the batched kernels
    /// are bitwise position- and width-independent per lane — and each
    /// stream travels with its slot.
    pub(crate) fn swap_remove(&mut self, p: usize) -> StdRng {
        self.state.swap_remove_lane(p);
        self.prev.swap_remove(p);
        self.actions.swap_remove(p);
        self.rngs.swap_remove(p)
    }
}

/// Records the amortized per-token step latency of one lockstep iteration
/// over `width` lanes: one histogram sample per emitted token, each at the
/// iteration's cost divided by the width.
pub(crate) fn record_step_latency(start: Option<Instant>, width: usize) {
    if let Some(start) = start {
        let us = us_since(start) / width.max(1) as f64;
        for _ in 0..width {
            sqlgen_obs::obs_record!("rl.step.latency_us", us);
        }
    }
}

/// One in-flight episode owned by a lane.
struct LaneRun<'a> {
    state: GenState<'a>,
    shaper: RewardShaper,
    actions: Vec<usize>,
    rewards: Vec<f32>,
    /// Index of this episode in the caller's job queue (`0..n`).
    job: usize,
}

impl<'a> LaneRun<'a> {
    fn new(env: &SqlGenEnv<'a>, job: usize) -> Self {
        LaneRun {
            state: env.reset(),
            shaper: RewardShaper::new(),
            actions: Vec::new(),
            rewards: Vec::new(),
            job,
        }
    }
}

/// Reusable buffers for batched lockstep generation. One instance can
/// serve many [`BatchRollout::collect`] calls; buffers are resized (not
/// reallocated) when the batch width or vocabulary stays the same.
#[derive(Default)]
pub struct BatchRollout {
    lanes: Lanes,
}

impl BatchRollout {
    pub fn new() -> Self {
        Self::default()
    }

    /// Collects `n` episodes with up to `batch` lockstep lanes seeded by
    /// `seeds`, returning `(job, lane, episode)` tuples in completion
    /// order. `job` is the episode's index in the deterministic refill
    /// queue and `lane` the lane that produced it — enough to replay any
    /// lane serially.
    ///
    /// Once the job queue is exhausted, finished lanes are compacted away
    /// (see the [module docs](crate::batch)): the drain tail runs at the
    /// shrinking live width, and every episode is unchanged.
    pub fn collect_tagged<A: InferActor>(
        &mut self,
        actor: &A,
        env: &SqlGenEnv,
        n: usize,
        batch: usize,
        mut seeds: LaneSeeds,
    ) -> Vec<(usize, usize, Episode)> {
        if n == 0 {
            return Vec::new();
        }
        let b = batch.clamp(1, n);
        let vocab = env.action_space();
        let lanes = &mut self.lanes;
        lanes.start(actor.begin_batch(b), vocab, (0..b).map(|l| seeds.lane(l)));

        // `b <= n`, so every slot starts with a job. Physical slot `p`
        // hosts the lane originally numbered `order[p]` (the tag reported
        // in the output tuples and the lane whose RNG stream slot `p`
        // carries).
        let mut order: Vec<usize> = (0..b).collect();
        let mut runs: Vec<LaneRun> = (0..b).map(|job| LaneRun::new(env, job)).collect();
        let mut next_job = b;
        let mut out = Vec::with_capacity(n);
        let mut done_slots: Vec<usize> = Vec::new();

        while !runs.is_empty() {
            let w = runs.len();
            let start = sqlgen_obs::timing_enabled().then(Instant::now);
            for (p, run) in runs.iter().enumerate() {
                run.state.mask_into_row(&mut lanes.masks, p);
            }
            actor.infer_step_batch(
                &lanes.prev,
                &mut lanes.state,
                &lanes.masks[..w * vocab],
                &mut lanes.rngs,
                &mut lanes.scratch,
                &mut lanes.actions,
            );
            done_slots.clear();
            for (p, run) in runs.iter_mut().enumerate() {
                let action = lanes.actions[p];
                let (reward, done) = env.step(&mut run.state, action, &mut run.shaper);
                lanes.prev[p] = Some(action);
                run.actions.push(action);
                run.rewards.push(reward);
                if !done {
                    continue;
                }
                if next_job < n {
                    // Refill: fresh episode, zeroed LSTM lane, start-token
                    // input — the lane's RNG stream continues, exactly like
                    // a serial loop starting its next episode.
                    let LaneRun {
                        state,
                        actions,
                        rewards,
                        job,
                        ..
                    } = std::mem::replace(run, LaneRun::new(env, next_job));
                    out.push((job, order[p], finish_episode(env, &state, actions, rewards)));
                    next_job += 1;
                    lanes.state.reset_lane(p);
                    lanes.prev[p] = None;
                } else {
                    done_slots.push(p);
                }
            }
            // Compact drained slots out, highest physical index first so
            // each swap_remove only moves a still-live slot.
            for &p in done_slots.iter().rev() {
                let LaneRun {
                    state,
                    actions,
                    rewards,
                    job,
                    ..
                } = runs.swap_remove(p);
                out.push((job, order[p], finish_episode(env, &state, actions, rewards)));
                seeds.retire(lanes.swap_remove(p));
                order.swap_remove(p);
            }
            record_step_latency(start, w);
        }
        out
    }

    /// Collects `n` episodes with up to `batch` lockstep lanes, ordered by
    /// job index (the stable order a serial loop would produce them in).
    pub fn collect<A: InferActor>(
        &mut self,
        actor: &A,
        env: &SqlGenEnv,
        n: usize,
        batch: usize,
        seeds: LaneSeeds,
    ) -> Vec<Episode> {
        let mut tagged = self.collect_tagged(actor, env, n, batch, seeds);
        tagged.sort_by_key(|(job, _, _)| *job);
        tagged.into_iter().map(|(_, _, ep)| ep).collect()
    }
}

/// One generation job for the pull-based [`BatchRollout::run_jobs`] engine.
///
/// Unlike [`BatchRollout::collect_tagged`] — where a lane's RNG stream spans
/// every episode the lane produces — a job carries its **own** seed and gets
/// a fresh RNG and a zeroed LSTM lane at assignment. Its token stream is
/// therefore a pure function of `(weights, env, seed)`: independent of the
/// batch width, of which lane it lands on, and of whatever co-tenant jobs
/// share the batch. That is the determinism contract a serving batcher
/// needs to coalesce unrelated requests without perturbing any of them.
pub struct Job<'e, 'v: 'e> {
    /// Environment the episode rolls out in. Jobs in one `run_jobs` call may
    /// use different environments (constraints), but every environment must
    /// expose the same action space as the actor vocabulary.
    pub env: &'e SqlGenEnv<'v>,
    /// Seed for this job's private RNG stream.
    pub seed: u64,
    /// Absolute deadline; once passed the job aborts mid-generation and is
    /// reported as [`JobOutcome::Expired`].
    pub deadline: Option<Instant>,
    /// Caller-chosen id handed back with the outcome.
    pub tag: u64,
    /// Request trace to attribute this job's lane time to: an `episode`
    /// span per job plus accumulated `estimator` and `refill` phases.
    /// Untraced jobs (`None`) pay one branch per token and nothing else.
    pub trace: Option<TraceHandle>,
}

/// Terminal state of one [`Job`].
pub enum JobOutcome {
    Done(Box<Episode>),
    /// The deadline passed before the episode finished.
    Expired,
}

/// One in-flight job owned by a lane (multi-env variant of [`LaneRun`]).
struct JobRun<'e, 'v: 'e> {
    env: &'e SqlGenEnv<'v>,
    state: GenState<'v>,
    shaper: RewardShaper,
    actions: Vec<usize>,
    rewards: Vec<f32>,
    deadline: Option<Instant>,
    tag: u64,
    trace: Option<TraceHandle>,
    /// When this job was assigned to its lane (traced jobs only).
    assigned: Option<Instant>,
    /// Accumulated `env.step` time — estimator-dominated (the shaped
    /// reward's cardinality/cost probes), flushed to the trace once at
    /// completion so the hot loop never touches the trace mutex.
    est_us: f64,
}

impl JobRun<'_, '_> {
    /// Flushes this job's trace attribution: the `episode` wall span plus
    /// the accumulated `estimator` time and token count.
    fn flush_trace(&self, tokens: usize) {
        let Some(handle) = &self.trace else {
            return;
        };
        let now = Instant::now();
        if let Some(assigned) = self.assigned {
            handle.span_between("episode", assigned, now);
        }
        handle.accum("estimator", self.est_us);
        handle.trace.annotate_add("tokens", tokens as f64);
    }
}

impl BatchRollout {
    /// Runs jobs pulled from `source` through up to `lanes` lockstep lanes,
    /// reporting each outcome to `sink` as it completes. A finishing (or
    /// expiring) lane immediately pulls its next job — continuous refill —
    /// so `source` may keep yielding work admitted after the call started
    /// (a live request queue). Returns the number of episodes completed.
    ///
    /// The batch starts no wider than the jobs `source` has on hand, and a
    /// lane whose refill finds `source` dry is compacted away, so the
    /// kernels always run at the live width.
    ///
    /// Each assignment zeroes the lane (LSTM state, start-token input) and
    /// reseeds its RNG from [`Job::seed`]; see [`Job`] for the determinism
    /// contract. Outcome order is completion order, deterministic for a
    /// fixed job stream (single-threaded lockstep has no scheduling
    /// freedom).
    pub fn run_jobs<'e, 'v: 'e, A: InferActor>(
        &mut self,
        actor: &A,
        lanes: usize,
        mut source: impl FnMut() -> Option<Job<'e, 'v>>,
        mut sink: impl FnMut(u64, JobOutcome),
    ) -> usize {
        let vocab = actor.vocab_size();
        let mut runs: Vec<JobRun> = Vec::new();
        let mut rngs: Vec<StdRng> = Vec::new();
        while runs.len() < lanes.max(1) {
            let Some((run, rng)) = assign(source(), vocab) else {
                break;
            };
            runs.push(run);
            rngs.push(rng);
        }
        if runs.is_empty() {
            return 0;
        }
        let l = &mut self.lanes;
        l.start(actor.begin_batch(runs.len()), vocab, rngs);
        // Lane reset + reseed + env reset on behalf of each incoming job.
        for run in &runs {
            run.note_refill();
        }

        let mut completed = 0usize;
        let mut retired: Vec<usize> = Vec::new();
        while !runs.is_empty() {
            // Deadline sweep before spending another lockstep iteration.
            // One clock read per iteration, and only when some lane has a
            // deadline at all.
            if runs.iter().any(|run| run.deadline.is_some()) {
                let now = Instant::now();
                retired.clear();
                for p in 0..runs.len() {
                    if runs[p].deadline.is_none_or(|d| now < d) {
                        continue;
                    }
                    runs[p].flush_trace(runs[p].actions.len());
                    sink(runs[p].tag, JobOutcome::Expired);
                    if !refill(l, &mut runs, p, source(), vocab) {
                        retired.push(p);
                    }
                }
                compact(l, &mut runs, &retired);
                if runs.is_empty() {
                    break;
                }
            }

            let w = runs.len();
            let start = sqlgen_obs::timing_enabled().then(Instant::now);
            for (p, run) in runs.iter().enumerate() {
                run.state.mask_into_row(&mut l.masks, p);
            }
            actor.infer_step_batch(
                &l.prev,
                &mut l.state,
                &l.masks[..w * vocab],
                &mut l.rngs,
                &mut l.scratch,
                &mut l.actions,
            );
            retired.clear();
            for p in 0..w {
                let run = &mut runs[p];
                let action = l.actions[p];
                // Traced jobs time each env.step locally (estimator-
                // dominated: the shaped reward's cardinality/cost probes);
                // untraced jobs pay one branch, no clock read.
                let step_t0 = run.trace.is_some().then(Instant::now);
                let (reward, done) = run.env.step(&mut run.state, action, &mut run.shaper);
                if let Some(t0) = step_t0 {
                    run.est_us += us_since(t0);
                }
                l.prev[p] = Some(action);
                run.actions.push(action);
                run.rewards.push(reward);
                if !done {
                    continue;
                }
                let fin_t0 = run.trace.is_some().then(Instant::now);
                let actions = std::mem::take(&mut run.actions);
                let rewards = std::mem::take(&mut run.rewards);
                let ep = finish_episode(run.env, &run.state, actions, rewards);
                if let Some(t0) = fin_t0 {
                    // finish_episode re-measures the final query; that
                    // probe is estimator time too.
                    run.est_us += us_since(t0);
                }
                run.flush_trace(ep.actions.len());
                sink(run.tag, JobOutcome::Done(Box::new(ep)));
                completed += 1;
                if !refill(l, &mut runs, p, source(), vocab) {
                    retired.push(p);
                }
            }
            compact(l, &mut runs, &retired);
            sqlgen_obs::obs_record!("rl.batch.occupancy", w as f64);
            record_step_latency(start, w);
        }
        completed
    }
}

/// Turns a pulled job into a lane run and its fresh RNG stream; `None`
/// when the source is (currently) dry.
fn assign<'e, 'v: 'e>(job: Option<Job<'e, 'v>>, vocab: usize) -> Option<(JobRun<'e, 'v>, StdRng)> {
    let job = job?;
    assert_eq!(
        job.env.action_space(),
        vocab,
        "job env action space must match the actor vocabulary"
    );
    let run = JobRun {
        state: job.env.reset(),
        env: job.env,
        shaper: RewardShaper::new(),
        actions: Vec::new(),
        rewards: Vec::new(),
        deadline: job.deadline,
        tag: job.tag,
        assigned: job.trace.is_some().then(Instant::now),
        est_us: 0.0,
        trace: job.trace,
    };
    Some((run, StdRng::seed_from_u64(job.seed)))
}

impl JobRun<'_, '_> {
    /// Attributes the assignment work so far (lane reset, reseed, env
    /// reset) to the trace's `refill` phase.
    fn note_refill(&self) {
        if let (Some(t0), Some(handle)) = (self.assigned, &self.trace) {
            handle.accum("refill", us_since(t0));
        }
    }
}

/// Restarts slot `p` on `job`; `false` (slot untouched) when there is none.
fn refill<'e, 'v: 'e>(
    lanes: &mut Lanes,
    runs: &mut [JobRun<'e, 'v>],
    p: usize,
    job: Option<Job<'e, 'v>>,
    vocab: usize,
) -> bool {
    let Some((run, rng)) = assign(job, vocab) else {
        return false;
    };
    lanes.restart(p, rng);
    runs[p] = run;
    runs[p].note_refill();
    true
}

/// Compacts the `retired` slots (ascending) out of a job rollout, highest
/// physical index first so each swap_remove only moves a still-live slot.
fn compact(lanes: &mut Lanes, runs: &mut Vec<JobRun>, retired: &[usize]) {
    for &p in retired.iter().rev() {
        runs.swap_remove(p);
        lanes.swap_remove(p);
    }
}

/// Runs a batch of seeded jobs to completion and returns `(tag, outcome)`
/// pairs in completion order. Convenience wrapper over
/// [`BatchRollout::run_jobs`] for callers with a fixed job list.
pub fn run_jobs_batched<'e, 'v: 'e, A: InferActor>(
    actor: &A,
    jobs: Vec<Job<'e, 'v>>,
    lanes: usize,
) -> Vec<(u64, JobOutcome)> {
    let mut queue = std::collections::VecDeque::from(jobs);
    let mut out = Vec::with_capacity(queue.len());
    BatchRollout::new().run_jobs(
        actor,
        lanes,
        || queue.pop_front(),
        |tag, outcome| out.push((tag, outcome)),
    );
    out
}

/// Collects `n` inference episodes with `batch` lockstep lanes, lane `l`
/// on the stream seeded [`worker_seed`]`(base, l)` (see [`BatchRollout`]).
pub fn collect_episodes_batched<A: InferActor>(
    actor: &A,
    env: &SqlGenEnv,
    n: usize,
    batch: usize,
    base: u64,
) -> Vec<Episode> {
    BatchRollout::new().collect(actor, env, n, batch, LaneSeeds::Base(base))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Constraint;
    use crate::episode::run_episode;
    use crate::nets::{ActorNet, NetConfig};
    use sqlgen_engine::Estimator;
    use sqlgen_fsm::Vocabulary;
    use sqlgen_storage::gen::tpch_database;
    use sqlgen_storage::sample::SampleConfig;

    fn setup() -> (sqlgen_storage::Database, Vocabulary) {
        let db = tpch_database(0.1, 2);
        let vocab = Vocabulary::build(
            &db,
            &SampleConfig {
                k: 8,
                ..Default::default()
            },
        );
        (db, vocab)
    }

    fn actor_for(vocab: &Vocabulary) -> ActorNet {
        ActorNet::new(
            vocab.size(),
            &NetConfig {
                embed_dim: 8,
                hidden: 8,
                layers: 1,
                dropout: 0.0,
            },
            1,
        )
    }

    /// Every lane's token stream must equal a reference `run_episode`
    /// (`train = false`) loop over that lane's worker seed — including
    /// across refills.
    #[test]
    fn lanes_match_serial_runs_bitwise() {
        let (db, vocab) = setup();
        let est = Estimator::build(&db);
        let env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(1.0, 500.0));
        let actor = actor_for(&vocab);
        let base = 0xfeed;
        for &batch in &[1usize, 3, 4] {
            let n = batch * 2 + 1; // forces refill on at least one lane
            let tagged =
                BatchRollout::new().collect_tagged(&actor, &env, n, batch, LaneSeeds::Base(base));
            assert_eq!(tagged.len(), n);
            let b = batch.min(n);
            for lane in 0..b {
                let mut lane_eps: Vec<_> = tagged.iter().filter(|(_, l, _)| *l == lane).collect();
                lane_eps.sort_by_key(|(job, _, _)| *job);
                let mut rng = StdRng::seed_from_u64(worker_seed(base, lane));
                for (_, _, ep) in lane_eps {
                    let serial = run_episode(&actor, &env, false, &mut rng);
                    assert_eq!(ep.actions, serial.actions, "lane {lane} batch {batch}");
                    assert_eq!(ep.rewards, serial.rewards, "lane {lane} batch {batch}");
                }
            }
        }
    }

    /// A job's episode must equal a reference `run_episode` with the job's
    /// own seed — at every batch width (wider than the job list, too:
    /// the engine starts at the jobs on hand and compacts drained lanes),
    /// regardless of co-tenant jobs or which constraint each job carries.
    #[test]
    fn jobs_match_serial_runs_at_any_batch_width() {
        let (db, vocab) = setup();
        let est = Estimator::build(&db);
        let env_a = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(1.0, 500.0));
        let env_b = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_point(50.0));
        let actor = actor_for(&vocab);
        let seeds: Vec<u64> = (0..7).map(|i| 0x1000 + 7 * i).collect();

        // Serial references: one fresh RNG per seed, env alternating a/b.
        let mut serial = Vec::new();
        for (i, &seed) in seeds.iter().enumerate() {
            let env = if i.is_multiple_of(2) { &env_a } else { &env_b };
            let mut rng = StdRng::seed_from_u64(seed);
            serial.push(run_episode(&actor, env, false, &mut rng));
        }

        for &lanes in &[1usize, 3, 8, 16] {
            let jobs: Vec<Job> = seeds
                .iter()
                .enumerate()
                .map(|(i, &seed)| Job {
                    env: if i % 2 == 0 { &env_a } else { &env_b },
                    seed,
                    deadline: None,
                    trace: None,
                    tag: i as u64,
                })
                .collect();
            let out = run_jobs_batched(&actor, jobs, lanes);
            assert_eq!(out.len(), seeds.len());
            for (tag, outcome) in out {
                let JobOutcome::Done(ep) = outcome else {
                    panic!("job {tag} expired without a deadline");
                };
                let want = &serial[tag as usize];
                assert_eq!(ep.actions, want.actions, "job {tag} lanes {lanes}");
                assert_eq!(ep.rewards, want.rewards, "job {tag} lanes {lanes}");
            }
        }
    }

    /// Jobs whose deadline has passed are reported `Expired` — before
    /// their first token, or mid-generation — while co-tenant jobs without
    /// deadlines complete bit-exactly, including a job refilled into an
    /// expired job's lane after the expired lanes were compacted away.
    #[test]
    fn deadline_expiry_aborts_without_perturbing_neighbors() {
        let (db, vocab) = setup();
        let est = Estimator::build(&db);
        let env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(1.0, 500.0));
        let actor = actor_for(&vocab);
        let serial = |seed: u64| run_episode(&actor, &env, false, &mut StdRng::seed_from_u64(seed));

        // Job 3 runs from the first lockstep step alongside job 0 and its
        // episode is longer, so when job 0 finishes, job 3 is mid-run.
        let first = serial(0x77);
        let long_seed = (0x100u64..)
            .find(|&s| serial(s).len() > first.len() + 2)
            .expect("some seed rolls a longer episode");
        let last = serial(0xAA);

        let past = Instant::now() - std::time::Duration::from_millis(1);
        let soon = Instant::now() + std::time::Duration::from_millis(300);
        let job = |seed, deadline, tag| Job {
            env: &env,
            seed,
            deadline,
            tag,
            trace: None,
        };
        let mut queue = std::collections::VecDeque::from(vec![
            job(0x77, None, 0),
            job(0x88, Some(past), 1),
            job(0x99, Some(past), 2),
            job(long_seed, Some(soon), 3),
            job(0xAA, None, 4),
        ]);
        let mut out = Vec::new();
        BatchRollout::new().run_jobs(
            &actor,
            3,
            || queue.pop_front(),
            |tag, outcome| {
                if tag == 0 {
                    // Hold the loop until job 3's deadline has passed, so
                    // the next sweep expires it mid-generation.
                    std::thread::sleep(soon.saturating_duration_since(Instant::now()));
                }
                out.push((tag, outcome));
            },
        );
        assert_eq!(out.len(), 5);
        let mut expired = Vec::new();
        for (tag, outcome) in out {
            match outcome {
                JobOutcome::Done(ep) => {
                    let want = match tag {
                        0 => &first,
                        4 => &last,
                        _ => panic!("job {tag} should have expired"),
                    };
                    assert_eq!(ep.actions, want.actions, "job {tag}");
                    assert_eq!(ep.rewards, want.rewards, "job {tag}");
                }
                JobOutcome::Expired => expired.push(tag),
            }
        }
        expired.sort_unstable();
        assert_eq!(expired, vec![1, 2, 3]);
    }

    /// The source is consulted again after every completion, so jobs
    /// admitted "live" (after the call started) still run — the continuous
    /// refill contract a serving batcher relies on.
    #[test]
    fn source_is_polled_continuously() {
        let (db, vocab) = setup();
        let est = Estimator::build(&db);
        let env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(1.0, 500.0));
        let actor = actor_for(&vocab);
        // Yield jobs one at a time; the queue "arrives" while earlier jobs
        // are in flight.
        let mut next = 0u64;
        let mut outcomes = Vec::new();
        let completed = BatchRollout::new().run_jobs(
            &actor,
            2,
            || {
                if next < 5 {
                    next += 1;
                    Some(Job {
                        env: &env,
                        seed: next,
                        deadline: None,
                        tag: next,
                        trace: None,
                    })
                } else {
                    None
                }
            },
            |tag, outcome| outcomes.push((tag, outcome)),
        );
        assert_eq!(completed, 5);
        assert_eq!(outcomes.len(), 5);
    }

    /// After an EOS → refill, the refilled lane must carry its own job's
    /// constraint target, a fresh FSM state, and untainted estimator-cache
    /// keying: every episode from a refilled slot (job index ≥ lane count)
    /// must be bit-identical — token stream, rewards, measured value,
    /// satisfied flag, rendered SQL — to a fresh serial run of the same
    /// seed against the same constraint with its own private cache, even
    /// though the batched run shares one estimator cache across jobs with
    /// *different* constraints (a keying bug would surface as a measured
    /// or reward drift here).
    #[test]
    fn refilled_lanes_match_fresh_serial_runs_with_caches() {
        use crate::cache::EstimatorCache;
        use sqlgen_engine::render;
        let (db, vocab) = setup();
        let est = Estimator::build(&db);
        let shared = EstimatorCache::new(256);
        let env_a = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(1.0, 500.0))
            .with_cache(&shared);
        let env_b = SqlGenEnv::new(&vocab, &est, Constraint::cost_point(50.0)).with_cache(&shared);
        let actor = actor_for(&vocab);
        let lanes = 2usize;
        let seeds: Vec<u64> = (0..6).map(|i| 0xBEE5 + 13 * i).collect();

        let jobs: Vec<Job> = seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| Job {
                env: if i % 2 == 0 { &env_a } else { &env_b },
                seed,
                deadline: None,
                trace: None,
                tag: i as u64,
            })
            .collect();
        let out = run_jobs_batched(&actor, jobs, lanes);
        assert_eq!(out.len(), seeds.len());

        let mut refilled = 0;
        for (tag, outcome) in out {
            let JobOutcome::Done(ep) = outcome else {
                panic!("job {tag} expired without a deadline");
            };
            let i = tag as usize;
            if i >= lanes {
                refilled += 1;
            }
            let solo_cache = EstimatorCache::new(256);
            let env = if i.is_multiple_of(2) {
                SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(1.0, 500.0))
            } else {
                SqlGenEnv::new(&vocab, &est, Constraint::cost_point(50.0))
            }
            .with_cache(&solo_cache);
            let mut rng = StdRng::seed_from_u64(seeds[i]);
            let want = run_episode(&actor, &env, false, &mut rng);
            assert_eq!(ep.actions, want.actions, "job {tag}: token stream drifted");
            assert_eq!(ep.rewards, want.rewards, "job {tag}: reward drifted");
            assert_eq!(
                ep.measured.to_bits(),
                want.measured.to_bits(),
                "job {tag}: estimator measurement drifted"
            );
            assert_eq!(ep.satisfied, want.satisfied, "job {tag}: satisfied drifted");
            assert_eq!(
                render(&ep.statement),
                render(&want.statement),
                "job {tag}: statement drifted"
            );
        }
        assert_eq!(
            refilled,
            seeds.len() - lanes,
            "expected every job past the initial lane fill to run in a refilled slot"
        );
    }

    /// Fixed (seed, batch) must reproduce run-to-run, and `collect` must
    /// order episodes by job index.
    #[test]
    fn collection_is_reproducible_and_job_ordered() {
        let (db, vocab) = setup();
        let est = Estimator::build(&db);
        let env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(1.0, 500.0));
        let actor = actor_for(&vocab);
        let a = collect_episodes_batched(&actor, &env, 7, 4, 0xabc);
        let b = collect_episodes_batched(&actor, &env, 7, 4, 0xabc);
        assert_eq!(a.len(), 7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.actions, y.actions);
            assert_eq!(x.rewards, y.rewards);
        }
        let tagged = BatchRollout::new().collect_tagged(&actor, &env, 7, 4, LaneSeeds::Base(0xabc));
        let jobs: Vec<usize> = {
            let mut t: Vec<usize> = tagged.iter().map(|(j, _, _)| *j).collect();
            t.sort_unstable();
            t
        };
        assert_eq!(jobs, (0..7).collect::<Vec<_>>());
    }
}
