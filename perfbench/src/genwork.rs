//! The two in-process generation workloads, `range-est` and `point-exec`.
//!
//! Both drive the library exactly as the CLI does: build the store, build
//! `LearnedSqlGen::from_exec_db`, `train(E)`, generate, then (outside the
//! timed phases) verify every output against the data.

use crate::measure::{self, mean, median, median_or_zero, quantile, ratio, secs, RegSnap};
use crate::servemix::ServeLayers;
use crate::{splitmix, Plan, Report};
use learned_sqlgen::core::{
    Constraint, ExecBudget, ExecDb, GenConfig, GeneratedQuery, LearnedSqlGen,
};
use learned_sqlgen::engine::{parse, render, Estimator, ExecOptions, Statement};
use learned_sqlgen::fsm::Vocabulary;
use learned_sqlgen::storage::gen::Benchmark;
use learned_sqlgen::storage::{PagedDb, PagedDbWriter, PoolStats};
use sqlgen_obs::trace::{RequestTrace, TraceContext, TraceHandle, ROOT_SPAN};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// TPC-H scale factor of every workload.
pub const SCALE: f64 = 1.0;
/// Data and policy seed of every trained model (the `sqlgen` default).
/// Generator `g` trains with `generator_seed(MODEL_SEED, g)` in every
/// run, so training is the same work whatever `--seed` says; the workload
/// seed drives generation (see `run_generator`).
pub const MODEL_SEED: u64 = 42;
/// Buffer pool of `point-exec`: about two thirds of its 0.79 MB image, so
/// scans evict.
pub const POINT_POOL_BYTES: usize = 512 * 1024;

/// What distinguishes the two generation workloads.
pub struct GenSpec {
    pub constraint: Constraint,
    /// `true`: image written with `PagedDbWriter`, opened behind a small
    /// pool, execution rewards. `false`: in-memory store, estimator reward.
    pub paged: bool,
    /// Training lanes (`GenConfig::batch_size`).
    pub batch: usize,
}

/// One fresh set-up: the store and a generator built on it.
struct Setup {
    generator: LearnedSqlGen,
    total_s: f64,
    build_s: f64,
    open_s: f64,
}

fn config(spec: &GenSpec, seed: u64) -> GenConfig {
    let config = GenConfig::default()
        .with_seed(seed)
        .with_batch_size(spec.batch);
    if spec.paged {
        config.with_execute_rewards(ExecBudget::default())
    } else {
        config
    }
}

fn setup(spec: &GenSpec, seed: u64, image: &Path) -> Setup {
    let t0 = Instant::now();
    let (exec, build_s, open_s) = if spec.paged {
        let mut writer = PagedDbWriter::create(image).expect("create benchmark image");
        Benchmark::TpcH
            .build_into(SCALE, seed, &mut writer)
            .and_then(|()| writer.finish())
            .expect("write benchmark image");
        let build_s = secs(t0);
        let t1 = Instant::now();
        let paged = PagedDb::open(image, POINT_POOL_BYTES).expect("open benchmark image");
        (ExecDb::Paged(paged), build_s, secs(t1))
    } else {
        let db = Benchmark::TpcH.build(SCALE, seed);
        (ExecDb::Mem(db), secs(t0), 0.0)
    };
    let generator =
        LearnedSqlGen::from_exec_db(Arc::new(exec), spec.constraint, config(spec, seed));
    Setup {
        generator,
        total_s: secs(t0),
        build_s,
        open_s,
    }
}

/// Times the two derived structures `from_exec_db` builds — the action
/// vocabulary and the estimator statistics — by building them again from
/// outside, on the same store.
fn time_derived(generator: &LearnedSqlGen, spec: &GenSpec, seed: u64) -> (f64, f64) {
    let exec = generator.exec_db().expect("generator keeps its store");
    let sample = config(spec, seed).sample;
    let t0 = Instant::now();
    let vocab = match &**exec {
        ExecDb::Mem(db) => Vocabulary::build(db, &sample),
        ExecDb::Paged(db) => Vocabulary::build(db, &sample),
    };
    let vocab_s = secs(t0);
    let t1 = Instant::now();
    let est = match &**exec {
        ExecDb::Mem(db) => Estimator::build(db),
        ExecDb::Paged(db) => Estimator::from_stats(db.table_stats()),
    };
    let stats_s = secs(t1);
    std::hint::black_box((vocab.size(), &est));
    (vocab_s, stats_s)
}

fn pool_stats(generator: &LearnedSqlGen) -> PoolStats {
    match generator.exec_db().and_then(|db| db.as_paged()) {
        Some(db) => db.pool_stats(),
        None => PoolStats::default(),
    }
}

/// Seed of generation request `i` for `point-exec`.
fn request_seed(seed: u64, i: usize) -> u64 {
    splitmix(seed ^ 0x5eed_0000 ^ i as u64)
}

/// Per-request layer time read from a finished request trace.
#[derive(Default)]
struct LaneTimes {
    lane_us: f64,
    refill_us: f64,
    refine_us: f64,
    estimator_us: f64,
}

/// One single-query generation request.
fn generate_request(
    generator: &mut LearnedSqlGen,
    spec: &GenSpec,
    seed: u64,
    traced: bool,
    lanes: &mut LaneTimes,
) -> Vec<GeneratedQuery> {
    if !spec.paged {
        // The CLI path: the trainer's own RNG stream, serial engine.
        return generator.generate(1);
    }
    if !traced {
        return generator.generate_seeded(1, seed);
    }
    let start = Instant::now();
    let trace = RequestTrace::begin(TraceContext::fresh(), "perfbench");
    let parent = trace.open_span("lane_exec", ROOT_SPAN, start);
    let handle = TraceHandle {
        trace: trace.clone(),
        parent,
    };
    let (out, expired) = generator.generate_seeded_traced(1, seed, None, Some(handle));
    assert_eq!(expired, 0, "no deadline was set");
    trace.close_span(parent, Instant::now());
    for span in trace.finish(200).spans {
        match span.name {
            "episode" => lanes.lane_us += span.dur_us,
            "refill" => lanes.refill_us += span.dur_us,
            "refine" => lanes.refine_us += span.dur_us,
            "estimator" => lanes.estimator_us += span.dur_us,
            _ => {}
        }
    }
    out
}

/// Whether an output renders and re-parses to the same statement.
fn round_trips(query: &GeneratedQuery) -> bool {
    render(&query.statement) == query.sql
        && parse(&query.sql).is_ok_and(|stmt| stmt == query.statement)
}

/// Executes one output on the data (default `ExecBudget`, no deadline)
/// and checks the constraint on the true cardinality. A budget abort
/// counts as not satisfied.
pub fn exec_satisfied(exec: &ExecDb, stmt: &Statement, constraint: &Constraint) -> bool {
    let budget = ExecBudget::default();
    let opts = ExecOptions {
        max_rows: budget.max_rows,
        deadline: None,
    };
    exec.cardinality(stmt, opts)
        .is_ok_and(|rows| constraint.satisfied(rows as f64))
}

/// Per-generator sub-seed: data and policy seed of generator `g`.
pub fn generator_seed(seed: u64, g: usize) -> u64 {
    splitmix(seed.wrapping_add(g as u64))
}

/// Everything measured over the generators of one run.
#[derive(Default)]
pub struct Totals {
    pub setup_s: Vec<f64>,
    build_s: Vec<f64>,
    open_s: Vec<f64>,
    vocab_s: Vec<f64>,
    stats_s: Vec<f64>,
    train_s: f64,
    /// Episodes per second of each training chunk.
    pub train_rates: Vec<f64>,
    pub untraced_train_s: f64,
    traced_train_s: f64,
    pub episodes: usize,
    pub rewards: Vec<f64>,
    pub gen_s: f64,
    /// Generate-phase time covered by measured layers.
    pub gen_attributed_s: f64,
    latencies_ms: Vec<f64>,
    queries: usize,
    satisfied: usize,
    exec_satisfied: usize,
    pub exec_s: f64,
    pub executed: usize,
    pub reg_train: RegSnap,
    pub reg_gen: RegSnap,
    pool_train: PoolStats,
    pool_gen: PoolStats,
    lanes: LaneTimes,
}

fn pool_delta(acc: &mut PoolStats, after: PoolStats, before: PoolStats) {
    acc.hits += after.hits - before.hits;
    acc.misses += after.misses - before.misses;
    acc.evictions += after.evictions - before.evictions;
}

/// Trains `episodes` in chunks of `chunk` (one `train` call each; the
/// trainer's RNG and weights carry over, so the chunks replay exactly
/// what one `train(episodes)` call does). Returns the total wall time.
pub fn train_chunked(
    generator: &mut LearnedSqlGen,
    episodes: usize,
    chunk: usize,
    rates: &mut Vec<f64>,
) -> f64 {
    let mut total = 0.0;
    let mut left = episodes;
    while left > 0 {
        let k = left.min(chunk);
        let t0 = Instant::now();
        generator.train(k);
        let s = secs(t0);
        rates.push(k as f64 / s);
        total += s;
        left -= k;
    }
    total
}

/// Trains `episodes` in chunks of `chunk` and records the phase.
pub fn train_phase(
    generator: &mut LearnedSqlGen,
    episodes: usize,
    chunk: usize,
    t: &mut Totals,
) {
    let reg0 = RegSnap::take();
    let pool0 = pool_stats(generator);
    let train_s = train_chunked(generator, episodes, chunk, &mut t.train_rates);
    let trace = &generator.stats.reward_trace;
    t.rewards.extend(
        trace[trace.len() - episodes..]
            .iter()
            .map(|&r| f64::from(r)),
    );
    t.train_s += train_s;
    if t.traced_train_s == 0.0 {
        t.traced_train_s = train_s;
    }
    t.episodes += episodes;
    let reg1 = RegSnap::take();
    let pool1 = pool_stats(generator);
    t.reg_train.add(&reg1.since(&reg0));
    pool_delta(&mut t.pool_train, pool1, pool0);
}

/// Trains and generates on one freshly set-up generator. `seed` is its
/// model seed, `stream` the seed of its generation requests. Returns the
/// outputs with the store they must hold on.
fn run_generator(
    spec: &GenSpec,
    plan: &Plan,
    seed: u64,
    stream: u64,
    mut generator: LearnedSqlGen,
    t: &mut Totals,
) -> (Arc<ExecDb>, Vec<GeneratedQuery>) {
    if plan.traced {
        let (vocab_s, stats_s) = time_derived(&generator, spec, seed);
        t.vocab_s.push(vocab_s);
        t.stats_s.push(stats_s);
    }

    train_phase(&mut generator, plan.train_episodes, plan.train_chunk, t);

    // Generate: the trained policy is handed (as a checkpoint) to a
    // generator on the same store and vocabulary whose sampling RNG is
    // seeded by `stream`, then serves a fixed sequence of requests, each
    // timed. `range-est` keeps the CLI engine (f32, serial, estimator
    // reward). `point-exec` serves int8 on 16 lanes with refinement scored
    // by the estimator, the way the server serves it (refinement scored by
    // execution costs ~1 s per query, too few samples for a steady run).
    let exec = generator
        .exec_db()
        .expect("generator keeps its store")
        .clone();
    let checkpoint = generator.save_checkpoint();
    drop(generator);
    let mut config = if spec.paged {
        GenConfig::default()
            .with_seed(seed)
            .with_batch_size(spec.batch)
            .with_quantize(true)
    } else {
        config(spec, seed)
    };
    config.train.seed = stream;
    let mut generator = LearnedSqlGen::from_exec_db(exec, spec.constraint, config);
    generator
        .load_checkpoint(&checkpoint)
        .expect("checkpoint of the same vocabulary loads");
    let (reg1, pool1) = (RegSnap::take(), pool_stats(&generator));
    let mut queries = Vec::with_capacity(plan.requests);
    for i in 0..plan.requests {
        let start = Instant::now();
        let out = generate_request(
            &mut generator,
            spec,
            request_seed(stream, i),
            plan.traced,
            &mut t.lanes,
        );
        let s = secs(start);
        t.latencies_ms.push(s * 1e3);
        t.gen_s += s;
        queries.extend(out);
    }
    let reg2 = RegSnap::take();
    let pool2 = pool_stats(&generator);
    t.reg_gen.add(&reg2.since(&reg1));
    pool_delta(&mut t.pool_gen, pool2, pool1);
    let exec = generator
        .exec_db()
        .expect("generator keeps its store")
        .clone();
    (exec, queries)
}

/// Checks one generator's outputs against the data (outside the timed
/// phases).
fn verify(
    spec: &GenSpec,
    plan: &Plan,
    (exec, queries): (Arc<ExecDb>, Vec<GeneratedQuery>),
    t: &mut Totals,
    report: &mut Report,
) {
    let expected = plan.requests;
    if queries.len() != expected {
        report.problem(format!("{} outputs, expected {expected}", queries.len()));
    }
    report.failed += expected.saturating_sub(queries.len()) as u64;
    // Repeated outputs of one generator execute once.
    let mut verdicts: HashMap<&str, bool> = HashMap::new();
    for q in &queries {
        if !round_trips(q) {
            report.problem(format!("output does not re-parse to itself: {}", q.sql));
        }
        let ok = *verdicts.entry(&q.sql).or_insert_with(|| {
            let t0 = Instant::now();
            let ok = exec_satisfied(&exec, &q.statement, &spec.constraint);
            t.exec_s += secs(t0);
            t.executed += 1;
            ok
        });
        t.exec_satisfied += usize::from(ok);
        t.satisfied += usize::from(q.satisfied);
    }
    t.queries += queries.len();
}

pub fn run(spec: &GenSpec, plan: &Plan, state: &Path) -> Report {
    let mut report = Report::default();
    let mut t = Totals::default();
    let image = |g: usize| state.join(format!("point-exec-{g}.img"));

    // Extra fresh set-ups beyond one per generator, so the reported median
    // rests on enough samples. In a traced run the first one trains
    // untraced, to price the tracing.
    for k in 0..plan.setups.saturating_sub(plan.generators) {
        let s = setup(spec, generator_seed(MODEL_SEED, 0), &image(0));
        t.setup_s.push(s.total_s);
        if plan.traced && k == 0 {
            let mut spare = s.generator;
            let mut rates = Vec::new();
            t.untraced_train_s = train_chunked(
                &mut spare,
                plan.train_episodes,
                plan.train_chunk,
                &mut rates,
            );
        }
    }
    if plan.traced {
        sqlgen_obs::enable_metrics();
    }
    for g in 0..plan.generators {
        let seed = generator_seed(MODEL_SEED, g);
        let s = setup(spec, seed, &image(g));
        t.setup_s.push(s.total_s);
        t.build_s.push(s.build_s);
        t.open_s.push(s.open_s);
        let stream = generator_seed(plan.seed, g);
        let outputs = run_generator(spec, plan, seed, stream, s.generator, &mut t);
        // Verifying each generator's outputs before the next one starts
        // spreads the timed phases over the whole run, so a slow spell of
        // the host weighs on them less than when they were packed into its
        // first half.
        verify(spec, plan, outputs, &mut t, &mut report);
    }
    let peak_rss = measure::peak_rss_mib(None).unwrap_or(0.0);
    report.attempted = (t.episodes + plan.generators * plan.requests) as u64;

    let n = t.queries as f64;
    let reward_mean = mean(&t.rewards);
    let satisfied_rate = ratio(t.satisfied as f64, n);
    let exec_satisfied_rate = ratio(t.exec_satisfied as f64, n);

    report.e2e("setup_s", median(&t.setup_s), "s");
    report.e2e("peak_rss_mib", peak_rss, "MiB");
    report.e2e("train_episodes_per_s", median(&t.train_rates), "1/s");
    report.e2e("gen_satisfied_per_s", t.satisfied as f64 / t.gen_s, "1/s");
    report.e2e("reward_mean", reward_mean, "reward");
    report.e2e("satisfied_rate", satisfied_rate, "ratio");
    report.e2e("exec_satisfied_rate", exec_satisfied_rate, "ratio");
    report.e2e("latency_p50_ms", quantile(&t.latencies_ms, 0.5), "ms");
    report.e2e("latency_p99_ms", quantile(&t.latencies_ms, 0.99), "ms");

    // Work counts and quality: must repeat exactly for a given seed.
    let (rt, rg) = (&t.reg_train, &t.reg_gen);
    report.fingerprint("rl.episodes", rt.count("rl.episodes.count"));
    report.fingerprint("fsm.tokens.train", rt.count("fsm.tokens.count"));
    report.fingerprint("fsm.tokens.generate", rg.count("fsm.tokens.count"));
    report.fingerprint(
        "engine.estimate_calls",
        rt.count("estimator.card.calls") + rg.count("estimator.card.calls"),
    );
    report.fingerprint("core.refine_attempts", rg.count("refine.attempts"));
    report.fingerprint(
        "storage.pool.train",
        format!("{}/{}", t.pool_train.hits, t.pool_train.misses),
    );
    report.fingerprint(
        "storage.pool.generate",
        format!("{}/{}", t.pool_gen.hits, t.pool_gen.misses),
    );
    report.fingerprint("outputs", t.queries);
    report.fingerprint("reward_mean", reward_mean);
    report.fingerprint("satisfied_rate", satisfied_rate);
    report.fingerprint("exec_satisfied_rate", exec_satisfied_rate);

    if plan.traced {
        // Policy steps (forward, mask, sample, reward) are the measured
        // part of generation; refinement search and rendering are the rest.
        // (The traced `refine` phase also covers the resampling rounds'
        // steps, so it cannot be added without double counting.)
        t.gen_attributed_s = t.reg_gen.hist("rl.step.latency_us").1 / 1e6;
        layers(&mut report, &t, &ServeLayers::default());
    }
    report
}

/// Emits every per-layer metric. Layers a workload does not use read 0.
pub fn layers(report: &mut Report, t: &Totals, serve: &ServeLayers) {
    let mut all = RegSnap::default();
    all.add(&t.reg_train);
    all.add(&t.reg_gen);
    let steps_train_us = t.reg_train.hist("rl.step.latency_us").1;
    let steps_us = all.hist("rl.step.latency_us").1;
    let tokens = all.count("fsm.tokens.count") as f64;
    let hits = (t.pool_train.hits + t.pool_gen.hits) as f64;
    let misses = (t.pool_train.misses + t.pool_gen.misses) as f64;
    let cache_hits = all.count("estimator.cache.hit") as f64;
    let cache_misses = all.count("estimator.cache.miss") as f64;
    let refine_attempts = t.reg_gen.count("refine.attempts") as f64;
    let train_other_s = (t.train_s - steps_train_us / 1e6).max(0.0);
    let setup_attr = median_or_zero(&t.build_s)
        + median_or_zero(&t.open_s)
        + median_or_zero(&t.vocab_s)
        + median_or_zero(&t.stats_s);

    report.layer("storage.build_s", median_or_zero(&t.build_s), "s");
    report.layer("storage.open_s", median_or_zero(&t.open_s), "s");
    report.layer("storage.pool_hit_rate", ratio(hits, hits + misses), "ratio");
    report.layer("storage.pool_misses", misses, "count");
    report.layer(
        "storage.pool_evictions",
        (t.pool_train.evictions + t.pool_gen.evictions) as f64,
        "count",
    );
    report.layer("fsm.vocab_build_s", median_or_zero(&t.vocab_s), "s");
    report.layer("fsm.mask_us", all.hist_mean("fsm.mask.latency_us"), "us");
    report.layer("fsm.tokens", tokens, "count");
    report.layer("engine.stats_build_s", median_or_zero(&t.stats_s), "s");
    report.layer(
        "engine.estimate_us",
        all.hist_mean("estimator.card.latency_us"),
        "us",
    );
    report.layer(
        "engine.estimate_calls",
        all.count("estimator.card.calls") as f64,
        "count",
    );
    report.layer(
        "engine.exec_ms_per_query",
        ratio(t.exec_s * 1e3, t.executed as f64),
        "ms",
    );
    report.layer("rl.step_us", steps_us, "us");
    report.layer("rl.step_us_per_token", ratio(steps_us, tokens), "us");
    report.layer("rl.train_other_s", train_other_s, "s");
    report.layer(
        "rl.est_cache_hit_rate",
        ratio(cache_hits, cache_hits + cache_misses),
        "ratio",
    );
    report.layer(
        "rl.episodes",
        t.reg_train.count("rl.episodes.count") as f64,
        "count",
    );
    report.layer("rl.tokens", t.reg_train.hist("rl.episode.len").1, "count");
    report.layer("core.lane_ms", t.lanes.lane_us / 1e3, "ms");
    report.layer("core.refill_ms", t.lanes.refill_us / 1e3, "ms");
    report.layer("core.refine_ms", t.lanes.refine_us / 1e3, "ms");
    report.layer("core.gen_estimator_ms", t.lanes.estimator_us / 1e3, "ms");
    report.layer("core.refine_attempts", refine_attempts, "count");
    report.layer(
        "core.refine_success_rate",
        ratio(t.reg_gen.count("refine.successes") as f64, refine_attempts),
        "ratio",
    );
    report.layer(
        "core.resampled",
        t.reg_gen.count("refine.resampled") as f64,
        "count",
    );
    report.layer("serve.queue_wait_ms", serve.queue_wait_ms, "ms");
    report.layer("serve.gather_ms", serve.gather_ms, "ms");
    report.layer("serve.exec_ms", serve.exec_ms, "ms");
    report.layer("serve.http_ms", serve.http_ms, "ms");
    report.layer("serve.cache_hit_rate", serve.cache_hit_rate, "ratio");
    report.layer("serve.client_overhead_ms", serve.client_overhead_ms, "ms");
    report.layer("serve.send_late_p99_ms", serve.send_late_p99_ms, "ms");
    report.layer(
        "obs.trace_overhead",
        ratio(t.traced_train_s, t.untraced_train_s) - 1.0,
        "ratio",
    );
    report.layer(
        "unattributed_share.setup",
        1.0 - ratio(setup_attr, median(&t.setup_s)),
        "ratio",
    );
    report.layer(
        "unattributed_share.train",
        ratio(train_other_s, t.train_s),
        "ratio",
    );
    report.layer(
        "unattributed_share.generate",
        1.0 - ratio(t.gen_attributed_s, t.gen_s),
        "ratio",
    );
}
