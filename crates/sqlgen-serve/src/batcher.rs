//! Dynamic batcher: coalesces concurrent generation requests into one
//! lockstep GEMM window.
//!
//! The flow is `queue → window → lanes`:
//!
//! 1. The event loop admits [`GenTask`]s onto the bounded queue of the
//!    shard that owns the request's `(schema, model-version)`.
//! 2. The shard worker ([`crate::shard`]) blocks for the first task, then
//!    keeps gathering until either `max_wait` elapses or the window holds
//!    `max_batch_jobs` episode jobs — latency-bounded coalescing.
//! 3. The window is expanded into per-episode [`sqlgen_rl::Job`]s (request
//!    `i`, episode `j` → tag `i << 32 | j`, seed `worker_seed(req.seed, j)`)
//!    and run through [`sqlgen_rl::run_jobs_batched`] on `lanes` lanes.
//!
//! Because every job re-seeds its lane RNG and zeroes its LSTM lane at
//! assignment, the response bytes for a request are a pure function of
//! (weights, schema, constraint, seed) — identical no matter which
//! co-tenant requests share the window or how wide the batch is. That is
//! the contract the `serve-equivalence` fuzz family checks.

use crate::registry::ModelRegistry;
use sqlgen_core::{Algorithm, Constraint, GenConfig, Refiner, Target};
use sqlgen_engine::{render, Estimator};
use sqlgen_fsm::{FsmConfig, Vocabulary};
use sqlgen_obs::trace::ROOT_SPAN;
use sqlgen_obs::{Labels, RequestTrace, TraceHandle};
use sqlgen_rl::{
    run_jobs_batched, worker_seed, ActorCritic, ActorNet, Episode, InferActor, Job, JobOutcome,
    Reinforce, SqlGenEnv,
};
use sqlgen_storage::Database;
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Upper bound on `n` per request; keeps one request from monopolising
/// windows far beyond `max_batch_jobs`.
pub const MAX_QUERIES_PER_REQUEST: usize = 256;

/// A parsed `/generate` request body.
#[derive(Debug, Clone, PartialEq)]
pub struct GenRequest {
    /// Schema (database) to generate against; empty string = the server's
    /// first schema.
    pub schema: String,
    pub constraint: Constraint,
    /// Number of queries to generate.
    pub n: usize,
    /// Base seed; episode `j` runs on `worker_seed(seed, j)`.
    pub seed: u64,
    /// Per-request deadline override in milliseconds.
    pub timeout_ms: Option<u64>,
}

impl GenRequest {
    /// Parses a JSON request body, e.g.
    /// `{"constraint":{"metric":"cardinality","min":1,"max":500},"n":4,"seed":7}`.
    /// Point constraints use `"point"`, ranges use `"min"`/`"max"`.
    pub fn from_json(body: &str) -> Result<GenRequest, String> {
        let v = serde_json::from_str::<serde_json::Value>(body)
            .map_err(|e| format!("invalid JSON body: {e}"))?;
        let schema = v
            .get("schema")
            .and_then(|s| s.as_str())
            .unwrap_or("")
            .to_string();
        let n = match v.get("n") {
            None => 1,
            Some(n) => n
                .as_u64()
                .ok_or_else(|| "\"n\" must be a non-negative integer".to_string())?
                as usize,
        };
        if n == 0 || n > MAX_QUERIES_PER_REQUEST {
            return Err(format!("\"n\" must be in 1..={MAX_QUERIES_PER_REQUEST}"));
        }
        let seed = match v.get("seed") {
            None => 0,
            Some(s) => s
                .as_u64()
                .ok_or_else(|| "\"seed\" must be a non-negative integer".to_string())?,
        };
        let timeout_ms = match v.get("timeout_ms") {
            None => None,
            Some(t) => Some(
                t.as_u64()
                    .ok_or_else(|| "\"timeout_ms\" must be a non-negative integer".to_string())?,
            ),
        };
        let c = v
            .get("constraint")
            .ok_or_else(|| "missing \"constraint\" object".to_string())?;
        let metric = c
            .get("metric")
            .and_then(|m| m.as_str())
            .unwrap_or("cardinality");
        let num = |key: &str| -> Result<Option<f64>, String> {
            match c.get(key) {
                None => Ok(None),
                Some(x) => x
                    .as_f64()
                    .filter(|f| f.is_finite() && *f >= 0.0)
                    .map(Some)
                    .ok_or_else(|| format!("constraint \"{key}\" must be a finite number >= 0")),
            }
        };
        let target = match (num("point")?, num("min")?, num("max")?) {
            (Some(p), None, None) => Target::Point(p),
            (None, Some(lo), Some(hi)) if lo <= hi => Target::Range(lo, hi),
            (None, Some(_), Some(_)) => return Err("constraint min > max".to_string()),
            _ => {
                return Err(
                    "constraint needs either \"point\" or both \"min\" and \"max\"".to_string(),
                )
            }
        };
        let constraint = match metric {
            "cardinality" => match target {
                Target::Point(p) => Constraint::cardinality_point(p),
                Target::Range(lo, hi) => Constraint::cardinality_range(lo, hi),
            },
            "cost" => match target {
                Target::Point(p) => Constraint::cost_point(p),
                Target::Range(lo, hi) => Constraint::cost_range(lo, hi),
            },
            other => return Err(format!("unknown metric {other:?} (cardinality|cost)")),
        };
        Ok(GenRequest {
            schema,
            constraint,
            n,
            seed,
            timeout_ms,
        })
    }
}

/// One generated query in a response.
#[derive(Debug, Clone)]
pub struct ServedQuery {
    pub sql: String,
    pub measured: f64,
    pub satisfied: bool,
}

/// What a shard worker sends back for one request.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    pub queries: Vec<ServedQuery>,
    /// Episodes aborted by the request deadline (so `queries.len() +
    /// expired == n`).
    pub expired: usize,
    pub model_label: String,
    pub model_version: u64,
}

/// Where a finished [`RequestOutcome`] goes: an in-process caller parked
/// on a channel (tests), or an event-loop completion mailbox plus a
/// wakeup. Either way delivery never blocks; a receiver that already gave
/// up is skipped silently.
pub enum Responder {
    Channel(mpsc::SyncSender<RequestOutcome>),
    #[cfg(target_os = "linux")]
    Event(crate::event_loop::EventReply),
}

impl Responder {
    pub fn send(&self, outcome: RequestOutcome) {
        match self {
            Responder::Channel(tx) => {
                let _ = tx.try_send(outcome);
            }
            #[cfg(target_os = "linux")]
            Responder::Event(reply) => reply.deliver(outcome),
        }
    }
}

/// A request travelling through the admission queue.
pub struct GenTask {
    pub req: GenRequest,
    pub deadline: Option<Instant>,
    pub enqueued: Instant,
    pub reply: Responder,
    /// Request trace the shard worker attributes `queue_wait` / `batch_gather` /
    /// `lane_exec` spans to (opened by the HTTP layer, `None` untraced).
    pub trace: Option<Arc<RequestTrace>>,
}

/// The generation-side bundle for one database: action space, statistics,
/// FSM limits, model registry and result cache. Everything a window
/// needs; the HTTP layer only touches `registry` and `cache`.
pub struct Schema {
    pub name: String,
    pub vocab: Vocabulary,
    pub estimator: Estimator,
    pub fsm: FsmConfig,
    pub registry: ModelRegistry,
    /// Constraint-miss refinement engine shared by every window on this
    /// schema (deterministic local search + miss cache; DESIGN.md §12).
    pub refiner: Refiner,
    /// Rendered-response LRU keyed on `(model-version, seed, n,
    /// constraint)`; valid because responses are pure functions of that
    /// tuple. Cleared whenever the registry hot-swaps.
    pub cache: crate::cache::ResultCache,
}

impl Schema {
    /// Derives the action space and statistics from `db` exactly as
    /// `LearnedSqlGen::new` does — including the bootstrap policy weights —
    /// so an untrained server is bitwise-equivalent to an untrained
    /// generator with the same `GenConfig`.
    pub fn build(
        name: &str,
        db: &Database,
        config: &GenConfig,
        model_dir: Option<PathBuf>,
    ) -> Schema {
        let vocab = Vocabulary::build(db, &config.sample);
        let estimator = Estimator::build(db);
        let actor = match config.algorithm {
            Algorithm::Reinforce => Reinforce::new(vocab.size(), config.train.clone()).actor,
            Algorithm::ActorCritic => ActorCritic::new(vocab.size(), config.train.clone()).actor,
        };
        let registry = ModelRegistry::new(
            crate::registry::ServedModel {
                label: "builtin".to_string(),
                version: 0,
                actor,
                quant: None,
            },
            model_dir,
            vocab.size(),
            config.quantize,
        );
        if let Err(e) = registry.refresh() {
            sqlgen_obs::obs_warn!("[serve] schema {name}: no loadable checkpoint yet: {e}");
        }
        Schema {
            name: name.to_string(),
            vocab,
            estimator,
            fsm: config.fsm.clone(),
            registry,
            refiner: Refiner::new(config.refine.clone()),
            cache: crate::cache::ResultCache::new(64 * 1024 * 1024, 8, name),
        }
    }

    /// Installs trained weights from a generator (in-process publish path,
    /// used by `sqlgen serve --train` and tests).
    pub fn publish_actor(&self, label: &str, version: u64, actor: ActorNet) {
        assert_eq!(
            actor.vocab_size,
            self.vocab.size(),
            "published actor must match the schema vocabulary"
        );
        self.registry.publish(crate::registry::ServedModel {
            label: label.to_string(),
            version,
            actor,
            quant: None, // built by the registry when it quantizes
        });
    }
}

/// One request's slice of a window, decoupled from the task plumbing so
/// `run_window` stays pure (the fuzz harness calls it directly).
#[derive(Debug, Clone)]
pub struct WindowRequest {
    pub constraint: Constraint,
    pub n: usize,
    pub seed: u64,
    pub deadline: Option<Instant>,
    /// Trace handle whose parent is this request's `lane_exec` span; every
    /// job spawned for this request attributes its lane time there.
    pub trace: Option<TraceHandle>,
}

impl From<&GenRequest> for WindowRequest {
    fn from(req: &GenRequest) -> WindowRequest {
        WindowRequest {
            constraint: req.constraint,
            n: req.n,
            seed: req.seed,
            deadline: None,
            trace: None,
        }
    }
}

/// Episodes for one window request, in episode order.
pub struct WindowOutcome {
    pub episodes: Vec<Episode>,
    pub expired: usize,
}

/// Runs a gathered window on `lanes` lockstep lanes. Pure: the output for
/// request `i` depends only on (actor, vocab, estimator, fsm, refiner
/// config, `reqs[i]`) — not on `lanes` or on the other requests in the
/// window. Generic over the policy so windows run unchanged on the f32
/// actor or its int8 quantized snapshot.
///
/// With a refiner, missed constraints are repaired post-EOS by the
/// deterministic local search of `sqlgen_core::refine`, then — past the
/// search budget — by redrawing missed episode slots with seeds
/// `worker_seed(req.seed, req.n * (round + 1) + j)`, the same schedule
/// `LearnedSqlGen::generate_seeded` uses. Both stages are pure functions
/// of the request, so refined responses remain a pure function of
/// `(model-version, schema, seed, constraint)`.
pub fn run_window<A: InferActor>(
    actor: &A,
    vocab: &Vocabulary,
    estimator: &Estimator,
    fsm: &FsmConfig,
    reqs: &[WindowRequest],
    lanes: usize,
    refiner: Option<&Refiner>,
) -> Vec<WindowOutcome> {
    let envs: Vec<SqlGenEnv<'_>> = reqs
        .iter()
        .map(|r| SqlGenEnv::new(vocab, estimator, r.constraint).with_fsm_config(fsm.clone()))
        .collect();
    let mut jobs = Vec::new();
    for (ri, r) in reqs.iter().enumerate() {
        for j in 0..r.n {
            jobs.push(Job {
                env: &envs[ri],
                seed: worker_seed(r.seed, j),
                deadline: r.deadline,
                tag: (ri as u64) << 32 | j as u64,
                trace: r.trace.clone(),
            });
        }
    }
    // (request, episode)-indexed slots; `None` marks an expired job.
    let mut slots: Vec<Vec<Option<Episode>>> = reqs
        .iter()
        .map(|r| (0..r.n).map(|_| None).collect())
        .collect();
    for (tag, outcome) in run_jobs_batched(actor, jobs, lanes) {
        if let JobOutcome::Done(ep) = outcome {
            slots[(tag >> 32) as usize][(tag & 0xffff_ffff) as usize] = Some(*ep);
        }
    }
    if let Some(refiner) = refiner.filter(|r| r.enabled()) {
        // Local search per request, attributed to a `refine` span phase in
        // the request trace.
        for (ri, req_slots) in slots.iter_mut().enumerate() {
            let t0 = reqs[ri].trace.is_some().then(Instant::now);
            for ep in req_slots.iter_mut().flatten() {
                refiner.refine_episode(&envs[ri], ep);
            }
            if let (Some(t0), Some(handle)) = (t0, &reqs[ri].trace) {
                handle.accum("refine", t0.elapsed().as_nanos() as f64 / 1_000.0);
            }
        }
        // Fallback resampling, batched across the window per round; every
        // redraw is a fresh Job with a request-local seed, so co-tenants
        // still cannot perturb each other.
        for round in 0..refiner.config().resample_rounds {
            let mut jobs = Vec::new();
            for (ri, r) in reqs.iter().enumerate() {
                for (j, slot) in slots[ri].iter().enumerate() {
                    if slot.as_ref().is_some_and(|ep| !ep.satisfied) {
                        jobs.push(Job {
                            env: &envs[ri],
                            seed: worker_seed(r.seed, r.n * (round + 1) + j),
                            deadline: r.deadline,
                            tag: (ri as u64) << 32 | j as u64,
                            trace: r.trace.clone(),
                        });
                    }
                }
            }
            if jobs.is_empty() {
                break;
            }
            sqlgen_obs::obs_count!("refine.resampled", jobs.len() as u64);
            for (tag, outcome) in run_jobs_batched(actor, jobs, lanes) {
                let JobOutcome::Done(mut ep) = outcome else {
                    continue;
                };
                let ri = (tag >> 32) as usize;
                refiner.refine_episode(&envs[ri], &mut ep);
                if ep.satisfied {
                    slots[ri][(tag & 0xffff_ffff) as usize] = Some(*ep);
                }
            }
        }
    }
    slots
        .into_iter()
        .map(|req_slots| {
            let mut episodes = Vec::new();
            let mut expired = 0usize;
            for slot in req_slots {
                match slot {
                    Some(ep) => episodes.push(ep),
                    None => expired += 1,
                }
            }
            WindowOutcome { episodes, expired }
        })
        .collect()
}

/// Batcher knobs; `lanes` is the GEMM batch width, `max_wait` the window
/// gather deadline, `max_batch_jobs` the episode-count cap per window.
#[derive(Debug, Clone)]
pub struct BatcherConfig {
    pub lanes: usize,
    pub max_wait: Duration,
    pub max_batch_jobs: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        BatcherConfig {
            lanes: 8,
            max_wait: Duration::from_millis(5),
            max_batch_jobs: 64,
        }
    }
}

/// Executes one gathered window on `model`: trace-span tiling,
/// [`run_window`], and replies. The shard loop resolves `model` once per
/// `(schema, registry generation)` and reuses the `Arc` across windows, so
/// steady-state windows skip the registry `RwLock` entirely; it also owns
/// the registry refresh and the cache invalidation a hot swap needs.
pub fn run_window_tasks_with_model(
    schema: &Schema,
    model: &Arc<crate::registry::ServedModel>,
    tasks: Vec<(GenTask, Instant)>,
    cfg: &BatcherConfig,
) {
    let job_count: usize = tasks.iter().map(|(t, _)| t.req.n).sum();
    // One labeled series per (schema, batch_width); the lookup is a map
    // probe per window, invisible next to the window itself.
    let phase_labels = Labels::new()
        .with("schema", &schema.name)
        .with("batch_width", &cfg.lanes.to_string());
    let m = sqlgen_obs::metrics::global();
    let queue_wait_h = m.histogram_with("serve.phase.queue_wait_us", &phase_labels);
    let gather_h = m.histogram_with("serve.phase.gather_us", &phase_labels);
    let exec_h = m.histogram_with("serve.phase.exec_us", &phase_labels);
    let started = Instant::now();
    let reqs: Vec<WindowRequest> = tasks
        .iter()
        .map(|(t, popped)| {
            queue_wait_h.record_silent((*popped - t.enqueued).as_micros() as f64);
            gather_h.record_silent((started - *popped).as_micros() as f64);
            // queue_wait ends where batch_gather starts and batch_gather
            // ends where lane_exec starts, so the three phases tile the
            // request wall time without overlap. lane_exec stays open
            // until the window finishes; per-job `episode` spans parent
            // under it.
            let trace = t.trace.as_ref().map(|tr| {
                tr.span_between("queue_wait", ROOT_SPAN, t.enqueued, *popped);
                tr.span_between("batch_gather", ROOT_SPAN, *popped, started);
                let lane = tr.open_span("lane_exec", ROOT_SPAN, started);
                tr.annotate_str("schema", &schema.name);
                tr.annotate_str("model", &model.label);
                tr.annotate_num("model_version", model.version as f64);
                tr.annotate_num("window_requests", tasks.len() as f64);
                tr.annotate_num("window_jobs", job_count as f64);
                tr.annotate_num("batch_width", cfg.lanes as f64);
                TraceHandle {
                    trace: tr.clone(),
                    parent: lane,
                }
            });
            WindowRequest {
                constraint: t.req.constraint,
                n: t.req.n,
                seed: t.req.seed,
                deadline: t.deadline,
                trace,
            }
        })
        .collect();
    sqlgen_obs::obs_record!("serve.batch.requests", tasks.len() as f64);
    sqlgen_obs::obs_record!("serve.batch.jobs", job_count as f64);
    for (t, _) in &tasks {
        sqlgen_obs::obs_record!(
            "serve.queue.wait_us",
            (started - t.enqueued).as_micros() as f64
        );
    }
    // Windows run on the int8 snapshot when the registry quantizes.
    let outcomes = match &model.quant {
        Some(q) => run_window(
            q,
            &schema.vocab,
            &schema.estimator,
            &schema.fsm,
            &reqs,
            cfg.lanes,
            Some(&schema.refiner),
        ),
        None => run_window(
            &model.actor,
            &schema.vocab,
            &schema.estimator,
            &schema.fsm,
            &reqs,
            cfg.lanes,
            Some(&schema.refiner),
        ),
    };
    let window_end = Instant::now();
    sqlgen_obs::obs_record!(
        "serve.window.latency_us",
        (window_end - started).as_micros() as f64
    );
    for r in &reqs {
        if let Some(handle) = &r.trace {
            handle.trace.close_span(handle.parent, window_end);
        }
        exec_h.record_silent((window_end - started).as_micros() as f64);
    }
    for ((task, _), out) in tasks.into_iter().zip(outcomes) {
        let queries = out
            .episodes
            .iter()
            .map(|ep| ServedQuery {
                sql: render(&ep.statement),
                measured: ep.measured,
                satisfied: ep.satisfied,
            })
            .collect();
        task.reply.send(RequestOutcome {
            queries,
            expired: out.expired,
            model_label: model.label.clone(),
            model_version: model.version,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlgen_storage::gen::tpch_database;

    fn fixture() -> (Database, GenConfig) {
        (tpch_database(0.05, 2), GenConfig::fast().with_seed(11))
    }

    #[test]
    fn parses_point_and_range_requests() {
        let r = GenRequest::from_json(
            r#"{"schema":"tpch","constraint":{"metric":"cost","point":100},"n":4,"seed":9,"timeout_ms":250}"#,
        )
        .unwrap();
        assert_eq!(r.schema, "tpch");
        assert_eq!(r.constraint, Constraint::cost_point(100.0));
        assert_eq!((r.n, r.seed, r.timeout_ms), (4, 9, Some(250)));
        let r = GenRequest::from_json(r#"{"constraint":{"min":1,"max":500}}"#).unwrap();
        assert_eq!(r.constraint, Constraint::cardinality_range(1.0, 500.0));
        assert_eq!((r.n, r.seed, r.timeout_ms), (1, 0, None));
    }

    #[test]
    fn rejects_malformed_requests_with_messages() {
        for (body, needle) in [
            ("{", "invalid JSON"),
            (r#"{"n":1}"#, "constraint"),
            (r#"{"constraint":{"metric":"latency","point":1}}"#, "metric"),
            (r#"{"constraint":{"min":9,"max":1}}"#, "min > max"),
            (r#"{"constraint":{"point":-3}}"#, "finite number"),
            (r#"{"constraint":{"min":1}}"#, "point"),
            (r#"{"constraint":{"point":1},"n":0}"#, "\"n\""),
            (r#"{"constraint":{"point":1},"n":100000}"#, "\"n\""),
            (r#"{"constraint":{"point":1},"seed":-4}"#, "seed"),
        ] {
            let err = GenRequest::from_json(body).unwrap_err();
            assert!(err.contains(needle), "{body} → {err}");
        }
    }

    #[test]
    fn window_results_are_independent_of_co_tenants_and_lanes() {
        let (db, config) = fixture();
        let schema = Schema::build("t", &db, &config, None);
        let model = schema.registry.current();
        let a = WindowRequest {
            constraint: Constraint::cardinality_range(1.0, 500.0),
            n: 3,
            seed: 41,
            deadline: None,
            trace: None,
        };
        let b = WindowRequest {
            constraint: Constraint::cardinality_point(50.0),
            n: 2,
            seed: 99,
            deadline: None,
            trace: None,
        };
        let solo = run_window(
            &model.actor,
            &schema.vocab,
            &schema.estimator,
            &schema.fsm,
            std::slice::from_ref(&a),
            1,
            None,
        );
        let coalesced = run_window(
            &model.actor,
            &schema.vocab,
            &schema.estimator,
            &schema.fsm,
            &[b.clone(), a.clone()],
            8,
            None,
        );
        let solo_eps = &solo[0].episodes;
        let shared_eps = &coalesced[1].episodes;
        assert_eq!(solo_eps.len(), 3);
        assert_eq!(shared_eps.len(), 3);
        for (x, y) in solo_eps.iter().zip(shared_eps) {
            assert_eq!(x.actions, y.actions);
            assert_eq!(x.measured.to_bits(), y.measured.to_bits());
        }
        assert_eq!(coalesced[0].episodes.len(), 2);
    }

    /// With refinement (and its resample fallback) engaged, a request's
    /// refined response must still be independent of lane width and
    /// co-tenant requests — the serving purity contract.
    #[test]
    fn refined_windows_remain_pure_functions_of_the_request() {
        let (db, config) = fixture();
        let schema = Schema::build("t", &db, &config, None);
        assert!(schema.refiner.enabled());
        let model = schema.registry.current();
        // Tight band → the untrained policy misses often → refinement runs.
        let a = WindowRequest {
            constraint: Constraint::cardinality_range(40.0, 60.0),
            n: 4,
            seed: 7,
            deadline: None,
            trace: None,
        };
        let b = WindowRequest {
            constraint: Constraint::cardinality_point(25.0),
            n: 2,
            seed: 3,
            deadline: None,
            trace: None,
        };
        let solo = run_window(
            &model.actor,
            &schema.vocab,
            &schema.estimator,
            &schema.fsm,
            std::slice::from_ref(&a),
            1,
            Some(&schema.refiner),
        );
        let coalesced = run_window(
            &model.actor,
            &schema.vocab,
            &schema.estimator,
            &schema.fsm,
            &[b, a.clone()],
            8,
            Some(&schema.refiner),
        );
        assert_eq!(solo[0].episodes.len(), 4);
        assert_eq!(coalesced[1].episodes.len(), 4);
        for (x, y) in solo[0].episodes.iter().zip(&coalesced[1].episodes) {
            assert_eq!(render(&x.statement), render(&y.statement));
            assert_eq!(x.measured.to_bits(), y.measured.to_bits());
            assert_eq!(x.satisfied, y.satisfied);
        }
    }

    #[test]
    fn quantized_schema_windows_run_on_the_int8_snapshot() {
        let (db, config) = fixture();
        let schema = Schema::build("t", &db, &config.with_quantize(true), None);
        assert!(schema.registry.quantized());
        let model = schema.registry.current();
        let q = model.quant.as_ref().expect("quantized registry");
        let req = WindowRequest {
            constraint: Constraint::cardinality_range(1.0, 500.0),
            n: 3,
            seed: 41,
            deadline: None,
            trace: None,
        };
        let narrow = run_window(
            q,
            &schema.vocab,
            &schema.estimator,
            &schema.fsm,
            std::slice::from_ref(&req),
            1,
            Some(&schema.refiner),
        );
        let wide = run_window(
            q,
            &schema.vocab,
            &schema.estimator,
            &schema.fsm,
            std::slice::from_ref(&req),
            8,
            Some(&schema.refiner),
        );
        assert_eq!(narrow[0].episodes.len(), 3);
        // The purity contract holds on the int8 path too: results are
        // independent of the lane width.
        for (x, y) in narrow[0].episodes.iter().zip(&wide[0].episodes) {
            assert_eq!(x.actions, y.actions);
            assert_eq!(x.measured.to_bits(), y.measured.to_bits());
        }
    }
}
