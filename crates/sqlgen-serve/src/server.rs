//! The HTTP server: configuration, routing, admission control and
//! graceful shutdown.
//!
//! Connections are served by the epoll backend in [`crate::event_loop`]
//! (thread layout there); generation runs on the shard workers of
//! [`crate::shard`]. `route` is the one request handler: scrape
//! endpoints answer inline, and `POST /generate` goes through admission —
//! parse → schema → result cache → [`ShardPool::try_push`] — which either
//! answers at once (4xx, 429 on a full shard queue, 503 while draining, or
//! a cached body) or hands the task to a shard.
//!
//! Shutdown (`ServerHandle::shutdown`) drains rather than aborts: the
//! listener stops accepting, `/healthz` flips to 503, every shard queue
//! closes (new `/generate` → 503) while already-admitted tasks run to
//! completion, and in-flight HTTP exchanges finish with
//! `Connection: close`.

use crate::batcher::{GenRequest, GenTask, RequestOutcome, Responder, Schema};
use crate::cache::CacheKey;
use crate::http::{Limits, Response};
use crate::queue::PushError;
use crate::shard::ShardPool;
use sqlgen_obs::{Labels, RequestTrace, TraceContext, TraceStore, TraceStoreConfig};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server knobs; the CLI exposes the first three as
/// `--addr --batch --max-queue`.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Lockstep GEMM lanes per generation window.
    pub batch: usize,
    /// Admission queue capacity per shard; beyond it requests get 429.
    pub max_queue: usize,
    /// How long a shard worker waits to coalesce a window.
    pub max_wait_ms: u64,
    /// Episode-count cap per window.
    pub max_batch_jobs: usize,
    /// Idle keep-alive and slow-request cap per connection.
    pub read_timeout_ms: u64,
    /// Write-progress cap per connection.
    pub write_timeout_ms: u64,
    /// Value of the `Retry-After` header on 429.
    pub retry_after_s: u64,
    /// Generation deadline when the request has no `timeout_ms`.
    pub default_timeout_ms: u64,
    pub limits: Limits,
    /// Completed-trace ring capacity (see [`TraceStoreConfig`]).
    pub trace_capacity: usize,
    /// Percent of ordinary (non-error, non-slow) traces retained.
    pub trace_sample_pct: u64,
    /// Event-loop threads (`--event-threads`).
    pub event_threads: usize,
    /// Shard workers behind the consistent-hash router (`--shards`).
    pub shards: usize,
    /// Result-cache budget in MiB per schema (`--cache-mb`; 0 disables).
    pub cache_mb: usize,
    /// Pin shard workers to CPUs round-robin (`--pin-cpus`).
    pub pin_cpus: bool,
    /// Kernel send-buffer cap per connection; `None` keeps the OS
    /// default. Tests shrink it to force partial writes.
    pub sndbuf: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8080".to_string(),
            batch: 8,
            max_queue: 64,
            max_wait_ms: 5,
            max_batch_jobs: 64,
            read_timeout_ms: 5_000,
            write_timeout_ms: 5_000,
            retry_after_s: 1,
            default_timeout_ms: 30_000,
            limits: Limits::default(),
            trace_capacity: 512,
            trace_sample_pct: 10,
            event_threads: 2,
            shards: 1,
            cache_mb: 64,
            pin_cpus: false,
            sndbuf: None,
        }
    }
}

pub(crate) struct ServerState {
    pub(crate) schemas: Vec<Arc<Schema>>,
    pub(crate) draining: AtomicBool,
    pub(crate) config: ServeConfig,
    /// Tail-sampled ring of completed request traces (`/debug/traces`).
    pub(crate) traces: Arc<TraceStore>,
    /// Shard queues every admitted `/generate` lands on. Workers are
    /// spawned when the backend starts, so a state that was never
    /// launched only queues.
    pub(crate) pool: Arc<ShardPool>,
}

impl ServerState {
    pub(crate) fn new(config: ServeConfig, schemas: Vec<Schema>) -> ServerState {
        assert!(!schemas.is_empty(), "serve() needs at least one schema");
        let schemas: Vec<Arc<Schema>> = schemas.into_iter().map(Arc::new).collect();
        for schema in &schemas {
            schema.cache.set_budget(config.cache_mb * 1024 * 1024);
        }
        ServerState {
            schemas,
            draining: AtomicBool::new(false),
            traces: Arc::new(TraceStore::new(TraceStoreConfig {
                capacity: config.trace_capacity.max(1),
                sample_pct: config.trace_sample_pct,
                ..TraceStoreConfig::default()
            })),
            pool: Arc::new(ShardPool::new(config.shards.max(1), config.max_queue)),
            config,
        }
    }
}

/// A running server. Dropping the handle leaks the threads; call
/// [`ServerHandle::shutdown`] to drain and join them.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    #[cfg(target_os = "linux")]
    backend: crate::event_loop::EventBackend,
}

impl ServerHandle {
    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Direct handle to a schema (tests and the in-process publish path).
    pub fn schema(&self, name: &str) -> Option<Arc<Schema>> {
        self.state.schemas.iter().find(|s| s.name == name).cloned()
    }

    /// Total admitted-but-unstarted tasks across the shard queues (bench
    /// queue-depth sampling).
    pub fn queue_depth(&self) -> usize {
        self.state.pool.depth()
    }

    /// Owned queue-depth sampler: a closure the bench can move into a
    /// monitoring thread while the handle itself stays on the driver
    /// thread. Same accounting as [`ServerHandle::queue_depth`].
    pub fn depth_probe(&self) -> Box<dyn Fn() -> usize + Send + Sync> {
        let pool = self.state.pool.clone();
        Box::new(move || pool.depth())
    }

    /// `(hits, misses, evictions)` summed over every schema's result
    /// cache.
    pub fn cache_stats(&self) -> (u64, u64, u64) {
        let mut total = (0, 0, 0);
        for s in &self.state.schemas {
            let (h, m, e) = s.cache.stats();
            total = (total.0 + h, total.1 + m, total.2 + e);
        }
        total
    }

    /// Graceful drain: stop accepting, finish in-flight work, join all
    /// threads.
    pub fn shutdown(self) {
        self.state.draining.store(true, Ordering::SeqCst);
        #[cfg(target_os = "linux")]
        self.backend.shutdown(&self.state.pool);
    }
}

/// Binds, spawns the event loops and shard workers, and returns
/// immediately.
#[cfg(target_os = "linux")]
pub fn serve(config: ServeConfig, schemas: Vec<Schema>) -> std::io::Result<ServerHandle> {
    let listener = std::net::TcpListener::bind(&config.addr)?;
    launch(listener, Arc::new(ServerState::new(config, schemas)))
}

/// The server runs on an epoll event loop, so it needs Linux.
#[cfg(not(target_os = "linux"))]
pub fn serve(_config: ServeConfig, _schemas: Vec<Schema>) -> std::io::Result<ServerHandle> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "sqlgen serve needs Linux: its event loop is built on epoll",
    ))
}

/// Starts the backend on a bound listener and a built state (tests admit
/// work into `state` before launching it).
#[cfg(target_os = "linux")]
pub(crate) fn launch(
    listener: std::net::TcpListener,
    state: Arc<ServerState>,
) -> std::io::Result<ServerHandle> {
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let backend = crate::event_loop::start(listener, state.clone())?;
    sqlgen_obs::obs_info!(
        "[serve] listening on {addr} ({} loops, {} shards, batch {}, cache {} MiB, {} schemas)",
        state.config.event_threads.max(1),
        state.pool.len(),
        state.config.batch.max(1),
        state.config.cache_mb,
        state.schemas.len()
    );
    Ok(ServerHandle {
        addr,
        state,
        backend,
    })
}

/// Trace-header echo, trace offer, and per-endpoint request metrics —
/// everything a response needs on its way out.
pub(crate) fn finalize_response(
    state: &ServerState,
    endpoint: &'static str,
    started: Instant,
    ctx: TraceContext,
    trace: Option<Arc<RequestTrace>>,
    mut resp: Response,
) -> Response {
    // The response's own span is the trace root.
    let echo = TraceContext {
        trace_id: ctx.trace_id,
        parent_span: sqlgen_obs::trace::ROOT_SPAN,
    };
    resp = resp
        .with_header("x-request-id", echo.request_id())
        .with_header("traceparent", echo.render_traceparent());
    if let Some(trace) = trace {
        state.traces.offer(trace.finish(resp.status));
    }
    sqlgen_obs::obs_count!("serve.http.requests.count");
    let labels = Labels::new()
        .with("endpoint", endpoint)
        .with("status", &resp.status.to_string());
    let m = sqlgen_obs::metrics::global();
    m.counter_with("serve.http.requests", &labels).inc(1);
    m.histogram_with("serve.http.latency_us", &labels)
        .record(started.elapsed().as_micros() as f64);
    resp
}

/// Metric label for the per-endpoint latency series.
pub(crate) fn endpoint_label(path: &str) -> &'static str {
    let path = path.split('?').next().unwrap_or("");
    if path.starts_with("/debug/") {
        return "debug";
    }
    match path {
        "/generate" => "generate",
        "/healthz" => "healthz",
        "/metrics" => "metrics",
        "/models" | "/models/reload" => "models",
        _ => "other",
    }
}

/// What [`route`] made of a request.
pub(crate) enum Routed {
    /// Answered without generation.
    Respond(Response),
    /// Admitted to a shard queue; the outcome arrives through the
    /// responder handed to [`route`] and becomes a response via
    /// [`complete_generate`].
    Queued(Admitted),
}

/// A `/generate` waiting on its shard.
pub(crate) struct Admitted {
    pub(crate) req: GenRequest,
    pub(crate) schema: Arc<Schema>,
    /// When the caller stops waiting and answers 504.
    pub(crate) reply_deadline: Instant,
}

/// Handles one request. `reply` is where a queued `/generate` delivers
/// its outcome; every other request drops it unused.
pub(crate) fn route(
    state: &ServerState,
    method: &str,
    path: &str,
    body: &[u8],
    trace: Option<&Arc<RequestTrace>>,
    reply: Responder,
) -> Routed {
    let path = path.split('?').next().unwrap_or("");
    let resp = match (method, path) {
        ("POST", "/generate") => return admit_generate(state, body, trace, reply),
        ("GET", "/healthz") => {
            if state.draining.load(Ordering::SeqCst) {
                Response::json(503, r#"{"status":"draining"}"#.to_string())
            } else {
                Response::json(
                    200,
                    format!(r#"{{"status":"ok","schemas":{}}}"#, state.schemas.len()),
                )
            }
        }
        ("GET", "/metrics") => Response::text(200, sqlgen_obs::metrics::render_text()),
        ("GET", "/models") => Response::json(200, models_json(state)),
        ("GET", "/debug/traces") => {
            Response::json(200, traces_json(&state.traces, state.traces.recent(32)))
        }
        ("GET", "/debug/slowest") => {
            Response::json(200, traces_json(&state.traces, state.traces.slowest(16)))
        }
        ("GET", p) if p.starts_with("/debug/traces/") => {
            let id = p.strip_prefix("/debug/traces/").unwrap_or("");
            match TraceContext::parse_request_id(id) {
                None => Response::error(400, "trace id must be 32 hex characters"),
                Some(id) => match state.traces.get(id) {
                    Some(t) => Response::json(200, t.to_json().to_string()),
                    None => Response::error(404, "trace not found (evicted or not sampled)"),
                },
            }
        }
        ("POST", "/models/reload") => reload(state),
        (_, "/healthz" | "/metrics" | "/models" | "/models/reload" | "/generate") => {
            Response::error(405, "method not allowed")
        }
        (_, p) if p.starts_with("/debug/") => Response::error(405, "method not allowed"),
        _ => Response::error(404, "no such endpoint"),
    };
    Routed::Respond(resp)
}

/// Summary listing for `/debug/traces` and `/debug/slowest`, with the
/// store's sampling stats alongside.
fn traces_json(store: &TraceStore, traces: Vec<Arc<sqlgen_obs::FinishedTrace>>) -> String {
    let (offered, retained, held) = store.stats();
    let entries: Vec<String> = traces
        .iter()
        .map(|t| t.summary_json().to_string())
        .collect();
    format!(
        r#"{{"offered":{offered},"retained":{retained},"held":{held},"traces":[{}]}}"#,
        entries.join(",")
    )
}

fn models_json(state: &ServerState) -> String {
    let entries: Vec<String> = state
        .schemas
        .iter()
        .map(|s| {
            let m = s.registry.current();
            let (hits, misses, evictions) = s.cache.stats();
            // The shard queue admission would route this schema to now.
            let queue = &state
                .pool
                .shard_for(&s.name, s.registry.version_hint())
                .queue;
            format!(
                r#"{{"name":{},"model":{},"version":{},"quantized":{},"queue_depth":{},"queue_capacity":{},"cache":{{"entries":{},"bytes":{},"hits":{hits},"misses":{misses},"evictions":{evictions}}}}}"#,
                json_str(&s.name),
                json_str(&m.label),
                m.version,
                m.quant.is_some(),
                queue.len(),
                queue.capacity(),
                s.cache.len(),
                s.cache.bytes()
            )
        })
        .collect();
    format!(r#"{{"schemas":[{}]}}"#, entries.join(","))
}

fn reload(state: &ServerState) -> Response {
    let mut entries = Vec::new();
    for s in &state.schemas {
        let entry = match s.registry.refresh() {
            Ok(swapped) => {
                if swapped {
                    // Version-keyed entries are already unreachable; this
                    // just frees their bytes immediately.
                    s.cache.clear();
                }
                let m = s.registry.current();
                format!(
                    r#"{{"name":{},"swapped":{},"model":{},"version":{}}}"#,
                    json_str(&s.name),
                    swapped,
                    json_str(&m.label),
                    m.version
                )
            }
            Err(e) => format!(
                r#"{{"name":{},"swapped":false,"error":{}}}"#,
                json_str(&s.name),
                json_str(&e.to_string())
            ),
        };
        entries.push(entry);
    }
    Response::json(200, format!(r#"{{"schemas":[{}]}}"#, entries.join(",")))
}

/// Admission for `/generate`: parse → schema → result cache → shard
/// queue. Full queues answer 429 with `Retry-After`; closed ones (drain)
/// answer 503.
fn admit_generate(
    state: &ServerState,
    body: &[u8],
    trace: Option<&Arc<RequestTrace>>,
    reply: Responder,
) -> Routed {
    let Ok(text) = std::str::from_utf8(body) else {
        return Routed::Respond(Response::error(400, "body is not utf-8"));
    };
    let req = match GenRequest::from_json(text) {
        Ok(req) => req,
        Err(e) => return Routed::Respond(Response::error(400, &e)),
    };
    if let Some(tr) = trace {
        tr.annotate_num("n", req.n as f64);
        tr.annotate_num("seed", req.seed as f64);
    }
    let Some(schema) = (if req.schema.is_empty() {
        state.schemas.first().cloned()
    } else {
        state.schemas.iter().find(|s| s.name == req.schema).cloned()
    }) else {
        let msg = format!("unknown schema {:?}", req.schema);
        return Routed::Respond(Response::error(404, &msg));
    };

    // Responses are pure functions of (model-version, schema, seed,
    // constraint, n), so a cached body is the same bytes a fresh rollout
    // would produce — and a hit never touches a queue.
    let key = CacheKey::for_request(&req, schema.registry.current().version);
    if let Some(body) = schema.cache.get(&key) {
        if let Some(tr) = trace {
            tr.annotate_str("cache", "hit");
        }
        return Routed::Respond(Response::json(200, body.as_ref().clone()));
    }
    if let Some(tr) = trace {
        tr.annotate_str("cache", "miss");
    }

    let now = Instant::now();
    // `timeout_ms: 0` is honoured as an already-expired deadline — useful
    // for probing the expiry path deterministically.
    let timeout = Duration::from_millis(req.timeout_ms.unwrap_or(state.config.default_timeout_ms));
    let deadline = now + timeout;
    let task = GenTask {
        req: req.clone(),
        deadline: Some(deadline),
        enqueued: now,
        reply,
        trace: trace.cloned(),
    };
    match state.pool.try_push(&schema, task) {
        Err((PushError::Full, _)) => Routed::Respond(
            Response::error(429, "queue full; retry later")
                .with_header("retry-after", state.config.retry_after_s.to_string()),
        ),
        Err((PushError::Closed, _)) => {
            Routed::Respond(Response::error(503, "server is shutting down"))
        }
        // Lanes abort expired jobs at `deadline`; the grace term covers
        // window gather time plus the final lockstep iteration.
        Ok(()) => Routed::Queued(Admitted {
            req,
            schema,
            reply_deadline: deadline + Duration::from_millis(state.config.max_wait_ms + 2_000),
        }),
    }
}

/// Turns a shard's outcome for an admitted request into its response,
/// caching fully finished bodies.
pub(crate) fn complete_generate(admitted: &Admitted, out: &RequestOutcome) -> Response {
    if out.queries.is_empty() && out.expired > 0 {
        sqlgen_obs::obs_count!("serve.timeout.count");
        return Response::error(504, "deadline expired before any query finished");
    }
    let body = outcome_json(&admitted.schema.name, &admitted.req, out);
    // Only fully-finished responses are pure functions of the key (expiry
    // depends on the wall clock); key on the version that actually ran,
    // which can differ from the admission-time version across a hot swap.
    if out.expired == 0 {
        admitted.schema.cache.put(
            CacheKey::for_request(&admitted.req, out.model_version),
            Arc::new(body.clone()),
        );
    }
    Response::json(200, body)
}

/// Renders the `/generate` 200 body. Pub for the cache-equivalence fuzz
/// family, which must compare cached bytes against a fresh rendering.
pub fn outcome_json(schema: &str, req: &GenRequest, out: &RequestOutcome) -> String {
    let queries: Vec<String> = out
        .queries
        .iter()
        .map(|q| {
            format!(
                r#"{{"sql":{},"measured":{},"satisfied":{}}}"#,
                json_str(&q.sql),
                json_num(q.measured),
                q.satisfied
            )
        })
        .collect();
    format!(
        r#"{{"schema":{},"model":{},"model_version":{},"seed":{},"n":{},"expired":{},"queries":[{}]}}"#,
        json_str(schema),
        json_str(&out.model_label),
        out.model_version,
        req.seed,
        req.n,
        out.expired,
        queries.join(",")
    )
}

/// JSON string literal (quoted + escaped) via the vendored serde_json
/// `Value` renderer, so escaping rules live in one place.
fn json_str(s: &str) -> String {
    serde_json::Value::String(s.to_string()).to_string()
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

// Route-level tests drive `route()` on a state whose shard workers never
// started (no sockets, no generation), so admission is deterministic: the
// shard queue is exactly as full as the test made it.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::ServedQuery;
    use sqlgen_core::{Constraint, GenConfig};
    use sqlgen_storage::gen::tpch_database;
    use std::sync::mpsc;

    const GEN_BODY: &[u8] = br#"{"constraint":{"min":1,"max":500},"n":2}"#;

    fn test_state(queue_cap: usize) -> ServerState {
        let db = tpch_database(0.05, 2);
        let config = GenConfig::fast().with_seed(11);
        let schema = Schema::build("tpch", &db, &config, None);
        let config = ServeConfig {
            max_queue: queue_cap,
            ..ServeConfig::default()
        };
        ServerState::new(config, vec![schema])
    }

    /// Routes with a channel responder; the receiver gets the outcome if
    /// the request was queued and a worker ran it.
    fn call(
        state: &ServerState,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> (Routed, mpsc::Receiver<RequestOutcome>) {
        let (tx, rx) = mpsc::sync_channel(1);
        (
            route(state, method, path, body, None, Responder::Channel(tx)),
            rx,
        )
    }

    /// The immediate response; panics if the request was queued instead.
    fn respond(state: &ServerState, method: &str, path: &str, body: &[u8]) -> Response {
        match call(state, method, path, body).0 {
            Routed::Respond(resp) => resp,
            Routed::Queued(a) => panic!("{method} {path} was queued for {:?}", a.req),
        }
    }

    fn admit(state: &ServerState, body: &[u8]) -> mpsc::Receiver<RequestOutcome> {
        match call(state, "POST", "/generate", body) {
            (Routed::Queued(_), rx) => rx,
            (Routed::Respond(resp), _) => panic!("not admitted: {} {}", resp.status, resp.body),
        }
    }

    fn models_entry(state: &ServerState) -> serde_json::Value {
        let models = respond(state, "GET", "/models", b"");
        assert_eq!(models.status, 200);
        let v = serde_json::from_str::<serde_json::Value>(&models.body).unwrap();
        v.get("schemas").unwrap().as_array().unwrap()[0].clone()
    }

    #[test]
    fn unknown_paths_and_methods_get_404_and_405() {
        let state = test_state(4);
        assert_eq!(respond(&state, "GET", "/nope", b"").status, 404);
        assert_eq!(respond(&state, "DELETE", "/generate", b"").status, 405);
        assert_eq!(respond(&state, "POST", "/healthz", b"").status, 405);
    }

    #[test]
    fn healthz_flips_to_503_while_draining() {
        let state = test_state(4);
        assert_eq!(respond(&state, "GET", "/healthz", b"").status, 200);
        state.draining.store(true, Ordering::SeqCst);
        let resp = respond(&state, "GET", "/healthz", b"");
        assert_eq!(resp.status, 503);
        assert!(resp.body.contains("draining"));
    }

    #[test]
    fn generate_validates_body_and_schema() {
        let state = test_state(4);
        let post = |body: &[u8]| respond(&state, "POST", "/generate", body).status;
        assert_eq!(post(b"not json"), 400);
        assert_eq!(post(&[0xff, 0xfe]), 400);
        assert_eq!(post(br#"{"constraint":{"point":1},"n":0}"#), 400);
        assert_eq!(post(br#"{"schema":"nope","constraint":{"point":1}}"#), 404);
        // Nothing was admitted along the way.
        assert_eq!(state.pool.depth(), 0);
    }

    #[test]
    fn full_queue_gets_429_with_retry_after() {
        let state = test_state(2);
        let _rxs = [admit(&state, GEN_BODY), admit(&state, GEN_BODY)];
        let resp = respond(&state, "POST", "/generate", GEN_BODY);
        assert_eq!(resp.status, 429);
        assert!(resp
            .headers
            .iter()
            .any(|(name, value)| name == "retry-after" && value == "1"));
        assert_eq!(state.pool.depth(), 2);
    }

    #[test]
    fn closed_queue_gets_503() {
        let state = test_state(4);
        state.pool.close();
        assert_eq!(respond(&state, "POST", "/generate", GEN_BODY).status, 503);
    }

    #[test]
    fn cache_hits_are_answered_without_admission() {
        let state = test_state(1);
        let req = GenRequest::from_json(std::str::from_utf8(GEN_BODY).unwrap()).unwrap();
        let schema = &state.schemas[0];
        let key = CacheKey::for_request(&req, schema.registry.current().version);
        schema.cache.put(key, Arc::new("cached".to_string()));
        // Twice over a one-slot queue: hits never take a slot.
        for _ in 0..2 {
            let resp = respond(&state, "POST", "/generate", GEN_BODY);
            assert_eq!((resp.status, resp.body.as_str()), (200, "cached"));
        }
        assert_eq!(state.pool.depth(), 0);
    }

    #[test]
    fn models_reports_the_admitting_shard_queue() {
        const CAP: usize = 3;
        let state = test_state(CAP);
        let entry = models_entry(&state);
        assert_eq!(entry.get("queue_depth").unwrap().as_u64(), Some(0));
        assert_eq!(
            entry.get("queue_capacity").unwrap().as_u64(),
            Some(CAP as u64)
        );
        let mut rxs = Vec::new();
        for n in 1..=CAP {
            rxs.push(admit(&state, GEN_BODY));
            let entry = models_entry(&state);
            assert_eq!(entry.get("queue_depth").unwrap().as_u64(), Some(n as u64));
        }
        assert_eq!(respond(&state, "POST", "/generate", GEN_BODY).status, 429);
        let entry = models_entry(&state);
        assert_eq!(entry.get("queue_depth").unwrap().as_u64(), Some(CAP as u64));
    }

    #[test]
    fn metrics_label_shard_queue_depth_by_shard() {
        let state = test_state(4);
        let _rx = admit(&state, GEN_BODY);
        let metrics = respond(&state, "GET", "/metrics", b"");
        assert_eq!(metrics.status, 200);
        sqlgen_obs::validate_exposition(&metrics.body).expect("exposition-valid /metrics");
        assert!(
            metrics.body.contains(r#"serve_queue_depth{shard="0"}"#),
            "{}",
            metrics.body
        );
        assert!(
            !metrics.body.contains(r#"schema="shard0""#),
            "{}",
            metrics.body
        );
    }

    #[test]
    fn models_and_metrics_render() {
        let state = test_state(4);
        let entry = models_entry(&state);
        assert_eq!(entry.get("name").unwrap().as_str(), Some("tpch"));
        assert_eq!(entry.get("model").unwrap().as_str(), Some("builtin"));
        assert_eq!(entry.get("quantized").unwrap().as_bool(), Some(false));
        assert_eq!(respond(&state, "GET", "/metrics", b"").status, 200);
        assert_eq!(respond(&state, "POST", "/models/reload", b"").status, 200);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn graceful_shutdown_drains_queued_work_and_closes_listener() {
        let state = Arc::new(test_state(64));
        // Admitted before the backend even starts, so every task is in a
        // shard queue when shutdown begins.
        let rxs: Vec<_> = (0..6u64)
            .map(|seed| {
                let body = format!(r#"{{"constraint":{{"min":1,"max":500}},"n":2,"seed":{seed}}}"#);
                admit(&state, body.as_bytes())
            })
            .collect();
        assert_eq!(state.pool.depth(), rxs.len());
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let server = launch(listener, state.clone()).unwrap();
        let addr = server.addr();
        server.shutdown();
        // Drain, not abort: shard workers joined after answering all of it.
        for rx in rxs {
            let out = rx.try_recv().expect("queued task answered before join");
            assert_eq!(out.queries.len() + out.expired, 2);
        }
        assert_eq!(state.pool.depth(), 0);
        // New work is refused and the listener is gone.
        assert_eq!(respond(&state, "POST", "/generate", GEN_BODY).status, 503);
        assert_eq!(respond(&state, "GET", "/healthz", b"").status, 503);
        assert!(
            std::net::TcpStream::connect(addr).is_err(),
            "listener still open after shutdown"
        );
    }

    #[test]
    fn outcome_json_escapes_sql() {
        let out = RequestOutcome {
            queries: vec![ServedQuery {
                sql: "SELECT \"x\"".to_string(),
                measured: 12.5,
                satisfied: true,
            }],
            expired: 1,
            model_label: "builtin".to_string(),
            model_version: 3,
        };
        let req = GenRequest {
            schema: String::new(),
            constraint: Constraint::cardinality_point(1.0),
            n: 2,
            seed: 7,
            timeout_ms: None,
        };
        let body = outcome_json("tpch", &req, &out);
        let v = serde_json::from_str::<serde_json::Value>(&body).unwrap();
        assert_eq!(
            v.get("queries").unwrap().as_array().unwrap()[0]
                .get("sql")
                .unwrap()
                .as_str(),
            Some("SELECT \"x\"")
        );
        assert_eq!(v.get("expired").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("model_version").unwrap().as_u64(), Some(3));
    }
}
