//! Request-scoped tracing: trace ids, span trees and a tail-sampled store.
//!
//! The serving pipeline (`sqlgen-serve`) hands a request across threads —
//! event loop → shard queue → shard worker (lockstep lanes) → event loop —
//! so the usual thread-local span stack ([`crate::span`]) cannot attribute
//! a single request's latency. This module provides the cross-thread
//! alternative:
//!
//! - [`TraceContext`] — a 128-bit trace id + 64-bit span id, parsed from a
//!   W3C `traceparent`-style header (`00-<32 hex>-<16 hex>-<2 hex>`) or an
//!   inbound `X-Request-Id`, minted fresh otherwise, and echoed back on
//!   every response.
//! - [`RequestTrace`] — a shared (Arc + mutex) span-tree builder every
//!   pipeline stage appends to: explicit `queue_wait` / `batch_gather` /
//!   `lane_exec` phases plus accumulated `estimator` / `refill` /
//!   per-episode timings from inside the lanes.
//! - [`TraceStore`] — a bounded in-memory ring of [`FinishedTrace`]s with
//!   **tail-based sampling**: error responses (status ≥ 400, including
//!   504 deadline expiries) and slowest-decile traces are always retained,
//!   the rest are kept with a small deterministic probability. Backs the
//!   `/debug/traces`, `/debug/traces/<id>` and `/debug/slowest` endpoints.
//!
//! Everything here is std-only and allocation-light: one `Arc` + mutex per
//! traced request, and stages that hold no trace pay a single `Option`
//! check.

use serde_json::{Map, Number, Value};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Span id of the root (`request`) span in every [`RequestTrace`].
pub const ROOT_SPAN: u64 = 1;

// ---------------------------------------------------------------------------
// Ids and the traceparent header
// ---------------------------------------------------------------------------

/// splitmix64 — the id mixer (also used for sampling decisions).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A propagated trace identity: who this request is, across services.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// 128-bit trace id (the `X-Request-Id`); never zero.
    pub trace_id: u128,
    /// Span id of the caller's span (zero when this process is the root).
    pub parent_span: u64,
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

impl TraceContext {
    /// Mints a fresh context: wall-clock nanos mixed with a process-wide
    /// counter, so ids are unique within and across processes in practice.
    pub fn fresh() -> TraceContext {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let seq = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let hi = splitmix64(nanos ^ seq.rotate_left(32));
        let lo = splitmix64(seq.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ nanos);
        let trace_id = ((hi as u128) << 64 | lo as u128).max(1);
        TraceContext {
            trace_id,
            parent_span: 0,
        }
    }

    /// Parses a W3C-style `traceparent` header:
    /// `00-<32 hex trace id>-<16 hex span id>-<2 hex flags>`.
    ///
    /// Strict by design — anything malformed (wrong length, wrong
    /// separators, non-hex including `+`/`-` signs, embedded NUL, all-zero
    /// trace id) yields `None` and the caller mints a fresh context. Never
    /// panics on hostile input (the `trace-header` fuzz family).
    pub fn parse_traceparent(header: &str) -> Option<TraceContext> {
        let b = header.as_bytes();
        if b.len() != 55 {
            return None;
        }
        if b[2] != b'-' || b[35] != b'-' || b[52] != b'-' {
            return None;
        }
        let version = &header[0..2];
        let trace_hex = &header[3..35];
        let span_hex = &header[36..52];
        let flags_hex = &header[53..55];
        for part in [version, trace_hex, span_hex, flags_hex] {
            if !part.bytes().all(|c| c.is_ascii_hexdigit()) {
                return None;
            }
        }
        // Version ff is reserved-invalid per the spec.
        if version.eq_ignore_ascii_case("ff") {
            return None;
        }
        let trace_id = u128::from_str_radix(trace_hex, 16).ok()?;
        let parent_span = u64::from_str_radix(span_hex, 16).ok()?;
        u8::from_str_radix(flags_hex, 16).ok()?;
        if trace_id == 0 {
            return None;
        }
        Some(TraceContext {
            trace_id,
            parent_span,
        })
    }

    /// Parses an `X-Request-Id`-style bare id: exactly 32 lowercase-or-
    /// uppercase hex characters, non-zero.
    pub fn parse_request_id(header: &str) -> Option<u128> {
        let b = header.as_bytes();
        if b.len() != 32 || !b.iter().all(|c| c.is_ascii_hexdigit()) {
            return None;
        }
        match u128::from_str_radix(header, 16) {
            Ok(0) | Err(_) => None,
            Ok(id) => Some(id),
        }
    }

    /// Context from inbound headers: `traceparent` wins, then
    /// `X-Request-Id`, else a fresh id.
    pub fn from_headers(traceparent: Option<&str>, request_id: Option<&str>) -> TraceContext {
        if let Some(ctx) = traceparent.and_then(TraceContext::parse_traceparent) {
            return ctx;
        }
        if let Some(id) = request_id.and_then(TraceContext::parse_request_id) {
            return TraceContext {
                trace_id: id,
                parent_span: 0,
            };
        }
        TraceContext::fresh()
    }

    /// The canonical header echo: `00-<trace>-<span>-01`.
    pub fn render_traceparent(&self) -> String {
        format!("00-{:032x}-{:016x}-01", self.trace_id, self.parent_span)
    }

    /// The `X-Request-Id` echo: the 32-hex trace id.
    pub fn request_id(&self) -> String {
        format!("{:032x}", self.trace_id)
    }
}

/// Whether `s` is a canonical traceparent as this module renders it
/// (well-formed echo check for the fuzz family and tests).
pub fn is_canonical_traceparent(s: &str) -> bool {
    TraceContext::parse_traceparent(s).is_some_and(|ctx| ctx.render_traceparent() == s)
}

// ---------------------------------------------------------------------------
// RequestTrace: the cross-thread span-tree builder
// ---------------------------------------------------------------------------

/// One recorded span. `start_us`/`dur_us` are relative to the trace origin.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub dur_us: f64,
    /// Accumulated phase (summed sub-span time, e.g. `estimator`) rather
    /// than a wall-clock interval.
    pub accum: bool,
}

struct TraceInner {
    endpoint: String,
    spans: Vec<SpanRec>,
    annotations: BTreeMap<String, Value>,
    next_id: u64,
}

/// A live request's span tree, shared across pipeline stages via `Arc`.
///
/// All offsets are measured from `origin` (the moment the request was
/// parsed), so spans recorded on different threads line up on one clock.
pub struct RequestTrace {
    ctx: TraceContext,
    origin: Instant,
    inner: Mutex<TraceInner>,
}

impl RequestTrace {
    /// Opens a trace with its root `request` span.
    pub fn begin(ctx: TraceContext, endpoint: &str) -> Arc<RequestTrace> {
        Arc::new(RequestTrace {
            ctx,
            origin: Instant::now(),
            inner: Mutex::new(TraceInner {
                endpoint: endpoint.to_string(),
                spans: vec![SpanRec {
                    id: ROOT_SPAN,
                    parent: 0,
                    name: "request",
                    start_us: 0.0,
                    dur_us: 0.0,
                    accum: false,
                }],
                annotations: BTreeMap::new(),
                next_id: ROOT_SPAN + 1,
            }),
        })
    }

    pub fn ctx(&self) -> &TraceContext {
        &self.ctx
    }

    /// Offset of `at` from the trace origin, in microseconds (0 for
    /// instants before the origin).
    pub fn offset_us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_nanos() as f64 / 1_000.0
    }

    /// Records a closed interval span; returns its id.
    pub fn span_between(
        &self,
        name: &'static str,
        parent: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let start_us = self.offset_us(start);
        let dur_us = (self.offset_us(end) - start_us).max(0.0);
        let mut inner = self.inner.lock().expect("trace lock");
        let id = inner.next_id;
        inner.next_id += 1;
        inner.spans.push(SpanRec {
            id,
            parent,
            name,
            start_us,
            dur_us,
            accum: false,
        });
        id
    }

    /// Opens a span whose end is not yet known; close it with
    /// [`RequestTrace::close_span`]. Lets children reference the parent id
    /// while the parent is still running (e.g. `lane_exec`).
    pub fn open_span(&self, name: &'static str, parent: u64, start: Instant) -> u64 {
        let start_us = self.offset_us(start);
        let mut inner = self.inner.lock().expect("trace lock");
        let id = inner.next_id;
        inner.next_id += 1;
        inner.spans.push(SpanRec {
            id,
            parent,
            name,
            start_us,
            dur_us: 0.0,
            accum: false,
        });
        id
    }

    pub fn close_span(&self, id: u64, end: Instant) {
        let end_us = self.offset_us(end);
        let mut inner = self.inner.lock().expect("trace lock");
        if let Some(span) = inner.spans.iter_mut().find(|s| s.id == id) {
            span.dur_us = (end_us - span.start_us).max(0.0);
        }
    }

    /// Adds `dur_us` to the accumulated phase `(name, parent)`, creating it
    /// (anchored at the parent's start) on first use. Accumulated phases
    /// sum scattered sub-intervals — per-token estimator time, per-refill
    /// lane resets — that are too fine-grained to record individually.
    pub fn accum(&self, name: &'static str, parent: u64, dur_us: f64) {
        if !dur_us.is_finite() || dur_us < 0.0 {
            return;
        }
        let mut inner = self.inner.lock().expect("trace lock");
        if let Some(span) = inner
            .spans
            .iter_mut()
            .find(|s| s.accum && s.name == name && s.parent == parent)
        {
            span.dur_us += dur_us;
            return;
        }
        let start_us = inner
            .spans
            .iter()
            .find(|s| s.id == parent)
            .map(|s| s.start_us)
            .unwrap_or(0.0);
        let id = inner.next_id;
        inner.next_id += 1;
        inner.spans.push(SpanRec {
            id,
            parent,
            name,
            start_us,
            dur_us,
            accum: true,
        });
    }

    /// Attaches a string annotation (schema, model label, ...).
    pub fn annotate_str(&self, key: &str, value: &str) {
        let mut inner = self.inner.lock().expect("trace lock");
        inner
            .annotations
            .insert(key.to_string(), Value::String(value.to_string()));
    }

    /// Attaches (or overwrites) a numeric annotation.
    pub fn annotate_num(&self, key: &str, value: f64) {
        let mut inner = self.inner.lock().expect("trace lock");
        inner.annotations.insert(key.to_string(), num_value(value));
    }

    /// Adds `delta` to a numeric annotation (token counts across lanes).
    pub fn annotate_add(&self, key: &str, delta: f64) {
        let mut inner = self.inner.lock().expect("trace lock");
        let cur = inner
            .annotations
            .get(key)
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        inner
            .annotations
            .insert(key.to_string(), num_value(cur + delta));
    }

    /// Seals the trace: closes the root span at `now` and snapshots the
    /// tree. The `RequestTrace` may keep receiving spans afterwards (late
    /// lanes), but they won't be in this snapshot.
    pub fn finish(&self, status: u16) -> FinishedTrace {
        let dur_us = self.offset_us(Instant::now());
        let inner = self.inner.lock().expect("trace lock");
        let mut spans = inner.spans.clone();
        if let Some(root) = spans.iter_mut().find(|s| s.id == ROOT_SPAN) {
            root.dur_us = dur_us;
        }
        FinishedTrace {
            trace_id: self.ctx.trace_id,
            endpoint: inner.endpoint.clone(),
            status,
            dur_us,
            spans,
            annotations: inner.annotations.clone(),
        }
    }
}

/// A lane-side handle: the trace plus the span id lane work should parent
/// under (the request's `lane_exec` span).
#[derive(Clone)]
pub struct TraceHandle {
    pub trace: Arc<RequestTrace>,
    pub parent: u64,
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHandle")
            .field(
                "trace_id",
                &format_args!("{:032x}", self.trace.ctx.trace_id),
            )
            .field("parent", &self.parent)
            .finish()
    }
}

impl TraceHandle {
    pub fn accum(&self, name: &'static str, dur_us: f64) {
        self.trace.accum(name, self.parent, dur_us);
    }

    pub fn span_between(&self, name: &'static str, start: Instant, end: Instant) -> u64 {
        self.trace.span_between(name, self.parent, start, end)
    }
}

// ---------------------------------------------------------------------------
// FinishedTrace
// ---------------------------------------------------------------------------

/// An immutable, completed trace — what the store retains and `/debug`
/// serves.
#[derive(Debug, Clone)]
pub struct FinishedTrace {
    pub trace_id: u128,
    pub endpoint: String,
    pub status: u16,
    pub dur_us: f64,
    pub spans: Vec<SpanRec>,
    pub annotations: BTreeMap<String, Value>,
}

fn num_value(v: f64) -> Value {
    if v.is_finite() {
        Value::Number(Number::Float(v))
    } else {
        Value::Null
    }
}

impl FinishedTrace {
    /// Total duration of the direct children of the root with `name`
    /// (phase rollup for summaries).
    pub fn phase_us(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == ROOT_SPAN && s.name == name)
            .map(|s| s.dur_us)
            .sum()
    }

    /// One-line summary object for `/debug/traces` listings.
    pub fn summary_json(&self) -> Value {
        let mut m = Map::new();
        m.insert(
            "id".to_string(),
            Value::String(format!("{:032x}", self.trace_id)),
        );
        m.insert("endpoint".to_string(), Value::String(self.endpoint.clone()));
        m.insert(
            "status".to_string(),
            Value::Number(Number::UInt(self.status as u64)),
        );
        m.insert("dur_us".to_string(), num_value(self.dur_us));
        let mut phases = Map::new();
        for s in &self.spans {
            if s.parent == ROOT_SPAN {
                let e = phases
                    .entry(s.name.to_string())
                    .or_insert(Value::Number(Number::Float(0.0)));
                let cur = e.as_f64().unwrap_or(0.0);
                *e = num_value(cur + s.dur_us);
            }
        }
        m.insert("phases_us".to_string(), Value::Object(phases));
        Value::Object(m)
    }

    /// The full span tree as a JSON value (the `/debug/traces/<id>` body).
    pub fn to_json(&self) -> Value {
        let mut m = Map::new();
        m.insert(
            "id".to_string(),
            Value::String(format!("{:032x}", self.trace_id)),
        );
        m.insert(
            "traceparent".to_string(),
            Value::String(format!("00-{:032x}-{:016x}-01", self.trace_id, ROOT_SPAN)),
        );
        m.insert("endpoint".to_string(), Value::String(self.endpoint.clone()));
        m.insert(
            "status".to_string(),
            Value::Number(Number::UInt(self.status as u64)),
        );
        m.insert("dur_us".to_string(), num_value(self.dur_us));
        m.insert(
            "annotations".to_string(),
            Value::Object(self.annotations.clone().into_iter().collect()),
        );
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                let mut sm = Map::new();
                sm.insert("id".to_string(), Value::Number(Number::UInt(s.id)));
                sm.insert("parent".to_string(), Value::Number(Number::UInt(s.parent)));
                sm.insert("name".to_string(), Value::String(s.name.to_string()));
                sm.insert("start_us".to_string(), num_value(s.start_us));
                sm.insert("dur_us".to_string(), num_value(s.dur_us));
                if s.accum {
                    sm.insert("accum".to_string(), Value::Bool(true));
                }
                Value::Object(sm)
            })
            .collect();
        m.insert("spans".to_string(), Value::Array(spans));
        Value::Object(m)
    }
}

// ---------------------------------------------------------------------------
// TraceStore: bounded ring with tail-based sampling
// ---------------------------------------------------------------------------

/// Tail-sampling knobs.
#[derive(Debug, Clone)]
pub struct TraceStoreConfig {
    /// Ring capacity (completed traces kept).
    pub capacity: usize,
    /// Probability (percent) of retaining an ordinary trace.
    pub sample_pct: u64,
    /// Traces at or above this duration quantile are always retained
    /// ("slowest decile" → 0.90).
    pub slow_quantile: f64,
}

impl Default for TraceStoreConfig {
    fn default() -> Self {
        TraceStoreConfig {
            capacity: 512,
            sample_pct: 10,
            slow_quantile: 0.90,
        }
    }
}

struct StoreInner {
    ring: VecDeque<Arc<FinishedTrace>>,
    /// Distribution of *offered* durations — the slow-decile threshold is
    /// computed over everything seen, not just what was retained.
    durations: crate::metrics::Histogram,
    offered: u64,
    retained: u64,
}

/// Bounded in-memory trace ring with tail-based sampling.
///
/// Retention policy, checked at completion time (tail, not head — every
/// request records a trace; the decision is what to *keep*):
///
/// 1. errors (status ≥ 400, so 429/503/504 always resolve at `/debug`),
/// 2. the slowest decile (duration ≥ the p90 of all offered durations),
/// 3. a deterministic `sample_pct`% of everything else (hash of the trace
///    id — reproducible, no RNG state),
/// 4. everything, while fewer than 16 traces have been offered (warm-up,
///    so a fresh server's first requests always resolve).
pub struct TraceStore {
    config: TraceStoreConfig,
    inner: Mutex<StoreInner>,
}

impl TraceStore {
    pub fn new(config: TraceStoreConfig) -> TraceStore {
        TraceStore {
            config,
            inner: Mutex::new(StoreInner {
                ring: VecDeque::new(),
                durations: crate::metrics::Histogram::standalone("trace.dur_us"),
                offered: 0,
                retained: 0,
            }),
        }
    }

    /// Offers a completed trace; returns whether it was retained.
    pub fn offer(&self, trace: FinishedTrace) -> bool {
        let mut inner = self.inner.lock().expect("trace store lock");
        inner.offered += 1;
        inner.durations.record_silent(trace.dur_us);
        let slow = trace.dur_us >= inner.durations.percentile(self.config.slow_quantile);
        let error = trace.status >= 400;
        let id = trace.trace_id;
        let lucky =
            splitmix64((id as u64) ^ ((id >> 64) as u64)) % 100 < self.config.sample_pct.min(100);
        let warmup = inner.offered <= 16;
        let keep = error || slow || lucky || warmup;
        if keep {
            inner.retained += 1;
            inner.ring.push_back(Arc::new(trace));
            while inner.ring.len() > self.config.capacity.max(1) {
                inner.ring.pop_front();
            }
        }
        keep
    }

    pub fn get(&self, trace_id: u128) -> Option<Arc<FinishedTrace>> {
        let inner = self.inner.lock().expect("trace store lock");
        inner
            .ring
            .iter()
            .rev()
            .find(|t| t.trace_id == trace_id)
            .cloned()
    }

    /// Most recent `n` retained traces, newest first.
    pub fn recent(&self, n: usize) -> Vec<Arc<FinishedTrace>> {
        let inner = self.inner.lock().expect("trace store lock");
        inner.ring.iter().rev().take(n).cloned().collect()
    }

    /// Slowest `n` retained traces, slowest first.
    pub fn slowest(&self, n: usize) -> Vec<Arc<FinishedTrace>> {
        let inner = self.inner.lock().expect("trace store lock");
        let mut all: Vec<Arc<FinishedTrace>> = inner.ring.iter().cloned().collect();
        all.sort_by(|a, b| b.dur_us.total_cmp(&a.dur_us));
        all.truncate(n);
        all
    }

    /// `(offered, retained, currently held)`.
    pub fn stats(&self) -> (u64, u64, usize) {
        let inner = self.inner.lock().expect("trace store lock");
        (inner.offered, inner.retained, inner.ring.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_ids_are_unique_and_nonzero() {
        let a = TraceContext::fresh();
        let b = TraceContext::fresh();
        assert_ne!(a.trace_id, 0);
        assert_ne!(a.trace_id, b.trace_id);
    }

    #[test]
    fn traceparent_round_trips() {
        let ctx = TraceContext {
            trace_id: 0x0123_4567_89ab_cdef_0123_4567_89ab_cdef,
            parent_span: 0xfeed_beef_dead_f00d,
        };
        let rendered = ctx.render_traceparent();
        assert!(is_canonical_traceparent(&rendered), "{rendered}");
        let parsed = TraceContext::parse_traceparent(&rendered).unwrap();
        assert_eq!(parsed.trace_id, ctx.trace_id);
        assert_eq!(parsed.parent_span, ctx.parent_span);
    }

    #[test]
    fn hostile_traceparents_are_rejected() {
        for bad in [
            "",
            "00",
            "00-abc",
            // '+' is accepted by from_str_radix but not hex grammar
            "00-+123456789abcdef0123456789abcde-0123456789abcdef-01",
            "00-00000000000000000000000000000000-0123456789abcdef-01", // zero id
            "ff-0123456789abcdef0123456789abcdef-0123456789abcdef-01", // bad version
            "00-0123456789abcdef0123456789abcdeg-0123456789abcdef-01", // non-hex
            "00-0123456789abcdef0123456789abcdef_0123456789abcdef-01", // bad sep
            "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01-extra",
            "00-0123456789abcdef0123456789abcdef-0123456789abcdef-0\u{0}",
        ] {
            assert!(
                TraceContext::parse_traceparent(bad).is_none(),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn request_id_parse_is_strict() {
        let ctx = TraceContext::fresh();
        assert_eq!(
            TraceContext::parse_request_id(&ctx.request_id()),
            Some(ctx.trace_id)
        );
        for bad in ["", "zz", "00000000000000000000000000000000", "12345"] {
            assert!(TraceContext::parse_request_id(bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn span_tree_records_phases_and_accums() {
        let t = RequestTrace::begin(TraceContext::fresh(), "generate");
        let t0 = Instant::now();
        let id = t.span_between("queue_wait", ROOT_SPAN, t0, t0);
        assert!(id > ROOT_SPAN);
        let lane = t.open_span("lane_exec", ROOT_SPAN, t0);
        t.accum("estimator", lane, 5.0);
        t.accum("estimator", lane, 7.0);
        t.close_span(lane, Instant::now());
        t.annotate_add("tokens", 3.0);
        t.annotate_add("tokens", 4.0);
        t.annotate_str("schema", "tpch");
        let fin = t.finish(200);
        assert_eq!(fin.status, 200);
        let est: Vec<&SpanRec> = fin.spans.iter().filter(|s| s.name == "estimator").collect();
        assert_eq!(est.len(), 1, "accum spans merge");
        assert!((est[0].dur_us - 12.0).abs() < 1e-9);
        assert_eq!(est[0].parent, lane);
        assert_eq!(
            fin.annotations.get("tokens").and_then(Value::as_f64),
            Some(7.0)
        );
        let json = fin.to_json().to_string();
        assert!(json.contains("queue_wait"), "{json}");
        assert!(json.contains("lane_exec"), "{json}");
    }

    #[test]
    fn store_always_keeps_errors_and_bounds_the_ring() {
        let store = TraceStore::new(TraceStoreConfig {
            capacity: 8,
            sample_pct: 0,
            slow_quantile: 0.90,
        });
        // Saturate warm-up with fast OK traces.
        for i in 0..64u64 {
            let t = RequestTrace::begin(TraceContext::fresh(), "generate").finish(200);
            let _ = store.offer(FinishedTrace {
                dur_us: 1.0 + (i % 3) as f64 * 0.001,
                ..t
            });
        }
        // An error trace is always retained, even when fast.
        let err = RequestTrace::begin(TraceContext::fresh(), "generate").finish(504);
        let err_id = err.trace_id;
        assert!(store.offer(FinishedTrace { dur_us: 0.5, ..err }));
        assert!(store.get(err_id).is_some());
        // A slowest-decile trace is always retained.
        let slow = RequestTrace::begin(TraceContext::fresh(), "generate").finish(200);
        let slow_id = slow.trace_id;
        assert!(store.offer(FinishedTrace {
            dur_us: 1e6,
            ..slow
        }));
        assert!(store.get(slow_id).is_some());
        let (offered, retained, held) = store.stats();
        assert_eq!(offered, 66);
        assert!(retained >= 2);
        assert!(held <= 8, "ring bounded, held {held}");
        assert_eq!(store.slowest(1)[0].trace_id, slow_id);
    }
}
