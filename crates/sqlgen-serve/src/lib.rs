//! `sqlgen-serve`: a query-generation service over the batched GEMM
//! inference engine.
//!
//! The server turns [`sqlgen_core::LearnedSqlGen`]-style generation into a
//! multi-tenant HTTP service (DESIGN.md §11):
//!
//! - [`http`] — hand-rolled, std-only HTTP/1.1 parsing and response
//!   writing with hard limits (no tokio/hyper in this build environment).
//! - [`queue`] — bounded admission queue per shard; overflow becomes
//!   `429` + `Retry-After` instead of unbounded buffering.
//! - [`batcher`] — dynamic batching: concurrent requests coalesce into one
//!   lockstep generation window, with per-request deadlines propagated
//!   into the lanes. Responses are bitwise-identical to unbatched
//!   generation for the same seed (the `serve-equivalence` fuzz family).
//! - [`registry`] — versioned checkpoint registry with atomic hot-swap.
//! - [`cache`] — sharded LRU over rendered response bodies, keyed on the
//!   purity tuple `(model-version, schema, seed, constraint, n)`.
//! - [`shard`] — generation shard workers behind a consistent-hash router
//!   on `(schema, model-version)`, with optional CPU pinning.
//! - [`sys`] / [`event_loop`] — Linux-only raw epoll bindings and the
//!   readiness event loop that serves every connection. On other
//!   platforms [`serve`] returns `ErrorKind::Unsupported`.
//! - [`server`] — config, routing (`/generate`, `/healthz`, `/metrics`,
//!   `/models`, `/models/reload`), admission and graceful drain-style
//!   shutdown.
//! - [`client`] — minimal client used by tests, the CLI and
//!   `bench_serve`.

pub mod batcher;
pub mod cache;
pub mod client;
pub mod event_loop;
pub mod http;
pub mod queue;
pub mod registry;
pub mod server;
pub mod shard;
pub mod sys;

pub use batcher::{
    run_window, BatcherConfig, GenRequest, GenTask, RequestOutcome, Responder, Schema, ServedQuery,
    WindowOutcome, WindowRequest, MAX_QUERIES_PER_REQUEST,
};
pub use cache::{CacheKey, ResultCache};
pub use http::{
    parse_buf, read_request, write_response, BufParse, Limits, ParseError, Request, Response,
};
pub use queue::{BoundedQueue, PushError};
pub use registry::{ModelRegistry, ServedModel};
pub use server::{outcome_json, serve, ServeConfig, ServerHandle};
pub use shard::{Shard, ShardPool, ShardTask};
