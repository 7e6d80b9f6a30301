//! Sharded generation workers behind the event loop.
//!
//! Workers are decoupled from schemas: `N` identical workers each own a
//! bounded admission queue, and a consistent-hash ring over
//! `(schema, model-version)` routes every request to one shard. The ring
//! gives two properties a multi-tenant deployment needs:
//!
//! * **Stability** — a `(schema, version)` pair always lands on the same
//!   shard, so its requests coalesce into shared windows instead of
//!   spraying across workers (window batching is what makes the GEMM
//!   lanes pay off).
//! * **Smooth rebalance** — adding a shard moves only `~1/N` of the keys,
//!   because each shard projects `VNODES` points onto the ring rather
//!   than one.
//!
//! Workers optionally pin to CPUs round-robin (`--pin-cpus`,
//! `sched_setaffinity`) so shard cache state stays core-local on
//! multi-core hosts. Purity makes all of this invisible in responses:
//! which shard (or window) runs a request cannot change its bytes.

use crate::batcher::{run_window_tasks_with_model, BatcherConfig, GenTask, Schema};
use crate::queue::{BoundedQueue, PushError};
use crate::registry::ServedModel;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Virtual nodes per shard on the hash ring.
const VNODES: usize = 40;

/// A task routed to a shard: the shard worker needs the schema bundle
/// alongside the request because one shard serves many schemas.
pub struct ShardTask {
    pub schema: Arc<Schema>,
    pub task: GenTask,
}

/// One shard worker's admission queue.
pub struct Shard {
    pub queue: BoundedQueue<ShardTask>,
}

/// FNV-1a 64-bit; stable across runs and platforms, which keeps routing
/// deterministic (the default `DefaultHasher` makes no such promise).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The shard workers plus the consistent-hash ring that routes to them.
pub struct ShardPool {
    shards: Vec<Arc<Shard>>,
    /// `(ring position, shard index)` sorted by position.
    ring: Vec<(u64, usize)>,
}

impl ShardPool {
    pub fn new(n: usize, queue_cap: usize) -> ShardPool {
        let n = n.max(1);
        let shards: Vec<Arc<Shard>> = (0..n)
            .map(|i| {
                Arc::new(Shard {
                    queue: BoundedQueue::for_shard(queue_cap, i),
                })
            })
            .collect();
        let mut ring = Vec::with_capacity(n * VNODES);
        for (i, _) in shards.iter().enumerate() {
            for v in 0..VNODES {
                ring.push((fnv1a64(format!("shard/{i}/{v}").as_bytes()), i));
            }
        }
        ring.sort_unstable();
        ShardPool { shards, ring }
    }

    pub fn len(&self) -> usize {
        self.shards.len()
    }

    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Routes `(schema, model-version)` to its shard: first ring point at
    /// or after the key's hash, wrapping at the top.
    pub fn shard_for(&self, schema: &str, model_version: u64) -> &Arc<Shard> {
        let mut key = Vec::with_capacity(schema.len() + 9);
        key.extend_from_slice(schema.as_bytes());
        key.push(0);
        key.extend_from_slice(&model_version.to_le_bytes());
        let h = fnv1a64(&key);
        let idx = match self.ring.binary_search(&(h, usize::MAX)) {
            Ok(i) | Err(i) => i % self.ring.len(),
        };
        &self.shards[self.ring[idx].1]
    }

    /// Non-blocking admission to the routed shard. The rejected task rides
    /// back in the `Err` so the caller can answer 429/503 on its reply
    /// channel — worth the large variant. Routing keys on the registry's
    /// lock-free version hint, so admission never contends with a
    /// mid-publish writer holding the registry `RwLock`.
    #[allow(clippy::result_large_err)]
    pub fn try_push(
        &self,
        schema: &Arc<Schema>,
        task: GenTask,
    ) -> Result<(), (PushError, GenTask)> {
        self.shard_for(&schema.name, schema.registry.version_hint())
            .queue
            .try_push(ShardTask {
                schema: schema.clone(),
                task,
            })
            .map_err(|(e, st)| (e, st.task))
    }

    /// Spawns the worker threads. With `pin_cpus`, worker `i` pins to CPU
    /// `i % available_parallelism` — failure is a warning, not an error
    /// (cgroup masks can forbid it).
    pub fn spawn_workers(&self, cfg: &BatcherConfig, pin_cpus: bool) -> Vec<JoinHandle<()>> {
        let ncpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        self.shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let shard = shard.clone();
                let cfg = cfg.clone();
                std::thread::Builder::new()
                    .name(format!("sqlgen-shard-{i}"))
                    .spawn(move || {
                        if pin_cpus {
                            #[cfg(target_os = "linux")]
                            if let Err(e) = crate::sys::pin_current_thread(i % ncpus) {
                                sqlgen_obs::obs_warn!("[serve] shard {i}: cpu pinning failed: {e}");
                            }
                            #[cfg(not(target_os = "linux"))]
                            let _ = ncpus;
                        }
                        shard_loop(&shard, &cfg);
                    })
                    .expect("spawn shard worker")
            })
            .collect()
    }

    /// Total queued tasks across all shards (bench queue-depth sampling).
    pub fn depth(&self) -> usize {
        self.shards.iter().map(|s| s.queue.len()).sum()
    }

    /// Stops admission on every shard; queued work still drains.
    pub fn close(&self) {
        for s in &self.shards {
            s.queue.close();
        }
    }
}

/// Shard-local model snapshots: one `(schema, generation, model)` entry
/// per schema this worker has served. Between windows the worker refreshes
/// the registry (disk scan, between windows only — never mid-window) and
/// re-reads `current()` only when the publish generation moved, so the
/// steady-state per-window registry cost is one atomic load instead of a
/// `RwLock` read + `Arc` clone per window. Bounded by the number of live
/// schemas, which the server fixes at startup.
struct ModelCache {
    entries: Vec<(Arc<Schema>, u64, Arc<ServedModel>)>,
}

impl ModelCache {
    fn new() -> ModelCache {
        ModelCache {
            entries: Vec::new(),
        }
    }

    /// The model the next window on `schema` should run. Refreshes the
    /// registry from disk first; a successful swap invalidates the result
    /// cache.
    fn model_for(&mut self, schema: &Arc<Schema>) -> Arc<ServedModel> {
        if let Ok(true) = schema.registry.refresh() {
            schema.cache.clear();
        }
        let generation = schema.registry.generation();
        match self
            .entries
            .iter_mut()
            .find(|(s, _, _)| Arc::ptr_eq(s, schema))
        {
            Some(entry) => {
                if entry.1 != generation {
                    entry.1 = generation;
                    entry.2 = schema.registry.current();
                }
                entry.2.clone()
            }
            None => {
                let model = schema.registry.current();
                self.entries
                    .push((schema.clone(), generation, model.clone()));
                model
            }
        }
    }
}

/// Shard worker body: gather a window, group the gathered tasks by schema
/// preserving arrival order, and run one window per schema group. Runs
/// until the shard's queue is closed and drained.
///
/// Gather policy: drain whatever is already queued without waiting, and
/// keep waiting (bounded by `max_wait`) only while the window holds fewer
/// jobs than one GEMM lane width. Closed-loop bursts arrive together and
/// fill the window on the first drain, so they never pay the wait; smooth
/// open-loop arrivals would otherwise each get a private window and pay
/// the full per-window fixed cost (env + lane-state setup), capping
/// throughput far below the batched capacity.
fn shard_loop(shard: &Shard, cfg: &BatcherConfig) {
    let mut models = ModelCache::new();
    loop {
        let Some(first) = shard.queue.pop_timeout(Duration::from_millis(50)) else {
            if shard.queue.is_closed() && shard.queue.is_empty() {
                return;
            }
            continue;
        };
        let gather_deadline = Instant::now() + cfg.max_wait;
        let mut gathered = vec![(first, Instant::now())];
        let mut job_count = gathered[0].0.task.req.n;
        while job_count < cfg.max_batch_jobs {
            match shard.queue.try_pop() {
                Some(t) => {
                    job_count += t.task.req.n;
                    gathered.push((t, Instant::now()));
                }
                None => {
                    if job_count >= cfg.lanes {
                        break;
                    }
                    let now = Instant::now();
                    if now >= gather_deadline {
                        break;
                    }
                    match shard.queue.pop_timeout(gather_deadline - now) {
                        Some(t) => {
                            job_count += t.task.req.n;
                            gathered.push((t, Instant::now()));
                        }
                        None => break,
                    }
                }
            }
        }
        // Group by schema, first-seen order. Purity means the grouping
        // cannot change any response; it only decides window composition.
        type SchemaGroup = (Arc<Schema>, Vec<(GenTask, Instant)>);
        let mut groups: Vec<SchemaGroup> = Vec::new();
        for (st, popped) in gathered {
            match groups.iter_mut().find(|(s, _)| Arc::ptr_eq(s, &st.schema)) {
                Some((_, tasks)) => tasks.push((st.task, popped)),
                None => groups.push((st.schema, vec![(st.task, popped)])),
            }
        }
        for (schema, tasks) in groups {
            let model = models.model_for(&schema);
            run_window_tasks_with_model(&schema, &model, tasks, cfg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_version_sensitive() {
        let pool = ShardPool::new(4, 8);
        let a1 = Arc::as_ptr(pool.shard_for("tpch", 1));
        let a2 = Arc::as_ptr(pool.shard_for("tpch", 1));
        assert_eq!(a1, a2, "same key must route to the same shard");
        // Across many (schema, version) keys, more than one shard is used.
        let mut seen = std::collections::HashSet::new();
        for v in 0..32u64 {
            seen.insert(Arc::as_ptr(pool.shard_for("tpch", v)));
            seen.insert(Arc::as_ptr(pool.shard_for("imdb", v)));
        }
        assert!(seen.len() > 1, "keys should spread across shards");
    }

    #[test]
    fn ring_growth_moves_only_a_fraction_of_keys() {
        let small = ShardPool::new(4, 8);
        let large = ShardPool::new(5, 8);
        let keys: Vec<String> = (0..400).map(|i| format!("schema-{i}")).collect();
        let moved = keys
            .iter()
            .filter(|k| ring_index(&small, k) != ring_index(&large, k))
            .count();
        // Consistent hashing: going 4 → 5 shards should move roughly 1/5
        // of keys, not most of them. Allow generous slack.
        assert!(moved < keys.len() / 2, "moved {moved} of {}", keys.len());
    }

    #[test]
    fn shard_model_cache_reuses_snapshots_until_publish() {
        let db = sqlgen_storage::gen::tpch_database(0.05, 2);
        let config = sqlgen_core::GenConfig::fast().with_seed(11);
        let schema = Arc::new(Schema::build("t", &db, &config, None));
        let mut cache = ModelCache::new();
        let a = cache.model_for(&schema);
        let b = cache.model_for(&schema);
        assert!(
            Arc::ptr_eq(&a, &b),
            "no publish between windows → cached Arc is reused"
        );
        schema.publish_actor("trained", 3, a.actor.clone());
        let c = cache.model_for(&schema);
        assert!(
            !Arc::ptr_eq(&b, &c),
            "a publish must invalidate the cached snapshot"
        );
        assert_eq!(c.version, 3);
        assert_eq!(c.label, "trained");
    }

    #[test]
    fn workers_reply_to_every_task_and_drain_on_close() {
        use crate::batcher::{GenRequest, Responder};
        use sqlgen_core::Constraint;
        let db = sqlgen_storage::gen::tpch_database(0.05, 2);
        let config = sqlgen_core::GenConfig::fast().with_seed(11);
        let schema = Arc::new(Schema::build("t", &db, &config, None));
        let pool = ShardPool::new(1, 16);
        let mut rxs = Vec::new();
        for seed in 0..5u64 {
            let (tx, rx) = std::sync::mpsc::sync_channel(1);
            let task = GenTask {
                req: GenRequest {
                    schema: String::new(),
                    constraint: Constraint::cardinality_range(1.0, 500.0),
                    n: 2,
                    seed,
                    timeout_ms: None,
                },
                deadline: None,
                enqueued: Instant::now(),
                reply: Responder::Channel(tx),
                trace: None,
            };
            pool.try_push(&schema, task).map_err(|(e, _)| e).unwrap();
            rxs.push(rx);
        }
        assert_eq!(pool.depth(), 5);
        // Close before starting: the workers must still drain queued work.
        pool.close();
        let cfg = BatcherConfig {
            lanes: 4,
            max_wait: Duration::from_millis(2),
            max_batch_jobs: 8,
        };
        for worker in pool.spawn_workers(&cfg, false) {
            worker.join().unwrap();
        }
        for rx in rxs {
            let out = rx.try_recv().expect("queued task answered before join");
            assert_eq!(out.queries.len() + out.expired, 2);
            assert_eq!(out.model_label, "builtin");
        }
        assert_eq!(pool.depth(), 0);
    }

    fn ring_index(pool: &ShardPool, schema: &str) -> usize {
        let shard = pool.shard_for(schema, 0);
        pool.shards
            .iter()
            .position(|s| Arc::ptr_eq(s, shard))
            .unwrap()
    }
}
