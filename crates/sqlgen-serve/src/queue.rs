//! Bounded admission queue between the event loops and a shard worker.
//!
//! Admission control happens at push time: a full queue rejects immediately
//! (the HTTP layer turns that into `429` + `Retry-After`) instead of
//! buffering unbounded work the generation lanes cannot keep up with. The
//! queue-depth gauge `serve.queue.depth` tracks every transition.
//!
//! Shutdown is drain-oriented: after [`BoundedQueue::close`], pushes fail
//! with [`PushError::Closed`] (→ 503) but pops keep returning queued items
//! until the queue is empty — in-flight and already-admitted requests
//! complete, new ones are refused.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// At capacity — back-pressure the client (429).
    Full,
    /// Shutting down — refuse new work (503).
    Closed,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Blocking bounded MPMC queue (mutex + condvar; std-only).
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    cap: usize,
    /// Per-shard labeled depth gauge (`serve.queue.depth{shard=...}`);
    /// the unlabeled `serve.queue.depth` gauge is still set for
    /// compatibility with existing dashboards.
    depth_gauge: Option<Arc<sqlgen_obs::Gauge>>,
}

impl<T> BoundedQueue<T> {
    pub fn new(cap: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            cap: cap.max(1),
            depth_gauge: None,
        }
    }

    /// Shard `index`'s queue, whose depth is also tracked in the labeled
    /// `serve.queue.depth{shard="<index>"}` series.
    pub fn for_shard(cap: usize, index: usize) -> Self {
        let labels = sqlgen_obs::Labels::new().with("shard", &index.to_string());
        let gauge = sqlgen_obs::metrics::global().gauge_with("serve.queue.depth", &labels);
        BoundedQueue {
            depth_gauge: Some(gauge),
            ..Self::new(cap)
        }
    }

    fn set_depth(&self, depth: usize) {
        sqlgen_obs::obs_gauge!("serve.queue.depth", depth as f64);
        if let Some(g) = &self.depth_gauge {
            g.set(depth as f64);
        }
    }

    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Non-blocking admission; hands the item back on refusal so the caller
    /// can still answer the request it carries.
    pub fn try_push(&self, item: T) -> Result<(), (PushError, T)> {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.closed {
            return Err((PushError::Closed, item));
        }
        if inner.items.len() >= self.cap {
            sqlgen_obs::obs_count!("serve.rejected.count");
            return Err((PushError::Full, item));
        }
        inner.items.push_back(item);
        self.set_depth(inner.items.len());
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Pops, waiting up to `timeout`. Returns `None` on timeout, or — once
    /// closed — immediately when empty (queued items still drain first).
    pub fn pop_timeout(&self, timeout: Duration) -> Option<T> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if let Some(item) = inner.items.pop_front() {
                self.set_depth(inner.items.len());
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .not_empty
                .wait_timeout(inner, deadline - now)
                .expect("queue lock");
            inner = guard;
        }
    }

    /// Non-blocking pop — the shard's gather loop uses this to top up a
    /// window without waiting once the first request is in hand.
    pub fn try_pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue lock");
        let item = inner.items.pop_front();
        if item.is_some() {
            self.set_depth(inner.items.len());
        }
        item
    }

    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue lock").items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn is_closed(&self) -> bool {
        self.inner.lock().expect("queue lock").closed
    }

    /// Stops admission; wakes all waiting poppers so they can drain and
    /// exit.
    pub fn close(&self) {
        self.inner.lock().expect("queue lock").closed = true;
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_fifo_and_capacity() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        let (err, item) = q.try_push(3).unwrap_err();
        assert_eq!((err, item), (PushError::Full, 3));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Some(1));
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn close_refuses_pushes_but_drains_pops() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.close();
        assert_eq!(q.try_push(2).unwrap_err().0, PushError::Closed);
        // Drain continues after close...
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Some(1));
        // ...and an empty closed queue returns immediately, not on timeout.
        let start = Instant::now();
        assert_eq!(q.pop_timeout(Duration::from_secs(5)), None);
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn pop_wakes_on_cross_thread_push() {
        let q = std::sync::Arc::new(BoundedQueue::new(4));
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.pop_timeout(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        q.try_push(7).unwrap();
        assert_eq!(t.join().unwrap(), Some(7));
    }
}
