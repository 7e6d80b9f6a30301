//! Measurement helpers: wall-clock phases, raw-sample percentiles, process
//! memory, registry deltas and the host probe.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Seconds elapsed since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Median, or 0 for a layer the workload never timed.
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// Linear-interpolated quantile of raw samples (no bucketing).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set (`VmHWM`) of a process in MiB; `pid` `None` = self.
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Times a fixed, deterministic integer loop (a few ms). Recorded before
/// and after each run as `host.probe_ms`, so a slow host can be told
/// from a slow program.
pub fn host_probe_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for i in 0..4_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x.rotate_left((i & 63) as u32));
    }
    black_box(acc);
    secs(t0) * 1e3
}

/// A point-in-time copy of the registry series a workload reads. Layer
/// numbers are deltas of two snapshots (exact count and sum), never
/// bucket-edge percentiles.
#[derive(Debug, Clone, Default)]
pub struct RegSnap {
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, (u64, f64)>,
}

const COUNTERS: &[&str] = &[
    "fsm.tokens.count",
    "estimator.card.calls",
    "estimator.cache.hit",
    "estimator.cache.miss",
    "rl.episodes.count",
    "refine.attempts",
    "refine.successes",
    "refine.resampled",
];

const HISTS: &[&str] = &[
    "fsm.mask.latency_us",
    "estimator.card.latency_us",
    "rl.step.latency_us",
    "rl.episode.len",
];

impl RegSnap {
    pub fn take() -> RegSnap {
        let m = sqlgen_obs::metrics::global();
        RegSnap {
            counters: COUNTERS.iter().map(|&n| (n, m.counter(n).get())).collect(),
            hists: HISTS
                .iter()
                .map(|&n| {
                    let h = m.histogram(n);
                    (n, (h.count(), h.sum()))
                })
                .collect(),
        }
    }

    /// The same series read from another process's `/metrics` text
    /// (names with `.` exposed as `_`; histograms as `_count`/`_sum`).
    pub fn from_exposition(text: &str) -> RegSnap {
        let value = |name: String| -> f64 {
            text.lines()
                .find_map(|l| {
                    l.strip_prefix(name.as_str())?
                        .strip_prefix(' ')?
                        .trim()
                        .parse()
                        .ok()
                })
                .unwrap_or(0.0)
        };
        let exposed = |n: &str| n.replace('.', "_");
        RegSnap {
            counters: COUNTERS
                .iter()
                .map(|&n| (n, value(exposed(n)) as u64))
                .collect(),
            hists: HISTS
                .iter()
                .map(|&n| {
                    let c = value(format!("{}_count", exposed(n))) as u64;
                    (n, (c, value(format!("{}_sum", exposed(n)))))
                })
                .collect(),
        }
    }

    /// The increase of every series since `before`.
    pub fn since(&self, before: &RegSnap) -> RegSnap {
        RegSnap {
            counters: self
                .counters
                .iter()
                .map(|(&k, &v)| (k, v - before.counters[k]))
                .collect(),
            hists: self
                .hists
                .iter()
                .map(|(&k, &(c, s))| {
                    let (c0, s0) = before.hists[k];
                    (k, (c - c0, s - s0))
                })
                .collect(),
        }
    }

    /// Accumulates another interval's deltas into this one.
    pub fn add(&mut self, other: &RegSnap) {
        for (k, v) in &other.counters {
            *self.counters.entry(k).or_default() += v;
        }
        for (k, (c, s)) in &other.hists {
            let e = self.hists.entry(k).or_default();
            e.0 += c;
            e.1 += s;
        }
    }

    pub fn count(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram (count, sum).
    pub fn hist(&self, name: &str) -> (u64, f64) {
        self.hists.get(name).copied().unwrap_or((0, 0.0))
    }

    /// Mean sample of a histogram (0 when empty).
    pub fn hist_mean(&self, name: &str) -> f64 {
        let (c, s) = self.hist(name);
        ratio(s, c as f64)
    }
}
