//! Load generator for `sqlgen-serve`.
//!
//! Self-hosts an in-process server per phase (ephemeral port), then drives
//! it over real sockets. Four phases go to `BENCH_serve.json` in `--out`:
//!
//! - two **closed-loop** phases — batch width 1 (serial lanes) and
//!   `--batch` (default 8) — keep-alive worker threads, each firing its
//!   next request as soon as the previous response lands; this makes the
//!   dynamic-batching win measurable in isolation;
//! - two **open-loop** phases over `--connections` (default 1024)
//!   epoll-multiplexed nonblocking sockets driven by one client thread:
//!   `open-cold` paces unique-seed requests at `--qps` (default: 60% of a
//!   short self-calibration burst against the same server), and
//!   `open-warm` replays a 64-seed working set closed-loop so the result
//!   cache serves almost everything (the report carries the measured
//!   hit-rate per phase).
//!
//! Open-loop phases run the int8 quantized model when `--quant` is given;
//! the `quantized` field in each phase records which policy ran. The
//! open-loop client needs Linux (it reuses the server's raw epoll
//! bindings); elsewhere only the closed-loop phases run.
//!
//! `--smoke` shrinks the run for CI (seconds) and exits non-zero unless
//! every phase sustained non-zero throughput, the warm phase hit the
//! cache for >90% of lookups, and all servers shut down cleanly.
//!
//! `--qps-sweep` adds a paced rate sweep (Linux only): after a closed-loop
//! calibration burst, short open-loop runs at a grid of fractions of the
//! calibrated capacity record achieved q/s + p50/p95 per offered rate into
//! the `qps_sweep` array of `BENCH_serve.json` — the saturation curve the
//! single cold/warm points can't show.

use sqlgen_bench::methods::harness_gen_config;
use sqlgen_bench::HarnessArgs;
use sqlgen_serve::client::Client;
use sqlgen_serve::{serve, Schema, ServeConfig, ServerHandle};
use sqlgen_storage::gen::Benchmark;
use sqlgen_storage::Database;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

struct LoadPlan {
    workers: usize,
    /// Requests per worker.
    requests: usize,
    /// Queries per request (`n` in the request body).
    n_per_request: usize,
    /// Aggregate target rate; 0 = closed loop.
    target_qps: f64,
}

#[derive(Default)]
struct WorkerStats {
    ok: usize,
    rejected: usize,
    timeouts: usize,
    other_errors: usize,
    latencies_ms: Vec<f64>,
}

/// p50/p95 of one pipeline phase, read back from the labeled
/// `serve.phase.*_us` histograms after the load finishes.
struct PhaseBreakdown {
    samples: u64,
    p50_ms: f64,
    p95_ms: f64,
}

struct PhaseResult {
    name: String,
    batch: usize,
    connections: usize,
    quantized: bool,
    target_qps: f64,
    seconds: f64,
    ok: usize,
    rejected: usize,
    timeouts: usize,
    other_errors: usize,
    requests_per_sec: f64,
    queries_per_sec: f64,
    latency_p50_ms: f64,
    latency_p95_ms: f64,
    latency_p99_ms: f64,
    /// Result-cache hit rate over this phase (delta of the shared
    /// counters, so earlier phases in the same process don't leak in).
    cache_hit_rate: f64,
    /// queue_wait → gather → exec attribution for this batch width.
    queue_wait: PhaseBreakdown,
    gather: PhaseBreakdown,
    exec: PhaseBreakdown,
    /// `(seconds_since_phase_start, depth)` samples of the admission queue.
    queue_depth_timeline: Vec<(f64, usize)>,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn run_worker(
    addr: std::net::SocketAddr,
    worker: usize,
    plan: &LoadPlan,
    phase_start: Instant,
) -> WorkerStats {
    let mut stats = WorkerStats::default();
    let Ok(mut client) = Client::connect(addr, Duration::from_secs(120)) else {
        stats.other_errors = plan.requests;
        return stats;
    };
    // Open-loop pacing: worker w owns ticks w, w+W, w+2W, ... of the
    // aggregate schedule.
    let interval = if plan.target_qps > 0.0 {
        Some(Duration::from_secs_f64(
            plan.workers as f64 / plan.target_qps,
        ))
    } else {
        None
    };
    for r in 0..plan.requests {
        if let Some(interval) = interval {
            let due = phase_start
                + interval.mul_f64(r as f64)
                + interval.mul_f64(worker as f64 / plan.workers as f64);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        let seed = (worker as u64) << 20 | r as u64;
        let body = format!(
            r#"{{"constraint":{{"metric":"cardinality","min":1,"max":500}},"n":{},"seed":{seed}}}"#,
            plan.n_per_request
        );
        let started = Instant::now();
        match client.request("POST", "/generate", Some(&body)) {
            Ok((200, _)) => {
                stats.ok += 1;
                stats
                    .latencies_ms
                    .push(started.elapsed().as_secs_f64() * 1e3);
            }
            Ok((429, _)) => stats.rejected += 1,
            Ok((504, _)) => stats.timeouts += 1,
            Ok(_) => stats.other_errors += 1,
            Err(_) => {
                stats.other_errors += 1;
                // The connection may be dead (e.g. read timeout); reconnect
                // so one hiccup doesn't void the rest of the phase.
                match Client::connect(addr, Duration::from_secs(120)) {
                    Ok(c) => client = c,
                    Err(_) => {
                        stats.other_errors += plan.requests - r - 1;
                        return stats;
                    }
                }
            }
        }
    }
    stats
}

/// Reads back the labeled `serve.phase.<which>_us` histogram this phase's
/// batch width wrote into the global registry.
fn read_breakdown(which: &str, batch: usize) -> PhaseBreakdown {
    let labels = sqlgen_obs::Labels::new()
        .with("schema", "tpch")
        .with("batch_width", &batch.to_string());
    let h =
        sqlgen_obs::metrics::global().histogram_with(&format!("serve.phase.{which}_us"), &labels);
    PhaseBreakdown {
        samples: h.count(),
        p50_ms: h.percentile(0.50) / 1e3,
        p95_ms: h.percentile(0.95) / 1e3,
    }
}

/// End-to-end trace smoke against a live server: the forced-504 request
/// must carry an `X-Request-Id` that resolves to a full span tree, and
/// `/metrics` must pass the Prometheus exposition grammar. Panics (→
/// non-zero exit, CI-visible) on any violation.
fn trace_smoke(addr: std::net::SocketAddr) {
    use sqlgen_serve::client;
    let resp = client::request_full(
        addr,
        "POST",
        "/generate",
        &[],
        Some(r#"{"constraint":{"point":50},"n":1,"timeout_ms":0}"#),
    )
    .expect("trace smoke request failed");
    assert_eq!(
        resp.status, 504,
        "timeout_ms=0 should expire: {}",
        resp.body
    );
    let id = resp
        .header("x-request-id")
        .expect("response missing X-Request-Id")
        .to_string();
    let (status, body) =
        client::request(addr, "GET", &format!("/debug/traces/{id}"), None).expect("trace lookup");
    assert_eq!(status, 200, "504 trace {id} not retained: {body}");
    for phase in ["queue_wait", "batch_gather", "lane_exec"] {
        assert!(body.contains(phase), "trace missing {phase} span: {body}");
    }
    let (status, metrics) = client::request(addr, "GET", "/metrics", None).expect("metrics fetch");
    assert_eq!(status, 200);
    if let Err(e) = sqlgen_obs::validate_exposition(&metrics) {
        panic!("/metrics violates the exposition format: {e}");
    }
}

/// Spawns a sampler thread polling `depth()` every 20ms; returns
/// `(stop_flag, join_handle)`.
fn spawn_depth_sampler(
    server: &ServerHandle,
    phase_start: Instant,
) -> (
    std::sync::Arc<std::sync::atomic::AtomicBool>,
    std::thread::JoinHandle<Vec<(f64, usize)>>,
) {
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let depth_of = server.depth_probe();
    let sampler = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut timeline = Vec::new();
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                timeline.push((phase_start.elapsed().as_secs_f64(), depth_of()));
                std::thread::sleep(Duration::from_millis(20));
            }
            timeline
        })
    };
    (stop, sampler)
}

fn downsample(mut timeline: Vec<(f64, usize)>) -> Vec<(f64, usize)> {
    // Keep the report bounded: downsample long timelines to ≤200 points.
    if timeline.len() > 200 {
        let step = timeline.len().div_ceil(200);
        timeline = timeline.into_iter().step_by(step).collect();
    }
    timeline
}

fn run_phase(db: &Database, seed: u64, batch: usize, plan: &LoadPlan) -> PhaseResult {
    let schema = Schema::build("tpch", db, &harness_gen_config(seed), None);
    let server: ServerHandle = serve(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            batch,
            max_queue: 512,
            max_wait_ms: 2,
            max_batch_jobs: (batch * 8).max(16),
            read_timeout_ms: 120_000,
            write_timeout_ms: 120_000,
            ..ServeConfig::default()
        },
        vec![schema],
    )
    .expect("bind ephemeral port");
    let addr = server.addr();
    let (hits0, misses0, _) = server.cache_stats();

    let phase_start = Instant::now();
    let (sampler_stop, sampler) = spawn_depth_sampler(&server, phase_start);

    let all: Vec<WorkerStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..plan.workers)
            .map(|w| scope.spawn(move || run_worker(addr, w, plan, phase_start)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let seconds = phase_start.elapsed().as_secs_f64();
    sampler_stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let queue_depth_timeline = downsample(sampler.join().expect("queue sampler"));

    // Per-phase attribution for this batch width, then the trace/metrics
    // smoke contract — both against the still-running server.
    let queue_wait = read_breakdown("queue_wait", batch);
    let gather = read_breakdown("gather", batch);
    let exec = read_breakdown("exec", batch);
    trace_smoke(addr);
    let (hits1, misses1, _) = server.cache_stats();
    server.shutdown();

    let mut latencies: Vec<f64> = all.iter().flat_map(|s| s.latencies_ms.clone()).collect();
    latencies.sort_by(f64::total_cmp);
    let ok: usize = all.iter().map(|s| s.ok).sum();
    let lookups = (hits1 - hits0) + (misses1 - misses0);
    PhaseResult {
        name: format!("closed-batch-{batch}"),
        batch,
        connections: plan.workers,
        quantized: false,
        target_qps: plan.target_qps,
        seconds,
        ok,
        rejected: all.iter().map(|s| s.rejected).sum(),
        timeouts: all.iter().map(|s| s.timeouts).sum(),
        other_errors: all.iter().map(|s| s.other_errors).sum(),
        requests_per_sec: ok as f64 / seconds,
        queries_per_sec: (ok * plan.n_per_request) as f64 / seconds,
        latency_p50_ms: percentile(&latencies, 0.50),
        latency_p95_ms: percentile(&latencies, 0.95),
        latency_p99_ms: percentile(&latencies, 0.99),
        cache_hit_rate: if lookups > 0 {
            (hits1 - hits0) as f64 / lookups as f64
        } else {
            0.0
        },
        queue_wait,
        gather,
        exec,
        queue_depth_timeline,
    }
}

// ---------------------------------------------------------------------------
// Open-loop epoll client
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod open_loop {
    use super::{percentile, Instant};
    use sqlgen_serve::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::time::Duration;

    pub struct OpenPlan {
        pub connections: usize,
        /// Aggregate pacing target in requests/sec; 0 = closed loop (every
        /// connection fires as soon as its previous response lands).
        pub target_rps: f64,
        pub duration: Duration,
        pub n_per_request: usize,
        /// Seeds are `seed_base + (g % pool)`; `pool = 0` means every
        /// request gets a unique seed (pure cold).
        pub seed_base: u64,
        pub seed_pool: u64,
    }

    #[derive(Default)]
    pub struct OpenStats {
        pub sent: usize,
        pub ok: usize,
        pub rejected: usize,
        pub timeouts: usize,
        pub other_errors: usize,
        pub seconds: f64,
        pub latencies_ms: Vec<f64>,
        /// How late each request fired relative to its scheduled tick
        /// (client-side scheduling error, not server latency).
        pub send_delays_ms: Vec<f64>,
    }

    impl OpenStats {
        pub fn p(&mut self, q: f64) -> f64 {
            self.latencies_ms.sort_by(f64::total_cmp);
            percentile(&self.latencies_ms, q)
        }
    }

    struct OConn {
        stream: TcpStream,
        /// epoll token == index in the connection table; fixed at add().
        token: u64,
        out: Vec<u8>,
        out_pos: usize,
        buf: Vec<u8>,
        sent_at: Option<Instant>,
        next_due: Instant,
        ticks: u64,
        want_out: bool,
        dead: bool,
    }

    /// `(status, total_response_len)` once the buffer holds one complete
    /// response.
    fn try_parse(buf: &[u8]) -> Option<(u16, usize)> {
        let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
        let head = std::str::from_utf8(&buf[..head_end]).ok()?;
        let status: u16 = head.split(' ').nth(1)?.parse().ok()?;
        let mut content_length = 0usize;
        for line in head.split("\r\n").skip(1) {
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().ok()?;
                }
            }
        }
        let total = head_end + content_length;
        (buf.len() >= total).then_some((status, total))
    }

    /// Drives `connections` keep-alive sockets from one thread over epoll.
    /// Requests stop at `duration`; in-flight responses get a short drain
    /// grace so the tail is counted, not truncated.
    pub fn run(addr: SocketAddr, plan: &OpenPlan) -> OpenStats {
        let epoll = Epoll::new().expect("epoll");
        let interval = if plan.target_rps > 0.0 {
            Some(Duration::from_secs_f64(
                plan.connections as f64 / plan.target_rps,
            ))
        } else {
            None
        };
        let mut conns: Vec<OConn> = (0..plan.connections)
            .map(|k| {
                let stream = TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).expect("nodelay");
                stream.set_nonblocking(true).expect("nonblocking");
                epoll
                    .add(stream.as_raw_fd(), EPOLLIN, k as u64)
                    .expect("epoll add");
                OConn {
                    stream,
                    token: k as u64,
                    out: Vec::new(),
                    out_pos: 0,
                    buf: Vec::new(),
                    sent_at: None,
                    next_due: Instant::now(), // re-based below
                    ticks: 0,
                    want_out: false,
                    dead: false,
                }
            })
            .collect();
        // The schedule starts AFTER the whole fleet is connected —
        // connecting hundreds of sockets takes real time, and baselining
        // before it would put every early tick in the past, turning phase
        // start into a catch-up burst that floods the server queue.
        // Stagger connection k by k/C of one interval so the aggregate
        // schedule is evenly spaced, not a thundering herd.
        let start = Instant::now();
        for (k, c) in conns.iter_mut().enumerate() {
            c.next_due = match interval {
                Some(iv) => start + iv.mul_f64(k as f64 / plan.connections as f64),
                None => start,
            };
        }

        let mut stats = OpenStats::default();
        let mut seq: u64 = 0; // global request counter → seeds
        let deadline = start + plan.duration;
        let hard_stop = deadline + Duration::from_secs(10);
        let mut events = vec![EpollEvent { events: 0, data: 0 }; 1024];
        loop {
            let now = Instant::now();
            // Send phase: every idle connection whose tick is due fires.
            let mut nearest_due: Option<Instant> = None;
            if now < deadline {
                for (k, c) in conns.iter_mut().enumerate() {
                    if c.dead || c.sent_at.is_some() {
                        continue;
                    }
                    if now < c.next_due {
                        nearest_due =
                            Some(nearest_due.map_or(c.next_due, |d: Instant| d.min(c.next_due)));
                        continue;
                    }
                    let seed = plan.seed_base
                        + if plan.seed_pool > 0 {
                            seq % plan.seed_pool
                        } else {
                            seq
                        };
                    seq += 1;
                    let body = format!(
                        r#"{{"constraint":{{"metric":"cardinality","min":1,"max":500}},"n":{},"seed":{seed}}}"#,
                        plan.n_per_request
                    );
                    c.out = format!(
                        "POST /generate HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{body}",
                        body.len()
                    )
                    .into_bytes();
                    c.out_pos = 0;
                    c.sent_at = Some(Instant::now());
                    stats
                        .send_delays_ms
                        .push(now.saturating_duration_since(c.next_due).as_secs_f64() * 1e3);
                    c.ticks += 1;
                    if let Some(iv) = interval {
                        // Next tick stays on the absolute schedule (no
                        // drift from service time) — but missed ticks are
                        // skipped, not replayed: a connection that fell
                        // behind would otherwise fire back-to-back and turn
                        // the paced phase into a closed loop at full depth.
                        let stagger = iv.mul_f64(k as f64 / plan.connections as f64);
                        let elapsed = now.saturating_duration_since(start + stagger);
                        let caught_up =
                            (elapsed.as_secs_f64() / iv.as_secs_f64()).floor() as u64 + 1;
                        c.ticks = c.ticks.max(caught_up);
                        c.next_due = start + stagger + iv.mul_f64(c.ticks as f64);
                    }
                    stats.sent += 1;
                    flush(&epoll, c);
                }
            }

            // Termination: past the deadline and nothing left in flight.
            let in_flight = conns.iter().filter(|c| c.sent_at.is_some()).count();
            if (now >= deadline && in_flight == 0) || now >= hard_stop {
                stats.other_errors += in_flight; // hard-stop stragglers
                stats.seconds = start.elapsed().as_secs_f64();
                return stats;
            }

            let timeout_ms = if now >= deadline {
                25
            } else {
                match nearest_due {
                    Some(due) => {
                        (due.saturating_duration_since(now).as_millis() as i32).clamp(0, 25)
                    }
                    None => 25,
                }
            };
            let n = epoll.wait(&mut events, timeout_ms).expect("epoll wait");
            for ev in &events[..n] {
                let k = { ev.data } as usize;
                let bits = { ev.events };
                let c = &mut conns[k];
                if c.dead {
                    continue;
                }
                if bits & (EPOLLERR | EPOLLHUP) != 0 {
                    fail_conn(&epoll, c, &mut stats);
                    continue;
                }
                if bits & EPOLLOUT != 0 {
                    flush(&epoll, c);
                }
                if bits & EPOLLIN != 0 {
                    read_ready(&epoll, c, &mut stats);
                }
            }
        }
    }

    fn fail_conn(epoll: &Epoll, c: &mut OConn, stats: &mut OpenStats) {
        if c.sent_at.take().is_some() {
            stats.other_errors += 1;
        }
        let _ = epoll.delete(c.stream.as_raw_fd());
        c.dead = true;
    }

    fn flush(epoll: &Epoll, c: &mut OConn) {
        while c.out_pos < c.out.len() {
            match c.stream.write(&c.out[c.out_pos..]) {
                Ok(0) => break,
                Ok(n) => c.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if !c.want_out {
                        c.want_out = true;
                        let _ = epoll.modify(c.stream.as_raw_fd(), EPOLLIN | EPOLLOUT, c.token);
                    }
                    return;
                }
                Err(_) => {
                    c.dead = true;
                    return;
                }
            }
        }
        c.out.clear();
        c.out_pos = 0;
        if c.want_out {
            c.want_out = false;
            let _ = epoll.modify(c.stream.as_raw_fd(), EPOLLIN, c.token);
        }
    }

    fn read_ready(epoll: &Epoll, c: &mut OConn, stats: &mut OpenStats) {
        let mut scratch = [0u8; 16384];
        loop {
            match c.stream.read(&mut scratch) {
                Ok(0) => {
                    fail_conn(epoll, c, stats);
                    return;
                }
                Ok(n) => c.buf.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    fail_conn(epoll, c, stats);
                    return;
                }
            }
        }
        while let Some((status, total)) = try_parse(&c.buf) {
            c.buf.drain(..total);
            if let Some(sent) = c.sent_at.take() {
                match status {
                    200 => {
                        stats.ok += 1;
                        stats.latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                    }
                    429 => stats.rejected += 1,
                    504 => stats.timeouts += 1,
                    _ => stats.other_errors += 1,
                }
            }
        }
    }
}

fn main() {
    let mut smoke = false;
    let mut out_dir = String::from(".");
    let mut qps = 0.0f64;
    let mut workers = 8usize;
    let mut requests = 25usize;
    let mut connections = 1024usize;
    let mut quant = false;
    let mut qps_sweep = false;
    let mut rest = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--quant" => quant = true,
            "--qps-sweep" => qps_sweep = true,
            "--out" => out_dir = it.next().expect("--out needs a value"),
            "--qps" => {
                qps = it
                    .next()
                    .expect("--qps needs a value")
                    .parse()
                    .expect("--qps must be a number")
            }
            "--workers" => {
                workers = it
                    .next()
                    .expect("--workers needs a value")
                    .parse()
                    .expect("--workers must be an integer")
            }
            "--connections" => {
                connections = it
                    .next()
                    .expect("--connections needs a value")
                    .parse()
                    .expect("--connections must be an integer")
            }
            "--requests" => {
                requests = it
                    .next()
                    .expect("--requests needs a value")
                    .parse()
                    .expect("--requests must be an integer")
            }
            _ => rest.push(a),
        }
    }
    let mut args = HarnessArgs::parse_from(rest);
    if args.batch <= 1 {
        args.batch = 8;
    }
    let mut n_per_request = 4usize;
    if smoke {
        args.scale = args.scale.min(0.05);
        workers = workers.min(4);
        requests = requests.min(5);
        n_per_request = 2;
        connections = connections.min(256);
    }
    args.init_obs();
    sqlgen_obs::enable_metrics();

    let hardware_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let plan = LoadPlan {
        workers,
        requests,
        n_per_request,
        target_qps: qps,
    };
    sqlgen_obs::obs_info!(
        "[serve-bench] tpch scale={} seed={} workers={} requests/worker={} n={} connections={} hw_threads={}",
        args.scale,
        args.seed,
        plan.workers,
        plan.requests,
        plan.n_per_request,
        connections,
        hardware_threads
    );
    let db = Benchmark::TpcH.build(args.scale, args.seed);

    let serial = run_phase(&db, args.seed, 1, &plan);
    let batched = run_phase(&db, args.seed, args.batch, &plan);
    for p in [&serial, &batched] {
        sqlgen_obs::obs_info!(
            "[serve-bench] {}: {:.1} q/s ({} ok, {} rejected, {} timeouts), p95 {:.1}ms",
            p.name,
            p.queries_per_sec,
            p.ok,
            p.rejected,
            p.timeouts,
            p.latency_p95_ms
        );
        sqlgen_obs::obs_info!(
            "[serve-bench] {} attribution: queue_wait p50/p95 {:.2}/{:.2}ms, \
             gather {:.2}/{:.2}ms, exec {:.2}/{:.2}ms",
            p.name,
            p.queue_wait.p50_ms,
            p.queue_wait.p95_ms,
            p.gather.p50_ms,
            p.gather.p95_ms,
            p.exec.p50_ms,
            p.exec.p95_ms
        );
    }
    let speedup = batched.queries_per_sec / serial.queries_per_sec.max(f64::MIN_POSITIVE);
    sqlgen_obs::obs_info!(
        "[serve-bench] batch={} vs batch=1: {:.2}x queries/sec",
        batched.batch,
        speedup
    );

    let mut phases = vec![serial, batched];
    #[cfg(target_os = "linux")]
    if connections > 0 {
        let (cold, warm) = run_open_phases(
            &db,
            args.seed,
            args.batch * 2,
            connections,
            qps,
            n_per_request,
            quant,
            smoke,
        );
        phases.push(cold);
        phases.push(warm);
    }
    #[cfg(not(target_os = "linux"))]
    {
        sqlgen_obs::obs_info!("[serve-bench] open-loop phases need Linux epoll; skipped");
    }

    let mut sweep_points: Vec<SweepPoint> = Vec::new();
    if qps_sweep {
        #[cfg(target_os = "linux")]
        {
            sweep_points = run_qps_sweep(
                &db,
                args.seed,
                args.batch * 2,
                connections,
                n_per_request,
                quant,
                smoke,
            );
        }
        #[cfg(not(target_os = "linux"))]
        {
            sqlgen_obs::obs_info!("[serve-bench] --qps-sweep needs Linux epoll; skipped");
        }
    }

    let warm_vs_cold = match (
        phases.iter().find(|p| p.name == "open-cold"),
        phases.iter().find(|p| p.name == "open-warm"),
    ) {
        (Some(c), Some(w)) => w.queries_per_sec / c.queries_per_sec.max(f64::MIN_POSITIVE),
        _ => 0.0,
    };

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"benchmark\": \"tpch\",");
    let _ = writeln!(json, "  \"scale\": {},", args.scale);
    let _ = writeln!(json, "  \"seed\": {},", args.seed);
    let _ = writeln!(json, "  \"hardware_threads\": {hardware_threads},");
    let _ = writeln!(json, "  \"workers\": {},", plan.workers);
    let _ = writeln!(json, "  \"connections\": {connections},");
    let _ = writeln!(json, "  \"requests_per_worker\": {},", plan.requests);
    let _ = writeln!(json, "  \"queries_per_request\": {},", plan.n_per_request);
    let _ = writeln!(json, "  \"target_qps\": {qps},");
    let phase_jsons: Vec<String> = phases.iter().map(phase_json).collect();
    let _ = writeln!(
        json,
        "  \"phases\": [\n    {}\n  ],",
        phase_jsons.join(",\n    ")
    );
    let sweep_jsons: Vec<String> = sweep_points.iter().map(sweep_json).collect();
    let _ = writeln!(
        json,
        "  \"qps_sweep\": [\n    {}\n  ],",
        sweep_jsons.join(",\n    ")
    );
    let _ = writeln!(
        json,
        "  \"batch_speedup_queries_per_sec\": {{\"batch\": {}, \"vs_batch_1\": {:.2}}},",
        phases[1].batch, speedup
    );
    let _ = writeln!(
        json,
        "  \"warm_cache_speedup_queries_per_sec\": {warm_vs_cold:.2}"
    );
    json.push_str("}\n");
    std::fs::create_dir_all(&out_dir)
        .unwrap_or_else(|e| panic!("cannot create out dir {out_dir}: {e}"));
    let path = std::path::Path::new(&out_dir).join("BENCH_serve.json");
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    sqlgen_obs::obs_info!("[serve-bench] wrote {}", path.display());

    args.finish_obs();
    // The smoke contract for CI: traffic flowed in every phase, the warm
    // phase actually exercised the cache, and every server shut down
    // cleanly (reaching this line proves the joins).
    let mut failed = false;
    for p in &phases {
        if p.queries_per_sec <= 0.0 {
            eprintln!(
                "[serve-bench] FAIL: phase {} sustained zero throughput",
                p.name
            );
            failed = true;
        }
        if p.name == "open-warm" && p.cache_hit_rate <= 0.9 {
            eprintln!(
                "[serve-bench] FAIL: open-warm cache hit rate {:.3} <= 0.9",
                p.cache_hit_rate
            );
            failed = true;
        }
    }
    for p in &sweep_points {
        if p.ok == 0 {
            eprintln!(
                "[serve-bench] FAIL: qps-sweep point at {:.0}% completed zero requests",
                p.fraction * 100.0
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Runs the open-loop cold and warm phases against one quant-or-f32 server
/// per phase. Cold paces unique seeds at `qps` (or 60% of a calibration
/// burst when `qps` is 0); warm replays a 64-seed working set closed-loop
/// after a sequential warmup pass, so nearly every request is a cache hit.
#[cfg(target_os = "linux")]
#[allow(clippy::too_many_arguments)]
fn run_open_phases(
    db: &Database,
    seed: u64,
    batch: usize,
    connections: usize,
    qps: f64,
    n_per_request: usize,
    quant: bool,
    smoke: bool,
) -> (PhaseResult, PhaseResult) {
    const WARM_POOL: u64 = 64;
    let start_server = || {
        let mut gen_config = harness_gen_config(seed);
        gen_config.quantize = quant;
        let schema = Schema::build("tpch", db, &gen_config, None);
        serve(
            ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                batch,
                max_queue: 512,
                // Paced arrivals are smoother than closed-loop bursts; a
                // slightly longer gather window keeps batches full without
                // a standing queue.
                max_wait_ms: 4,
                max_batch_jobs: (batch * 8).max(16),
                read_timeout_ms: 120_000,
                write_timeout_ms: 120_000,
                ..ServeConfig::default()
            },
            vec![schema],
        )
        .expect("bind ephemeral port")
    };
    let (cold_secs, warm_secs) = if smoke {
        (1.2f64, 1.2f64)
    } else {
        (6.0f64, 4.0f64)
    };

    // --- open-cold --------------------------------------------------------
    let server = start_server();
    let addr = server.addr();
    let target_rps = if qps > 0.0 {
        qps
    } else {
        // Calibration burst: short closed-loop run over a few connections,
        // unique seeds from a disjoint range; pace the timed run at 60%.
        let cal = open_loop::run(
            addr,
            &open_loop::OpenPlan {
                connections: connections.min(64),
                target_rps: 0.0,
                duration: Duration::from_secs_f64(if smoke { 0.5 } else { 1.0 }),
                n_per_request,
                seed_base: 3 << 40,
                seed_pool: 0,
            },
        );
        let capacity = cal.ok as f64 / cal.seconds.max(1e-9);
        // Closed-loop calibration overstates paced capacity (a deep queue
        // always forms full batches); 60% leaves headroom for the
        // shallower batches a smooth arrival process produces.
        sqlgen_obs::obs_info!(
            "[serve-bench] open-cold calibration: {:.0} req/s capacity → pacing at 60%",
            capacity
        );
        (capacity * 0.60).max(1.0)
    };
    let (hits0, misses0, _) = server.cache_stats();
    let phase_start = Instant::now();
    let (stop, sampler) = spawn_depth_sampler(&server, phase_start);
    let mut cold_stats = open_loop::run(
        addr,
        &open_loop::OpenPlan {
            connections,
            target_rps,
            duration: Duration::from_secs_f64(cold_secs),
            n_per_request,
            seed_base: 1 << 40,
            seed_pool: 0,
        },
    );
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let cold_sent = cold_stats.sent;
    {
        let mut d = cold_stats.send_delays_ms.clone();
        d.sort_by(f64::total_cmp);
        sqlgen_obs::obs_info!(
            "[serve-bench] open-cold send delay p50/p95/max {:.1}/{:.1}/{:.1}ms",
            percentile(&d, 0.50),
            percentile(&d, 0.95),
            d.last().copied().unwrap_or(0.0)
        );
    }
    let cold_timeline = downsample(sampler.join().expect("queue sampler"));
    let (hits1, misses1, _) = server.cache_stats();
    let cold_breakdown = (
        read_breakdown("queue_wait", batch),
        read_breakdown("gather", batch),
        read_breakdown("exec", batch),
    );
    server.shutdown();
    let cold = open_phase_result(
        "open-cold",
        batch,
        connections,
        quant,
        target_rps,
        &mut cold_stats,
        n_per_request,
        (hits1 - hits0, misses1 - misses0),
        cold_breakdown,
        cold_timeline,
    );
    sqlgen_obs::obs_info!(
        "[serve-bench] open-cold: {:.1} q/s at {:.0} target req/s over {:.2}s ({} sent, {} ok, {} rejected, \
         {} timeouts, {} errors), p95 {:.1}ms, hit-rate {:.3}",
        cold.queries_per_sec,
        target_rps,
        cold.seconds,
        cold_sent,
        cold.ok,
        cold.rejected,
        cold.timeouts,
        cold.other_errors,
        cold.latency_p95_ms,
        cold.cache_hit_rate
    );

    // --- open-warm --------------------------------------------------------
    let server = start_server();
    let addr = server.addr();
    // Sequential warmup: populate the 64-seed working set once so the
    // timed window measures steady-state hits, not fill.
    {
        let mut c = Client::connect(addr, Duration::from_secs(120)).expect("warmup connect");
        for s in 0..WARM_POOL {
            let body = format!(
                r#"{{"constraint":{{"metric":"cardinality","min":1,"max":500}},"n":{n_per_request},"seed":{}}}"#,
                (2u64 << 40) + s
            );
            let (status, resp) = c
                .request("POST", "/generate", Some(&body))
                .expect("warmup request");
            assert_eq!(status, 200, "warmup request failed: {resp}");
        }
    }
    let (hits0, misses0, _) = server.cache_stats();
    let phase_start = Instant::now();
    let (stop, sampler) = spawn_depth_sampler(&server, phase_start);
    let mut warm_stats = open_loop::run(
        addr,
        &open_loop::OpenPlan {
            connections,
            target_rps: 0.0, // closed loop: measure hit-path capacity
            duration: Duration::from_secs_f64(warm_secs),
            n_per_request,
            seed_base: 2 << 40,
            seed_pool: WARM_POOL,
        },
    );
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let warm_timeline = downsample(sampler.join().expect("queue sampler"));
    let (hits1, misses1, _) = server.cache_stats();
    let warm_breakdown = (
        read_breakdown("queue_wait", batch),
        read_breakdown("gather", batch),
        read_breakdown("exec", batch),
    );
    server.shutdown();
    let warm = open_phase_result(
        "open-warm",
        batch,
        connections,
        quant,
        0.0,
        &mut warm_stats,
        n_per_request,
        (hits1 - hits0, misses1 - misses0),
        warm_breakdown,
        warm_timeline,
    );
    sqlgen_obs::obs_info!(
        "[serve-bench] open-warm: {:.1} q/s ({} ok, {} errors), p95 {:.1}ms, hit-rate {:.3}",
        warm.queries_per_sec,
        warm.ok,
        warm.other_errors,
        warm.latency_p95_ms,
        warm.cache_hit_rate
    );
    (cold, warm)
}

#[cfg(target_os = "linux")]
#[allow(clippy::too_many_arguments)]
fn open_phase_result(
    name: &str,
    batch: usize,
    connections: usize,
    quantized: bool,
    target_rps: f64,
    stats: &mut open_loop::OpenStats,
    n_per_request: usize,
    (hits, misses): (u64, u64),
    (queue_wait, gather, exec): (PhaseBreakdown, PhaseBreakdown, PhaseBreakdown),
    queue_depth_timeline: Vec<(f64, usize)>,
) -> PhaseResult {
    let lookups = hits + misses;
    PhaseResult {
        name: name.to_string(),
        batch,
        connections,
        quantized,
        target_qps: target_rps * n_per_request as f64,
        seconds: stats.seconds,
        ok: stats.ok,
        rejected: stats.rejected,
        timeouts: stats.timeouts,
        other_errors: stats.other_errors,
        requests_per_sec: stats.ok as f64 / stats.seconds.max(1e-9),
        queries_per_sec: (stats.ok * n_per_request) as f64 / stats.seconds.max(1e-9),
        latency_p50_ms: stats.p(0.50),
        latency_p95_ms: stats.p(0.95),
        latency_p99_ms: stats.p(0.99),
        cache_hit_rate: if lookups > 0 {
            hits as f64 / lookups as f64
        } else {
            0.0
        },
        queue_wait,
        gather,
        exec,
        queue_depth_timeline,
    }
}

/// One offered-rate point of the `--qps-sweep` grid.
struct SweepPoint {
    /// Fraction of the calibrated closed-loop capacity offered.
    fraction: f64,
    target_rps: f64,
    achieved_rps: f64,
    queries_per_sec: f64,
    ok: usize,
    rejected: usize,
    timeouts: usize,
    other_errors: usize,
    latency_p50_ms: f64,
    latency_p95_ms: f64,
}

/// Paced rate sweep: one server, a calibration burst, then a short paced
/// run per grid fraction. Seeds are unique per run (disjoint ranges), so
/// every request exercises the full generation path — this measures the
/// saturation curve, not the cache.
#[cfg(target_os = "linux")]
fn run_qps_sweep(
    db: &Database,
    seed: u64,
    batch: usize,
    connections: usize,
    n_per_request: usize,
    quant: bool,
    smoke: bool,
) -> Vec<SweepPoint> {
    let mut gen_config = harness_gen_config(seed);
    gen_config.quantize = quant;
    let schema = Schema::build("tpch", db, &gen_config, None);
    let server = serve(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            batch,
            max_queue: 512,
            max_wait_ms: 4,
            max_batch_jobs: (batch * 8).max(16),
            read_timeout_ms: 120_000,
            write_timeout_ms: 120_000,
            ..ServeConfig::default()
        },
        vec![schema],
    )
    .expect("bind ephemeral port");
    let addr = server.addr();
    let cal = open_loop::run(
        addr,
        &open_loop::OpenPlan {
            connections: connections.min(64),
            target_rps: 0.0,
            duration: Duration::from_secs_f64(if smoke { 0.5 } else { 1.0 }),
            n_per_request,
            seed_base: 9 << 40,
            seed_pool: 0,
        },
    );
    let capacity = (cal.ok as f64 / cal.seconds.max(1e-9)).max(1.0);
    sqlgen_obs::obs_info!(
        "[serve-bench] qps-sweep calibration: {capacity:.0} req/s closed-loop capacity"
    );
    let fractions: &[f64] = if smoke {
        &[0.4, 0.8]
    } else {
        &[0.25, 0.50, 0.75, 0.90, 1.10]
    };
    let run_secs = if smoke { 0.8 } else { 3.0 };
    let mut points = Vec::new();
    for (i, &fraction) in fractions.iter().enumerate() {
        let target_rps = (capacity * fraction).max(1.0);
        let mut stats = open_loop::run(
            addr,
            &open_loop::OpenPlan {
                connections,
                target_rps,
                duration: Duration::from_secs_f64(run_secs),
                n_per_request,
                // Disjoint seed range per rate point → no cache hits.
                seed_base: (10 + i as u64) << 40,
                seed_pool: 0,
            },
        );
        let point = SweepPoint {
            fraction,
            target_rps,
            achieved_rps: stats.ok as f64 / stats.seconds.max(1e-9),
            queries_per_sec: (stats.ok * n_per_request) as f64 / stats.seconds.max(1e-9),
            ok: stats.ok,
            rejected: stats.rejected,
            timeouts: stats.timeouts,
            other_errors: stats.other_errors,
            latency_p50_ms: stats.p(0.50),
            latency_p95_ms: stats.p(0.95),
        };
        sqlgen_obs::obs_info!(
            "[serve-bench] qps-sweep {:.0}%: offered {:.0} req/s → achieved {:.1} req/s \
             ({:.1} q/s), p50/p95 {:.1}/{:.1}ms, {} rejected",
            fraction * 100.0,
            target_rps,
            point.achieved_rps,
            point.queries_per_sec,
            point.latency_p50_ms,
            point.latency_p95_ms,
            point.rejected
        );
        points.push(point);
    }
    server.shutdown();
    points
}

fn sweep_json(p: &SweepPoint) -> String {
    format!(
        "{{\"fraction\": {:.2}, \"target_rps\": {:.1}, \"achieved_rps\": {:.2}, \
         \"queries_per_sec\": {:.2}, \"ok\": {}, \"rejected\": {}, \"timeouts\": {}, \
         \"other_errors\": {}, \"latency_p50_ms\": {:.2}, \"latency_p95_ms\": {:.2}}}",
        p.fraction,
        p.target_rps,
        p.achieved_rps,
        p.queries_per_sec,
        p.ok,
        p.rejected,
        p.timeouts,
        p.other_errors,
        p.latency_p50_ms,
        p.latency_p95_ms
    )
}

fn breakdown_json(b: &PhaseBreakdown) -> String {
    format!(
        "{{\"samples\": {}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}}}",
        b.samples, b.p50_ms, b.p95_ms
    )
}

fn phase_json(p: &PhaseResult) -> String {
    let timeline: Vec<String> = p
        .queue_depth_timeline
        .iter()
        .map(|(t, d)| format!("[{t:.3}, {d}]"))
        .collect();
    format!(
        "{{\"name\": \"{}\", \"batch\": {}, \"connections\": {}, \"quantized\": {}, \
         \"target_qps\": {:.1}, \"seconds\": {:.3}, \"ok\": {}, \"rejected\": {}, \
         \"timeouts\": {}, \"other_errors\": {}, \"requests_per_sec\": {:.2}, \
         \"queries_per_sec\": {:.2}, \"cache_hit_rate\": {:.4}, \"latency_p50_ms\": {:.2}, \
         \"latency_p95_ms\": {:.2}, \"latency_p99_ms\": {:.2}, \
         \"phase_breakdown\": {{\"queue_wait\": {}, \"gather\": {}, \"exec\": {}}}, \
         \"queue_depth_timeline\": [{}]}}",
        p.name,
        p.batch,
        p.connections,
        p.quantized,
        p.target_qps,
        p.seconds,
        p.ok,
        p.rejected,
        p.timeouts,
        p.other_errors,
        p.requests_per_sec,
        p.queries_per_sec,
        p.cache_hit_rate,
        p.latency_p50_ms,
        p.latency_p95_ms,
        p.latency_p99_ms,
        breakdown_json(&p.queue_wait),
        breakdown_json(&p.gather),
        breakdown_json(&p.exec),
        timeline.join(", ")
    )
}
