//! The `serve-mix` workload: an open loop at one fixed offered rate
//! against `sqlgen serve`, in its own process.
//!
//! The policy is pre-trained here (the same `train` call the CLI makes)
//! and handed to the server as a checkpoint in `--model-dir`; the server
//! then builds the data, loads the checkpoint and binds. The client is one
//! thread with two keep-alive connections driven by `epoll`; each request
//! is timed from when it was due.

use crate::genwork::{self, exec_satisfied, Totals, MODEL_SEED, SCALE};
use crate::measure::{self, median, quantile, ratio, secs, RegSnap};
use crate::{splitmix, Report};
use learned_sqlgen::core::{Constraint, ExecDb, GenConfig, LearnedSqlGen};
use learned_sqlgen::engine::{parse, render};
use learned_sqlgen::serve::client::Client;
use learned_sqlgen::serve::sys::{Epoll, EpollEvent, EPOLLIN};
use learned_sqlgen::storage::gen::Benchmark;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered rate, requests per second: a sixth of what the server sustains
/// on two connections with this mix and model on a 2-CPU host (about 48/s).
/// At 16/s (a third) and 24/s (a half), requests queued behind the slow
/// `n` = 16 ones often enough that the same requests' p50 moved by half
/// with host speed and the p99 by more; at 8/s latency is close to service
/// time. Fixed; never recalibrated per run.
const RATE: f64 = 8.0;
/// Open-loop blocks (of `BLOCK` requests) per 25 s of `--seconds`: the
/// loop runs 1.2 x `--seconds`.
const BLOCKS_PER_25S: usize = 6;
/// Hot requests, each repeated once per block: 25% of the requests (kept
/// away from 1/2 so the latency median sits inside the miss mode).
const HOT_SET: usize = 10;
/// A run whose client sent any request later than this is invalid.
const MAX_SEND_LATE_MS: f64 = 1000.0;
/// Fresh server starts per run (median reported as `setup_s`).
const SERVER_STARTS: usize = 5;
const TRAIN_EPISODES: usize = 300;
const TRAIN_CHUNK: usize = 25;
/// The open loop runs in this many segments. The pre-training is repeated
/// (identically) before the first, between segments and after the last, so
/// the training throughput samples the whole run rather than two moments
/// of it: on a shared host the speed of the same training moved by up to
/// 1.6x from one second to the next.
const SEGMENTS: usize = 6;
/// Training constraint of the served policy.
const TRAIN_RANGE: (f64, f64) = (1000.0, 2000.0);
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// One request of the mix.
#[derive(Clone)]
struct Req {
    constraint: Constraint,
    /// JSON constraint object as sent.
    constraint_json: String,
    n: usize,
    seed: u64,
    hot: Option<usize>,
}

impl Req {
    fn body(&self) -> String {
        format!(
            r#"{{"constraint":{},"n":{},"seed":{},"timeout_ms":60000}}"#,
            self.constraint_json, self.n, self.seed
        )
    }

    fn http(&self) -> Vec<u8> {
        let body = self.body();
        format!(
            "POST /generate HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }
}

/// The five constraints of the mix: three cardinality-range widths, one
/// cardinality point and one cost range.
fn constraint(kind: usize) -> (Constraint, &'static str) {
    match kind {
        0 => (
            Constraint::cardinality_range(1000.0, 2000.0),
            r#"{"metric":"cardinality","min":1000,"max":2000}"#,
        ),
        1 => (
            Constraint::cardinality_range(100.0, 10000.0),
            r#"{"metric":"cardinality","min":100,"max":10000}"#,
        ),
        2 => (
            Constraint::cardinality_range(1000.0, 1200.0),
            r#"{"metric":"cardinality","min":1000,"max":1200}"#,
        ),
        3 => (
            Constraint::cardinality_point(1000.0),
            r#"{"metric":"cardinality","point":1000}"#,
        ),
        _ => (
            Constraint::cost_range(10.0, 1000.0),
            r#"{"metric":"cost","min":10,"max":1000}"#,
        ),
    }
}

fn request(kind: usize, n: usize, seed: u64, hot: Option<usize>) -> Req {
    let (constraint, json) = constraint(kind);
    Req {
        constraint,
        constraint_json: json.to_string(),
        n,
        seed,
        hot,
    }
}

/// Fisher-Yates shuffle driven by `rng`.
fn shuffle<T>(items: &mut [T], rng: &mut u64) {
    for i in (1..items.len()).rev() {
        *rng = splitmix(*rng);
        items.swap(i, (*rng % (i as u64 + 1)) as usize);
    }
}

/// Sizes of `n` in each block, per constraint (weights 3/2/1).
const BLOCK_NS: [usize; 6] = [1, 1, 1, 4, 4, BIG_N];
/// The largest request size of the mix.
const BIG_N: usize = 16;
/// Requests per block: every constraint with every `BLOCK_NS` entry,
/// plus each hot request once (`HOT_SET` = 25% of the block).
const BLOCK: usize = 5 * BLOCK_NS.len() + HOT_SET;

/// The request schedule: the hot set and the open-loop sequence. The
/// requests are the same in every run (request seeds derive from
/// `MODEL_SEED`), so every run serves the same work; the workload seed
/// decides the order in which they arrive. The sequence is stratified:
/// every block of `BLOCK` requests holds the same mix (with its own
/// request seeds) in a seeded order.
fn schedule(seed: u64, blocks: usize) -> (Vec<Req>, Vec<Req>) {
    let hot: Vec<Req> = (0..HOT_SET)
        .map(|h| {
            request(
                h % 5,
                [1, 4][h / 5],
                splitmix(MODEL_SEED ^ (0x40_0000 + h as u64)),
                Some(h),
            )
        })
        .collect();
    let mut order = splitmix(seed ^ 0x5e7e_0000);
    let mut request_seed = splitmix(MODEL_SEED ^ 0x5e7e_0000);
    let mut reqs = Vec::with_capacity(blocks * BLOCK);
    for _ in 0..blocks {
        let mut block: Vec<Req> = hot.clone();
        for kind in 0..5 {
            for &n in &BLOCK_NS {
                request_seed = splitmix(request_seed);
                block.push(request(kind, n, request_seed, None));
            }
        }
        // The `n` = 16 requests (the slowest) take every `stride`-th slot,
        // in seeded order, so two of them never queue behind each other;
        // the rest fill the other slots in seeded order.
        let (mut big, mut rest): (Vec<Req>, Vec<Req>) =
            block.into_iter().partition(|r| r.n == BIG_N);
        shuffle(&mut big, &mut order);
        shuffle(&mut rest, &mut order);
        let stride = BLOCK / big.len();
        let (mut big, mut rest) = (big.into_iter(), rest.into_iter());
        for slot in 0..BLOCK {
            let next = if slot % stride == 0 { big.next() } else { None };
            reqs.push(next.or_else(|| rest.next()).expect("BLOCK requests"));
        }
    }
    (hot, reqs)
}

/// A running `sqlgen serve`; killed and reaped on drop.
struct Server {
    child: Child,
    addr: SocketAddr,
    log: Option<std::thread::JoinHandle<()>>,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(log) = self.log.take() {
            let _ = log.join();
        }
    }
}

/// Starts the server and waits until `/healthz` answers 200. Returns it
/// with the set-up time (spawn to first 200).
fn start_server(sqlgen: &Path, seed: u64, model_dir: &Path) -> (Server, f64) {
    let t0 = Instant::now();
    let mut child = Command::new(sqlgen)
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--event-threads",
            "1",
            "--shards",
            "1",
        ])
        .args([
            "--batch",
            "8",
            "--scale",
            &SCALE.to_string(),
            "--seed",
            &seed.to_string(),
        ])
        .arg("--model-dir")
        .arg(model_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("cannot start {}: {e}", sqlgen.display()));
    // The log is drained for the server's whole life so it never blocks
    // on a full pipe; the bound address is read off its banner.
    let stderr = child.stderr.take().expect("piped stderr");
    let (tx, rx) = mpsc::channel();
    let log = std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            if let Some(addr) = line.strip_prefix("serving on http://") {
                let _ = tx.send(addr.trim().to_string());
            } else if line.contains("error") || line.contains("warn") {
                eprintln!("perfbench: server: {line}");
            }
        }
    });
    let mut server = Server {
        child,
        addr: "127.0.0.1:0".parse().expect("literal address"),
        log: Some(log),
    };
    let addr = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("server printed its address");
    server.addr = addr.parse().expect("server address");
    loop {
        let healthy = Client::connect(server.addr, IO_TIMEOUT)
            .and_then(|mut c| c.request("GET", "/healthz", None))
            .is_ok_and(|(status, _)| status == 200);
        if healthy {
            break;
        }
        assert!(secs(t0) < 60.0, "server never became healthy");
        std::thread::sleep(Duration::from_millis(1));
    }
    let setup_s = secs(t0);
    (server, setup_s)
}

/// One keep-alive connection of the open-loop client.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Index of the outstanding request and when it was sent.
    busy: Option<(usize, Instant)>,
    last_used: Instant,
}

/// Opens connection `k` of the open loop and registers it with `epoll`.
fn connect(addr: SocketAddr, epoll: &Epoll, k: u64) -> TcpStream {
    let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream.set_nonblocking(true).expect("nonblocking");
    epoll
        .add(stream.as_raw_fd(), EPOLLIN, k)
        .expect("epoll add");
    stream
}

/// A complete response parsed off `buf`, if one is there.
fn take_response(buf: &mut Vec<u8>) -> Option<(u16, String)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status: u16 = head.split_whitespace().nth(1)?.parse().ok()?;
    let len: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .unwrap_or(0);
    if buf.len() < head_end + len {
        return None;
    }
    let body = String::from_utf8_lossy(&buf[head_end..head_end + len]).into_owned();
    buf.drain(..head_end + len);
    Some((status, body))
}

/// What the open loop observed.
#[derive(Default)]
struct LoopResult {
    /// Per request: status and body (`None` if never answered).
    responses: Vec<Option<(u16, String)>>,
    latency_ms: Vec<f64>,
    /// Latency from the actual send, for the client-overhead layer.
    from_send_ms: Vec<f64>,
    late_ms: Vec<f64>,
    wall_s: f64,
}

impl LoopResult {
    /// Appends the next segment's observations.
    fn extend(&mut self, next: LoopResult) {
        self.responses.extend(next.responses);
        self.latency_ms.extend(next.latency_ms);
        self.from_send_ms.extend(next.from_send_ms);
        self.late_ms.extend(next.late_ms);
        self.wall_s += next.wall_s;
    }
}

fn open_loop(addr: SocketAddr, reqs: &[Req], rate: f64) -> LoopResult {
    let epoll = Epoll::new().expect("epoll");
    let mut conns: Vec<Conn> = (0..2)
        .map(|k| Conn {
            stream: connect(addr, &epoll, k),
            buf: Vec::new(),
            busy: None,
            last_used: Instant::now(),
        })
        .collect();
    let wire: Vec<Vec<u8>> = reqs.iter().map(Req::http).collect();
    let mut out = LoopResult {
        responses: vec![None; reqs.len()],
        latency_ms: Vec::with_capacity(reqs.len()),
        from_send_ms: Vec::with_capacity(reqs.len()),
        late_ms: Vec::with_capacity(reqs.len()),
        wall_s: 0.0,
    };
    let mut events = [EpollEvent { events: 0, data: 0 }; 4];
    let mut next = 0usize;
    let mut done = 0usize;
    let t0 = Instant::now();
    let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 / rate);
    while done < reqs.len() {
        // Send every due request a free connection can take: the one
        // idle longest, so no connection reaches the server's idle timeout.
        while next < reqs.len() && Instant::now() >= due(next) {
            let Some(conn) = conns
                .iter_mut()
                .filter(|c| c.busy.is_none())
                .min_by_key(|c| c.last_used)
            else {
                break;
            };
            let now = Instant::now();
            out.late_ms.push((now - due(next)).as_secs_f64() * 1e3);
            write_all(&mut conn.stream, &wire[next]);
            conn.busy = Some((next, now));
            conn.last_used = now;
            next += 1;
        }
        // Wait for a response or the next due time, whichever is first.
        let wait = if next < reqs.len() && conns.iter().any(|c| c.busy.is_none()) {
            due(next).saturating_duration_since(Instant::now())
        } else {
            IO_TIMEOUT
        };
        let ready = epoll
            .wait(&mut events, wait.as_millis().min(i32::MAX as u128) as i32)
            .expect("epoll wait");
        assert!(
            ready > 0 || wait < IO_TIMEOUT,
            "no response within {IO_TIMEOUT:?}"
        );
        if ready == 0 && wait < Duration::from_millis(1) {
            // Sub-millisecond remainder: sleep it off instead of spinning.
            std::thread::sleep(wait);
        }
        for ev in &events[..ready] {
            let conn = &mut conns[ev.data as usize];
            let mut chunk = [0u8; 16 * 1024];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) if conn.busy.is_none() => {
                        // Closed while idle: open a fresh connection.
                        conn.stream = connect(addr, &epoll, ev.data);
                        conn.buf.clear();
                        break;
                    }
                    Ok(0) => panic!("server closed a connection with a request outstanding"),
                    Ok(k) => conn.buf.extend_from_slice(&chunk[..k]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => panic!("read failed: {e}"),
                }
            }
            if let Some((status, body)) = take_response(&mut conn.buf) {
                let now = Instant::now();
                let (i, sent) = conn.busy.take().expect("response without a request");
                out.latency_ms.push((now - due(i)).as_secs_f64() * 1e3);
                out.from_send_ms.push((now - sent).as_secs_f64() * 1e3);
                out.responses[i] = Some((status, body));
                done += 1;
            }
        }
    }
    out.wall_s = secs(t0);
    out
}

fn write_all(stream: &mut TcpStream, mut bytes: &[u8]) {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(k) => bytes = &bytes[k..],
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::Interrupted => {
                std::thread::yield_now()
            }
            Err(e) => panic!("write failed: {e}"),
        }
    }
}

/// Sum over label sets of every sample of `name` (optionally only the
/// series whose labels contain `filter`) in Prometheus text.
fn family_sum(text: &str, name: &str, filter: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            let base = series.split('{').next()?;
            (base == name && series.contains(filter)).then(|| value.parse::<f64>().ok())?
        })
        .sum()
}

fn scrape(addr: SocketAddr) -> String {
    let (status, body) = Client::connect(addr, IO_TIMEOUT)
        .and_then(|mut c| c.request("GET", "/metrics", None))
        .expect("GET /metrics");
    assert_eq!(status, 200, "/metrics status");
    body
}

/// Server-side numbers over the open loop, from `/metrics` deltas.
#[derive(Default)]
pub struct ServeLayers {
    pub queue_wait_ms: f64,
    pub gather_ms: f64,
    pub exec_ms: f64,
    pub http_ms: f64,
    pub cache_hit_rate: f64,
    pub client_overhead_ms: f64,
    pub send_late_p99_ms: f64,
    /// The server's own registry series over the open loop.
    pub reg: RegSnap,
}

fn server_layers(before: &str, after: &str) -> (ServeLayers, f64, f64) {
    let delta = |name: &str, filter: &str| {
        family_sum(after, name, filter) - family_sum(before, name, filter)
    };
    let mean_ms = |fam: &str, filter: &str| {
        ratio(
            delta(&format!("{fam}_sum"), filter),
            delta(&format!("{fam}_count"), filter),
        ) / 1e3
    };
    let hits = delta("serve_cache_hits", "");
    let misses = delta("serve_cache_misses", "");
    let http_filter = r#"endpoint="generate""#;
    let layers = ServeLayers {
        queue_wait_ms: mean_ms("serve_phase_queue_wait_us", ""),
        gather_ms: mean_ms("serve_phase_gather_us", ""),
        exec_ms: mean_ms("serve_phase_exec_us", ""),
        http_ms: mean_ms("serve_http_latency_us", http_filter),
        cache_hit_rate: ratio(hits, hits + misses),
        reg: RegSnap::from_exposition(after).since(&RegSnap::from_exposition(before)),
        ..ServeLayers::default()
    };
    let http_sum_s = delta("serve_http_latency_us_sum", http_filter) / 1e6;
    (layers, hits, http_sum_s)
}

pub fn run(seed: u64, seconds: u64, traced: bool, sqlgen: &Path, state: &Path) -> Report {
    let mut report = Report::default();
    let mut t = Totals::default();
    let data_seed = MODEL_SEED;
    let constraint = Constraint::cardinality_range(TRAIN_RANGE.0, TRAIN_RANGE.1);
    let config = GenConfig::default().with_seed(data_seed);
    let exec = Arc::new(ExecDb::Mem(Benchmark::TpcH.build(SCALE, data_seed)));
    // Pre-train the served policy; a traced run first prices tracing with
    // an identical untraced pass.
    if traced {
        let mut spare = LearnedSqlGen::from_exec_db(exec.clone(), constraint, config.clone());
        let mut rates = Vec::new();
        t.untraced_train_s =
            genwork::train_chunked(&mut spare, TRAIN_EPISODES, TRAIN_CHUNK, &mut rates);
        sqlgen_obs::enable_metrics();
    }
    // The served policy. The same training repeats between and after the
    // open-loop segments (`retrain`): more chunks for the throughput
    // median, sampled across the run, and each must end on the same
    // weights.
    let pretrain = |t: &mut Totals| {
        let mut generator = LearnedSqlGen::from_exec_db(exec.clone(), constraint, config.clone());
        genwork::train_phase(&mut generator, TRAIN_EPISODES, TRAIN_CHUNK, t);
        generator.save_checkpoint()
    };
    let checkpoint = pretrain(&mut t);
    let retrain = |t: &mut Totals, report: &mut Report| {
        if pretrain(t) != checkpoint {
            report.problem("identical pre-trainings ended on different weights".to_string());
        }
    };
    let model_dir = state.join("serve-models");
    let _ = std::fs::remove_dir_all(&model_dir);
    std::fs::create_dir_all(&model_dir).expect("create model dir");
    std::fs::write(model_dir.join("policy-v1.ckpt"), &checkpoint).expect("write checkpoint");

    // Fresh server starts; the last one serves the open loop.
    let mut starts = Vec::with_capacity(SERVER_STARTS);
    let mut server = None;
    for _ in 0..SERVER_STARTS {
        drop(server.take());
        let (s, setup_s) = start_server(sqlgen, data_seed, &model_dir);
        starts.push(setup_s);
        server = Some(s);
    }
    let server = server.expect("at least one server start");

    let blocks = (BLOCKS_PER_25S * seconds as usize).div_ceil(25);
    let (hot, reqs) = schedule(seed, blocks);
    // Warm the cache with the hot set, sequentially.
    let mut first_body: HashMap<usize, String> = HashMap::new();
    let mut warm = Client::connect(server.addr, IO_TIMEOUT).expect("connect");
    for r in &hot {
        let (status, body) = warm
            .request("POST", "/generate", Some(&r.body()))
            .expect("warm-up request");
        if status != 200 {
            report.problem(format!("warm-up request got {status}"));
        }
        first_body.insert(r.hot.expect("hot request"), body);
    }
    drop(warm);

    let before = scrape(server.addr);
    let mut result = LoopResult::default();
    for (k, segment) in reqs.chunks(reqs.len().div_ceil(SEGMENTS)).enumerate() {
        if k > 0 {
            // The server idles meanwhile; each segment starts its own clock.
            retrain(&mut t, &mut report);
        }
        result.extend(open_loop(server.addr, segment, RATE));
    }
    let after = scrape(server.addr);
    let peak_rss = measure::peak_rss_mib(Some(server.child.id())).unwrap_or(0.0);
    drop(server);
    retrain(&mut t, &mut report);

    // Output checks, after the timed phase.
    let mut outputs = 0usize;
    let mut satisfied = 0usize;
    let mut card_outputs = 0usize;
    let mut exec_ok = 0usize;
    let mut verdicts: HashMap<(String, String), bool> = HashMap::new();
    let mut succeeded = 0u64;
    for (r, resp) in reqs.iter().zip(&result.responses) {
        let Some((status, body)) = resp else {
            report.failed += 1;
            continue;
        };
        if *status != 200 {
            report.failed += 1;
            continue;
        }
        succeeded += 1;
        if let Some(h) = r.hot {
            if first_body.get(&h) != Some(body) {
                report.problem(format!("hot request {h} answered with a different body"));
            }
        }
        let Ok(v) = serde_json::from_str::<serde_json::Value>(body) else {
            report.problem("response body is not JSON".to_string());
            continue;
        };
        let queries = v
            .get("queries")
            .and_then(|q| q.as_array())
            .cloned()
            .unwrap_or_default();
        if queries.len() != r.n || v.get("expired").and_then(|e| e.as_u64()) != Some(0) {
            report.problem(format!("{} queries for n={}", queries.len(), r.n));
        }
        for q in &queries {
            let sql = q.get("sql").and_then(|s| s.as_str()).unwrap_or("");
            outputs += 1;
            satisfied += usize::from(q.get("satisfied").and_then(|s| s.as_bool()) == Some(true));
            let Ok(stmt) = parse(sql) else {
                report.problem(format!("output does not parse: {sql}"));
                continue;
            };
            if render(&stmt) != sql {
                report.problem(format!("output does not re-render to itself: {sql}"));
            }
            // Cost has no executed counterpart; execution checks the
            // cardinality constraints.
            if r.constraint.metric == learned_sqlgen::core::Metric::Cardinality {
                card_outputs += 1;
                let key = (r.constraint_json.clone(), sql.to_string());
                exec_ok += usize::from(*verdicts.entry(key).or_insert_with(|| {
                    let t0 = Instant::now();
                    let ok = exec_satisfied(&exec, &stmt, &r.constraint);
                    t.exec_s += secs(t0);
                    t.executed += 1;
                    ok
                }));
            }
        }
    }
    let late_max = result.late_ms.iter().copied().fold(0.0, f64::max);
    if late_max > MAX_SEND_LATE_MS {
        report.problem(format!(
            "client sent a request {late_max:.0} ms late (limit {MAX_SEND_LATE_MS} ms)"
        ));
    }
    report.attempted = (t.episodes + reqs.len()) as u64;

    let (mut serve, hits, http_sum_s) = server_layers(&before, &after);
    let reward_mean = measure::mean(&t.rewards);
    let satisfied_rate = ratio(satisfied as f64, outputs as f64);
    let exec_satisfied_rate = ratio(exec_ok as f64, card_outputs as f64);

    report.e2e("setup_s", median(&starts), "s");
    report.e2e("peak_rss_mib", peak_rss, "MiB");
    report.e2e("train_episodes_per_s", median(&t.train_rates), "1/s");
    report.e2e(
        "gen_satisfied_per_s",
        satisfied as f64 / result.wall_s,
        "1/s",
    );
    report.e2e("reward_mean", reward_mean, "reward");
    report.e2e("satisfied_rate", satisfied_rate, "ratio");
    report.e2e("exec_satisfied_rate", exec_satisfied_rate, "ratio");
    if result.latency_ms.is_empty() {
        report.problem("no request completed".to_string());
    } else {
        report.e2e("latency_p50_ms", quantile(&result.latency_ms, 0.5), "ms");
        report.e2e("latency_p99_ms", quantile(&result.latency_ms, 0.99), "ms");
    }
    eprintln!(
        "perfbench: serve-mix sent {} succeeded {succeeded} failed {} cache hits {hits} send late p50 {:.3} p99 {:.3} max {late_max:.3} ms",
        reqs.len(),
        report.failed,
        quantile(&result.late_ms, 0.5),
        quantile(&result.late_ms, 0.99),
    );

    let rt = &t.reg_train;
    report.fingerprint("rl.episodes", rt.count("rl.episodes.count"));
    report.fingerprint("fsm.tokens.train", rt.count("fsm.tokens.count"));
    report.fingerprint("fsm.tokens.generate", serve.reg.count("fsm.tokens.count"));
    report.fingerprint("core.refine_attempts", serve.reg.count("refine.attempts"));
    report.fingerprint("requests", format!("{}/{succeeded}", reqs.len()));
    report.fingerprint("serve.cache_hit_rate", serve.cache_hit_rate);
    report.fingerprint("outputs", outputs);
    report.fingerprint("reward_mean", reward_mean);
    report.fingerprint("satisfied_rate", satisfied_rate);
    report.fingerprint("exec_satisfied_rate", exec_satisfied_rate);

    if traced {
        let client_mean = measure::mean(&result.from_send_ms);
        serve.client_overhead_ms = client_mean - serve.http_ms;
        serve.send_late_p99_ms = quantile(&result.late_ms, 0.99);
        let client_sum_s = result.from_send_ms.iter().sum::<f64>() / 1e3;
        t.setup_s = starts;
        t.gen_s = client_sum_s;
        t.gen_attributed_s = http_sum_s;
        t.reg_gen = serve.reg.clone();
        genwork::layers(&mut report, &t, &serve);
    }
    report
}
