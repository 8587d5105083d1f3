//! `serve-mix`: an open loop over keep-alive HTTP to a loopback
//! [`Server`], at two fixed rates (`lo`, `hi`).
//!
//! Jobs are due at fixed intervals (`1/rate`) and alternate between two
//! load threads, each owning one keep-alive connection. A thread posts a
//! job when it falls due, then polls it every [`POLL`] until it is done
//! and fetches the result. A job's latency runs from its *due* time to
//! the result fetch, so a late generator shows up as latency. A 429, a
//! 503, a transport error or a non-`done` job is never retried: it is
//! counted as failed and enters the latency samples at [`MISS_MS`].

use std::collections::BTreeMap;
use std::io::Cursor;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mogs_audit::{color_schedule, verify_certificate};
use mogs_engine::{Engine, EngineConfig, MetricsSnapshot};
use mogs_mrf::{Grid2D, Neighborhood, Topology};
use mogs_serve::http::read_request;
use mogs_serve::{
    HttpClient, JobRequest, JobStore, Limits, Priority, Router, ServeConfig, ServeMetrics, Server,
    TenantQuota, TenantRegistry,
};
use mogs_vision::{synthetic, StereoConfig, StereoMatching};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{mean, median, quantile, window_quantiles};
use crate::trace::{attribute, Tracer};
use crate::{Args, Breakdown, Outcome};

/// The `lo` step's offered rate, jobs/s: about 35% of the ~290 jobs/s
/// this mix sustains on a 2-CPU host (it saturates between 260 and 290).
/// Fixed: never derived from a run.
pub const RATE_LO: f64 = 100.0;
/// The `hi` step's offered rate, jobs/s: about 60% of that. Higher
/// rates leave too little headroom: when the shared host slows by 15%,
/// a 75% step nears saturation and its tail latency jumps tenfold.
pub const RATE_HI: f64 = 175.0;
/// The p99 job latency a step must meet to count toward `slo_rate`.
/// Far above the ~10–25 ms p99 of an unsaturated step, so host stalls
/// do not flip it; a saturated step's p99 runs to seconds.
pub const P99_LIMIT_MS: f64 = 250.0;
/// Poll cadence: a job is polled this long after its previous poll
/// returned. It bounds latency resolution.
pub const POLL: Duration = Duration::from_millis(2);
/// Latency entered for a failed or refused job: above any limit.
pub const MISS_MS: f64 = 10_000.0;
/// Jobs per window of the gated tail quantiles: each step's p90 is the
/// median of the p90s of consecutive windows of this many jobs (15
/// windows at `lo` and 26 at `hi` in a 30 s run), the highest
/// percentile with ten jobs beyond it in every window. A host stall
/// that queues a burst of jobs then moves the quantile of the windows
/// it falls in, not the reported figure.
pub const WINDOW: usize = 100;
/// An untimed step at the `lo` rate before the first timed one: it
/// wakes the load threads, connections, server and engine workers.
const WARMUP: Duration = Duration::from_secs(2);
/// Each step runs as this many segments, alternating with the other
/// step's (`lo`, `hi`, `lo`, `hi`, …), so that a slow spell of the
/// shared host falls on both steps alike instead of on one of them.
const SEGMENTS: usize = 3;
/// How long a step waits for its last jobs after the last one is due.
const DRAIN: Duration = Duration::from_secs(5);
/// Engine workers, server connection workers, load threads: two each.
const WORKERS: usize = 2;
/// Set-ups measured per run (the last one serves the load).
const SETUPS: usize = 15;
/// Served label maps compared with the direct engine path: up to a
/// quarter of this many per job kind in each segment.
const SAMPLED: usize = 6;
const SWEEPS: usize = 20;
const TENANTS: [(&str, Priority); 3] = [
    ("alpha", Priority::Interactive),
    ("beta", Priority::Interactive),
    ("batch", Priority::Batch),
];

/// Job classes of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    /// 32×32 segmentation, 5 classes.
    Seg,
    /// 48×32 stereo.
    Stereo,
    /// 32×32 raw unaries, 3 labels (about 20 KB of body).
    Raw,
    /// 32×32 segmentation with `diag: true`.
    Diag,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Seg => "seg",
            Kind::Stereo => "stereo",
            Kind::Raw => "raw",
            Kind::Diag => "diag",
        }
    }
}

/// One planned job.
struct Planned {
    kind: Kind,
    body: String,
    sites: usize,
    labels: u8,
    /// Keep the served label map for the direct-path comparison.
    sampled: bool,
}

fn job_seed(seed: u64, step: u64, i: usize) -> u64 {
    let mut h = seed
        ^ step.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (i as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 31;
    h & ((1 << 53) - 1)
}

/// The jobs of one step: `rate × duration` of them, kinds and contents
/// drawn from the seed.
fn plan(seed: u64, step: u64, rate: f64, duration: Duration) -> Vec<Planned> {
    let n = (rate * duration.as_secs_f64()).round() as usize;
    let mut rng = StdRng::seed_from_u64(seed ^ step.wrapping_mul(0xD1B5_4A32_D192_ED03));
    let mut jobs: Vec<Planned> = (0..n)
        .map(|i| {
            let s = job_seed(seed, step, i);
            let tenant = TENANTS[rng.gen_range(0..TENANTS.len())].0;
            let u: f64 = rng.gen();
            let kind = if u < 0.5 {
                Kind::Seg
            } else if u < 0.75 {
                Kind::Stereo
            } else if u < 0.9 {
                Kind::Raw
            } else {
                Kind::Diag
            };
            let (body, sites, labels) = match kind {
                Kind::Seg | Kind::Diag => (
                    format!(
                        "{{\"tenant\":\"{tenant}\",\"workload\":\"segmentation\",\"width\":32,\"height\":32,\
                         \"labels\":5,\"iterations\":{SWEEPS},\"seed\":{s},\"threads\":2{}}}",
                        if kind == Kind::Diag { ",\"diag\":true" } else { "" }
                    ),
                    32 * 32,
                    5,
                ),
                Kind::Stereo => {
                    let d: u8 = rng.gen_range(1..=4);
                    (
                        format!(
                            "{{\"tenant\":\"{tenant}\",\"workload\":\"stereo\",\"width\":48,\"height\":32,\
                             \"iterations\":{SWEEPS},\"seed\":{s},\"threads\":2,\"disparity\":{d}}}"
                        ),
                        48 * 32,
                        d + 1,
                    )
                }
                Kind::Raw => {
                    let rows: Vec<String> = (0..32 * 32)
                        .map(|_| {
                            let r: [f64; 3] = [rng.gen_range(0.0..4.0), rng.gen_range(0.0..4.0), rng.gen_range(0.0..4.0)];
                            format!("[{:.4},{:.4},{:.4}]", r[0], r[1], r[2])
                        })
                        .collect();
                    (
                        format!(
                            "{{\"tenant\":\"{tenant}\",\"workload\":\"raw\",\"width\":32,\"height\":32,\
                             \"labels\":3,\"iterations\":{SWEEPS},\"seed\":{s},\"threads\":2,\"unaries\":[{}]}}",
                            rows.join(",")
                        ),
                        32 * 32,
                        3,
                    )
                }
            };
            Planned {
                kind,
                body,
                sites,
                labels,
                sampled: false,
            }
        })
        .collect();
    // A seeded sample across kinds for the direct-path comparison.
    let mut picked: BTreeMap<Kind, usize> = BTreeMap::new();
    for j in &mut jobs {
        let count = picked.entry(j.kind).or_insert(0);
        if *count < SAMPLED.div_ceil(4) && rng.gen_bool(0.05) {
            *count += 1;
            j.sampled = true;
        }
    }
    jobs
}

/// What happened to one job.
#[derive(Debug, Default, Clone)]
struct Record {
    kind: Option<Kind>,
    /// Due → result fetched, ms; `None` when the job failed.
    latency_ms: Option<f64>,
    late_ms: f64,
    post_ms: f64,
    polls_ms: Vec<f64>,
    result_ms: f64,
    result_bytes: usize,
    refused: bool,
    updates: f64,
    labels: Option<Vec<u8>>,
    root: u64,
}

/// One step's outcome.
struct Step {
    name: &'static str,
    rate: f64,
    records: Vec<Record>,
    wall_s: f64,
    /// `(seconds since segment start, jobs in flight)` sampled at each post.
    backlog: Vec<(f64, usize)>,
    /// Whether the backlog grew in some segment of the step.
    grew: bool,
    queue_depth: Vec<f64>,
    reconnects: u64,
}

impl Step {
    fn latencies(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| r.latency_ms.unwrap_or(MISS_MS))
            .collect()
    }

    fn p99(&self) -> f64 {
        quantile(&self.latencies(), 0.99)
    }

    /// The median over windows of [`WINDOW`] jobs, in due order, of each
    /// window's p90 job latency.
    fn windowed_p90(&self) -> f64 {
        median(&window_quantiles(&self.latencies(), WINDOW, 0.9))
    }

    /// Joins the segments of one step, in the order they ran.
    fn merge(segments: Vec<Step>) -> Step {
        let mut it = segments.into_iter();
        let mut step = it.next().expect("a step has segments");
        for s in it {
            step.records.extend(s.records);
            step.wall_s += s.wall_s;
            step.backlog.extend(s.backlog);
            step.grew |= s.grew;
            step.queue_depth.extend(s.queue_depth);
            step.reconnects += s.reconnects;
        }
        step
    }
}

/// The backlog of a segment grew when the mean in-flight count over its
/// last quarter exceeds twice that of its first quarter plus four jobs.
fn backlog_grew(backlog: &[(f64, usize)]) -> bool {
    let span = backlog.last().map_or(0.0, |b| b.0);
    let window = |a: f64, b: f64| {
        let xs: Vec<f64> = backlog
            .iter()
            .filter(|(t, _)| *t >= a * span && *t < b * span)
            .map(|(_, n)| *n as f64)
            .collect();
        if xs.is_empty() {
            0.0
        } else {
            mean(&xs)
        }
    };
    window(0.75, 1.01) > 2.0 * window(0.0, 0.25) + 4.0
}

fn labels_of(body: &str) -> Option<Vec<u8>> {
    let start = body.find("\"labels\":[")? + "\"labels\":[".len();
    let end = start + body[start..].find(']')?;
    body[start..end]
        .split(',')
        .map(|s| s.trim().parse::<u8>().ok())
        .collect()
}

fn id_of(body: &str) -> Option<u64> {
    let start = body.find("\"id\":")? + 5;
    body[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .ok()
}

fn state_of(body: &str) -> Option<&'static str> {
    [
        "queued",
        "running",
        "done",
        "degraded",
        "failed",
        "cancelled",
    ]
    .into_iter()
    .find(|s| body.contains(&format!("\"state\":\"{s}\"")))
}

struct Live {
    idx: usize,
    id: u64,
    due: Instant,
    next_poll: Instant,
}

struct Shared<'a> {
    addr: SocketAddr,
    jobs: &'a [Planned],
    start: Instant,
    rate: f64,
    inflight: AtomicUsize,
    tracer: &'a Tracer,
    engine: Option<&'a Engine>,
    /// Job ids of this step start here (trace job ids stay unique).
    job_base: u64,
    /// Seeds the first-poll dither of each load thread.
    seed: u64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What one load thread saw.
struct ThreadLog {
    /// `(job index, record)` for every job the thread owned.
    done: Vec<(usize, Record)>,
    /// `(seconds since step start, jobs in flight)` at each post.
    backlog: Vec<(f64, usize)>,
    /// Engine queue depth at each post (traced steps only).
    depth: Vec<f64>,
    reconnects: u64,
}

/// One load thread: posts the jobs of `mine` when due and polls them.
fn load_thread(sh: &Shared<'_>, mine: &[usize]) -> ThreadLog {
    let mut client = HttpClient::new(sh.addr);
    let mut done: Vec<(usize, Record)> = Vec::with_capacity(mine.len());
    let mut recs: BTreeMap<usize, Record> = BTreeMap::new();
    let mut live: Vec<Live> = Vec::new();
    let mut backlog = Vec::new();
    let mut depth = Vec::new();
    let mut next = 0;
    let due_of = |i: usize| sh.start + Duration::from_secs_f64(i as f64 / sh.rate);
    let last_due = mine.last().map_or(sh.start, |&i| due_of(i));
    let deadline = last_due + DRAIN;
    let tracer = sh.tracer;
    // The first poll of a job lands uniformly within one poll period
    // around `POLL` after its POST returns; later polls follow every
    // `POLL`. The dither keeps latencies from snapping to a grid of
    // poll periods, which would make tail quantiles jump between rungs.
    let mut dither = StdRng::seed_from_u64(sh.seed ^ mine.first().map_or(0, |&i| i as u64));
    loop {
        let post_due = mine.get(next).map(|&i| due_of(i));
        let poll_due = live.iter().map(|l| l.next_poll).min();
        let at = match (post_due, poll_due) {
            (None, None) => break,
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (Some(a), Some(b)) => a.min(b),
        };
        let now = Instant::now();
        if now > deadline {
            break;
        }
        if at > now {
            std::thread::sleep(at - now);
        }
        if post_due.is_some_and(|p| poll_due.is_none_or(|q| p <= q)) {
            let idx = mine[next];
            next += 1;
            let due = due_of(idx);
            let job = &sh.jobs[idx];
            let root = tracer.reserve();
            let job_id = sh.job_base + idx as u64 + 1;
            let mut rec = Record {
                kind: Some(job.kind),
                updates: (job.sites * SWEEPS) as f64,
                root,
                ..Record::default()
            };
            let sent = Instant::now();
            rec.late_ms = ms(sent - due);
            tracer.record("gen.late", root, job_id, due, sent);
            backlog.push((
                (sent - sh.start).as_secs_f64(),
                sh.inflight.load(Ordering::Relaxed),
            ));
            if let Some(engine) = sh.engine {
                depth.push(engine.metrics().queue_depth as f64);
            }
            let response = client.request("POST", "/v1/jobs", Some(&job.body));
            let back = Instant::now();
            rec.post_ms = ms(back - sent);
            tracer.record("serve.post", root, job_id, sent, back);
            match response {
                Ok(r) if r.status == 201 => match id_of(&r.body_text()) {
                    Some(id) => {
                        sh.inflight.fetch_add(1, Ordering::Relaxed);
                        live.push(Live {
                            idx,
                            id,
                            due,
                            next_poll: back + POLL.mul_f64(0.5 + dither.gen::<f64>()),
                        });
                        recs.insert(idx, rec);
                    }
                    None => done.push((idx, rec)),
                },
                Ok(r) => {
                    rec.refused = r.status == 429 || r.status == 503;
                    tracer.record_as(root, "serve.job", 0, job_id, due, back);
                    done.push((idx, rec));
                }
                Err(_) => done.push((idx, rec)),
            }
            continue;
        }
        // Poll the job whose poll is due first.
        let Some(pos) = live
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.next_poll)
            .map(|(p, _)| p)
        else {
            continue;
        };
        let l = &live[pos];
        let (idx, id, due) = (l.idx, l.id, l.due);
        let job_id = sh.job_base + idx as u64 + 1;
        let rec = recs.get_mut(&idx).expect("live jobs have records");
        let sent = Instant::now();
        let response = client.request("GET", &format!("/v1/jobs/{id}"), None);
        let back = Instant::now();
        rec.polls_ms.push(ms(back - sent));
        tracer.record("serve.poll", rec.root, job_id, sent, back);
        let state = match &response {
            Ok(r) if r.status == 200 => state_of(&r.body_text()),
            _ => Some("failed"),
        };
        match state {
            Some("queued" | "running") | None => {
                live[pos].next_poll = back + POLL;
                continue;
            }
            Some("done") => {
                let sent = Instant::now();
                let response = client.request("GET", &format!("/v1/jobs/{id}/result"), None);
                let back = Instant::now();
                rec.result_ms = ms(back - sent);
                tracer.record("serve.result", rec.root, job_id, sent, back);
                if let Ok(r) = response {
                    let text = r.body_text();
                    rec.result_bytes = r.body.len();
                    let job = &sh.jobs[idx];
                    let labels = labels_of(&text).filter(|l| {
                        r.status == 200 && l.len() == job.sites && l.iter().all(|&v| v < job.labels)
                    });
                    if let Some(labels) = labels {
                        rec.latency_ms = Some(ms(back - due));
                        if job.sampled {
                            rec.labels = Some(labels);
                        }
                    }
                }
                tracer.record_as(rec.root, "serve.job", 0, job_id, due, back);
            }
            Some(_) => {
                tracer.record_as(rec.root, "serve.job", 0, job_id, due, back);
            }
        }
        sh.inflight.fetch_sub(1, Ordering::Relaxed);
        live.swap_remove(pos);
        done.push((idx, recs.remove(&idx).expect("record present")));
    }
    // Jobs still live at the drain deadline failed.
    for (idx, rec) in recs {
        done.push((idx, rec));
    }
    ThreadLog {
        done,
        backlog,
        depth,
        reconnects: client.connections_opened().saturating_sub(1),
    }
}

/// Runs one step: `shared` describes it, `name` labels it.
fn run_step(shared: Shared<'_>, name: &'static str) -> Step {
    let jobs = shared.jobs;
    let per_thread: Vec<Vec<usize>> = (0..WORKERS)
        .map(|t| (t..jobs.len()).step_by(WORKERS).collect())
        .collect();
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_thread
            .iter()
            .map(|mine| scope.spawn(|| load_thread(&shared, mine)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let wall_s = shared.start.elapsed().as_secs_f64();
    let mut records = vec![Record::default(); jobs.len()];
    let mut backlog = Vec::new();
    let mut queue_depth = Vec::new();
    let mut reconnects = 0;
    for log in results {
        for (idx, rec) in log.done {
            records[idx] = rec;
        }
        backlog.extend(log.backlog);
        queue_depth.extend(log.depth);
        reconnects += log.reconnects;
    }
    backlog.sort_by(|a, b| a.0.total_cmp(&b.0));
    Step {
        name,
        rate: shared.rate,
        records,
        wall_s,
        grew: backlog_grew(&backlog),
        backlog,
        queue_depth,
        reconnects,
    }
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        workers: WORKERS,
        queue_capacity: 512,
        ..EngineConfig::default()
    }
}

fn tenants() -> Arc<TenantRegistry> {
    let registry = TenantRegistry::new();
    for (name, priority) in TENANTS {
        registry.register(
            name,
            TenantQuota {
                max_in_flight: 512,
                max_sites_per_job: 1 << 16,
                priority,
            },
        );
    }
    Arc::new(registry)
}

fn request(method: &str, path: String, body: &str) -> mogs_serve::Request {
    mogs_serve::Request {
        method: method.to_string(),
        path,
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    }
}

/// Hands `post` to `router` in-process, then polls the job through the
/// router until it is done. Returns when `Router::handle` started and
/// returned on the POST.
fn admit_and_finish(
    router: &Router,
    post: &mogs_serve::Request,
) -> Result<(Instant, Instant), String> {
    let t = Instant::now();
    let response = router.handle(post);
    let took = (t, Instant::now());
    if response.status != 201 {
        return Err(format!("POST answered {}", response.status));
    }
    let id = id_of(&String::from_utf8_lossy(&response.body)).ok_or("POST answered no id")?;
    let poll = request("GET", format!("/v1/jobs/{id}"), "");
    let deadline = Instant::now() + Duration::from_secs(30);
    while state_of(&String::from_utf8_lossy(&router.handle(&poll).body)) != Some("done") {
        if Instant::now() > deadline {
            return Err(format!("job {id} did not finish"));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(took)
}

/// Starts engine and server and admits a first job through the server's
/// router; returns the time to that admission (the job's first sweep
/// follows at once). The first job is admitted in-process so that the
/// figure holds engine start, bind and admission, not the accept loop's
/// polling interval.
fn set_up(seed: u64) -> Result<(Arc<Engine>, Server, f64), String> {
    let t0 = Instant::now();
    let engine = Arc::new(Engine::new(engine_config()));
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            conn_workers: WORKERS,
            batch_queue_ceiling: 512,
            max_terminal_retained: 8192,
            keep_alive_max_requests: 1 << 30,
            ..ServeConfig::default()
        },
        Arc::clone(&engine),
        tenants(),
    )
    .map_err(|e| format!("bind: {e}"))?;
    let body = format!(
        "{{\"tenant\":\"alpha\",\"workload\":\"segmentation\",\"width\":32,\"height\":32,\
         \"labels\":5,\"iterations\":{SWEEPS},\"seed\":{},\"threads\":2}}",
        seed & 0xFFFF
    );
    let (_, admitted) = admit_and_finish(
        server.router(),
        &request("POST", "/v1/jobs".to_string(), &body),
    )
    .map_err(|e| format!("first job: {e}"))?;
    let setup_s = (admitted - t0).as_secs_f64();
    Ok((engine, server, setup_s))
}

fn shut_down(engine: Arc<Engine>, server: Server) {
    server.shutdown();
    if let Ok(engine) = Arc::try_unwrap(engine) {
        engine.shutdown();
    }
}

/// Compares the sampled served label maps with the direct engine path.
fn direct_matches(steps: &[(&Step, &[Planned])]) -> (usize, usize) {
    let engine = Engine::new(engine_config());
    let (mut checked, mut equal) = (0, 0);
    for (step, jobs) in steps {
        for (rec, job) in step.records.iter().zip(jobs.iter()) {
            let Some(served) = &rec.labels else { continue };
            checked += 1;
            let Ok(spec) = JobRequest::parse(&job.body) else {
                continue;
            };
            let Ok((handle, _)) = spec.submit(&engine, 1) else {
                continue;
            };
            if let Ok(direct) = handle.wait_result() {
                let direct: Vec<u8> = direct.labels.iter().map(|l| l.value()).collect();
                equal += usize::from(&direct == served);
            }
        }
    }
    engine.shutdown();
    (checked, equal)
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures (bind, first job) as text.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let seed = args.seed;
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..SETUPS {
        if let Some((engine, server)) = live.take() {
            shut_down(engine, server);
        }
        let (engine, server, s) = set_up(seed)?;
        setups.push(s);
        live = Some((engine, server));
    }
    let (engine, server) = live.expect("at least one set-up");
    let addr = server.local_addr();

    let passes = if args.trace { 2 } else { 1 };
    // Segments per pass: lo, hi, lo, hi, … The traced pass follows the
    // untraced one.
    let per_pass = 2 * SEGMENTS;
    let segment_len =
        Duration::from_secs_f64(args.seconds as f64 / (per_pass * passes) as f64);
    let plans: Vec<Vec<Planned>> = (0..(per_pass * passes) as u64)
        .map(|k| {
            plan(
                seed,
                k,
                if k % 2 == 0 { RATE_LO } else { RATE_HI },
                segment_len,
            )
        })
        .collect();
    let off = Tracer::new(false);
    let tracer = Tracer::new(true);
    let warmup_jobs = plan(seed, u64::MAX, RATE_LO, WARMUP);
    let warmup = run_step(
        Shared {
            addr,
            jobs: &warmup_jobs,
            start: Instant::now() + Duration::from_millis(20),
            rate: RATE_LO,
            inflight: AtomicUsize::new(0),
            tracer: &off,
            engine: None,
            job_base: 0,
            seed,
        },
        "warmup",
    );
    let mut segments = Vec::new();
    let mut before = None;
    let mut job_base = warmup_jobs.len() as u64;
    for (k, jobs) in plans.iter().enumerate() {
        let traced = k >= per_pass;
        if traced && before.is_none() {
            before = Some(engine.metrics());
        }
        let (name, rate) = if k % 2 == 0 {
            ("lo", RATE_LO)
        } else {
            ("hi", RATE_HI)
        };
        let t = if traced { &tracer } else { &off };
        let shared = Shared {
            addr,
            jobs,
            start: Instant::now() + Duration::from_millis(20),
            rate,
            inflight: AtomicUsize::new(0),
            tracer: t,
            engine: traced.then_some(&*engine),
            job_base,
            seed: seed ^ job_base.wrapping_mul(0x94D0_49BB_1331_11EB),
        };
        segments.push(run_step(shared, name));
        job_base += jobs.len() as u64;
    }
    let after = engine.metrics();
    shut_down(engine, server);

    // ---- correctness gates (outside the timed steps) ----
    let pairs: Vec<(&Step, &[Planned])> =
        segments.iter().zip(plans.iter().map(Vec::as_slice)).collect();
    let (checked, equal) = direct_matches(&pairs);
    out.gate(
        "served_equals_direct",
        checked >= SAMPLED.min(4) * passes && checked == equal,
        format!("{equal} of {checked} sampled served label maps equal the direct engine path"),
    );
    let attempted: usize = segments.iter().map(|s| s.records.len()).sum::<usize>()
        + warmup.records.len();
    let failed: usize = segments
        .iter()
        .chain([&warmup])
        .map(|s| s.records.iter().filter(|r| r.latency_ms.is_none()).count())
        .sum();
    out.attempted = attempted as u64;
    out.failed = failed as u64;
    out.note(
        "failed_frac",
        format!(
            "{:.6} ({failed} of {attempted})",
            failed as f64 / attempted.max(1) as f64
        ),
    );
    // Steps in order: untraced lo, untraced hi, then traced lo, hi.
    let mut by_step: Vec<Vec<Step>> = (0..2 * passes).map(|_| Vec::new()).collect();
    for (k, segment) in segments.into_iter().enumerate() {
        by_step[2 * (k / per_pass) + k % 2].push(segment);
    }
    let steps: Vec<Step> = by_step.into_iter().map(Step::merge).collect();
    out.note("open_loop", format!(
        "untimed {:.1} s warm-up at {RATE_LO} jobs/s, then fixed-interval arrivals at {RATE_LO} and {RATE_HI} jobs/s, each step in {SEGMENTS} segments of {:.2} s alternating lo, hi, lo, hi, …; {WORKERS} load threads on {WORKERS} keep-alive connections; poll every {} ms after the previous poll returns, first poll dithered over one period",
        WARMUP.as_secs_f64(),
        segment_len.as_secs_f64(),
        POLL.as_millis()
    ));
    out.note(
        "slo",
        format!("p99 limit {P99_LIMIT_MS} ms; failed or refused jobs enter at {MISS_MS} ms"),
    );
    for s in &steps {
        let lat = s.latencies();
        out.note(format!("step {} @{}", s.name, s.rate), format!(
            "n={} p50={:.2} p90={:.2} p95={:.2} p99={:.2} max={:.2} ms (n beyond p99: {}) windowed p90={:.2} ms ({} windows) late_p99={:.3} ms backlog_max={} grew={}",
            lat.len(),
            quantile(&lat, 0.5),
            quantile(&lat, 0.9),
            quantile(&lat, 0.95),
            quantile(&lat, 0.99),
            quantile(&lat, 1.0),
            lat.len() / 100,
            s.windowed_p90(),
            window_quantiles(&lat, WINDOW, 0.9).len(),
            quantile(&s.records.iter().map(|r| r.late_ms).collect::<Vec<_>>(), 0.99),
            s.backlog.iter().map(|b| b.1).max().unwrap_or(0),
            s.grew
        ));
    }

    let (plain, traced) = steps.split_at(2);
    if args.trace {
        layer_metrics(
            &mut out,
            plain,
            traced,
            &plans[per_pass..],
            before.as_ref().unwrap_or(&after),
            &after,
            &tracer,
        )?;
    } else {
        let done: Vec<&Record> = plain
            .iter()
            .flat_map(|s| &s.records)
            .filter(|r| r.latency_ms.is_some())
            .collect();
        out.set("setup_s", median(&setups));
        let wall: f64 = plain.iter().map(|s| s.wall_s).sum();
        out.set(
            "updates_per_s",
            done.iter().map(|r| r.updates).sum::<f64>() / wall,
        );
        let per_sweep: Vec<f64> = done
            .iter()
            .filter_map(|r| r.latency_ms)
            .map(|l| l / SWEEPS as f64)
            .collect();
        out.set("sweep_ms_p50", quantile(&per_sweep, 0.5));
        // Windows within each step, as for the job p90s.
        let sweep_p95s: Vec<f64> = plain
            .iter()
            .flat_map(|s| {
                let per_sweep: Vec<f64> = s
                    .records
                    .iter()
                    .filter_map(|r| r.latency_ms)
                    .map(|l| l / SWEEPS as f64)
                    .collect();
                window_quantiles(&per_sweep, WINDOW, 0.95)
            })
            .collect();
        out.set("sweep_ms_p95", median(&sweep_p95s));
        for s in plain {
            let lat = s.latencies();
            let (p50, p90) = if s.name == "lo" {
                ("job_ms_p50.lo", "job_ms_p90.lo")
            } else {
                ("job_ms_p50.hi", "job_ms_p90.hi")
            };
            out.set(p50, quantile(&lat, 0.5));
            out.set(p90, s.windowed_p90());
        }
        let slo = plain
            .iter()
            .filter(|s| s.p99() <= P99_LIMIT_MS && !s.grew)
            .map(|s| s.rate)
            .fold(0.0, f64::max);
        out.set("slo_rate", slo);
        out.set("rss_peak_mb", crate::rss_peak_mb());
        out.note(
            "samples",
            format!(
                "set-ups n={}, done jobs n={}, windows n={} of about {WINDOW} jobs",
                setups.len(),
                done.len(),
                sweep_p95s.len()
            ),
        );
    }
    Ok(out)
}

fn layer_metrics(
    out: &mut Outcome,
    plain: &[Step],
    traced: &[Step],
    jobs: &[Vec<Planned>],
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    tracer: &Tracer,
) -> Result<(), String> {
    let recs: Vec<&Record> = traced.iter().flat_map(|s| &s.records).collect();
    let done: Vec<&Record> = recs
        .iter()
        .copied()
        .filter(|r| r.latency_ms.is_some())
        .collect();
    let posts: Vec<f64> = recs.iter().map(|r| r.post_ms).collect();
    let polls: Vec<f64> = recs
        .iter()
        .flat_map(|r| r.polls_ms.iter().copied())
        .collect();
    let results: Vec<f64> = done.iter().map(|r| r.result_ms).collect();
    out.set("serve.post_ms_p50", quantile(&posts, 0.5));
    out.set("serve.post_ms_p99", quantile(&posts, 0.99));
    out.set("serve.poll_ms_p50", quantile(&polls, 0.5));
    out.set("serve.result_ms_p50", quantile(&results, 0.5));
    out.set(
        "serve.result_bytes_mean",
        mean(
            &done
                .iter()
                .map(|r| r.result_bytes as f64)
                .collect::<Vec<_>>(),
        ),
    );
    let requests = recs.len() + polls.len() + results.len();
    out.set(
        "serve.requests_per_job",
        requests as f64 / done.len().max(1) as f64,
    );
    for kind in [Kind::Seg, Kind::Stereo, Kind::Raw, Kind::Diag] {
        let lat: Vec<f64> = done
            .iter()
            .filter(|r| r.kind == Some(kind))
            .filter_map(|r| r.latency_ms)
            .collect();
        let name = match kind {
            Kind::Seg => "serve.kind.seg.job_ms_p50",
            Kind::Stereo => "serve.kind.stereo.job_ms_p50",
            Kind::Raw => "serve.kind.raw.job_ms_p50",
            Kind::Diag => "serve.kind.diag.job_ms_p50",
        };
        out.set(name, quantile(&lat, 0.5));
        out.note(format!("kind {}", kind.name()), format!("n={}", lat.len()));
    }
    for step in traced {
        let name = if step.name == "lo" {
            "serve.job_ms_p99.lo"
        } else {
            "serve.job_ms_p99.hi"
        };
        out.set(name, step.p99());
    }
    out.set(
        "serve.backlog_max",
        traced
            .iter()
            .flat_map(|s| &s.backlog)
            .map(|b| b.1)
            .max()
            .unwrap_or(0) as f64,
    );
    out.set(
        "serve.refused",
        recs.iter().filter(|r| r.refused).count() as f64,
    );
    out.set(
        "serve.reconnects",
        traced.iter().map(|s| s.reconnects).sum::<u64>() as f64,
    );
    out.set(
        "gen.late_ms_p99",
        quantile(&recs.iter().map(|r| r.late_ms).collect::<Vec<_>>(), 0.99),
    );

    // Engine counters from the public snapshot (never its quantiles).
    let depth: Vec<f64> = traced
        .iter()
        .flat_map(|s| s.queue_depth.iter().copied())
        .collect();
    let depth_mean = mean(&depth);
    let wall: f64 = traced.iter().map(|s| s.wall_s).sum();
    let arrivals = recs.len() as f64 / wall;
    out.set("engine.queue_depth_mean", depth_mean);
    out.set("engine.queue_depth_hwm", after.queue_depth_hwm as f64);
    // Little's law: mean queue length over arrival rate.
    out.set("engine.queue_wait_ms", 1e3 * depth_mean / arrivals);
    let phases = after.phase_latency.count - before.phase_latency.count;
    let phase_us = after.phase_latency.total_us - before.phase_latency.total_us;
    out.set(
        "engine.phase_ms_mean",
        phase_us as f64 / phases.max(1) as f64 / 1e3,
    );
    out.set(
        "engine.site_updates",
        (after.site_updates - before.site_updates) as f64,
    );

    // Replays on recorded request bodies, outside the timed steps.
    let sample: Vec<&Planned> = jobs.iter().flatten().take(64).collect();
    let mut parse_us = Vec::new();
    let mut build_ms = Vec::new();
    let mut certify_ms = Vec::new();
    let mut requests = Vec::new();
    for job in &sample {
        let raw = format!(
            "POST /v1/jobs HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {}\r\n\r\n{}",
            job.body.len(),
            job.body
        );
        let t = Instant::now();
        let request = read_request(&mut Cursor::new(raw.as_bytes()), Limits::default())
            .map_err(|e| format!("replay read_request: {e}"))?
            .ok_or("replay read_request: no request")?;
        let spec = JobRequest::parse(request.body_utf8().map_err(|e| e.to_string())?)
            .map_err(|e| format!("replay parse: {e}"))?;
        parse_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        match job.kind {
            Kind::Seg | Kind::Diag => {
                std::hint::black_box(spec.segmentation());
            }
            Kind::Stereo => {
                let scene = synthetic::stereo_pair(
                    spec.width,
                    spec.height,
                    spec.disparity,
                    spec.noise_sigma,
                    spec.seed,
                );
                let config = StereoConfig {
                    num_disparities: u16::from(spec.disparity) + 1,
                    threads: spec.threads,
                    ..StereoConfig::default()
                };
                std::hint::black_box(StereoMatching::new(&scene.left, &scene.right, config));
            }
            // The raw field is built from the parsed table (timed in parse).
            Kind::Raw => {}
        }
        if job.kind != Kind::Raw {
            build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let topo = Topology::from_grid(
            Grid2D::new(spec.width, spec.height),
            Neighborhood::FirstOrder,
        );
        let t = Instant::now();
        let cert = color_schedule(&topo, spec.threads);
        let clean = verify_certificate(&topo, &cert).is_clean();
        certify_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if !clean {
            return Err("certificate replay failed".to_string());
        }
        requests.push(request);
    }
    out.set("serve.parse_us", median(&parse_us));
    out.set("vision.build_ms", mean(&build_ms));
    out.set("audit.certify_ms", mean(&certify_ms));

    // Router::handle replayed in-process on a private engine.
    let engine = Arc::new(Engine::new(engine_config()));
    let router = Router::new(
        Arc::clone(&engine),
        tenants(),
        Arc::new(JobStore::new(8192)),
        Arc::new(ServeMetrics::new()),
        1,
        512,
    );
    let mut router_us = Vec::new();
    for post in &requests {
        // Each replayed job finishes before the next, so replays do not
        // compete with sampling for the CPUs.
        let (start, end) =
            admit_and_finish(&router, post).map_err(|e| format!("router replay: {e}"))?;
        router_us.push((end - start).as_secs_f64() * 1e6);
    }
    drop(router);
    if let Ok(engine) = Arc::try_unwrap(engine) {
        engine.shutdown();
    }
    let router_p50 = median(&router_us);
    out.set("serve.router_post_us", router_p50);
    out.set(
        "serve.transport_us",
        quantile(&posts, 0.5) * 1e3 - router_p50,
    );

    // Per-job breakdown: the parts add up to the mean job latency.
    let spans = tracer.spans();
    let mut parts: BTreeMap<&'static str, f64> = BTreeMap::new();
    let n = done.len().max(1) as f64;
    for r in &done {
        for (k, ns) in attribute(&spans, r.root, "wait between polls") {
            *parts.entry(k).or_insert(0.0) += ns as f64 / 1e6 / n;
        }
    }
    let mean_ms = mean(&done.iter().filter_map(|r| r.latency_ms).collect::<Vec<_>>());
    out.breakdowns.push(Breakdown {
        title: format!(
            "serve-mix job latency, mean of {} done traced jobs",
            done.len()
        ),
        total_ms: mean_ms,
        rows: parts.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
    });

    let p50 = |s: &Step| quantile(&s.latencies(), 0.5);
    let (plain_lo, traced_lo) = (p50(&plain[0]), p50(&traced[0]));
    out.set("trace.overhead_pct", 100.0 * (traced_lo / plain_lo - 1.0));
    out.note(
        "trace_overhead",
        format!("job_ms_p50.lo untraced {plain_lo:.3} vs traced {traced_lo:.3}"),
    );
    crate::write_trace(out, tracer, "serve-mix");
    Ok(())
}
