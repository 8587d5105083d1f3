//! `fleet-stereo320`: one 320×320 stereo job on the softmax backend,
//! sharded over two worker processes on the default (TCP) transport.
//!
//! A run makes [`SHORTS`] short fleet runs of [`SHORT`] sweeps and one
//! long run whose length is fixed by `--seconds`. The long run minus a
//! short run, over their sweep difference, is the steady per-sweep cost;
//! what a short run spends beyond its sweeps is set-up (spawn, model
//! build, assign). Worker processes are this binary re-executed
//! ([`Launcher::SelfExec`]).

use std::time::Instant;

use mogs_audit::{color_schedule, verify_certificate};
use mogs_fleet::wire::{
    encode_to_coordinator, encode_to_worker, parse_to_coordinator, parse_to_worker, ToCoordinator,
    ToWorker,
};
use mogs_fleet::{
    build_shard, partition, run_fleet, run_in_process, BackendKind, FleetConfig, FleetOutput,
    FleetSpec, FleetStructure, Launcher, Workload,
};
use mogs_mrf::{Grid2D, Neighborhood, Topology};
use mogs_vision::{synthetic, StereoConfig, StereoMatching};

use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{Args, Breakdown, Outcome};

/// Image side.
pub const SIDE: usize = 320;
/// Worker processes.
pub const WORKERS: usize = 2;
/// Deterministic chunks per color group (16 cells over 2 shards).
pub const CHUNKS: usize = 8;
/// Sweeps of a short run.
pub const SHORT: usize = 4;
/// Short runs per pass.
pub const SHORTS: usize = 8;
const NOISE: f64 = 0.05;
/// Sweeps replayed per shard for the compute figure.
const REPLAY_SWEEPS: usize = 4;

fn spec(seed: u64, iterations: usize) -> FleetSpec {
    FleetSpec {
        workload: Workload::Stereo {
            width: SIDE,
            height: SIDE,
            disparity: 1 + (seed % 4) as u8,
            noise_sigma: NOISE,
            scene_seed: seed,
        },
        backend: BackendKind::Softmax,
        iterations,
        threads: CHUNKS,
        seed: seed ^ 0x57E2_E0FE,
        burn_in: 2,
    }
}

fn config(workers: usize) -> FleetConfig {
    let mut config = FleetConfig::new(workers);
    config.launcher = Launcher::SelfExec;
    config
}

/// Sweeps of the long run: fixed by `--seconds` alone.
fn long_sweeps(seconds: u64, trace: bool) -> usize {
    let n = (14 * seconds) as usize;
    if trace {
        (n / 3).max(SHORT + 8)
    } else {
        n.max(SHORT + 8)
    }
}

/// One timed fleet run.
struct Run {
    sweeps: usize,
    wall_s: f64,
    output: Result<FleetOutput, String>,
}

/// A pass: [`SHORTS`] short runs around one long run.
struct Pass {
    shorts: Vec<Run>,
    long: Run,
}

impl Pass {
    /// Per-sweep estimates, one per short run, seconds.
    fn per_sweep_s(&self) -> Vec<f64> {
        self.shorts
            .iter()
            .map(|s| (self.long.wall_s - s.wall_s) / (self.long.sweeps - s.sweeps) as f64)
            .collect()
    }

    fn steady_s(&self) -> f64 {
        median(&self.per_sweep_s())
    }

    /// Set-up estimates, one per short run, seconds.
    fn setup_s(&self) -> Vec<f64> {
        let steady = self.steady_s();
        self.shorts
            .iter()
            .map(|s| s.wall_s - s.sweeps as f64 * steady)
            .collect()
    }

    fn runs(&self) -> impl Iterator<Item = &Run> {
        self.shorts.iter().chain(std::iter::once(&self.long))
    }
}

fn timed_run(seed: u64, sweeps: usize, workers: usize, tracer: &Tracer, job: u64) -> Run {
    let spec = spec(seed, sweeps);
    let t = Instant::now();
    let output = run_fleet(&spec, &config(workers)).map_err(|e| e.to_string());
    let end = Instant::now();
    tracer.record("fleet.run", 0, job, t, end);
    Run {
        sweeps,
        wall_s: (end - t).as_secs_f64(),
        output,
    }
}

fn pass(seed: u64, long: usize, workers: usize, tracer: &Tracer, job_base: u64) -> Pass {
    // Shorts on both sides of the long run, so drift cancels.
    let mut shorts = Vec::new();
    for i in 0..SHORTS / 2 {
        shorts.push(timed_run(seed, SHORT, workers, tracer, job_base + i as u64));
    }
    let long = timed_run(seed, long, workers, tracer, job_base + 100);
    for i in SHORTS / 2..SHORTS {
        shorts.push(timed_run(seed, SHORT, workers, tracer, job_base + i as u64));
    }
    Pass { shorts, long }
}

/// Runs the workload.
///
/// # Errors
///
/// A fleet run that failed outright, or a replay set-up failure, as
/// text.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let seed = args.seed;
    let long = long_sweeps(args.seconds, args.trace);
    let off = Tracer::new(false);
    let tracer = Tracer::new(true);
    let plain = pass(seed, long, WORKERS, &off, 0);
    let extra: Vec<Pass> = if args.trace {
        vec![
            pass(seed, long, WORKERS, &tracer, 1000),
            pass(seed, long, 1, &tracer, 2000),
        ]
    } else {
        Vec::new()
    };

    // ---- correctness gates (outside the timed runs) ----
    let reference_short =
        run_in_process(&spec(seed, SHORT)).map_err(|e| format!("in-process reference: {e}"))?;
    let reference_long =
        run_in_process(&spec(seed, long)).map_err(|e| format!("in-process reference: {e}"))?;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut identical = true;
    let mut migrations = 0usize;
    for p in std::iter::once(&plain).chain(&extra) {
        for r in p.runs() {
            attempted += 1;
            match &r.output {
                Ok(o) => {
                    let reference = if r.sweeps == SHORT {
                        &reference_short
                    } else {
                        &reference_long
                    };
                    identical &= o.finished && o.bit_identical_to(reference);
                    migrations += o.migrations;
                    failed += u64::from(o.migrations > 0 || o.degraded.is_some());
                }
                Err(e) => {
                    failed += 1;
                    identical = false;
                    out.note("fleet_error", e);
                }
            }
        }
    }
    out.gate(
        "fleet_equals_in_process",
        identical,
        format!("{attempted} fleet runs vs run_in_process: labels, MAP, energy bits"),
    );
    out.attempted = attempted;
    out.failed = failed;
    out.note(
        "failed_frac",
        format!(
            "{:.6} ({failed} of {attempted}; migrations {migrations})",
            failed as f64 / attempted as f64
        ),
    );
    let sites = (SIDE * SIDE) as f64;
    let walls = |p: &Pass| {
        p.runs()
            .map(|r| format!("{:.3}", r.wall_s))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.note("plan", format!(
        "{WORKERS} worker processes over TCP, {CHUNKS} chunks; {SHORTS} runs of {SHORT} sweeps around one of {long} sweeps; walls s: {}",
        walls(&plain)
    ));

    if args.trace {
        let traced = &extra[0];
        let single = &extra[1];
        layer_metrics(&mut out, seed, &plain, traced, single, &tracer, migrations)?;
        crate::write_trace(&mut out, &tracer, "fleet-stereo320");
    } else {
        let per_sweep_ms: Vec<f64> = plain.per_sweep_s().iter().map(|s| s * 1e3).collect();
        out.set("setup_s", median(&plain.setup_s()));
        out.set("updates_per_s", sites / plain.steady_s());
        out.set("sweep_ms_p50", quantile(&per_sweep_ms, 0.5));
        out.set("sweep_ms_p95", quantile(&per_sweep_ms, 0.95));
        let shorts_ms: Vec<f64> = plain.shorts.iter().map(|r| r.wall_s * 1e3).collect();
        out.set("job_ms_p50.lo", quantile(&shorts_ms, 0.5));
        out.set("job_ms_p90.lo", quantile(&shorts_ms, 0.9));
        out.set("job_ms_p50.hi", plain.long.wall_s * 1e3);
        out.set("job_ms_p90.hi", plain.long.wall_s * 1e3);
        let total: f64 = plain.runs().map(|r| r.wall_s).sum();
        out.set("slo_rate", (SHORTS + 1) as f64 / total);
        out.set("rss_peak_mb", crate::rss_peak_mb());
        out.note("samples", format!(
            "per-sweep estimates n={SHORTS} (long run minus each short run), set-ups n={SHORTS}, short jobs n={SHORTS}, long job n=1"
        ));
    }
    Ok(out)
}

/// What one sweep's messages cost the codec under a partition.
struct Codec {
    frames: usize,
    bytes: usize,
    /// Codec time on the sweep's critical path, seconds: everything the
    /// coordinator encodes and parses (it handles workers one after
    /// another), plus, per color group, the slowest worker's own
    /// encoding and parsing (workers run in parallel).
    critical_s: f64,
    /// Codec time summed over all processes, seconds.
    total_s: f64,
}

/// Encodes and parses, once, the messages one sweep puts on the wire
/// under the partition `owner`: per group a `Phase` to each worker, a
/// `PhaseDone` from each, a `Halo` to each; per sweep one ping round.
fn codec_per_sweep(
    structure: &FleetStructure,
    owner: &[usize],
    shards: usize,
    labels: &[u8],
) -> Codec {
    let mut c = Codec {
        frames: 0,
        bytes: 0,
        critical_s: 0.0,
        total_s: 0.0,
    };
    // Times `encode` then `parse` of one message; returns (encode s, parse s).
    let wire = |c: &mut Codec, to_worker: Option<ToWorker>, to_coord: Option<ToCoordinator>| {
        let t0 = Instant::now();
        let payload = match (&to_worker, &to_coord) {
            (Some(m), _) => encode_to_worker(m),
            (None, Some(m)) => encode_to_coordinator(m),
            (None, None) => String::new(),
        };
        let t1 = Instant::now();
        let ok = if to_worker.is_some() {
            parse_to_worker(&payload).is_ok()
        } else {
            parse_to_coordinator(&payload).is_ok()
        };
        let t2 = Instant::now();
        assert!(ok, "a message the codec encoded must parse");
        c.frames += 1;
        // An 8-hex-digit length prefix frames every payload.
        c.bytes += payload.len() + 8;
        let (enc, dec) = ((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64());
        c.total_s += enc + dec;
        (enc, dec)
    };
    for (group, chunks) in structure.cells.iter().enumerate() {
        let mut worker_s = vec![0.0; shards];
        let mut merged = Vec::new();
        for (shard, w) in worker_s.iter_mut().enumerate() {
            let (enc, dec) = wire(&mut c, Some(ToWorker::Phase { sweep: 0, group }), None);
            c.critical_s += enc;
            *w += dec;
            let updates: Vec<(usize, u8)> = chunks
                .iter()
                .flatten()
                .filter(|&&s| owner[s] == shard)
                .map(|&s| (s, labels[s]))
                .collect();
            merged.extend_from_slice(&updates);
            let (enc, dec) = wire(
                &mut c,
                None,
                Some(ToCoordinator::PhaseDone {
                    sweep: 0,
                    group,
                    updates,
                }),
            );
            *w += enc;
            c.critical_s += dec;
        }
        for (shard, w) in worker_s.iter_mut().enumerate() {
            let updates: Vec<(usize, u8)> = merged
                .iter()
                .copied()
                .filter(|&(s, _)| owner[s] != shard)
                .collect();
            if !updates.is_empty() {
                let (enc, dec) = wire(&mut c, Some(ToWorker::Halo { updates }), None);
                c.critical_s += enc;
                *w += dec;
            }
        }
        c.critical_s += worker_s.iter().copied().fold(0.0, f64::max);
    }
    // The heartbeat round is one request/reply per worker, in turn.
    for nonce in 0..shards as u64 {
        let (enc, dec) = wire(&mut c, Some(ToWorker::Ping { nonce }), None);
        c.critical_s += enc + dec;
        let (enc, dec) = wire(&mut c, None, Some(ToCoordinator::Pong { nonce }));
        c.critical_s += enc + dec;
    }
    c
}

fn layer_metrics(
    out: &mut Outcome,
    seed: u64,
    plain: &Pass,
    traced: &Pass,
    single: &Pass,
    tracer: &Tracer,
    migrations: usize,
) -> Result<(), String> {
    let long = traced.long.sweeps;
    let spec = spec(seed, long);
    let Workload::Stereo { disparity, .. } = spec.workload else {
        unreachable!("the workload is stereo")
    };

    let mut build = Vec::new();
    let mut certify = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let scene = synthetic::stereo_pair(SIDE, SIDE, disparity, NOISE, seed);
        let app = StereoMatching::new(
            &scene.left,
            &scene.right,
            StereoConfig {
                threads: CHUNKS,
                ..StereoConfig::default()
            },
        );
        let end = Instant::now();
        tracer.record("vision.build", 0, 0, t, end);
        build.push((end - t).as_secs_f64() * 1e3);
        std::hint::black_box(app);
        let topo = Topology::from_grid(Grid2D::new(SIDE, SIDE), Neighborhood::FirstOrder);
        let t = Instant::now();
        let cert = color_schedule(&topo, CHUNKS);
        let clean = verify_certificate(&topo, &cert).is_clean();
        let end = Instant::now();
        tracer.record("audit.certify", 0, 0, t, end);
        certify.push((end - t).as_secs_f64() * 1e3);
        if !clean {
            return Err("certificate replay failed".to_string());
        }
    }
    out.set("vision.build_ms", median(&build));
    out.set("audit.certify_ms", median(&certify));

    let structure = FleetStructure::of(&spec).map_err(|e| format!("structure: {e}"))?;
    let mut part_ms = Vec::new();
    let mut parts = None;
    for _ in 0..3 {
        let t = Instant::now();
        let p = partition(&structure, WORKERS).map_err(|e| format!("partition: {e}"))?;
        let end = Instant::now();
        tracer.record("fleet.partition", 0, 0, t, end);
        part_ms.push((end - t).as_secs_f64() * 1e3);
        parts = Some(p);
    }
    let parts = parts.expect("partitioned at least once");
    out.set("fleet.partition_ms", median(&part_ms));

    // Slowest shard's compute per sweep, replayed in-process.
    let mut slowest: f64 = 0.0;
    for shard in &parts.shards {
        let mut exec = build_shard(&spec, &shard.cells).map_err(|e| format!("build_shard: {e}"))?;
        let t = Instant::now();
        for sweep in 0..REPLAY_SWEEPS {
            for group in 0..exec.group_count() {
                exec.run_phase(sweep, group);
            }
        }
        let end = Instant::now();
        tracer.record("fleet.shard_replay", 0, 0, t, end);
        slowest = slowest.max((end - t).as_secs_f64() * 1e3 / REPLAY_SWEEPS as f64);
    }
    out.set("fleet.shard_compute_ms_per_sweep", slowest);

    let labels = match &traced.long.output {
        Ok(o) => o.labels.clone(),
        Err(e) => return Err(format!("traced long run: {e}")),
    };
    let mut critical = Vec::new();
    let mut total = Vec::new();
    let (mut frames, mut bytes) = (0, 0);
    for _ in 0..3 {
        let t = Instant::now();
        let c = codec_per_sweep(&structure, &parts.owner, WORKERS, &labels);
        tracer.record("fleet.codec_replay", 0, 0, t, Instant::now());
        (frames, bytes) = (c.frames, c.bytes);
        critical.push(c.critical_s * 1e3);
        total.push(c.total_s * 1e3);
    }
    let codec_ms = median(&critical);
    out.set("fleet.frames_per_sweep", frames as f64);
    out.set("fleet.bytes_per_sweep", bytes as f64);
    out.set("fleet.codec_ms_per_sweep", codec_ms);
    out.note(
        "codec",
        format!(
            "{codec_ms:.3} ms/sweep on the critical path, {:.3} ms/sweep summed over processes",
            median(&total)
        ),
    );
    let steady_ms = traced.steady_s() * 1e3;
    out.set("fleet.other_ms_per_sweep", steady_ms - slowest - codec_ms);
    out.set("fleet.speedup_2w", single.steady_s() / traced.steady_s());
    let spawned = traced.long.output.as_ref().map_or(0, |o| o.workers_spawned);
    out.set("fleet.workers_spawned", spawned as f64);
    out.set("fleet.migrations", migrations as f64);

    let setup_ms = median(&traced.setup_s()) * 1e3;
    let n = long as f64;
    out.breakdowns.push(Breakdown {
        title: format!("fleet-stereo320 long run of {long} sweeps, {WORKERS} workers"),
        total_ms: traced.long.wall_s * 1e3,
        rows: vec![
            (
                "set-up: spawn, build, assign (from short runs)".to_string(),
                setup_ms,
            ),
            (
                "shard compute, slowest shard (replayed)".to_string(),
                n * slowest,
            ),
            (
                "codec on the critical path (computed messages)".to_string(),
                n * codec_ms,
            ),
            (
                "remainder: socket, relay, waiting".to_string(),
                traced.long.wall_s * 1e3 - setup_ms - n * (slowest + codec_ms),
            ),
        ],
    });
    let (p, t) = (plain.steady_s(), traced.steady_s());
    out.set("trace.overhead_pct", 100.0 * (t / p - 1.0));
    out.note(
        "trace_overhead",
        format!(
            "steady ms/sweep untraced {:.3} vs traced {:.3}",
            p * 1e3,
            t * 1e3
        ),
    );
    out.note(
        "speedup",
        format!(
            "steady ms/sweep 1 worker {:.3} vs {WORKERS} workers {:.3}",
            single.steady_s() * 1e3,
            t * 1e3
        ),
    );
    Ok(())
}
