//! `engine-seg320`: one long 320×320, M = 5 segmentation job with 8
//! chunks on the softmax backend, submitted straight to an [`Engine`]
//! with two workers, writing a `mogs-ckpt` checkpoint every
//! [`CKPT_EVERY`] sweeps into a scratch store.
//!
//! The job is repeated a fixed number of times per run (a function of
//! `--seconds` only). Each repetition rebuilds the scene and field, so
//! set-up is measured once per repetition and reported as the median.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use mogs_audit::{color_schedule, verify_certificate};
use mogs_ckpt::{Checkpoint, CheckpointStore};
use mogs_engine::prelude::*;
use mogs_engine::MetricsSnapshot;
use mogs_gibbs::sweep::{checkerboard_sweep_with_scratch, SweepScratch};
use mogs_mrf::{Label, Topology};
use mogs_vision::segmentation::ClassMeanSingleton;
use mogs_vision::{synthetic, Segmentation, SegmentationConfig};

use crate::probes::{KernelProbe, SweepClock, TimedKernel, TimedWriter};
use crate::stats::{mean, median, quantile};
use crate::trace::{attribute, Tracer};
use crate::{scratch_dir, Args, Breakdown, Outcome};

/// Grid side.
pub const SIDE: usize = 320;
/// Classes.
pub const LABELS: u16 = 5;
/// Deterministic chunks per color group.
pub const CHUNKS: usize = 8;
/// Sweeps per job.
pub const SWEEPS: usize = 300;
/// Checkpoint cadence, sweeps. At 10, checkpoint sweeps are ~10% of
/// all sweeps, so `sweep_ms_p95` sits inside them rather than on the
/// edge between them and ordinary sweeps (at 20 they are 4.7%).
pub const CKPT_EVERY: usize = 10;
/// Engine worker threads.
pub const WORKERS: usize = 2;
/// Scene noise standard deviation (8-bit scale).
const NOISE: f64 = 6.0;
const STORE_KEY: &str = "seg320";

/// The chain's per-sweep seed derivation, shared by the engine and the
/// reference sweep.
fn sweep_seed(seed: u64, iteration: usize) -> u64 {
    seed.wrapping_add((iteration as u64).wrapping_mul(0xA24B_AED4_963E_E407))
}

fn build(seed: u64) -> Segmentation {
    let scene = synthetic::region_scene(SIDE, SIDE, usize::from(LABELS), NOISE, seed);
    Segmentation::new(
        scene.image,
        SegmentationConfig {
            num_labels: LABELS,
            threads: CHUNKS,
            ..SegmentationConfig::default()
        },
    )
}

fn sampler(app: &Segmentation) -> BackendSampler {
    BackendSampler::try_new(Backend::Softmax, app.mrf().temperature())
        .expect("the softmax backend always constructs")
}

fn job<K: SweepKernel>(
    app: &Segmentation,
    kernel: K,
    seed: u64,
) -> InferenceJob<ClassMeanSingleton, K> {
    let mut job = app.engine_job(kernel, SWEEPS, seed);
    job.threads = CHUNKS;
    // The energy trace stays on (it is part of the bit-identity gates);
    // mode histograms are off, so a checkpoint is the label plane plus
    // the trace.
    job.track_modes = false;
    job
}

/// What one repetition measured.
struct Rep {
    setup_s: f64,
    job_s: f64,
    updates_per_s: f64,
    /// Per-sweep wall times, ms, in sweep order.
    sweeps_ms: Vec<f64>,
    output: JobOutput,
    root: u64,
    writes_ms: Vec<f64>,
}

fn run_rep(
    engine: &Engine,
    seed: u64,
    store: &CheckpointStore,
    probe: Option<&Arc<KernelProbe>>,
) -> Result<Rep, String> {
    let tracer = probe.map_or_else(|| Tracer::new(false), |p| Arc::clone(p.tracer()));
    let root = tracer.reserve();
    let job_span = tracer.reserve();
    let t0 = Instant::now();
    let app = build(seed);
    let t_built = Instant::now();
    tracer.record("vision.build", root, 0, t0, t_built);
    let clock = Arc::new(SweepClock::default());
    let base_writer = store.writer(STORE_KEY, String::new());
    let mut timed_writer = None;
    let (handle, t_sub0, t_sub1) = match probe {
        None => {
            let mut job = job(&app, sampler(&app), seed);
            job.sink = Some(clock.clone());
            job.checkpoint = Some(CheckpointSpec {
                policy: CheckpointPolicy::every(CKPT_EVERY),
                writer: base_writer,
            });
            let t = Instant::now();
            let h = engine.submit(job).map_err(|e| format!("submit: {e}"))?;
            (h, t, Instant::now())
        }
        Some(p) => {
            p.parent.store(job_span, Ordering::Relaxed);
            let writer = TimedWriter::new(base_writer, Arc::clone(&tracer));
            writer.parent.store(job_span, Ordering::Relaxed);
            timed_writer = Some(Arc::clone(&writer));
            let mut job = job(&app, TimedKernel::new(sampler(&app), Arc::clone(p)), seed);
            job.sink = Some(clock.clone());
            job.checkpoint = Some(CheckpointSpec {
                policy: CheckpointPolicy::every(CKPT_EVERY),
                writer,
            });
            let t = Instant::now();
            let h = engine.submit(job).map_err(|e| format!("submit: {e}"))?;
            (h, t, Instant::now())
        }
    };
    tracer.record("engine.submit", root, 0, t_sub0, t_sub1);
    let output = handle.wait_result().map_err(|e| format!("job: {e}"))?;
    let t_end = Instant::now();
    tracer.record_as(job_span, "engine.job", root, 0, t_sub1, t_end);
    tracer.record_as(root, "engine-seg320.rep", 0, 0, t0, t_end);

    let stamps = clock.stamps();
    if stamps.len() != SWEEPS {
        return Err(format!(
            "sweep clock saw {} of {SWEEPS} sweeps",
            stamps.len()
        ));
    }
    let mut prev = t_sub1;
    let mut sweeps_ms = Vec::with_capacity(SWEEPS);
    for &s in &stamps {
        sweeps_ms.push((s - prev).as_secs_f64() * 1e3);
        prev = s;
    }
    let sampling_s = (prev - t_sub1).as_secs_f64();
    let writes_ms = timed_writer
        .map(|w| {
            w.writes_ns
                .lock()
                .map(|v| v.iter().map(|&ns| ns as f64 / 1e6).collect())
                .unwrap_or_default()
        })
        .unwrap_or_default();
    Ok(Rep {
        setup_s: (t_sub1 - t0).as_secs_f64(),
        job_s: (t_end - t_sub1).as_secs_f64(),
        updates_per_s: (SIDE * SIDE * SWEEPS) as f64 / sampling_s,
        sweeps_ms,
        output,
        root,
        writes_ms,
    })
}

/// Is sweep `j` (0-based) the one that follows a checkpoint boundary?
fn after_checkpoint(j: usize) -> bool {
    j > 0 && j.is_multiple_of(CKPT_EVERY)
}

fn checkpoint_files(store: &CheckpointStore) -> Vec<std::path::PathBuf> {
    let mut files: Vec<_> = std::fs::read_dir(store.dir())
        .map(|rd| {
            rd.filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

fn label_bytes(labels: &[Label]) -> Vec<u8> {
    labels.iter().map(|l| l.value()).collect()
}

fn same_output(a: &JobOutput, b: &JobOutput) -> bool {
    a.labels == b.labels
        && a.map_estimate == b.map_estimate
        && a.energy_trace.len() == b.energy_trace.len()
        && a.energy_trace
            .iter()
            .zip(&b.energy_trace)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Repetitions per run: fixed by `--seconds` alone, so every commit
/// does the same work.
fn repetitions(seconds: u64) -> usize {
    ((seconds as f64 / 2.6).round() as usize).max(2)
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures (store, admission) as text.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let seed = args.seed;
    let engine = Engine::new(EngineConfig {
        workers: WORKERS,
        queue_capacity: 4,
        max_active_jobs: 1,
        ..EngineConfig::default()
    });
    let base = scratch_dir("engine-seg320");
    let reps_total = repetitions(args.seconds);
    // The traced pass runs after an equal untraced pass, so the tracing
    // overhead is measured on the same process and inputs.
    let (plain_n, traced_n) = if args.trace {
        (reps_total.div_ceil(2), (reps_total / 2).max(1))
    } else {
        (reps_total, 0)
    };
    let mut plain = Vec::new();
    let mut stores = Vec::new();
    for i in 0..plain_n {
        let store = CheckpointStore::open(base.join(format!("plain{i}")), 64)
            .map_err(|e| format!("checkpoint store: {e}"))?;
        plain.push(run_rep(&engine, seed, &store, None)?);
        stores.push(store);
    }
    let tracer = Tracer::new(true);
    let probe = KernelProbe::new(Arc::clone(&tracer));
    let before: MetricsSnapshot = engine.metrics();
    let mut traced = Vec::new();
    let mut traced_wall_s = 0.0;
    for i in 0..traced_n {
        let store = CheckpointStore::open(base.join(format!("traced{i}")), 64)
            .map_err(|e| format!("checkpoint store: {e}"))?;
        let rep = run_rep(&engine, seed, &store, Some(&probe))?;
        traced_wall_s += rep.job_s;
        traced.push(rep);
        stores.push(store);
    }
    let after = engine.metrics();
    out.attempted = (plain.len() + traced.len()) as u64;
    out.failed = after.jobs_failed + after.jobs_cancelled + after.jobs_panicked;
    out.note(
        "failed_frac",
        format!(
            "{:.6} ({} of {})",
            out.failed as f64 / out.attempted as f64,
            out.failed,
            out.attempted
        ),
    );

    // ---- correctness gates (outside every timed window) ----
    let first = &plain[0];
    let all: Vec<&Rep> = plain.iter().chain(&traced).collect();
    out.gate(
        "repetitions_identical",
        all.iter().all(|r| same_output(&r.output, &first.output)),
        format!("{} repetitions, labels + MAP + energy bits", all.len()),
    );
    if !traced.is_empty() {
        out.gate(
            "traced_equals_untraced",
            traced.iter().all(|r| same_output(&r.output, &first.output)),
            "wrapped kernel/writer outputs vs plain outputs",
        );
    }
    let files = checkpoint_files(&stores[0]);
    let expected_writes = (SWEEPS - 1) / CKPT_EVERY;
    out.gate(
        "checkpoint_count",
        files.len() == expected_writes,
        format!("{} files, expected {expected_writes}", files.len()),
    );
    let load = |path: &std::path::Path| -> Result<Checkpoint, String> {
        stores[0]
            .load(path)
            .map_err(|e| format!("load {}: {e}", path.display()))
    };
    let first_ckpt = load(files.first().ok_or("no checkpoint written")?)?;
    let last_ckpt = load(files.last().ok_or("no checkpoint written")?)?;

    // The first checkpoint equals the reference sweep at that sweep.
    let app = build(seed);
    let mrf = app.mrf();
    let reference_sampler = sampler(&app);
    let mut labels = mrf.uniform_labeling();
    let mut scratch = SweepScratch::new();
    let t = Instant::now();
    for it in 0..first_ckpt.state.next_sweep {
        checkerboard_sweep_with_scratch(
            mrf,
            &mut labels,
            &reference_sampler,
            mrf.temperature(),
            CHUNKS,
            sweep_seed(seed, it),
            &mut scratch,
        );
    }
    let reference_s = t.elapsed().as_secs_f64();
    out.gate(
        "first_checkpoint_equals_reference",
        first_ckpt.state.next_sweep == CKPT_EVERY
            && first_ckpt.state.labels == label_bytes(&labels),
        format!(
            "sweep {} labels vs checkerboard_sweep",
            first_ckpt.state.next_sweep
        ),
    );
    // Resuming from the last checkpoint reproduces the final output.
    let resumed = engine
        .resume(job(&app, sampler(&app), seed), &last_ckpt.state)
        .map_err(|e| format!("resume: {e}"))?
        .wait_result()
        .map_err(|e| format!("resumed job: {e}"))?;
    out.gate(
        "resume_equals_final",
        same_output(&resumed, &first.output),
        format!(
            "resume at sweep {} vs uninterrupted",
            last_ckpt.state.next_sweep
        ),
    );
    engine.shutdown();

    let sites = (SIDE * SIDE) as f64;
    if args.trace {
        let ctx = TracedPass {
            plain: &plain,
            traced: &traced,
            before: &before,
            after: &after,
            tracer: &tracer,
            kernel: &probe,
            stores: &stores[plain.len()..],
            wall_s: traced_wall_s,
        };
        layer_metrics(&mut out, &ctx, &last_ckpt, &app)?;
        out.set(
            "gibbs.reference_updates_per_s",
            sites * first_ckpt.state.next_sweep as f64 / reference_s,
        );
        crate::write_trace(&mut out, &tracer, "engine-seg320");
    } else {
        e2e_metrics(&mut out, &plain);
    }
    Ok(out)
}

fn e2e_metrics(out: &mut Outcome, reps: &[Rep]) {
    let sweeps: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.sweeps_ms.iter().copied())
        .collect();
    let jobs_ms: Vec<f64> = reps.iter().map(|r| r.job_s * 1e3).collect();
    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let ups: Vec<f64> = reps.iter().map(|r| r.updates_per_s).collect();
    out.set("setup_s", median(&setup));
    out.set("updates_per_s", median(&ups));
    out.set("sweep_ms_p50", quantile(&sweeps, 0.5));
    out.set("sweep_ms_p95", quantile(&sweeps, 0.95));
    // One job class, run closed-loop: both steps report it.
    let (p50, p90) = (quantile(&jobs_ms, 0.5), quantile(&jobs_ms, 0.9));
    for (name, value) in [
        ("job_ms_p50.lo", p50),
        ("job_ms_p90.lo", p90),
        ("job_ms_p50.hi", p50),
        ("job_ms_p90.hi", p90),
    ] {
        out.set(name, value);
    }
    let wall_s: f64 = reps.iter().map(|r| r.setup_s + r.job_s).sum();
    out.set("slo_rate", reps.len() as f64 / wall_s);
    out.set("rss_peak_mb", crate::rss_peak_mb());
    let per_rep: Vec<String> = ups.iter().map(|u| format!("{:.3}M", u / 1e6)).collect();
    out.note("updates_per_s by repetition", per_rep.join(" "));
    out.note(
        "samples",
        format!(
            "sweeps n={} (p95 has {} beyond it), jobs n={}, set-ups n={}",
            sweeps.len(),
            sweeps.len() / 20,
            jobs_ms.len(),
            setup.len()
        ),
    );
}

/// What the traced pass leaves for the per-layer metrics.
struct TracedPass<'a> {
    plain: &'a [Rep],
    traced: &'a [Rep],
    before: &'a MetricsSnapshot,
    after: &'a MetricsSnapshot,
    tracer: &'a Tracer,
    kernel: &'a KernelProbe,
    stores: &'a [CheckpointStore],
    wall_s: f64,
}

fn layer_metrics(
    out: &mut Outcome,
    ctx: &TracedPass<'_>,
    last_ckpt: &Checkpoint,
    app: &Segmentation,
) -> Result<(), String> {
    let TracedPass {
        plain,
        traced,
        before,
        after,
        tracer,
        kernel,
        stores,
        wall_s,
    } = *ctx;
    let spans = tracer.spans();
    let by_name = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    };
    let sweeps_total = (traced.len() * SWEEPS) as f64;
    out.set("vision.build_ms", median(&by_name("vision.build")));
    out.set("engine.submit_ms", median(&by_name("engine.submit")));

    // Audit replay on the job's topology.
    let mut certify = Vec::new();
    for _ in 0..3 {
        let topo = Topology::from_grid(*app.mrf().grid(), app.mrf().neighborhood());
        let t = Instant::now();
        let cert = color_schedule(&topo, CHUNKS);
        let report = verify_certificate(&topo, &cert);
        certify.push(t.elapsed().as_secs_f64() * 1e3);
        if !report.is_clean() {
            return Err(format!("certificate replay: {}", report.summary()));
        }
    }
    out.set("audit.certify_ms", median(&certify));

    let phases = after.phase_latency.count - before.phase_latency.count;
    let phase_us = after.phase_latency.total_us - before.phase_latency.total_us;
    out.set(
        "engine.phase_ms_mean",
        phase_us as f64 / phases.max(1) as f64 / 1e3,
    );
    // One job at a time: the queue holds nothing between jobs.
    out.set("engine.queue_depth_mean", after.queue_depth as f64);
    out.set("engine.queue_depth_hwm", after.queue_depth_hwm as f64);
    out.set(
        "engine.site_updates",
        (after.site_updates - before.site_updates) as f64,
    );

    let busy_ns = kernel.busy_ns.load(Ordering::Relaxed) as f64;
    let drawn = kernel.sites.load(Ordering::Relaxed) as f64;
    out.set(
        "engine.worker_busy_frac",
        busy_ns / 1e9 / (WORKERS as f64 * wall_s),
    );
    out.set("kernel.draw_ms_per_sweep", busy_ns / 1e6 / sweeps_total);
    out.set("kernel.ns_per_site", busy_ns / drawn);
    out.set(
        "kernel.chunks_per_sweep",
        kernel.chunks.load(Ordering::Relaxed) as f64 / sweeps_total,
    );

    // Checkpoint layer.
    let writes: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.writes_ms.iter().copied())
        .collect();
    out.set("ckpt.writes", writes.len() as f64 / traced.len() as f64);
    let mut sizes = Vec::new();
    for store in stores {
        for f in checkpoint_files(store) {
            if let Ok(meta) = std::fs::metadata(&f) {
                sizes.push(meta.len() as f64);
            }
        }
    }
    out.set("ckpt.bytes_per_write", mean(&sizes));
    out.set("ckpt.write_ms_p50", median(&writes));
    let mut encode = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let text = mogs_ckpt::encode(last_ckpt);
        encode.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(text);
    }
    out.set("ckpt.encode_ms", median(&encode));
    let (mut ck, mut normal) = (Vec::new(), Vec::new());
    for r in traced {
        for (j, &ms) in r.sweeps_ms.iter().enumerate().skip(1) {
            if after_checkpoint(j) {
                ck.push(ms);
            } else {
                normal.push(ms);
            }
        }
    }
    let capture_ms = (median(&ck) - median(&normal) - median(&writes)).max(0.0);
    out.set("ckpt.capture_ms", capture_ms);

    // Self times per repetition: the parts add up to its wall time.
    let mut parts: std::collections::BTreeMap<&'static str, f64> =
        std::collections::BTreeMap::new();
    let mut total_ms = 0.0;
    for r in traced {
        let rep = attribute(&spans, r.root, "remainder (between calls)");
        for (k, ns) in rep {
            *parts.entry(k).or_insert(0.0) += ns as f64 / 1e6 / traced.len() as f64;
        }
        total_ms += (r.setup_s + r.job_s) * 1e3 / traced.len() as f64;
    }
    let job_self = parts.get("engine.job").copied().unwrap_or(0.0);
    let writes_per_job = writes.len() as f64 / traced.len() as f64;
    out.set(
        "engine.runner_other_ms_per_sweep",
        (job_self - writes_per_job * capture_ms) / SWEEPS as f64,
    );
    let rows: Vec<(String, f64)> = parts
        .iter()
        .map(|(k, ms)| {
            let label = match *k {
                "engine.job" => {
                    "engine.job self (runner: gather, publish, barrier, capture)".to_string()
                }
                other => other.to_string(),
            };
            (label, *ms)
        })
        .collect();
    out.breakdowns.push(Breakdown {
        title: "engine-seg320 repetition (mean of traced reps)".to_string(),
        total_ms,
        rows,
    });

    let plain_ups = median(&plain.iter().map(|r| r.updates_per_s).collect::<Vec<_>>());
    let traced_ups = median(&traced.iter().map(|r| r.updates_per_s).collect::<Vec<_>>());
    out.set("trace.overhead_pct", 100.0 * (plain_ups / traced_ups - 1.0));
    out.note(
        "trace_overhead",
        format!(
            "updates_per_s untraced {plain_ups:.0} (n={}) vs traced {traced_ups:.0} (n={})",
            plain.len(),
            traced.len()
        ),
    );
    Ok(())
}
