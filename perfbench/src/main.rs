//! The mogs benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <engine-seg320|serve-mix|fleet-stereo320> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds its inputs from `--seed`, measures for about
//! `--seconds`, checks the program's outputs, prints a readable report
//! and, as its last line, one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! With `--trace 0` the metrics are the end-to-end metrics; with
//! `--trace 1` the per-layer metrics of a separate traced pass. See
//! `perfbench/METRICS.md` for every metric's definition.

mod engine_seg;
mod fleet_stereo;
mod metrics;
mod probes;
mod serve_mix;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use crate::metrics::{E2E, LAYER};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: u64,
    /// Traced pass (per-layer metrics) instead of the end-to-end pass.
    pub trace: bool,
}

/// One correctness gate's verdict.
#[derive(Debug, Clone)]
pub struct Gate {
    /// Gate name.
    pub name: &'static str,
    /// Whether it passed.
    pub ok: bool,
    /// What was compared.
    pub detail: String,
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (jobs, fleet runs).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Correctness gates, all run outside the timed windows.
    pub gates: Vec<Gate>,
    /// Metric values by name (end-to-end or per-layer).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra report lines: sample counts, settings, provenance of
    /// derived figures.
    pub notes: Vec<(String, String)>,
    /// Additive breakdowns of end-to-end figures.
    pub breakdowns: Vec<Breakdown>,
}

/// Parts that add up to one end-to-end figure.
#[derive(Debug)]
pub struct Breakdown {
    /// What the figure is.
    pub title: String,
    /// The figure, ms.
    pub total_ms: f64,
    /// `(part, ms)` rows, the remainder row included.
    pub rows: Vec<(String, f64)>,
}

impl Outcome {
    /// Records a gate.
    pub fn gate(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.gates.push(Gate {
            name,
            ok,
            detail: detail.into(),
        });
    }

    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a report note.
    pub fn note(&mut self, key: impl Into<String>, value: impl ToString) {
        self.notes.push((key.into(), value.to_string()));
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    };
    if !(1..=120).contains(&args.seconds) {
        return Err("--seconds must be in 1..=120".to_string());
    }
    Ok(args)
}

/// Scratch space for one run, inside the working directory.
#[must_use]
pub fn scratch_dir(tag: &str) -> PathBuf {
    Path::new(".perfbench")
        .join("tmp")
        .join(format!("{tag}-{}", std::process::id()))
}

/// Writes the run's spans to `.perfbench/trace-<workload>.jsonl` and
/// notes the path; a write failure is noted, not fatal.
pub fn write_trace(out: &mut Outcome, tracer: &trace::Tracer, workload: &str) {
    let path = Path::new(".perfbench").join(format!("trace-{workload}.jsonl"));
    let written = std::fs::create_dir_all(".perfbench").and_then(|()| tracer.write_jsonl(&path));
    match written {
        Ok(()) => out.note("trace_file", path.display()),
        Err(e) => out.note("trace_file", format!("not written: {e}")),
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
#[must_use]
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn provenance(args: &Args) -> Vec<(&'static str, String)> {
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let commit = command_line("git", &["rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    vec![
        ("host", host),
        ("nproc", nproc.to_string()),
        ("commit", commit),
        ("rustc", rustc),
        ("profile", profile.to_string()),
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
    ]
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() -> ExitCode {
    // Fleet workers re-execute this binary; they run the worker
    // protocol and exit before any benchmark logic.
    match mogs_fleet::maybe_run_worker() {
        Ok(true) => return ExitCode::SUCCESS,
        Ok(false) => {}
        Err(_) => return ExitCode::FAILURE,
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "engine-seg320" => engine_seg::run(&args),
        "serve-mix" => serve_mix::run(&args),
        "fleet-stereo320" => fleet_stereo::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("perfbench: {} failed: {err}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let _ = std::fs::remove_dir_all(scratch_dir(&args.workload));

    let table = if args.trace { LAYER } else { E2E };
    let mut missing = Vec::new();
    let mut rendered = Vec::new();
    for m in table {
        let value = match outcome.metrics.get(m.name).copied() {
            Some(v) if v.is_finite() => v,
            // A layer this workload does not exercise reads 0.
            _ if args.trace => 0.0,
            _ => {
                missing.push(m.name);
                0.0
            }
        };
        rendered.push((m.name, value, m.unit));
    }
    if !missing.is_empty() {
        outcome.gate(
            "metrics_finite",
            false,
            format!("no finite value for {}", missing.join(", ")),
        );
    }
    let correct = outcome.gates.iter().all(|g| g.ok);

    println!("# mogs perfbench");
    for (k, v) in provenance(&args) {
        println!("# {k}: {v}");
    }
    for g in &outcome.gates {
        println!(
            "# gate {}: {} ({})",
            g.name,
            if g.ok { "ok" } else { "FAIL" },
            g.detail
        );
    }
    for (k, v) in &outcome.notes {
        println!("# {k}: {v}");
    }
    for b in &outcome.breakdowns {
        let sum: f64 = b.rows.iter().map(|(_, ms)| ms).sum();
        println!(
            "# breakdown {}: {:.3} ms (parts sum {sum:.3} ms)",
            b.title, b.total_ms
        );
        for (part, ms) in &b.rows {
            println!(
                "#   {part:<34} {ms:>12.3} ms  {:>6.1}%",
                100.0 * ms / b.total_ms
            );
        }
    }
    for (name, value, unit) in &rendered {
        println!("{name:<36} {value:>16.6} {unit}");
    }
    let metrics: Vec<String> = rendered
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                json_escape(name),
                value,
                json_escape(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
