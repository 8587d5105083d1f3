//! The metric names the benchmark reports, in output order.
//!
//! `BENCHMARK.json` at the repository root lists the same names and
//! units; the test below keeps the two in step. Definitions, directions
//! and the layer-to-end-to-end mapping are in `perfbench/METRICS.md`.

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics (untraced pass).
pub const E2E: &[Metric] = &[
    m("setup_s", "s"),
    m("updates_per_s", "1/s"),
    m("sweep_ms_p50", "ms"),
    m("sweep_ms_p95", "ms"),
    m("job_ms_p50.lo", "ms"),
    m("job_ms_p90.lo", "ms"),
    m("job_ms_p50.hi", "ms"),
    m("job_ms_p90.hi", "ms"),
    m("slo_rate", "jobs/s"),
    m("rss_peak_mb", "MB"),
];

/// Per-layer metrics (traced pass).
pub const LAYER: &[Metric] = &[
    m("vision.build_ms", "ms"),
    m("audit.certify_ms", "ms"),
    m("engine.submit_ms", "ms"),
    m("engine.phase_ms_mean", "ms"),
    m("engine.queue_depth_mean", "jobs"),
    m("engine.queue_depth_hwm", "jobs"),
    m("engine.queue_wait_ms", "ms"),
    m("engine.worker_busy_frac", "fraction"),
    m("engine.runner_other_ms_per_sweep", "ms"),
    m("engine.site_updates", "count"),
    m("kernel.draw_ms_per_sweep", "ms"),
    m("kernel.ns_per_site", "ns"),
    m("kernel.chunks_per_sweep", "count"),
    m("gibbs.reference_updates_per_s", "1/s"),
    m("ckpt.writes", "count"),
    m("ckpt.bytes_per_write", "bytes"),
    m("ckpt.write_ms_p50", "ms"),
    m("ckpt.encode_ms", "ms"),
    m("ckpt.capture_ms", "ms"),
    m("serve.post_ms_p50", "ms"),
    m("serve.post_ms_p99", "ms"),
    m("serve.poll_ms_p50", "ms"),
    m("serve.result_ms_p50", "ms"),
    m("serve.result_bytes_mean", "bytes"),
    m("serve.requests_per_job", "count"),
    m("serve.parse_us", "us"),
    m("serve.router_post_us", "us"),
    m("serve.transport_us", "us"),
    m("serve.job_ms_p99.lo", "ms"),
    m("serve.job_ms_p99.hi", "ms"),
    m("serve.kind.seg.job_ms_p50", "ms"),
    m("serve.kind.stereo.job_ms_p50", "ms"),
    m("serve.kind.raw.job_ms_p50", "ms"),
    m("serve.kind.diag.job_ms_p50", "ms"),
    m("serve.backlog_max", "jobs"),
    m("serve.refused", "count"),
    m("serve.reconnects", "count"),
    m("gen.late_ms_p99", "ms"),
    m("fleet.partition_ms", "ms"),
    m("fleet.shard_compute_ms_per_sweep", "ms"),
    m("fleet.frames_per_sweep", "frames-computed"),
    m("fleet.bytes_per_sweep", "bytes-computed"),
    m("fleet.codec_ms_per_sweep", "ms"),
    m("fleet.other_ms_per_sweep", "ms"),
    m("fleet.speedup_2w", "ratio"),
    m("fleet.workers_spawned", "count"),
    m("fleet.migrations", "count"),
    m("trace.overhead_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn section<'a>(json: &'a str, key: &str) -> &'a str {
        let start = json
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let rest = &json[start..];
        let end = rest.find(']').expect("section closes");
        &rest[..end]
    }

    /// `BENCHMARK.json` names exactly these metrics, in this order, with
    /// these units.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        for (key, table) in [("end_to_end", E2E), ("per_layer", LAYER)] {
            let body = section(&json, key);
            let names: Vec<&str> = body
                .split("\"name\"")
                .skip(1)
                .filter_map(|s| s.split('"').nth(1))
                .collect();
            let units: Vec<&str> = body
                .split("\"unit\"")
                .skip(1)
                .filter_map(|s| s.split('"').nth(1))
                .collect();
            let want: Vec<&str> = table.iter().map(|m| m.name).collect();
            let want_units: Vec<&str> = table.iter().map(|m| m.unit).collect();
            assert_eq!(names, want, "{key} names");
            assert_eq!(units, want_units, "{key} units");
        }
    }

    #[test]
    fn names_and_units_fit_the_format() {
        let mut seen = std::collections::HashSet::new();
        for m in E2E.iter().chain(LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
