//! The metric registry: every end-to-end and per-layer metric the
//! benchmark prints, with its unit, direction and (end-to-end only)
//! regression bound. `BENCHMARK.json` is rendered from this registry
//! (`perfbench --benchmark-json`), and the self-test checks that the
//! checked-in file and the printed metrics agree with it.

use crate::json::quote;
use crate::Kind;

/// One metric definition.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// Allowed worsening as a share of the parent's median (end-to-end only).
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: &'static str, bound: Option<f64>) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound,
    }
}

/// The three native device pairings every batch workload runs, with the
/// suffix their per-pairing metrics carry.
pub const PAIRINGS: [(gpu_specs::DeviceId, &str); 3] = [
    (gpu_specs::DeviceId::A100, "cuda"),
    (gpu_specs::DeviceId::Mi250x, "hip"),
    (gpu_specs::DeviceId::Max1550, "sycl"),
];

/// End-to-end metrics, printed by every run with `--trace 0`.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s", "lower", Some(0.25)),
        def("pass_s.p50", "s", "lower", Some(0.25)),
        def("pass_s.p90", "s", "lower", Some(0.25)),
        def("modeled_s.cuda", "s", "lower", Some(0.12)),
        def("modeled_s.hip", "s", "lower", Some(0.12)),
        def("modeled_s.sycl", "s", "lower", Some(0.12)),
        def("p_arch_gap_pts", "pts", "lower", Some(0.1)),
        def("latency_s.p50", "s", "lower", Some(0.15)),
        def("latency_s.p99", "s", "lower", Some(0.15)),
        def("goodput_rps", "1/s", "higher", Some(0.12)),
        def("slo_rate_rps", "1/s", "higher", Some(0.12)),
        def("ok_frac", "fraction", "higher", Some(0.1)),
    ]
}

/// Per-pairing per-layer metrics (suffixed `.cuda`, `.hip`, `.sycl`).
const PER_PAIRING: [(&str, &str, &str); 24] = [
    ("kernels.stage_s", "s", "lower"),
    ("kernels.construct_s", "s", "lower"),
    ("kernels.walk_s", "s", "lower"),
    ("kernels.footprint_s", "s", "lower"),
    ("kernels.construct.minstr", "Minstr", "lower"),
    ("kernels.walk.minstr", "Minstr", "lower"),
    ("kernels.lane_util", "fraction", "higher"),
    ("kernels.atomic_replays", "count", "lower"),
    ("kernels.escalations", "count", "lower"),
    ("kernels.failed", "count", "lower"),
    ("simt.launch_s", "s", "lower"),
    ("simt.minstr_per_s", "Minstr/s", "higher"),
    ("simt.allocs_per_warp", "count", "lower"),
    ("simt.pool_reuse_frac", "fraction", "higher"),
    ("simt.sched_s", "s", "lower"),
    ("simt.sched.occupancy", "fraction", "higher"),
    ("simt.sched.hidden_frac", "fraction", "higher"),
    ("memhier.l1_hit_frac", "fraction", "higher"),
    ("memhier.l2_hit_frac", "fraction", "higher"),
    ("memhier.hbm_mb", "MB", "lower"),
    ("gpu-specs.t_compute_s", "s", "lower"),
    ("gpu-specs.t_bandwidth_s", "s", "lower"),
    ("gpu-specs.t_latency_s", "s", "lower"),
    ("perfmodel.arch_eff", "fraction", "higher"),
];

/// Per-layer metrics that are not per pairing.
const SHARED: [(&str, &str, &str); 12] = [
    ("process.peak_rss_mb", "MB", "lower"),
    ("workloads.synth_s", "s", "lower"),
    ("core.bin_s", "s", "lower"),
    ("core.batches", "count", "lower"),
    ("service.run_s", "s", "lower"),
    ("service.batches", "count", "lower"),
    ("service.batch_fill", "fraction", "higher"),
    ("service.admitted", "count", "higher"),
    ("service.rejected", "count", "lower"),
    ("service.requeues", "count", "lower"),
    ("service.quarantined", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
];

/// Per-layer metrics, printed by every run with `--trace 1`.
pub fn per_layer() -> Vec<MetricDef> {
    let mut v = Vec::new();
    for (name, unit, better) in PER_PAIRING {
        for (_, sfx) in PAIRINGS {
            v.push(def(&format!("{name}.{sfx}"), unit, better, None));
        }
    }
    v.extend(SHARED.iter().map(|&(n, u, b)| def(n, u, b, None)));
    v
}

/// How long one run measures (`run_seconds`).
pub const RUN_SECONDS: u32 = 30;

/// Render `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let metric = |m: &MetricDef| {
        let mut s = format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}",
            quote(&m.name),
            quote(m.unit),
            quote(m.better)
        );
        if let Some(b) = m.bound {
            s.push_str(&format!(", \"bound\": {b}"));
        }
        s.push('}');
        s
    };
    let list = |v: Vec<String>| v.join(",\n");
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        COMMAND.iter().map(|a| quote(a)).collect::<Vec<_>>().join(", "),
        RUN_SECONDS,
        list(Kind::ALL
            .iter()
            .map(|k| format!("    {{\"name\": {}, \"why\": {}}}", quote(k.name()), quote(k.why())))
            .collect()),
        list(end_to_end().iter().map(metric).collect()),
        list(per_layer().iter().map(metric).collect()),
    )
}

/// The command that runs the benchmark, from the repository root.
pub const COMMAND: [&str; 10] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--bin",
    "perfbench",
    "--",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_respects_the_format_limits() {
        let mut names = std::collections::HashSet::new();
        for m in end_to_end().iter().chain(per_layer().iter()) {
            assert!(names.insert(m.name.clone()), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        assert!(end_to_end()
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        let setup_bound = end_to_end()[0].bound.unwrap();
        assert!(end_to_end().iter().all(|m| m.bound.unwrap() <= setup_bound));
        for kind in Kind::ALL {
            assert!(
                kind.why().len() <= 200 && !kind.why().contains('\n'),
                "{kind:?}"
            );
        }
    }
}
