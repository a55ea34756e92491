//! The repository benchmark: end-to-end and per-layer metrics of the
//! locassm workspace on three workloads (see `README.md`).
//!
//! [`run`] measures one workload for a fixed time and returns every
//! metric of the registry in [`metrics`]; the `perfbench` binary prints
//! them as one JSON line.

pub mod json;
pub mod metrics;
mod pipeline;
mod spans;
mod stats;
mod workload;

pub use workload::{Kind, Size};

use spans::Tracer;
use stats::{median, percentile};
use std::path::PathBuf;
use std::time::Instant;
use workload::{Batch, Layers, Service, Workload};

#[global_allocator]
static ALLOC: stats::CountingAlloc = stats::CountingAlloc;

/// How to run one workload.
#[derive(Debug, Clone)]
pub struct Opts {
    pub kind: Kind,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    pub size: Size,
    /// Set-ups to measure; each is synthesis plus a warm-up pass.
    pub setup_runs: usize,
    /// Measure each set-up in a fresh child process running this
    /// executable's `--setup-child` mode (cold warp pool, full size);
    /// `None` measures in this process.
    pub setup_exe: Option<PathBuf>,
    /// Where the traced run writes its spans (Chrome trace JSON).
    pub spans_out: Option<PathBuf>,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in registry order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Digest of every modeled statistic of the workload.
    pub modeled_digest: String,
    pub passes: usize,
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    json::quote(n),
                    json::quote(u)
                )
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One set-up as the user pays it: synthesize the workload's inputs,
/// then run the warm-up pass (over the first part) that fills the warp
/// pool.
pub fn setup_once(kind: Kind, size: Size, seed: u64) -> Setup {
    fn finish<W: Workload>(t: Instant, w: W) -> Setup {
        let synth = t.elapsed().as_secs_f64();
        w.pass(0);
        Setup {
            seconds: t.elapsed().as_secs_f64(),
            synth,
            rss_mb: stats::peak_rss_mb(),
        }
    }
    let t = Instant::now();
    match kind {
        Kind::ServiceOverload => finish(t, Service::new(size, seed)),
        kind => finish(t, Batch::new(kind, size, seed)),
    }
}

/// What one set-up measured.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// Synthesis plus warm-up pass.
    pub seconds: f64,
    pub synth: f64,
    /// Peak resident memory of the process after the set-up, MB.
    pub rss_mb: f64,
}

impl Setup {
    pub fn line(&self) -> String {
        format!(
            "setup_child {} {} {}",
            self.seconds, self.synth, self.rss_mb
        )
    }

    fn parse(line: &str) -> Option<Setup> {
        let v: Vec<f64> = line
            .strip_prefix("setup_child ")?
            .split(' ')
            .filter_map(|x| x.parse().ok())
            .collect();
        match v[..] {
            [seconds, synth, rss_mb] => Some(Setup {
                seconds,
                synth,
                rss_mb,
            }),
            _ => None,
        }
    }
}

fn measure_setups(o: &Opts) -> Result<Vec<Setup>, String> {
    (0..o.setup_runs.max(1))
        .map(|_| match &o.setup_exe {
            None => Ok(setup_once(o.kind, o.size, o.seed)),
            Some(exe) => {
                let out = std::process::Command::new(exe)
                    .args(["--setup-child", "--workload", o.kind.name()])
                    .args(["--seed", &o.seed.to_string()])
                    .output()
                    .map_err(|e| format!("set-up child: {e}"))?;
                let text = String::from_utf8_lossy(&out.stdout);
                match text.lines().last().and_then(Setup::parse) {
                    Some(s) if out.status.success() => Ok(s),
                    _ => Err(format!(
                        "set-up child failed: {}",
                        String::from_utf8_lossy(&out.stderr)
                    )),
                }
            }
        })
        .collect()
}

/// Measure one workload.
pub fn run(o: &Opts) -> Result<Report, String> {
    let setups = measure_setups(o)?;
    match o.kind {
        Kind::ServiceOverload => drive(o, Service::new(o.size, o.seed).with_oracle(), &setups),
        kind => drive(o, Batch::new(kind, o.size, o.seed).with_oracle(), &setups),
    }
}

/// Span name → per-layer metric stem (self time in seconds).
fn span_metric(name: &str) -> Option<&'static str> {
    Some(match name {
        "kernels.stage" => "kernels.stage_s",
        "kernels.construct" => "kernels.construct_s",
        "kernels.walk" => "kernels.walk_s",
        "kernels.footprint" => "kernels.footprint_s",
        "simt.launch" => "simt.launch_s",
        "simt.sched" => "simt.sched_s",
        "core.bin" => "core.bin_s",
        "service.run" => "service.run_s",
        _ => return None,
    })
}

/// Fold span self times into the per-pass layer maps, then derive the
/// interpreter throughput from the launch spans' full durations.
fn add_span_times(tracer: &Tracer, passes: &mut [Layers]) {
    let spans = tracer.spans();
    for (s, self_ns) in spans.iter().zip(Tracer::self_times(&spans)) {
        let (Some(stem), Some(layers)) = (span_metric(s.name), passes.get_mut(s.pass as usize))
        else {
            continue;
        };
        // Pairing-independent layers sum over the pass's pairings.
        let key = if matches!(stem, "core.bin_s" | "service.run_s") {
            stem.to_string()
        } else {
            format!("{stem}.{}", s.track)
        };
        *layers.entry(key).or_default() += self_ns as f64 / 1e9;
        if s.name == "simt.launch" {
            *layers
                .entry(format!("simt.launch_total_s.{}", s.track))
                .or_default() += (s.end_ns - s.start_ns) as f64 / 1e9;
        }
    }
    for layers in passes.iter_mut() {
        for (_, sfx) in metrics::PAIRINGS {
            if let (Some(mi), Some(t)) = (
                layers.get(&format!("simt.minstr.{sfx}")),
                layers.get(&format!("simt.launch_total_s.{sfx}")),
            ) {
                let v = mi / t;
                layers.insert(format!("simt.minstr_per_s.{sfx}"), v);
            }
        }
    }
}

fn drive<W: Workload>(o: &Opts, w: W, setups: &[Setup]) -> Result<Report, String> {
    // Warm up in this process too, so the timed passes see a filled pool.
    let warm = w.pass(0);
    let mut failed = w.check(0, &warm)?;
    let mut attempted = w.ops(0);
    // Each part's modeled digest must repeat exactly on every pass.
    let mut digests = vec![None; w.parts()];
    digests[0] = Some(w.digest(&warm).hex());
    let mut last: Vec<Option<W::Out>> = (0..w.parts()).map(|_| None).collect();
    last[0] = Some(warm);

    let tracer = Tracer::default();
    let mut times = Vec::new();
    let mut traced_times = Vec::new();
    let mut layer_passes: Vec<Layers> = Vec::new();
    let start = Instant::now();
    while times.len() < w.parts().max(2) || start.elapsed().as_secs_f64() < o.seconds {
        let part = times.len() % w.parts();
        let t = Instant::now();
        let out = w.pass(part);
        times.push(t.elapsed().as_secs_f64());
        failed += w.check(part, &out)?;
        attempted += w.ops(part);
        let digest = w.digest(&out).hex();
        if *digests[part].get_or_insert_with(|| digest.clone()) != digest {
            return Err("modeled outputs changed between passes of the same inputs".into());
        }
        if o.trace {
            stats::count_allocs(true);
            let t = Instant::now();
            let layers = w.traced_pass(part, &tracer, layer_passes.len() as u32, &out);
            traced_times.push(t.elapsed().as_secs_f64());
            stats::count_allocs(false);
            layer_passes.push(layers?);
            attempted += w.ops(part);
        }
        last[part] = Some(out);
    }
    let last: Vec<W::Out> = last
        .into_iter()
        .map(|o| o.expect("every part ran"))
        .collect();
    let (modeled, digest) = w.modeled(&last)?;

    let mut values: Vec<(String, f64)> = Vec::new();
    let defs = if o.trace {
        stats::count_allocs(true);
        let once = w.traced_once(&tracer, layer_passes.len() as u32);
        stats::count_allocs(false);
        layer_passes.push(once?);
        add_span_times(&tracer, &mut layer_passes);
        if let Some(path) = &o.spans_out {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            std::fs::write(path, Tracer::chrome_json(&tracer.spans()))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        values.push((
            "workloads.synth_s".into(),
            median(&setups.iter().map(|s| s.synth).collect::<Vec<_>>()),
        ));
        values.push((
            "trace.overhead_s".into(),
            median(&traced_times) - median(&times),
        ));
        values.push((
            "process.peak_rss_mb".into(),
            median(&setups.iter().map(|s| s.rss_mb).collect::<Vec<_>>()),
        ));
        metrics::per_layer()
    } else {
        values.push((
            "setup_s".into(),
            median(&setups.iter().map(|s| s.seconds).collect::<Vec<_>>()),
        ));
        values.push(("pass_s.p50".into(), percentile(&times, 50.0)));
        values.push(("pass_s.p90".into(), percentile(&times, 90.0)));
        values.extend(modeled);
        metrics::end_to_end()
    };

    let mut out = Vec::with_capacity(defs.len());
    for d in defs {
        let v = match values.iter().find(|(n, _)| *n == d.name) {
            Some(&(_, v)) => v,
            // Per-layer values: median over the passes that recorded the
            // layer; 0 for a layer this workload never enters.
            None if o.trace => {
                let vs: Vec<f64> = layer_passes
                    .iter()
                    .filter_map(|l| l.get(&d.name).copied())
                    .collect();
                median(&vs)
            }
            None => return Err(format!("metric {} was not measured", d.name)),
        };
        if !v.is_finite() {
            return Err(format!("metric {} is not finite ({v})", d.name));
        }
        out.push((d.name, v, d.unit));
    }
    Ok(Report {
        attempted,
        failed,
        metrics: out,
        modeled_digest: digest.hex(),
        passes: times.len(),
    })
}
