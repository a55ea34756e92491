//! Launch-engine benchmark: the pooled-vs-fresh `BENCH_kernels.json`
//! emitter.
//!
//! Measures the same run twice — warps drawn from the process-wide pool
//! versus constructed fresh per job — on the paper's k = 21 dataset, and
//! reports simulator throughput (warps/sec) together with the allocator
//! metrics the pooled engine exists to improve: heap allocations and bytes
//! requested per warp. Results are bit-identical between the two modes
//! (see the equivalence tests in `locassm-kernels`); this report is about
//! host cost only.
//!
//! The checked-in `BENCH_kernels.json` at the repo root is regenerated by
//! `cargo run --release -p locassm-bench --bin bench-kernels`; the tier-1
//! smoke test writes a throwaway copy under `target/` so `cargo test`
//! never dirties the work tree.

use crate::alloc_count;
use gpu_specs::DeviceId;
use locassm_core::io::Dataset;
use locassm_kernels::{run_local_assembly, GpuConfig};
use std::time::Instant;

/// Measurements for one launch mode (pooled or fresh).
#[derive(Debug, Clone, Copy)]
pub struct ModeStats {
    /// Wall-clock seconds for all measured iterations.
    pub wall_seconds: f64,
    /// Warps simulated across all iterations.
    pub warps: u64,
    /// Simulator throughput.
    pub warps_per_sec: f64,
    /// Heap allocation calls per simulated warp.
    pub allocs_per_warp: f64,
    /// Heap bytes requested per simulated warp.
    pub bytes_per_warp: f64,
}

/// The full pooled-vs-fresh comparison for one device/dataset pairing.
#[derive(Debug, Clone)]
pub struct PoolBenchReport {
    pub device: DeviceId,
    pub k: usize,
    pub scale: f64,
    pub seed: u64,
    pub contigs: usize,
    pub iterations: u32,
    pub fresh: ModeStats,
    pub pooled: ModeStats,
}

impl PoolBenchReport {
    /// Percentage reduction in heap allocations per warp, pooled vs fresh.
    pub fn alloc_reduction_pct(&self) -> f64 {
        reduction_pct(self.fresh.allocs_per_warp, self.pooled.allocs_per_warp)
    }

    /// Percentage reduction in heap bytes per warp, pooled vs fresh.
    pub fn bytes_reduction_pct(&self) -> f64 {
        reduction_pct(self.fresh.bytes_per_warp, self.pooled.bytes_per_warp)
    }

    /// Wall-clock speedup of the pooled run (> 1 means pooling is faster).
    pub fn speedup(&self) -> f64 {
        if self.pooled.wall_seconds == 0.0 {
            return 1.0;
        }
        self.fresh.wall_seconds / self.pooled.wall_seconds
    }

    /// The machine-readable report (the `BENCH_kernels.json` payload).
    pub fn to_json(&self) -> String {
        let mode = mode_json;
        format!(
            concat!(
                "{{\n",
                "  \"bench\": \"pooled_launch_engine\",\n",
                "  \"device\": \"{}\",\n",
                "  \"dataset\": {{\"k\": {}, \"scale\": {}, \"seed\": {}, \"contigs\": {}}},\n",
                "  \"iterations\": {},\n",
                "  \"fresh\": {},\n",
                "  \"pooled\": {},\n",
                "  \"delta\": {{\"alloc_reduction_pct\": {:.1}, ",
                "\"bytes_reduction_pct\": {:.1}, \"speedup\": {:.2}}}\n",
                "}}\n"
            ),
            self.device,
            self.k,
            self.scale,
            self.seed,
            self.contigs,
            self.iterations,
            mode(&self.fresh),
            mode(&self.pooled),
            self.alloc_reduction_pct(),
            self.bytes_reduction_pct(),
            self.speedup(),
        )
    }
}

fn reduction_pct(fresh: f64, pooled: f64) -> f64 {
    if fresh == 0.0 {
        return 0.0;
    }
    (fresh - pooled) / fresh * 100.0
}

/// Stable-field-order JSON for one mode's measurements. Field order is
/// part of the report contract so checked-in copies diff cleanly.
fn mode_json(s: &ModeStats) -> String {
    format!(
        concat!(
            "{{\"wall_seconds\": {:.6}, \"warps\": {}, ",
            "\"warps_per_sec\": {:.1}, \"allocs_per_warp\": {:.2}, ",
            "\"bytes_per_warp\": {:.1}}}"
        ),
        s.wall_seconds, s.warps, s.warps_per_sec, s.allocs_per_warp, s.bytes_per_warp
    )
}

/// Run one mode `iterations` times and aggregate wall clock + allocator
/// deltas. A warm-up run precedes measurement so the pooled mode is
/// observed at steady state (pool populated) and the fresh mode pays no
/// first-touch effects either.
pub fn measure_mode(ds: &Dataset, cfg: &GpuConfig, iterations: u32) -> ModeStats {
    let _ = run_local_assembly(ds, cfg); // warm-up, unmeasured
    let before = alloc_count::snapshot();
    let t0 = Instant::now();
    let mut warps = 0u64;
    for _ in 0..iterations {
        warps += run_local_assembly(ds, cfg).profile.total.warps;
    }
    let wall_seconds = t0.elapsed().as_secs_f64();
    let d = alloc_count::snapshot().since(&before);
    let per_warp = |x: u64| if warps == 0 { 0.0 } else { x as f64 / warps as f64 };
    ModeStats {
        wall_seconds,
        warps,
        warps_per_sec: if wall_seconds == 0.0 { 0.0 } else { warps as f64 / wall_seconds },
        allocs_per_warp: per_warp(d.allocs),
        bytes_per_warp: per_warp(d.bytes),
    }
}

/// Of `rounds` repeated measurements, the one with the median wall time.
///
/// The median — not the minimum — is what makes two nearly-equal variants
/// comparable on a noisy machine: min-vs-min rewards whichever variant
/// happened to catch the quietest scheduling window, while the median
/// compares typical rounds and discards throttle spikes in either
/// direction. The whole `ModeStats` of the median round is kept so the
/// reported allocator metrics and wall time come from the same run.
fn median_round(mut rounds: Vec<ModeStats>) -> ModeStats {
    assert!(!rounds.is_empty(), "rounds >= 1");
    rounds.sort_by(|a, b| a.wall_seconds.total_cmp(&b.wall_seconds));
    rounds[rounds.len() / 2]
}

/// The full pooled-vs-fresh comparison on a paper dataset.
///
/// `parallel` is off: the measurement compares allocator traffic, and a
/// single simulation thread keeps the wall-clock numbers stable and the
/// allocation window free of scheduler-dependent interleaving. The two
/// modes alternate for `rounds` passes and each keeps its median round
/// (see `median_round`).
pub fn pool_bench(
    device: DeviceId,
    k: usize,
    scale: f64,
    seed: u64,
    iterations: u32,
    rounds: u32,
) -> PoolBenchReport {
    let ds = workloads::paper_dataset(k, scale, seed);
    let mut cfg = GpuConfig::for_device(device);
    cfg.parallel = false;

    let mut fresh_rounds = Vec::new();
    let mut pooled_rounds = Vec::new();
    for _ in 0..rounds.max(1) {
        cfg.pool = false;
        fresh_rounds.push(measure_mode(&ds, &cfg, iterations));
        cfg.pool = true;
        pooled_rounds.push(measure_mode(&ds, &cfg, iterations));
    }

    PoolBenchReport {
        device,
        k,
        scale,
        seed,
        contigs: ds.jobs.len(),
        iterations,
        fresh: median_round(fresh_rounds),
        pooled: median_round(pooled_rounds),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The measuring smoke tests compare wall-clock ratios and
    // process-global allocator deltas, so they hold the crate-wide
    // `alloc_count::measurement_lock` — as must every allocation-heavy
    // test elsewhere in this lib target — or each inflates the other's
    // measured window.
    use crate::alloc_count::measurement_lock;

    /// Tier-1 smoke invocation: the pooled engine must cut heap
    /// allocations per warp by ≥ 20 % on the paper's k = 21 dataset
    /// (the PR's acceptance bar), and the JSON emitter must produce the
    /// report without touching the work tree.
    #[test]
    fn pooled_engine_cuts_allocations_per_warp() {
        let _serial = measurement_lock();
        let r = pool_bench(DeviceId::A100, 21, 0.002, 42, 2, 1);
        assert!(r.fresh.warps > 0);
        assert_eq!(r.fresh.warps, r.pooled.warps, "same work in both modes");
        assert!(
            r.alloc_reduction_pct() >= 20.0,
            "pooling must cut allocations/warp by ≥20%: fresh {:.1} → pooled {:.1} ({:.1}%)",
            r.fresh.allocs_per_warp,
            r.pooled.allocs_per_warp,
            r.alloc_reduction_pct()
        );
        assert!(
            r.pooled.bytes_per_warp < r.fresh.bytes_per_warp,
            "pooling must cut bytes/warp: fresh {:.0} → pooled {:.0}",
            r.fresh.bytes_per_warp,
            r.pooled.bytes_per_warp
        );

        // Smoke the emitter into target/ (never the repo root from tests).
        let json = r.to_json();
        for key in [
            "\"bench\": \"pooled_launch_engine\"",
            "\"warps_per_sec\"",
            "\"allocs_per_warp\"",
            "\"bytes_per_warp\"",
            "\"alloc_reduction_pct\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/BENCH_kernels.smoke.json");
        std::fs::write(out, &json).expect("write smoke report");
    }

    /// Host-timing measurement, kept apart from the allocator checks
    /// above: with the default (Vectorized) warps, the pooled engine must
    /// not be slower than fresh warps. Median-of-5 interleaved rounds keep
    /// the ratio robust to background noise even in unoptimized test
    /// builds. The dataset scale is the one `bench-kernels` reports at:
    /// below ~0.005 the jobs degenerate to a handful of reads each and
    /// fixed per-launch host work (staging, binning, result assembly)
    /// drowns the construct/walk phases the bar is about.
    #[test]
    fn pooled_engine_is_not_slower_than_fresh_warps() {
        let _serial = measurement_lock();
        let r = pool_bench(DeviceId::A100, 21, 0.005, 42, 1, 5);
        assert_eq!(r.fresh.warps, r.pooled.warps, "same work in both modes");
        assert!(
            r.speedup() >= 1.0,
            "host-timing measurement (wall clock, median of 5 interleaved rounds): \
             pooled warps must not be slower than fresh ones, got {:.2}x \
             ({:.1} vs {:.1} warps/s)",
            r.speedup(),
            r.pooled.warps_per_sec,
            r.fresh.warps_per_sec
        );
    }
}
