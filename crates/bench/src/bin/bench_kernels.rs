//! Regenerates the checked-in launch-engine reports:
//!
//! * `BENCH_kernels.json` — pooled-vs-fresh allocator metrics and
//!   throughput on the paper's k = 21 dataset (A100/CUDA).
//! * `BENCH_sched.json` — analytic vs scheduled modeled kernel time for
//!   all three dialects, with the replay's occupancy and latency-hiding
//!   counters. Unlike the first, this report is fully deterministic
//!   (modeled quantities only) and reproduces bit for bit on any host.
//! * `BENCH_layouts.json` — every table layout (linear, bucketed,
//!   iceberg) on every native dialect: modeled time and traffic plus the
//!   aggregate slots / sustained load factor summary. Fully deterministic
//!   like the sched report.
//! * `BENCH_service.json` — the assembly-as-a-service front-end's
//!   latency percentiles and throughput versus offered load: a
//!   closed-loop capacity calibration followed by an open-loop sweep at
//!   0.5-4x capacity against a shallow queue, showing backpressure and
//!   deadline timeouts past saturation. Fully deterministic (virtual
//!   clock) like the sched and layout reports.
//! * `BENCH_resize.json` — grown-reserve escalation vs in-kernel
//!   incremental resizing on a squeezed long-tail job: per squeeze
//!   divisor, each recovery discipline's escalation-attempt count and
//!   modeled time/traffic. Fully deterministic like the sched, layout
//!   and service reports.
//!
//! ```text
//! cargo run --release -p locassm-bench --bin bench-kernels [OUT_PATH [SCHED_OUT [LAYOUT_OUT [SERVICE_OUT [RESIZE_OUT]]]]]
//! ```
//!
//! Paths default to `BENCH_kernels.json` / `BENCH_sched.json` /
//! `BENCH_layouts.json` / `BENCH_service.json` / `BENCH_resize.json` in
//! the current directory (run from the repo root to refresh the
//! checked-in copies).

use gpu_specs::DeviceId;
use locassm_bench::cli::require_ok;
use locassm_bench::layoutbench::layout_bench;
use locassm_bench::poolbench::pool_bench;
use locassm_bench::resizebench::resize_bench;
use locassm_bench::schedbench::sched_bench;
use locassm_bench::servicebench::service_bench;

fn main() {
    let path =
        std::env::args().nth(1).unwrap_or_else(|| "BENCH_kernels.json".to_string());
    let sched_path =
        std::env::args().nth(2).unwrap_or_else(|| "BENCH_sched.json".to_string());
    let layout_path =
        std::env::args().nth(3).unwrap_or_else(|| "BENCH_layouts.json".to_string());
    let service_path =
        std::env::args().nth(4).unwrap_or_else(|| "BENCH_service.json".to_string());
    let resize_path =
        std::env::args().nth(5).unwrap_or_else(|| "BENCH_resize.json".to_string());

    let r = pool_bench(DeviceId::A100, 21, 0.005, 11, 3, 5);
    let json = r.to_json();
    require_ok(std::fs::write(&path, &json), &format!("write report {path}"));

    eprintln!(
        "pooled launch engine, {} k={} ({} contigs, {} iterations):",
        r.device, r.k, r.contigs, r.iterations
    );
    eprintln!(
        "  fresh : {:>9.1} warps/s  {:>8.1} allocs/warp  {:>12.0} bytes/warp",
        r.fresh.warps_per_sec, r.fresh.allocs_per_warp, r.fresh.bytes_per_warp
    );
    eprintln!(
        "  pooled: {:>9.1} warps/s  {:>8.1} allocs/warp  {:>12.0} bytes/warp",
        r.pooled.warps_per_sec, r.pooled.allocs_per_warp, r.pooled.bytes_per_warp
    );
    eprintln!(
        "  delta : {:.1}% fewer allocs, {:.1}% fewer bytes, {:.2}x wall clock",
        r.alloc_reduction_pct(),
        r.bytes_reduction_pct(),
        r.speedup()
    );
    eprintln!("  wrote {path}");

    // Larger scale than the wall-clock reports: the replay's occupancy and
    // latency-hiding behaviour only shows once every SM holds several
    // resident warps, and the report is modeled (deterministic), so the
    // extra dataset size costs regeneration time only.
    let s = sched_bench(21, 0.02, 11);
    let sched_json = s.to_json();
    require_ok(std::fs::write(&sched_path, &sched_json), &format!("write report {sched_path}"));

    eprintln!("scheduled execution, k={} ({} contigs, modeled):", s.k, s.contigs);
    for d in &s.dialects {
        eprintln!(
            "  {:>8} ({:<4}): analytic {:.4}s  scheduled {:.4}s ({:.2}x)  \
             occupancy {:.2}  hidden {:.2}",
            d.device.spec().short_name,
            d.dialect.to_string(),
            d.analytic_seconds,
            d.scheduled_seconds,
            d.time_ratio(),
            d.sched.occupancy(),
            d.sched.latency_hidden_fraction()
        );
    }
    eprintln!("  wrote {sched_path}");

    let l = layout_bench(21, 0.005, 11);
    let layout_json = l.to_json();
    require_ok(
        std::fs::write(&layout_path, &layout_json),
        &format!("write report {layout_path}"),
    );

    eprintln!("table layouts, k={} ({} contigs, modeled):", l.k, l.contigs);
    for row in &l.layouts {
        let a100 = &row.runs[0];
        eprintln!(
            "  {:>8}: {:>7} slots  load {:.2}  A100 {:.4}s  ({} runs)",
            row.layout.to_string(),
            row.slots,
            row.load_factor(),
            a100.seconds,
            row.runs.len()
        );
    }
    eprintln!("  wrote {layout_path}");

    let sv = service_bench(DeviceId::A100, 21, 0.005, 11);
    let service_json = sv.to_json();
    require_ok(
        std::fs::write(&service_path, &service_json),
        &format!("write report {service_path}"),
    );

    eprintln!(
        "service front-end, {} k={} ({} requests, {} tenants, capacity {:.1} req/s):",
        sv.device, sv.k, sv.requests, sv.tenants, sv.capacity_rps
    );
    for p in &sv.points {
        eprintln!(
            "  x{:<4}: {:>3} done {:>3} rejected {:>3} timed out  \
             p50 {:.4}s  p99 {:.4}s  {:.1} req/s",
            p.multiplier,
            p.completed,
            p.rejected,
            p.timed_out,
            p.p50_seconds,
            p.p99_seconds,
            p.throughput_rps
        );
    }
    eprintln!("  wrote {service_path}");

    let rz = resize_bench(DeviceId::A100, 21, 80);
    let resize_json = rz.to_json();
    require_ok(
        std::fs::write(&resize_path, &resize_json),
        &format!("write report {resize_path}"),
    );

    eprintln!(
        "escalation vs in-kernel resize, {} k={} ({} k-mers, modeled, {} attempts retired):",
        rz.device,
        rz.k,
        rz.n_kmers,
        rz.attempts_retired()
    );
    for row in &rz.rows {
        eprintln!(
            "  /{}: ladder {} attempts {:.6}s  resize {} attempts {:.6}s",
            row.divisor,
            row.escalation.attempts,
            row.escalation.seconds,
            row.resize.attempts,
            row.resize.seconds
        );
    }
    eprintln!("  wrote {resize_path}");
}
