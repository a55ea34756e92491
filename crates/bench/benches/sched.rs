//! Scheduled-execution overhead: how much host time the timeline recorder
//! and event-driven replay add on top of the vectorized interpreter.
//!
//! Two groups:
//!
//! * `sched_exec` — full simulated kernel runs, `vectorized` (counter
//!   mode) vs `scheduled` (recorder attached + post-launch replay), one
//!   pair per dialect on its native device. Modeled state is bit-identical
//!   (pinned by `exec_equivalence` in `locassm-kernels`); this group
//!   measures the host-side cost of buying the simulated latency term.
//! * `sched_replay` — the replay alone: build one launch's timelines
//!   outside the timing loop, then re-schedule them, isolating the
//!   event-queue cost from the simulation proper. Two launch shapes, each
//!   replayed with SMs in parallel (`simt::schedule`) and serially:
//!   `replay_only` (256 short warps at residency 4, several warps per SM)
//!   and `one_warp_per_sm` (as many long walk-phase warps as the device
//!   has SMs, the shape of the k = 77 walk launches, where each SM holds
//!   a single warp).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpu_specs::{sched_config, DeviceId};
use locassm_kernels::{run_local_assembly, GpuConfig};
use simt::ExecMode;
use std::hint::black_box;
use workloads::paper_dataset;

fn bench_sched_exec(c: &mut Criterion) {
    let ds = paper_dataset(21, 0.005, 11);
    let mut g = c.benchmark_group("sched_exec");
    g.sample_size(10);
    for dev in [DeviceId::A100, DeviceId::Mi250x, DeviceId::Max1550] {
        let mut cfg = GpuConfig::for_device(dev);
        // Criterion runs inside its own harness; keep the simulation and
        // the replay single-threaded for stable measurements.
        cfg.parallel = false;
        cfg.exec = ExecMode::Vectorized;
        g.bench_with_input(
            BenchmarkId::new("vectorized", dev.spec().short_name),
            &ds,
            |b, ds| b.iter(|| run_local_assembly(black_box(ds), &cfg).profile.total.warps),
        );
        cfg.exec = ExecMode::Scheduled;
        g.bench_with_input(
            BenchmarkId::new("scheduled", dev.spec().short_name),
            &ds,
            |b, ds| b.iter(|| run_local_assembly(black_box(ds), &cfg).profile.total.warps),
        );
    }
    g.finish();
}

fn bench_replay_alone(c: &mut Criterion) {
    // A launch worth of synthetic timelines shaped like the kernel's
    // (construct phase heavy on L1/Hbm touches, walk phase on L2),
    // built outside the timing loop so only the replay is measured.
    use memhier::MemLevel;
    let jobs: Vec<simt::WarpTimeline> = (0..256u64)
        .map(|w| {
            let mut r = simt::TimelineRecorder::new(w);
            let mut clock = 0u64;
            r.record_phase_enter("construct", clock);
            for i in 0..200u64 {
                clock += 1 + (w + i) % 7; // deterministic compute gaps
                let level = match (w + i) % 5 {
                    0 => MemLevel::Hbm,
                    1 | 2 => MemLevel::L2,
                    _ => MemLevel::L1,
                };
                r.record_mem(clock, level);
            }
            r.record_phase_exit(clock);
            r.record_phase_enter("walk", clock);
            for i in 0..100u64 {
                clock += 2 + (w ^ i) % 11;
                r.record_mem(clock, if i % 3 == 0 { MemLevel::Hbm } else { MemLevel::L2 });
            }
            r.record_phase_exit(clock);
            r.finish(clock + 5)
        })
        .collect();
    let sc = sched_config(DeviceId::A100.spec(), 4);

    // One long walk per SM: a short construct prologue, then a dependent
    // chain of lookups (mostly L2, some HBM) with small compute gaps.
    let spec = DeviceId::A100.spec();
    let walks: Vec<simt::WarpTimeline> = (0..u64::from(spec.compute_units))
        .map(|w| {
            let mut r = simt::TimelineRecorder::new(w);
            let mut clock = 0u64;
            r.record_phase_enter("construct", clock);
            for i in 0..50u64 {
                clock += 1 + (w + i) % 5;
                r.record_mem(clock, MemLevel::L1);
            }
            r.record_phase_exit(clock);
            r.record_phase_enter("walk", clock);
            for i in 0..20_000u64 {
                clock += 3 + (w ^ i) % 9;
                r.record_mem(clock, if i % 4 == 0 { MemLevel::Hbm } else { MemLevel::L2 });
            }
            r.record_phase_exit(clock);
            r.finish(clock + 5)
        })
        .collect();
    let walk_sc = sched_config(spec, 1);

    let mut g = c.benchmark_group("sched_replay");
    let shapes = [("replay_only", &jobs, &sc), ("one_warp_per_sm", &walks, &walk_sc)];
    for (name, timelines, cfg) in shapes {
        for parallel in [true, false] {
            let mode = if parallel { "parallel" } else { "serial" };
            g.bench_with_input(BenchmarkId::new(name, mode), timelines, |b, t| {
                b.iter(|| {
                    black_box(simt::schedule_with(black_box(t), cfg, parallel)).makespan_ticks
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_sched_exec, bench_replay_alone);
criterion_main!(benches);
