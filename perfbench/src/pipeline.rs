//! The traced run's re-drive of `run_local_assembly`, built only from the
//! workspace's public functions so every layer boundary can carry a span:
//!
//! `core::bin_contigs` → `kernels::layout::{arena_footprint,
//! stage_footprint}` → `simt::launch_warps` with a kernel body that times
//! `DeviceJob::stage_with_layout`, `construct_hash_table` and
//! `mer_walk_kernel` per warp → `simt::schedule` → the `gpu-specs` timing
//! model.
//!
//! It mirrors the engine step for step on fault-free, unchunked runs
//! (the benchmark's batch configuration), so its extensions, counters and
//! modeled seconds must equal `run_local_assembly`'s; the traced run
//! checks that on every pass. It does not escalate faults: a faulting job
//! is reported `Failed`, which the fidelity check then flags.

use crate::spans::Tracer;
use gpu_specs::{
    effective_hierarchy, sched_config, scheduled_residency, ticks_to_seconds, DeviceSpec,
    ModelParams, TimeEstimate,
};
use locassm_core::io::Dataset;
use locassm_core::walk::WalkState;
use locassm_core::{bin_contigs, ExtensionResult};
use locassm_kernels::construct::construct_hash_table;
use locassm_kernels::kernel::{KernelJob, KernelOut};
use locassm_kernels::layout::{
    arena_footprint, check_table_invariants, stage_footprint, DeviceJob,
};
use locassm_kernels::profile::{BatchProfile, KernelProfile, PhaseCounters, SchedProfile};
use locassm_kernels::walk::mer_walk_kernel;
use locassm_kernels::{dialect_sanitizer, GpuConfig, JobOutcome, KernelFault};
use simt::{launch_warps, AggCounters, LaunchConfig, Warp, WarpCounters};

/// Where a traced pipeline records its spans.
#[derive(Clone, Copy)]
pub struct SpanCtx<'t> {
    pub tracer: &'t Tracer,
    pub track: &'static str,
    pub pass: u32,
}

/// What a traced pipeline run returns.
pub struct TracedRun {
    pub extensions: Vec<ExtensionResult>,
    pub profile: KernelProfile,
    pub outcomes: Vec<JobOutcome>,
    /// Heap allocations made inside `launch_warps`, all threads.
    pub launch_allocs: u64,
    /// Bins `bin_contigs` produced.
    pub bins: usize,
}

/// The extension kernel body (`kernels::kernel::extension_kernel`),
/// with a span around each staging, construct and walk call.
fn traced_kernel(
    warp: &mut Warp,
    tagged: &(u64, KernelJob<'_>),
    cx: SpanCtx<'_>,
    parent: usize,
) -> Result<KernelOut, KernelFault> {
    let (job_id, job) = (tagged.0, &tagged.1);
    let span = |name, start| {
        cx.tracer.record(
            name,
            cx.track,
            cx.pass,
            start,
            cx.tracer.now(),
            Some(parent),
            Some(job_id),
        )
    };
    if job.reads.is_empty() {
        return Ok(KernelOut {
            extension: Vec::new(),
            state: WalkState::End,
            construct: warp.snapshot(),
            walk_budget: 0,
        });
    }
    if job.k == 0 {
        return Err(KernelFault::MalformedJob {
            reason: "k must be positive",
        });
    }
    let mut best: Option<locassm_core::walk::Walk> = None;
    let mut construct = warp.snapshot();
    let mut walk_budget = 0u64;
    for k in job.retry.schedule(job.k) {
        if job.contig.len() < k {
            continue;
        }
        if job.contig.len() < 4 {
            return Err(KernelFault::MalformedJob {
                reason: "contig shorter than one 4-base chunk",
            });
        }
        let t = cx.tracer.now();
        warp.phase_enter("stage");
        let staged = DeviceJob::stage_with_layout(
            warp,
            &job.contig,
            &job.reads,
            k,
            job.walk,
            job.slot_reserve,
            job.layout,
        );
        warp.phase_exit("stage");
        span("kernels.stage", t);
        let mut dev = staged?;
        dev.probe = job.probe;
        dev.resize = job.resize;
        let t = cx.tracer.now();
        warp.phase_enter("construct");
        let built = construct_hash_table(warp, &mut dev, job.dialect);
        warp.phase_exit("construct");
        span("kernels.construct", t);
        built?;
        walk_budget = dev.walk_budget;
        if warp.san_config().invariants {
            for kind in check_table_invariants(warp, &dev) {
                warp.san_record(kind);
            }
        }
        construct = warp.snapshot();
        let t = cx.tracer.now();
        warp.phase_enter("walk");
        let walk = mer_walk_kernel(warp, &dev);
        warp.phase_exit("walk");
        span("kernels.walk", t);
        let walk = walk?;
        let accepted = job.retry.accepts(&walk);
        if best
            .as_ref()
            .is_none_or(|b| walk.extension.len() >= b.extension.len())
        {
            best = Some(walk);
        }
        if accepted {
            break;
        }
    }
    Ok(match best {
        Some(w) => KernelOut {
            extension: w.extension,
            state: w.state,
            construct,
            walk_budget,
        },
        None => KernelOut {
            extension: Vec::new(),
            state: WalkState::End,
            construct: warp.snapshot(),
            walk_budget,
        },
    })
}

/// `total − construct`, field by field, with the walk critical path
/// supplied by the caller (mirrors the engine's phase split).
fn diff_agg(total: &AggCounters, part: &AggCounters, max_walk: u64) -> AggCounters {
    let q = |i: usize| total.occupancy_quartiles[i].saturating_sub(part.occupancy_quartiles[i]);
    AggCounters {
        width: total.width,
        warps: total.warps,
        warp_instructions: total
            .warp_instructions
            .saturating_sub(part.warp_instructions),
        int_instructions: total.int_instructions.saturating_sub(part.int_instructions),
        collective_instructions: total
            .collective_instructions
            .saturating_sub(part.collective_instructions),
        sync_instructions: total
            .sync_instructions
            .saturating_sub(part.sync_instructions),
        atomic_instructions: total
            .atomic_instructions
            .saturating_sub(part.atomic_instructions),
        atomic_replays: total.atomic_replays.saturating_sub(part.atomic_replays),
        lane_int_ops: total.lane_int_ops.saturating_sub(part.lane_int_ops),
        occupancy_quartiles: [q(0), q(1), q(2), q(3)],
        max_warp_instructions: max_walk,
        mem: total.mem.since(&part.mem),
    }
}

/// Run one dataset on one pairing through the traced re-drive.
pub fn traced_local_assembly(ds: &Dataset, cfg: &GpuConfig, cx: SpanCtx<'_>) -> TracedRun {
    assert!(
        cfg.max_batch.is_none(),
        "the traced re-drive launches whole batch sides"
    );
    let root = cx.tracer.open("kernels.pipeline", cx.track, cx.pass, None);
    let spec: &DeviceSpec = cfg.spec();
    let k = ds.k;
    let bins = cx
        .tracer
        .span("core.bin", cx.track, cx.pass, Some(root), |_| {
            bin_contigs(&ds.jobs, cfg.binning)
        });
    let schedule = cfg.retry.schedule(k);
    let min_k = schedule.iter().copied().min().unwrap_or(k);
    let sanitize = dialect_sanitizer(cfg.sanitize, cfg.dialect);
    let zero = WarpCounters {
        width: cfg.width,
        ..WarpCounters::default()
    };

    let mut total = AggCounters::default();
    let mut phases = PhaseCounters::default();
    let mut batch_profiles = Vec::new();
    let mut outcomes = vec![JobOutcome::Ok; ds.jobs.len()];
    let mut right = vec![(Vec::new(), WalkState::End); ds.jobs.len()];
    let mut left = right.clone();
    let mut jobs_launched = 0u64;
    let mut launch_allocs = 0u64;

    for batch in &bins {
        for is_right in [true, false] {
            let mut indices = Vec::with_capacity(batch.jobs.len());
            let mut jobs: Vec<(u64, KernelJob<'_>)> = Vec::with_capacity(batch.jobs.len());
            for &idx in &batch.jobs {
                let j = &ds.jobs[idx];
                let reads = if is_right {
                    &j.right_reads
                } else {
                    &j.left_reads
                };
                if j.contig.len() < min_k || reads.is_empty() {
                    continue;
                }
                let mut job = if is_right {
                    KernelJob::borrowed(
                        &j.contig,
                        &j.right_reads,
                        k,
                        cfg.walk,
                        &cfg.retry,
                        cfg.dialect,
                    )
                } else {
                    let t = j.left_as_right();
                    KernelJob::transformed(
                        t.contig,
                        t.right_reads,
                        k,
                        cfg.walk,
                        &cfg.retry,
                        cfg.dialect,
                    )
                };
                job.slot_reserve = cfg.slot_reserve.max(1);
                job.probe = cfg.probe;
                job.layout = cfg.layout;
                job.resize = cfg.resize;
                indices.push(idx);
                jobs.push((jobs_launched + jobs.len() as u64, job));
            }
            if jobs.is_empty() {
                continue;
            }
            let (arena_hint, footprint) =
                cx.tracer
                    .span("kernels.footprint", cx.track, cx.pass, Some(root), |_| {
                        let arena = jobs
                            .iter()
                            .map(|(_, j)| {
                                arena_footprint(
                                    j.contig.len(),
                                    &j.reads,
                                    &schedule,
                                    j.walk,
                                    j.slot_reserve,
                                    j.layout,
                                    j.resize,
                                )
                            })
                            .max()
                            .unwrap_or(0);
                        let stage = jobs
                            .iter()
                            .map(|(_, j)| {
                                stage_footprint(
                                    j.contig.len(),
                                    &j.reads,
                                    j.k,
                                    j.walk,
                                    j.slot_reserve,
                                    j.layout,
                                    j.resize,
                                )
                            })
                            .max()
                            .unwrap_or(0);
                        (arena, stage)
                    });
            let launch_cfg = LaunchConfig {
                width: cfg.width,
                hierarchy: effective_hierarchy(spec, jobs.len() as u64),
                parallel: cfg.parallel,
                trace: cfg.trace,
                pool: cfg.pool,
                arena_hint,
                fault: cfg.fault,
                fault_base: jobs_launched,
                sanitize,
                exec: cfg.exec,
            };
            let allocs_before = crate::stats::allocs();
            let out = cx
                .tracer
                .span("simt.launch", cx.track, cx.pass, Some(root), |id| {
                    launch_warps(launch_cfg, &jobs, |w, j| traced_kernel(w, j, cx, id))
                });
            launch_allocs += crate::stats::allocs() - allocs_before;
            jobs_launched += jobs.len() as u64;

            // Phase split (construct snapshots summed; walk = total − construct).
            let mut construct = AggCounters::default();
            let mut max_walk = 0u64;
            for (r, &instr) in out.results.iter().zip(&out.warp_instruction_counts) {
                let snap = match r {
                    Ok(o) => {
                        phases.walk_budget = phases.walk_budget.max(o.walk_budget);
                        o.construct
                    }
                    Err(f) => {
                        if matches!(f, KernelFault::WalkBudgetExceeded { .. }) {
                            phases.watchdog_trips += 1;
                        }
                        zero
                    }
                };
                construct.absorb(&snap);
                max_walk = max_walk.max(instr.saturating_sub(snap.warp_instructions));
            }
            phases.construct.merge(&construct);
            let walk_agg = diff_agg(&out.counters, &construct, max_walk);
            phases.walk.merge(&walk_agg);

            // Scheduled replay (Scheduled mode only records timelines).
            let sched = (!out.timelines.is_empty()).then(|| {
                let sc = sched_config(spec, scheduled_residency(spec, footprint));
                let r = cx
                    .tracer
                    .span("simt.sched", cx.track, cx.pass, Some(root), |_| {
                        simt::schedule(&out.timelines, &sc)
                    });
                let p = SchedProfile::from_result(&r);
                match phases.sched.as_mut() {
                    Some(s) => s.merge(&p),
                    None => phases.sched = Some(p),
                }
                r
            });

            let t_construct = TimeEstimate::estimate(spec, &ModelParams::from_counters(&construct));
            let mut t_walk =
                TimeEstimate::estimate_with_mlp(spec, &ModelParams::from_counters(&walk_agg), 1.0);
            if let Some(r) = &sched {
                let exposed = r.phase("walk").map_or(0, |p| p.exposed_ticks);
                t_walk = t_walk
                    .with_latency_override(ticks_to_seconds(exposed) / r.sms_used.max(1) as f64);
            }
            batch_profiles.push(BatchProfile {
                band: batch.band,
                warps: out.counters.warps,
                time: TimeEstimate {
                    seconds: t_construct.seconds + t_walk.seconds,
                    compute_seconds: t_construct.compute_seconds + t_walk.compute_seconds,
                    bandwidth_seconds: t_construct.bandwidth_seconds + t_walk.bandwidth_seconds,
                    latency_seconds: t_construct.latency_seconds + t_walk.latency_seconds,
                    bound: if t_construct.seconds >= t_walk.seconds {
                        t_construct.bound
                    } else {
                        t_walk.bound
                    },
                },
            });
            total.merge(&out.counters);

            for (&idx, r) in indices.iter().zip(out.results) {
                match r {
                    Ok(o) if is_right => right[idx] = (o.extension, o.state),
                    Ok(o) => left[idx] = (locassm_core::revcomp(&o.extension), o.state),
                    Err(fault) => {
                        outcomes[idx] =
                            outcomes[idx].combine(JobOutcome::Failed { fault, attempts: 0 })
                    }
                }
            }
        }
    }

    let extensions = ds
        .jobs
        .iter()
        .enumerate()
        .map(|(i, j)| ExtensionResult {
            id: j.id,
            right: std::mem::take(&mut right[i].0),
            left: std::mem::take(&mut left[i].0),
            right_state: right[i].1,
            left_state: left[i].1,
        })
        .collect();
    cx.tracer.close(root);
    TracedRun {
        extensions,
        profile: KernelProfile {
            device: cfg.device,
            dialect: cfg.dialect,
            k,
            total,
            phases,
            batches: batch_profiles,
        },
        outcomes,
        launch_allocs,
        bins: bins.len(),
    }
}
