//! The three workloads: what a pass runs, how its outputs are checked,
//! which modeled end-to-end metrics it yields and what its traced pass
//! records.

use crate::metrics::PAIRINGS;
use crate::pipeline::{traced_local_assembly, SpanCtx, TracedRun};
use crate::spans::Tracer;
use crate::stats::{percentile, Digest};
use gpu_specs::DeviceId;
use locassm_core::io::Dataset;
use locassm_core::{assemble_all, AssemblyConfig, ExtensionResult, RequestId, TenantId};
use locassm_kernels::{run_local_assembly, GpuConfig, GpuRunResult, JobOutcome, KernelProfile};
use locassm_service::{
    run_service, ExtensionRequest, QueueConfig, ServiceConfig, ServiceOutcome, ServiceReport,
};
use perfmodel::{performance_portability, RooflinePoint};
use simt::{ExecMode, FaultPlan};
use std::collections::BTreeMap;

/// Per-pass per-layer values, keyed by metric name.
pub type Layers = BTreeMap<String, f64>;

/// Dataset size: `Full` for measured runs, `Tiny` for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    K21Construct,
    K77WalkSched,
    ServiceOverload,
}

impl Kind {
    pub const ALL: [Kind; 3] = [
        Kind::K21Construct,
        Kind::K77WalkSched,
        Kind::ServiceOverload,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::K21Construct => "k21_construct",
            Kind::K77WalkSched => "k77_walk_sched",
            Kind::ServiceOverload => "service_overload",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Why the workload was chosen, which layer it stresses and what
    /// depresses its figures today (one line, for `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Kind::K21Construct => {
                "Paper k=21 set, 3 native pairings, vectorized, fault-free: the insert-heaviest \
                 set; stresses kernels construct (insert dialects, atomics, staging). No scheduler replay."
            }
            Kind::K77WalkSched => {
                "Paper k=77 set, 3 native pairings, scheduled replay: the walk is ~90% of warp \
                 instructions; stresses kernels walk and simt::schedule. Lookup twin of k21_construct."
            }
            Kind::ServiceOverload => {
                "k=33 as a 4-tenant open-loop stream on A100 at 4 fixed rates, depth 32, 1 poison \
                 request. Known defects: retries cost no modeled time; goodput < capacity at 1x."
            }
        }
    }

    /// (k, dataset scale) of the paper preset the workload draws from.
    fn dataset(self, size: Size) -> (usize, f64) {
        match (self, size) {
            (Kind::K21Construct, Size::Full) => (21, 0.02),
            (Kind::K21Construct, Size::Tiny) => (21, 0.001),
            (Kind::K77WalkSched, Size::Full) => (77, 0.025),
            (Kind::K77WalkSched, Size::Tiny) => (77, 0.004),
            (Kind::ServiceOverload, Size::Full) => (33, 0.5),
            (Kind::ServiceOverload, Size::Tiny) => (33, 0.01),
        }
    }
}

/// The paper's Table IV P_arch (percent) for a dataset k.
fn paper_p_arch(k: usize) -> f64 {
    match k {
        21 => 14.4,
        33 => 15.9,
        55 => 16.3,
        _ => 15.6,
    }
}

/// Offered request rates of `service_overload`, requests per modeled
/// second: 0.5×, 1×, 2× and 4× the A100 closed-loop capacity of the k=33
/// stream (about 32.5k requests/s), calibrated once and fixed here so a
/// change to modeled time cannot silently change the load compared.
pub const SERVICE_RATES_RPS: [f64; 4] = [16_000.0, 32_000.0, 64_000.0, 128_000.0];
/// Per-request deadline, modeled seconds (about 1.5 closed-loop batch
/// durations).
pub const SERVICE_DEADLINE_S: f64 = 3.0e-3;
/// Admission queue depth.
pub const SERVICE_QUEUE_DEPTH: usize = 32;
/// Tenants the stream round-robins across.
pub const SERVICE_TENANTS: u32 = 4;

fn oracle(ds: &Dataset, cfg: &GpuConfig) -> Vec<ExtensionResult> {
    let acfg = AssemblyConfig {
        k: ds.k,
        walk: cfg.walk,
        retry: cfg.retry.clone(),
    };
    assemble_all(&ds.jobs, &acfg, true)
}

fn pairing_cfgs(exec: ExecMode) -> Vec<GpuConfig> {
    PAIRINGS
        .iter()
        .map(|&(d, _)| GpuConfig {
            exec,
            ..GpuConfig::for_device(d)
        })
        .collect()
}

fn failed_jobs(outcomes: &[JobOutcome]) -> u64 {
    outcomes.iter().filter(|o| !o.succeeded()).count() as u64
}

fn arch_eff(device: DeviceId, intops: u64, hbm_bytes: u64, seconds: f64) -> f64 {
    RooflinePoint::new(intops, hbm_bytes, seconds)
        .fraction_of_roofline(device.spec())
        .min(1.0)
}

/// One pairing's modeled totals over every dataset of a workload.
#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    seconds: f64,
    intops: u64,
    hbm_bytes: u64,
    /// Contigs that did not fail.
    ok: f64,
}

impl Totals {
    fn add(&mut self, r: &GpuRunResult) {
        self.seconds += r.profile.seconds();
        self.intops += r.profile.intops();
        self.hbm_bytes += r.profile.hbm_bytes();
        self.ok += (r.outcomes.len() as u64 - failed_jobs(&r.outcomes)) as f64;
    }
}

fn profile_digest(d: &mut Digest, p: &KernelProfile) {
    d.add(&p.total);
    d.add(&p.phases);
    d.add(&p.batches);
}

/// Modeled end-to-end metrics as named pairs.
pub type Modeled = Vec<(String, f64)>;

/// Modeled per-pairing seconds and the P_arch gap.
fn pairing_modeled(totals: &[Totals], k: usize, m: &mut Modeled) {
    let mut effs = Vec::new();
    for (t, (device, sfx)) in totals.iter().zip(PAIRINGS) {
        m.push((format!("modeled_s.{sfx}"), t.seconds));
        effs.push(arch_eff(device, t.intops, t.hbm_bytes, t.seconds));
    }
    let gap = (100.0 * performance_portability(&effs) - paper_p_arch(k)).abs();
    m.push(("p_arch_gap_pts".into(), gap));
}

/// Check every pairing's extensions against the CPU oracle.
fn check_extensions(
    oracle: &[ExtensionResult],
    runs: &[(&[ExtensionResult], &[JobOutcome])],
) -> Result<u64, String> {
    let mut failed = 0;
    for ((ext, outcomes), (_, sfx)) in runs.iter().zip(PAIRINGS) {
        if *ext != oracle {
            return Err(format!("{sfx}: extensions differ from the CPU oracle"));
        }
        failed += failed_jobs(outcomes);
    }
    Ok(failed)
}

/// Per-layer values of one pairing's traced run, named with its suffix.
fn pairing_layers(run: &TracedRun, sfx: &str, pool_reuse: f64, layers: &mut Layers) {
    let p = &run.profile;
    let mut put = |name: &str, v: f64| {
        layers.insert(format!("{name}.{sfx}"), v);
    };
    put(
        "kernels.construct.minstr",
        p.phases.construct.warp_instructions as f64 / 1e6,
    );
    put(
        "kernels.walk.minstr",
        p.phases.walk.warp_instructions as f64 / 1e6,
    );
    put("kernels.lane_util", p.total.lane_utilization());
    put("kernels.atomic_replays", p.total.atomic_replays as f64);
    put(
        "kernels.escalations",
        run.outcomes.iter().map(|o| o.attempts() as f64).sum(),
    );
    put("kernels.failed", failed_jobs(&run.outcomes) as f64);
    put("simt.minstr", p.total.warp_instructions as f64 / 1e6);
    put(
        "simt.allocs_per_warp",
        run.launch_allocs as f64 / p.total.warps.max(1) as f64,
    );
    put("simt.pool_reuse_frac", pool_reuse);
    if let Some(s) = &p.phases.sched {
        put("simt.sched.occupancy", s.occupancy());
        put("simt.sched.hidden_frac", s.latency_hidden_fraction());
    }
    put("memhier.l1_hit_frac", p.total.mem.l1.hit_rate());
    put("memhier.l2_hit_frac", p.total.mem.l2.hit_rate());
    put("memhier.hbm_mb", p.hbm_bytes() as f64 / 1e6);
    put(
        "gpu-specs.t_compute_s",
        p.batches.iter().map(|b| b.time.compute_seconds).sum(),
    );
    put(
        "gpu-specs.t_bandwidth_s",
        p.batches.iter().map(|b| b.time.bandwidth_seconds).sum(),
    );
    put(
        "gpu-specs.t_latency_s",
        p.batches.iter().map(|b| b.time.latency_seconds).sum(),
    );
    put(
        "perfmodel.arch_eff",
        arch_eff(p.device, p.intops(), p.hbm_bytes(), p.seconds()),
    );
}

/// Run the traced re-drive on every pairing and check it against the
/// engine's own results for the same dataset.
fn traced_pairings(
    ds: &Dataset,
    cfgs: &[GpuConfig],
    reference: &[&GpuRunResult],
    tracer: &Tracer,
    pass: u32,
) -> Result<Layers, String> {
    let mut layers = Layers::new();
    for ((cfg, want), (_, sfx)) in cfgs.iter().zip(reference).zip(PAIRINGS) {
        let before = simt::pool_stats();
        let run = traced_local_assembly(
            ds,
            cfg,
            SpanCtx {
                tracer,
                track: sfx,
                pass,
            },
        );
        let after = simt::pool_stats();
        if run.extensions != want.extensions || run.profile.total != want.profile.total {
            return Err(format!("{sfx}: traced run differs from run_local_assembly"));
        }
        if run.profile.seconds().to_bits() != want.profile.seconds().to_bits() {
            return Err(format!("{sfx}: traced run's modeled seconds differ"));
        }
        let reused = (after.reused - before.reused) as f64;
        let created = (after.created - before.created) as f64;
        pairing_layers(&run, sfx, reused / (reused + created).max(1.0), &mut layers);
        layers.insert("core.batches".into(), run.bins as f64);
    }
    Ok(layers)
}

/// Everything one workload needs, built from the seed. A workload
/// holds one or more datasets ("parts"); passes cycle through them.
pub trait Workload {
    type Out;
    fn parts(&self) -> usize {
        1
    }
    /// One timed pass over one part.
    fn pass(&self, part: usize) -> Self::Out;
    /// Operations one pass over a part attempts.
    fn ops(&self, part: usize) -> u64;
    /// Check a pass's outputs; returns the operations that failed.
    fn check(&self, part: usize, out: &Self::Out) -> Result<u64, String>;
    /// Digest of a pass's modeled outputs (must repeat exactly).
    fn digest(&self, out: &Self::Out) -> Digest;
    /// Modeled end-to-end metrics and the workload's full modeled digest,
    /// from one output per part.
    fn modeled(&self, outs: &[Self::Out]) -> Result<(Modeled, Digest), String>;
    /// One traced pass, checked against an untraced pass's output.
    fn traced_pass(
        &self,
        part: usize,
        tracer: &Tracer,
        pass: u32,
        reference: &Self::Out,
    ) -> Result<Layers, String>;
    /// Per-layer values recorded once per traced run (not per pass).
    fn traced_once(&self, _tracer: &Tracer, _pass: u32) -> Result<Layers, String> {
        Ok(Layers::new())
    }
}

/// Datasets a batch workload draws from its seed; passes cycle through
/// them. One run's figures then cover several dataset shapes: how many
/// contigs land in the smallest read-count bin drives host time and the
/// memory of the L2 model and the scheduler's timelines.
pub const BATCH_PARTS: usize = 10;

/// The seed of part `i` of a batch workload.
fn part_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i as u64)
}

/// `k21_construct` and `k77_walk_sched`: datasets on all three native
/// pairings.
pub struct Batch {
    k: usize,
    parts: Vec<Dataset>,
    cfgs: Vec<GpuConfig>,
    oracles: Vec<Vec<ExtensionResult>>,
}

impl Batch {
    pub fn new(kind: Kind, size: Size, seed: u64) -> Self {
        let (k, scale) = kind.dataset(size);
        let exec = if kind == Kind::K77WalkSched {
            ExecMode::Scheduled
        } else {
            ExecMode::Vectorized
        };
        Batch {
            k,
            parts: (0..BATCH_PARTS)
                .map(|i| workloads::paper_dataset(k, scale, part_seed(seed, i)))
                .collect(),
            cfgs: pairing_cfgs(exec),
            oracles: Vec::new(),
        }
    }

    /// Compute the CPU oracles (kept out of every timed window).
    pub fn with_oracle(mut self) -> Self {
        self.oracles = self
            .parts
            .iter()
            .map(|ds| oracle(ds, &self.cfgs[0]))
            .collect();
        self
    }
}

impl Workload for Batch {
    type Out = Vec<GpuRunResult>;

    fn parts(&self) -> usize {
        self.parts.len()
    }

    fn pass(&self, part: usize) -> Self::Out {
        self.cfgs
            .iter()
            .map(|c| run_local_assembly(&self.parts[part], c))
            .collect()
    }

    fn ops(&self, part: usize) -> u64 {
        (self.parts[part].jobs.len() * self.cfgs.len()) as u64
    }

    fn check(&self, part: usize, out: &Self::Out) -> Result<u64, String> {
        let runs: Vec<_> = out
            .iter()
            .map(|r| (r.extensions.as_slice(), r.outcomes.as_slice()))
            .collect();
        check_extensions(&self.oracles[part], &runs)
    }

    fn digest(&self, out: &Self::Out) -> Digest {
        let mut d = Digest::default();
        for r in out {
            profile_digest(&mut d, &r.profile);
            d.add(&r.outcomes);
        }
        d
    }

    fn modeled(&self, outs: &[Self::Out]) -> Result<(Modeled, Digest), String> {
        let mut totals = vec![Totals::default(); self.cfgs.len()];
        let mut digest = Digest::default();
        // A batch call returns when its last kernel finishes, so a batch
        // request's latency is its time to solution on its pairing; one
        // sample per part and pairing.
        let mut latencies = Vec::new();
        for out in outs {
            digest.add(&self.digest(out).hex());
            for (t, r) in totals.iter_mut().zip(out) {
                t.add(r);
                latencies.push(r.profile.seconds());
            }
        }
        let mut m = Modeled::new();
        pairing_modeled(&totals, self.k, &mut m);
        m.push(("latency_s.p50".into(), percentile(&latencies, 50.0)));
        m.push(("latency_s.p99".into(), percentile(&latencies, 99.0)));
        // Contigs extended per modeled device-second over all pairings,
        // and the highest contig rate every pairing sustains.
        let ok: f64 = totals.iter().map(|t| t.ok).sum();
        let seconds: f64 = totals.iter().map(|t| t.seconds).sum();
        m.push(("goodput_rps".into(), ok / seconds));
        m.push((
            "slo_rate_rps".into(),
            totals
                .iter()
                .map(|t| t.ok / t.seconds)
                .fold(f64::INFINITY, f64::min),
        ));
        let attempted: u64 = (0..self.parts.len()).map(|p| self.ops(p)).sum();
        m.push(("ok_frac".into(), ok / attempted as f64));
        Ok((m, digest))
    }

    fn traced_pass(
        &self,
        part: usize,
        tracer: &Tracer,
        pass: u32,
        reference: &Self::Out,
    ) -> Result<Layers, String> {
        let reference: Vec<&GpuRunResult> = reference.iter().collect();
        traced_pairings(&self.parts[part], &self.cfgs, &reference, tracer, pass)
    }
}

/// `service_overload`: the k=33 set as a multi-tenant open-loop request
/// stream into `run_service` on A100, at the fixed rates above, with one
/// persistent poison request picked by the seed.
pub struct Service {
    pub ds: Dataset,
    cfg: ServiceConfig,
    /// One request stream per entry of [`SERVICE_RATES_RPS`].
    streams: Vec<Vec<ExtensionRequest>>,
    poison: u64,
    oracle: Vec<ExtensionResult>,
    /// The stream's contigs as one batch on each pairing (the source of
    /// this workload's `modeled_s.*` and P_arch gap).
    reference_cfgs: Vec<GpuConfig>,
}

fn request_id(i: usize) -> RequestId {
    RequestId::new(
        TenantId(i as u32 % SERVICE_TENANTS),
        i as u32 / SERVICE_TENANTS,
    )
}

fn request_index(id: RequestId) -> usize {
    id.seq as usize * SERVICE_TENANTS as usize + id.tenant.0 as usize
}

impl Service {
    pub fn new(size: Size, seed: u64) -> Self {
        let (k, scale) = Kind::ServiceOverload.dataset(size);
        let ds = workloads::paper_dataset(k, scale, seed);
        let streams = SERVICE_RATES_RPS
            .iter()
            .map(|rate| {
                ds.jobs
                    .iter()
                    .enumerate()
                    .map(|(i, job)| {
                        ExtensionRequest::new(request_id(i), job.clone(), i as f64 / rate)
                            .with_deadline(SERVICE_DEADLINE_S)
                    })
                    .collect()
            })
            .collect();
        // SplitMix64 finaliser: a seed-determined, well-spread victim.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let poison = request_id(((z ^ (z >> 31)) % ds.jobs.len() as u64) as usize).uid();
        let mut cfg = ServiceConfig::for_device(DeviceId::A100, k)
            .with_fault(FaultPlan::table_full(poison).persist(u32::MAX));
        cfg.queue = QueueConfig::bounded(SERVICE_QUEUE_DEPTH);
        Service {
            ds,
            cfg,
            streams,
            poison,
            oracle: Vec::new(),
            reference_cfgs: pairing_cfgs(ExecMode::Vectorized),
        }
    }

    pub fn with_oracle(mut self) -> Self {
        self.oracle = oracle(&self.ds, &self.cfg.gpu);
        self
    }

    fn top(&self) -> &[ExtensionRequest] {
        self.streams.last().expect("at least one rate")
    }

    fn reference(&self) -> Vec<GpuRunResult> {
        self.reference_cfgs
            .iter()
            .map(|c| run_local_assembly(&self.ds, c))
            .collect()
    }
}

/// Requests that failed or were refused count as missing any deadline.
fn p99_all(rep: &ServiceReport, n: usize) -> f64 {
    let mut lat = rep.latencies();
    lat.resize(n, f64::INFINITY);
    percentile(&lat, 99.0)
}

impl Workload for Service {
    type Out = ServiceReport;

    fn pass(&self, _part: usize) -> ServiceReport {
        run_service(self.top(), &self.cfg)
    }

    fn ops(&self, _part: usize) -> u64 {
        self.ds.jobs.len() as u64
    }

    /// Every request must reach exactly one terminal outcome; completed
    /// results must equal the oracle. Rejections and timeouts are the
    /// service's designed answers under overload and the poison request's
    /// quarantine is its designed answer to a persistent fault; any other
    /// quarantine counts as a failed operation.
    fn check(&self, _part: usize, rep: &ServiceReport) -> Result<u64, String> {
        if rep.records.len() != self.ds.jobs.len() {
            return Err(format!(
                "{} of {} requests reached a terminal outcome",
                rep.records.len(),
                self.ds.jobs.len()
            ));
        }
        let mut failed = 0;
        for r in &rep.records {
            match &r.outcome {
                ServiceOutcome::Completed { result, .. } => {
                    if *result != self.oracle[request_index(r.id)] {
                        return Err(format!(
                            "request {}: result differs from the CPU oracle",
                            r.id
                        ));
                    }
                    failed += u64::from(r.id.uid() == self.poison);
                }
                ServiceOutcome::Quarantined { .. } => {
                    failed += u64::from(r.id.uid() != self.poison)
                }
                _ => {}
            }
        }
        Ok(failed)
    }

    fn digest(&self, rep: &ServiceReport) -> Digest {
        let mut d = Digest::default();
        d.add(rep);
        d
    }

    /// Runs the whole rate sweep and the reference batches once (outside
    /// the timed window); the top-rate report must equal the timed passes'.
    fn modeled(&self, outs: &[ServiceReport]) -> Result<(Modeled, Digest), String> {
        let top = &outs[0];
        let n = self.ds.jobs.len();
        let reports: Vec<ServiceReport> = self
            .streams
            .iter()
            .map(|s| run_service(s, &self.cfg))
            .collect();
        if reports.last() != Some(top) {
            return Err("the rate sweep's top-rate report differs from the timed passes'".into());
        }
        let mut digest = Digest::default();
        for rep in &reports {
            self.check(0, rep)?;
            digest.add(rep);
        }
        let reference = self.reference();
        let runs: Vec<_> = reference
            .iter()
            .map(|r| (r.extensions.as_slice(), r.outcomes.as_slice()))
            .collect();
        check_extensions(&self.oracle, &runs)?;
        for r in &reference {
            profile_digest(&mut digest, &r.profile);
        }

        let mut totals = vec![Totals::default(); reference.len()];
        for (t, r) in totals.iter_mut().zip(&reference) {
            t.add(r);
        }
        let mut m = Modeled::new();
        pairing_modeled(&totals, self.ds.k, &mut m);
        let low = &reports[0];
        let pct = |p| {
            low.latency_percentile(p)
                .ok_or("nothing completed at the lowest rate")
        };
        m.push(("latency_s.p50".into(), pct(50.0)?));
        m.push(("latency_s.p99".into(), pct(99.0)?));
        m.push(("goodput_rps".into(), top.throughput()));
        let slo = SERVICE_RATES_RPS
            .iter()
            .zip(&reports)
            .filter(|(_, r)| r.rejected() == 0 && p99_all(r, n) <= SERVICE_DEADLINE_S)
            .map(|(&rate, _)| rate)
            .fold(0.0, f64::max);
        m.push(("slo_rate_rps".into(), slo));
        // Requests served over the whole sweep (rejections, timeouts and
        // quarantines are the failures).
        let completed: usize = reports.iter().map(|r| r.completed()).sum();
        m.push((
            "ok_frac".into(),
            completed as f64 / (n * reports.len()) as f64,
        ));
        Ok((m, digest))
    }

    fn traced_pass(
        &self,
        _part: usize,
        tracer: &Tracer,
        pass: u32,
        reference: &ServiceReport,
    ) -> Result<Layers, String> {
        let rep = tracer.span("service.run", "host", pass, None, |_| self.pass(0));
        if rep != *reference {
            return Err("traced service run differs from the untraced one".into());
        }
        let mut l = Layers::new();
        let batches = rep.batches.len().max(1) as f64;
        let fill: f64 = rep.batches.iter().map(|b| b.footprint as f64).sum::<f64>()
            / batches
            / self.cfg.batch.byte_budget as f64;
        let (mut requeues, mut escalations, mut kernel_failed) = (0u32, 0u32, 0u32);
        for r in &rep.records {
            match &r.outcome {
                ServiceOutcome::Completed {
                    kernel,
                    requeues: q,
                    ..
                } => {
                    requeues += q;
                    kernel_failed += q;
                    escalations += kernel.attempts();
                }
                ServiceOutcome::Quarantined {
                    attempts,
                    requeues: q,
                    ..
                } => {
                    requeues += q;
                    kernel_failed += q + 1;
                    // Every attempt beyond one per batch run was an escalation.
                    escalations += attempts.saturating_sub(q + 1);
                }
                _ => {}
            }
        }
        l.insert("service.batches".into(), rep.batches.len() as f64);
        l.insert("service.batch_fill".into(), fill);
        l.insert(
            "service.admitted".into(),
            (self.ds.jobs.len() - rep.rejected()) as f64,
        );
        l.insert("service.rejected".into(), rep.rejected() as f64);
        l.insert("service.requeues".into(), requeues as f64);
        l.insert("service.quarantined".into(), rep.quarantined() as f64);
        l.insert("kernels.escalations.cuda".into(), escalations as f64);
        l.insert("kernels.failed.cuda".into(), kernel_failed as f64);
        Ok(l)
    }

    /// The reference batches through the traced re-drive, once: the
    /// kernel-side layers of the stream's payload.
    fn traced_once(&self, tracer: &Tracer, pass: u32) -> Result<Layers, String> {
        let reference = self.reference();
        let refs: Vec<&GpuRunResult> = reference.iter().collect();
        let mut l = traced_pairings(&self.ds, &self.reference_cfgs, &refs, tracer, pass)?;
        // The service pass owns the A100 kernel fault counters.
        l.remove("kernels.escalations.cuda");
        l.remove("kernels.failed.cuda");
        Ok(l)
    }
}
