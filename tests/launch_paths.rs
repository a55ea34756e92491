//! Tier-1 pins of the faulted launch paths.
//!
//! A faulted job runs twice through the launch engine: once inside its
//! batch launch and again, alone, in each escalation retry. Both must go
//! through one launch step, so how that step is organised must never move
//! a modeled number. Each run below injects one fault into
//! `paper_dataset(21, 0.002, 42)` under `ExecMode::Scheduled` with traces
//! and SM tracks on, and pins its outcomes, modeled seconds, instruction
//! total, replay profile, watchdog trips, trace count and track slices.
//!
//! The last test drives the service front-end: a poison request riding a
//! batch that also carries skipped sides must be the only casualty.

use gpu_specs::DeviceId;
use locassm_core::{assemble_all, AssemblyConfig, RequestId, RetryPolicy, TenantId};
use locassm_kernels::{run_local_assembly, GpuConfig, JobOutcome, SchedProfile};
use locassm_service::{run_service, ExtensionRequest, ServiceConfig, ServiceOutcome};
use simt::{ExecMode, FaultPlan, PhaseSched};
use workloads::paper_dataset;

/// The five fault plans, in pin order, with the retry policy each runs
/// under.
fn plans() -> [(FaultPlan, RetryPolicy); 5] {
    [
        (FaultPlan::table_full(3), RetryPolicy::none()),
        (FaultPlan::table_full(1).persist(2), RetryPolicy::ladder(21)),
        (FaultPlan::alloc_failure(2, 3), RetryPolicy::none()),
        (FaultPlan::watchdog(2), RetryPolicy::none()),
        (FaultPlan::table_squeeze(0, 4), RetryPolicy::none()),
    ]
}

/// What one faulted run is pinned to.
struct Pin {
    /// `(dataset index, outcome)` of the one contig that was not `Ok`.
    faulted: (usize, JobOutcome),
    seconds_bits: u64,
    warp_instructions: u64,
    watchdog_trips: u64,
    traces: usize,
    slices: usize,
    slice_ticks: u64,
    /// `(makespan, busy, resident)` ticks of the replay profile.
    ticks: (u64, u64, u64),
    /// `(issue, stall, exposed)` ticks of the construct phase.
    construct: (u64, u64, u64),
    /// `(issue, stall, exposed)` ticks of the walk phase.
    walk: (u64, u64, u64),
}

fn ph((issue_ticks, stall_ticks, exposed_ticks): (u64, u64, u64)) -> PhaseSched {
    PhaseSched { issue_ticks, stall_ticks, exposed_ticks }
}

impl Pin {
    fn sched(&self, residency: u32) -> SchedProfile {
        let (makespan_ticks, busy_ticks, resident_ticks) = self.ticks;
        SchedProfile {
            sms_used: 17,
            residency,
            makespan_ticks,
            busy_ticks,
            resident_ticks,
            stage: ph((0, 0, 0)),
            construct: ph(self.construct),
            walk: ph(self.walk),
            other: ph((0, 0, 0)),
        }
    }
}

const fn recovered(idx: usize, attempts: u32) -> (usize, JobOutcome) {
    (idx, JobOutcome::Recovered { attempts })
}

/// `(device, replay residency, one pin per plan in `plans()` order)`.
fn pinned() -> [(DeviceId, u32, [Pin; 5]); 3] {
    [
        (
            DeviceId::A100,
            8,
            [
                Pin {
                    faulted: recovered(3, 1),
                    seconds_bits: 0x3f51242df1c81e5e,
                    warp_instructions: 682_558,
                    watchdog_trips: 0,
                    traces: 57,
                    slices: 72_609,
                    slice_ticks: 41_182_136_930,
                    ticks: (7_666_521_135, 41_182_136_930, 45_008_416_930),
                    construct: (16_578_971_970, 2_213_860_000, 2_206_020_000),
                    walk: (24_603_164_960, 1_612_420_000, 1_620_260_000),
                },
                Pin {
                    faulted: recovered(20, 2),
                    seconds_bits: 0x3f500b7e6140f04c,
                    warp_instructions: 680_239,
                    watchdog_trips: 0,
                    traces: 58,
                    slices: 72_232,
                    slice_ticks: 41_042_220_065,
                    ticks: (6_811_870_055, 41_042_220_065, 44_859_620_065),
                    construct: (16_564_672_575, 2_211_140_000, 2_203_300_000),
                    walk: (24_477_547_490, 1_606_260_000, 1_614_100_000),
                },
                Pin {
                    faulted: recovered(0, 1),
                    seconds_bits: 0x3f51211881ef72db,
                    warp_instructions: 682_691,
                    watchdog_trips: 0,
                    traces: 57,
                    slices: 72_736,
                    slice_ticks: 41_190_161_485,
                    ticks: (7_718_216_205, 41_190_161_485, 45_023_681_485),
                    construct: (16_580_842_355, 2_220_380_000, 2_212_540_000),
                    walk: (24_609_319_130, 1_613_140_000, 1_620_980_000),
                },
                Pin {
                    faulted: recovered(0, 1),
                    seconds_bits: 0x3f512aa139ac305f,
                    warp_instructions: 686_592,
                    watchdog_trips: 1,
                    traces: 57,
                    slices: 73_128,
                    slice_ticks: 41_425_528_320,
                    ticks: (7_718_216_205, 41_425_528_320, 45_295_348_320),
                    construct: (16_815_847_180, 2_256_100_000, 2_248_120_000),
                    walk: (24_609_681_140, 1_613_720_000, 1_621_680_000),
                },
                Pin {
                    faulted: recovered(20, 1),
                    seconds_bits: 0x3f5014af71c41c54,
                    warp_instructions: 683_833,
                    watchdog_trips: 0,
                    traces: 57,
                    slices: 72_709,
                    slice_ticks: 41_259_064_055,
                    ticks: (7_055_354_045, 41_259_064_055, 45_103_104_055),
                    construct: (16_694_875_505, 2_236_160_000, 2_228_320_000),
                    walk: (24_564_188_550, 1_607_880_000, 1_615_720_000),
                },
            ],
        ),
        (
            DeviceId::Mi250x,
            6,
            [
                Pin {
                    faulted: recovered(3, 1),
                    seconds_bits: 0x3f6048aaf67988c2,
                    warp_instructions: 599_945,
                    watchdog_trips: 0,
                    traces: 57,
                    slices: 64_469,
                    slice_ticks: 86_869_636_220,
                    ticks: (15_264_411_920, 86_869_636_220, 90_603_046_220),
                    construct: (27_977_917_508, 1_590_420_000, 1_580_900_000),
                    walk: (58_891_718_712, 2_142_990_000, 2_152_510_000),
                },
                Pin {
                    faulted: recovered(20, 2),
                    seconds_bits: 0x3f5ec48ac7f24f81,
                    warp_instructions: 597_615,
                    watchdog_trips: 0,
                    traces: 58,
                    slices: 64_046,
                    slice_ticks: 86_532_261_540,
                    ticks: (13_474_232_176, 86_532_261_540, 90_249_431_540),
                    construct: (27_949_392_696, 1_584_810_000, 1_575_290_000),
                    walk: (58_582_868_844, 2_132_360_000, 2_141_880_000),
                },
                Pin {
                    faulted: recovered(0, 1),
                    seconds_bits: 0x3f6027a309f6c0af,
                    warp_instructions: 599_869,
                    watchdog_trips: 0,
                    traces: 57,
                    slices: 64_513,
                    slice_ticks: 86_858_631_724,
                    ticks: (15_340_057_672, 86_858_631_724, 90_593_941_724),
                    construct: (27_961_989_948, 1_592_830_000, 1_583_310_000),
                    walk: (58_896_641_776, 2_142_480_000, 2_152_000_000),
                },
                Pin {
                    faulted: recovered(0, 1),
                    seconds_bits: 0x3f602f713ac453a8,
                    warp_instructions: 602_604,
                    watchdog_trips: 1,
                    traces: 57,
                    slices: 64_778,
                    slice_ticks: 87_254_648_784,
                    ticks: (15_340_057_672, 87_254_648_784, 91_015_548_784),
                    construct: (28_357_138_232, 1_617_670_000, 1_607_980_000),
                    walk: (58_897_510_552, 2_143_230_000, 2_152_890_000),
                },
                Pin {
                    faulted: recovered(20, 1),
                    seconds_bits: 0x3f5ed91a2e58de23,
                    warp_instructions: 600_721,
                    watchdog_trips: 0,
                    traces: 57,
                    slices: 64_512,
                    slice_ticks: 86_981_997_916,
                    ticks: (13_951_478_552, 86_981_997_916, 90_726_677_916),
                    construct: (28_173_971_292, 1_608_310_000, 1_598_790_000),
                    walk: (58_808_026_624, 2_136_370_000, 2_145_890_000),
                },
            ],
        ),
        (
            DeviceId::Max1550,
            8,
            [
                Pin {
                    faulted: recovered(3, 1),
                    seconds_bits: 0x3f59c79831c9252c,
                    warp_instructions: 835_183,
                    watchdog_trips: 0,
                    traces: 57,
                    slices: 86_137,
                    slice_ticks: 50_906_074_216,
                    ticks: (9_787_872_296, 50_906_074_216, 56_448_629_216),
                    construct: (26_006_755_552, 3_593_985_000, 3_585_025_000),
                    walk: (24_899_318_664, 1_948_570_000, 1_957_530_000),
                },
                Pin {
                    faulted: recovered(20, 2),
                    seconds_bits: 0x3f5879ab2e22c666,
                    warp_instructions: 832_647,
                    watchdog_trips: 0,
                    traces: 58,
                    slices: 85_754,
                    slice_ticks: 50_751_499_944,
                    ticks: (8_747_395_080, 50_751_499_944, 56_280_614_944),
                    construct: (25_979_083_344, 3_588_230_000, 3_579_270_000),
                    walk: (24_772_416_600, 1_940_885_000, 1_949_845_000),
                },
                Pin {
                    faulted: recovered(0, 1),
                    seconds_bits: 0x3f59c5ce573b3508,
                    warp_instructions: 835_486,
                    watchdog_trips: 0,
                    traces: 57,
                    slices: 86_330,
                    slice_ticks: 50_924_542_672,
                    ticks: (9_848_880_344, 50_924_542_672, 56_478_487_672),
                    construct: (26_019_006_904, 3_604_445_000, 3_595_485_000),
                    walk: (24_905_535_768, 1_949_500_000, 1_958_460_000),
                },
                Pin {
                    faulted: recovered(0, 1),
                    seconds_bits: 0x3f59de455e22e7f8,
                    warp_instructions: 841_492,
                    watchdog_trips: 1,
                    traces: 57,
                    slices: 86_924,
                    slice_ticks: 51_290_620_384,
                    ticks: (9_848_880_344, 51_290_620_384, 56_901_220_384),
                    construct: (26_384_718_904, 3_660_425_000, 3_651_305_000),
                    walk: (24_905_901_480, 1_950_175_000, 1_959_270_000),
                },
                Pin {
                    faulted: recovered(20, 1),
                    seconds_bits: 0x3f588ec31a25bd98,
                    warp_instructions: 838_089,
                    watchdog_trips: 0,
                    traces: 57,
                    slices: 86_650,
                    slice_ticks: 51_083_200_728,
                    ticks: (9_135_540_864, 51_083_200_728, 56_668_760_728),
                    construct: (26_224_293_240, 3_643_185_000, 3_634_225_000),
                    walk: (24_858_907_488, 1_942_375_000, 1_951_335_000),
                },
            ],
        ),
    ]
}

#[test]
fn faulted_launch_paths_are_pinned_on_every_native_pairing() {
    let ds = paper_dataset(21, 0.002, 42);
    for (device, residency, pins) in pinned() {
        for ((plan, retry), pin) in plans().into_iter().zip(pins) {
            let mut cfg = GpuConfig::for_device(device);
            cfg.exec = ExecMode::Scheduled;
            cfg.trace = true;
            cfg.sched_tracks = true;
            cfg.retry = retry;
            cfg.fault = Some(plan);
            let r = run_local_assembly(&ds, &cfg);
            let tag = format!("{device} {plan:?}");

            let mut want = vec![JobOutcome::Ok; ds.jobs.len()];
            want[pin.faulted.0] = pin.faulted.1;
            assert_eq!(r.outcomes, want, "{tag}: outcomes");
            assert_eq!(r.profile.seconds().to_bits(), pin.seconds_bits, "{tag}: modeled seconds");
            assert_eq!(
                r.profile.total.warp_instructions, pin.warp_instructions,
                "{tag}: warp instructions"
            );
            assert_eq!(r.profile.phases.sched, Some(pin.sched(residency)), "{tag}: replay profile");
            assert_eq!(r.profile.phases.watchdog_trips, pin.watchdog_trips, "{tag}: watchdog");
            assert_eq!(r.traces.len(), pin.traces, "{tag}: traces");
            assert_eq!(r.sched_tracks.len(), pin.slices, "{tag}: track slices");
            let ticks: u64 = r.sched_tracks.iter().map(|s| s.end - s.start).sum();
            assert_eq!(ticks, pin.slice_ticks, "{tag}: summed slice ticks");
        }
    }
}

/// One batch carries a contig shorter than k (both sides skipped), a
/// contig without left reads, the poison request and healthy requests
/// from three tenants. The poison plan must land on the poison request's
/// own launched side, so it alone is quarantined, and every completed
/// extension must equal the CPU oracle.
#[test]
fn poison_request_aboard_a_mixed_batch_is_the_only_casualty() {
    let ds = paper_dataset(21, 0.002, 42);
    let mut jobs: Vec<_> = ds.jobs.iter().take(8).cloned().collect();
    jobs[0].contig.truncate(16);
    jobs[1].left_reads.clear();
    let reqs: Vec<ExtensionRequest> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| {
            let id = RequestId::new(TenantId(i as u32 % 3), i as u32 / 3);
            ExtensionRequest::new(id, j.clone(), 0.0)
        })
        .collect();
    let victim = reqs[2].id;
    let cfg = ServiceConfig::for_device(DeviceId::A100, ds.k)
        .with_fault(FaultPlan::table_full(victim.uid()).persist(u32::MAX));
    let report = run_service(&reqs, &cfg);

    assert_eq!(
        report.batches[0].requests.len(),
        reqs.len(),
        "every request must ride the first batch"
    );
    let oracle = AssemblyConfig { k: ds.k, walk: cfg.gpu.walk, retry: cfg.gpu.retry.clone() };
    for (req, job) in reqs.iter().zip(&jobs) {
        match report.outcome(req.id) {
            Some(ServiceOutcome::Quarantined { .. }) if req.id == victim => {}
            Some(ServiceOutcome::Completed { result, kernel, .. }) if req.id != victim => {
                assert_eq!(*kernel, JobOutcome::Ok, "{}: a bystander must run clean", req.id);
                let cpu = assemble_all(std::slice::from_ref(job), &oracle, false);
                assert_eq!(*result, cpu[0], "{}: result must match the CPU oracle", req.id);
            }
            other => panic!("{}: unexpected outcome {other:?}", req.id),
        }
    }
    assert_eq!(report.quarantined(), 1);
}
