//! Tier-1 pins for the scheduled replay (`simt::schedule`).
//!
//! The replay is host-side bookkeeping over recorded warp timelines, so
//! how it runs (SMs in parallel or in one loop) must never move a modeled
//! number: every Scheduled-mode profile below is pinned to the exact ticks
//! and seconds the serial replay produced. The dataset's largest launch
//! (78 warps) exceeds Max 1550's 64 SMs, so that pairing also replays SMs
//! holding more than one warp.

use gpu_specs::DeviceId;
use locassm_kernels::{run_local_assembly, GpuConfig, JobOutcome, SchedProfile};
use simt::{ExecMode, FaultPlan, PhaseSched};
use workloads::paper_dataset;

fn ph(issue_ticks: u64, stall_ticks: u64, exposed_ticks: u64) -> PhaseSched {
    PhaseSched {
        issue_ticks,
        stall_ticks,
        exposed_ticks,
    }
}

fn scheduled(device: DeviceId) -> GpuConfig {
    let mut cfg = GpuConfig::for_device(device);
    cfg.exec = ExecMode::Scheduled;
    cfg
}

/// `(device, profile.seconds() bits, phases.sched)` for
/// `paper_dataset(21, 0.01, 11)` on each native pairing.
fn pinned() -> [(DeviceId, u64, SchedProfile); 3] {
    [
        (
            DeviceId::A100,
            0x3f649e4779e34308,
            SchedProfile {
                sms_used: 78,
                residency: 8,
                makespan_ticks: 8_265_730_710,
                busy_ticks: 205_906_038_855,
                resident_ticks: 225_319_998_855,
                stage: ph(0, 0, 0),
                construct: ph(83_844_593_085, 11_327_780_000, 11_288_020_000),
                walk: ph(122_061_445_770, 8_086_180_000, 8_125_940_000),
                other: ph(0, 0, 0),
            },
        ),
        (
            DeviceId::Mi250x,
            0x3f749f8eb3c4101c,
            SchedProfile {
                sms_used: 78,
                residency: 6,
                makespan_ticks: 15_937_267_076,
                busy_ticks: 433_992_272_532,
                resident_ticks: 452_895_952_532,
                stage: ph(0, 0, 0),
                construct: ph(141_932_369_508, 8_205_000_000, 8_156_720_000),
                walk: ph(292_059_903_024, 10_698_680_000, 10_746_960_000),
                other: ph(0, 0, 0),
            },
        ),
        (
            DeviceId::Max1550,
            0x3f733855965de422,
            SchedProfile {
                sms_used: 64,
                residency: 8,
                makespan_ticks: 12_723_624_552,
                busy_ticks: 255_007_990_952,
                resident_ticks: 330_440_125_824,
                stage: ph(0, 0, 0),
                construct: ph(131_396_786_384, 18_425_680_000, 15_086_840_240),
                walk: ph(123_611_204_568, 9_787_525_000, 8_255_959_392),
                other: ph(0, 0, 0),
            },
        ),
    ]
}

#[test]
fn scheduled_replay_is_pinned_on_every_native_pairing() {
    let ds = paper_dataset(21, 0.01, 11);
    for (device, seconds_bits, sched) in pinned() {
        for parallel in [true, false] {
            let mut cfg = scheduled(device);
            cfg.parallel = parallel;
            let r = run_local_assembly(&ds, &cfg);
            let tag = format!("{device} parallel={parallel}");
            assert_eq!(
                r.profile.phases.sched,
                Some(sched),
                "{tag}: replay profile moved"
            );
            assert_eq!(
                r.profile.seconds().to_bits(),
                seconds_bits,
                "{tag}: modeled seconds moved"
            );
            if device == DeviceId::Max1550 {
                let sms = u64::from(device.spec().compute_units);
                assert!(
                    r.profile.batches.iter().any(|b| b.warps > sms),
                    "{tag}: some launch must put more than one warp on an SM"
                );
            }
        }
    }
}

/// Escalation retries replay too, so their SM slices must be in the
/// run's tracks: slice durations sum to the profile's busy ticks, and no
/// two slices on one SM overlap on the run-global clock.
#[test]
fn escalation_retries_keep_their_sm_slices() {
    let ds = paper_dataset(21, 0.01, 11);
    let mut cfg = scheduled(DeviceId::A100);
    cfg.sched_tracks = true;
    cfg.fault = Some(FaultPlan::table_full(0));
    let r = run_local_assembly(&ds, &cfg);
    assert!(
        r.outcomes
            .iter()
            .any(|o| matches!(o, JobOutcome::Recovered { .. })),
        "the injected fault must be recovered by a retry launch"
    );
    let sched = r
        .profile
        .phases
        .sched
        .expect("Scheduled runs carry a replay profile");
    let sliced: u64 = r.sched_tracks.iter().map(|s| s.end - s.start).sum();
    assert_eq!(
        sliced, sched.busy_ticks,
        "every busy tick must have a track slice"
    );
    let mut slices = r.sched_tracks.clone();
    slices.sort_by_key(|s| (s.sm, s.start));
    for w in slices.windows(2) {
        if w[0].sm == w[1].sm {
            assert!(
                w[0].end <= w[1].start,
                "slices overlap on SM {}: {w:?}",
                w[0].sm
            );
        }
    }
}
