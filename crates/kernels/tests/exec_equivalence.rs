//! Observation layers never move modeled state, across the whole pipeline.
//!
//! `ExecMode::Scheduled` records per-warp timelines for the event-driven
//! replay, and the warp sanitizer shadows every access; both are
//! observational only. This suite pins that contract at full pipeline
//! scope against the traced, fully sanitized `Vectorized` run: all three
//! dialects (via their native devices), the four paper k presets, every
//! table layout, parallel and serial execution. A Scheduled run must
//! match it in extensions, fault outcomes, every aggregate counter, both
//! phase splits, full warp traces and sanitizer reports; an unsanitized
//! run must match it in everything but the sanitizer's own output (its
//! report and the trace events its findings add). The `exec_pins` suite
//! pins the `Vectorized` values themselves.
//!
//! The only quantities allowed to differ under `Scheduled` are the modeled
//! seconds (the walk latency term comes from the replay instead of the
//! analytic formula) and `phases.sched` itself (absent in counter mode).

use gpu_specs::DeviceId;
use locassm_kernels::{run_local_assembly, GpuConfig, GpuRunResult, TableLayoutKind};
use simt::{ExecMode, SanitizerConfig};
use workloads::paper_dataset;

const DEVICES: [DeviceId; 3] = [DeviceId::A100, DeviceId::Mi250x, DeviceId::Max1550];

fn run_mode(
    ds: &locassm_core::io::Dataset,
    device: DeviceId,
    parallel: bool,
    exec: ExecMode,
) -> GpuRunResult {
    let mut cfg = GpuConfig::for_device(device);
    cfg.parallel = parallel;
    cfg.trace = true;
    cfg.sanitize = SanitizerConfig::all();
    cfg.exec = exec;
    run_local_assembly(ds, &cfg)
}

/// Everything the kernel models that must match between `a` and the
/// `Vectorized` baseline `vec`, whatever observes the run. Modeled
/// seconds are pinned separately: an unsanitized run must reproduce them
/// exactly, Scheduled legitimately differs (simulated latency term).
fn assert_modeled_state_identical(a: &GpuRunResult, vec: &GpuRunResult, tag: &str) {
    assert_eq!(a.extensions, vec.extensions, "{tag}: extensions");
    assert_eq!(a.outcomes, vec.outcomes, "{tag}: outcomes");
    assert_eq!(a.profile.total, vec.profile.total, "{tag}: aggregate counters");
    assert_eq!(
        a.profile.phases.construct, vec.profile.phases.construct,
        "{tag}: construct phase"
    );
    assert_eq!(a.profile.phases.walk, vec.profile.phases.walk, "{tag}: walk phase");
    assert_eq!(
        a.profile.phases.walk_budget, vec.profile.phases.walk_budget,
        "{tag}: walk budget"
    );
    assert_eq!(
        a.profile.phases.watchdog_trips, vec.profile.phases.watchdog_trips,
        "{tag}: watchdog trips"
    );
}

/// [`assert_modeled_state_identical`] plus the observation layers'
/// output: warp traces and sanitizer reports.
fn assert_observed_identical(a: &GpuRunResult, vec: &GpuRunResult, tag: &str) {
    assert_modeled_state_identical(a, vec, tag);
    assert_eq!(a.traces, vec.traces, "{tag}: warp traces");
    assert_eq!(a.san, vec.san, "{tag}: sanitizer reports");
}

/// `cfg` run three ways: the traced, sanitized `Vectorized` baseline, the
/// same run unsanitized, and the same run `Scheduled`.
fn assert_observation_free(ds: &locassm_core::io::Dataset, cfg: &GpuConfig, tag: &str) {
    let mut cfg = cfg.clone();
    cfg.trace = true;
    cfg.sanitize = SanitizerConfig::all();
    cfg.exec = ExecMode::Vectorized;
    let vec = run_local_assembly(ds, &cfg);
    assert!(vec.profile.phases.sched.is_none(), "{tag}: counter-mode sched profile");

    let mut plain = cfg.clone();
    plain.sanitize = SanitizerConfig::default();
    let plain = run_local_assembly(ds, &plain);
    assert_modeled_state_identical(&plain, &vec, &format!("{tag} unsanitized"));
    assert_eq!(plain.profile.seconds(), vec.profile.seconds(), "{tag}: modeled seconds");
    assert!(plain.san.findings.is_empty() && plain.san.lints.is_empty(), "{tag}: no sanitizer");

    cfg.exec = ExecMode::Scheduled;
    let schd = run_local_assembly(ds, &cfg);
    assert_observed_identical(&schd, &vec, &format!("{tag} scheduled"));
    assert_sched_profile_sane(&schd, &format!("{tag} scheduled"));
}

/// A Scheduled run must surface a replay profile with physically sensible
/// counters: at least one SM used, a finite positive makespan, occupancy in
/// (0, 1], a hidden fraction in [0, 1], and a finite modeled time.
fn assert_sched_profile_sane(r: &GpuRunResult, tag: &str) {
    let sched = r
        .profile
        .phases
        .sched
        .expect("scheduled runs must populate phases.sched");
    assert!(sched.sms_used > 0, "{tag}: sms_used");
    assert!(sched.residency > 0, "{tag}: residency");
    assert!(sched.makespan_ticks > 0, "{tag}: makespan");
    assert!(sched.busy_ticks > 0, "{tag}: busy ticks");
    let occ = sched.occupancy();
    assert!(occ > 0.0 && occ <= 1.0, "{tag}: occupancy {occ}");
    let hidden = sched.latency_hidden_fraction();
    assert!((0.0..=1.0).contains(&hidden), "{tag}: hidden fraction {hidden}");
    assert!(
        r.profile.seconds().is_finite() && r.profile.seconds() > 0.0,
        "{tag}: scheduled seconds"
    );
    assert!(
        r.sched_tracks.is_empty(),
        "{tag}: SM tracks must stay empty unless GpuConfig::sched_tracks is set"
    );
}

/// The full matrix on the primary k = 21 preset: three dialects ×
/// parallel/serial, traced, fully sanitized, unsanitized and scheduled.
#[test]
fn exec_modes_bit_identical_all_dialects_k21() {
    let ds = paper_dataset(21, 0.002, 42);
    for device in DEVICES {
        for parallel in [true, false] {
            let mut cfg = GpuConfig::for_device(device);
            cfg.parallel = parallel;
            assert_observation_free(&ds, &cfg, &format!("{device} parallel={parallel}"));
        }
    }
}

/// The remaining paper presets (k ∈ {33, 55, 77}), each on every dialect
/// (serial keeps the launch order deterministic in the tag output; the
/// parallel half of the matrix is pinned above).
#[test]
fn exec_modes_bit_identical_remaining_k_presets() {
    for (k, seed) in [(33usize, 7u64), (55, 13), (77, 99)] {
        let ds = paper_dataset(k, 0.002, seed);
        for device in DEVICES {
            let mut cfg = GpuConfig::for_device(device);
            cfg.parallel = false;
            assert_observation_free(&ds, &cfg, &format!("k={k} {device}"));
        }
    }
}

/// The table-layout axis of the matrix: every layout × every dialect must
/// hold the same bit-identity the linear default does — the scheduled
/// recorder and the sanitizer know nothing about bucket boundaries, so a
/// divergence here means a layout leaked an observation layer into
/// modeled state.
#[test]
fn exec_modes_bit_identical_across_table_layouts() {
    let ds = paper_dataset(21, 0.002, 42);
    for layout in TableLayoutKind::ALL {
        for device in DEVICES {
            let mut cfg = GpuConfig::for_device(device);
            cfg.parallel = false;
            cfg.layout = layout;
            assert_observation_free(&ds, &cfg, &format!("layout={layout} {device}"));
        }
    }
}

/// Arming in-kernel resizing is free until a resize actually triggers:
/// on the paper dataset every host-side slot estimate holds, the
/// high-water mark is never crossed, and the pre-insert capacity check
/// charges no modeled work. A resize-armed run must therefore be
/// bit-identical — extensions, outcomes, every counter, traces,
/// sanitizer reports, and modeled seconds — to the resize-disabled run
/// on every device, in every execution mode.
#[test]
fn armed_but_untriggered_resize_is_bit_identical() {
    let ds = paper_dataset(21, 0.002, 42);
    for device in DEVICES {
        for exec in [ExecMode::Vectorized, ExecMode::Scheduled] {
            let run = |resize| {
                let mut cfg = GpuConfig::for_device(device);
                cfg.parallel = false;
                cfg.trace = true;
                cfg.sanitize = SanitizerConfig::all();
                cfg.exec = exec;
                cfg.resize = resize;
                run_local_assembly(&ds, &cfg)
            };
            let off = run(false);
            let on = run(true);
            let tag = format!("resize-armed {device} {exec:?}");
            assert_observed_identical(&on, &off, &tag);
            assert_eq!(on.profile.seconds(), off.profile.seconds(), "{tag}: seconds");
        }
    }
}

/// The replay is a deterministic function of the recorded timelines:
/// two Scheduled runs over the same dataset must agree on every sched
/// counter and on the modeled seconds, and the serial/parallel launch
/// paths must agree with each other (timelines merge in job order).
#[test]
fn scheduled_replay_is_deterministic() {
    let ds = paper_dataset(21, 0.002, 42);
    for device in DEVICES {
        let a = run_mode(&ds, device, true, ExecMode::Scheduled);
        let b = run_mode(&ds, device, true, ExecMode::Scheduled);
        let serial = run_mode(&ds, device, false, ExecMode::Scheduled);
        assert_eq!(a.profile.phases.sched, b.profile.phases.sched, "{device}: repeat run");
        assert_eq!(a.profile.seconds(), b.profile.seconds(), "{device}: repeat seconds");
        assert_eq!(
            a.profile.phases.sched, serial.profile.phases.sched,
            "{device}: parallel vs serial replay"
        );
    }
}

/// SM track recording is opt-in, produces non-empty phase-labelled slices
/// on a run-global clock, and does not perturb the replay accounting.
#[test]
fn sched_tracks_are_opt_in_and_consistent() {
    let ds = paper_dataset(21, 0.002, 42);
    let mut cfg = GpuConfig::for_device(DeviceId::A100);
    cfg.exec = ExecMode::Scheduled;
    cfg.sched_tracks = true;
    let tracked = run_local_assembly(&ds, &cfg);
    cfg.sched_tracks = false;
    let plain = run_local_assembly(&ds, &cfg);

    assert!(!tracked.sched_tracks.is_empty(), "tracks requested but none recorded");
    assert!(plain.sched_tracks.is_empty(), "tracks recorded without the flag");
    assert_eq!(
        tracked.profile.phases.sched, plain.profile.phases.sched,
        "track recording must not change the replay accounting"
    );
    let sched = tracked.profile.phases.sched.expect("sched profile");
    for s in &tracked.sched_tracks {
        assert!(s.start < s.end, "degenerate slice on SM {}", s.sm);
        assert!(s.sm < sched.sms_used, "slice on SM {} beyond sms_used", s.sm);
        assert!(!s.phase.is_empty(), "unlabelled slice on SM {}", s.sm);
    }
}
