//! Checked-in counter pins for the full pipeline.
//!
//! Every cell of the `exec_equivalence` matrix — the three native
//! pairings at each paper k preset, every table layout at k = 21, and
//! in-kernel resizing armed — runs traced and fully sanitized in the
//! default `Vectorized` mode, and must reproduce the values recorded
//! below exactly. The table was captured while a per-lane reference
//! interpreter still ran beside the batched one and matched it in every
//! cell. The readable columns are
//! the totals the paper's analysis is built from (warp instructions,
//! active-lane INTOPs, atomic replays, HBM bytes, L1/L2 hits) plus the
//! bit pattern of the modeled seconds; the digest is FNV-1a over the
//! `Debug` rendering of everything else a run models (extensions,
//! outcomes, aggregate and per-phase counters, warp traces, sanitizer
//! reports), so any drift in modeled state fails here with the cell that
//! moved.
//!
//! A legitimate modeling change re-captures the table: the failure
//! message prints the whole table as it now stands.

use gpu_specs::DeviceId;
use locassm_kernels::{run_local_assembly, GpuConfig, GpuRunResult, TableLayoutKind};
use simt::SanitizerConfig;
use std::fmt::Write as _;
use workloads::paper_dataset;

const DEVICES: [DeviceId; 3] = [DeviceId::A100, DeviceId::Mi250x, DeviceId::Max1550];

/// Paper k presets with the dataset seed each is pinned at.
const PRESETS: [(usize, u64); 4] = [(21, 42), (33, 7), (55, 13), (77, 99)];

/// Columns: warp instructions, lane INTOPs, atomic replays, HBM bytes,
/// L1 hits, L2 hits, `seconds().to_bits()`, modeled-state digest.
type Pin = [u64; 8];

#[rustfmt::skip]
const PINS: [(&str, Pin); 24] = [
    ("k=21 NVIDIA", [682691, 4956799, 59628, 1037248, 87658, 67609, 4565744898413245624, 10767536016167440103]),
    ("k=21 AMD", [599869, 4956205, 60251, 1431456, 77306, 78749, 4568673614770891880, 8457532309692060887]),
    ("k=21 INTEL", [835486, 4957138, 57715, 1037248, 99596, 67971, 4567615996467176364, 5542325313317932758]),
    ("k=33 NVIDIA", [393857, 1951729, 15779, 309600, 51100, 18804, 4563236549703567320, 9209512899322299614]),
    ("k=33 AMD", [361664, 1951408, 15922, 408192, 46949, 22067, 4566440511581268460, 3232982823520870708]),
    ("k=33 INTEL", [453545, 1951777, 15264, 309600, 56131, 18950, 4564882015410213936, 13100063865069069322]),
    ("k=55 NVIDIA", [771421, 2002364, 8993, 224128, 101636, 13021, 4563950240608813643, 3869448258142242593]),
    ("k=55 AMD", [740013, 2002245, 9104, 287040, 97684, 15148, 4567479493492652466, 4849444743242331946]),
    ("k=55 INTEL", [812675, 2002364, 8749, 224128, 105048, 13094, 4566162403728531047, 6882736489881174805]),
    ("k=77 NVIDIA", [707134, 1620648, 4998, 155456, 84760, 7616, 4561995880769266660, 10890733424643189878]),
    ("k=77 AMD", [681960, 1620648, 5076, 185696, 82132, 9203, 4565371217008425720, 10002289294372666409]),
    ("k=77 INTEL", [743747, 1620720, 4850, 155456, 88478, 7700, 4563896234187878518, 120113608079630287]),
    ("layout=linear NVIDIA", [682691, 4956799, 59628, 1037248, 87658, 67609, 4565744898413245624, 10767536016167440103]),
    ("layout=linear AMD", [599869, 4956205, 60251, 1431456, 77306, 78749, 4568673614770891880, 8457532309692060887]),
    ("layout=linear INTEL", [835486, 4957138, 57715, 1037248, 99596, 67971, 4567615996467176364, 5542325313317932758]),
    ("layout=bucketed NVIDIA", [778640, 5223865, 69379, 933376, 154503, 81176, 4565426058618734001, 3837155289406945864]),
    ("layout=bucketed AMD", [680372, 5223838, 65620, 1219360, 133046, 85849, 4568337223756005950, 15622839734022651763]),
    ("layout=bucketed INTEL", [957074, 5224219, 69932, 933312, 185487, 85169, 4567558547952742168, 11643700392532796840]),
    ("layout=iceberg NVIDIA", [785967, 5272810, 71117, 928320, 160463, 82995, 4565423914605546880, 6555576762781950480]),
    ("layout=iceberg AMD", [686186, 5272810, 66591, 1180256, 137921, 86813, 4568293426291589431, 5572626622439217681]),
    ("layout=iceberg INTEL", [965151, 5272819, 72644, 928320, 193617, 87966, 4567564338462518023, 5235468210689570394]),
    ("resize NVIDIA", [682691, 4956799, 59628, 1037248, 87658, 67609, 4565744898413245624, 10767536016167440103]),
    ("resize AMD", [599869, 4956205, 60251, 1431456, 77306, 78749, 4568673614770891880, 8457532309692060887]),
    ("resize INTEL", [835486, 4957138, 57715, 1037248, 99596, 67971, 4567615996467176364, 5542325313317932758]),
];

/// 64-bit FNV-1a, fed through `fmt::Write` so a run's `Debug` rendering
/// is hashed as it streams instead of being built as one large string.
struct Fnv1a(u64);

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

fn pin(r: &GpuRunResult) -> Pin {
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    let p = &r.profile;
    write!(
        h,
        "{:?}",
        (
            &r.extensions,
            &r.outcomes,
            &p.total,
            &p.phases.construct,
            &p.phases.walk,
            &r.traces,
            &r.san
        )
    )
    .unwrap();
    let t = &p.total;
    [
        t.warp_instructions,
        t.lane_int_ops,
        t.atomic_replays,
        t.mem.hbm_bytes(),
        t.mem.l1.hits,
        t.mem.l2.hits,
        p.seconds().to_bits(),
        h.0,
    ]
}

/// Every cell of the matrix: its name and the config it runs under.
fn cells() -> Vec<(String, usize, u64, GpuConfig)> {
    let base = |device| {
        let mut cfg = GpuConfig::for_device(device);
        cfg.parallel = false;
        cfg.trace = true;
        cfg.sanitize = SanitizerConfig::all();
        cfg
    };
    let mut cells = Vec::new();
    for (k, seed) in PRESETS {
        for device in DEVICES {
            cells.push((format!("k={k} {device}"), k, seed, base(device)));
        }
    }
    for layout in TableLayoutKind::ALL {
        for device in DEVICES {
            let mut cfg = base(device);
            cfg.layout = layout;
            cells.push((format!("layout={layout} {device}"), 21, 42, cfg));
        }
    }
    for device in DEVICES {
        let mut cfg = base(device);
        cfg.resize = true;
        cells.push((format!("resize {device}"), 21, 42, cfg));
    }
    cells
}

#[test]
fn modeled_state_matches_the_checked_in_pins() {
    let mut got = Vec::new();
    for (name, k, seed, cfg) in cells() {
        let ds = paper_dataset(k, 0.002, seed);
        got.push((name, pin(&run_local_assembly(&ds, &cfg))));
    }
    let table: String = got.iter().map(|(n, p)| format!("    ({n:?}, {p:?}),\n")).collect();
    assert_eq!(got.len(), PINS.len(), "cell count; the table now reads:\n{table}");
    for ((name, p), (want_name, want)) in got.iter().zip(PINS.iter()) {
        assert_eq!(name, want_name, "cell order; the table now reads:\n{table}");
        assert_eq!(p, want, "{name} moved; the table now reads:\n{table}");
    }
}
