//! Cross-crate oracle tests: the three GPU kernel dialects must produce
//! extensions bit-identical to the CPU reference implementation on
//! randomized workloads of every paper k.

use locassm::core::{assemble_all, AssemblyConfig};
use locassm::kernels::{run_local_assembly, Dialect, GpuConfig};
use locassm::specs::DeviceId;
use locassm::workloads::paper_dataset;

fn check(k: usize, seed: u64, device: DeviceId) {
    let ds = paper_dataset(k, 0.002, seed);
    let cfg = GpuConfig::for_device(device);
    let gpu = run_local_assembly(&ds, &cfg);
    let cpu = assemble_all(&ds.jobs, &AssemblyConfig { k, walk: cfg.walk, retry: cfg.retry.clone() }, true);
    assert_eq!(
        gpu.extensions, cpu,
        "device {device} must match the CPU oracle for k={k}, seed={seed}"
    );
}

#[test]
fn cuda_dialect_matches_cpu_all_k() {
    for k in [21, 33, 55, 77] {
        check(k, 1000 + k as u64, DeviceId::A100);
    }
}

#[test]
fn hip_dialect_matches_cpu_all_k() {
    for k in [21, 33, 55, 77] {
        check(k, 2000 + k as u64, DeviceId::Mi250x);
    }
}

#[test]
fn sycl_dialect_matches_cpu_all_k() {
    for k in [21, 33, 55, 77] {
        check(k, 3000 + k as u64, DeviceId::Max1550);
    }
}

#[test]
fn oracle_holds_across_seeds() {
    for seed in [7, 8, 9, 10, 11] {
        check(21, seed, DeviceId::A100);
    }
}

#[test]
fn nonnative_dialects_also_match() {
    // Any (device, dialect, width) combination computes the same biology —
    // the ablation matrix depends on this.
    let ds = paper_dataset(33, 0.002, 77);
    let cpu = assemble_all(
        &ds.jobs,
        &AssemblyConfig::new(33),
        true,
    );
    for dialect in [Dialect::Cuda, Dialect::Hip, Dialect::Sycl] {
        for width in [8u32, 16, 32, 64] {
            let mut cfg = GpuConfig::for_device(DeviceId::A100);
            cfg.dialect = dialect;
            cfg.width = width;
            let gpu = run_local_assembly(&ds, &cfg);
            assert_eq!(gpu.extensions, cpu, "dialect {dialect} width {width}");
        }
    }
}

#[test]
fn extensions_are_real_dna_and_bounded() {
    let ds = paper_dataset(55, 0.003, 5);
    let cfg = GpuConfig::for_device(DeviceId::A100);
    let run = run_local_assembly(&ds, &cfg);
    for e in &run.extensions {
        assert!(locassm::core::valid_seq(&e.right));
        assert!(locassm::core::valid_seq(&e.left));
        assert!(e.right.len() <= cfg.walk.max_walk_len);
        assert!(e.left.len() <= cfg.walk.max_walk_len);
    }
}

#[test]
fn retry_ladder_keeps_gpu_cpu_parity() {
    // The Fig. 4 retry loop must not break the oracle: both sides walk the
    // same ladder and accept with the same rule.
    use locassm::core::RetryPolicy;
    let ds = paper_dataset(33, 0.002, 91);
    let mut cfg = GpuConfig::for_device(DeviceId::A100);
    cfg.retry = RetryPolicy::ladder(33);
    let gpu = run_local_assembly(&ds, &cfg);
    let cpu = assemble_all(
        &ds.jobs,
        &AssemblyConfig { k: 33, walk: cfg.walk, retry: cfg.retry.clone() },
        true,
    );
    assert_eq!(gpu.extensions, cpu);
}

#[test]
fn retry_ladder_rescues_thin_coverage() {
    // Reads shorter than the primary k contribute zero k-mers at k=15 but
    // plenty at the ladder's k=11 — the retry recovers an extension the
    // single-k configuration cannot produce.
    use locassm::core::walk::WalkConfig;
    use locassm::core::{ContigJob, Read, RetryPolicy};
    let genome = b"ACGATTGCCATAGGCTTACCGATG";
    let contig = genome[..16].to_vec();
    // A 14-base read containing the contig's terminal 11-mer (no 15-mers!).
    let read = Read::with_uniform_qual(&genome[4..18], b'I');
    let job = ContigJob::new(0, contig, vec![read], vec![]);

    let base = AssemblyConfig {
        k: 15,
        walk: WalkConfig { min_votes: 1, ..WalkConfig::default() },
        retry: RetryPolicy::none(),
    };
    let without = locassm::core::extend_contig(&job, &base);
    assert!(without.right.is_empty(), "k=15 alone cannot use 14-base reads");

    let with = AssemblyConfig { retry: RetryPolicy::ladder(15), ..base.clone() };
    let rescued = locassm::core::extend_contig(&job, &with);
    assert!(!rescued.right.is_empty(), "the k=11 retry must extend");
    // And the GPU kernel agrees.
    let ds = locassm::core::io::Dataset::new(15, vec![job]);
    let mut cfg = GpuConfig::for_device(DeviceId::Max1550);
    cfg.walk = with.walk;
    cfg.retry = with.retry.clone();
    let gpu = run_local_assembly(&ds, &cfg);
    assert_eq!(gpu.extensions[0], rescued);
}

/// The iterative workflow (Fig. 2) feeds each round's extended contigs to
/// the next k. Starting from the contigs the CPU pipeline leaves after its
/// k = 21 round, the GPU's k = 33 round must equal the CPU oracle, and
/// applying its extensions must reproduce the CPU pipeline's two-round
/// contigs.
#[test]
fn second_round_on_extended_contigs_matches_cpu() {
    use locassm::core::io::Dataset;
    use locassm::core::pipeline::run_pipeline;
    let jobs = paper_dataset(21, 0.001, 55).jobs;
    let cfg = GpuConfig::for_device(DeviceId::A100);
    let round1 = run_pipeline(&jobs, &[21], cfg.walk, true);
    assert!(round1.rounds[0].contigs_extended > 0, "round one must extend something");
    let mut next = jobs.clone();
    for (job, contig) in next.iter_mut().zip(round1.contigs) {
        job.contig = contig;
    }

    let ds = Dataset::new(33, next);
    let gpu = run_local_assembly(&ds, &cfg);
    let oracle = AssemblyConfig { k: 33, walk: cfg.walk, retry: cfg.retry.clone() };
    assert_eq!(gpu.extensions, assemble_all(&ds.jobs, &oracle, true));

    let both = run_pipeline(&jobs, &[21, 33], cfg.walk, true);
    let applied: Vec<_> =
        ds.jobs.iter().zip(&gpu.extensions).map(|(j, e)| e.apply(&j.contig)).collect();
    assert_eq!(applied, both.contigs, "round-by-round contigs must agree");
}
