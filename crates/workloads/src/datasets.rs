//! The four paper datasets (Table II), scalable.
//!
//! Table II of the paper:
//!
//! | k  | contigs | reads  | avg read len | insertions | avg extn | total extns |
//! |----|---------|--------|--------------|------------|----------|-------------|
//! | 21 | 14195   | 74159  | 155          | 10,011,465 | 48.2     | 684100      |
//! | 33 | 4394    | 20421  | 159          | 2,593,467  | 88.2     | 387283      |
//! | 55 | 3319    | 13160  | 166          | 1,473,920  | 161.0    | 534206      |
//! | 77 | 2544    | 7838   | 175          | 775,962    | 227.0    | 577496      |
//!
//! Reads are generated full-length, so at `scale = 1.0` the contig count,
//! read count, read length — and therefore the insertion total, which is
//! `reads × (read_len − k + 1)` — match the table exactly. Extension
//! lengths are emergent (they depend on coverage chains and the error
//! model) and are targeted by construction, then measured by
//! `stats::ExtensionStats`.

use crate::genome::random_genome;
use crate::sampler::{sample_left_junction, sample_right_junction, ReadProfile};
use locassm_core::io::Dataset;
use locassm_core::{ContigJob, Read};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Generation parameters for one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// k-mer size of this round.
    pub k: usize,
    /// Number of contigs.
    pub contigs: usize,
    /// Total reads across all contigs and both ends.
    pub reads: usize,
    /// Fixed read length.
    pub read_len: usize,
    /// Target *total* extension length per contig (Table II's "avg extn
    /// length"; each side gets half the budget of true genome beyond its
    /// junction).
    pub ext_target: usize,
    /// Contig length range.
    pub contig_len: std::ops::Range<usize>,
    /// Read error/quality model.
    pub profile: ReadProfile,
}

/// The paper's dataset for a given k (Table II row). Panics on a k outside
/// {21, 33, 55, 77}.
pub fn paper_spec(k: usize) -> DatasetSpec {
    let (contigs, reads, read_len, ext) = match k {
        21 => (14195, 74159, 155, 48),
        33 => (4394, 20421, 159, 88),
        55 => (3319, 13160, 166, 161),
        77 => (2544, 7838, 175, 227),
        _ => panic!("no paper dataset for k = {k} (expected 21, 33, 55 or 77)"),
    };
    DatasetSpec {
        k,
        contigs,
        reads,
        read_len,
        ext_target: ext,
        contig_len: 200..501,
        profile: ReadProfile::illumina_like(read_len),
    }
}

impl DatasetSpec {
    /// Scale contig and read counts by `scale` (for tests and quick runs),
    /// keeping the per-contig read density.
    pub fn scaled(mut self, scale: f64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        self.contigs = ((self.contigs as f64 * scale).round() as usize).max(1);
        self.reads = ((self.reads as f64 * scale).round() as usize).max(self.contigs);
        self
    }

    /// Generate the dataset deterministically from `seed`.
    pub fn generate(&self, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = self.k;

        // Distribute reads over (contig, side) slots: every side gets one
        // read first (the input pairs each contig end with the reads that
        // aligned there — that is what selects a contig for local assembly
        // in the first place), and the remainder lands uniformly. If reads
        // are scarcer than sides, a random subset of sides is covered.
        use rand::seq::SliceRandom;
        let slots = self.contigs * 2;
        let mut per_slot = vec![0usize; slots];
        if self.reads >= slots {
            per_slot.fill(1);
            for _ in 0..self.reads - slots {
                per_slot[rng.random_range(0..slots)] += 1;
            }
        } else {
            for p in per_slot.iter_mut().take(self.reads) {
                *p = 1;
            }
            per_slot.shuffle(&mut rng);
        }

        // `ext_target` is the Table II *per-contig* average (both ends
        // combined); each side gets half the budget of true genome beyond
        // its junction.
        let side_ext = self.ext_target.div_ceil(2).max(k);

        let mut jobs = Vec::with_capacity(self.contigs);
        for c in 0..self.contigs {
            let contig_len = rng.random_range(self.contig_len.clone()).max(k + 1);
            // Genome: [left margin | contig | right margin], margins large
            // enough for the per-side extension budget and read overhang.
            let margin = side_ext + self.read_len;
            let genome_len = contig_len + 2 * margin;
            let genome = random_genome(genome_len, &mut rng);
            let left_j = margin;
            let right_j = margin + contig_len;
            let contig = genome[left_j..right_j].to_vec();

            let n_right = per_slot[2 * c];
            let n_left = per_slot[2 * c + 1];
            let right = sample_right_junction(
                &genome,
                right_j,
                side_ext,
                k,
                n_right,
                &self.profile,
                &mut rng,
            );
            let left = sample_left_junction(
                &genome,
                left_j,
                side_ext,
                k,
                n_left,
                &self.profile,
                &mut rng,
            );
            jobs.push(ContigJob::new(c as u32, contig, right, left));
        }
        Dataset::new(k, jobs)
    }
}

/// Generate the paper dataset for k at the given scale and seed.
pub fn paper_dataset(k: usize, scale: f64, seed: u64) -> Dataset {
    paper_spec(k).scaled(scale).generate(seed)
}

/// A deterministic xorshift DNA sequence (fixed data, no RNG): its k-mers
/// are effectively all distinct, so insertions ≈ occupied slots and a
/// squeezed table's overflow behaviour is predictable.
pub fn scrambled_seq(len: usize) -> Vec<u8> {
    let mut x = 0x2545_f491u32;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            b"ACGT"[(x % 4) as usize]
        })
        .collect()
}

/// One contig whose single right read carries ~`n_kmers` distinct k-mers
/// — the minimal long-tail job whose hash table genuinely fills up when
/// its host-side slot estimate is violated (`simt::FaultPlan::table_squeeze`).
/// The contig is the read's first `max(k, 8)` bases.
pub fn long_tail_dataset(k: usize, n_kmers: usize) -> Dataset {
    let seq = scrambled_seq(n_kmers + k - 1);
    let contig = seq[..k.max(8)].to_vec();
    let job = ContigJob::new(0, contig, vec![Read::with_uniform_qual(&seq, b'I')], vec![]);
    Dataset::new(k, vec![job])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn long_tail_job_is_one_contig_with_one_distinct_kmer_read() {
        let ds = long_tail_dataset(21, 80);
        assert_eq!(ds.k, 21);
        assert_eq!(ds.jobs.len(), 1);
        let job = &ds.jobs[0];
        assert!(job.left_reads.is_empty());
        assert_eq!(job.right_reads.len(), 1);
        let read = &job.right_reads[0].seq;
        assert_eq!(read.len(), 100);
        assert_eq!(&job.contig[..], &read[..21]);
        let distinct: std::collections::HashSet<_> = read.windows(21).collect();
        assert_eq!(distinct.len(), 80);
        assert_eq!(long_tail_dataset(21, 80), ds, "fixed data");
    }

    #[test]
    fn full_scale_specs_match_table2() {
        for (k, contigs, reads, len, ins) in [
            (21usize, 14195usize, 74159usize, 155usize, 10_011_465usize),
            (33, 4394, 20421, 159, 2_593_467),
            (55, 3319, 13160, 166, 1_473_920),
            (77, 2544, 7838, 175, 775_962),
        ] {
            let s = paper_spec(k);
            assert_eq!(s.contigs, contigs);
            assert_eq!(s.reads, reads);
            assert_eq!(s.read_len, len);
            // insertions = reads × (read_len − k + 1), exactly Table II.
            assert_eq!(s.reads * (s.read_len - k + 1), ins, "k = {k}");
        }
    }

    #[test]
    fn generated_dataset_has_exact_counts() {
        let ds = paper_dataset(21, 0.01, 7);
        let spec = paper_spec(21).scaled(0.01);
        assert_eq!(ds.jobs.len(), spec.contigs);
        assert_eq!(ds.total_reads(), spec.reads);
        assert_eq!(ds.total_insertions(), spec.reads * (spec.read_len - 21 + 1));
        assert_eq!(ds.k, 21);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = paper_dataset(33, 0.005, 11);
        let b = paper_dataset(33, 0.005, 11);
        let c = paper_dataset(33, 0.005, 12);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn reads_are_full_length() {
        let ds = paper_dataset(55, 0.01, 3);
        for j in &ds.jobs {
            for r in j.right_reads.iter().chain(&j.left_reads) {
                assert_eq!(r.len(), 166);
            }
        }
    }

    #[test]
    fn contigs_long_enough_for_k() {
        let ds = paper_dataset(77, 0.01, 3);
        for j in &ds.jobs {
            assert!(j.contig.len() > 77);
        }
    }

    #[test]
    #[should_panic(expected = "no paper dataset")]
    fn unknown_k_rejected() {
        paper_spec(42);
    }

    #[test]
    fn scaling_preserves_density() {
        let full = paper_spec(21);
        let small = paper_spec(21).scaled(0.1);
        let d_full = full.reads as f64 / full.contigs as f64;
        let d_small = small.reads as f64 / small.contigs as f64;
        assert!((d_full - d_small).abs() < 0.1);
    }
}
