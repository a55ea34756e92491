//! Warp-parallel hash-table construction (Algorithm 1, Fig. 1c).
//!
//! Consecutive lanes insert consecutive k-mers of each read (§III-A).
//! Per k-mer the kernel: loads the k-mer bytes, evaluates
//! `MurmurHashAligned2` (the dominant integer cost — Table V), claims or
//! finds the entry through the dialect's `ht_get_atomic`, and atomically
//! bumps the occurrence count and the quality-stratified extension vote.

use crate::fault::KernelFault;
use crate::kernel::Dialect;
use crate::layout::{DeviceJob, OFF_COUNT, OFF_HI_Q, OFF_LOW_Q};
use crate::probe::InsertArgs;
use locassm_core::murmur::{murmur_hash_aligned2, murmur_intops, DEFAULT_SEED};
use locassm_core::quality::is_hi_qual;
use simt::{LaneVec, Mask, Warp};

/// Build the de Bruijn hash table for a staged job.
///
/// Propagates the dialect's `HashTableFull` fault (or any injected
/// fault) instead of panicking, leaving the launch layer to retry with
/// a grown table or a smaller k.
pub fn construct_hash_table(
    warp: &mut Warp,
    job: &mut DeviceJob,
    dialect: Dialect,
) -> Result<(), KernelFault> {
    let width = warp.width();
    let k = job.k as u32;
    let chunks = job.k.div_ceil(4) as u64;

    // Indexed iteration: an in-kernel resize mutates the job (new region,
    // new slot count) mid-span, so the span list cannot stay borrowed
    // across the dialect call. `ReadSpan` is `Copy`.
    for si in 0..job.spans.len() {
        let span = job.spans[si];
        let n_kmers = span.len.saturating_sub(k - 1);
        if span.len < k {
            continue;
        }
        let rounds = n_kmers.div_ceil(width);
        for r in 0..rounds {
            let mut mask = Mask::NONE;
            for l in 0..width {
                if r * width + l < n_kmers {
                    mask.set(l);
                }
            }
            let key_off = LaneVec::from_fn(width, |l| span.offset + r * width + l);

            // Load the k-mer (one 4-byte chunk per mix-loop iteration;
            // neighbouring lanes read overlapping bytes → well coalesced).
            // The lane values feed the hash below, which the host reads
            // straight from the arena — a touch charges the same traffic.
            for j in 0..chunks {
                warp.touch_u32_with(mask, |l| job.reads + key_off[l] as u64 + 4 * j);
            }
            // Hash it (Table V's INTOP1). The raw 32-bit hash is handed
            // to the insert dialect; the job's table layout reduces it to
            // a start slot (mod table size for linear probing, a bucket
            // index otherwise) — the reduction's iops are charged here
            // either way. The simulated kernel pays the murmur iops too;
            // the host reads the value from the interned shadow and
            // recomputes it only where the shadow holds the 0 sentinel.
            warp.iop(mask, murmur_intops(job.k));
            warp.iop(mask, 2);
            let hash = LaneVec::from_fn(width, |l| {
                if mask.contains(l) {
                    job.key_fp(key_off[l]).unwrap_or_else(|| {
                        let key =
                            warp.mem.read_bytes(job.reads + key_off[l] as u64, job.k as u64);
                        murmur_hash_aligned2(key, DEFAULT_SEED)
                    })
                } else {
                    0
                }
            });

            // Find-or-claim the entry (dialect-specific, Appendix A).
            let args = InsertArgs { mask, key_off, hash };
            let slots = dialect.insert(warp, job, &args)?;

            // count += 1 (atomic; identical k-mers serialize here).
            let ones = LaneVec::splat(1u32);
            let count_addrs =
                LaneVec::from_fn(width, |l| job.entry_field(slots[l], OFF_COUNT));
            warp.atomic_add_u32_discard(mask, &count_addrs, &ones);

            // Extension vote for k-mers that have a following base.
            let mut vote_mask = Mask::NONE;
            for l in mask.lanes() {
                let pos_in_read = key_off[l] - span.offset;
                if pos_in_read + k < span.len {
                    vote_mask.set(l);
                }
            }
            if vote_mask.is_empty() {
                continue;
            }
            let base_addrs =
                LaneVec::from_fn(width, |l| job.reads + key_off[l] as u64 + k as u64);
            let bases = warp.load_u8(vote_mask, &base_addrs);
            let qual_addrs =
                LaneVec::from_fn(width, |l| job.quals + key_off[l] as u64 + k as u64);
            let quals = warp.load_u8(vote_mask, &qual_addrs);
            warp.iop(vote_mask, 4); // classify quality + compute vote address

            let vote_addrs = LaneVec::from_fn(width, |l| {
                if vote_mask.contains(l) {
                    let b = locassm_core::base_index(bases[l]) as u64;
                    let field = if is_hi_qual(quals[l]) { OFF_HI_Q } else { OFF_LOW_Q };
                    job.entry_field(slots[l], field + 4 * b)
                } else {
                    0
                }
            });
            warp.atomic_add_u32_discard(vote_mask, &vote_addrs, &ones);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{EMPTY, OFF_KEY_LEN, OFF_KEY_OFF};
    use locassm_core::walk::WalkConfig;
    use locassm_core::{CpuHashTable, Read};
    use memhier::HierarchyConfig;

    /// (key, hi_q, low_q, count) rows of a dumped table.
    type Rows = Vec<(Vec<u8>, [u32; 4], [u32; 4], u32)>;

    /// Read the device table back as (key → (hi_q, low_q, count)).
    fn dump(warp: &Warp, job: &DeviceJob) -> Rows {
        let mut out = Vec::new();
        for s in 0..job.slots {
            if warp.mem.read_u32(job.entry_field(s, OFF_KEY_LEN)) != EMPTY {
                let off = warp.mem.read_u32(job.entry_field(s, OFF_KEY_OFF)) as u64;
                let key = warp.mem.read_bytes(job.reads + off, job.k as u64).to_vec();
                let mut hi = [0u32; 4];
                let mut lo = [0u32; 4];
                for b in 0..4u64 {
                    hi[b as usize] = warp.mem.read_u32(job.entry_field(s, OFF_HI_Q + 4 * b));
                    lo[b as usize] = warp.mem.read_u32(job.entry_field(s, OFF_LOW_Q + 4 * b));
                }
                let count = warp.mem.read_u32(job.entry_field(s, OFF_COUNT));
                out.push((key, hi, lo, count));
            }
        }
        out.sort();
        out
    }

    /// The CPU reference table for the same reads.
    fn cpu_dump(reads: &[Read], k: usize) -> Rows {
        let ht: CpuHashTable = locassm_core::assemble::build_table(reads, k);
        let mut out: Vec<_> = ht
            .iter()
            .map(|(key, v)| (key.to_vec(), v.hi_q, v.low_q, v.count))
            .collect();
        out.sort();
        out
    }

    fn reads_mixed() -> Vec<Read> {
        vec![
            Read::with_uniform_qual(b"ACGTACGTACGTTTGCA", b'I'),
            Read::new(b"GTACGTTTGC".to_vec(), b"II##IIII#I".to_vec()),
            Read::with_uniform_qual(b"TTGCACCC", b'#'),
        ]
    }

    #[test]
    fn matches_cpu_reference_for_every_dialect() {
        for (dialect, width) in
            [(Dialect::Cuda, 32u32), (Dialect::Hip, 64), (Dialect::Sycl, 16)]
        {
            let reads = reads_mixed();
            let mut warp = Warp::new(width, HierarchyConfig::tiny());
            let mut job =
                DeviceJob::stage(&mut warp, b"AACCGGTTAACC", &reads, 5, WalkConfig::default(), 1)
                    .unwrap();
            construct_hash_table(&mut warp, &mut job, dialect).unwrap();
            assert_eq!(dump(&warp, &job), cpu_dump(&reads, 5), "{dialect:?}");
        }
    }

    #[test]
    fn short_reads_skipped() {
        let reads = vec![Read::with_uniform_qual(b"ACG", b'I')];
        let mut warp = Warp::new(32, HierarchyConfig::tiny());
        let mut job = DeviceJob::stage(&mut warp, b"ACGTACGT", &reads, 5, WalkConfig::default(), 1)
            .unwrap();
        construct_hash_table(&mut warp, &mut job, Dialect::Cuda).unwrap();
        assert!(dump(&warp, &job).is_empty());
        assert_eq!(warp.counters.atomic_instructions, 0);
    }

    #[test]
    fn counts_accumulate_across_reads() {
        // "ACGTA" appears in both reads → count 2.
        let reads = vec![
            Read::with_uniform_qual(b"ACGTAC", b'I'),
            Read::with_uniform_qual(b"ACGTAG", b'I'),
        ];
        let mut warp = Warp::new(32, HierarchyConfig::tiny());
        let mut job = DeviceJob::stage(&mut warp, b"ACGTACGT", &reads, 5, WalkConfig::default(), 1)
            .unwrap();
        construct_hash_table(&mut warp, &mut job, Dialect::Cuda).unwrap();
        let entries = dump(&warp, &job);
        let acgta = entries.iter().find(|(k, ..)| k == b"ACGTA").unwrap();
        assert_eq!(acgta.3, 2);
        // Votes: one for C (hi), one for G (hi) → the fork case.
        assert_eq!(acgta.1, [0, 1, 1, 0]);
    }

    #[test]
    fn wider_warp_wastes_lanes_on_short_reads() {
        // A 20-k-mer read occupies 20/32 lanes on CUDA but 20/64 on HIP:
        // utilization halves, INTOPs grow.
        let reads = vec![Read::with_uniform_qual(&[b'A'; 24][..], b'I')];
        let util = |width: u32, dialect: Dialect| {
            let mut warp = Warp::new(width, HierarchyConfig::tiny());
            let mut job = DeviceJob::stage(&mut warp, b"AAAAAAAA", &reads, 5, WalkConfig::default(), 1)
                .unwrap();
            construct_hash_table(&mut warp, &mut job, dialect).unwrap();
            warp.counters.lane_utilization()
        };
        let u32w = util(32, Dialect::Cuda);
        let u64w = util(64, Dialect::Hip);
        assert!(u64w < u32w, "64-wide: {u64w}, 32-wide: {u32w}");
    }
}
