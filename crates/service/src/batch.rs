//! Batch sizing: how many queued requests fit one launch.
//!
//! The admission scheduler packs queued requests into warp batches sized
//! from the kernel layer's own memory model
//! ([`locassm_kernels::layout::stage_footprint`] summed over the retry
//! schedule by `arena_footprint`): a request's cost is the arena bytes
//! its right- and left-side kernels would stage, and a batch closes when
//! the next request would push the packed total past the byte budget
//! (by default the device's L2 — the same capacity the launch engine's
//! timing model treats as the shared cache the resident warps split).
//! Packing is therefore device-aware without duplicating any sizing
//! logic: the service asks the exact function the launch path uses.

use locassm_core::ContigJob;
use locassm_kernels::layout::arena_footprint;
use locassm_kernels::{GpuConfig, Side};

/// Limits on one packed batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Hard cap on requests per batch (one request may stage up to two
    /// kernel jobs: right and left side).
    pub max_jobs: usize,
    /// Byte budget for the batch's summed arena footprints. The first
    /// request of a batch is always admitted even if it exceeds the
    /// budget alone — an oversized request must still be runnable, just
    /// never co-batched.
    pub byte_budget: u64,
}

impl BatchPolicy {
    /// A policy with explicit limits.
    pub fn new(max_jobs: usize, byte_budget: u64) -> Self {
        BatchPolicy { max_jobs: max_jobs.max(1), byte_budget }
    }

    /// Derive the policy from the GPU configuration the service runs:
    /// up to 64 requests per batch, byte budget = the device's L2 size
    /// (the capacity the timing model divides among resident warps).
    pub fn for_gpu(gpu: &GpuConfig) -> Self {
        BatchPolicy { max_jobs: 64, byte_budget: gpu.spec().l2_bytes }
    }
}

/// The arena bytes one request would stage across both extension sides,
/// summed over every k in the retry schedule — the packing cost used
/// against [`BatchPolicy::byte_budget`].
///
/// Sides the launch engine skips ([`Side::launches`]: no reads, or a
/// contig shorter than every scheduled k) cost nothing; the left side
/// walks the reverse complement, whose lengths match the forward reads,
/// so the forward footprint is exact for both.
pub fn request_footprint(job: &ContigJob, schedule: &[usize], gpu: &GpuConfig) -> u64 {
    let cost = |side: Side| -> u64 {
        if !side.launches(job, schedule) {
            return 0;
        }
        arena_footprint(
            job.contig.len(),
            side.reads(job),
            schedule,
            gpu.walk,
            gpu.slot_reserve.max(1),
            gpu.layout,
            gpu.resize,
        )
    };
    cost(Side::Right) + cost(Side::Left)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_specs::DeviceId;
    use locassm_core::Read;

    fn cfg() -> GpuConfig {
        GpuConfig::for_device(DeviceId::A100)
    }

    fn job(n_right: usize, n_left: usize) -> ContigJob {
        let read = Read::with_uniform_qual(b"ACGTACGTACGTACGTACGT", b'I');
        ContigJob::new(
            0,
            b"ACGTACGTACGTACGT".to_vec(),
            vec![read.clone(); n_right],
            vec![read; n_left],
        )
    }

    #[test]
    fn footprint_counts_only_sides_with_reads() {
        let cfg = cfg();
        let sched = vec![13];
        let both = request_footprint(&job(2, 2), &sched, &cfg);
        let right_only = request_footprint(&job(2, 0), &sched, &cfg);
        let none = request_footprint(&job(0, 0), &sched, &cfg);
        assert_eq!(both, 2 * right_only, "symmetric sides cost the same");
        assert_eq!(none, 0, "a read-free request stages nothing");
        assert!(right_only > 0);
    }

    /// A contig shorter than every scheduled k never launches, so it
    /// stages nothing even with reads on both sides.
    #[test]
    fn footprint_skips_contigs_shorter_than_every_k() {
        let short = job(2, 2);
        assert_eq!(short.contig.len(), 16);
        assert_eq!(request_footprint(&short, &[21], &cfg()), 0);
        assert!(request_footprint(&short, &[21, 13], &cfg()) > 0, "k=13 fits");
    }

    #[test]
    fn footprint_grows_with_the_retry_schedule() {
        let cfg = cfg();
        let one_k = request_footprint(&job(2, 2), &[13], &cfg);
        let ladder = request_footprint(&job(2, 2), &[13, 11], &cfg);
        assert!(ladder > one_k, "each schedule rung adds its stage bytes");
    }

    #[test]
    fn policy_from_gpu_uses_the_l2_budget() {
        let cfg = cfg();
        let p = BatchPolicy::for_gpu(&cfg);
        assert_eq!(p.byte_budget, cfg.spec().l2_bytes);
        assert!(p.max_jobs >= 1);
        assert_eq!(BatchPolicy::new(0, 7).max_jobs, 1, "cap floors at one");
    }
}
