//! Warp collectives: shuffle, ballot, match, vote, synchronization.
//!
//! These are the intrinsics whose (un)availability across vendors drives the
//! porting story in §III of the paper:
//!
//! * CUDA has `__match_any_sync` + `__syncwarp(mask)` → [`Warp::match_any`],
//!   [`Warp::syncwarp`];
//! * HIP lacks both, so the port uses `__all(done)` in a retry loop →
//!   [`Warp::all`];
//! * SYCL uses a sub-group barrier → [`Warp::subgroup_barrier`];
//! * all three broadcast mer-walk state with shuffles → [`Warp::shfl_u32`].

use crate::lanevec::LaneVec;
use crate::mask::Mask;
use crate::trace::EventKind;
use crate::warp::Warp;

impl Warp {
    /// `__shfl_sync`: every active lane receives lane `src`'s value.
    ///
    /// Source semantics are hardware-faithful: the source lane is
    /// `src % width`, exactly as `__shfl_sync` computes `srcLane mod
    /// warpSize` (so `src = width` wraps to lane 0 instead of reading
    /// past the lane vector). Reading from a source lane that is not in
    /// `mask` is *undefined* on hardware; the simulator deterministically
    /// returns that lane's register value, and the sanitizer flags it
    /// ([`crate::SanKind::ShuffleInactiveSource`]) along with any
    /// out-of-range `src` ([`crate::SanKind::ShuffleSourceOutOfRange`]).
    pub fn shfl_u32(&mut self, mask: Mask, vals: &LaneVec<u32>, src: u32) -> LaneVec<u32> {
        self.count_collective(1, "shfl");
        self.san_collective("shfl", mask);
        self.san_shfl(mask, src);
        let v = vals[src % self.width()];
        let mut out = LaneVec::splat(0u32);
        out.set_masked(mask, v);
        out
    }

    /// 64-bit shuffle (two 32-bit shuffles on hardware → 2 instructions).
    ///
    /// Same source semantics as [`Warp::shfl_u32`]: the source lane is
    /// `src % width`, and the sanitizer flags inactive or out-of-range
    /// sources.
    pub fn shfl_u64(&mut self, mask: Mask, vals: &LaneVec<u64>, src: u32) -> LaneVec<u64> {
        self.count_collective(2, "shfl");
        self.san_collective("shfl", mask);
        self.san_shfl(mask, src);
        let v = vals[src % self.width()];
        let mut out = LaneVec::splat(0u64);
        out.set_masked(mask, v);
        out
    }

    /// `__ballot_sync`: mask of active lanes whose predicate is true.
    pub fn ballot(&mut self, mask: Mask, preds: &LaneVec<bool>) -> Mask {
        self.count_collective(1, "ballot");
        self.san_collective("ballot", mask);
        let mut out = Mask::NONE;
        for (l, p) in preds.iter_masked(mask) {
            if p {
                out.set(l);
            }
        }
        out
    }

    /// `__match_any_sync`: for each active lane, the mask of active lanes
    /// holding an equal key. Used by the CUDA dialect to detect thread
    /// collisions on identical k-mers (§III-A, Appendix A).
    pub fn match_any(&mut self, mask: Mask, keys: &LaneVec<u64>) -> LaneVec<Mask> {
        self.count_collective(1, "match_any");
        self.san_collective("match_any", mask);
        let mut out = LaneVec::splat(Mask::NONE);
        for (l, k) in keys.iter_masked(mask) {
            let mut m = Mask::NONE;
            for (l2, k2) in keys.iter_masked(mask) {
                if k2 == k {
                    m.set(l2);
                }
            }
            out[l] = m;
        }
        out
    }

    /// `__match_any_sync` whose groups the kernel discards (the CUDA
    /// dialect issues the collective for its cost; the CAS result already
    /// resolves collisions). Charges exactly what [`Warp::match_any`]
    /// charges — same counters, trace event and sanitizer checks — without
    /// the O(width²) grouping no observable state depends on.
    pub fn match_any_discard(&mut self, mask: Mask) {
        self.count_collective(1, "match_any");
        self.san_collective("match_any", mask);
    }

    /// `__all`: true iff every active lane's predicate is true. (HIP dialect
    /// termination test for the done-flag insertion loop.)
    pub fn all(&mut self, mask: Mask, preds: &LaneVec<bool>) -> bool {
        self.count_collective(1, "all");
        self.san_collective("all", mask);
        preds.iter_masked(mask).all(|(_, p)| p)
    }

    /// `__any`: true iff at least one active lane's predicate is true.
    pub fn any(&mut self, mask: Mask, preds: &LaneVec<bool>) -> bool {
        self.count_collective(1, "any");
        self.san_collective("any", mask);
        preds.iter_masked(mask).any(|(_, p)| p)
    }

    /// `__syncwarp(mask)`: converge the given lanes. In a lockstep simulator
    /// this is a pure accounting event — but under the sanitizer it is also
    /// an ordering point and the divergence-check boundary (a barrier
    /// naming lanes that executed nothing since the previous barrier is
    /// flagged as [`crate::SanKind::DivergentBarrier`]).
    pub fn syncwarp(&mut self, mask: Mask) {
        self.counters.sync_instructions += 1;
        self.counters.warp_instructions += 1;
        self.trace_event(EventKind::Sync);
        self.san_barrier(Some(mask));
    }

    /// SYCL `sg.barrier()`: synchronize the whole sub-group. Unmasked, so
    /// the sanitizer treats it as an ordering point without a
    /// divergence check.
    pub fn subgroup_barrier(&mut self) {
        self.counters.sync_instructions += 1;
        self.counters.warp_instructions += 1;
        self.trace_event(EventKind::Sync);
        self.san_barrier(None);
    }

    fn count_collective(&mut self, n: u64, name: &'static str) {
        self.counters.collective_instructions += n;
        self.counters.warp_instructions += n;
        self.trace_event(EventKind::Collective { name });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memhier::HierarchyConfig;

    fn warp(width: u32) -> Warp {
        Warp::new(width, HierarchyConfig::tiny())
    }

    #[test]
    fn shfl_broadcasts() {
        let mut w = warp(32);
        let vals = LaneVec::from_fn(32, |l| l * 2);
        let out = w.shfl_u32(w.full_mask(), &vals, 7);
        assert_eq!(out[0], 14);
        assert_eq!(out[31], 14);
        assert_eq!(w.counters.collective_instructions, 1);
    }

    #[test]
    fn shfl_u64_costs_two() {
        let mut w = warp(16);
        let vals = LaneVec::splat(0xdead_beef_0000_0001u64);
        let out = w.shfl_u64(w.full_mask(), &vals, 0);
        assert_eq!(out[15], 0xdead_beef_0000_0001);
        assert_eq!(w.counters.collective_instructions, 2);
    }

    #[test]
    fn shfl_source_wraps_modulo_width() {
        // Hardware computes `srcLane mod warpSize`; before the fix the
        // simulator indexed the raw lane vector, reading stale defaults
        // (src in 16..64) or panicking (src >= 64).
        let mut w = warp(16);
        let vals = LaneVec::from_fn(16, |l| l + 1);
        let out = w.shfl_u32(w.full_mask(), &vals, 16);
        assert_eq!(out[3], 1, "src == width wraps to lane 0");
        let out = w.shfl_u32(w.full_mask(), &vals, 35);
        assert_eq!(out[0], 4, "src 35 wraps to lane 3 at width 16");
        let out = w.shfl_u32(w.full_mask(), &vals, 64);
        assert_eq!(out[7], 1, "src 64 no longer panics");
        let vals64 = LaneVec::from_fn(16, |l| l as u64 + 100);
        let out64 = w.shfl_u64(w.full_mask(), &vals64, 17);
        assert_eq!(out64[5], 101, "u64 shuffle wraps identically");
    }

    #[test]
    fn sanitizer_flags_shuffle_hazards() {
        use crate::san::SanitizerConfig;
        let mut w = warp(16);
        w.enable_sanitizer(SanitizerConfig::all());
        let vals = LaneVec::splat(7u32);
        let _ = w.shfl_u32(Mask(0b11), &vals, 40); // out of range
        let _ = w.shfl_u32(Mask(0b11), &vals, 5); // in range, inactive
        let _ = w.shfl_u32(Mask(0b11), &vals, 1); // clean
        let r = w.take_san_report().unwrap();
        assert_eq!(r.count("shfl_src_out_of_range"), 1);
        assert_eq!(r.count("shfl_inactive_src"), 1);
        assert_eq!(r.findings.len(), 2);
    }

    #[test]
    fn sanitizer_flags_divergent_syncwarp() {
        use crate::san::SanitizerConfig;
        let mut w = warp(32);
        w.enable_sanitizer(SanitizerConfig::all());
        w.iop(Mask(0b11), 1);
        // The barrier names lanes 2-3, which executed nothing.
        w.syncwarp(Mask(0b1111));
        // Converged rounds after the defect stay silent.
        w.iop(Mask(0b11), 1);
        w.syncwarp(Mask(0b11));
        let r = w.take_san_report().unwrap();
        assert_eq!(r.count("divergent_barrier"), 1);
    }

    #[test]
    fn sanitizer_flags_overwide_collective_mask() {
        use crate::san::SanitizerConfig;
        let mut w = warp(16);
        w.enable_sanitizer(SanitizerConfig::all());
        let preds = LaneVec::splat(true);
        let _ = w.all(Mask(1 << 20), &preds);
        let r = w.take_san_report().unwrap();
        assert_eq!(r.count("mask_exceeds_width"), 1);
    }

    #[test]
    fn ballot_collects_predicates() {
        let mut w = warp(32);
        let preds = LaneVec::from_fn(32, |l| l % 2 == 0);
        let m = w.ballot(w.full_mask(), &preds);
        assert_eq!(m.0, 0x5555_5555);
        // Inactive lanes never vote.
        let m2 = w.ballot(Mask(0b11), &preds);
        assert_eq!(m2.0, 0b01);
    }

    #[test]
    fn match_any_groups_equal_keys() {
        let mut w = warp(8);
        // Lanes 0,3 share key 42; lanes 1,2 share key 7; rest unique.
        let keys = LaneVec::from_fn(8, |l| match l {
            0 | 3 => 42,
            1 | 2 => 7,
            l => 1000 + l as u64,
        });
        let m = w.match_any(w.full_mask(), &keys);
        assert_eq!(m[0].0, 0b1001);
        assert_eq!(m[3].0, 0b1001);
        assert_eq!(m[1].0, 0b0110);
        assert_eq!(m[5].0, 0b100000);
    }

    #[test]
    fn match_any_respects_mask() {
        let mut w = warp(8);
        let keys = LaneVec::splat(1u64);
        let m = w.match_any(Mask(0b1010), &keys);
        assert_eq!(m[1].0, 0b1010);
        assert_eq!(m[0].0, 0, "inactive lane gets empty mask");
    }

    #[test]
    fn all_and_any() {
        let mut w = warp(4);
        let preds = LaneVec::from_fn(4, |l| l != 2);
        assert!(!w.all(w.full_mask(), &preds));
        assert!(w.any(w.full_mask(), &preds));
        // With lane 2 masked off, all() becomes true.
        assert!(w.all(Mask(0b1011), &preds));
        let none = LaneVec::splat(false);
        assert!(!w.any(w.full_mask(), &none));
    }

    #[test]
    fn sync_counts_instructions() {
        let mut w = warp(32);
        w.syncwarp(w.full_mask());
        w.subgroup_barrier();
        assert_eq!(w.counters.sync_instructions, 2);
        assert_eq!(w.counters.warp_instructions, 2);
    }
}
