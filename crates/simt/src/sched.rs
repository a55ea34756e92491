//! Event-driven multi-warp scheduler — the timing half of
//! [`crate::ExecMode::Scheduled`].
//!
//! The counter model runs each warp to completion independently; real GPUs
//! hide memory latency by keeping many warps resident per SM and switching
//! to a ready warp whenever the current one blocks on an outstanding load.
//! This module replays recorded per-warp [`WarpTimeline`]s through an event
//! [`TimeQueue`] per SM, modeling:
//!
//! * **issue** — every warp instruction occupies the SM's issue port for a
//!   fixed number of ticks (the device's calibrated sustained issue rate),
//! * **memory latency** — each memory instruction carries the
//!   [`memhier::MemLevel`] it resolved at; the issuing warp
//!   blocks for that level's latency while the port stays free for the
//!   other resident warps (this is the latency *hiding*),
//! * **limited residency** — at most `residency` warps are resident per SM
//!   at once (occupancy from `layout::stage_footprint` vs. SM resources,
//!   computed by `gpu_specs::occupancy::scheduled_residency`); further
//!   warps wait for a resident warp to retire.
//!
//! The replay is **observational**: timelines are recorded during a
//! functionally Vectorized run (bit-identical results/counters/traces) and
//! scheduled afterwards, so the timing model can never perturb modeled
//! state — the same discipline the tracing and sanitizer layers follow.
//! Everything is deterministic: ties in the time queue break on a monotone
//! sequence number, and warps are admitted in job order.
//!
//! Ticks are **picoseconds** (1 tick = 1 ps). At the devices' calibrated
//! issue rates one warp instruction costs tens of thousands of ticks and
//! HBM latency costs hundreds of thousands, so `u64` tick arithmetic has
//! headroom for runs billions of instructions long.

use memhier::MemLevel;
use rayon::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One recorded occurrence on a warp's deterministic instruction clock.
///
/// `at` is the warp's cumulative `warp_instructions` count *after* the
/// instruction that produced the event — the same clock the tracing layer
/// stamps, so timelines and traces line up exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimelineEvent {
    /// A memory instruction issued at clock `at` and resolved at `level`.
    Mem {
        /// Warp-instruction clock after the instruction issued.
        at: u64,
        /// Deepest hierarchy level the access reached (its latency class).
        level: MemLevel,
    },
    /// A named phase was entered at clock `at` (instructions from here on
    /// are attributed to `name` until the matching exit).
    PhaseEnter {
        /// Static phase name (`"construct"`, `"walk"`, …).
        name: &'static str,
        /// Warp-instruction clock at entry.
        at: u64,
    },
    /// The innermost open phase exited at clock `at`.
    PhaseExit {
        /// Warp-instruction clock at exit.
        at: u64,
    },
}

/// The recorded execution of one warp: every memory instruction with its
/// resolved hierarchy level, phase boundaries, and the final instruction
/// count. Compute segments are implicit — the clock gaps between events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WarpTimeline {
    /// Launch-order warp id (job index within the launch).
    pub warp_id: u64,
    /// Total warp instructions the warp issued.
    pub total_instructions: u64,
    /// Events in clock order.
    pub events: Vec<TimelineEvent>,
}

/// Records a [`WarpTimeline`] during execution — attached to a warp the
/// same way a trace sink is (boxed, optional, zero modeled cost).
#[derive(Debug, Default)]
pub struct TimelineRecorder {
    timeline: WarpTimeline,
}

impl TimelineRecorder {
    /// Fresh recorder for the warp at `warp_id` (launch job order).
    pub fn new(warp_id: u64) -> Self {
        TimelineRecorder { timeline: WarpTimeline { warp_id, ..Default::default() } }
    }

    /// Record a memory instruction that resolved at `level`, issued at
    /// post-increment clock `at`.
    pub fn record_mem(&mut self, at: u64, level: MemLevel) {
        self.timeline.events.push(TimelineEvent::Mem { at, level });
    }

    /// Record a phase entry.
    pub fn record_phase_enter(&mut self, name: &'static str, at: u64) {
        self.timeline.events.push(TimelineEvent::PhaseEnter { name, at });
    }

    /// Record a phase exit.
    pub fn record_phase_exit(&mut self, at: u64) {
        self.timeline.events.push(TimelineEvent::PhaseExit { at });
    }

    /// Finish recording: seal the total instruction count and return the
    /// timeline.
    pub fn finish(mut self, total_instructions: u64) -> WarpTimeline {
        self.timeline.total_instructions = total_instructions;
        self.timeline
    }
}

/// A deterministic event time-queue: entries pop in `(time, seq)` order,
/// where `seq` is a monotone insertion counter — two entries scheduled for
/// the same tick pop in the order they were pushed, so replays are exact.
#[derive(Debug)]
pub struct TimeQueue<T> {
    heap: BinaryHeap<Reverse<(u64, u64, T)>>,
    seq: u64,
}

impl<T: Ord> Default for TimeQueue<T> {
    fn default() -> Self {
        TimeQueue { heap: BinaryHeap::new(), seq: 0 }
    }
}

impl<T: Ord> TimeQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `item` to become ready at `time`.
    pub fn push(&mut self, time: u64, item: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse((time, seq, item)));
    }

    /// Pop the earliest entry (FIFO among equal times) as `(time, item)`.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        self.heap.pop().map(|Reverse((time, _, item))| (time, item))
    }

    /// The earliest scheduled time, if any.
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((time, _, _))| *time)
    }

    /// Number of scheduled entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Scheduler configuration: the device quantities the replay needs,
/// pre-converted to ticks (build one with
/// `gpu_specs::timing::sched_config`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedConfig {
    /// Number of SMs (compute units) warps are distributed over.
    pub sms: u32,
    /// Maximum warps resident per SM at once (≥ 1).
    pub residency: u32,
    /// Issue-port occupancy of one warp instruction, in ticks.
    pub issue_ticks: u64,
    /// Load-to-use latency of an L1 hit, in ticks.
    pub l1_ticks: u64,
    /// Load-to-use latency of an L2 hit, in ticks.
    pub l2_ticks: u64,
    /// Load-to-use latency of an HBM access, in ticks.
    pub hbm_ticks: u64,
    /// Record per-warp execution slices ([`SmSlice`]) for timeline export.
    /// Off by default — slices are O(events) extra memory.
    pub record_tracks: bool,
}

impl SchedConfig {
    /// Latency (ticks) for an access that resolved at `level`.
    pub fn latency_ticks(&self, level: MemLevel) -> u64 {
        match level {
            MemLevel::L1 => self.l1_ticks,
            MemLevel::L2 => self.l2_ticks,
            MemLevel::Hbm => self.hbm_ticks,
        }
    }
}

/// Tick accounting for one phase of the scheduled replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseSched {
    /// Ticks the phase's instructions occupied issue ports (compute +
    /// memory issue; summed over warps, so overlapping warps both count).
    pub issue_ticks: u64,
    /// Ticks warps of this phase spent blocked on outstanding memory
    /// (summed over warps). This is the *hideable* latency.
    pub stall_ticks: u64,
    /// Ticks an SM's issue port sat idle waiting for a blocked warp of
    /// this phase — the latency that residency could **not** hide. This
    /// is the term that replaces the analytic `t_latency`.
    pub exposed_ticks: u64,
}

impl PhaseSched {
    /// Merge another phase aggregate into this one.
    pub fn merge(&mut self, o: &PhaseSched) {
        self.issue_ticks += o.issue_ticks;
        self.stall_ticks += o.stall_ticks;
        self.exposed_ticks += o.exposed_ticks;
    }

    /// Fraction of memory-stall ticks hidden by other resident warps
    /// (1.0 when every stall overlapped useful issue, 0.0 when the port
    /// idled for the full stall; 1.0 with no stalls at all).
    pub fn latency_hidden_fraction(&self) -> f64 {
        if self.stall_ticks == 0 {
            return 1.0;
        }
        1.0 - (self.exposed_ticks.min(self.stall_ticks) as f64 / self.stall_ticks as f64)
    }
}

/// One contiguous execution slice of a warp on an SM's issue port
/// (collected only under [`SchedConfig::record_tracks`]; feeds the
/// Chrome-trace SM-occupancy lanes in `perfmodel`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmSlice {
    /// SM the slice ran on.
    pub sm: u32,
    /// Warp id (launch job order).
    pub warp: u64,
    /// Start tick of the port occupancy.
    pub start: u64,
    /// End tick of the port occupancy.
    pub end: u64,
    /// Phase the slice's instructions belong to.
    pub phase: &'static str,
}

/// Result of scheduling a launch's timelines.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedResult {
    /// Number of SMs that actually received warps.
    pub sms_used: u32,
    /// Makespan of the replay in ticks (the busiest SM's completion time).
    pub makespan_ticks: u64,
    /// Ticks SM issue ports were busy, summed over used SMs.
    pub busy_ticks: u64,
    /// Ticks warp-residency slots were occupied, summed over warps (a
    /// warp is resident from admission to retirement). Divided by
    /// `residency × sms_used × makespan`, this is achieved occupancy.
    pub resident_ticks: u64,
    /// Residency limit the replay ran with (warps per SM).
    pub residency: u32,
    /// Per-phase tick breakdown, in first-encounter order. Instructions
    /// outside any recorded phase land under `"(outside)"`.
    pub phases: Vec<(&'static str, PhaseSched)>,
    /// Execution slices for timeline export (empty unless
    /// [`SchedConfig::record_tracks`]).
    pub tracks: Vec<SmSlice>,
}

impl SchedResult {
    /// Find a phase aggregate by name.
    pub fn phase(&self, name: &str) -> Option<&PhaseSched> {
        self.phases.iter().find(|(n, _)| *n == name).map(|(_, p)| p)
    }

    /// Total ticks across phases of the given accessor.
    fn phase_sum(&self, f: impl Fn(&PhaseSched) -> u64) -> u64 {
        self.phases.iter().map(|(_, p)| f(p)).sum()
    }

    /// Total issue ticks across all phases.
    pub fn issue_ticks(&self) -> u64 {
        self.phase_sum(|p| p.issue_ticks)
    }

    /// Total memory-stall ticks across all phases.
    pub fn stall_ticks(&self) -> u64 {
        self.phase_sum(|p| p.stall_ticks)
    }

    /// Total exposed (un-hidden) stall ticks across all phases.
    pub fn exposed_ticks(&self) -> u64 {
        self.phase_sum(|p| p.exposed_ticks)
    }

    /// Achieved occupancy: mean fraction of residency slots holding a
    /// live warp over the makespan (0 when nothing ran).
    pub fn occupancy(&self) -> f64 {
        let slots = self.residency as u64 * self.sms_used as u64;
        if slots == 0 || self.makespan_ticks == 0 {
            return 0.0;
        }
        self.resident_ticks as f64 / (slots * self.makespan_ticks) as f64
    }

    /// Fraction of memory-stall ticks hidden by warp interleaving, over
    /// all phases.
    pub fn latency_hidden_fraction(&self) -> f64 {
        let stall = self.stall_ticks();
        if stall == 0 {
            return 1.0;
        }
        1.0 - (self.exposed_ticks().min(stall) as f64 / stall as f64)
    }

    /// Merge another launch's replay into this one (chunked launches and
    /// escalation retries run back-to-back on the same device, so
    /// makespans add while tick sums and `sms_used`/`residency` maxima
    /// combine).
    pub fn merge(&mut self, o: &SchedResult) {
        self.sms_used = self.sms_used.max(o.sms_used);
        self.residency = self.residency.max(o.residency);
        self.makespan_ticks += o.makespan_ticks;
        self.busy_ticks += o.busy_ticks;
        self.resident_ticks += o.resident_ticks;
        self.merge_phases(&o.phases);
        self.tracks.extend_from_slice(&o.tracks);
    }

    /// Add `phases` into this result's per-phase ticks, appending names
    /// not seen yet in their order.
    fn merge_phases(&mut self, phases: &[(&'static str, PhaseSched)]) {
        for &(name, ref p) in phases {
            let slot = phase_slot(&mut self.phases, name);
            self.phases[slot].1.merge(p);
        }
    }
}

/// The replay state of one warp walking its timeline.
struct WarpState<'a> {
    timeline: &'a WarpTimeline,
    /// Index of the next unconsumed event.
    next_event: usize,
    /// Instruction clock consumed so far.
    clock: u64,
    /// Phase-name stack (innermost last).
    phase_stack: Vec<&'static str>,
}

const OUTSIDE: &str = "(outside)";

impl<'a> WarpState<'a> {
    fn new(timeline: &'a WarpTimeline) -> Self {
        WarpState { timeline, next_event: 0, clock: 0, phase_stack: Vec::new() }
    }

    fn phase(&self) -> &'static str {
        self.phase_stack.last().copied().unwrap_or(OUTSIDE)
    }

    /// Consume zero-width phase markers at the current position.
    fn consume_markers(&mut self) {
        while let Some(e) = self.timeline.events.get(self.next_event) {
            match *e {
                TimelineEvent::PhaseEnter { name, at } if at <= self.clock => {
                    self.phase_stack.push(name);
                    self.next_event += 1;
                }
                TimelineEvent::PhaseExit { at } if at <= self.clock => {
                    self.phase_stack.pop();
                    self.next_event += 1;
                }
                _ => break,
            }
        }
    }

    /// The warp's next step: `(instructions, Some(level))` for a segment
    /// ending in a memory instruction, `(instructions, None)` for a pure
    /// compute segment (up to the next phase marker or the end of the
    /// stream), or `None` when the timeline is consumed. `instructions`
    /// includes the memory instruction itself. Callers must
    /// [`Self::consume_markers`] before reading [`Self::phase`] so the
    /// step is attributed to the phase it issues under.
    fn next_step(&mut self) -> Option<(u64, Option<MemLevel>)> {
        self.consume_markers();
        if let Some(e) = self.timeline.events.get(self.next_event) {
            match *e {
                TimelineEvent::Mem { at, level } => {
                    self.next_event += 1;
                    let instructions = at - self.clock;
                    self.clock = at;
                    return Some((instructions, Some(level)));
                }
                // A marker beyond the current clock: issue the compute
                // segment up to it; the marker itself is consumed
                // (zero-width) on the warp's next pop.
                TimelineEvent::PhaseEnter { at, .. } | TimelineEvent::PhaseExit { at } => {
                    debug_assert!(at > self.clock, "markers at the clock are consumed above");
                    let instructions = at - self.clock;
                    self.clock = at;
                    return Some((instructions, None));
                }
            }
        }
        let rest = self.timeline.total_instructions - self.clock;
        self.clock = self.timeline.total_instructions;
        (rest > 0).then_some((rest, None))
    }
}

/// Replay a launch's recorded timelines through per-SM event queues, the
/// SMs in parallel (see [`schedule_with`]).
pub fn schedule(timelines: &[WarpTimeline], cfg: &SchedConfig) -> SchedResult {
    schedule_with(timelines, cfg, true)
}

/// Replay a launch's recorded timelines through per-SM event queues.
///
/// Warps are assigned to SMs round-robin in job order (`warp j → SM
/// j % sms_used`, `sms_used = min(cfg.sms, warps)`) and admitted in job
/// order up to `cfg.residency` resident warps per SM; each SM has a
/// single issue port arbitrated FCFS through a [`TimeQueue`]. The result
/// is deterministic for a given `(timelines, cfg)` input.
///
/// SMs share no state, so with `parallel` set they replay concurrently
/// on the rayon pool (serially otherwise) and their partial results are
/// merged in SM order: tick sums add, the makespan is the maximum, phases
/// keep first-encounter order and track slices concatenate. The result is
/// bit-identical either way.
pub fn schedule_with(timelines: &[WarpTimeline], cfg: &SchedConfig, parallel: bool) -> SchedResult {
    let mut result = SchedResult {
        residency: cfg.residency.max(1),
        ..Default::default()
    };
    if timelines.is_empty() || cfg.sms == 0 {
        return result;
    }
    let sms_used = (cfg.sms as usize).min(timelines.len());
    result.sms_used = sms_used as u32;
    let replay_sm = |sm: usize| {
        let assigned: Vec<&WarpTimeline> =
            timelines.iter().skip(sm).step_by(sms_used).collect();
        schedule_sm(sm as u32, &assigned, cfg)
    };
    let per_sm: Vec<SchedResult> = if parallel {
        (0..sms_used).collect::<Vec<_>>().into_par_iter().map(replay_sm).collect()
    } else {
        (0..sms_used).map(replay_sm).collect()
    };
    for part in per_sm {
        result.makespan_ticks = result.makespan_ticks.max(part.makespan_ticks);
        result.busy_ticks += part.busy_ticks;
        result.resident_ticks += part.resident_ticks;
        result.merge_phases(&part.phases);
        result.tracks.extend(part.tracks);
    }
    result
}

/// Index of `name` in `phases`, appending a zeroed entry on first
/// encounter. Names compare by content: equal literals from different
/// crates need not share an address.
fn phase_slot(phases: &mut Vec<(&'static str, PhaseSched)>, name: &'static str) -> usize {
    match phases.iter().position(|(n, _)| *n == name) {
        Some(i) => i,
        None => {
            phases.push((name, PhaseSched::default()));
            phases.len() - 1
        }
    }
}

/// Replay one SM's assigned warps through its issue port, returning the
/// SM's partial result (`makespan_ticks`, tick sums, phases and tracks;
/// `sms_used`/`residency` are left for the caller).
fn schedule_sm(sm: u32, assigned: &[&WarpTimeline], cfg: &SchedConfig) -> SchedResult {
    let mut result = SchedResult::default();
    let residency = cfg.residency.max(1) as usize;
    let mut states: Vec<WarpState<'_>> =
        assigned.iter().map(|t| WarpState::new(t)).collect();
    let mut queue: TimeQueue<usize> = TimeQueue::new();
    // Admit the first `residency` warps at tick 0, in job order.
    let mut next_admission = residency.min(states.len());
    for idx in 0..next_admission {
        queue.push(0, idx);
    }
    // Admission time of each warp (for resident_ticks).
    let mut admitted_at = vec![0u64; states.len()];

    let mut port_free: u64 = 0; // tick the issue port becomes free

    // The last phase resolved to a slot: consecutive events almost always
    // issue under the same `&'static str`, so a pointer compare skips the
    // name scan.
    let mut last_phase: Option<(&'static str, usize)> = None;

    while let Some((ready, idx)) = queue.pop() {
        states[idx].consume_markers();
        let phase = states[idx].phase();
        let Some((instructions, mem)) = states[idx].next_step() else {
            // Warp retired: free its residency slot for the next waiting
            // warp (admitted at the retirement tick, in job order).
            let retired_at = ready;
            result.resident_ticks += retired_at - admitted_at[idx];
            result.makespan_ticks = result.makespan_ticks.max(retired_at);
            if next_admission < states.len() {
                admitted_at[next_admission] = retired_at;
                queue.push(retired_at, next_admission);
                next_admission += 1;
            }
            continue;
        };
        let slot = match last_phase {
            Some((name, slot)) if std::ptr::eq(name, phase) => slot,
            _ => {
                let slot = phase_slot(&mut result.phases, phase);
                last_phase = Some((phase, slot));
                slot
            }
        };
        let p = &mut result.phases[slot].1;
        // The port serves requests FCFS, so an idle gap before this issue
        // means no resident warp was ready — latency the resident set
        // failed to hide, attributed to the issuing warp's current phase.
        let start = ready.max(port_free);
        if start > port_free {
            p.exposed_ticks += start - port_free.max(admitted_at[idx]);
        }
        let dur = instructions * cfg.issue_ticks;
        let end = start + dur;
        p.issue_ticks += dur;
        result.busy_ticks += dur;
        port_free = end;
        result.makespan_ticks = result.makespan_ticks.max(end);
        if cfg.record_tracks {
            result.tracks.push(SmSlice {
                sm,
                warp: states[idx].timeline.warp_id,
                start,
                end,
                phase,
            });
        }
        match mem {
            Some(level) => {
                // Block the warp for the access latency; the port is free
                // meanwhile — that's the window other warps hide in.
                let lat = cfg.latency_ticks(level);
                p.stall_ticks += lat;
                queue.push(end + lat, idx);
            }
            None => {
                // Pure compute segment: requeue at its end (the next pop
                // consumes phase markers or retires the warp).
                queue.push(end, idx);
            }
        }
    }
    result
}

#[cfg(test)]
mod timeq_tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = TimeQueue::new();
        q.push(30, "c");
        q.push(10, "a");
        q.push(20, "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(10));
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    /// Entries scheduled for the same tick pop in insertion order — the
    /// determinism the whole replay rests on.
    #[test]
    fn ties_break_on_insertion_order() {
        let mut q = TimeQueue::new();
        for label in ["first", "second", "third", "fourth"] {
            q.push(5, label);
        }
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, ["first", "second", "third", "fourth"]);
    }

    /// Tie-breaking is insertion-global, not per-time: an item pushed
    /// later for an *earlier* time still pops first, and re-pushing a
    /// popped item (suspend → resume) lands after existing entries at the
    /// same tick.
    #[test]
    fn suspend_resume_requeues_deterministically() {
        let mut q = TimeQueue::new();
        q.push(10, 'a');
        q.push(10, 'b');
        let (t, v) = q.pop().unwrap();
        assert_eq!((t, v), (10, 'a'));
        // 'a' suspends and resumes at the same tick: it re-queues *after*
        // 'b' (its seq is newer), modeling FCFS among equally-ready warps.
        q.push(10, 'a');
        assert_eq!(q.pop(), Some((10, 'b')));
        assert_eq!(q.pop(), Some((10, 'a')));
        // A later push for an earlier time still wins on time.
        q.push(50, 'z');
        q.push(1, 'y');
        assert_eq!(q.pop(), Some((1, 'y')));
        assert_eq!(q.pop(), Some((50, 'z')));
    }

    #[test]
    fn identical_streams_replay_identically() {
        let mut order_a = Vec::new();
        let mut order_b = Vec::new();
        for order in [&mut order_a, &mut order_b] {
            let mut q = TimeQueue::new();
            for (t, v) in [(3u64, 0u32), (1, 1), (3, 2), (2, 3), (1, 4)] {
                q.push(t, v);
            }
            while let Some(e) = q.pop() {
                order.push(e);
            }
        }
        assert_eq!(order_a, order_b);
        assert_eq!(order_a, [(1, 1), (1, 4), (2, 3), (3, 0), (3, 2)]);
    }
}

#[cfg(test)]
mod sched_tests {
    use super::*;

    /// A timeline with `pre` compute instructions before each of the given
    /// memory accesses and `tail` compute instructions at the end.
    fn mk_timeline(id: u64, pre: u64, accesses: &[MemLevel], tail: u64) -> WarpTimeline {
        let mut rec = TimelineRecorder::new(id);
        let mut clock = 0;
        rec.record_phase_enter("body", 0);
        for &level in accesses {
            clock += pre + 1; // pre compute instructions + the mem instruction
            rec.record_mem(clock, level);
        }
        clock += tail;
        rec.record_phase_exit(clock);
        rec.finish(clock)
    }

    fn cfg(sms: u32, residency: u32) -> SchedConfig {
        SchedConfig {
            sms,
            residency,
            issue_ticks: 10,
            l1_ticks: 20,
            l2_ticks: 140,
            hbm_ticks: 480,
            record_tracks: false,
        }
    }

    #[test]
    fn empty_input_schedules_to_nothing() {
        let r = schedule(&[], &cfg(4, 8));
        assert_eq!(r.makespan_ticks, 0);
        assert_eq!(r.sms_used, 0);
        assert_eq!(r.occupancy(), 0.0);
        assert_eq!(r.latency_hidden_fraction(), 1.0);
    }

    /// A single warp with no other residents cannot hide anything: every
    /// stall tick is exposed and the makespan is issue + latency, exactly.
    #[test]
    fn single_warp_exposes_all_latency() {
        let t = mk_timeline(0, 4, &[MemLevel::Hbm, MemLevel::Hbm], 3);
        let c = cfg(4, 8);
        let r = schedule(std::slice::from_ref(&t), &c);
        assert_eq!(r.sms_used, 1);
        // 13 instructions × 10 ticks + 2 × 480 latency.
        assert_eq!(r.busy_ticks, 130);
        assert_eq!(r.makespan_ticks, 130 + 960);
        let body = r.phase("body").unwrap();
        assert_eq!(body.issue_ticks, 130);
        assert_eq!(body.stall_ticks, 960);
        assert_eq!(body.exposed_ticks, 960);
        assert_eq!(r.latency_hidden_fraction(), 0.0);
    }

    /// Many resident warps on one SM hide each other's stalls: exposed
    /// ticks drop and the makespan approaches pure issue serialization.
    #[test]
    fn resident_warps_hide_latency() {
        let c = cfg(1, 8);
        let warps: Vec<WarpTimeline> =
            (0..8).map(|i| mk_timeline(i, 4, &[MemLevel::Hbm; 6], 2)).collect();
        let solo = schedule(&warps[..1], &c);
        let packed = schedule(&warps, &c);
        assert!(
            packed.latency_hidden_fraction() > 0.5,
            "8 residents must hide most HBM stalls, got {}",
            packed.latency_hidden_fraction()
        );
        assert!(
            packed.makespan_ticks < 8 * solo.makespan_ticks / 2,
            "interleaving must beat serial run-to-completion: {} vs 8×{}",
            packed.makespan_ticks,
            solo.makespan_ticks
        );
        // Port busy time is exact: 8 warps × 32 instructions × 10 ticks.
        assert_eq!(packed.busy_ticks, 8 * 32 * 10);
    }

    /// Residency 1 forbids interleaving: warps run strictly back-to-back
    /// and nothing is hidden.
    #[test]
    fn residency_one_serializes() {
        let c = cfg(1, 1);
        let warps: Vec<WarpTimeline> =
            (0..3).map(|i| mk_timeline(i, 2, &[MemLevel::L2], 1)).collect();
        let r = schedule(&warps, &c);
        // Each warp: 4 instructions × 10 + 140 stall, fully exposed.
        assert_eq!(r.makespan_ticks, 3 * (40 + 140));
        assert_eq!(r.exposed_ticks(), 3 * 140);
        assert_eq!(r.latency_hidden_fraction(), 0.0);
    }

    /// Warps spread round-robin over SMs; the makespan is the busiest
    /// SM's, not the sum.
    #[test]
    fn warps_distribute_over_sms() {
        let c = cfg(4, 8);
        let warps: Vec<WarpTimeline> =
            (0..4).map(|i| mk_timeline(i, 2, &[MemLevel::L1], 0)).collect();
        let r = schedule(&warps, &c);
        assert_eq!(r.sms_used, 4);
        let one = schedule(&warps[..1], &c);
        assert_eq!(r.makespan_ticks, one.makespan_ticks, "SMs run in parallel");
        assert_eq!(r.busy_ticks, 4 * one.busy_ticks);
    }

    #[test]
    fn deterministic_across_replays() {
        let c = cfg(3, 4);
        let warps: Vec<WarpTimeline> = (0..13)
            .map(|i| {
                let levels = [MemLevel::L1, MemLevel::L2, MemLevel::Hbm];
                let accesses: Vec<MemLevel> =
                    (0..(i % 5 + 1)).map(|j| levels[((i + j) % 3) as usize]).collect();
                mk_timeline(i, i % 7, &accesses, i % 3)
            })
            .collect();
        let a = schedule(&warps, &c);
        let b = schedule(&warps, &c);
        assert_eq!(a, b);
        assert!(a.makespan_ticks > 0);
        assert!(a.occupancy() > 0.0 && a.occupancy() <= 1.0);
    }

    /// With zero memory stalls the scheduled busy time per SM equals the
    /// pure issue cost — the property that anchors the scheduled estimate
    /// to the analytic compute term.
    #[test]
    fn stall_free_busy_equals_issue_cost() {
        let c = cfg(2, 8);
        let warps: Vec<WarpTimeline> = (0..6)
            .map(|i| {
                let mut rec = TimelineRecorder::new(i);
                rec.record_phase_enter("walk", 0);
                rec.record_phase_exit(100);
                rec.finish(100)
            })
            .collect();
        let r = schedule(&warps, &c);
        assert_eq!(r.busy_ticks, 6 * 100 * 10);
        assert_eq!(r.stall_ticks(), 0);
        assert_eq!(r.exposed_ticks(), 0);
        // 3 warps per SM, serialized on the issue port.
        assert_eq!(r.makespan_ticks, 3 * 100 * 10);
        assert_eq!(r.latency_hidden_fraction(), 1.0);
    }

    /// Phase attribution: a warp's stall lands in the phase its memory
    /// instruction issued under.
    #[test]
    fn stalls_attribute_to_their_phase() {
        let mut rec = TimelineRecorder::new(0);
        rec.record_phase_enter("construct", 0);
        rec.record_mem(3, MemLevel::Hbm);
        rec.record_phase_exit(3);
        rec.record_phase_enter("walk", 3);
        rec.record_mem(5, MemLevel::L2);
        rec.record_phase_exit(6);
        let t = rec.finish(6);
        let r = schedule(std::slice::from_ref(&t), &cfg(1, 2));
        let construct = r.phase("construct").unwrap();
        let walk = r.phase("walk").unwrap();
        assert_eq!(construct.stall_ticks, 480);
        assert_eq!(construct.issue_ticks, 30);
        assert_eq!(walk.stall_ticks, 140);
        assert_eq!(walk.issue_ticks, 30);
        assert!(r.phase("(outside)").is_none());
    }

    /// Instructions outside any phase marker are still accounted (under
    /// the `"(outside)"` bucket), so tick totals never silently drop.
    #[test]
    fn unphased_instructions_are_not_lost() {
        let mut rec = TimelineRecorder::new(0);
        rec.record_mem(4, MemLevel::L1);
        let t = rec.finish(10);
        let r = schedule(std::slice::from_ref(&t), &cfg(1, 2));
        let outside = r.phase("(outside)").unwrap();
        assert_eq!(outside.issue_ticks, 100);
        assert_eq!(outside.stall_ticks, 20);
        assert_eq!(r.busy_ticks, 100);
    }

    #[test]
    fn tracks_record_port_slices() {
        let mut c = cfg(1, 2);
        c.record_tracks = true;
        let warps: Vec<WarpTimeline> =
            (0..2).map(|i| mk_timeline(i, 2, &[MemLevel::Hbm], 1)).collect();
        let r = schedule(&warps, &c);
        assert!(!r.tracks.is_empty());
        for s in &r.tracks {
            assert!(s.end > s.start);
            assert_eq!(s.sm, 0);
            assert_eq!(s.phase, "body");
        }
        // Slices on one SM never overlap (single issue port).
        let mut sorted = r.tracks.clone();
        sorted.sort_by_key(|s| s.start);
        for w in sorted.windows(2) {
            assert!(w[0].end <= w[1].start, "port slices overlap: {w:?}");
        }
        // Without the flag the same replay is slice-free but otherwise equal.
        c.record_tracks = false;
        let bare = schedule(&warps, &c);
        assert!(bare.tracks.is_empty());
        assert_eq!(bare.makespan_ticks, r.makespan_ticks);
        assert_eq!(bare.phases, r.phases);
    }

    #[test]
    fn merge_adds_makespans_and_phase_ticks() {
        let c = cfg(2, 4);
        let warps: Vec<WarpTimeline> =
            (0..4).map(|i| mk_timeline(i, 3, &[MemLevel::L2, MemLevel::Hbm], 2)).collect();
        let once = schedule(&warps, &c);
        let mut twice = once.clone();
        twice.merge(&once);
        assert_eq!(twice.makespan_ticks, 2 * once.makespan_ticks);
        assert_eq!(twice.busy_ticks, 2 * once.busy_ticks);
        assert_eq!(twice.resident_ticks, 2 * once.resident_ticks);
        assert_eq!(twice.sms_used, once.sms_used);
        let p = twice.phase("body").unwrap();
        let q = once.phase("body").unwrap();
        assert_eq!(p.issue_ticks, 2 * q.issue_ticks);
        assert_eq!(p.stall_ticks, 2 * q.stall_ticks);
        // Occupancy is invariant under self-merge (both numerator and
        // denominator double).
        assert!((twice.occupancy() - once.occupancy()).abs() < 1e-12);
    }

    /// The recorder's finish() seals the clock; replaying a recorded
    /// timeline consumes exactly its instruction count in issue ticks.
    #[test]
    fn recorder_roundtrip_preserves_instruction_count() {
        let t = mk_timeline(7, 5, &[MemLevel::L1, MemLevel::Hbm, MemLevel::L2], 4);
        assert_eq!(t.total_instructions, 3 * 6 + 4);
        assert_eq!(t.warp_id, 7);
        let r = schedule(std::slice::from_ref(&t), &cfg(1, 1));
        assert_eq!(r.issue_ticks(), t.total_instructions * 10);
    }
}

#[cfg(test)]
mod serial_equivalence_tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The replay as a single serial loop over SMs, accumulating into one
    /// shared result — the reference [`schedule_with`] must reproduce
    /// exactly in both its parallel and serial forms.
    fn reference_schedule(timelines: &[WarpTimeline], cfg: &SchedConfig) -> SchedResult {
        let mut result = SchedResult { residency: cfg.residency.max(1), ..Default::default() };
        if timelines.is_empty() || cfg.sms == 0 {
            return result;
        }
        let sms_used = (cfg.sms as usize).min(timelines.len());
        result.sms_used = sms_used as u32;
        for sm in 0..sms_used {
            let assigned: Vec<&WarpTimeline> =
                timelines.iter().skip(sm).step_by(sms_used).collect();
            reference_schedule_sm(sm as u32, &assigned, cfg, &mut result);
        }
        result
    }

    fn reference_schedule_sm(
        sm: u32,
        assigned: &[&WarpTimeline],
        cfg: &SchedConfig,
        result: &mut SchedResult,
    ) {
        let residency = cfg.residency.max(1) as usize;
        let mut states: Vec<WarpState<'_>> =
            assigned.iter().map(|t| WarpState::new(t)).collect();
        let mut queue: TimeQueue<usize> = TimeQueue::new();
        let mut next_admission = residency.min(states.len());
        for idx in 0..next_admission {
            queue.push(0, idx);
        }
        let mut admitted_at = vec![0u64; states.len()];
        let mut port_free: u64 = 0;
        let mut busy: u64 = 0;
        let mut makespan: u64 = 0;
        let add_phase =
            |result: &mut SchedResult, name: &'static str, f: &dyn Fn(&mut PhaseSched)| {
                match result.phases.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, p)) => f(p),
                    None => {
                        let mut p = PhaseSched::default();
                        f(&mut p);
                        result.phases.push((name, p));
                    }
                }
            };
        while let Some((ready, idx)) = queue.pop() {
            states[idx].consume_markers();
            let phase = states[idx].phase();
            let Some((instructions, mem)) = states[idx].next_step() else {
                result.resident_ticks += ready - admitted_at[idx];
                makespan = makespan.max(ready);
                if next_admission < states.len() {
                    admitted_at[next_admission] = ready;
                    queue.push(ready, next_admission);
                    next_admission += 1;
                }
                continue;
            };
            let start = ready.max(port_free);
            if start > port_free {
                let exposed = start - port_free.max(admitted_at[idx]);
                add_phase(result, phase, &|p| p.exposed_ticks += exposed);
            }
            let dur = instructions * cfg.issue_ticks;
            let end = start + dur;
            busy += dur;
            port_free = end;
            makespan = makespan.max(end);
            add_phase(result, phase, &|p| p.issue_ticks += dur);
            if cfg.record_tracks {
                result.tracks.push(SmSlice {
                    sm,
                    warp: states[idx].timeline.warp_id,
                    start,
                    end,
                    phase,
                });
            }
            match mem {
                Some(level) => {
                    let lat = cfg.latency_ticks(level);
                    add_phase(result, phase, &|p| p.stall_ticks += lat);
                    queue.push(end + lat, idx);
                }
                None => queue.push(end, idx),
            }
        }
        result.busy_ticks += busy;
        result.makespan_ticks = result.makespan_ticks.max(makespan);
    }

    /// A random timeline: memory accesses at all three levels, nested
    /// phase markers (some zero-width, at the current clock), stretches
    /// outside any phase, and either a compute tail or an end exactly on
    /// the last memory instruction.
    fn random_timeline(rng: &mut StdRng, id: u64, names: &[&'static str]) -> WarpTimeline {
        let mut rec = TimelineRecorder::new(id);
        let mut clock = 0u64;
        let mut depth = 0u32;
        for _ in 0..rng.random_range(0..=24usize) {
            match rng.random_range(0..6u32) {
                0 => {
                    clock += rng.random_range(0..=4u64);
                    rec.record_phase_enter(names[rng.random_range(0..names.len())], clock);
                    depth += 1;
                }
                1 if depth > 0 => {
                    clock += rng.random_range(0..=4u64);
                    rec.record_phase_exit(clock);
                    depth -= 1;
                }
                _ => {
                    clock += rng.random_range(1..=8u64);
                    let levels = [MemLevel::L1, MemLevel::L2, MemLevel::Hbm];
                    rec.record_mem(clock, levels[rng.random_range(0..3usize)]);
                }
            }
        }
        let tail = if rng.random_bool(0.5) { 0 } else { rng.random_range(1..=10u64) };
        rec.finish(clock + tail)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Per-SM parallel replay with its SM-order merge is bit-identical
        /// to the serial loop for 1–300 warps over every SM count 1–130
        /// (so both one-warp-per-SM and many-warps-per-SM launches),
        /// residency 1–8, with and without track slices.
        #[test]
        fn per_sm_replay_matches_the_serial_loop(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            // A phase name equal to "walk" at a different address: names
            // must merge by content, not by pointer.
            let alias: &'static str = Box::leak(String::from("walk").into_boxed_str());
            let names = ["stage", "construct", "walk", alias];
            let warps = rng.random_range(1..=300u64);
            let timelines: Vec<WarpTimeline> =
                (0..warps).map(|w| random_timeline(&mut rng, w, &names)).collect();
            let base = SchedConfig {
                sms: 1,
                residency: 1,
                issue_ticks: rng.random_range(1..=20u64),
                l1_ticks: rng.random_range(1..=40u64),
                l2_ticks: rng.random_range(40..=200u64),
                hbm_ticks: rng.random_range(200..=900u64),
                record_tracks: false,
            };
            for sms in 1..=130u32 {
                for residency in 1..=8u32 {
                    for record_tracks in [false, true] {
                        let c = SchedConfig { sms, residency, record_tracks, ..base };
                        let want = reference_schedule(&timelines, &c);
                        prop_assert!(schedule_with(&timelines, &c, true) == want,
                            "parallel replay differs: {warps} warps, {c:?}");
                        prop_assert!(schedule_with(&timelines, &c, false) == want,
                            "serial replay differs: {warps} warps, {c:?}");
                    }
                }
            }
        }
    }
}
