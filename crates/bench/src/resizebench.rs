//! Grown-reserve escalation vs in-kernel resizing: the
//! `BENCH_resize.json` emitter.
//!
//! Replays the long-tail pathology the escalation ladder was built for —
//! a job whose host-side slot estimate is violated (simulated by a table
//! squeeze) — under both recovery disciplines: the legacy grown-reserve
//! ladder (the launch layer re-runs the whole job with a doubled
//! reserve) and the in-kernel incremental resize (the warp grows the
//! table mid-insert, see `locassm_kernels::resize`). Per squeeze divisor
//! the report records each arm's escalation-attempt count, modeled
//! seconds, and modeled traffic; the headline is the attempt column —
//! the resize arm retires the ladder (zero attempts) for every divisor
//! its [`locassm_kernels::MAX_RESIZES`] growth budget can cover.
//!
//! Like [`crate::layoutbench`], everything here is a *modeled* quantity:
//! the report is a deterministic function of the workload and device
//! spec, so the checked-in `BENCH_resize.json` at the repo root
//! reproduces bit for bit on any host. It is regenerated by `cargo run
//! --release -p locassm-bench --bin bench-kernels`.

use gpu_specs::DeviceId;
use locassm_core::io::Dataset;
use locassm_kernels::{run_local_assembly, GpuConfig, JobOutcome};
use simt::FaultPlan;
use workloads::long_tail_dataset;

/// One recovery-discipline run under one squeeze divisor.
#[derive(Debug, Clone, Copy)]
pub struct ArmRun {
    /// Modeled kernel seconds of the full pass (retries included).
    pub seconds: f64,
    /// Total modeled integer operations (retries included).
    pub intops: u64,
    /// Total modeled HBM bytes (retries included).
    pub hbm_bytes: u64,
    /// Escalation attempts summed over every job outcome — the ladder's
    /// cost in whole-job re-runs. Zero means the arm absorbed the
    /// violated estimate without ever faulting.
    pub attempts: u32,
}

/// Both arms under one squeeze divisor.
#[derive(Debug, Clone, Copy)]
pub struct ResizeRow {
    /// The staged table was squeezed to `1/divisor` of its estimate.
    pub divisor: u32,
    /// The legacy arm: fixed-capacity table, grown-reserve ladder.
    pub escalation: ArmRun,
    /// The tentpole arm: in-kernel incremental resizing armed.
    pub resize: ArmRun,
}

/// The full escalation-vs-resize report (the `BENCH_resize.json`
/// payload).
#[derive(Debug, Clone)]
pub struct ResizeReport {
    /// Device the runs modeled.
    pub device: DeviceId,
    /// k-mer length of the workload.
    pub k: usize,
    /// Distinct k-mers the long-tail job inserts.
    pub n_kmers: usize,
    /// Modeled seconds of the unsqueezed, resize-disabled baseline.
    pub clean_seconds: f64,
    /// One row per squeeze divisor, ascending.
    pub rows: Vec<ResizeRow>,
}

fn arm_run(ds: &Dataset, device: DeviceId, divisor: Option<u32>, resize: bool) -> ArmRun {
    let mut cfg = GpuConfig::for_device(device);
    cfg.parallel = false;
    cfg.resize = resize;
    if let Some(d) = divisor {
        cfg.fault = Some(FaultPlan::table_squeeze(0, d));
    }
    let r = run_local_assembly(ds, &cfg);
    let attempts = r
        .outcomes
        .iter()
        .map(|o| match *o {
            JobOutcome::Ok => 0,
            JobOutcome::Recovered { attempts } => attempts,
            JobOutcome::Failed { attempts, .. } => attempts,
        })
        .sum();
    ArmRun {
        seconds: r.profile.seconds(),
        intops: r.profile.total.intops(),
        hbm_bytes: r.profile.hbm_bytes(),
        attempts,
    }
}

/// The escalation-vs-resize comparison on the long-tail workload: every
/// squeeze divisor under both recovery disciplines, modeled quantities
/// only. Both arms must recover the job bit-exactly (asserted against
/// the unsqueezed baseline), so the report compares *costs* of equally
/// correct recoveries.
pub fn resize_bench(device: DeviceId, k: usize, n_kmers: usize) -> ResizeReport {
    let ds = long_tail_dataset(k, n_kmers);
    let mut clean_cfg = GpuConfig::for_device(device);
    clean_cfg.parallel = false;
    let clean = run_local_assembly(&ds, &clean_cfg);
    assert!(
        clean.outcomes.iter().all(|o| *o == JobOutcome::Ok),
        "the unsqueezed baseline must be fault-free"
    );

    let rows = [2u32, 3, 4]
        .into_iter()
        .map(|divisor| {
            let escalation = arm_run(&ds, device, Some(divisor), false);
            let resize = arm_run(&ds, device, Some(divisor), true);
            // Cost comparison is only meaningful between bit-exact
            // recoveries; both arms re-verified against the baseline.
            for resize_on in [false, true] {
                let mut cfg = GpuConfig::for_device(device);
                cfg.parallel = false;
                cfg.resize = resize_on;
                cfg.fault = Some(FaultPlan::table_squeeze(0, divisor));
                let r = run_local_assembly(&ds, &cfg);
                assert_eq!(
                    r.extensions, clean.extensions,
                    "divisor {divisor} resize={resize_on}: recovery must be bit-exact"
                );
            }
            ResizeRow { divisor, escalation, resize }
        })
        .collect();

    ResizeReport { device, k, n_kmers, clean_seconds: clean.profile.seconds(), rows }
}

impl ResizeReport {
    /// Escalation attempts the resize arm retired across all divisors.
    pub fn attempts_retired(&self) -> u32 {
        self.rows
            .iter()
            .map(|r| r.escalation.attempts.saturating_sub(r.resize.attempts))
            .sum()
    }

    /// The machine-readable report (the `BENCH_resize.json` payload).
    /// Field order is stable so checked-in copies diff cleanly; all
    /// values are modeled (host-independent).
    pub fn to_json(&self) -> String {
        let arm = |a: &ArmRun| {
            format!(
                "{{\"attempts\": {}, \"seconds\": {:.6}, \"intops\": {}, \"hbm_bytes\": {}}}",
                a.attempts, a.seconds, a.intops, a.hbm_bytes
            )
        };
        let mut rows = String::new();
        for (i, r) in self.rows.iter().enumerate() {
            rows.push_str(&format!(
                "    {{\"divisor\": {},\n     \"escalation\": {},\n     \"resize\": {}}}{}\n",
                r.divisor,
                arm(&r.escalation),
                arm(&r.resize),
                if i + 1 == self.rows.len() { "" } else { "," }
            ));
        }
        format!(
            concat!(
                "{{\n",
                "  \"bench\": \"resize_vs_escalation\",\n",
                "  \"device\": \"{}\",\n",
                "  \"workload\": {{\"k\": {}, \"n_kmers\": {}}},\n",
                "  \"clean_seconds\": {:.6},\n",
                "  \"attempts_retired\": {},\n",
                "  \"rows\": [\n",
                "{}",
                "  ]\n",
                "}}\n"
            ),
            self.device,
            self.k,
            self.n_kmers,
            self.clean_seconds,
            self.attempts_retired(),
            rows
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tier-1 smoke: the report is deterministic and shows the tentpole
    /// headline — the ÷3 squeeze that costs the escalation arm a whole-job
    /// re-run is absorbed by the resize arm with zero attempts.
    #[test]
    fn report_is_deterministic_and_retires_the_ladder() {
        // This run allocates heavily for most of a minute; keep it out of
        // the pool-bench smoke tests' measured allocator windows.
        let _serial = crate::alloc_count::measurement_lock();
        let a = resize_bench(DeviceId::A100, 21, 80);
        let b = resize_bench(DeviceId::A100, 21, 80);
        assert_eq!(a.to_json(), b.to_json(), "modeled report must be reproducible");

        let row3 = a.rows.iter().find(|r| r.divisor == 3).unwrap();
        assert!(
            row3.escalation.attempts >= 1,
            "the ÷3 squeeze must push the fixed-capacity arm into the ladder"
        );
        assert_eq!(
            row3.resize.attempts, 0,
            "the resize arm must absorb the ÷3 squeeze without escalating"
        );
        assert!(a.attempts_retired() >= 1);
        for r in &a.rows {
            for arm in [&r.escalation, &r.resize] {
                assert!(arm.seconds.is_finite() && arm.seconds > 0.0);
                assert!(arm.intops > 0 && arm.hbm_bytes > 0);
            }
        }
        assert!(a.clean_seconds > 0.0);
    }
}
