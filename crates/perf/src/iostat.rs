//! `iostat -x`-style device sampling over the simulated storage model.
//!
//! `simarch::storage` prices an I/O phase as one aggregate
//! [`IostatSample`](afsb_simarch::storage::IostatSample); this module unrolls that phase into a per-interval
//! time series the way `iostat` samples a live device: the device
//! streams the phase's cold bytes at peak rate until the transfer
//! completes, then idles — and once compute finishes, any remaining
//! transfer time is a pure stall (the paper's Desktop tail, where the
//! NVMe pins at 100 % while the CPU waits).

use afsb_core::msa_phase::MsaPhaseResult;
use afsb_simarch::storage::StorageModel;
use std::fmt::Write as _;

/// One sampled interval of device activity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceSample {
    /// Interval start, simulated seconds from phase start.
    pub t_s: f64,
    /// Read throughput achieved in the interval (MiB/s).
    pub read_mibs: f64,
    /// Device utilization in percent (0–100).
    pub util_pct: f64,
    /// Average read latency (ms).
    pub r_await_ms: f64,
    /// Average queue depth.
    pub aqu_sz: f64,
    /// Fraction of the interval compute spent stalled on the device.
    pub stall_frac: f64,
}

/// A per-interval device time series for one I/O phase.
#[derive(Debug, Clone, PartialEq)]
pub struct IostatTimeline {
    /// Sampling interval (simulated seconds).
    pub interval_s: f64,
    /// The samples, in time order.
    pub samples: Vec<DeviceSample>,
}

impl IostatTimeline {
    /// Sample an MSA phase's storage behaviour every `interval_s`
    /// simulated seconds. The model: the device streams `cold_bytes`
    /// at its sequential peak starting at t=0, overlapped with compute
    /// (`cpu_seconds`); intervals after compute ends but before the
    /// transfer completes are stalls.
    ///
    /// # Panics
    ///
    /// Panics if `interval_s` is not a positive finite number.
    pub fn sample_msa(msa: &MsaPhaseResult, interval_s: f64) -> IostatTimeline {
        assert!(
            interval_s.is_finite() && interval_s > 0.0,
            "sampling interval must be positive and finite"
        );
        let spec = msa.platform.spec();
        let model = StorageModel::new(spec.storage);
        let peak = model.peak_bytes_per_sec(true);
        let transfer_s = msa.cold_bytes as f64 / peak;
        let compute_s = msa.cpu_seconds;
        let wall = transfer_s.max(compute_s);
        let queue_depth = model.config().queue_depth as f64;
        let base_latency_ms = model.config().base_latency_ms;

        let mut samples = Vec::new();
        let ticks = (wall / interval_s).ceil() as u64;
        for k in 0..ticks {
            let t0 = k as f64 * interval_s;
            let t1 = (t0 + interval_s).min(wall);
            let width = (t1 - t0).max(1e-12);
            let busy = overlap(t0, t1, 0.0, transfer_s) / width;
            let stall = overlap(t0, t1, compute_s, wall) / width;
            samples.push(DeviceSample {
                t_s: t0,
                read_mibs: busy * peak / (1u64 << 20) as f64,
                util_pct: busy * 100.0,
                r_await_ms: base_latency_ms * (1.0 + busy),
                aqu_sz: busy * queue_depth * 0.2,
                stall_frac: stall,
            });
        }
        IostatTimeline {
            interval_s,
            samples,
        }
    }

    /// Mean utilization over the whole timeline (percent).
    pub fn mean_util_pct(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.util_pct).sum::<f64>() / self.samples.len() as f64
    }

    /// Total stall time (simulated seconds compute spent waiting).
    pub fn stall_seconds(&self) -> f64 {
        self.samples
            .iter()
            .map(|s| s.stall_frac * self.interval_s)
            .sum()
    }

    /// Render as `iostat -x`-style rows.
    pub fn render(&self) -> String {
        let mut out = format!("iostat timeline ({}s interval):\n", self.interval_s);
        let _ = writeln!(
            out,
            "{:>8} {:>10} {:>7} {:>9} {:>7} {:>7}",
            "t", "rMB/s", "%util", "r_await", "aqu-sz", "%stall"
        );
        for s in &self.samples {
            let _ = writeln!(
                out,
                "{:>8.1} {:>10.1} {:>7.1} {:>9.2} {:>7.2} {:>7.1}",
                s.t_s,
                s.read_mibs,
                s.util_pct,
                s.r_await_ms,
                s.aqu_sz,
                s.stall_frac * 100.0
            );
        }
        out
    }
}

fn overlap(a0: f64, a1: f64, b0: f64, b1: f64) -> f64 {
    (a1.min(b1) - a0.max(b0)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use afsb_core::context::{BenchContext, ContextConfig};
    use afsb_core::msa_phase::{run_msa_phase, MsaPhaseOptions};
    use afsb_seq::samples::SampleId;
    use afsb_simarch::Platform;

    fn msa(platform: Platform) -> MsaPhaseResult {
        let mut ctx = BenchContext::new(ContextConfig::test());
        let data = ctx.sample_data(SampleId::Promo);
        run_msa_phase(
            &data,
            platform,
            4,
            &MsaPhaseOptions {
                sample_cap: 120_000,
                ..MsaPhaseOptions::default()
            },
        )
    }

    #[test]
    fn desktop_timeline_shows_io_and_stall_matches_model() {
        let r = msa(Platform::Desktop);
        assert!(r.cold_bytes > 0, "Promo must read cold on the desktop");
        let tl = IostatTimeline::sample_msa(&r, r.wall_seconds() / 50.0);
        assert!(!tl.samples.is_empty());
        assert!(tl.mean_util_pct() > 0.0);
        // Total stall time reproduces the storage model's io_added.
        let tol = tl.interval_s * 2.0;
        assert!(
            (tl.stall_seconds() - r.io_added_seconds).abs() <= tol,
            "stall {} vs io_added {}",
            tl.stall_seconds(),
            r.io_added_seconds
        );
        // Determinism.
        assert_eq!(tl, IostatTimeline::sample_msa(&r, r.wall_seconds() / 50.0));
    }

    #[test]
    fn warm_server_timeline_is_idle() {
        let r = msa(Platform::Server);
        assert_eq!(r.cold_bytes, 0, "server page cache holds the databases");
        let tl = IostatTimeline::sample_msa(&r, 1.0);
        assert_eq!(tl.mean_util_pct(), 0.0);
        assert_eq!(tl.stall_seconds(), 0.0);
        assert!(tl.render().contains("%util"));
    }
}
