//! Sampling wall-clock stage profiler for the simulator's hot loop.
//!
//! This is the one instrument in the crate that reads the *host* clock
//! ([`std::time::Instant`]) instead of the simulated clock: it measures
//! how long the simulator itself spends in each event-loop stage (trace
//! decode, ROB retirement, memory-controller queue service, DRAM timing
//! engine), which is by construction host-dependent and non-reproducible.
//! It therefore lives outside the deterministic report path: stage data
//! never enters `RunMetrics`, the telemetry report or any journalled
//! artifact — it is only surfaced by explicitly perf-oriented consumers
//! (the pinned benchmark in `perfbench/`).
//!
//! The overhead contract mirrors [`crate::Telemetry`]: constructed
//! [`SinkMode::Off`] (the default) every probe is a single-branch no-op
//! and nothing is allocated, so a run with profiling off is bit-identical
//! to one without the instrumentation (locked by `crates/sim/tests/`).
//! When on, probes are *sampled*: only every `sample_every`-th occurrence
//! of a stage pays the two `Instant::now()` calls, and the elapsed
//! nanoseconds land in a [`LatencyHistogram`] per stage. Occurrences are
//! always counted, so per-stage totals are estimated as
//! `mean(sampled) * occurrences`.

use std::time::Instant;

use crate::hist::LatencyHistogram;
use crate::json::Value;
use crate::SinkMode;

/// The instrumented event-loop stages, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Pulling decoded trace items into the core's window
    /// (`Core::dispatch_from`): trace decode + dispatch.
    TraceDecode,
    /// Retiring a completed memory access through the reorder window
    /// (`Core::complete`).
    RobRetire,
    /// Memory-controller queue work outside the timing engine: demand
    /// enqueue, overflow drain, wake scheduling.
    QueueService,
    /// The DRAM timing engine proper (`MemoryController::advance`).
    DramTiming,
}

/// Number of instrumented stages.
pub const STAGES: usize = 4;

impl Stage {
    /// All stages, in report order.
    pub const ALL: [Stage; STAGES] = [
        Stage::TraceDecode,
        Stage::RobRetire,
        Stage::QueueService,
        Stage::DramTiming,
    ];

    /// Stable label used in JSON reports and BENCH files.
    pub fn label(self) -> &'static str {
        match self {
            Stage::TraceDecode => "trace_decode",
            Stage::RobRetire => "rob_retire",
            Stage::QueueService => "queue_service",
            Stage::DramTiming => "dram_timing",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::TraceDecode => 0,
            Stage::RobRetire => 1,
            Stage::QueueService => 2,
            Stage::DramTiming => 3,
        }
    }
}

/// Stage-profiler configuration carried in the system config.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageProfilerConfig {
    /// Whether probes record anything.
    pub mode: SinkMode,
    /// Sampling stride: every N-th occurrence of a stage is timed.
    pub sample_every: u32,
}

impl Default for StageProfilerConfig {
    fn default() -> Self {
        StageProfilerConfig {
            mode: SinkMode::Off,
            sample_every: 64,
        }
    }
}

impl StageProfilerConfig {
    /// An enabled configuration timing every `sample_every`-th probe.
    pub fn on(sample_every: u32) -> Self {
        assert!(sample_every > 0, "sampling stride must be positive");
        StageProfilerConfig {
            mode: SinkMode::On,
            sample_every,
        }
    }

    /// Whether the profiler records.
    pub fn enabled(&self) -> bool {
        self.mode == SinkMode::On
    }
}

/// A live probe handle: present only when this occurrence was sampled.
/// `None` makes [`StageProfiler::end`] a no-op, so an unsampled (or
/// off-mode) probe costs one branch on each side.
pub type Probe = Option<Instant>;

/// The sampling profiler the simulator holds. See the module docs for the
/// overhead contract.
#[derive(Debug)]
pub struct StageProfiler {
    enabled: bool,
    sample_every: u32,
    countdown: [u32; STAGES],
    occurrences: [u64; STAGES],
    /// Per-stage sampled-elapsed-nanoseconds histograms; empty when off.
    hists: Vec<LatencyHistogram>,
    /// Per-stage depth histograms (queue/window occupancy at sampled
    /// probes); empty when off.
    depths: Vec<LatencyHistogram>,
}

impl StageProfiler {
    /// A disabled profiler: every probe is a single-branch no-op.
    pub fn off() -> Self {
        StageProfiler {
            enabled: false,
            sample_every: 1,
            countdown: [1; STAGES],
            occurrences: [0; STAGES],
            hists: Vec::new(),
            depths: Vec::new(),
        }
    }

    /// Builds a profiler; allocates only when `cfg` is enabled.
    pub fn new(cfg: StageProfilerConfig) -> Self {
        if !cfg.enabled() {
            return Self::off();
        }
        StageProfiler {
            enabled: true,
            sample_every: cfg.sample_every.max(1),
            countdown: [1; STAGES], // sample the first occurrence of each stage
            occurrences: [0; STAGES],
            hists: (0..STAGES).map(|_| LatencyHistogram::new()).collect(),
            depths: (0..STAGES).map(|_| LatencyHistogram::new()).collect(),
        }
    }

    /// Whether probes record (one branch; callers may skip probe setup).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a probe over `stage`. Returns `Some` only when this
    /// occurrence is sampled; pass the result to [`StageProfiler::end`].
    #[inline]
    pub fn begin(&mut self, stage: Stage) -> Probe {
        if !self.enabled {
            return None;
        }
        let i = stage.index();
        self.occurrences[i] += 1;
        self.countdown[i] -= 1;
        if self.countdown[i] == 0 {
            self.countdown[i] = self.sample_every;
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Closes a probe, recording the elapsed nanoseconds. A `None` probe
    /// (off mode, or an unsampled occurrence) is a single-branch no-op.
    #[inline]
    pub fn end(&mut self, stage: Stage, probe: Probe) {
        let Some(t0) = probe else { return };
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.hists[stage.index()].record(ns);
    }

    /// Records a queue/window occupancy observed at a *sampled* probe
    /// (call only when [`StageProfiler::begin`] returned `Some`).
    #[inline]
    pub fn note_depth(&mut self, stage: Stage, depth: u64) {
        if !self.enabled {
            return;
        }
        self.depths[stage.index()].record(depth);
    }

    /// Consumes the profiler into a report; `None` when off (so the off
    /// mode is observationally identical to no profiler at all).
    pub fn into_report(self) -> Option<StageReport> {
        if !self.enabled {
            return None;
        }
        Some(StageReport {
            sample_every: self.sample_every,
            occurrences: self.occurrences,
            hists: self.hists,
            depths: self.depths,
        })
    }
}

/// Aggregated stage timings for one run.
#[derive(Debug)]
pub struct StageReport {
    /// Sampling stride the probes ran with.
    pub sample_every: u32,
    /// Total occurrences per stage (sampled or not), indexed like
    /// [`Stage::ALL`].
    pub occurrences: [u64; STAGES],
    /// Sampled elapsed-nanoseconds histograms, indexed like [`Stage::ALL`].
    pub hists: Vec<LatencyHistogram>,
    /// Occupancy-at-sample histograms, indexed like [`Stage::ALL`].
    pub depths: Vec<LatencyHistogram>,
}

impl StageReport {
    /// Estimated total nanoseconds spent in `stage`:
    /// `mean(sampled) * occurrences`.
    pub fn estimated_total_ns(&self, stage: Stage) -> f64 {
        let i = stage.index();
        self.hists[i].mean() * self.occurrences[i] as f64
    }

    /// Per-stage share of the summed estimated stage time, in
    /// [`Stage::ALL`] order. All zeros when nothing was sampled.
    pub fn shares(&self) -> [f64; STAGES] {
        let totals: Vec<f64> = Stage::ALL
            .iter()
            .map(|&s| self.estimated_total_ns(s))
            .collect();
        let sum: f64 = totals.iter().sum();
        let mut out = [0.0; STAGES];
        if sum > 0.0 {
            for (o, t) in out.iter_mut().zip(totals) {
                *o = t / sum;
            }
        }
        out
    }

    /// The report as a JSON object:
    /// `{sample_every, stages: {label: {occurrences, sampled, mean_ns,
    /// p50_ns, p95_ns, p99_ns, est_total_ns, share, depth: {...}}}}`.
    pub fn to_value(&self) -> Value {
        let shares = self.shares();
        let mut stages = Value::obj();
        for (k, &stage) in Stage::ALL.iter().enumerate() {
            let h = &self.hists[k];
            let mut s = Value::obj()
                .set("occurrences", self.occurrences[k])
                .set("sampled", h.count())
                .set("mean_ns", h.mean())
                .set("p50_ns", h.percentile(50.0))
                .set("p95_ns", h.percentile(95.0))
                .set("p99_ns", h.percentile(99.0))
                .set("est_total_ns", self.estimated_total_ns(stage))
                .set("share", shares[k]);
            if self.depths[k].count() > 0 {
                s = s.set("depth", self.depths[k].summary_value());
            }
            stages = stages.set(stage.label(), s);
        }
        Value::obj()
            .set("sample_every", u64::from(self.sample_every))
            .set("stages", stages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_profiler_records_nothing_and_reports_none() {
        let mut p = StageProfiler::off();
        assert!(!p.enabled());
        for stage in Stage::ALL {
            let probe = p.begin(stage);
            assert!(probe.is_none(), "off probes never sample");
            p.end(stage, probe);
            p.note_depth(stage, 7);
        }
        assert!(p.into_report().is_none());
        // Default config is off too.
        assert!(!StageProfilerConfig::default().enabled());
        assert!(StageProfiler::new(StageProfilerConfig::default())
            .into_report()
            .is_none());
    }

    #[test]
    fn sampling_stride_times_every_nth_occurrence() {
        let mut p = StageProfiler::new(StageProfilerConfig::on(4));
        let mut sampled = 0;
        for _ in 0..16 {
            let probe = p.begin(Stage::DramTiming);
            if probe.is_some() {
                sampled += 1;
                p.note_depth(Stage::DramTiming, 3);
            }
            p.end(Stage::DramTiming, probe);
        }
        assert_eq!(sampled, 4, "16 occurrences / stride 4");
        let r = p.into_report().expect("on profiler reports");
        let i = Stage::DramTiming.index();
        assert_eq!(r.occurrences[i], 16);
        assert_eq!(r.hists[i].count(), 4);
        assert_eq!(r.depths[i].count(), 4);
        assert_eq!(r.depths[i].max(), 3);
    }

    #[test]
    fn shares_sum_to_one_and_export_parses() {
        let mut p = StageProfiler::new(StageProfilerConfig::on(1));
        for stage in Stage::ALL {
            for _ in 0..8 {
                let probe = p.begin(stage);
                p.end(stage, probe);
            }
        }
        let r = p.into_report().unwrap();
        let sum: f64 = r.shares().iter().sum();
        // All stages sampled something, so shares are a partition of 1
        // (unless the host clock returned 0 ns for everything).
        assert!(sum == 0.0 || (sum - 1.0).abs() < 1e-9, "share sum {sum}");
        let v = r.to_value();
        crate::json::validate(&v.render()).unwrap();
        for stage in Stage::ALL {
            let path = format!("stages/{}/occurrences", stage.label());
            assert_eq!(v.get_path(&path).and_then(Value::as_u64), Some(8));
        }
        assert_eq!(v.get("sample_every").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn empty_report_has_zero_shares() {
        let p = StageProfiler::new(StageProfilerConfig::on(1_000));
        let r = p.into_report().unwrap();
        assert_eq!(r.shares(), [0.0; STAGES]);
        assert_eq!(r.estimated_total_ns(Stage::RobRetire), 0.0);
    }
}
