//! The metric vocabulary: every end-to-end and per-layer metric the
//! benchmark prints, with its unit and direction. `BENCHMARK.json` and
//! `perfbench/metrics.json` list exactly these (locked by a test).

use std::collections::BTreeMap;

use crate::util::{ratio, Tally};

/// End-to-end metrics (`--trace 0`): `(name, unit, better)`.
pub const END_TO_END: [(&str, &str, &str); 6] = [
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("minsts_per_s", "Minsts/s", "higher"),
    ("job_ms_p50", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Timed layer entry points: `(timer stem, mean-ns metric, call-count
/// metric)`.
pub const TIMERS: [(&str, &str, &str); 15] = [
    (
        "trace.decode",
        "trace.decode_ns_per_record",
        "trace.decode_records",
    ),
    (
        "workloads.gen",
        "workloads.gen_ns_per_record",
        "workloads.gen_records",
    ),
    ("cpu.dispatch", "cpu.dispatch_ns", "cpu.dispatch_calls"),
    ("cpu.complete", "cpu.complete_ns", "cpu.complete_calls"),
    ("cache.access", "cache.access_ns", "cache.access_calls"),
    ("cache.fill", "cache.fill_ns", "cache.fill_calls"),
    (
        "coherence.access",
        "coherence.access_ns",
        "coherence.access_calls",
    ),
    (
        "core.translate",
        "core.translate_ns",
        "core.translate_calls",
    ),
    (
        "core.on_data_access",
        "core.on_data_access_ns",
        "core.on_data_access_calls",
    ),
    (
        "policy.observe",
        "policy.observe_ns",
        "policy.observe_calls",
    ),
    (
        "memctrl.enqueue",
        "memctrl.enqueue_ns",
        "memctrl.enqueue_calls",
    ),
    (
        "memctrl.advance",
        "memctrl.advance_ns",
        "memctrl.advance_calls",
    ),
    (
        "memctrl.next_action",
        "memctrl.next_action_ns",
        "memctrl.next_action_calls",
    ),
    (
        "dram.earliest_issue",
        "dram.earliest_issue_ns",
        "dram.earliest_issue_calls",
    ),
    ("dram.issue", "dram.issue_ns", "dram.issue_calls"),
];

/// Exact counts printed as they are (tally key = metric name).
pub const COUNTS: [&str; 15] = [
    "cpu.insts_retired",
    "cache.llc_misses",
    "coherence.bus_transactions",
    "coherence.invalidations",
    "coherence.bus_wait_cycles",
    "core.table_fetch_reads",
    "core.promotions",
    "core.aborted_promotions",
    "policy.actions",
    "memctrl.reads",
    "memctrl.writes",
    "memctrl.swaps",
    "dram.fast_activations",
    "dram.slow_activations",
    "dram.refreshes",
];

/// Host-time facts of the traced run that are not per-call timers.
#[derive(Debug, Default, Clone)]
pub struct HostFacts {
    /// Cold `TraceStore::get_or_materialize` over the workload's episodes.
    pub materialize_s: f64,
    /// Estimated ns per stage across the profiled runs, in
    /// `das_telemetry::Stage::ALL` order.
    pub stage_ns: [f64; 4],
    /// Wall ns of the profiled runs.
    pub profiled_ns: f64,
    /// Wall ns of the same runs with the profiler off.
    pub unprofiled_ns: f64,
    /// Simulated CPU cycles of the measured windows.
    pub sim_cycles: u64,
    /// Cold `ProfileCache::get_or_compute` time.
    pub profile_s: f64,
    /// Experiment-text rendering time.
    pub render_s: f64,
    /// Σ job time ÷ (threads × pass wall).
    pub pool_busy_frac: f64,
    /// Overhead of one empty timer pair.
    pub timer_overhead_ns: f64,
}

/// Stage coverage below which a workload is flagged.
pub const COVERAGE_FLOOR: f64 = 0.90;

/// Stage labels of the existing profiler, in `Stage::ALL` order.
pub const STAGE_SHARES: [&str; 4] = [
    "sim.stage.trace_decode.share",
    "sim.stage.rob_retire.share",
    "sim.stage.queue_service.share",
    "sim.stage.dram_timing.share",
];

/// One printed metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Exact counts of a traced run: the tally's counters plus every timer's
/// call count.
pub fn exact_counts(t: &Tally) -> BTreeMap<&'static str, u64> {
    let mut out: BTreeMap<&'static str, u64> = t.counts.clone();
    for (stem, _, calls) in TIMERS {
        out.insert(calls, t.timers.get(stem).map_or(0, |x| x.calls));
    }
    out
}

/// Every per-layer metric of a traced run.
pub fn per_layer(t: &Tally, h: &HostFacts) -> Vec<Metric> {
    let c = |k: &str| t.get(k) as f64;
    let timer = |k: &str| t.timers.get(k).copied().unwrap_or_default();
    let mut m: Vec<Metric> = Vec::new();
    for (stem, mean, calls) in TIMERS {
        let x = timer(stem);
        m.push((mean, x.mean_ns(), "ns"));
        m.push((calls, x.calls as f64, "count"));
    }
    for name in COUNTS {
        m.push((name, c(name), "count"));
    }
    let decode = timer("trace.decode");
    m.push((
        "trace.decode_mb_per_s",
        ratio(c("trace.decode_bytes") / 1e6, decode.ns as f64 * 1e-9),
        "MB/s",
    ));
    m.push(("trace.materialize_s", h.materialize_s, "s"));
    m.push((
        "cache.llc_mpki",
        ratio(c("cache.llc_misses") * 1000.0, c("cpu.insts_retired")),
        "1/kinst",
    ));
    m.push((
        "coherence.l1_hit_ratio",
        ratio(
            c("coherence.l1_hits"),
            c("coherence.l1_hits") + c("coherence.l1_misses"),
        ),
        "ratio",
    ));
    m.push((
        "core.tcache_hit_ratio",
        ratio(
            c("core.tcache_hits"),
            c("core.tcache_hits") + c("core.tcache_misses"),
        ),
        "ratio",
    ));
    m.push((
        "memctrl.completions_per_advance",
        ratio(
            c("memctrl.completions"),
            timer("memctrl.advance").calls as f64,
        ),
        "ratio",
    ));
    m.push((
        "memctrl.row_hit_ratio",
        ratio(c("memctrl.row_hits"), c("memctrl.data_accesses")),
        "ratio",
    ));
    m.push((
        "dram.earliest_issue_per_issue",
        ratio(
            timer("dram.earliest_issue").calls as f64,
            timer("dram.issue").calls as f64,
        ),
        "ratio",
    ));
    let stage_total: f64 = h.stage_ns.iter().sum();
    for (name, ns) in STAGE_SHARES.iter().zip(h.stage_ns) {
        m.push((name, ratio(ns, stage_total), "ratio"));
    }
    let coverage = ratio(stage_total, h.profiled_ns);
    m.push(("sim.stage_coverage", coverage, "ratio"));
    m.push((
        "sim.stage_coverage_low",
        f64::from(u8::from(coverage < COVERAGE_FLOOR)),
        "count",
    ));
    m.push((
        "sim.profiler_overhead_frac",
        ratio(h.profiled_ns - h.unprofiled_ns, h.unprofiled_ns),
        "ratio",
    ));
    m.push((
        "sim.host_ns_per_sim_cycle",
        ratio(h.unprofiled_ns, h.sim_cycles as f64),
        "ns",
    ));
    m.push(("harness.profile_s", h.profile_s, "s"));
    m.push(("harness.profile_calls", c("harness.profile_calls"), "count"));
    m.push(("harness.render_ms", h.render_s * 1e3, "ms"));
    m.push(("harness.pool_busy_frac", h.pool_busy_frac, "ratio"));
    m.push(("harness.jobs", c("harness.jobs"), "count"));
    m.push(("bench.timer_overhead_ns", h.timer_overhead_ns, "ns"));
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_telemetry::json::{self, Value};

    fn load(rel: &str) -> Value {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
        json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap()
    }

    fn listed(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        let bench = load("../BENCHMARK.json");
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(listed(&bench, "end_to_end"), e2e);
        let emitted: Vec<(String, String)> = per_layer(&Tally::default(), &HostFacts::default())
            .iter()
            .map(|(n, _, u)| (n.to_string(), u.to_string()))
            .collect();
        let declared: Vec<(String, String)> = listed(&bench, "per_layer")
            .into_iter()
            .map(|(n, u, _)| (n, u))
            .collect();
        assert_eq!(declared, emitted);
        let workloads: Vec<&str> = bench
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::suite::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn metrics_json_describes_every_metric_and_job_list() {
        let bench = load("../BENCHMARK.json");
        let meta = load("metrics.json");
        let mut all = listed(&bench, "end_to_end");
        all.extend(listed(&bench, "per_layer"));
        assert_eq!(listed(&meta, "metrics"), all);
        for w in meta.get("workloads").and_then(Value::as_arr).unwrap() {
            let name = w.get("name").and_then(Value::as_str).unwrap();
            let suite = crate::suite::by_name(name).unwrap();
            let jobs: Vec<String> = w
                .get("jobs")
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|j| j.as_str().unwrap().to_string())
                .collect();
            let ours: Vec<String> = suite.jobs(42).into_iter().map(|j| j.id).collect();
            assert_eq!(jobs, ours, "{name}");
            assert_eq!(
                w.get("threads").and_then(Value::as_u64),
                Some(suite.threads as u64)
            );
        }
    }
}
