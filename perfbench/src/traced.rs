//! The traced run: one pass for the run reports and the pool figures, a
//! profiled re-run of every job for the stage shares, and repeated
//! layer-replay sweeps for per-call timings and exact work counts.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use das_harness::bench::BENCH_SAMPLE_EVERY;
use das_harness::manifest::JobSpec;
use das_harness::pool;
use das_harness::profile::{profile_key, ProfileCache};
use das_sim::experiments::{run_one_coherent, run_one_coherent_profiled};
use das_sim::report::run_report;
use das_sim::{System, TraceSource};
use das_telemetry::json::Value;
use das_telemetry::{Stage, StageProfilerConfig, StageReport};
use das_trace::TraceStore;
use das_workloads::dtr;

use crate::layers::{self, Streams};
use crate::metrics::{self, HostFacts};
use crate::suite::{self, Prepared, Workload};
use crate::util::{timer_overhead_ns, Tally};

/// Host times of one job run with the stage profiler off and on.
struct StageRun {
    off_ns: f64,
    on_ns: f64,
    stages: StageReport,
    /// The profiled run's report, rendered (must equal the pass report).
    report: String,
}

/// Runs `job` twice from identical inputs: profiler off, then on.
fn stage_run(
    job: &JobSpec,
    profiles: &ProfileCache,
    store: Option<&TraceStore>,
) -> Result<StageRun, String> {
    let (cfg, design, workloads) = job.materialize()?;
    let on_cfg = cfg
        .clone()
        .with_stage_profile(StageProfilerConfig::on(BENCH_SAMPLE_EVERY));
    let fail = |e: das_sim::SimError| format!("{}: {e}", job.id);
    let (off_ns, on_ns, res, stages) = if let Some((spec, protocol)) = job.coherent_spec()? {
        let t = Instant::now();
        run_one_coherent(&cfg, design, &spec, protocol).map_err(fail)?;
        let off_ns = t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        let (res, _, stages) = run_one_coherent_profiled(&on_cfg, design, &spec, protocol);
        (off_ns, t.elapsed().as_nanos() as f64, res, stages)
    } else {
        let profile: Option<Arc<_>> = design
            .needs_profile()
            .then(|| profiles.get_or_compute(&profile_key(job), &cfg, &workloads));
        let scaled = suite::scaled_workloads(job)?;
        let system = |cfg: das_sim::SystemConfig| -> Result<System, String> {
            let Some(store) = store else {
                return Ok(System::new(cfg, design, &scaled, profile.as_deref()));
            };
            let mut sources = Vec::new();
            for w in &scaled {
                let fp = dtr::episode_fingerprint(w, cfg.seed, cfg.scale, cfg.inst_budget);
                let reader = store
                    .open_stream(&fp)
                    .map_err(|e| format!("{}: cannot open episode: {e}", job.id))?;
                sources.push(TraceSource::streaming(reader));
            }
            Ok(System::with_sources(
                cfg,
                design,
                &scaled,
                sources,
                profile.as_deref(),
            ))
        };
        let t = Instant::now();
        system(cfg.clone())?.run().map_err(fail)?;
        let off_ns = t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        let (res, _, stages) = system(on_cfg)?.run_profiled();
        (off_ns, t.elapsed().as_nanos() as f64, res, stages)
    };
    let m = res.map_err(fail)?;
    Ok(StageRun {
        off_ns,
        on_ns,
        stages: stages.ok_or_else(|| format!("{}: no stage report", job.id))?,
        report: run_report(&m, None).render(),
    })
}

/// Adds the exact counts a job's run report carries.
fn report_counts(r: &Value, t: &mut Tally) {
    let u = |p: &str| r.get_path(p).and_then(Value::as_u64).unwrap_or(0);
    if let Some(cores) = r.get_path("metrics/cores").and_then(Value::as_arr) {
        for c in cores {
            t.count(
                "cpu.insts_retired",
                c.get("insts").and_then(Value::as_u64).unwrap_or(0),
            );
        }
    }
    for (key, path) in [
        ("cache.llc_misses", "metrics/llc_misses"),
        (
            "coherence.bus_transactions",
            "metrics/coherence/bus_transactions",
        ),
        ("coherence.invalidations", "metrics/coherence/invalidations"),
        (
            "coherence.bus_wait_cycles",
            "metrics/coherence/bus_wait_cycles",
        ),
        ("coherence.l1_hits", "metrics/coherence/l1_hits"),
        ("coherence.l1_misses", "metrics/coherence/l1_misses"),
        ("core.tcache_hits", "metrics/translation/hits"),
        ("core.tcache_misses", "metrics/translation/misses"),
        ("core.table_fetch_reads", "metrics/table_fetch_reads"),
        ("core.promotions", "metrics/promotions"),
        ("core.aborted_promotions", "metrics/aborted_promotions"),
        ("memctrl.row_hits", "metrics/access_mix/row_buffer"),
        ("memctrl.data_accesses", "metrics/memory_accesses"),
        ("dram.fast_activations", "metrics/access_mix/fast"),
        ("dram.slow_activations", "metrics/access_mix/slow"),
    ] {
        t.count(key, u(path));
    }
    t.count(
        "policy.actions",
        ["promotes", "demotes", "holds", "threshold_adjusts"]
            .iter()
            .map(|k| u(&format!("metrics/policy/{k}")))
            .sum(),
    );
}

/// Outcome of a traced run.
pub struct Traced {
    /// Per-layer metrics.
    pub metrics: Vec<metrics::Metric>,
    /// Job executions attempted (pass + profiled re-runs).
    pub attempted: u64,
    /// Failure messages (job errors, output or count mismatches).
    pub failures: Vec<String>,
    /// Every exact count, by name.
    pub counts: BTreeMap<String, u64>,
}

/// The traced run of `w` at `seed`, measuring for about `seconds`.
///
/// # Errors
///
/// Set-up failures (nothing to measure).
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: u64,
    dir: &Path,
    recorded: Option<&crate::check::Recorded>,
) -> Result<Traced, String> {
    let start = Instant::now();
    let prep: Prepared = suite::prepare(w, seed, dir)?;
    let mut failures = Vec::new();
    let mut host = HostFacts {
        materialize_s: prep.materialize_s,
        timer_overhead_ns: timer_overhead_ns(),
        ..HostFacts::default()
    };
    let n = prep.jobs.len();
    let mut counts = Tally::default();
    counts.count("harness.jobs", n as u64);

    // One pass: the reports every count and check is read from.
    let pass = suite::run_pass(w, &prep, dir);
    host.render_s = pass.render_s;
    host.pool_busy_frac = pass.job_s.iter().sum::<f64>() / (w.threads as f64 * pass.wall_s);
    let mut reports: Vec<Option<Value>> = Vec::with_capacity(n);
    for (job, r) in prep.jobs.iter().zip(&pass.reports) {
        let checked = r
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|r| crate::check::check_report(job, r, recorded).map(|()| r));
        match checked {
            Ok(r) => {
                report_counts(r, &mut counts);
                host.sim_cycles += r
                    .get_path("metrics/window_cycles")
                    .and_then(Value::as_u64)
                    .unwrap_or(0);
                reports.push(Some(r.clone()));
            }
            Err(e) => {
                failures.push(e);
                reports.push(None);
            }
        }
    }

    // The profiling pre-pass, cold.
    let profiles = ProfileCache::new();
    let t = Instant::now();
    for job in &prep.jobs {
        let (cfg, design, workloads) = job.materialize()?;
        if design.needs_profile() {
            profiles.get_or_compute(&profile_key(job), &cfg, &workloads);
        }
    }
    host.profile_s = t.elapsed().as_secs_f64();
    counts.count("harness.profile_calls", profiles.len() as u64);

    // Every job again with the stage profiler off and on.
    let mut runs: Vec<Result<StageRun, String>> = Vec::with_capacity(n);
    pool::run_ordered(
        w.threads,
        n,
        |i| stage_run(&prep.jobs[i], &profiles, prep.store.as_ref()),
        |_, r| runs.push(r),
    );
    for ((job, run), report) in prep.jobs.iter().zip(runs).zip(&reports) {
        match run {
            Ok(run) => {
                if let Some(r) = report {
                    if r.render() != run.report {
                        failures.push(format!("{}: profiled run changed the report", job.id));
                    }
                }
                host.off_and_on(&run);
            }
            Err(e) => failures.push(e),
        }
    }

    // Layer-replay sweeps until the time is up (at least one). Streams
    // are loaded once per distinct episode; later sweeps must reproduce
    // the first sweep's counts exactly.
    let mut timing = Tally::default();
    let mut streams: HashMap<String, Streams> = HashMap::new();
    for job in &prep.jobs {
        if let Entry::Vacant(slot) = streams.entry(layers::stream_key(job)) {
            slot.insert(layers::load_streams(job, prep.store.as_ref(), &mut timing)?);
        }
    }
    let deadline = start + Duration::from_secs(seconds);
    let mut first: Option<Tally> = None;
    loop {
        let mut sweep = Tally::default();
        for job in &prep.jobs {
            if let Err(e) = layers::replay(job, &streams[&layers::stream_key(job)], &mut sweep) {
                failures.push(e);
            }
        }
        timing.merge(&Tally {
            timers: sweep.timers.clone(),
            counts: Default::default(),
        });
        match &first {
            None => first = Some(sweep),
            Some(f) => {
                if metrics::exact_counts(f) != metrics::exact_counts(&sweep) {
                    failures.push("layer-replay counts differ between sweeps".into());
                }
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let first = first.expect("at least one sweep");
    counts
        .counts
        .extend(first.counts.iter().map(|(k, v)| (*k, *v)));
    counts
        .counts
        .extend(timing.counts.iter().map(|(k, v)| (*k, *v)));
    // Timer call counts come from one sweep; times from all of them.
    for (stem, t) in &timing.timers {
        let calls = first.timers.get(stem).map_or(t.calls, |f| f.calls);
        let mut one = *t;
        if t.calls != calls {
            one.ns = t.ns * u128::from(calls) / u128::from(t.calls);
            one.calls = calls;
        }
        counts.timers.insert(stem, one);
    }
    let exact = metrics::exact_counts(&counts);
    if let Some(rec) = recorded {
        if let Err(e) = crate::check::check_counts(&exact, rec) {
            failures.push(e);
        }
    }
    Ok(Traced {
        metrics: metrics::per_layer(&counts, &host),
        attempted: 2 * n as u64,
        failures,
        counts: exact.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
    })
}

impl HostFacts {
    fn off_and_on(&mut self, run: &StageRun) {
        self.unprofiled_ns += run.off_ns;
        self.profiled_ns += run.on_ns;
        for (k, stage) in Stage::ALL.iter().enumerate() {
            self.stage_ns[k] += run.stages.estimated_total_ns(*stage);
        }
    }
}
