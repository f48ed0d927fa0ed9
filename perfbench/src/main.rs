//! The repository's pinned performance benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig7a_grid|backend_sweep|coherent_shared> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --record perfbench/expected/seed42.json
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: the workload is set up
//! several times (the median is `setup_s`), then its job list runs in
//! timed passes on the harness pool until `--seconds` have elapsed; every
//! metric is the median over passes. `--trace 1` measures the per-layer
//! metrics (see `traced.rs`). Either way the last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`; a failing job
//! or a mismatching output makes `correct` false, while the process still
//! exits 0. Usage and set-up errors exit 1 without a result.
//!
//! `--record` re-runs every workload at the reference seed and writes the
//! report digests and exact counts the checks compare against.

mod check;
mod layers;
mod metrics;
mod suite;
mod traced;
mod util;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use das_telemetry::json::Value;

use check::{Recorded, Recording};
use suite::{Workload, INSTS, REFERENCE_SEED, WORKLOADS};
use util::{median, peak_rss_mb};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

const USAGE: &str = "usage: perfbench --workload <fig7a_grid|backend_sweep|coherent_shared> \
     --seed <n> --seconds <s> --trace <0|1>\n       perfbench --record <path>";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    suite::by_name(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
            },
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Removes the per-process scratch directory (and its parent when empty)
/// on every exit path.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> Result<WorkDir, String> {
        let dir = Path::new(".perfbench-work").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The recording for `w` when `seed` is the reference seed.
fn recorded_for(w: &Workload, seed: u64) -> Result<Option<Recorded>, String> {
    if seed != REFERENCE_SEED {
        return Ok(None);
    }
    let rec = Recording::builtin()?;
    if rec.insts != INSTS {
        return Err(format!(
            "expected/seed42.json was recorded at {} insts, the benchmark runs {INSTS}",
            rec.insts
        ));
    }
    rec.workloads
        .get(w.name)
        .cloned()
        .map(Some)
        .ok_or_else(|| format!("expected/seed42.json has no {}", w.name))
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[metrics::Metric]) -> String {
    let mut m = Value::obj();
    for (name, value, unit) in metrics {
        m = m.set(name, Value::obj().set("value", *value).set("unit", *unit));
    }
    Value::obj()
        .set("correct", correct)
        .set("attempted", attempted)
        .set("failed", failed)
        .set("metrics", m)
        .render()
}

/// Sum of retired instructions over a pass's reports.
fn insts_retired(reports: &[Result<Value, String>]) -> u64 {
    reports
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .filter_map(|r| r.get_path("metrics/cores").and_then(Value::as_arr))
        .flatten()
        .filter_map(|c| c.get("insts").and_then(Value::as_u64))
        .sum()
}

/// The end-to-end run.
fn end_to_end(a: &Args, work: &Path) -> Result<String, String> {
    let w = a.workload;
    let recorded = recorded_for(w, a.seed)?;
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for k in 0..SETUP_REPS {
        let dir = suite::ScratchDir(work.join(format!("setup{k}")));
        let t = Instant::now();
        let p = suite::prepare(w, a.seed, &dir.0)?;
        setup_s.push(t.elapsed().as_secs_f64());
        // Dropping the previous set-up removes its store.
        prepared = Some((p, dir));
    }
    let (prep, dir) = prepared.expect("at least one set-up");

    // Every execution must pass the output check and reproduce the first
    // pass's report bytes. Reports are checked as each pass ends and then
    // dropped, so the process does not grow with the number of passes.
    let n = prep.jobs.len();
    let deadline = Instant::now() + Duration::from_secs(a.seconds);
    let mut first: Vec<Option<String>> = Vec::new();
    let mut insts = 0.0;
    let (mut walls, mut cpus, mut jobs_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut failed = 0u64;
    let mut first_error: Option<String> = None;
    while walls.is_empty() || Instant::now() < deadline {
        let pass = suite::run_pass(w, &prep, &dir.0);
        if first.is_empty() {
            insts = insts_retired(&pass.reports) as f64;
            first = pass
                .reports
                .iter()
                .map(|r| r.as_ref().ok().map(Value::render))
                .collect();
        }
        for (i, r) in pass.reports.iter().enumerate() {
            let verdict = r.as_ref().map_err(Clone::clone).and_then(|r| {
                check::check_report(&prep.jobs[i], r, recorded.as_ref())?;
                if first[i].as_deref() == Some(r.render().as_str()) {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: report differs between passes",
                        prep.jobs[i].id
                    ))
                }
            });
            if let Err(e) = verdict {
                failed += 1;
                first_error.get_or_insert(e);
            }
        }
        walls.push(pass.wall_s);
        cpus.push(pass.cpu_s);
        jobs_ms.extend(pass.job_s.iter().map(|s| s * 1e3));
    }
    if let Some(e) = &first_error {
        eprintln!("perfbench: {failed} failed job executions; first: {e}");
    }
    let attempted = (walls.len() * n) as u64;
    let rates: Vec<f64> = walls.iter().map(|w| insts / w / 1e6).collect();
    let values = [
        median(&walls),
        median(&cpus),
        median(&rates),
        median(&jobs_ms),
        median(&setup_s),
        peak_rss_mb()?,
    ];
    let metrics: Vec<metrics::Metric> = metrics::END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), v)| (name, v, unit))
        .collect();
    eprintln!(
        "perfbench {}: seed {}, {} jobs x {} passes on {} thread(s) of {} available, \
         jobs_failed_frac {:.4}, job_ms_p50 over {} job runs",
        w.name,
        a.seed,
        n,
        walls.len(),
        w.threads,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        failed as f64 / attempted as f64,
        jobs_ms.len()
    );
    eprintln!(
        "perfbench {}: pass wall_s {:?}",
        w.name,
        walls
            .iter()
            .map(|w| (w * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    Ok(result_line(failed == 0, attempted, failed, &metrics))
}

/// The traced (per-layer) run.
fn per_layer(a: &Args, work: &Path) -> Result<String, String> {
    let w = a.workload;
    let recorded = recorded_for(w, a.seed)?;
    let t = traced::run(w, a.seed, a.seconds, work, recorded.as_ref())?;
    for f in &t.failures {
        eprintln!("perfbench: {f}");
    }
    let coverage = t
        .metrics
        .iter()
        .find(|m| m.0 == "sim.stage_coverage")
        .map_or(0.0, |m| m.1);
    if coverage < metrics::COVERAGE_FLOOR {
        eprintln!(
            "perfbench {}: stage coverage {coverage:.3} is below {:.2}: the profiler's \
             stages miss part of the run",
            w.name,
            metrics::COVERAGE_FLOOR
        );
    }
    let failed = t.failures.len().min(t.attempted as usize) as u64;
    Ok(result_line(
        t.failures.is_empty(),
        t.attempted,
        failed,
        &t.metrics,
    ))
}

/// Records digests and exact counts of every workload at the reference
/// seed.
fn record(path: &Path, work: &Path) -> Result<(), String> {
    let mut rec = Recording {
        insts: INSTS,
        ..Recording::default()
    };
    for w in &WORKLOADS {
        let dir = work.join(w.name);
        let prep = suite::prepare(w, REFERENCE_SEED, &dir)?;
        let pass = suite::run_pass(w, &prep, &dir);
        let mut r = Recorded::default();
        for (job, report) in prep.jobs.iter().zip(&pass.reports) {
            let report = report.as_ref().map_err(Clone::clone)?;
            check::check_report(job, report, None)?;
            r.digests.insert(job.id.clone(), check::digest(report));
        }
        drop(prep);
        let t = traced::run(w, REFERENCE_SEED, 1, &dir.join("traced"), None)?;
        if let Some(f) = t.failures.first() {
            return Err(f.clone());
        }
        r.counts = t.counts;
        rec.workloads.insert(w.name.to_string(), r);
        let _ = std::fs::remove_dir_all(&dir);
    }
    std::fs::write(path, rec.render() + "\n").map_err(|e| format!("cannot write {path:?}: {e}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = WorkDir::new().and_then(|work| match args.as_slice() {
        [flag, path] if flag == "--record" => record(Path::new(path), &work.0).map(|()| None),
        _ => {
            let a = parse_args(&args).map_err(|e| format!("{e}\n{USAGE}"))?;
            let line = if a.trace {
                per_layer(&a, &work.0)?
            } else {
                end_to_end(&a, &work.0)?
            };
            Ok(Some(line))
        }
    });
    match outcome {
        Ok(Some(line)) => println!("{line}"),
        Ok(None) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
