//! The pinned workloads: fixed job lists drawn from the harness catalog,
//! their set-up (catalog build, manifest materialisation, trace-store
//! warm-up, one discarded warm-up job) and one timed pass over the list.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use das_harness::catalog::{self, BuildParams};
use das_harness::manifest::JobSpec;
use das_harness::pool;
use das_harness::profile::ProfileCache;
use das_harness::render::RenderCtx;
use das_harness::runner;
use das_telemetry::json::Value;
use das_trace::TraceStore;
use das_workloads::config::WorkloadConfig;
use das_workloads::dtr;

use crate::util::process_cpu_s;

/// Per-core instruction budget every workload is built with (the catalog
/// halves it for the four-core coherent jobs). Large enough that a job
/// runs well past its warm-up window.
pub const INSTS: u64 = 1_000_000;
/// Capacity scale factor (the harness default).
pub const SCALE: u32 = 64;
/// The catalog's own seed: outputs at this seed are checked byte for byte.
pub const REFERENCE_SEED: u64 = 42;

/// One pinned workload.
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Worker threads of the harness pool.
    pub threads: usize,
    /// Whether reference streams are served from a warmed `.dtr` store.
    pub trace_store: bool,
    /// Catalog experiment whose renderer formats the job set's results,
    /// with the number of leading jobs it covers.
    pub render: Option<(&'static str, usize)>,
    build: fn() -> Vec<JobSpec>,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "fig7a_grid",
        threads: 2,
        trace_store: true,
        render: Some(("fig7a", 60)),
        build: fig7a_grid,
    },
    Workload {
        name: "backend_sweep",
        threads: 1,
        trace_store: false,
        render: Some(("cross_arch_rank", 12)),
        build: backend_sweep,
    },
    Workload {
        name: "coherent_shared",
        threads: 1,
        trace_store: false,
        render: None,
        build: coherent_shared,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn params(only: &[&str]) -> BuildParams {
    let mut p = BuildParams::new(INSTS, SCALE);
    p.only = only.iter().map(|s| s.to_string()).collect();
    p
}

fn build(exp: &str, only: &[&str]) -> Vec<JobSpec> {
    let e = catalog::by_id(exp).expect("pinned experiment is in the catalog");
    (e.build)(&params(only))
}

/// Figure 7a: the ten SPEC stand-ins × {std, sas, charm, das, das_fm, fs}.
fn fig7a_grid() -> Vec<JobSpec> {
    build("fig7a", &[])
}

/// mcf and lbm across the six backend families, plus DAS under the
/// feedback migration policy on mcf.
fn backend_sweep() -> Vec<JobSpec> {
    let mut jobs = build("cross_arch_rank", &["mcf", "lbm"]);
    jobs.extend(
        build("policy_search_rank", &["mcf"])
            .into_iter()
            .filter(|j| j.id.ends_with("/das_feedback")),
    );
    jobs
}

/// `shared:ring` and `shared:lock` under MESI and Dragon on DAS.
fn coherent_shared() -> Vec<JobSpec> {
    build("coherent_protocol", &["ring", "lock"])
        .into_iter()
        .filter(|j| j.design == "das")
        .collect()
}

impl Workload {
    /// The job list with every job's master seed set to `seed`.
    pub fn jobs(&self, seed: u64) -> Vec<JobSpec> {
        let mut jobs = (self.build)();
        for j in &mut jobs {
            j.seed = seed;
        }
        jobs
    }
}

/// A workload made ready to measure.
pub struct Prepared {
    /// The jobs, in execution order.
    pub jobs: Vec<JobSpec>,
    /// The warmed trace store (store-served workloads only).
    pub store: Option<TraceStore>,
    /// Seconds spent materializing the store's episodes cold.
    pub materialize_s: f64,
}

/// Scaled per-core workload descriptors of a classic job.
pub fn scaled_workloads(job: &JobSpec) -> Result<Vec<WorkloadConfig>, String> {
    let (cfg, _, workloads) = job.materialize()?;
    Ok(workloads
        .iter()
        .map(|w| w.scaled(u64::from(cfg.scale)))
        .collect())
}

/// Set-up: builds the job list from the catalog, materialises every job,
/// warms a fresh trace store under `dir` (store-served workloads) and runs
/// the first job once, discarding its result.
///
/// # Errors
///
/// Any job that fails to materialise, any store failure, or a failing
/// warm-up job.
pub fn prepare(w: &Workload, seed: u64, dir: &Path) -> Result<Prepared, String> {
    let jobs = w.jobs(seed);
    for j in &jobs {
        j.materialize()?;
    }
    let mut materialize_s = 0.0;
    let store = if w.trace_store {
        let store = TraceStore::open(dir).map_err(|e| format!("cannot open trace store: {e}"))?;
        let t = Instant::now();
        for j in &jobs {
            let (cfg, _, _) = j.materialize()?;
            for sw in scaled_workloads(j)? {
                let fp = dtr::episode_fingerprint(&sw, cfg.seed, cfg.scale, cfg.inst_budget);
                store
                    .get_or_materialize(&fp, |out| {
                        dtr::record_episode(&sw, cfg.seed, cfg.inst_budget, out).map(|_| ())
                    })
                    .map_err(|e| format!("cannot materialize {}: {e}", sw.name))?;
            }
        }
        materialize_s = t.elapsed().as_secs_f64();
        Some(store)
    } else {
        None
    };
    runner::execute(&jobs[0], &ProfileCache::new(), dir, store.as_ref())
        .map_err(|e| format!("warm-up job failed: {e}"))?;
    Ok(Prepared {
        jobs,
        store,
        materialize_s,
    })
}

/// A scratch directory for one set-up, removed on drop.
pub struct ScratchDir(pub PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One timed pass over a workload's job list.
pub struct Pass {
    /// Host wall time of the pass (jobs plus rendering).
    pub wall_s: f64,
    /// Process CPU time consumed by the pass.
    pub cpu_s: f64,
    /// Host time of each `runner::execute` call, in job order.
    pub job_s: Vec<f64>,
    /// Each job's run report (or its error), in job order.
    pub reports: Vec<Result<Value, String>>,
    /// Time spent rendering the experiment text (0 when not rendered).
    pub render_s: f64,
}

/// Runs every job once on the harness pool with a fresh profile memo,
/// then renders the experiment text from the reports.
pub fn run_pass(w: &Workload, prep: &Prepared, dir: &Path) -> Pass {
    let profiles = ProfileCache::new();
    let n = prep.jobs.len();
    let mut job_s = vec![0.0; n];
    let mut reports: Vec<Result<Value, String>> = Vec::with_capacity(n);
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    pool::run_ordered(
        w.threads,
        n,
        |i| {
            let t = Instant::now();
            let r = runner::execute(&prep.jobs[i], &profiles, dir, prep.store.as_ref());
            (r, t.elapsed())
        },
        |i, (r, d): (Result<Value, String>, Duration)| {
            job_s[i] = d.as_secs_f64();
            reports.push(r);
        },
    );
    let mut render_s = 0.0;
    if let Some((exp, count)) = w.render {
        if reports.iter().all(Result::is_ok) {
            let ok: Vec<Value> = reports[..count]
                .iter()
                .map(|r| r.clone().expect("checked above"))
                .collect();
            let t = Instant::now();
            let text = render(exp, &prep.jobs[..count], &ok);
            render_s = t.elapsed().as_secs_f64();
            assert!(!text.is_empty(), "{exp} rendered nothing");
        }
    }
    Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: process_cpu_s() - cpu0,
        job_s,
        reports,
        render_s,
    }
}

fn render(exp: &str, jobs: &[JobSpec], reports: &[Value]) -> String {
    let e = catalog::by_id(exp).expect("pinned experiment is in the catalog");
    let ctx = RenderCtx {
        insts: INSTS,
        scale: SCALE,
        jobs,
        reports,
        report_path: String::new(),
        trace_path: String::new(),
    };
    (e.render)(&ctx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_lists_have_the_pinned_shapes() {
        let sizes: Vec<usize> = WORKLOADS.iter().map(|w| w.jobs(7).len()).collect();
        assert_eq!(sizes, vec![60, 13, 4]);
        for w in &WORKLOADS {
            for j in w.jobs(7) {
                assert_eq!(j.seed, 7);
                j.materialize().unwrap();
            }
        }
        let sweep = WORKLOADS[1].jobs(REFERENCE_SEED);
        assert_eq!(sweep[12].id, "policy_search_rank/mcf/das_feedback");
        assert_eq!(sweep[12].ov.policy.as_deref(), Some("feedback"));
        let designs: Vec<&str> = sweep[..6].iter().map(|j| j.design.as_str()).collect();
        assert_eq!(designs, ["std", "das", "tl", "clr", "lisa", "salp"]);
    }
}
