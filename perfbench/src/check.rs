//! Output correctness.
//!
//! At the reference seed every job's rendered run report must hash to the
//! digest recorded in `expected/seed42.json`, and every exact per-layer
//! count must equal the recorded value. At any other seed (held out: no
//! recording exists for it) each report must satisfy the accounting
//! invariants that `tests/stats_consistency.rs` asserts for the simulator.

use std::collections::BTreeMap;

use das_harness::manifest::{parse_design, JobSpec};
use das_sim::config::Design;
use das_telemetry::json::{self, Value};
use das_trace::Fingerprint;

/// The recording this build checks against.
const EXPECTED: &str = include_str!("../expected/seed42.json");

/// What was recorded for one workload at the reference seed.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Recorded {
    /// Report digest by job id.
    pub digests: BTreeMap<String, String>,
    /// Exact per-layer counts by metric name.
    pub counts: BTreeMap<String, u64>,
}

/// The reference recording: per-core instruction budget it was made at,
/// and one [`Recorded`] per workload.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Recording {
    /// `INSTS` at recording time.
    pub insts: u64,
    /// By workload name.
    pub workloads: BTreeMap<String, Recorded>,
}

impl Recording {
    /// Parses a recording document.
    ///
    /// # Errors
    ///
    /// Malformed JSON or a missing/mistyped field.
    pub fn parse(text: &str) -> Result<Recording, String> {
        let v = json::parse(text)?;
        let insts = v
            .get("insts")
            .and_then(Value::as_u64)
            .ok_or("recording: no insts")?;
        let mut workloads = BTreeMap::new();
        if let Some(Value::Obj(pairs)) = v.get("workloads") {
            for (name, w) in pairs {
                let mut rec = Recorded::default();
                if let Some(Value::Obj(d)) = w.get("digests") {
                    for (id, h) in d {
                        let h = h.as_str().ok_or("recording: digest is not a string")?;
                        rec.digests.insert(id.clone(), h.to_string());
                    }
                }
                if let Some(Value::Obj(c)) = w.get("counts") {
                    for (k, n) in c {
                        let n = n.as_u64().ok_or("recording: count is not an integer")?;
                        rec.counts.insert(k.clone(), n);
                    }
                }
                workloads.insert(name.clone(), rec);
            }
        }
        Ok(Recording { insts, workloads })
    }

    /// The recording compiled into this build.
    ///
    /// # Errors
    ///
    /// As [`Recording::parse`].
    pub fn builtin() -> Result<Recording, String> {
        Recording::parse(EXPECTED)
    }

    /// Renders the document `parse` reads, one entry per line.
    pub fn render(&self) -> String {
        let mut ws = Value::obj();
        for (name, rec) in &self.workloads {
            let mut d = Value::obj();
            for (id, h) in &rec.digests {
                d = d.set(id, h.as_str());
            }
            let mut c = Value::obj();
            for (k, n) in &rec.counts {
                c = c.set(k, *n);
            }
            ws = ws.set(name, Value::obj().set("digests", d).set("counts", c));
        }
        let doc = Value::obj().set("insts", self.insts).set("workloads", ws);
        let mut out = String::new();
        pretty(&doc, 0, &mut out);
        out
    }
}

/// Renders nested objects with one member per line; leaves stay compact.
fn pretty(v: &Value, depth: usize, out: &mut String) {
    match v {
        Value::Obj(pairs) if !pairs.is_empty() => {
            out.push_str("{\n");
            for (i, (k, x)) in pairs.iter().enumerate() {
                out.push_str(&"  ".repeat(depth + 1));
                out.push_str(&Value::Str(k.clone()).render());
                out.push_str(": ");
                pretty(x, depth + 1, out);
                out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
            }
            out.push_str(&"  ".repeat(depth));
            out.push('}');
        }
        leaf => out.push_str(&leaf.render()),
    }
}

/// Content digest of a report: FNV-1a/128 over its rendered bytes.
pub fn digest(report: &Value) -> String {
    let mut fp = Fingerprint::new();
    fp.write_bytes(report.render().as_bytes());
    fp.hex()
}

/// Checks one job's report: against the recorded digest when `recorded`
/// is given (the reference seed), against the accounting invariants
/// always.
///
/// # Errors
///
/// A message naming the job and the first violated property.
pub fn check_report(
    job: &JobSpec,
    report: &Value,
    recorded: Option<&Recorded>,
) -> Result<(), String> {
    invariants(job, report).map_err(|e| format!("{}: {e}", job.id))?;
    if let Some(rec) = recorded {
        let want = rec
            .digests
            .get(&job.id)
            .ok_or_else(|| format!("{}: no recorded digest", job.id))?;
        let got = digest(report);
        if &got != want {
            return Err(format!(
                "{}: report digest {got} differs from the recorded {want}",
                job.id
            ));
        }
    }
    Ok(())
}

/// Checks exact counts against the recording; names every drifted count.
///
/// # Errors
///
/// The list of counts that differ from (or are missing in) the recording.
pub fn check_counts(counts: &BTreeMap<&str, u64>, rec: &Recorded) -> Result<(), String> {
    let mut drift = Vec::new();
    for (k, v) in counts {
        match rec.counts.get(*k) {
            Some(want) if want == v => {}
            Some(want) => drift.push(format!("{k}={v} (recorded {want})")),
            None => drift.push(format!("{k}={v} (not recorded)")),
        }
    }
    for k in rec.counts.keys() {
        if !counts.contains_key(k.as_str()) {
            drift.push(format!("{k} missing (recorded {})", rec.counts[k]));
        }
    }
    if drift.is_empty() {
        Ok(())
    } else {
        Err(format!("exact counts drifted: {}", drift.join(", ")))
    }
}

fn u(report: &Value, path: &str) -> Result<u64, String> {
    report
        .get_path(path)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("report has no integer {path}"))
}

fn f(report: &Value, path: &str) -> Result<f64, String> {
    report
        .get_path(path)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("report has no number {path}"))
}

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Accounting invariants every run report must satisfy.
fn invariants(job: &JobSpec, r: &Value) -> Result<(), String> {
    let design = parse_design(&job.design)?;
    ensure(
        r.get("design").and_then(Value::as_str) == Some(design.label()),
        || format!("design label is not {}", design.label()),
    )?;
    let accesses = u(r, "metrics/memory_accesses")?;
    let (rb, fast, slow) = (
        u(r, "metrics/access_mix/row_buffer")?,
        u(r, "metrics/access_mix/fast")?,
        u(r, "metrics/access_mix/slow")?,
    );
    ensure(rb + fast + slow == accesses, || {
        format!("access mix {rb}+{fast}+{slow} != memory_accesses {accesses}")
    })?;
    if accesses > 0 {
        let fr = f(r, "metrics/access_mix/row_buffer_frac")?
            + f(r, "metrics/access_mix/fast_frac")?
            + f(r, "metrics/access_mix/slow_frac")?;
        ensure(close(fr, 1.0), || {
            format!("access-mix fractions sum to {fr}")
        })?;
    }
    let cores = r
        .get_path("metrics/cores")
        .and_then(Value::as_arr)
        .ok_or("report has no core array")?;
    let want_cores = match job.coherent_spec()? {
        Some((spec, _)) => spec.cores,
        None => 1,
    };
    ensure(cores.len() == want_cores, || {
        format!("{} cores reported, {want_cores} simulated", cores.len())
    })?;
    let mut insts = 0;
    let mut misses = 0;
    for c in cores {
        let ci = c
            .get("insts")
            .and_then(Value::as_u64)
            .ok_or("core without insts")?;
        ensure(ci > 0 && ci <= job.insts, || {
            format!("core retired {ci} insts")
        })?;
        insts += ci;
        misses += c
            .get("llc_misses")
            .and_then(Value::as_u64)
            .ok_or("core without llc_misses")?;
    }
    let llc = u(r, "metrics/llc_misses")?;
    ensure(misses == llc, || {
        format!("core misses {misses} != llc_misses {llc}")
    })?;
    let mpki = f(r, "metrics/mpki")?;
    ensure(close(mpki, llc as f64 * 1000.0 / insts as f64), || {
        format!("mpki {mpki} disagrees with llc_misses/insts")
    })?;
    let promotions = u(r, "metrics/promotions")?;
    if llc > 0 {
        let ppkm = f(r, "metrics/ppkm")?;
        ensure(close(ppkm, promotions as f64 * 1000.0 / llc as f64), || {
            format!("ppkm {ppkm} disagrees with promotions/llc_misses")
        })?;
    }
    ensure(f(r, "metrics/ipc_sum")? > 0.0, || {
        "ipc_sum is not positive".into()
    })?;
    let lookups = u(r, "metrics/translation/hits")? + u(r, "metrics/translation/misses")?;
    let table_reads = u(r, "metrics/table_fetch_reads")?;
    if !design.is_asymmetric() {
        ensure(lookups == 0 && table_reads == 0 && promotions == 0, || {
            format!("unmanaged design has translation stats ({lookups} lookups, {table_reads} table reads, {promotions} promotions)")
        })?;
    }
    if design.is_dynamic() && !design.is_inclusive() {
        ensure(lookups > 0, || {
            "managed design made no translation lookups".into()
        })?;
    }
    if matches!(design, Design::Standard | Design::Salp) {
        ensure(fast == 0, || {
            "slow-only design reports fast activations".into()
        })?;
    }
    let (active, total) = (
        u(r, "metrics/active_subarrays")?,
        u(r, "metrics/total_subarrays")?,
    );
    ensure(active > 0 && active <= total, || {
        format!("active subarrays {active} of {total}")
    })?;
    let burst = f(r, "metrics/energy_nj/burst")?;
    let background = f(r, "metrics/energy_nj/background")?;
    let energy = f(r, "metrics/energy_nj/total")?;
    ensure(burst > 0.0 && background > 0.0 && energy >= burst, || {
        format!("energy breakdown burst={burst} background={background} total={energy}")
    })?;
    ensure(u(r, "metrics/faults/injected")? == 0, || {
        "faults injected without a fault plan".into()
    })?;
    match job.coherent_spec()? {
        Some((_, protocol)) => {
            let label = r
                .get_path("metrics/coherence/protocol")
                .and_then(Value::as_str)
                .ok_or("coherent job without a coherence block")?;
            ensure(label == protocol.label(), || {
                format!("coherence protocol {label} is not {}", protocol.label())
            })?;
            let hit = f(r, "metrics/coherence/l1_hit_rate")?;
            ensure((0.0..=1.0).contains(&hit), || format!("l1 hit rate {hit}"))?;
        }
        None => ensure(r.get_path("metrics/coherence").is_none(), || {
            "classic job reports a coherence block".into()
        })?,
    }
    ensure(
        r.get_path("metrics/policy").is_some() == job.ov.policy.is_some(),
        || "policy block present without a policy override, or missing with one".into(),
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_harness::manifest::Overrides;
    use das_harness::profile::ProfileCache;
    use std::path::Path;

    fn job(design: &str) -> JobSpec {
        JobSpec {
            id: format!("t/{design}"),
            design: design.into(),
            workload: "mcf".into(),
            insts: 60_000,
            scale: 64,
            seed: 42,
            ov: Overrides::default(),
        }
    }

    fn report(j: &JobSpec) -> Value {
        das_harness::runner::execute(j, &ProfileCache::new(), Path::new("."), None).unwrap()
    }

    /// Rewrites one integer leaf of a report.
    fn perturb(v: &Value, path: &[&str], delta: u64) -> Value {
        match (v, path) {
            (Value::U64(n), []) => Value::U64(n + delta),
            (Value::Obj(pairs), [head, rest @ ..]) => Value::Obj(
                pairs
                    .iter()
                    .map(|(k, x)| {
                        if k == head {
                            (k.clone(), perturb(x, rest, delta))
                        } else {
                            (k.clone(), x.clone())
                        }
                    })
                    .collect(),
            ),
            _ => panic!("no integer at {path:?}"),
        }
    }

    #[test]
    fn clean_reports_pass_invariants_for_every_design_kind() {
        for d in ["std", "das", "sas", "tl", "salp", "fs"] {
            let j = job(d);
            check_report(&j, &report(&j), None).unwrap();
        }
    }

    #[test]
    fn perturbed_report_is_caught_by_invariants_and_by_digest() {
        let j = job("das");
        let clean = report(&j);
        let mut rec = Recorded::default();
        rec.digests.insert(j.id.clone(), digest(&clean));
        check_report(&j, &clean, Some(&rec)).unwrap();

        // A count the access mix no longer adds up to: both checks fire.
        let bad = perturb(&clean, &["metrics", "memory_accesses"], 1);
        let e = check_report(&j, &bad, None).unwrap_err();
        assert!(e.contains("access mix"), "{e}");
        assert!(check_report(&j, &bad, Some(&rec)).is_err());

        // A change that keeps every invariant is still caught by the digest.
        let subtle = perturb(&clean, &["metrics", "footprint_bytes"], 4096);
        check_report(&j, &subtle, None).unwrap();
        let e = check_report(&j, &subtle, Some(&rec)).unwrap_err();
        assert!(e.contains("digest"), "{e}");
    }

    #[test]
    fn unmanaged_design_with_translation_stats_is_caught() {
        let j = job("std");
        let bad = perturb(&report(&j), &["metrics", "translation", "hits"], 3);
        let e = check_report(&j, &bad, None).unwrap_err();
        assert!(e.contains("unmanaged"), "{e}");
    }

    #[test]
    fn count_drift_is_named() {
        let mut rec = Recorded::default();
        rec.counts.insert("cache.llc_misses".into(), 10);
        let mut counts = BTreeMap::new();
        counts.insert("cache.llc_misses", 10);
        check_counts(&counts, &rec).unwrap();
        counts.insert("cache.llc_misses", 11);
        let e = check_counts(&counts, &rec).unwrap_err();
        assert!(e.contains("cache.llc_misses=11 (recorded 10)"), "{e}");
    }

    #[test]
    fn recording_round_trips_and_builtin_parses() {
        let mut r = Recording {
            insts: 5,
            ..Recording::default()
        };
        let mut w = Recorded::default();
        w.digests.insert("a/b/c".into(), "00ff".into());
        w.counts.insert("x.y".into(), 3);
        r.workloads.insert("wl".into(), w);
        assert_eq!(Recording::parse(&r.render()).unwrap(), r);
        Recording::builtin().unwrap();
    }
}
