//! `dasctl` — the `das-serve` client.
//!
//! Subcommands: `submit` (submit experiments, stream results, render the
//! same `<id>.txt` / `<id>.json` artifacts a direct `harness` run
//! writes), `status`, `watch`, `cancel`, `stats` (one-shot JSON),
//! `metrics` (Prometheus exposition text), `list`, `drain`.
//!
//! Every command targets one server, `--addr HOST:PORT`. `submit`
//! retries `busy` rejections with capped seeded-jitter backoff.
//! Malformed arguments exit 2; runtime failures exit 1.

use std::path::PathBuf;
use std::time::Duration;

use das_harness::cli::{build_catalog_manifest, render_experiment_outputs};
use das_serve::client::{collect_stream, into_ok, Client};
use das_serve::proto;
use das_serve::retry::BackoffPolicy;
use das_telemetry::json::Value;

const USAGE: &str = "usage: dasctl <command> --addr HOST:PORT [options]\n\
  submit  --exp a,b [--insts N] [--scale N] [--only a,b] [--out-dir DIR]\n\
          [--seed N] [--max-attempts N]\n\
  status  --job ID\n\
  watch   --job ID\n\
  cancel  --job ID\n\
  stats\n\
  metrics\n\
  list\n\
  drain   [--wait]";

#[derive(Debug, PartialEq, Eq)]
enum Command {
    Submit {
        exps: Vec<String>,
        insts: u64,
        scale: u32,
        only: Vec<String>,
        out_dir: String,
        seed: u64,
        max_attempts: u32,
    },
    Status {
        job: String,
    },
    Watch {
        job: String,
    },
    Cancel {
        job: String,
    },
    Stats,
    Metrics,
    List,
    Drain {
        wait: bool,
    },
}

#[derive(Debug, PartialEq, Eq)]
struct Args {
    addr: String,
    command: Command,
}

fn need(args: &mut dyn Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn need_u64(args: &mut dyn Iterator<Item = String>, flag: &str) -> Result<u64, String> {
    let v = need(args, flag)?;
    match v.parse::<u64>() {
        Ok(0) => Err(format!("{flag} needs a positive integer, got 0")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("{flag} needs a positive integer, got {v:?}")),
    }
}

fn need_any_u64(args: &mut dyn Iterator<Item = String>, flag: &str) -> Result<u64, String> {
    let v = need(args, flag)?;
    v.parse::<u64>()
        .map_err(|_| format!("{flag} needs an integer, got {v:?}"))
}

fn need_list(args: &mut dyn Iterator<Item = String>, flag: &str) -> Result<Vec<String>, String> {
    Ok(need(args, flag)?.split(',').map(str::to_string).collect())
}

fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
    let mut args = args.into_iter();
    let cmd = args.next().ok_or("missing command")?;
    let mut addr: Option<String> = None;
    let mut exps: Vec<String> = Vec::new();
    let mut insts = 3_000_000u64;
    let mut scale = 64u32;
    let mut only: Vec<String> = Vec::new();
    let mut out_dir = ".".to_string();
    let mut seed = 0u64;
    let mut max_attempts = 8u32;
    let mut job: Option<String> = None;
    let mut wait = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => addr = Some(need(&mut args, "--addr")?),
            "--exp" => exps = need_list(&mut args, "--exp")?,
            "--insts" => insts = need_u64(&mut args, "--insts")?,
            "--scale" => {
                scale = u32::try_from(need_u64(&mut args, "--scale")?)
                    .map_err(|_| "--scale is out of range".to_string())?;
            }
            "--only" => only = need_list(&mut args, "--only")?,
            "--out-dir" => out_dir = need(&mut args, "--out-dir")?,
            "--seed" => seed = need_any_u64(&mut args, "--seed")?,
            "--max-attempts" => {
                max_attempts = u32::try_from(need_u64(&mut args, "--max-attempts")?)
                    .map_err(|_| "--max-attempts is out of range".to_string())?;
            }
            "--job" => job = Some(need(&mut args, "--job")?),
            "--wait" => wait = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let addr = addr.ok_or("--addr HOST:PORT is required")?;
    let job_for =
        |cmd: &str, job: Option<String>| job.ok_or_else(|| format!("{cmd} needs --job ID"));
    let command = match cmd.as_str() {
        "submit" => {
            if exps.is_empty() {
                return Err("submit needs --exp a,b".into());
            }
            Command::Submit {
                exps,
                insts,
                scale,
                only,
                out_dir,
                seed,
                max_attempts,
            }
        }
        "status" => Command::Status {
            job: job_for("status", job)?,
        },
        "watch" => Command::Watch {
            job: job_for("watch", job)?,
        },
        "cancel" => Command::Cancel {
            job: job_for("cancel", job)?,
        },
        "stats" => Command::Stats,
        "metrics" => Command::Metrics,
        "list" => Command::List,
        "drain" => Command::Drain { wait },
        other => return Err(format!("unknown command {other:?}")),
    };
    Ok(Args { addr, command })
}

fn str_arr(items: &[String]) -> Value {
    Value::Arr(items.iter().map(|s| Value::Str(s.clone())).collect())
}

fn backoff(seed: u64, max_attempts: u32) -> BackoffPolicy {
    BackoffPolicy {
        max_attempts,
        seed,
        ..BackoffPolicy::default()
    }
}

/// Single-server `submit_experiment` with `busy` honored: the request is
/// retried with capped seeded-jitter backoff, flooring each delay at the
/// server's `retry_after_ms` hint, instead of failing hard.
fn submit_experiment_backed_off(
    client: &mut Client,
    req: &Value,
    policy: &BackoffPolicy,
) -> Result<Value, String> {
    let mut attempt = 0u32;
    loop {
        client.send(req)?;
        let resp = client
            .next_frame()
            .map_err(|e| format!("no response: {e}"))?;
        match proto::error_of(&resp) {
            Some(("busy", msg)) => {
                let hint = resp
                    .get_path("error/retry_after_ms")
                    .and_then(Value::as_u64);
                match policy.delay_ms(attempt, hint) {
                    Some(ms) => {
                        attempt += 1;
                        eprintln!("busy ({msg}); retry {attempt} in {ms} ms");
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                    None => return Err(format!("busy: {msg} (gave up after {attempt} retries)")),
                }
            }
            _ => return into_ok(resp),
        }
    }
}

/// The `submit` flow: submit the experiments, stream every job's result,
/// and render the artifacts through the exact code path a direct
/// `harness` run uses — server-fetched `<id>.txt` / `<id>.json` are
/// byte-identical to a local run's.
#[allow(clippy::too_many_arguments)]
fn cmd_submit(
    addr: &str,
    manifest: &das_harness::manifest::Manifest,
    exps: &[String],
    insts: u64,
    scale: u32,
    only: &[String],
    out_dir: &str,
    policy: &BackoffPolicy,
) -> Result<(), String> {
    let mut client = Client::connect(addr)?;
    let req = proto::request("submit_experiment")
        .set("exp", str_arr(exps))
        .set("insts", insts)
        .set("scale", u64::from(scale))
        .set("only", str_arr(only));
    let resp = submit_experiment_backed_off(&mut client, &req, policy)?;
    let jobs: Vec<String> = resp
        .get("jobs")
        .and_then(Value::as_arr)
        .map(|arr| {
            arr.iter()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect()
        })
        .ok_or("server response carries no job list")?;
    eprintln!("submitted {} jobs (ticket-prefixed ids)", jobs.len());
    let reports = collect_stream(&mut client, &jobs, |job, state| {
        eprintln!("{job}: {state}");
    })?;
    let out = PathBuf::from(out_dir);
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {out_dir}: {e}"))?;
    render_experiment_outputs(&out, manifest, &reports, false)?;
    println!(
        "fetched {} runs across {} experiments -> {}",
        reports.len(),
        manifest.experiments.len(),
        out.display()
    );
    Ok(())
}

fn cmd_watch(addr: &str, job: &str) -> Result<(), String> {
    let mut client = Client::connect(addr)?;
    let jobs = vec![job.to_string()];
    let reports = collect_stream(&mut client, &jobs, |job, state| {
        eprintln!("{job}: {state}");
    })?;
    println!("{}", reports[0].render());
    Ok(())
}

fn one_shot(addr: &str, req: Value) -> Result<Value, String> {
    Client::connect(addr)?.request(&req)
}

fn run(args: Args) -> Result<(), String> {
    let addr = args.addr.as_str();
    match &args.command {
        Command::Submit {
            exps,
            insts,
            scale,
            only,
            out_dir,
            seed,
            max_attempts,
        } => {
            // Build the manifest locally first: unknown experiment ids
            // fail before any network traffic, and rendering needs the
            // job layout.
            let manifest = build_catalog_manifest(exps, *insts, *scale, only)?;
            manifest
                .validate()
                .map_err(|e| format!("invalid run matrix: {e}"))?;
            cmd_submit(
                addr,
                &manifest,
                exps,
                *insts,
                *scale,
                only,
                out_dir,
                &backoff(*seed, *max_attempts),
            )
        }
        Command::Status { job } => {
            let resp = one_shot(addr, proto::request("status").set("job", job.as_str()))?;
            println!("{}", resp.render());
            Ok(())
        }
        Command::Watch { job } => cmd_watch(addr, job),
        Command::Cancel { job } => {
            let resp = one_shot(addr, proto::request("cancel").set("job", job.as_str()))?;
            println!("{}", resp.render());
            Ok(())
        }
        Command::Stats => {
            println!("{}", one_shot(addr, proto::request("stats"))?.render());
            Ok(())
        }
        Command::Metrics => {
            let resp = one_shot(addr, proto::request("metrics"))?;
            let body = resp
                .get("body")
                .and_then(Value::as_str)
                .ok_or("metrics response carries no body")?;
            print!("{body}");
            Ok(())
        }
        Command::List => {
            let resp = one_shot(addr, proto::request("list"))?;
            print!("{}", render_grouped_list(&resp));
            Ok(())
        }
        Command::Drain { wait } => {
            let mut client = Client::connect(addr)?;
            // Draining can outlive any default read timeout; block as
            // long as the server needs.
            let _ = client.set_read_timeout(None);
            let resp = client.request(&proto::request("drain").set("wait", *wait))?;
            println!("{}", resp.render());
            Ok(())
        }
    }
}

/// The experiment family of a served job id (`<ticket>/<exp>/...`): the
/// first path segment naming a catalog experiment decides, so ticket
/// prefixes and client-chosen (`as`) id prefixes group correctly. Ids
/// with no catalog segment fall into `other`.
fn job_family(id: &str) -> &str {
    id.split('/')
        .find(|seg| das_harness::catalog::by_id(seg).is_some())
        .map(das_harness::catalog::family_of)
        .unwrap_or("other")
}

/// Renders a `list` response grouped by experiment family: the server's
/// catalog stays readable as families grow (the six `cross_arch_*`
/// entries fold into one group instead of flattening the listing), and
/// tracked jobs are grouped the same way.
fn render_grouped_list(resp: &Value) -> String {
    use std::fmt::Write as _;
    let mut o = String::new();
    // Available catalog, grouped by family in presentation order.
    let ids = das_harness::catalog::ids();
    let mut families: Vec<&str> = Vec::new();
    for id in &ids {
        let f = das_harness::catalog::family_of(id);
        if !families.contains(&f) {
            families.push(f);
        }
    }
    let _ = writeln!(
        o,
        "catalog: {} experiments in {} families",
        ids.len(),
        families.len()
    );
    for fam in &families {
        let members: Vec<&str> = ids
            .iter()
            .copied()
            .filter(|id| das_harness::catalog::family_of(id) == *fam)
            .collect();
        let _ = writeln!(o, "  {:<12} {}", fam, members.join(" "));
    }
    // Tracked jobs, grouped the same way (insertion order of families).
    let empty = Vec::new();
    let jobs = match resp.get("jobs") {
        Some(Value::Arr(jobs)) => jobs,
        _ => &empty,
    };
    let _ = writeln!(o, "jobs: {}", jobs.len());
    let mut groups: Vec<(&str, Vec<String>)> = Vec::new();
    for j in jobs {
        let id = j.get("job").and_then(Value::as_str).unwrap_or("?");
        let state = j.get("state").and_then(Value::as_str).unwrap_or("?");
        let fam = job_family(id);
        let line = format!("    {id:<44} {state}");
        match groups.iter_mut().find(|(f, _)| *f == fam) {
            Some((_, lines)) => lines.push(line),
            None => groups.push((fam, vec![line])),
        }
    }
    for (fam, lines) in &groups {
        let _ = writeln!(o, "  {fam}:");
        for line in lines {
            let _ = writeln!(o, "{line}");
        }
    }
    o
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Err(e) = run(args) {
        eprintln!("dasctl: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_each_command() {
        let a = parse_args(argv(&[
            "submit",
            "--addr",
            "127.0.0.1:4750",
            "--exp",
            "fig8a,fig8b",
            "--insts",
            "100000",
            "--scale",
            "8",
            "--only",
            "mcf",
            "--out-dir",
            "results",
        ]))
        .unwrap();
        assert_eq!(a.addr, "127.0.0.1:4750");
        assert_eq!(
            a.command,
            Command::Submit {
                exps: vec!["fig8a".into(), "fig8b".into()],
                insts: 100_000,
                scale: 8,
                only: vec!["mcf".into()],
                out_dir: "results".into(),
                seed: 0,
                max_attempts: 8,
            }
        );
        // The busy-backoff knobs: `--seed 0` is legal, attempts positive.
        let a = parse_args(argv(&[
            "submit",
            "--addr",
            "h:1",
            "--exp",
            "scale",
            "--seed",
            "0",
            "--max-attempts",
            "5",
        ]))
        .unwrap();
        match a.command {
            Command::Submit {
                seed, max_attempts, ..
            } => assert_eq!((seed, max_attempts), (0, 5)),
            other => panic!("wrong command: {other:?}"),
        }
        let a = parse_args(argv(&["status", "--addr", "h:1", "--job", "t1/x"])).unwrap();
        assert_eq!(a.command, Command::Status { job: "t1/x".into() });
        let a = parse_args(argv(&["drain", "--addr", "h:1", "--wait"])).unwrap();
        assert_eq!(a.command, Command::Drain { wait: true });
        let a = parse_args(argv(&["stats", "--addr", "h:1"])).unwrap();
        assert_eq!(a.command, Command::Stats);
        let a = parse_args(argv(&["metrics", "--addr", "h:1"])).unwrap();
        assert_eq!(a.command, Command::Metrics);
    }

    #[test]
    fn list_groups_jobs_by_experiment_family() {
        // A synthetic `list` response: ticket-prefixed jobs from three
        // families, including a cross-arch job under a client-chosen id.
        let jobs = vec![
            Value::obj()
                .set("job", "t1/fig7a/mcf/das")
                .set("state", "done"),
            Value::obj()
                .set("job", "t1/cross_arch_rank/mcf/lisa")
                .set("state", "running"),
            Value::obj()
                .set("job", "mine/t2/cross_arch_sweep/mcf/clr_d8")
                .set("state", "queued"),
            Value::obj()
                .set("job", "t3/fault_sweep/das/clean")
                .set("state", "done"),
            Value::obj()
                .set("job", "t4/policy_search_rank/mcf/das_feedback")
                .set("state", "done"),
            Value::obj().set("job", "bogus-id").set("state", "failed"),
        ];
        let resp = proto::ok("list").set("jobs", Value::Arr(jobs));
        let text = render_grouped_list(&resp);
        // Catalog section: one line per family, cross_arch folded into one.
        assert!(text.contains("catalog: "), "{text}");
        let cross_catalog: Vec<&str> = text
            .lines()
            .filter(|l| l.trim_start().starts_with("cross_arch "))
            .collect();
        assert_eq!(cross_catalog.len(), 1, "{text}");
        assert!(cross_catalog[0].contains("cross_arch_rank"), "{text}");
        assert!(cross_catalog[0].contains("cross_arch_area"), "{text}");
        // The policy family folds into its own catalog line too.
        let policy_catalog: Vec<&str> = text
            .lines()
            .filter(|l| l.trim_start().starts_with("policy_search "))
            .collect();
        assert_eq!(policy_catalog.len(), 1, "{text}");
        assert!(policy_catalog[0].contains("policy_search_adapt"), "{text}");
        // Jobs section: grouped headers, members under their family, the
        // client-chosen id resolved by its catalog segment.
        assert!(text.contains("jobs: 6"), "{text}");
        let fam_of_line = |needle: &str| {
            let mut fam = "";
            for line in text.lines() {
                let trimmed = line.trim_start();
                if line.starts_with("  ") && !line.starts_with("    ") && trimmed.ends_with(':') {
                    fam = trimmed.trim_end_matches(':');
                }
                if line.starts_with("    ") && trimmed.contains(needle) {
                    return fam;
                }
            }
            panic!("{needle} not rendered:\n{text}");
        };
        assert_eq!(fam_of_line("t1/fig7a/mcf/das"), "fig7");
        assert_eq!(fam_of_line("t1/cross_arch_rank/mcf/lisa"), "cross_arch");
        assert_eq!(
            fam_of_line("mine/t2/cross_arch_sweep/mcf/clr_d8"),
            "cross_arch"
        );
        assert_eq!(fam_of_line("t3/fault_sweep/das/clean"), "fault_sweep");
        assert_eq!(
            fam_of_line("t4/policy_search_rank/mcf/das_feedback"),
            "policy_search"
        );
        assert_eq!(fam_of_line("bogus-id"), "other");
        // States ride along.
        assert!(text.contains("running"), "{text}");
    }

    #[test]
    fn rejects_each_malformed_invocation() {
        for (args, needle) in [
            (vec![] as Vec<&str>, "missing command"),
            (vec!["frobnicate", "--addr", "h:1"], "unknown command"),
            (vec!["stats"], "--addr HOST:PORT is required"),
            (vec!["stats", "--fleet-dir", "d"], "unknown argument"),
            (vec!["submit", "--addr", "h:1"], "--exp"),
            (
                vec!["submit", "--addr", "h:1", "--exp", "a", "--insts", "x"],
                "--insts",
            ),
            (
                vec!["submit", "--addr", "h:1", "--exp", "a", "--scale", "0"],
                "positive",
            ),
            (vec!["status", "--addr", "h:1"], "needs --job"),
            (vec!["cancel", "--addr", "h:1"], "needs --job"),
            (vec!["watch", "--addr", "h:1"], "needs --job"),
            (
                vec!["drain", "--addr", "h:1", "--bogus"],
                "unknown argument",
            ),
            (
                vec![
                    "submit",
                    "--addr",
                    "h:1",
                    "--exp",
                    "a",
                    "--max-attempts",
                    "0",
                ],
                "positive",
            ),
            (
                vec!["stats", "--addr", "h:1", "--watch"],
                "unknown argument",
            ),
        ] {
            let err = parse_args(argv(&args)).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }
}
