//! Refactor lock for the `das-policy` family: every promotion decision
//! goes through the `MigrationPolicy` trait, and that must not change
//! paper behaviour.
//!
//! * the **default** run (`cfg.policy == None`) installs `PaperFixed`
//!   but reports no `policy` key, keeping the report schema of runs
//!   that never asked for a policy (CI's golden journal pins its bytes);
//! * an explicit **PaperFixed** request makes the same decisions — every
//!   metric matches the default run exactly, with the report differing
//!   only by the appended `policy` accounting block.

use das_policy::PolicyKind;
use das_sim::config::{Design, SystemConfig};
use das_sim::experiments::run_one;
use das_sim::report::run_report;
use das_workloads::{config::WorkloadConfig, spec};

/// The pinned job set: one streaming and one pointer-chasing benchmark.
const PINNED: [&str; 2] = ["libquantum", "mcf"];

fn wl(name: &str) -> Vec<WorkloadConfig> {
    vec![spec::by_name(name)]
}

fn report_bytes(cfg: &SystemConfig, design: Design, name: &str) -> String {
    let m = run_one(cfg, design, &wl(name)).expect("run completes");
    run_report(&m, None).render()
}

/// The report with its `policy` accounting block spliced out (unchanged
/// when no policy ran). The block holds no nested objects, so it ends at
/// the first `}` after its opening brace.
fn sans_policy(report: &str) -> String {
    match report.find(",\"policy\":{") {
        Some(at) => {
            let end = report[at..].find('}').expect("block closes") + at + 1;
            format!("{}{}", &report[..at], &report[end..])
        }
        None => report.to_string(),
    }
}

#[test]
fn default_runs_never_grow_a_policy_key() {
    let cfg = SystemConfig::test_small();
    for design in [
        Design::Standard,
        Design::DasDram,
        Design::DasDramFm,
        Design::ClrDram,
        Design::Lisa,
    ] {
        let report = report_bytes(&cfg, design, "mcf");
        assert!(
            !report.contains("\"policy\""),
            "{design:?}: runs that ask for no policy must keep the pre-policy schema"
        );
    }
}

#[test]
fn paper_fixed_through_the_trait_is_byte_identical() {
    let cfg = SystemConfig::test_small();
    let ruled_cfg = cfg.clone().with_policy(PolicyKind::PaperFixed);
    for design in [Design::DasDram, Design::Lisa, Design::ClrDram] {
        for name in PINNED {
            let bare = report_bytes(&cfg, design, name);
            let ruled = report_bytes(&ruled_cfg, design, name);
            assert_eq!(
                bare,
                sans_policy(&ruled),
                "{design:?}/{name}: an explicit PaperFixed must reproduce \
                 the default run byte for byte"
            );
            assert!(
                ruled.contains("\"policy\":{\"policy\":\"paper_fixed\""),
                "{design:?}/{name}: the accounting block is appended"
            );
        }
    }
}

#[test]
fn adaptive_policies_actually_change_decisions() {
    // The trait is not a pass-through: at least one adaptive policy must
    // diverge from the default PaperFixed run on the pinned set (cost-aware
    // demands more reuse before paying a 3 tRC swap).
    let cfg = SystemConfig::test_small();
    let cost_cfg = cfg.clone().with_policy(PolicyKind::CostAware);
    let mut diverged = false;
    for name in PINNED {
        let bare = report_bytes(&cfg, Design::DasDram, name);
        let ruled = report_bytes(&cost_cfg, Design::DasDram, name);
        if bare != sans_policy(&ruled) {
            diverged = true;
        }
    }
    assert!(
        diverged,
        "CostAware must change at least one pinned run, else the policy \
         plumbing is dead code"
    );
}

#[test]
fn coherent_runs_feed_sharing_heat_to_policies_deterministically() {
    // Under the coherent front end, sharing-induced accesses aggregate
    // into per-row heat that adaptive policies read. The wiring must be
    // deterministic (replay-exact) and must leave PaperFixed untouched —
    // the paper's filter never looks at the sharing signal.
    use das_sim::experiments::run_one_coherent;
    use das_workloads::shared::{SharedKind, SharedSpec, Sharing};
    let spec = SharedSpec::new(SharedKind::Lock, 2, Sharing::High);
    let proto = das_coherence::ProtocolKind::Mesi;
    let cfg = SystemConfig::test_small();
    let bare = run_one_coherent(&cfg, Design::DasDram, &spec, proto).expect("run");
    for kind in [PolicyKind::PaperFixed, PolicyKind::CostAware] {
        let ruled_cfg = cfg.clone().with_policy(kind);
        let a = run_one_coherent(&ruled_cfg, Design::DasDram, &spec, proto).expect("run");
        let b = run_one_coherent(&ruled_cfg, Design::DasDram, &spec, proto).expect("run");
        let ra = run_report(&a, None).render();
        assert_eq!(ra, run_report(&b, None).render(), "{kind:?}: replay-exact");
        let p = a.policy.as_ref().expect("policy block present");
        assert!(
            p.promotes > 0 || p.holds > 0,
            "{kind:?}: policy observed traffic"
        );
        if kind == PolicyKind::PaperFixed {
            assert_eq!(
                run_report(&bare, None).render(),
                sans_policy(&ra),
                "sharing heat must not perturb the paper's fixed filter"
            );
        }
    }
}

#[test]
fn policies_are_deterministic_across_repeat_runs() {
    let cfg = SystemConfig::test_small();
    for kind in das_policy::ALL_POLICIES {
        let ruled_cfg = cfg.clone().with_policy(kind);
        let a = report_bytes(&ruled_cfg, Design::DasDram, "mcf");
        let b = report_bytes(&ruled_cfg, Design::DasDram, "mcf");
        assert_eq!(a, b, "{kind:?}: replay must be exact");
    }
}
