//! Per-layer replays for the traced run.
//!
//! Every layer is measured from outside the simulator: a replay calls the
//! layer's public entry points on the job's own reference streams and
//! times each call. Nothing is probed inside the event loop. The replays
//! chain like the simulator's layers do, but each with a fixed, simple
//! call pattern, so every count they produce is a deterministic function
//! of the job and the code under test:
//!
//! 1. **streams** — the job's per-core reference streams, decoded from
//!    the warmed `.dtr` store with `PrefetchReader` (store-served
//!    workloads) or generated with `TraceGen` / `SharedGen`;
//! 2. **front end** — `Core::dispatch_from` / `Core::complete` per core,
//!    each issued reference walked through `CacheHierarchy::access` (or
//!    `CoherentCluster::access` and the shared LLC for coherent jobs),
//!    every LLC miss filled with `fill_from_memory`; loads complete after
//!    their lookup latency plus a fixed DRAM latency, oldest first;
//! 3. **management** — for dynamic exclusive designs, `DasManager::translate`
//!    and `on_data_access` over the miss stream (promotions committed at
//!    once), and the job's `MigrationPolicy::observe` fed the same
//!    slow-level accesses and epochs;
//! 4. **memctrl** — one `MemoryController` per channel fed the translated
//!    miss stream (addresses decoded with `DramGeometry::decode`) with the
//!    event loop's advance-then-`next_action_time` pattern, so the
//!    duplicate FR-FCFS search shows up in `memctrl.next_action_ns`;
//! 5. **dram** — one `ChannelDevice` per channel driven closed-loop by a
//!    8-entry oldest-first window: each step probes `earliest_issue` for
//!    every window entry's next command and issues the earliest.

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use das_cache::{CacheHierarchy, CacheLevel};
use das_coherence::{ClusterConfig, CoherentCluster};
use das_core::management::{DasManager, PolicyCosts, POLICY_EPOCH_ACCESSES};
use das_cpu::{Core, MemRequest, TraceItem};
use das_dram::geometry::{BankCoord, MemCoord};
use das_dram::{ChannelDevice, DramCommand, MigrationKind, Tick, TimingSet};
use das_harness::manifest::JobSpec;
use das_memctrl::{MemoryController, Request, SwapOp};
use das_policy::{clamp_threshold, AccessStats, EpochStats, PolicyAction, PolicyEvent};
use das_sim::{AddressMap, Design, SystemConfig};
use das_trace::TraceStore;
use das_workloads::dtr;
use das_workloads::shared::{SharedGen, SharedSpec};
use das_workloads::TraceGen;

use crate::util::Tally;

/// Fixed DRAM service latency the front-end replay charges a load that
/// missed the LLC, in CPU cycles (50 ns at 3 GHz).
const DRAM_LATENCY_CYCLES: u64 = 150;

/// Requests the DRAM replay keeps in its per-channel scheduling window.
const DRAM_WINDOW: usize = 8;

/// A controller that neither issues nor moves its wake time for this many
/// consecutive steps at one tick is wedged.
const STALL_LIMIT: u32 = 100_000;

/// The reference streams of one job, one per core.
pub struct Streams {
    /// Items per core, exactly the prefix the simulated core consumes.
    pub per_core: Vec<Vec<TraceItem>>,
}

/// Key of a job's stream set: jobs with the same key replay the same
/// streams (the designs of one workload row).
pub fn stream_key(job: &JobSpec) -> String {
    format!(
        "{}|{}|{}|{}|{:?}|{:?}",
        job.workload, job.seed, job.scale, job.insts, job.ov.cores, job.ov.sharing
    )
}

/// Takes items until their instructions reach `budget` — the prefix a
/// core with that budget consumes (see `das_workloads::dtr`).
fn take_budget(it: impl Iterator<Item = TraceItem>, budget: u64) -> Vec<TraceItem> {
    let mut insts = 0u64;
    let mut out = Vec::new();
    for item in it {
        out.push(item);
        insts += item.insts();
        if insts >= budget {
            break;
        }
    }
    out
}

/// Loads or generates a job's streams, timing the trace / workloads layer.
///
/// # Errors
///
/// Materialisation, store or decode failures.
pub fn load_streams(
    job: &JobSpec,
    store: Option<&TraceStore>,
    tally: &mut Tally,
) -> Result<Streams, String> {
    let (cfg, _, workloads) = job.materialize()?;
    let budget = cfg.inst_budget;
    let mut per_core = Vec::new();
    if let Some((spec, _)) = job.coherent_spec()? {
        let spec = spec.scaled(u64::from(cfg.scale));
        for c in 0..spec.cores {
            let t = Instant::now();
            let items = take_budget(SharedGen::new(spec.clone(), cfg.seed, c), budget);
            tally
                .timer("workloads.gen")
                .add(t.elapsed().as_nanos(), items.len() as u64);
            per_core.push(items);
        }
        return Ok(Streams { per_core });
    }
    for w in workloads.iter().map(|w| w.scaled(u64::from(cfg.scale))) {
        match store {
            Some(store) => {
                let fp = dtr::episode_fingerprint(&w, cfg.seed, cfg.scale, budget);
                let bytes = std::fs::metadata(store.path_of(&fp))
                    .map_err(|e| format!("{}: stored episode missing: {e}", job.id))?
                    .len();
                let t = Instant::now();
                let reader = store
                    .open_stream(&fp)
                    .map_err(|e| format!("{}: cannot open episode: {e}", job.id))?;
                let status = reader.status();
                let items: Vec<TraceItem> = reader.collect();
                let ns = t.elapsed().as_nanos();
                if let Some(e) = status.error() {
                    return Err(format!("{}: episode decode failed: {e}", job.id));
                }
                tally.timer("trace.decode").add(ns, items.len() as u64);
                tally.count("trace.decode_bytes", bytes);
                per_core.push(items);
            }
            None => {
                let t = Instant::now();
                let items = take_budget(TraceGen::new(w, cfg.seed, 0), budget);
                tally
                    .timer("workloads.gen")
                    .add(t.elapsed().as_nanos(), items.len() as u64);
                per_core.push(items);
            }
        }
    }
    Ok(Streams { per_core })
}

/// One DRAM-bound line transfer from the front end.
#[derive(Debug, Clone, Copy)]
struct Miss {
    line: u64,
    is_write: bool,
    at: u64,
}

/// One operation for the memory side: a demand access on a physical row
/// or a row swap.
#[derive(Debug, Clone, Copy)]
enum MemOp {
    Access {
        coord: MemCoord,
        is_write: bool,
        at: Tick,
    },
    Swap(SwapOp),
}

impl MemOp {
    fn at(&self) -> Tick {
        match self {
            MemOp::Access { at, .. } => *at,
            MemOp::Swap(op) => op.arrival,
        }
    }

    fn bank(&self) -> BankCoord {
        match self {
            MemOp::Access { coord, .. } => coord.bank,
            MemOp::Swap(op) => op.bank,
        }
    }
}

/// The coherent front end of a `shared:*` job.
struct Coherent {
    cluster: CoherentCluster,
    shared_bytes: u64,
}

struct FrontEnd<'a> {
    cfg: &'a SystemConfig,
    map: AddressMap,
    hier: CacheHierarchy,
    coherent: Option<Coherent>,
    pending: Vec<VecDeque<(u64, u64)>>,
    misses: Vec<Miss>,
    tally: &'a mut Tally,
}

impl FrontEnd<'_> {
    /// Walks the requests a core just made issueable through the caches.
    fn handle(&mut self, core: usize, reqs: &mut Vec<MemRequest>) {
        let tpc = self.cfg.core.ticks_per_cycle;
        let line_mask = !(self.cfg.hierarchy.line_bytes - 1);
        for r in reqs.drain(..) {
            let at = r.issue_at;
            let mut lat;
            match self.coherent.as_mut() {
                None => {
                    let addr = self.map.map(core, r.addr);
                    let hier = &mut self.hier;
                    let out = self
                        .tally
                        .timer("cache.access")
                        .time(|| hier.access(core, addr, r.is_write));
                    for &wb in &out.dram_writebacks {
                        self.misses.push(Miss {
                            line: wb,
                            is_write: true,
                            at,
                        });
                    }
                    lat = out.lookup_cycles * tpc;
                    if out.level == CacheLevel::Memory {
                        let line = addr & line_mask;
                        self.misses.push(Miss {
                            line,
                            is_write: false,
                            at: at + lat,
                        });
                        let wbs = self
                            .tally
                            .timer("cache.fill")
                            .time(|| hier.fill_from_memory(core, line, r.is_write));
                        for wb in wbs {
                            self.misses.push(Miss {
                                line: wb,
                                is_write: true,
                                at,
                            });
                        }
                        lat += DRAM_LATENCY_CYCLES * tpc;
                    }
                }
                Some(coh) => {
                    let addr = if r.addr < coh.shared_bytes {
                        self.map.map(0, r.addr)
                    } else {
                        self.map.map(core, r.addr)
                    };
                    let line = addr & line_mask;
                    let cluster = &mut coh.cluster;
                    let out = self
                        .tally
                        .timer("coherence.access")
                        .time(|| cluster.access(core, line, r.is_write, at / tpc));
                    for wb in out.writebacks {
                        if !self.hier.llc_write_back(wb) {
                            self.misses.push(Miss {
                                line: wb,
                                is_write: true,
                                at,
                            });
                        }
                    }
                    lat = out.cycles * tpc;
                    if out.fetch_below {
                        let hier = &mut self.hier;
                        let (hit, wbs) = self
                            .tally
                            .timer("cache.access")
                            .time(|| hier.llc_side_access(line));
                        for wb in wbs {
                            self.misses.push(Miss {
                                line: wb,
                                is_write: true,
                                at,
                            });
                        }
                        lat += self.cfg.hierarchy.llc_latency * tpc;
                        if !hit {
                            self.misses.push(Miss {
                                line,
                                is_write: false,
                                at: at + lat,
                            });
                            lat += DRAM_LATENCY_CYCLES * tpc;
                        }
                    }
                }
            }
            if !r.is_write {
                self.pending[core].push_back((r.id, at + lat));
            }
        }
    }
}

/// Drives the cores and caches over the streams; returns the DRAM-bound
/// line transfers in the order they arose.
fn front_end(
    cfg: &SystemConfig,
    job: &JobSpec,
    streams: &Streams,
    tally: &mut Tally,
) -> Result<Vec<Miss>, String> {
    let n = streams.per_core.len();
    let (map, coherent) = match job.coherent_spec()? {
        Some((spec, protocol)) => {
            let spec: SharedSpec = spec.scaled(u64::from(cfg.scale));
            let h = cfg.hierarchy;
            let cluster = CoherentCluster::new(
                protocol,
                ClusterConfig {
                    cores: spec.cores,
                    l1_lines: (h.l1_bytes / h.line_bytes) as usize,
                    line_bytes: h.line_bytes,
                    hit_cycles: h.l1_latency,
                },
            );
            let coh = Coherent {
                cluster,
                shared_bytes: spec.shared_bytes(),
            };
            (AddressMap::new(cfg, &spec.workload_configs()), Some(coh))
        }
        None => {
            let (_, _, workloads) = job.materialize()?;
            let scaled: Vec<_> = workloads
                .iter()
                .map(|w| w.scaled(u64::from(cfg.scale)))
                .collect();
            (AddressMap::new(cfg, &scaled), None)
        }
    };
    let mut fe = FrontEnd {
        cfg,
        map,
        hier: CacheHierarchy::new(cfg.hierarchy, n),
        coherent,
        pending: vec![VecDeque::new(); n],
        misses: Vec::new(),
        tally,
    };
    let mut cores: Vec<Core> = (0..n)
        .map(|_| Core::new(cfg.core, cfg.inst_budget))
        .collect();
    let mut sources: Vec<_> = streams.per_core.iter().map(|s| s.iter().copied()).collect();
    let mut out = Vec::new();
    for c in 0..n {
        let (core, src) = (&mut cores[c], &mut sources[c]);
        fe.tally
            .timer("cpu.dispatch")
            .time(|| core.dispatch_from(src, &mut out));
        fe.handle(c, &mut out);
    }
    loop {
        let mut progressed = false;
        for c in 0..n {
            let Some((id, at)) = fe.pending[c].pop_front() else {
                continue;
            };
            progressed = true;
            let (core, src) = (&mut cores[c], &mut sources[c]);
            fe.tally
                .timer("cpu.complete")
                .time(|| core.complete(id, at, &mut out));
            fe.handle(c, &mut out);
            fe.tally
                .timer("cpu.dispatch")
                .time(|| core.dispatch_from(src, &mut out));
            fe.handle(c, &mut out);
        }
        if !progressed {
            break;
        }
    }
    if let Some(c) = cores.iter().position(|c| !c.is_finished()) {
        return Err(format!(
            "{}: front-end replay left core {c} unfinished",
            job.id
        ));
    }
    Ok(fe.misses)
}

/// Whether the design runs the exclusive dynamic manager (`DasManager`
/// with online promotion).
fn exclusive_dynamic(design: Design) -> bool {
    design.is_asymmetric() && design.is_dynamic() && !design.is_inclusive()
}

/// Translates the miss stream into physical memory operations; for
/// exclusive dynamic designs this drives the management and policy
/// layers.
fn manage(
    cfg: &SystemConfig,
    design: Design,
    timing: &TimingSet,
    misses: &[Miss],
    tally: &mut Tally,
) -> Vec<MemOp> {
    let g = &cfg.geometry;
    if !exclusive_dynamic(design) {
        return misses
            .iter()
            .map(|m| MemOp::Access {
                coord: g.decode(m.line),
                is_write: m.is_write,
                at: Tick::new(m.at),
            })
            .collect();
    }
    let costs = PolicyCosts {
        benefit_ns: timing.slow.trc().as_ns() - timing.fast.trc().as_ns(),
        swap_cost_ns: timing.swap.as_ns(),
    };
    let mut mgr = DasManager::new(cfg.scaled_management(false), g.clone(), cfg.bank_layout());
    let mut policy = cfg.policy.map(|kind| {
        mgr.install_policy(kind.build(), costs);
        PolicyReplay::new(kind.build(), cfg.management.promotion_threshold, costs)
    });
    let mut ops = Vec::with_capacity(misses.len());
    let mut token = 0u64;
    for m in misses {
        let coord = g.decode(m.line);
        let at = Tick::new(m.at);
        let tr = tally
            .timer("core.translate")
            .time(|| mgr.translate(coord.bank, coord.row));
        ops.push(MemOp::Access {
            coord: MemCoord {
                row: tr.phys_row,
                ..coord
            },
            is_write: m.is_write,
            at,
        });
        if m.is_write && !cfg.promote_on_writes {
            continue;
        }
        if let Some(p) = policy.as_mut() {
            p.access(g.global_row_id(coord.bank, coord.row).0, tr.in_fast, tally);
        }
        let swap = tally
            .timer("core.on_data_access")
            .time(|| mgr.on_data_access(coord.bank, coord.row, m.at));
        if let Some(s) = swap {
            mgr.commit_swap(&s, m.at);
            token += 1;
            ops.push(MemOp::Swap(SwapOp {
                token,
                bank: s.bank,
                phys_a: s.promotee_phys,
                phys_b: s.victim_phys,
                kind: MigrationKind::Swap,
                arrival: at,
            }));
        }
    }
    ops
}

/// Feeds a standalone policy instance the events the manager would: one
/// `Access` per slow-level data access and one `Epoch` every
/// `POLICY_EPOCH_ACCESSES` accesses.
struct PolicyReplay {
    policy: Box<dyn das_policy::MigrationPolicy>,
    threshold: u32,
    costs: PolicyCosts,
    counts: HashMap<u64, u32>,
    fill: u64,
    epoch: u64,
    epoch_fast: u64,
    epoch_slow: u64,
    epoch_promotions: u64,
}

impl PolicyReplay {
    fn new(
        policy: Box<dyn das_policy::MigrationPolicy>,
        threshold: u32,
        costs: PolicyCosts,
    ) -> Self {
        PolicyReplay {
            policy,
            threshold,
            costs,
            counts: HashMap::new(),
            fill: 0,
            epoch: 0,
            epoch_fast: 0,
            epoch_slow: 0,
            epoch_promotions: 0,
        }
    }

    fn observe(&mut self, event: PolicyEvent, tally: &mut Tally) -> Vec<PolicyAction> {
        let policy = &mut self.policy;
        let actions = tally
            .timer("policy.observe")
            .time(|| policy.observe(&event));
        for a in &actions {
            if let PolicyAction::AdjustThreshold(d) = a {
                self.threshold = clamp_threshold(i64::from(self.threshold) + i64::from(*d));
            }
        }
        actions
    }

    fn access(&mut self, row: u64, in_fast: bool, tally: &mut Tally) {
        self.fill += 1;
        if self.fill == POLICY_EPOCH_ACCESSES {
            let event = PolicyEvent::Epoch(EpochStats {
                epoch: self.epoch,
                accesses: self.epoch_fast + self.epoch_slow,
                fast_hits: self.epoch_fast,
                slow_hits: self.epoch_slow,
                promotions: self.epoch_promotions,
                threshold: self.threshold,
            });
            self.observe(event, tally);
            self.fill = 0;
            self.epoch += 1;
            self.epoch_fast = 0;
            self.epoch_slow = 0;
            self.epoch_promotions = 0;
        }
        if in_fast {
            self.epoch_fast += 1;
            return;
        }
        self.epoch_slow += 1;
        let count = self.counts.entry(row).or_insert(0);
        *count = count.saturating_add(1);
        let event = PolicyEvent::Access(AccessStats {
            count: *count,
            threshold: self.threshold,
            shared_count: 0,
            benefit_ns: self.costs.benefit_ns,
            swap_cost_ns: self.costs.swap_cost_ns,
            group_busy: false,
        });
        if self.observe(event, tally).contains(&PolicyAction::Promote) {
            self.counts.remove(&row);
            self.epoch_promotions += 1;
        }
    }
}

fn channel_device(cfg: &SystemConfig, timing: TimingSet, ch: usize) -> ChannelDevice {
    ChannelDevice::with_salp(
        ch as u8,
        cfg.geometry.ranks_per_channel,
        cfg.geometry.banks_per_rank,
        cfg.bank_layout(),
        timing,
        cfg.refresh,
        cfg.salp,
    )
}

/// The memory-controller replay: the event loop's wake discipline without
/// the rest of the simulator.
struct Memctrl<'a> {
    ctrls: Vec<MemoryController>,
    wake: Vec<Option<Tick>>,
    stalls: u32,
    last_step: Option<(usize, Tick)>,
    tally: &'a mut Tally,
}

impl Memctrl<'_> {
    /// Advances channel `ch` at `t`, then asks for its next wake.
    fn step(&mut self, ch: usize, t: Tick) -> Result<(), String> {
        let ctrl = &mut self.ctrls[ch];
        let done = self
            .tally
            .timer("memctrl.advance")
            .time(|| ctrl.advance(t))
            .map_err(|e| format!("controller {ch}: {e}"))?;
        self.tally.count("memctrl.completions", done.len() as u64);
        let next = self
            .tally
            .timer("memctrl.next_action")
            .time(|| ctrl.next_action_time(t));
        if done.is_empty() && next == Some(t) && self.last_step == Some((ch, t)) {
            self.stalls += 1;
            if self.stalls > STALL_LIMIT {
                return Err(format!("controller {ch} wedged at tick {}", t.raw()));
            }
        } else {
            self.stalls = 0;
        }
        self.last_step = Some((ch, t));
        self.wake[ch] = next;
        Ok(())
    }

    /// Serves every wake due at or before `now`, channel by channel.
    fn serve_until(&mut self, now: Tick) -> Result<(), String> {
        for ch in 0..self.ctrls.len() {
            while let Some(t) = self.wake[ch].filter(|&t| t <= now) {
                self.step(ch, t)?;
            }
        }
        Ok(())
    }

    fn schedule(&mut self, ch: usize, now: Tick) {
        let ctrl = &mut self.ctrls[ch];
        self.wake[ch] = self
            .tally
            .timer("memctrl.next_action")
            .time(|| ctrl.next_action_time(now));
    }
}

fn memctrl(
    cfg: &SystemConfig,
    timing: TimingSet,
    ops: &[MemOp],
    tally: &mut Tally,
) -> Result<(), String> {
    let channels = cfg.geometry.channels as usize;
    let mut mc = Memctrl {
        ctrls: (0..channels)
            .map(|ch| MemoryController::new(cfg.controller, channel_device(cfg, timing, ch)))
            .collect(),
        wake: vec![None; channels],
        stalls: 0,
        last_step: None,
        tally,
    };
    for ch in 0..channels {
        mc.schedule(ch, Tick::ZERO);
    }
    let mut now = Tick::ZERO;
    let mut next_id = 0u64;
    for op in ops {
        now = now.max(op.at());
        mc.serve_until(now)?;
        let ch = op.bank().channel as usize;
        match *op {
            MemOp::Access {
                coord, is_write, ..
            } => {
                while !(if is_write {
                    mc.ctrls[ch].can_accept_write()
                } else {
                    mc.ctrls[ch].can_accept_read()
                }) {
                    let t = mc.wake[ch].ok_or("full controller with no wake")?;
                    mc.step(ch, t)?;
                    now = now.max(t);
                }
                next_id += 1;
                let req = Request {
                    id: next_id,
                    coord,
                    is_write,
                    arrival: now,
                };
                let ctrl = &mut mc.ctrls[ch];
                mc.tally
                    .timer("memctrl.enqueue")
                    .time(|| ctrl.enqueue(req))
                    .map_err(|e| format!("controller {ch}: {e}"))?;
            }
            MemOp::Swap(swap) => {
                let ctrl = &mut mc.ctrls[ch];
                let swap = SwapOp {
                    arrival: now,
                    ..swap
                };
                mc.tally
                    .timer("memctrl.enqueue")
                    .time(|| ctrl.enqueue_swap(swap));
            }
        }
        mc.schedule(ch, now);
    }
    // Drain: serve the earliest pending wake until every queue is empty.
    loop {
        let next = (0..channels)
            .filter(|&ch| mc.ctrls[ch].backlog() > 0)
            .filter_map(|ch| mc.wake[ch].map(|t| (t, ch)))
            .min();
        match next {
            Some((t, ch)) => mc.step(ch, t)?,
            None => break,
        }
    }
    if let Some(ch) = (0..channels).find(|&ch| mc.ctrls[ch].backlog() > 0) {
        return Err(format!("controller {ch} kept a backlog with no wake"));
    }
    for c in &mc.ctrls {
        let s = c.stats();
        mc.tally.count("memctrl.reads", s.reads);
        mc.tally.count("memctrl.writes", s.writes);
        mc.tally.count("memctrl.swaps", s.swaps);
    }
    Ok(())
}

struct Dram<'a> {
    dev: ChannelDevice,
    now: Tick,
    window: VecDeque<MemOp>,
    tally: &'a mut Tally,
}

impl Dram<'_> {
    /// The next command `op` needs given the bank state.
    fn next_command(&self, op: &MemOp) -> DramCommand {
        match *op {
            MemOp::Access {
                coord, is_write, ..
            } => {
                let (bank, row) = (coord.bank, coord.row);
                if self.dev.is_row_open(bank, row) {
                    if is_write {
                        DramCommand::Write {
                            bank,
                            phys_row: row,
                            col: coord.col,
                        }
                    } else {
                        DramCommand::Read {
                            bank,
                            phys_row: row,
                            col: coord.col,
                        }
                    }
                } else if let Some(open) = self.dev.open_row_in_buffer_of(bank, row) {
                    DramCommand::Precharge {
                        bank,
                        phys_row: open,
                    }
                } else {
                    DramCommand::Activate {
                        bank,
                        phys_row: row,
                    }
                }
            }
            MemOp::Swap(s) => match self.dev.open_rows(s.bank).first() {
                Some(&open) => DramCommand::Precharge {
                    bank: s.bank,
                    phys_row: open,
                },
                None => DramCommand::RowSwap {
                    bank: s.bank,
                    phys_a: s.phys_a,
                    phys_b: s.phys_b,
                    kind: s.kind,
                },
            },
        }
    }

    fn probe(&mut self, cmd: &DramCommand) -> Option<Tick> {
        let (dev, now) = (&self.dev, self.now);
        self.tally
            .timer("dram.earliest_issue")
            .time(|| dev.earliest_issue(cmd, now))
    }

    fn issue(&mut self, cmd: &DramCommand, at: Tick) {
        let dev = &mut self.dev;
        self.tally.timer("dram.issue").time(|| dev.issue(cmd, at));
        self.now = at;
    }

    /// Issues the refresh due now (closing the rank's open rows first),
    /// or else the earliest next command in the window.
    fn step(&mut self) -> Result<(), String> {
        if let Some(rank) = self.dev.refresh_due(self.now) {
            for bank in self.dev.open_banks_of_rank(rank) {
                for row in self.dev.open_rows(bank) {
                    let pre = DramCommand::Precharge {
                        bank,
                        phys_row: row,
                    };
                    let t = self.probe(&pre).ok_or("precharge before refresh refused")?;
                    self.issue(&pre, t);
                }
            }
            let rf = DramCommand::Refresh { rank };
            let t = self
                .probe(&rf)
                .ok_or("refresh refused on a precharged rank")?;
            self.issue(&rf, t);
            self.tally.count("dram.refreshes", 1);
            return Ok(());
        }
        let mut best: Option<(usize, DramCommand, Tick)> = None;
        for i in 0..self.window.len() {
            let cmd = self.next_command(&self.window[i]);
            if let Some(t) = self.probe(&cmd) {
                if best.is_none_or(|(_, _, bt)| t < bt) {
                    best = Some((i, cmd, t));
                }
            }
        }
        let (i, cmd, t) = best.ok_or("no window entry can issue")?;
        self.issue(&cmd, t);
        if cmd.is_column() || matches!(cmd, DramCommand::RowSwap { .. }) {
            self.window.remove(i);
        }
        Ok(())
    }
}

fn dram(
    cfg: &SystemConfig,
    timing: TimingSet,
    ops: &[MemOp],
    tally: &mut Tally,
) -> Result<(), String> {
    let channels = cfg.geometry.channels as usize;
    let mut per_channel: Vec<Vec<MemOp>> = vec![Vec::new(); channels];
    for op in ops {
        per_channel[op.bank().channel as usize].push(*op);
    }
    for (ch, ops) in per_channel.into_iter().enumerate() {
        let mut d = Dram {
            dev: channel_device(cfg, timing, ch),
            now: Tick::ZERO,
            window: VecDeque::with_capacity(DRAM_WINDOW + 1),
            tally,
        };
        for op in ops {
            d.window.push_back(op);
            while d.window.len() >= DRAM_WINDOW {
                d.step().map_err(|e| format!("dram channel {ch}: {e}"))?;
            }
        }
        while !d.window.is_empty() {
            d.step().map_err(|e| format!("dram channel {ch}: {e}"))?;
        }
    }
    Ok(())
}

/// Runs one job through every layer replay, adding timings and exact
/// counts to `tally`.
///
/// # Errors
///
/// Materialisation failures or a replay that cannot make progress.
pub fn replay(job: &JobSpec, streams: &Streams, tally: &mut Tally) -> Result<(), String> {
    let (mut cfg, design, _) = job.materialize()?;
    design.apply_overrides(&mut cfg);
    let timing = cfg.timing_override.unwrap_or_else(|| design.timing());
    let misses = front_end(&cfg, job, streams, tally)?;
    let ops = manage(&cfg, design, &timing, &misses, tally);
    memctrl(&cfg, timing, &ops, tally).map_err(|e| format!("{}: {e}", job.id))?;
    dram(&cfg, timing, &ops, tally).map_err(|e| format!("{}: {e}", job.id))?;
    Ok(())
}
