//! The per-channel memory controller: 32-entry read queue, open-page
//! FR-FCFS scheduling, watermark-based write draining, refresh, and
//! migration (row swap) scheduling (Table 1).
//!
//! The controller is event-driven and passive: the simulator calls
//! [`MemoryController::advance`] with the current tick to let it issue every
//! command that has become legal, and [`MemoryController::next_action_time`]
//! to learn when to wake it next.
//!
//! Each scheduling decision costs one timing probe of the device:
//! - The read and write queues are kept in age order, `(arrival, id)`
//!   ascending, with equal keys in push order. The oldest request is the
//!   head, and the oldest row hit is the first queued request whose row is
//!   open; only that request is probed with `earliest_issue`.
//! - The pick for a tick is memoised. `advance` stops on a pick it cannot
//!   issue yet, and `next_action_time` at the same tick returns that pick
//!   without searching again. The memo is cleared by everything that can
//!   change a pick: `enqueue`, `enqueue_swap` and every issued command.

use core::fmt;

use das_dram::channel::ChannelDevice;
use das_dram::command::DramCommand;
use das_dram::geometry::BankCoord;
use das_dram::tick::Tick;

use crate::request::{Completion, Request, ServiceClass, SwapOp};

/// Errors the controller reports instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerError {
    /// [`MemoryController::enqueue`] was called with the corresponding
    /// queue already full; callers should check `can_accept_*` first.
    QueueOverflow {
        /// Whether the rejected request was a write.
        is_write: bool,
        /// Capacity of the queue that rejected it.
        capacity: usize,
    },
    /// The device produced no data edge for a column command — a device
    /// model inconsistency the simulation must surface, not swallow.
    MissingDataEdge {
        /// Id of the request whose data edge is missing.
        id: u64,
    },
}

impl fmt::Display for ControllerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControllerError::QueueOverflow { is_write, capacity } => {
                let kind = if *is_write { "write" } else { "read" };
                write!(f, "{kind} queue overflow (capacity {capacity})")
            }
            ControllerError::MissingDataEdge { id } => {
                write!(f, "column command for request {id} returned no data edge")
            }
        }
    }
}

impl std::error::Error for ControllerError {}

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PagePolicy {
    /// Leave rows open after column accesses, betting on row-buffer hits
    /// (Table 1's policy).
    #[default]
    Open,
    /// Close rows as soon as no queued request wants them, betting against
    /// locality (saves the precharge from the critical path of conflicts).
    Closed,
}

/// Scheduling discipline for demand requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// First-ready, first-come-first-served: row-buffer hits first, then
    /// oldest (Table 1).
    #[default]
    FrFcfs,
    /// Pure first-come-first-served (scheduler ablation baseline).
    Fcfs,
}

/// Controller configuration (Table 1 defaults).
#[derive(Debug, Clone, Copy)]
pub struct ControllerConfig {
    /// Read-queue capacity (Table 1: 32).
    pub read_queue: usize,
    /// Write-queue capacity.
    pub write_queue: usize,
    /// Scheduling discipline.
    pub scheduler: SchedulerKind,
    /// Row-buffer management policy.
    pub page_policy: PagePolicy,
    /// Start draining writes when the write queue reaches this fill level.
    pub write_drain_high: usize,
    /// Stop draining when it falls to this level.
    pub write_drain_low: usize,
    /// Force a queued migration to the front once it has waited this long.
    pub migration_starvation: Tick,
}

impl ControllerConfig {
    /// The paper's controller: 32-entry request queue, open-page FR-FCFS.
    pub fn paper_default() -> Self {
        ControllerConfig {
            read_queue: 32,
            write_queue: 32,
            scheduler: SchedulerKind::FrFcfs,
            page_policy: PagePolicy::Open,
            write_drain_high: 24,
            write_drain_low: 8,
            migration_starvation: Tick::from_ns_int(2000),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    req: Request,
    /// Set once this request caused an ACT (so its service class is a row
    /// miss even if the row is open by the time the column command goes).
    activated: Option<ServiceClass>,
}

/// Aggregate controller statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ControllerStats {
    /// Reads completed.
    pub reads: u64,
    /// Writes completed.
    pub writes: u64,
    /// Swaps completed.
    pub swaps: u64,
    /// Row-buffer hits among completed data requests.
    pub row_hits: u64,
    /// Fast-level row activations among completed data requests.
    pub fast_misses: u64,
    /// Slow-level row activations among completed data requests.
    pub slow_misses: u64,
    /// Refreshes issued.
    pub refreshes: u64,
    /// Sum of read queueing+service latency in ticks (arrival → data).
    pub read_latency_ticks: u64,
}

/// One scheduling decision: the command, its earliest issue tick, and the
/// bookkeeping role.
type Pick = (DramCommand, Tick, Role);

/// One channel's memory controller. See the [module docs](self).
#[derive(Debug)]
pub struct MemoryController {
    cfg: ControllerConfig,
    channel: ChannelDevice,
    /// Demand queues in age order, `(arrival, id)` ascending.
    reads: Vec<Pending>,
    writes: Vec<Pending>,
    swaps: Vec<SwapOp>,
    draining: bool,
    /// Command-bus spacing: commands are at least one tCK apart.
    last_cmd: Tick,
    first_cmd_issued: bool,
    stats: ControllerStats,
    /// The last pick and the tick it was made for; `None` once the queues
    /// or the device have changed since.
    memo: Option<(Tick, Option<Pick>)>,
}

impl MemoryController {
    /// Creates a controller owning `channel`.
    pub fn new(cfg: ControllerConfig, channel: ChannelDevice) -> Self {
        assert!(cfg.read_queue > 0 && cfg.write_queue > 0);
        assert!(cfg.write_drain_high <= cfg.write_queue);
        assert!(cfg.write_drain_low < cfg.write_drain_high);
        MemoryController {
            cfg,
            channel,
            reads: Vec::new(),
            writes: Vec::new(),
            swaps: Vec::new(),
            draining: false,
            last_cmd: Tick::ZERO,
            first_cmd_issued: false,
            stats: ControllerStats::default(),
            memo: None,
        }
    }

    /// The device owned by this controller.
    pub fn channel(&self) -> &ChannelDevice {
        &self.channel
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// Whether a new read can be accepted.
    pub fn can_accept_read(&self) -> bool {
        self.reads.len() < self.cfg.read_queue
    }

    /// Whether a new write can be accepted.
    pub fn can_accept_write(&self) -> bool {
        self.writes.len() < self.cfg.write_queue
    }

    /// Queued demand requests (reads + writes).
    pub fn queued(&self) -> usize {
        self.reads.len() + self.writes.len()
    }

    /// Queued migrations.
    pub fn queued_swaps(&self) -> usize {
        self.swaps.len()
    }

    /// Queued demand reads (telemetry occupancy sampling).
    pub fn queued_reads(&self) -> usize {
        self.reads.len()
    }

    /// Queued writes awaiting drain (telemetry occupancy sampling).
    pub fn queued_writes(&self) -> usize {
        self.writes.len()
    }

    /// Total scheduling backlog: demand reads + writes + pending swaps.
    /// This is the work the timing engine still has to drain, which is what
    /// the perf profiler's DRAM-stage depth probe samples.
    pub fn backlog(&self) -> usize {
        self.queued() + self.queued_swaps()
    }

    /// Enqueues a demand request, rejecting it with
    /// [`ControllerError::QueueOverflow`] when the corresponding queue is
    /// full (callers should check `can_accept_*` first).
    pub fn enqueue(&mut self, req: Request) -> Result<(), ControllerError> {
        let (accept, capacity, q) = if req.is_write {
            (
                self.can_accept_write(),
                self.cfg.write_queue,
                &mut self.writes,
            )
        } else {
            (self.can_accept_read(), self.cfg.read_queue, &mut self.reads)
        };
        if !accept {
            return Err(ControllerError::QueueOverflow {
                is_write: req.is_write,
                capacity,
            });
        }
        // After every equal key, so ties keep push order.
        let at = q.partition_point(|p| age(&p.req) <= age(&req));
        q.insert(
            at,
            Pending {
                req,
                activated: None,
            },
        );
        self.memo = None;
        Ok(())
    }

    /// Enqueues a row swap.
    pub fn enqueue_swap(&mut self, op: SwapOp) {
        self.swaps.push(op);
        self.memo = None;
    }

    fn cmd_gap(&self) -> Tick {
        self.channel.timing().rank_params().tck
    }

    fn bus_ready(&self, t: Tick) -> Tick {
        if self.first_cmd_issued {
            t.max(self.last_cmd + self.cmd_gap())
        } else {
            t
        }
    }

    /// Issues every command that is legal at or before `now`, returning the
    /// completions generated. Call again at
    /// [`MemoryController::next_action_time`].
    pub fn advance(&mut self, now: Tick) -> Result<Vec<Completion>, ControllerError> {
        let mut out = Vec::new();
        // Cap iterations defensively; each loop issues at most one command.
        for _ in 0..4096 {
            let Some((cmd, at, role)) = self.pick(now) else {
                break;
            };
            if at > now {
                break;
            }
            self.memo = None;
            let outcome = self.channel.issue(&cmd, at);
            self.last_cmd = at;
            self.first_cmd_issued = true;
            match role {
                Role::Refresh => self.stats.refreshes += 1,
                Role::Activate {
                    list,
                    idx,
                    phys_row,
                } => {
                    let service = match self.channel.row_kind(phys_row) {
                        das_dram::SubarrayKind::Fast => ServiceClass::FastMiss,
                        das_dram::SubarrayKind::Slow => ServiceClass::SlowMiss,
                    };
                    self.pending_mut(list, idx).activated = Some(service);
                }
                Role::Precharge => {}
                Role::Column { list, idx } => {
                    let p = self.remove_pending(list, idx);
                    let service = p.activated.unwrap_or(ServiceClass::RowBufferHit);
                    let Some(at_done) = outcome.data_end else {
                        return Err(ControllerError::MissingDataEdge { id: p.req.id });
                    };
                    match service {
                        ServiceClass::RowBufferHit => self.stats.row_hits += 1,
                        ServiceClass::FastMiss => self.stats.fast_misses += 1,
                        ServiceClass::SlowMiss => self.stats.slow_misses += 1,
                    }
                    let latency = at_done - p.req.arrival;
                    if p.req.is_write {
                        self.stats.writes += 1;
                        out.push(Completion::WriteDone {
                            id: p.req.id,
                            at: at_done,
                            service,
                            latency,
                        });
                    } else {
                        self.stats.reads += 1;
                        self.stats.read_latency_ticks += latency.raw();
                        out.push(Completion::ReadDone {
                            id: p.req.id,
                            at: at_done,
                            service,
                            latency,
                        });
                    }
                }
                Role::Swap { idx } => {
                    let op = self.swaps.remove(idx);
                    self.stats.swaps += 1;
                    out.push(Completion::SwapDone {
                        token: op.token,
                        at: outcome.done,
                    });
                }
            }
        }
        Ok(out)
    }

    /// The earliest tick at which [`MemoryController::advance`] could make
    /// progress, or `None` when nothing is queued and no refresh is armed.
    pub fn next_action_time(&mut self, now: Tick) -> Option<Tick> {
        let cmd = self.pick(now).map(|(_, at, _)| at);
        // A refresh deadline that has already passed is handled by
        // `best_command` (which schedules the REF or the precharges leading
        // to it); reporting it here would wedge the caller at `now`.
        let refresh = self.channel.next_refresh_due().filter(|&r| r > now);
        match (cmd, refresh) {
            (Some(a), Some(r)) => Some(a.min(r)),
            (Some(a), None) => Some(a),
            (None, Some(r)) => Some(r),
            (None, None) => None,
        }
    }

    /// The scheduling decision at `now`, memoised until the next enqueue or
    /// issued command (see the [module docs](self)).
    fn pick(&mut self, now: Tick) -> Option<Pick> {
        if let Some((at, pick)) = self.memo {
            if at == now {
                #[cfg(test)]
                {
                    self.update_drain_mode();
                    assert_eq!(pick, self.best_command(now), "stale memoised pick");
                }
                return pick;
            }
        }
        self.update_drain_mode();
        let pick = self.best_command(now);
        self.memo = Some((now, pick));
        pick
    }

    fn update_drain_mode(&mut self) {
        if self.writes.len() >= self.cfg.write_drain_high {
            self.draining = true;
        } else if self.writes.len() <= self.cfg.write_drain_low {
            self.draining = false;
        }
    }

    fn pending_mut(&mut self, list: List, idx: usize) -> &mut Pending {
        match list {
            List::Reads => &mut self.reads[idx],
            List::Writes => &mut self.writes[idx],
        }
    }

    fn remove_pending(&mut self, list: List, idx: usize) -> Pending {
        match list {
            List::Reads => self.reads.remove(idx),
            List::Writes => self.writes.remove(idx),
        }
    }

    fn queue(&self, list: List) -> &[Pending] {
        match list {
            List::Reads => &self.reads,
            List::Writes => &self.writes,
        }
    }

    /// Chooses the next command per the scheduling policy, returning the
    /// command, its earliest issue tick, and the bookkeeping role.
    ///
    /// The demand steps probe the device once each: the age-ordered queues
    /// put the oldest request at the head and the oldest row hit at the
    /// first request whose row is open. Callers go through
    /// [`MemoryController::pick`], which memoises the result for `now`.
    fn best_command(&self, now: Tick) -> Option<Pick> {
        // 1. Refresh when due (mandatory, before new work).
        if let Some(rank) = self.channel.refresh_due(now) {
            let cmd = DramCommand::Refresh { rank };
            if let Some(t) = self.channel.earliest_issue(&cmd, now) {
                return Some((cmd, self.bus_ready(t), Role::Refresh));
            }
            // Banks open: fall through — closing them proceeds below, but
            // block *new* activates to that rank by preferring precharges.
            if let Some(pick) = self.refresh_blocking_precharge(now, rank) {
                return Some(pick);
            }
        }
        // 1b. Starved migrations preempt demand (bounded wait, §5.3).
        if let Some(pick) = self.swap_command(now, true) {
            return Some(pick);
        }
        let serve_writes = self.draining || self.reads.is_empty();
        // 2. Row-buffer hits first (FR-FCFS), oldest first.
        if self.cfg.scheduler == SchedulerKind::FrFcfs {
            if let Some(pick) = self.oldest_row_hit(now, List::Reads) {
                return Some(pick);
            }
            if serve_writes {
                if let Some(pick) = self.oldest_row_hit(now, List::Writes) {
                    return Some(pick);
                }
            }
        }
        // 3. Oldest request's next step.
        if let Some(pick) = self.oldest_next_step(now, List::Reads) {
            return Some(pick);
        }
        if serve_writes {
            if let Some(pick) = self.oldest_next_step(now, List::Writes) {
                return Some(pick);
            }
        }
        // 4. Closed-page housekeeping: close rows nobody queued wants.
        if self.cfg.page_policy == PagePolicy::Closed {
            if let Some(pick) = self.idle_row_precharge(now) {
                return Some(pick);
            }
        }
        // 5. Migrations: when their bank has no queued demand.
        self.swap_command(now, false)
    }

    /// Closed-page policy: propose a PRE for any open row that no queued
    /// request targets.
    fn idle_row_precharge(&self, now: Tick) -> Option<Pick> {
        for rank in 0..self.channel.ranks() {
            for bank in self.channel.open_banks_of_rank(rank) {
                for row in self.channel.open_rows(bank) {
                    let wanted = self
                        .reads
                        .iter()
                        .chain(self.writes.iter())
                        .any(|p| p.req.coord.bank == bank && p.req.coord.row == row);
                    if wanted {
                        continue;
                    }
                    let cmd = DramCommand::Precharge {
                        bank,
                        phys_row: row,
                    };
                    if let Some(t) = self.channel.earliest_issue(&cmd, now) {
                        return Some((cmd, self.bus_ready(t), Role::Precharge));
                    }
                }
            }
        }
        None
    }

    fn refresh_blocking_precharge(&self, now: Tick, rank: u8) -> Option<Pick> {
        // Close any open row of the refreshing rank (oldest-first demand
        // ordering is secondary to refresh urgency).
        for bank_coord in self.open_banks_of_rank(rank) {
            for row in self.channel.open_rows(bank_coord) {
                let cmd = DramCommand::Precharge {
                    bank: bank_coord,
                    phys_row: row,
                };
                if let Some(t) = self.channel.earliest_issue(&cmd, now) {
                    return Some((cmd, self.bus_ready(t), Role::Precharge));
                }
            }
        }
        None
    }

    fn open_banks_of_rank(&self, rank: u8) -> Vec<BankCoord> {
        self.channel.open_banks_of_rank(rank)
    }

    fn oldest_row_hit(&self, now: Tick, list: List) -> Option<Pick> {
        let q = self.queue(list);
        let idx = q
            .iter()
            .position(|p| self.channel.is_row_open(p.req.coord.bank, p.req.coord.row))?;
        let cmd = column_cmd(&q[idx].req);
        let t = self.channel.earliest_issue(&cmd, now);
        debug_assert!(t.is_some(), "an open row admits its column command");
        Some((cmd, self.bus_ready(t?), Role::Column { list, idx }))
    }

    fn oldest_next_step(&self, now: Tick, list: List) -> Option<Pick> {
        // The queue head is its oldest request.
        let p = self.queue(list).first()?;
        let bank = p.req.coord.bank;
        let cmd = match self.channel.open_row_in_buffer_of(bank, p.req.coord.row) {
            Some(row) if row == p.req.coord.row => column_cmd(&p.req),
            Some(_) => DramCommand::Precharge {
                bank,
                phys_row: p.req.coord.row,
            },
            None => DramCommand::Activate {
                bank,
                phys_row: p.req.coord.row,
            },
        };
        let t = self.channel.earliest_issue(&cmd, now)?;
        let t = self.bus_ready(t);
        let role = match cmd {
            DramCommand::Precharge { .. } => Role::Precharge,
            DramCommand::Activate { phys_row, .. } => Role::Activate {
                list,
                idx: 0,
                phys_row,
            },
            _ => Role::Column { list, idx: 0 },
        };
        Some((cmd, t, role))
    }

    fn swap_command(&self, now: Tick, only_starved: bool) -> Option<Pick> {
        for (idx, op) in self.swaps.iter().enumerate() {
            let starving = self.cfg.migration_starvation != Tick::MAX
                && now >= op.arrival + self.cfg.migration_starvation;
            if only_starved && !starving {
                continue;
            }
            let demand_on_bank = self
                .reads
                .iter()
                .chain(self.writes.iter())
                .any(|p| p.req.coord.bank == op.bank);
            if demand_on_bank && !starving {
                continue;
            }
            // Need the bank fully precharged; close open rows first.
            let open = self.channel.open_rows(op.bank);
            if !open.is_empty() {
                for row in open {
                    let cmd = DramCommand::Precharge {
                        bank: op.bank,
                        phys_row: row,
                    };
                    if let Some(t) = self.channel.earliest_issue(&cmd, now) {
                        return Some((cmd, self.bus_ready(t), Role::Precharge));
                    }
                }
                continue;
            }
            let cmd = DramCommand::RowSwap {
                bank: op.bank,
                phys_a: op.phys_a,
                phys_b: op.phys_b,
                kind: op.kind,
            };
            if let Some(t) = self.channel.earliest_issue(&cmd, now) {
                return Some((cmd, self.bus_ready(t), Role::Swap { idx }));
            }
        }
        None
    }
}

fn column_cmd(req: &Request) -> DramCommand {
    if req.is_write {
        DramCommand::Write {
            bank: req.coord.bank,
            phys_row: req.coord.row,
            col: req.coord.col,
        }
    } else {
        DramCommand::Read {
            bank: req.coord.bank,
            phys_row: req.coord.row,
            col: req.coord.col,
        }
    }
}

/// Queue order: oldest arrival first, ids breaking ties.
fn age(req: &Request) -> (Tick, u64) {
    (req.arrival, req.id)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum List {
    Reads,
    Writes,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Role {
    Refresh,
    Precharge,
    Activate {
        list: List,
        idx: usize,
        phys_row: u32,
    },
    Column {
        list: List,
        idx: usize,
    },
    Swap {
        idx: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_dram::geometry::{Arrangement, BankLayout, FastRatio, MemCoord};
    use das_dram::timing::TimingSet;

    fn device(timing: TimingSet, refresh: bool) -> ChannelDevice {
        let layout =
            BankLayout::build(4096, FastRatio::new(1, 8), Arrangement::default(), 128, 512);
        ChannelDevice::new(0, 2, 8, layout, timing, refresh)
    }

    fn ctrl(timing: TimingSet) -> MemoryController {
        MemoryController::new(ControllerConfig::paper_default(), device(timing, false))
    }

    fn read(id: u64, bank: u8, row: u32, col: u32, at: Tick) -> Request {
        Request {
            id,
            coord: MemCoord {
                bank: BankCoord::new(0, 0, bank),
                row,
                col,
            },
            is_write: false,
            arrival: at,
        }
    }

    fn run_until_idle(c: &mut MemoryController, mut now: Tick) -> Vec<Completion> {
        let mut all = Vec::new();
        for _ in 0..100_000 {
            all.extend(c.advance(now).unwrap());
            match c.next_action_time(now) {
                Some(t) if c.queued() > 0 || c.queued_swaps() > 0 => {
                    now = t.max(now + Tick::new(1));
                }
                _ => break,
            }
        }
        all
    }

    #[test]
    fn single_read_closed_bank_latency() {
        let mut c = ctrl(TimingSet::homogeneous_slow());
        let slow_row = c.channel().layout().slow_to_phys(0);
        c.enqueue(read(1, 0, slow_row, 5, Tick::ZERO)).unwrap();
        let done = run_until_idle(&mut c, Tick::ZERO);
        assert_eq!(done.len(), 1);
        let Completion::ReadDone {
            id, at, service, ..
        } = done[0]
        else {
            panic!()
        };
        assert_eq!(id, 1);
        assert_eq!(service, ServiceClass::SlowMiss);
        // ACT at 0, RD at tRCD, data at +CL+burst.
        assert_eq!(at, Tick::from_ns(13.75 + 13.75 + 5.0));
    }

    #[test]
    fn second_read_same_row_is_row_hit() {
        let mut c = ctrl(TimingSet::homogeneous_slow());
        let row = c.channel().layout().slow_to_phys(3);
        c.enqueue(read(1, 0, row, 0, Tick::ZERO)).unwrap();
        c.enqueue(read(2, 0, row, 1, Tick::ZERO)).unwrap();
        let done = run_until_idle(&mut c, Tick::ZERO);
        assert_eq!(done.len(), 2);
        let services: Vec<_> = done
            .iter()
            .map(|d| match d {
                Completion::ReadDone { service, .. } => *service,
                _ => panic!(),
            })
            .collect();
        assert_eq!(
            services,
            [ServiceClass::SlowMiss, ServiceClass::RowBufferHit]
        );
        assert_eq!(c.stats().row_hits, 1);
    }

    #[test]
    fn frfcfs_prefers_row_hit_over_older_conflict() {
        let mut c = ctrl(TimingSet::homogeneous_slow());
        let row_a = c.channel().layout().slow_to_phys(0);
        let row_b = c.channel().layout().slow_to_phys(1);
        // Open row_a via request 1 and let it complete (open-page keeps it).
        c.enqueue(read(1, 0, row_a, 0, Tick::ZERO)).unwrap();
        let first = run_until_idle(&mut c, Tick::ZERO);
        assert_eq!(first.len(), 1);
        // Now: older conflicting request (row_b) and younger row hit (row_a).
        let now = Tick::from_ns(100.0);
        c.enqueue(read(2, 0, row_b, 0, now)).unwrap();
        c.enqueue(read(3, 0, row_a, 1, now + Tick::from_ns(1.0)))
            .unwrap();
        let done = run_until_idle(&mut c, now + Tick::from_ns(1.0));
        let ids: Vec<u64> = done
            .iter()
            .map(|d| match d {
                Completion::ReadDone { id, .. } => *id,
                _ => panic!(),
            })
            .collect();
        assert_eq!(ids, [3, 2], "row hit first under FR-FCFS");
    }

    #[test]
    fn fcfs_serves_in_order() {
        let dev = device(TimingSet::homogeneous_slow(), false);
        let cfg = ControllerConfig {
            scheduler: SchedulerKind::Fcfs,
            ..ControllerConfig::paper_default()
        };
        let mut c = MemoryController::new(cfg, dev);
        let row_a = c.channel().layout().slow_to_phys(0);
        let row_b = c.channel().layout().slow_to_phys(1);
        c.enqueue(read(1, 0, row_a, 0, Tick::ZERO)).unwrap();
        let first = run_until_idle(&mut c, Tick::ZERO);
        assert_eq!(first.len(), 1);
        let now = Tick::from_ns(100.0);
        c.enqueue(read(2, 0, row_b, 0, now)).unwrap();
        c.enqueue(read(3, 0, row_a, 1, now + Tick::from_ns(1.0)))
            .unwrap();
        let done = run_until_idle(&mut c, now + Tick::from_ns(1.0));
        let ids: Vec<u64> = done
            .iter()
            .filter_map(|d| match d {
                Completion::ReadDone { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(ids, [2, 3], "FCFS ignores row locality");
    }

    #[test]
    fn writes_drain_when_reads_absent() {
        let mut c = ctrl(TimingSet::homogeneous_slow());
        let row = c.channel().layout().slow_to_phys(0);
        c.enqueue(Request {
            id: 9,
            coord: MemCoord {
                bank: BankCoord::new(0, 0, 0),
                row,
                col: 0,
            },
            is_write: true,
            arrival: Tick::ZERO,
        })
        .unwrap();
        let done = run_until_idle(&mut c, Tick::ZERO);
        assert!(matches!(done[0], Completion::WriteDone { id: 9, .. }));
        assert_eq!(c.stats().writes, 1);
    }

    #[test]
    fn swap_waits_for_demand_then_runs() {
        let mut c = ctrl(TimingSet::asymmetric());
        let fast = c.channel().layout().fast_to_phys(0);
        let slow = c.channel().layout().slow_to_phys(0);
        c.enqueue(read(1, 0, slow, 0, Tick::ZERO)).unwrap();
        c.enqueue_swap(SwapOp {
            token: 77,
            bank: BankCoord::new(0, 0, 0),
            phys_a: slow,
            phys_b: fast,
            kind: Default::default(),
            arrival: Tick::ZERO,
        });
        let done = run_until_idle(&mut c, Tick::ZERO);
        assert_eq!(done.len(), 2);
        // Read completes first; swap afterwards.
        assert!(matches!(done[0], Completion::ReadDone { id: 1, .. }));
        let Completion::SwapDone { token, at } = done[1] else {
            panic!()
        };
        assert_eq!(token, 77);
        assert!(at >= done[0].at());
        assert_eq!(c.stats().swaps, 1);
    }

    #[test]
    fn swap_on_idle_bank_runs_immediately() {
        let mut c = ctrl(TimingSet::asymmetric());
        let fast = c.channel().layout().fast_to_phys(0);
        let slow = c.channel().layout().slow_to_phys(0);
        c.enqueue_swap(SwapOp {
            token: 5,
            bank: BankCoord::new(0, 0, 3),
            phys_a: slow,
            phys_b: fast,
            kind: Default::default(),
            arrival: Tick::ZERO,
        });
        let done = run_until_idle(&mut c, Tick::ZERO);
        let Completion::SwapDone { at, .. } = done[0] else {
            panic!()
        };
        assert_eq!(at, Tick::from_ns(146.25));
    }

    #[test]
    fn refresh_fires_and_blocks_rank() {
        let dev = device(TimingSet::homogeneous_slow(), true);
        let mut c = MemoryController::new(ControllerConfig::paper_default(), dev);
        // Idle until past tREFI; then a read arrives. Refresh must go first.
        let t = Tick::from_ns(7800.0);
        let row = c.channel().layout().slow_to_phys(0);
        c.enqueue(read(1, 0, row, 0, t)).unwrap();
        let done = run_until_idle(&mut c, t);
        // Both ranks of the channel were due; at least the target's fired.
        assert!(c.stats().refreshes >= 1);
        let Completion::ReadDone { at, .. } = done[0] else {
            panic!()
        };
        assert!(at >= t + Tick::from_ns(160.0), "read waited for tRFC");
    }

    #[test]
    fn refresh_precharges_idle_open_banks() {
        let dev = device(TimingSet::homogeneous_slow(), true);
        let mut c = MemoryController::new(ControllerConfig::paper_default(), dev);
        let row = c.channel().layout().slow_to_phys(0);
        // Open a row; the queue then drains, leaving the bank open (open-page).
        c.enqueue(read(1, 0, row, 0, Tick::ZERO)).unwrap();
        let done = run_until_idle(&mut c, Tick::ZERO);
        assert_eq!(done.len(), 1);
        assert!(c.channel().open_row(BankCoord::new(0, 0, 0)).is_some());
        // Let the refresh deadline pass with an empty queue; step time
        // forward so the precharge → refresh sequence can play out.
        let mut t = Tick::from_ns(8000.0);
        for _ in 0..64 {
            let _ = c.advance(t).unwrap();
            if c.stats().refreshes >= 1 {
                break;
            }
            t += Tick::from_ns(20.0);
        }
        assert!(
            c.stats().refreshes >= 1,
            "idle open bank was closed for refresh"
        );
        assert!(c.channel().open_row(BankCoord::new(0, 0, 0)).is_none());
    }

    #[test]
    fn closed_page_policy_precharges_idle_rows() {
        let cfg = ControllerConfig {
            page_policy: PagePolicy::Closed,
            ..ControllerConfig::paper_default()
        };
        let mut c = MemoryController::new(cfg, device(TimingSet::homogeneous_slow(), false));
        let row = c.channel().layout().slow_to_phys(0);
        c.enqueue(read(1, 0, row, 0, Tick::ZERO)).unwrap();
        let done = run_until_idle(&mut c, Tick::ZERO);
        assert_eq!(done.len(), 1);
        // Step time forward past tRAS: the idle row must get closed.
        let mut now = Tick::from_ns(40.0);
        for _ in 0..16 {
            let _ = c.advance(now).unwrap();
            now += Tick::from_ns(10.0);
        }
        assert!(
            c.channel().open_row(BankCoord::new(0, 0, 0)).is_none(),
            "closed-page must precharge idle rows"
        );
        // Open-page (default) leaves it open.
        let mut c2 = ctrl(TimingSet::homogeneous_slow());
        c2.enqueue(read(1, 0, row, 0, Tick::ZERO)).unwrap();
        let _ = run_until_idle(&mut c2, Tick::ZERO);
        assert!(c2.channel().open_row(BankCoord::new(0, 0, 0)).is_some());
    }

    #[test]
    fn write_drain_watermarks_hold() {
        let mut c = ctrl(TimingSet::homogeneous_slow());
        let row = c.channel().layout().slow_to_phys(0);
        // Below the high watermark and with reads pending, writes wait.
        for i in 0..4u64 {
            c.enqueue(Request {
                id: 100 + i,
                coord: MemCoord {
                    bank: BankCoord::new(0, 0, 1),
                    row,
                    col: i as u32,
                },
                is_write: true,
                arrival: Tick::ZERO,
            })
            .unwrap();
        }
        c.enqueue(read(1, 0, row, 0, Tick::ZERO)).unwrap();
        let done = run_until_idle(&mut c, Tick::ZERO);
        // The read completes; once reads drain, writes go too.
        assert_eq!(c.stats().reads, 1);
        assert_eq!(c.stats().writes, 4);
        assert_eq!(done.len(), 5);
    }

    #[test]
    fn queue_capacity_is_enforced() {
        let mut c = ctrl(TimingSet::homogeneous_slow());
        for i in 0..32 {
            assert!(c.can_accept_read());
            c.enqueue(read(i, (i % 8) as u8, 0, 0, Tick::ZERO)).unwrap();
        }
        assert!(!c.can_accept_read());
        assert!(c.can_accept_write());
        assert!(matches!(
            c.enqueue(read(99, 0, 0, 0, Tick::ZERO)),
            Err(ControllerError::QueueOverflow {
                is_write: false,
                capacity: 32
            })
        ));
    }

    #[test]
    fn fast_rows_complete_sooner_than_slow() {
        let mut c = ctrl(TimingSet::asymmetric());
        let fast = c.channel().layout().fast_to_phys(0);
        c.enqueue(read(1, 0, fast, 0, Tick::ZERO)).unwrap();
        let done = run_until_idle(&mut c, Tick::ZERO);
        let Completion::ReadDone {
            at: fast_at,
            service,
            ..
        } = done[0]
        else {
            panic!()
        };
        assert_eq!(service, ServiceClass::FastMiss);

        let mut c2 = ctrl(TimingSet::asymmetric());
        let slow = c2.channel().layout().slow_to_phys(0);
        c2.enqueue(read(1, 0, slow, 0, Tick::ZERO)).unwrap();
        let done2 = run_until_idle(&mut c2, Tick::ZERO);
        let Completion::ReadDone { at: slow_at, .. } = done2[0] else {
            panic!()
        };
        assert!(fast_at < slow_at, "fast {fast_at} !< slow {slow_at}");
    }

    fn read_ids(done: &[Completion]) -> Vec<u64> {
        done.iter()
            .filter_map(|d| match d {
                Completion::ReadDone { id, .. } => Some(*id),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn older_arrival_enqueued_later_is_the_first_row_hit() {
        let mut c = ctrl(TimingSet::homogeneous_slow());
        let row = c.channel().layout().slow_to_phys(0);
        c.enqueue(read(1, 0, row, 0, Tick::ZERO)).unwrap();
        assert_eq!(run_until_idle(&mut c, Tick::ZERO).len(), 1);
        // Both hit the open row; 3 is pushed last but arrived first.
        let now = Tick::from_ns(200.0);
        c.enqueue(read(2, 0, row, 1, Tick::from_ns(150.0))).unwrap();
        c.enqueue(read(3, 0, row, 2, Tick::from_ns(100.0))).unwrap();
        assert_eq!(read_ids(&run_until_idle(&mut c, now)), [3, 2]);
    }

    #[test]
    fn older_arrival_enqueued_later_takes_the_next_step() {
        let mut c = ctrl(TimingSet::homogeneous_slow());
        let row_a = c.channel().layout().slow_to_phys(0);
        let row_b = c.channel().layout().slow_to_phys(1);
        // The bank is closed, so no row hit exists: the oldest request's
        // ACT goes first, and the younger one then conflicts with it.
        let now = Tick::from_ns(200.0);
        c.enqueue(read(2, 0, row_a, 0, Tick::from_ns(150.0)))
            .unwrap();
        c.enqueue(read(3, 0, row_b, 0, Tick::from_ns(100.0)))
            .unwrap();
        assert_eq!(read_ids(&run_until_idle(&mut c, now)), [3, 2]);
    }

    #[test]
    fn equal_age_keys_are_served_in_push_order() {
        for fast_first in [true, false] {
            let mut c = ctrl(TimingSet::asymmetric());
            let fast = c.channel().layout().fast_to_phys(0);
            let slow = c.channel().layout().slow_to_phys(0);
            let rows = if fast_first {
                [fast, slow]
            } else {
                [slow, fast]
            };
            // Same id and arrival: only push order tells them apart.
            for row in rows {
                c.enqueue(read(7, 0, row, 0, Tick::ZERO)).unwrap();
            }
            let queued: Vec<u32> = c.reads.iter().map(|p| p.req.coord.row).collect();
            assert_eq!(queued, rows);
            let services: Vec<ServiceClass> = run_until_idle(&mut c, Tick::ZERO)
                .iter()
                .map(|d| match d {
                    Completion::ReadDone { service, .. } => *service,
                    _ => panic!(),
                })
                .collect();
            let [first, second] = if fast_first {
                [ServiceClass::FastMiss, ServiceClass::SlowMiss]
            } else {
                [ServiceClass::SlowMiss, ServiceClass::FastMiss]
            };
            assert_eq!(services, [first, second]);
        }
    }

    /// Drives every scheduler/page/refresh/SALP combination with a seeded
    /// stream in the simulator's call pattern. `pick` recomputes the
    /// search on every memo hit under `cfg(test)`, so a change that
    /// misses an invalidation fails here.
    #[test]
    fn memoised_pick_matches_a_fresh_search() {
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for combo in 0..16u32 {
            let layout =
                BankLayout::build(4096, FastRatio::new(1, 8), Arrangement::default(), 128, 512);
            let dev = ChannelDevice::with_salp(
                0,
                2,
                8,
                layout,
                TimingSet::asymmetric(),
                combo & 1 != 0,
                combo & 2 != 0,
            );
            let cfg = ControllerConfig {
                scheduler: if combo & 4 != 0 {
                    SchedulerKind::Fcfs
                } else {
                    SchedulerKind::FrFcfs
                },
                page_policy: if combo & 8 != 0 {
                    PagePolicy::Closed
                } else {
                    PagePolicy::Open
                },
                migration_starvation: Tick::from_ns_int(200),
                ..ControllerConfig::paper_default()
            };
            let mut c = MemoryController::new(cfg, dev);
            let rows = [
                c.channel().layout().fast_to_phys(0),
                c.channel().layout().fast_to_phys(200),
                c.channel().layout().slow_to_phys(0),
                c.channel().layout().slow_to_phys(900),
            ];
            let mut now = Tick::ZERO;
            for step in 0..1500u64 {
                // The wake first, then arrivals at the same tick, each
                // followed by a wake query, as the event loop orders them.
                c.advance(now).unwrap();
                let mut wake = c.next_action_time(now);
                let r = next();
                for k in 0..r % 4 {
                    let r = next();
                    let id = step * 4 + k;
                    let bank = BankCoord::new(0, (r % 2) as u8, (r >> 1) as u8 % 4);
                    if r % 8 == 0 {
                        c.enqueue_swap(SwapOp {
                            token: id,
                            bank,
                            phys_a: rows[2],
                            phys_b: rows[0],
                            kind: Default::default(),
                            arrival: now,
                        });
                    } else {
                        let req = Request {
                            id,
                            coord: MemCoord {
                                bank,
                                row: rows[(r >> 3) as usize % rows.len()],
                                col: 0,
                            },
                            is_write: r % 3 == 0,
                            arrival: now.saturating_sub(Tick::from_ns_int((r >> 8) % 300)),
                        };
                        let room = if req.is_write {
                            c.can_accept_write()
                        } else {
                            c.can_accept_read()
                        };
                        if room {
                            c.enqueue(req).unwrap();
                        }
                    }
                    wake = c.next_action_time(now);
                    assert_eq!(c.next_action_time(now), wake);
                }
                now = match wake {
                    _ if r % 16 == 1 => now + Tick::from_ns_int(3000),
                    Some(t) if r % 5 != 0 => t.max(now + Tick::new(1)),
                    _ => now + Tick::from_ns_int((r >> 16) % 40),
                };
            }
        }
    }

    #[test]
    fn starved_swap_preempts_demand_stream() {
        let cfg = ControllerConfig {
            migration_starvation: Tick::from_ns_int(100),
            ..ControllerConfig::paper_default()
        };
        let mut c = MemoryController::new(cfg, device(TimingSet::asymmetric(), false));
        let slow = c.channel().layout().slow_to_phys(0);
        let fast = c.channel().layout().fast_to_phys(0);
        c.enqueue_swap(SwapOp {
            token: 1,
            bank: BankCoord::new(0, 0, 0),
            phys_a: slow,
            phys_b: fast,
            kind: Default::default(),
            arrival: Tick::ZERO,
        });
        // Keep feeding demand to the same bank.
        let mut now = Tick::ZERO;
        let mut swap_done = false;
        for i in 0..200 {
            if c.can_accept_read() {
                c.enqueue(read(100 + i, 0, slow, (i % 128) as u32, now))
                    .unwrap();
            }
            for ev in c.advance(now).unwrap() {
                if matches!(ev, Completion::SwapDone { .. }) {
                    swap_done = true;
                }
            }
            now += Tick::from_ns_int(20);
            if swap_done {
                break;
            }
        }
        assert!(swap_done, "starvation bound must force the swap through");
    }
}
