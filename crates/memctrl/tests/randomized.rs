//! Randomized end-to-end check of the memory controller's scheduling.
//!
//! A std-only xorshift stream drives a `MemoryController` with the
//! simulator's call pattern: requests arrive (some with an `arrival` older
//! than requests already queued), are enqueued while `can_accept_*` allows
//! and otherwise wait in a FIFO overflow, every enqueue is followed by
//! `next_action_time(now)`, and the controller is woken with `advance(now)`
//! at the tick it asked for, followed by `next_action_time(now)`. A wake
//! and arrivals due at the same tick are served wake first, and an enqueue
//! that asks for a wake at `now` is served on a second pass at that tick,
//! so both orders occur. Row swaps arrive too, sometimes alone at an idle
//! controller, and a short starvation bound lets starved swaps preempt.
//!
//! Every configuration of FR-FCFS/FCFS × open/closed page × refresh on/off
//! × conventional/SALP banks runs on the asymmetric (DAS) timing set. Each
//! run checks that every request id and swap token completes exactly once,
//! never before it arrived, and folds the completion sequence
//! `(kind, id/token, at, service)` into an FNV-1a digest. The digests are
//! pinned: a scheduler change that moves any command by one tick, or
//! reorders two completions, changes them.

use std::collections::VecDeque;

use das_dram::geometry::{Arrangement, BankCoord, BankLayout, FastRatio, MemCoord};
use das_dram::timing::TimingSet;
use das_dram::{ChannelDevice, MigrationKind, Tick};
use das_memctrl::{
    Completion, ControllerConfig, MemoryController, PagePolicy, Request, SchedulerKind,
    ServiceClass, SwapOp,
};

/// Demand requests generated per configuration.
const REQUESTS: u64 = 2500;

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

#[derive(Debug, Clone, Copy)]
struct Case {
    scheduler: SchedulerKind,
    page: PagePolicy,
    refresh: bool,
    salp: bool,
}

enum Arrival {
    Demand(Request),
    Swap(SwapOp),
}

/// Runs one configuration to completion and returns its digest.
fn run(case: Case, seed: u64) -> u64 {
    let layout = BankLayout::build(4096, FastRatio::new(1, 8), Arrangement::default(), 128, 512);
    let device = ChannelDevice::with_salp(
        0,
        2,
        8,
        layout,
        TimingSet::asymmetric(),
        case.refresh,
        case.salp,
    );
    let cfg = ControllerConfig {
        scheduler: case.scheduler,
        page_policy: case.page,
        migration_starvation: Tick::from_ns_int(300),
        ..ControllerConfig::paper_default()
    };
    let mut c = MemoryController::new(cfg, device);
    let layout = c.channel().layout().clone();
    // A small row pool per bank so that row hits, conflicts and (under
    // SALP) several open subarrays all occur; fast rows span two fast
    // subarrays, slow rows three slow ones.
    let fast_rows: Vec<u32> = [0, 1, 130, 131]
        .iter()
        .map(|&i| layout.fast_to_phys(i))
        .collect();
    let slow_rows: Vec<u32> = [0, 1, 600, 1200, 1201]
        .iter()
        .map(|&i| layout.slow_to_phys(i))
        .collect();
    let mut rng = XorShift(seed);

    let mut arrivals: Vec<Tick> = Vec::new();
    let mut swap_arrivals: Vec<Tick> = Vec::new();
    let mut req_done: Vec<bool> = Vec::new();
    let mut swap_done: Vec<bool> = Vec::new();
    let mut overflow: VecDeque<Request> = VecDeque::new();
    let mut digest = Fnv::new();

    let mut now = Tick::ZERO;
    let mut next_arrival = Some(Tick::ZERO);
    let mut wake: Option<Tick> = None;
    let mut outstanding = 0u64;
    let mut write_burst = 0u32;

    let mut steps = 0u64;
    loop {
        steps += 1;
        assert!(steps < 2_000_000, "{case:?}: controller made no progress");

        if wake == Some(now) {
            for done in c.advance(now).unwrap() {
                outstanding -= 1;
                match done {
                    Completion::ReadDone {
                        id,
                        at,
                        service,
                        latency,
                    }
                    | Completion::WriteDone {
                        id,
                        at,
                        service,
                        latency,
                    } => {
                        let arrival = arrivals[id as usize];
                        assert!(!req_done[id as usize], "{case:?}: id {id} completed twice");
                        req_done[id as usize] = true;
                        assert!(at >= arrival, "{case:?}: id {id} done before arrival");
                        assert_eq!(latency, at - arrival);
                        let kind = if matches!(done, Completion::ReadDone { .. }) {
                            0
                        } else {
                            1
                        };
                        digest.bytes(&[kind]);
                        digest.u64(id);
                        digest.u64(at.raw());
                        digest.bytes(&[match service {
                            ServiceClass::RowBufferHit => 0,
                            ServiceClass::FastMiss => 1,
                            ServiceClass::SlowMiss => 2,
                        }]);
                    }
                    Completion::SwapDone { token, at } => {
                        let arrival = swap_arrivals[token as usize];
                        assert!(
                            !swap_done[token as usize],
                            "{case:?}: token {token} completed twice"
                        );
                        swap_done[token as usize] = true;
                        assert!(at >= arrival, "{case:?}: token {token} done before arrival");
                        digest.bytes(&[2]);
                        digest.u64(token);
                        digest.u64(at.raw());
                        digest.bytes(&[3]);
                    }
                }
            }
            while let Some(req) = overflow.front().copied() {
                let ok = if req.is_write {
                    c.can_accept_write()
                } else {
                    c.can_accept_read()
                };
                if !ok {
                    break;
                }
                overflow.pop_front();
                c.enqueue(req).unwrap();
            }
            wake = c.next_action_time(now).map(|t| t.max(now));
        }

        if next_arrival == Some(now) {
            let mut batch = Vec::new();
            if write_burst == 0 && rng.chance(3) {
                // A burst of write-backs pushes the write queue past its
                // drain watermark.
                write_burst = 20 + rng.below(16) as u32;
            }
            for _ in 0..rng.below(4) {
                if arrivals.len() as u64 >= REQUESTS {
                    break;
                }
                let bank = BankCoord::new(0, rng.below(2) as u8, rng.below(4) as u8);
                let row = if rng.chance(30) {
                    fast_rows[rng.below(fast_rows.len() as u64) as usize]
                } else {
                    slow_rows[rng.below(slow_rows.len() as u64) as usize]
                };
                // One arrival in eight is stamped well before `now`, so it
                // is older than requests already queued.
                let arrival = if rng.chance(12) {
                    now.saturating_sub(Tick::from_ns_int(1 + rng.below(400)))
                } else {
                    now
                };
                let is_write = if write_burst > 0 {
                    write_burst -= 1;
                    true
                } else {
                    rng.chance(25)
                };
                let id = arrivals.len() as u64;
                arrivals.push(arrival);
                req_done.push(false);
                batch.push(Arrival::Demand(Request {
                    id,
                    coord: MemCoord {
                        bank,
                        row,
                        col: rng.below(128) as u32,
                    },
                    is_write,
                    arrival,
                }));
            }
            if rng.chance(6) {
                let token = swap_arrivals.len() as u64;
                swap_arrivals.push(now);
                swap_done.push(false);
                let kind = match rng.below(3) {
                    0 => MigrationKind::Swap,
                    1 => MigrationKind::Copy,
                    _ => MigrationKind::CopyWithWriteback,
                };
                batch.push(Arrival::Swap(SwapOp {
                    token,
                    bank: BankCoord::new(0, rng.below(2) as u8, rng.below(4) as u8),
                    phys_a: slow_rows[rng.below(slow_rows.len() as u64) as usize],
                    phys_b: fast_rows[rng.below(fast_rows.len() as u64) as usize],
                    kind,
                    arrival: now,
                }));
            }
            for a in batch {
                outstanding += 1;
                match a {
                    Arrival::Demand(req) => {
                        let accept = if req.is_write {
                            c.can_accept_write()
                        } else {
                            c.can_accept_read()
                        };
                        if accept && overflow.is_empty() {
                            c.enqueue(req).unwrap();
                        } else {
                            overflow.push_back(req);
                        }
                    }
                    Arrival::Swap(op) => c.enqueue_swap(op),
                }
                if let Some(t) = c.next_action_time(now) {
                    let t = t.max(now);
                    wake = Some(wake.map_or(t, |w| w.min(t)));
                }
            }
            next_arrival = if (arrivals.len() as u64) < REQUESTS {
                // Mostly back-to-back traffic, with idle gaps long enough
                // for closed-page housekeeping and refresh to show; some
                // arrivals land on the tick the controller will wake at.
                let gap = if rng.chance(85) {
                    rng.below(12)
                } else {
                    50 + rng.below(1500)
                };
                match wake.filter(|&w| w > now) {
                    Some(w) if rng.chance(20) => Some(w),
                    _ => Some(now + Tick::from_ns_int(gap)),
                }
            } else {
                None
            };
        }

        if next_arrival.is_none() && outstanding == 0 {
            break;
        }
        now = match (wake, next_arrival) {
            (Some(w), Some(a)) => w.min(a),
            (Some(w), None) => w,
            (None, Some(a)) => a,
            (None, None) => panic!("{case:?}: {outstanding} outstanding but no wake"),
        };
    }

    assert!(
        req_done.iter().all(|&d| d),
        "{case:?}: a request never completed"
    );
    assert!(
        swap_done.iter().all(|&d| d),
        "{case:?}: a swap never completed"
    );
    let s = c.stats();
    assert_eq!(s.reads + s.writes, REQUESTS);
    assert_eq!(s.swaps, swap_arrivals.len() as u64);
    assert_eq!(s.row_hits + s.fast_misses + s.slow_misses, REQUESTS);
    digest.0
}

fn cases() -> Vec<Case> {
    let mut all = Vec::new();
    for scheduler in [SchedulerKind::FrFcfs, SchedulerKind::Fcfs] {
        for page in [PagePolicy::Open, PagePolicy::Closed] {
            for refresh in [false, true] {
                for salp in [false, true] {
                    all.push(Case {
                        scheduler,
                        page,
                        refresh,
                        salp,
                    });
                }
            }
        }
    }
    all
}

/// Digests of [`cases`] in order, recorded before the queues were
/// age-ordered and the pick memoised: any pick that differs from the
/// full-scan scheduler's moves them.
const PINNED: [u64; 16] = [
    0xf7418e4c8bbf1f8c,
    0xf52371014bf7fd9d,
    0xa90e9a7b671c996a,
    0xe1614973a803d4b3,
    0x2762bb9a550d0f46,
    0xe26bb306a33f9a0e,
    0xb0bdd6c17f495035,
    0xdce06738f3173761,
    0x454149bfbd7d7a1b,
    0x14d4c69b2e22cc86,
    0x811c5d5ab3281964,
    0xd5069b8c98db0d4d,
    0x5d3a2985b08b8c6c,
    0x5d94b9eb16084e58,
    0x65882b95d64e3272,
    0x7e01a0e9cdd2c81f,
];

#[test]
fn randomized_completion_sequences_match_pinned_digests() {
    let mut wrong = Vec::new();
    for (i, (case, &want)) in cases().into_iter().zip(&PINNED).enumerate() {
        let got = run(case, 0x9e37_79b9_7f4a_7c15 ^ i as u64);
        if got != want {
            wrong.push(format!("{case:?}: got {got:#018x}, pinned {want:#018x}"));
        }
    }
    assert!(wrong.is_empty(), "digests moved:\n{}", wrong.join("\n"));
}
