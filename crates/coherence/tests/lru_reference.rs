//! Differential test of `CoherentCluster` against a deliberately naive
//! reference cluster.
//!
//! The reference keeps each private L1 as a plain `Vec` of
//! `(line, state, last-use stamp)` and evicts the entry with the smallest
//! stamp by a linear scan, i.e. textbook LRU with no cleverness. It drives
//! the same protocol tables and the same `SnoopBus`, so any divergence in
//! outcomes, counters or cache contents is a bug in the cluster's
//! recency bookkeeping.

use das_coherence::{
    AccessOutcome, BusTx, ClusterConfig, CohState, CoherenceProtocol, CoherenceStats,
    CoherentCluster, ProtocolKind, SnoopBus, C2C_TRANSFER_CYCLES, UPD_WORD_CYCLES,
};

const LINE: u64 = 64;

struct Reference {
    protocol: Box<dyn CoherenceProtocol + Send + Sync>,
    cfg: ClusterConfig,
    /// Per core: (line, state, last-use stamp).
    l1: Vec<Vec<(u64, CohState, u64)>>,
    stamp: u64,
    bus: SnoopBus,
    stats: CoherenceStats,
}

impl Reference {
    fn new(kind: ProtocolKind, cfg: ClusterConfig) -> Reference {
        Reference {
            protocol: kind.build(),
            cfg,
            l1: vec![Vec::new(); cfg.cores],
            stamp: 0,
            bus: SnoopBus::new(),
            stats: CoherenceStats::default(),
        }
    }

    fn find(&self, core: usize, line: u64) -> Option<usize> {
        self.l1[core].iter().position(|&(l, _, _)| l == line)
    }

    fn probe(&self, core: usize, addr: u64) -> Option<CohState> {
        let line = addr & !(self.cfg.line_bytes - 1);
        self.find(core, line).map(|i| self.l1[core][i].1)
    }

    fn count_tx(&mut self, tx: BusTx) {
        match tx {
            BusTx::BusRd => self.stats.bus_rd += 1,
            BusTx::BusRdX => self.stats.bus_rdx += 1,
            BusTx::BusUpgr => self.stats.bus_upgr += 1,
            BusTx::BusUpd => self.stats.bus_upd += 1,
        }
    }

    fn others_hold(&self, core: usize, line: u64) -> bool {
        (0..self.cfg.cores)
            .any(|c| c != core && self.probe(c, line).is_some_and(|s| s != CohState::I))
    }

    fn snoop_peers(&mut self, core: usize, line: u64, tx: BusTx, wbs: &mut Vec<u64>) -> bool {
        let mut supplied = false;
        for c in (0..self.cfg.cores).filter(|&c| c != core) {
            let Some(i) = self.find(c, line) else {
                continue;
            };
            let state = self.l1[c][i].1;
            if state == CohState::I {
                continue;
            }
            let out = self.protocol.on_snoop(state, tx);
            if out.supply && !supplied {
                supplied = true;
                self.stats.interventions += 1;
            }
            if out.writeback {
                wbs.push(line);
                self.stats.writeback_flushes += 1;
            }
            if out.next == CohState::I {
                self.l1[c].remove(i);
                self.stats.invalidations += 1;
            } else {
                // A snoop changes the state but not the last-use stamp.
                self.l1[c][i].1 = out.next;
            }
        }
        supplied
    }

    fn access(&mut self, core: usize, addr: u64, is_write: bool, now: u64) -> AccessOutcome {
        self.stamp += 1;
        let line = addr & !(self.cfg.line_bytes - 1);
        let mut writebacks = Vec::new();
        let others = self.others_hold(core, line);
        let held = self.find(core, line);

        if let Some(i) = held.filter(|&i| self.l1[core][i].1 != CohState::I) {
            self.stats.l1_hits += 1;
            let out = self.protocol.on_hit(self.l1[core][i].1, is_write, others);
            let mut done = now + self.cfg.hit_cycles;
            if let Some(tx) = out.bus {
                self.count_tx(tx);
                let data = if tx == BusTx::BusUpd {
                    UPD_WORD_CYCLES
                } else {
                    0
                };
                let (_, bus_done) = self.bus.acquire(now, data);
                self.snoop_peers(core, line, tx, &mut writebacks);
                done = done.max(bus_done);
            }
            self.l1[core][i] = (line, out.next, self.stamp);
            self.sync_bus();
            return AccessOutcome {
                cycles: done - now,
                fetch_below: false,
                shared: others,
                writebacks,
            };
        }

        self.stats.l1_misses += 1;
        if let Some(i) = held {
            self.l1[core].remove(i);
        }
        let out = self.protocol.on_miss(is_write, others);
        self.count_tx(out.tx);
        let data = if others { C2C_TRANSFER_CYCLES } else { 0 };
        let (_, mut done) = self.bus.acquire(now, data);
        let supplied = self.snoop_peers(core, line, out.tx, &mut writebacks);
        if let Some(tx2) = out.extra_tx {
            self.count_tx(tx2);
            let (_, upd_done) = self.bus.acquire(done, UPD_WORD_CYCLES);
            self.snoop_peers(core, line, tx2, &mut writebacks);
            done = upd_done;
        }
        if self.l1[core].len() >= self.cfg.l1_lines {
            // Linear min-stamp scan: stamps are unique, so this is exact LRU.
            let (v, _) = self.l1[core]
                .iter()
                .enumerate()
                .min_by_key(|(_, &(_, _, used))| used)
                .expect("full cache has a victim");
            let (victim, state, _) = self.l1[core].remove(v);
            if state.is_dirty() {
                writebacks.push(victim);
                self.stats.writeback_flushes += 1;
            }
        }
        self.l1[core].push((line, out.next, self.stamp));
        self.sync_bus();
        AccessOutcome {
            cycles: (done - now) + self.cfg.hit_cycles,
            fetch_below: !supplied,
            shared: others,
            writebacks,
        }
    }

    fn drain_dirty(&mut self) -> Vec<u64> {
        let mut lines = Vec::new();
        for tags in &mut self.l1 {
            tags.retain(|&(line, state, _)| {
                if state.is_dirty() {
                    lines.push(line);
                }
                !state.is_dirty()
            });
        }
        lines.sort_unstable();
        self.stats.writeback_flushes += lines.len() as u64;
        lines
    }

    fn sync_bus(&mut self) {
        self.stats.bus_wait_cycles = self.bus.wait_cycles;
        self.stats.bus_busy_cycles = self.bus.busy_cycles;
    }
}

/// std-only xorshift64 stream.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn run_pair(kind: ProtocolKind, cores: usize, l1_lines: usize, seed: u64, steps: usize) {
    let cfg = ClusterConfig {
        cores,
        l1_lines,
        line_bytes: LINE,
        hit_cycles: 2,
    };
    let mut cluster = CoherentCluster::new(kind, cfg);
    let mut reference = Reference::new(kind, cfg);
    let mut rng = XorShift(seed);
    // About three lines per L1 slot, so every core evicts constantly.
    let pool = 3 * l1_lines as u64;
    let mut now = 0;
    let tag = format!("{kind:?} cores={cores} l1_lines={l1_lines} seed={seed:#x}");
    for step in 0..steps {
        let core = rng.below(cores as u64) as usize;
        let addr = 0x4000 + rng.below(pool) * LINE + rng.below(LINE);
        let is_write = rng.below(5) < 2;
        // Zero gaps keep some transactions queued behind a busy bus.
        now += rng.below(4);
        let want = reference.access(core, addr, is_write, now);
        let got = cluster.access(core, addr, is_write, now);
        assert_eq!(got, want, "{tag}: outcome of step {step}");
        assert_eq!(
            cluster.stats(),
            &reference.stats,
            "{tag}: stats at step {step}"
        );
        for c in 0..cores {
            for l in 0..pool {
                let a = 0x4000 + l * LINE;
                assert_eq!(
                    cluster.probe(c, a),
                    reference.probe(c, a),
                    "{tag}: core {c} line {a:#x} after step {step}"
                );
            }
        }
        if step == steps / 2 {
            // A mid-run drain frees slots that later fills must reuse.
            assert_eq!(
                cluster.drain_dirty(),
                reference.drain_dirty(),
                "{tag}: mid drain"
            );
        }
    }
    assert_eq!(
        cluster.drain_dirty(),
        reference.drain_dirty(),
        "{tag}: final drain"
    );
    assert_eq!(cluster.stats(), &reference.stats, "{tag}: final stats");
}

#[test]
fn cluster_matches_the_naive_min_stamp_lru() {
    for kind in ProtocolKind::ALL {
        for cores in 1..=8 {
            for l1_lines in [1, 2, 4, 16] {
                let seed = 0x9E37_79B9_7F4A_7C15 ^ ((cores as u64) << 8 | l1_lines as u64);
                run_pair(kind, cores, l1_lines, seed, 1500);
            }
        }
    }
}
