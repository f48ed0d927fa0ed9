//! A cluster of per-core private L1 caches kept coherent over a
//! [`SnoopBus`] by a pluggable [`CoherenceProtocol`].
//!
//! The cluster sits between N trace-fed cores and the shared memory
//! hierarchy: every core access goes through [`CoherentCluster::access`],
//! which resolves the private-cache lookup, broadcasts whatever bus
//! transaction the protocol demands, snoops every peer cache, and reports
//! whether the request still has to fetch from the shared LLC below
//! (`fetch_below`) plus any dirty lines flushed on the way
//! (`writebacks`).
//!
//! Everything is deterministic: peers are snooped in ascending core
//! order (the lowest-index holder is the cache-to-cache supplier), and
//! each private L1 keeps exact LRU order in an intrusive recency list
//! over a fixed slab of `l1_lines` slots, indexed by a line → slot
//! `HashMap`. A hit or a fill moves its line to the head, a snoop that
//! changes a peer's state leaves the line where it is, and an
//! invalidation unlinks it; the victim is always the tail. Hits, fills
//! and evictions are O(1) whatever the L1 size.

use std::collections::HashMap;

use crate::bus::{SnoopBus, C2C_TRANSFER_CYCLES, UPD_WORD_CYCLES};
use crate::protocol::{BusTx, CohState, CoherenceProtocol, ProtocolKind};

/// Shape of the private-cache cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Number of cores (== number of private L1s).
    pub cores: usize,
    /// Lines per private L1 (fully associative, LRU).
    pub l1_lines: usize,
    /// Line size in bytes (must match the shared hierarchy's line size).
    pub line_bytes: u64,
    /// Private-cache hit latency in core cycles.
    pub hit_cycles: u64,
}

/// What one access did, from the shared hierarchy's point of view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Core cycles until the access retires *within the cluster* (private
    /// lookup + bus arbitration + any cache-to-cache transfer). When
    /// `fetch_below` is set the memory-side latency comes on top.
    pub cycles: u64,
    /// The line was supplied by no peer cache: fetch it from the shared
    /// LLC / DRAM below.
    pub fetch_below: bool,
    /// The line was valid in another core's L1 when the access arrived:
    /// a sharing-induced access. Purely observational (the memory side
    /// weights sharing-hot DRAM rows with it); the protocol never reads it.
    pub shared: bool,
    /// Dirty lines flushed out of the cluster by this access (snoop
    /// write-backs and dirty LRU victims), as line addresses.
    pub writebacks: Vec<u64>,
}

/// Counters for everything the coherence layer did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoherenceStats {
    pub bus_rd: u64,
    pub bus_rdx: u64,
    pub bus_upgr: u64,
    pub bus_upd: u64,
    /// Peer lines invalidated by snooped transactions.
    pub invalidations: u64,
    /// Misses served by a peer cache (cache-to-cache transfer).
    pub interventions: u64,
    /// Dirty lines flushed below by snoops or evictions.
    pub writeback_flushes: u64,
    /// Cycles transactions spent waiting for the bus.
    pub bus_wait_cycles: u64,
    /// Cycles the bus spent occupied.
    pub bus_busy_cycles: u64,
    pub l1_hits: u64,
    pub l1_misses: u64,
    /// DAS row promotions whose row lies in the shared footprint
    /// (recorded by the memory side via [`CoherentCluster::note_shared_promotion`]).
    pub shared_promotions: u64,
}

impl CoherenceStats {
    fn count_tx(&mut self, tx: BusTx) {
        match tx {
            BusTx::BusRd => self.bus_rd += 1,
            BusTx::BusRdX => self.bus_rdx += 1,
            BusTx::BusUpgr => self.bus_upgr += 1,
            BusTx::BusUpd => self.bus_upd += 1,
        }
    }

    /// Total bus transactions of any kind.
    pub fn bus_transactions(&self) -> u64 {
        self.bus_rd + self.bus_rdx + self.bus_upgr + self.bus_upd
    }
}

/// Link value for "no slot" at either end of a recency list.
const NIL: u32 = u32::MAX;

/// One resident line of a private L1 and its recency-list links.
#[derive(Debug, Clone, Copy)]
struct Slot {
    line: u64,
    state: CohState,
    /// Neighbour toward the head (more recently used), or [`NIL`].
    prev: u32,
    /// Neighbour toward the tail (less recently used), or [`NIL`].
    next: u32,
}

/// One core's fully associative private L1 with exact LRU.
///
/// `index` maps a resident line to its slot in `slots`, a slab that never
/// grows past `capacity`. Resident slots form a doubly linked list from
/// `head` (most recently used) to `tail` (the LRU victim); slots freed by
/// invalidations wait in `free` for the next fill.
struct PrivateL1 {
    index: HashMap<u64, u32>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    capacity: usize,
}

impl PrivateL1 {
    fn new(capacity: usize) -> PrivateL1 {
        PrivateL1 {
            index: HashMap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Slot and state of the resident copy of `line`, if any.
    fn lookup(&self, line: u64) -> Option<(u32, CohState)> {
        let &i = self.index.get(&line)?;
        Some((i, self.slots[i as usize].state))
    }

    fn unlink(&mut self, i: u32) {
        let Slot { prev, next, .. } = self.slots[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, i: u32) {
        let old_head = self.head;
        let slot = &mut self.slots[i as usize];
        slot.prev = NIL;
        slot.next = old_head;
        match old_head {
            NIL => self.tail = i,
            h => self.slots[h as usize].prev = i,
        }
        self.head = i;
    }

    /// A processor access used slot `i`: record `state` and make it the
    /// most recently used line.
    fn touch(&mut self, i: u32, state: CohState) {
        self.slots[i as usize].state = state;
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    /// A snoop moved slot `i` to `state`; its recency is unchanged.
    fn set_state(&mut self, i: u32, state: CohState) {
        self.slots[i as usize].state = state;
    }

    /// Drop slot `i`'s line (invalidation, stale tag or eviction).
    fn remove(&mut self, i: u32) {
        self.unlink(i);
        self.index.remove(&self.slots[i as usize].line);
        self.free.push(i);
    }

    /// Fill a non-resident `line` as the most recently used entry,
    /// evicting the LRU line first when the cache is full. Returns the
    /// victim's line and state.
    fn insert(&mut self, line: u64, state: CohState) -> Option<(u64, CohState)> {
        debug_assert!(!self.index.contains_key(&line), "fill of a resident line");
        let victim = (self.index.len() >= self.capacity).then(|| {
            let t = self.tail;
            let Slot { line, state, .. } = self.slots[t as usize];
            self.remove(t);
            (line, state)
        });
        let slot = Slot {
            line,
            state,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        };
        self.index.insert(line, i);
        self.push_front(i);
        victim
    }

    /// Remove every dirty line, appending its address to `out`.
    fn drain_dirty(&mut self, out: &mut Vec<u64>) {
        let mut i = self.head;
        while i != NIL {
            let Slot {
                line, state, next, ..
            } = self.slots[i as usize];
            if state.is_dirty() {
                out.push(line);
                self.remove(i);
            }
            i = next;
        }
    }

    /// Structural invariants: the index and the recency list name the
    /// same slots, every link has its mirror, and the slab never holds
    /// more than `capacity` lines.
    #[cfg(test)]
    fn check_invariants(&self) {
        assert!(self.index.len() <= self.capacity, "over capacity");
        assert!(self.slots.len() <= self.capacity, "slab grew past capacity");
        assert_eq!(self.slots.len(), self.index.len() + self.free.len());
        let (mut len, mut prev, mut i) = (0, NIL, self.head);
        while i != NIL {
            let slot = &self.slots[i as usize];
            assert_eq!(slot.prev, prev, "back link of slot {i} is broken");
            assert_eq!(
                self.index.get(&slot.line),
                Some(&i),
                "list slot not indexed"
            );
            len += 1;
            assert!(len <= self.index.len(), "recency list has a cycle");
            prev = i;
            i = slot.next;
        }
        assert_eq!(self.tail, prev, "tail is not the last list slot");
        assert_eq!(len, self.index.len(), "index and list sizes differ");
    }
}

/// N private L1s + snooping bus + protocol.
pub struct CoherentCluster {
    protocol: Box<dyn CoherenceProtocol + Send + Sync>,
    cfg: ClusterConfig,
    /// One private L1 per core.
    l1: Vec<PrivateL1>,
    bus: SnoopBus,
    stats: CoherenceStats,
}

impl CoherentCluster {
    pub fn new(kind: ProtocolKind, cfg: ClusterConfig) -> CoherentCluster {
        assert!(cfg.cores >= 1, "cluster needs at least one core");
        assert!(cfg.l1_lines >= 1, "private caches need at least one line");
        assert!(
            cfg.l1_lines < NIL as usize,
            "private caches index slots with u32"
        );
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        CoherentCluster {
            protocol: kind.build(),
            l1: (0..cfg.cores)
                .map(|_| PrivateL1::new(cfg.l1_lines))
                .collect(),
            cfg,
            bus: SnoopBus::new(),
            stats: CoherenceStats::default(),
        }
    }

    pub fn protocol_kind(&self) -> ProtocolKind {
        self.protocol.kind()
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    pub fn stats(&self) -> &CoherenceStats {
        &self.stats
    }

    pub fn note_shared_promotion(&mut self) {
        self.stats.shared_promotions += 1;
    }

    /// State of `core`'s copy of the line holding `addr`, if any.
    pub fn probe(&self, core: usize, addr: u64) -> Option<CohState> {
        self.l1[core]
            .lookup(addr & !(self.cfg.line_bytes - 1))
            .map(|(_, s)| s)
    }

    /// Does any core other than `core` hold a valid copy of `line`?
    fn others_hold(&self, core: usize, line: u64) -> bool {
        self.l1
            .iter()
            .enumerate()
            .any(|(c, l1)| c != core && l1.lookup(line).is_some_and(|(_, s)| s != CohState::I))
    }

    /// Broadcast `tx` from `core`: snoop every valid peer holder in
    /// ascending core order, apply the protocol's next states, and record
    /// invalidations / interventions / write-backs.
    fn snoop_peers(
        &mut self,
        core: usize,
        line: u64,
        tx: BusTx,
        writebacks: &mut Vec<u64>,
    ) -> bool {
        let mut supplied = false;
        for c in 0..self.cfg.cores {
            if c == core {
                continue;
            }
            let peer = &mut self.l1[c];
            let Some((i, state)) = peer.lookup(line) else {
                continue;
            };
            if state == CohState::I {
                continue;
            }
            let out = self.protocol.on_snoop(state, tx);
            if out.supply && !supplied {
                // Lowest-index holder wins the supply race.
                supplied = true;
                self.stats.interventions += 1;
            }
            if out.writeback {
                writebacks.push(line);
                self.stats.writeback_flushes += 1;
            }
            if out.next == CohState::I {
                peer.remove(i);
                self.stats.invalidations += 1;
            } else {
                peer.set_state(i, out.next);
            }
        }
        supplied
    }

    /// One core access at `now` (core cycles). See [`AccessOutcome`].
    pub fn access(&mut self, core: usize, addr: u64, is_write: bool, now: u64) -> AccessOutcome {
        let out = self.resolve(core, addr, is_write, now);
        #[cfg(test)]
        self.check_invariants();
        out
    }

    fn resolve(&mut self, core: usize, addr: u64, is_write: bool, now: u64) -> AccessOutcome {
        assert!(core < self.cfg.cores, "core index out of range");
        let line = addr & !(self.cfg.line_bytes - 1);
        let mut writebacks = Vec::new();
        let others = self.others_hold(core, line);

        let held = self.l1[core].lookup(line);
        if let Some((i, state)) = held.filter(|&(_, s)| s != CohState::I) {
            // ---- hit ----------------------------------------------------
            self.stats.l1_hits += 1;
            let out = self.protocol.on_hit(state, is_write, others);
            let mut done = now + self.cfg.hit_cycles;
            if let Some(tx) = out.bus {
                self.stats.count_tx(tx);
                let data = if tx == BusTx::BusUpd {
                    UPD_WORD_CYCLES
                } else {
                    0
                };
                let (_, bus_done) = self.bus.acquire(now, data);
                self.snoop_peers(core, line, tx, &mut writebacks);
                done = done.max(bus_done);
            }
            // Snoops never touch the requester's own L1, so `i` still
            // names this line.
            self.l1[core].touch(i, out.next);
            self.sync_bus_stats();
            return AccessOutcome {
                cycles: done - now,
                fetch_below: false,
                shared: others,
                writebacks,
            };
        }

        // ---- miss -------------------------------------------------------
        self.stats.l1_misses += 1;
        if let Some((i, _)) = held {
            // Stale Invalid tag: drop it before refilling.
            self.l1[core].remove(i);
        }
        let out = self.protocol.on_miss(is_write, others);
        self.stats.count_tx(out.tx);
        // Any valid holder supplies under both protocols, so the data phase
        // is a cache-to-cache transfer exactly when peers hold the line.
        let data = if others { C2C_TRANSFER_CYCLES } else { 0 };
        let (_, mut done) = self.bus.acquire(now, data);
        let supplied = self.snoop_peers(core, line, out.tx, &mut writebacks);
        debug_assert_eq!(supplied, others);
        if let Some(tx2) = out.extra_tx {
            // Dragon write miss: the fetched line is updated on the bus in a
            // second transaction so surviving sharers absorb the word.
            self.stats.count_tx(tx2);
            let (_, upd_done) = self.bus.acquire(done, UPD_WORD_CYCLES);
            self.snoop_peers(core, line, tx2, &mut writebacks);
            done = upd_done;
        }
        if let Some((victim, state)) = self.l1[core].insert(line, out.next) {
            if state.is_dirty() {
                writebacks.push(victim);
                self.stats.writeback_flushes += 1;
            }
        }
        self.sync_bus_stats();
        AccessOutcome {
            cycles: (done - now) + self.cfg.hit_cycles,
            fetch_below: !supplied,
            shared: others,
            writebacks,
        }
    }

    /// Flush every dirty line out of the cluster (end-of-run drain).
    /// Returns the flushed line addresses in ascending order.
    pub fn drain_dirty(&mut self) -> Vec<u64> {
        let mut lines: Vec<u64> = Vec::new();
        for l1 in &mut self.l1 {
            l1.drain_dirty(&mut lines);
        }
        lines.sort_unstable();
        self.stats.writeback_flushes += lines.len() as u64;
        lines
    }

    fn sync_bus_stats(&mut self) {
        self.stats.bus_wait_cycles = self.bus.wait_cycles;
        self.stats.bus_busy_cycles = self.bus.busy_cycles;
    }

    #[cfg(test)]
    fn check_invariants(&self) {
        for l1 in &self.l1 {
            l1.check_invariants();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(kind: ProtocolKind, cores: usize) -> CoherentCluster {
        CoherentCluster::new(
            kind,
            ClusterConfig {
                cores,
                l1_lines: 4,
                line_bytes: 64,
                hit_cycles: 2,
            },
        )
    }

    #[test]
    fn sharing_induced_accesses_are_flagged() {
        let mut cl = cluster(ProtocolKind::Mesi, 2);
        // Core 0 alone: nothing is sharing-induced.
        assert!(!cl.access(0, 0x100, false, 0).shared);
        // Core 1 touches the line core 0 holds: sharing-induced.
        assert!(cl.access(1, 0x100, false, 10).shared);
        // Core 0 hits its own copy while core 1 also holds it (same line,
        // offset address): sharing-induced.
        let hit = cl.access(0, 0x120, false, 20);
        assert!(hit.shared);
        assert_eq!(cl.stats().l1_hits, 1);
        // A private line on another core never counts.
        assert!(!cl.access(1, 0x2000, false, 30).shared);
        // Once core 0's write invalidates core 1's copy, core 0's own hits
        // are private again.
        cl.access(0, 0x100, true, 40);
        assert!(!cl.access(0, 0x100, false, 50).shared);
    }

    #[test]
    fn mesi_read_then_peer_read_shares_the_line() {
        let mut cl = cluster(ProtocolKind::Mesi, 2);
        let a = cl.access(0, 0x100, false, 0);
        assert!(a.fetch_below, "first touch misses to memory");
        assert_eq!(cl.probe(0, 0x100), Some(CohState::E));

        let b = cl.access(1, 0x100, false, 100);
        assert!(!b.fetch_below, "peer supplies cache-to-cache");
        assert_eq!(cl.probe(0, 0x100), Some(CohState::S));
        assert_eq!(cl.probe(1, 0x100), Some(CohState::S));
        assert_eq!(cl.stats().interventions, 1);
        assert_eq!(cl.stats().invalidations, 0);
    }

    #[test]
    fn mesi_write_invalidates_sharers() {
        let mut cl = cluster(ProtocolKind::Mesi, 3);
        cl.access(0, 0x100, false, 0);
        cl.access(1, 0x100, false, 100);
        cl.access(2, 0x100, false, 200);
        // Core 0 writes its shared copy: BusUpgr kills the other two.
        let w = cl.access(0, 0x100, true, 300);
        assert!(!w.fetch_below);
        assert_eq!(cl.probe(0, 0x100), Some(CohState::M));
        assert_eq!(cl.probe(1, 0x100), None);
        assert_eq!(cl.probe(2, 0x100), None);
        assert_eq!(cl.stats().bus_upgr, 1);
        assert_eq!(cl.stats().invalidations, 2);
    }

    #[test]
    fn mesi_dirty_supplier_writes_back_on_peer_read() {
        let mut cl = cluster(ProtocolKind::Mesi, 2);
        cl.access(0, 0x100, true, 0); // miss-write → M
        assert_eq!(cl.probe(0, 0x100), Some(CohState::M));
        let r = cl.access(1, 0x100, false, 100);
        assert!(!r.fetch_below);
        assert_eq!(r.writebacks, vec![0x100], "M holder flushes on demotion");
        assert_eq!(cl.probe(0, 0x100), Some(CohState::S));
        assert_eq!(cl.stats().writeback_flushes, 1);
    }

    #[test]
    fn dragon_shared_write_updates_instead_of_invalidating() {
        let mut cl = cluster(ProtocolKind::Dragon, 2);
        cl.access(0, 0x100, false, 0);
        cl.access(1, 0x100, false, 100);
        // Core 0 writes: BusUpd, peer keeps its (updated) copy.
        let w = cl.access(0, 0x100, true, 200);
        assert!(!w.fetch_below);
        assert_eq!(cl.probe(0, 0x100), Some(CohState::Sm));
        assert_eq!(cl.probe(1, 0x100), Some(CohState::Sc));
        assert_eq!(cl.stats().bus_upd, 1);
        assert_eq!(cl.stats().invalidations, 0);
    }

    #[test]
    fn dragon_owner_supplies_without_writeback() {
        let mut cl = cluster(ProtocolKind::Dragon, 3);
        cl.access(0, 0x100, false, 0);
        cl.access(1, 0x100, false, 10);
        cl.access(0, 0x100, true, 20); // Sm owner
        let r = cl.access(2, 0x100, false, 30);
        assert!(!r.fetch_below);
        assert!(
            r.writebacks.is_empty(),
            "Sm keeps ownership, memory stays stale"
        );
        assert_eq!(cl.probe(0, 0x100), Some(CohState::Sm));
        assert_eq!(cl.probe(2, 0x100), Some(CohState::Sc));
    }

    #[test]
    fn lru_eviction_is_deterministic_and_flushes_dirty_victims() {
        let mut cl = cluster(ProtocolKind::Mesi, 1);
        cl.access(0, 0x000, true, 0); // M — the LRU victim
        cl.access(0, 0x040, false, 1);
        cl.access(0, 0x080, false, 2);
        cl.access(0, 0x0c0, false, 3);
        let out = cl.access(0, 0x100, false, 4); // capacity 4: evicts 0x000
        assert_eq!(out.writebacks, vec![0x000]);
        assert_eq!(cl.probe(0, 0x000), None);
        assert_eq!(cl.probe(0, 0x040), Some(CohState::E));
    }

    #[test]
    fn a_hit_makes_its_line_most_recent() {
        let mut cl = cluster(ProtocolKind::Mesi, 1);
        for (t, addr) in [0x000, 0x040, 0x080, 0x0c0].into_iter().enumerate() {
            cl.access(0, addr, false, t as u64);
        }
        // 0x000 is the oldest fill, but the hit refreshes it ...
        cl.access(0, 0x000, false, 4);
        assert_eq!(cl.stats().l1_hits, 1);
        // ... so the next fill evicts 0x040 instead.
        cl.access(0, 0x100, false, 5);
        assert_eq!(cl.probe(0, 0x000), Some(CohState::E));
        assert_eq!(cl.probe(0, 0x040), None);
    }

    #[test]
    fn a_peer_snoop_does_not_refresh_the_snooped_line() {
        for (kind, peer_write) in [(ProtocolKind::Mesi, false), (ProtocolKind::Dragon, true)] {
            let mut cl = cluster(kind, 2);
            cl.access(0, 0x000, false, 0);
            if kind == ProtocolKind::Dragon {
                // Make core 1 a sharer so its write is a BusUpd hit.
                cl.access(1, 0x000, false, 1);
            }
            for (t, addr) in [0x040, 0x080, 0x0c0].into_iter().enumerate() {
                cl.access(0, addr, false, 2 + t as u64);
            }
            // MESI: core 1's read demotes core 0's E copy to S (BusRd).
            // Dragon: core 1's shared write sends a BusUpd to core 0's Sc.
            let before = cl.probe(0, 0x000);
            cl.access(1, 0x000, peer_write, 10);
            let snooped = cl.probe(0, 0x000);
            assert!(snooped.is_some(), "{kind:?}: snoop must not invalidate");
            if kind == ProtocolKind::Mesi {
                assert_eq!((before, snooped), (Some(CohState::E), Some(CohState::S)));
            } else {
                assert_eq!(cl.stats().bus_upd, 1, "{kind:?}");
            }
            // The snoop left 0x000 least recent, so it is still the victim.
            cl.access(0, 0x100, false, 20);
            assert_eq!(cl.probe(0, 0x000), None, "{kind:?}");
            assert!(cl.probe(0, 0x040).is_some(), "{kind:?}");
        }
    }

    #[test]
    fn drain_flushes_all_dirty_lines_in_order() {
        let mut cl = cluster(ProtocolKind::Mesi, 2);
        cl.access(0, 0x200, true, 0);
        cl.access(1, 0x100, true, 10);
        cl.access(0, 0x300, false, 20);
        assert_eq!(cl.drain_dirty(), vec![0x100, 0x200]);
        assert_eq!(cl.drain_dirty(), Vec::<u64>::new());
        // Drained lines left the cache; clean ones stayed.
        assert_eq!(cl.probe(0, 0x200), None);
        assert_eq!(cl.probe(0, 0x300), Some(CohState::E));
        assert!(cl.access(0, 0x200, false, 30).fetch_below);
    }

    #[test]
    fn bus_contention_is_visible_in_stats() {
        let mut cl = cluster(ProtocolKind::Mesi, 2);
        cl.access(0, 0x100, false, 0);
        // The peer read arrives while the first transaction still holds the
        // bus, so FCFS arbitration makes it wait.
        cl.access(1, 0x100, false, 0);
        let s = cl.stats();
        assert!(s.bus_busy_cycles > 0);
        assert!(s.bus_wait_cycles > 0);
        assert_eq!(s.bus_transactions(), 2);
    }
}
