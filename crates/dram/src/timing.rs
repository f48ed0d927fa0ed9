//! DRAM timing parameter sets.
//!
//! Values follow the paper's Table 1 (DDR3-1600, Samsung 2 Gb D-die class
//! timings) for the slow/conventional subarrays, and the CHARM-derived short
//! bitline timings for fast subarrays: tRCD 8.75 ns, tRC 25 ns.

use crate::geometry::SubarrayKind;
use crate::tick::Tick;

/// Per-subarray-kind DRAM timing parameters.
///
/// All values are durations. `tRC` is derived as `tRAS + tRP` and checked at
/// construction.
///
/// # Examples
///
/// ```
/// use das_dram::timing::TimingParams;
///
/// let slow = TimingParams::ddr3_1600();
/// assert_eq!(slow.trc().as_ns(), 48.75);
/// let fast = TimingParams::fast_subarray();
/// assert_eq!(fast.trc().as_ns(), 25.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingParams {
    /// Memory clock period (1.25 ns at DDR3-1600).
    pub tck: Tick,
    /// ACT → internal READ/WRITE delay (row to column delay).
    pub trcd: Tick,
    /// ACT → PRE minimum (restore complete).
    pub tras: Tick,
    /// PRE → ACT minimum (bitline precharge).
    pub trp: Tick,
    /// READ command → first data (CAS latency).
    pub cl: Tick,
    /// WRITE command → first data (CAS write latency).
    pub cwl: Tick,
    /// Data burst duration (BL8 at DDR: 4 tCK).
    pub tburst: Tick,
    /// Column command to column command spacing.
    pub tccd: Tick,
    /// READ → PRE spacing.
    pub trtp: Tick,
    /// Write data end → READ command (same rank) turnaround.
    pub twtr: Tick,
    /// Write data end → PRE (write recovery).
    pub twr: Tick,
    /// ACT → ACT different bank, same rank.
    pub trrd: Tick,
    /// Four-activate window, same rank.
    pub tfaw: Tick,
    /// Average refresh interval.
    pub trefi: Tick,
    /// Refresh cycle time.
    pub trfc: Tick,
}

impl TimingParams {
    /// DDR3-1600 conventional (512-cell bitline) subarray timings from
    /// Table 1: tRCD = 13.75 ns, tRC = 48.75 ns.
    pub fn ddr3_1600() -> Self {
        let p = TimingParams {
            tck: Tick::from_ns(1.25),
            trcd: Tick::from_ns(13.75),
            tras: Tick::from_ns(35.0),
            trp: Tick::from_ns(13.75),
            cl: Tick::from_ns(13.75),
            cwl: Tick::from_ns(10.0),
            tburst: Tick::from_ns(5.0),
            tccd: Tick::from_ns(5.0),
            trtp: Tick::from_ns(7.5),
            twtr: Tick::from_ns(7.5),
            twr: Tick::from_ns(15.0),
            trrd: Tick::from_ns(6.25),
            tfaw: Tick::from_ns(30.0),
            trefi: Tick::from_ns(7800.0),
            trfc: Tick::from_ns(160.0),
        };
        p.validate();
        p
    }

    /// Fast (128-cell bitline) subarray timings per Table 1 / CHARM:
    /// tRCD = 8.75 ns, tRC = 25 ns. Column-path latency (CL) is unchanged —
    /// the DAS fast level shortens only the cell-array operations.
    pub fn fast_subarray() -> Self {
        let p = TimingParams {
            trcd: Tick::from_ns(8.75),
            tras: Tick::from_ns(17.5),
            trp: Tick::from_ns(7.5),
            twr: Tick::from_ns(7.5),
            ..Self::ddr3_1600()
        };
        p.validate();
        p
    }

    /// CHARM's fast-region timings: the fast-subarray cell timings *plus*
    /// an optimised column access path (reduced CL), per §7's description of
    /// the CHARM baseline ("SAS-DRAM with optimized column access latency").
    pub fn charm_fast() -> Self {
        let p = TimingParams {
            cl: Tick::from_ns(8.75),
            ..Self::fast_subarray()
        };
        p.validate();
        p
    }

    /// TL-DRAM far-segment timings (§3.1): sensing through the isolation
    /// transistor adds series resistance, prolonging restore — tRAS and
    /// write recovery grow relative to commodity DRAM.
    pub fn tl_dram_far() -> Self {
        let p = TimingParams {
            tras: Tick::from_ns(40.0),
            twr: Tick::from_ns(17.5),
            ..Self::ddr3_1600()
        };
        p.validate();
        p
    }

    /// CLR-DRAM max-latency-reduction morph (Luo et al., ISCA 2020, §4):
    /// coupling a row with its neighbour doubles the drivers per cell, so
    /// activation, restore, and precharge all shrink — tRCD by ~60 %,
    /// tRAS by ~64 %, tRP by ~35 % — at the cost of the coupled row's
    /// capacity.
    pub fn clr_morphed() -> Self {
        let p = TimingParams {
            trcd: Tick::from_ns(5.5),
            tras: Tick::from_ns(12.5),
            trp: Tick::from_ns(9.0),
            twr: Tick::from_ns(7.0),
            ..Self::ddr3_1600()
        };
        p.validate();
        p
    }

    /// Row cycle time: `tRAS + tRP`.
    pub fn trc(&self) -> Tick {
        self.tras + self.trp
    }

    /// Checks internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if any ordering invariant is violated (e.g. `tRCD > tRAS`).
    pub fn validate(&self) {
        assert!(self.trcd <= self.tras, "tRCD must not exceed tRAS");
        assert!(self.trtp <= self.tras, "tRTP must not exceed tRAS");
        assert!(self.tburst <= self.tccd, "burst longer than tCCD");
        assert!(self.trrd <= self.tfaw, "tRRD must not exceed tFAW");
        assert!(self.tck > Tick::ZERO, "tCK must be positive");
    }

    /// Idealised closed-to-data read latency for one access: `tRCD + CL +
    /// burst`. Used for analytical sanity checks, not by the engine.
    pub fn closed_read_latency(&self) -> Tick {
        self.trcd + self.cl + self.tburst
    }
}

/// A rank's refresh schedule: a REF command every `trefi` costing `trfc`
/// of rank-blocking time. Every device refreshes on its slow level's
/// cadence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshCadence {
    /// Average refresh interval.
    pub trefi: Tick,
    /// Refresh cycle time (rank blocked).
    pub trfc: Tick,
}

impl TimingParams {
    /// The refresh cadence carried by this parameter set.
    pub fn refresh_cadence(&self) -> RefreshCadence {
        RefreshCadence {
            trefi: self.trefi,
            trfc: self.trfc,
        }
    }
}

/// The pair of timing parameter sets used by a hybrid-bitline device, plus
/// the migration costs of §4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingSet {
    /// Timings applied to rows in slow subarrays.
    pub slow: TimingParams,
    /// Timings applied to rows in fast subarrays.
    pub fast: TimingParams,
    /// Duration of one row migration (source row → migration row →
    /// destination row): 1.5 tRC (§4.2).
    pub single_migration: Tick,
    /// Duration of a full row *swap* (promotion + victim demotion through
    /// the migration rows, Fig. 6): Table 1's "migration latency", 3 tRC.
    pub swap: Tick,
}

impl TimingSet {
    /// Homogeneous conventional DRAM (the Std-DRAM baseline): both kinds use
    /// slow timings; migration is never used.
    pub fn homogeneous_slow() -> Self {
        let slow = TimingParams::ddr3_1600();
        TimingSet {
            slow,
            fast: slow,
            single_migration: Tick::MAX,
            swap: Tick::MAX,
        }
    }

    /// Homogeneous fast DRAM (the FS-DRAM upper bound).
    pub fn homogeneous_fast() -> Self {
        let fast = TimingParams::fast_subarray();
        TimingSet {
            slow: fast,
            fast,
            single_migration: Tick::MAX,
            swap: Tick::MAX,
        }
    }

    /// The paper's asymmetric device (SAS-DRAM and DAS-DRAM): slow + fast
    /// timings, migration latency 146.25 ns (Table 1).
    pub fn asymmetric() -> Self {
        let slow = TimingParams::ddr3_1600();
        TimingSet {
            slow,
            fast: TimingParams::fast_subarray(),
            single_migration: Tick::from_ns(73.125),
            swap: Tick::from_ns(146.25),
        }
    }

    /// CHARM: asymmetric with an optimised column path in the fast region
    /// and no migration support.
    pub fn charm() -> Self {
        TimingSet {
            fast: TimingParams::charm_fast(),
            single_migration: Tick::MAX,
            swap: Tick::MAX,
            ..Self::asymmetric()
        }
    }

    /// Asymmetric with free migration — the DAS-DRAM (FM) overhead probe of
    /// §7 ("ideal DAS-DRAM with zero row migration latency").
    pub fn asymmetric_free_migration() -> Self {
        TimingSet {
            single_migration: Tick::ZERO,
            swap: Tick::ZERO,
            ..Self::asymmetric()
        }
    }

    /// TL-DRAM (§3.1): near segments behave like short-bitline subarrays,
    /// far segments pay the isolation-transistor restore penalty. An
    /// inter-segment copy rides the shared bitline within the subarray —
    /// one tRC, cheaper than DAS's migration-row path.
    pub fn tl_dram() -> Self {
        let far = TimingParams::tl_dram_far();
        TimingSet {
            slow: far,
            fast: TimingParams::fast_subarray(),
            single_migration: far.trc(),
            swap: far.trc() * 2,
        }
    }

    /// CLR-DRAM (Luo et al., ISCA 2020): rows dynamically morph between
    /// max-capacity (commodity timings) and max-latency-reduction (coupled
    /// drivers) modes. Morphing a row is an in-place ACT+PRE pair on the
    /// coupled pair — one tRC per direction, two for an exchange — so we
    /// reuse the migration hooks with intra-subarray costs.
    pub fn clr_dram() -> Self {
        let slow = TimingParams::ddr3_1600();
        TimingSet {
            slow,
            fast: TimingParams::clr_morphed(),
            single_migration: slow.trc(),
            swap: slow.trc() * 2,
        }
    }

    /// LISA (Chang et al., HPCA 2016): links neighbouring subarrays'
    /// bitlines so a row buffer movement (RBM) copies a row across the
    /// boundary in ~8 ns instead of rank-level copy. A DAS-style swap
    /// becomes two RBM hops plus the source/destination activations —
    /// one third of the migration-cell path's 146.25 ns.
    pub fn lisa() -> Self {
        TimingSet {
            single_migration: Tick::from_ns(24.375),
            swap: Tick::from_ns(48.75),
            ..Self::asymmetric()
        }
    }

    /// The parameter set applied to rows of subarray `kind`.
    pub fn params_for(&self, kind: SubarrayKind) -> &TimingParams {
        match kind {
            SubarrayKind::Fast => &self.fast,
            SubarrayKind::Slow => &self.slow,
        }
    }

    /// Rank- and channel-level parameters (tRRD, tFAW, bus, turnarounds) are
    /// set by the conventional peripheral circuits, shared by both kinds.
    pub fn rank_params(&self) -> &TimingParams {
        &self.slow
    }

    /// Whether this device supports in-array row migration.
    pub fn supports_migration(&self) -> bool {
        self.swap != Tick::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let s = TimingParams::ddr3_1600();
        assert_eq!(s.trcd, Tick::from_ns(13.75));
        assert_eq!(s.trc(), Tick::from_ns(48.75));
        let f = TimingParams::fast_subarray();
        assert_eq!(f.trcd, Tick::from_ns(8.75));
        assert_eq!(f.trc(), Tick::from_ns(25.0));
        let set = TimingSet::asymmetric();
        assert_eq!(set.swap, Tick::from_ns(146.25));
        assert_eq!(set.single_migration.as_ns(), 1.5 * s.trc().as_ns());
        assert_eq!(set.swap.as_ns(), 3.0 * s.trc().as_ns());
    }

    #[test]
    fn charm_reduces_only_column_path() {
        let charm = TimingSet::charm();
        let das = TimingSet::asymmetric();
        assert!(charm.fast.cl < das.fast.cl);
        assert_eq!(charm.fast.trcd, das.fast.trcd);
        assert_eq!(charm.slow, das.slow);
        assert!(!charm.supports_migration());
        assert!(das.supports_migration());
    }

    #[test]
    fn homogeneous_sets_are_uniform() {
        let std = TimingSet::homogeneous_slow();
        assert_eq!(
            std.params_for(SubarrayKind::Fast),
            std.params_for(SubarrayKind::Slow)
        );
        let fs = TimingSet::homogeneous_fast();
        assert_eq!(fs.slow.trc(), Tick::from_ns(25.0));
        assert!(!std.supports_migration());
    }

    #[test]
    fn fast_closed_read_is_faster() {
        assert!(
            TimingParams::fast_subarray().closed_read_latency()
                < TimingParams::ddr3_1600().closed_read_latency()
        );
    }

    #[test]
    fn tl_dram_far_is_slower_than_commodity() {
        let far = TimingParams::tl_dram_far();
        let base = TimingParams::ddr3_1600();
        assert!(far.trc() > base.trc());
        assert!(far.twr > base.twr);
        let set = TimingSet::tl_dram();
        assert!(set.supports_migration());
        assert!(set.single_migration < TimingSet::asymmetric().single_migration * 2);
    }

    #[test]
    fn clr_morphed_shrinks_cell_timings_only() {
        let m = TimingParams::clr_morphed();
        let base = TimingParams::ddr3_1600();
        assert!(m.trcd < base.trcd);
        assert!(m.trc() < TimingParams::fast_subarray().trc());
        assert_eq!(m.cl, base.cl, "morphing does not touch the column path");
        let set = TimingSet::clr_dram();
        assert_eq!(set.single_migration, base.trc());
        assert_eq!(set.swap.as_ns(), 2.0 * base.trc().as_ns());
        assert!(set.supports_migration());
    }

    #[test]
    fn lisa_swap_is_one_third_of_das() {
        let lisa = TimingSet::lisa();
        let das = TimingSet::asymmetric();
        assert_eq!(lisa.slow, das.slow);
        assert_eq!(lisa.fast, das.fast);
        assert_eq!(lisa.swap.as_ns() * 3.0, das.swap.as_ns());
        assert_eq!(lisa.single_migration * 2, lisa.swap);
        assert!(lisa.supports_migration());
    }

    #[test]
    fn free_migration_is_zero_cost() {
        let fm = TimingSet::asymmetric_free_migration();
        assert_eq!(fm.swap, Tick::ZERO);
        assert!(fm.supports_migration());
    }

    #[test]
    fn stock_sets_share_one_refresh_cadence() {
        // A rank refreshes on the slow level's cadence alone; that loses
        // nothing only while both levels carry the same tREFI/tRFC.
        for set in [
            TimingSet::homogeneous_slow(),
            TimingSet::homogeneous_fast(),
            TimingSet::asymmetric(),
            TimingSet::asymmetric_free_migration(),
            TimingSet::charm(),
            TimingSet::tl_dram(),
            TimingSet::clr_dram(),
            TimingSet::lisa(),
        ] {
            assert_eq!(set.fast.refresh_cadence(), set.slow.refresh_cadence());
        }
    }

    #[test]
    #[should_panic(expected = "tRCD must not exceed tRAS")]
    fn validate_catches_bad_ordering() {
        let mut p = TimingParams::ddr3_1600();
        p.tras = Tick::from_ns(5.0);
        p.validate();
    }
}
