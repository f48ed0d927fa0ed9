//! Pluggable DRAM timing-architecture backends.
//!
//! The paper's evaluation is comparative: DAS-DRAM is judged against rival
//! low-latency DRAM proposals. This crate turns the simulator's single
//! hard-wired DDR3+DAS timing path into a *backend family*: each backend
//! describes one published architecture as a bundle of
//!
//! * **latency-class resolution** — which [`TimingParams`] a row sees,
//!   expressed as the fast/slow [`TimingSet`] the constraint engine in
//!   `das-dram` already consumes (refresh lives inside `TimingParams` as
//!   `tREFI`/`tRFC`);
//! * **inter-row copy cost** — the `single_migration`/`swap` fields of the
//!   same [`TimingSet`], reused by the existing migration machinery with a
//!   backend-specific cost model;
//! * **row placement** — geometry overrides (fast ratio, grouping,
//!   arrangement) the backend requires, plus whether the fast level is
//!   managed exclusively (DAS swaps) or inclusively (TL-DRAM caching);
//! * **capacity accounting** — usable rows per bank when the architecture
//!   trades capacity for latency (CLR-DRAM row coupling);
//! * **area accounting** — the die-area overhead models from `dram::area`.
//!
//! The six implementations are [`Ddr3Baseline`], [`Das`], [`TlDram`],
//! [`ClrDram`], [`Lisa`], and [`Salp`]. All are stateless unit structs;
//! the simulator's `Design::backend()` maps each backend design straight
//! to one of them and is the only selector. Refresh has one cadence per
//! rank, taken from the slow level's `tREFI`/`tRFC`.

use das_dram::area::{
    AsymmetricAreaModel, ClrDramAreaModel, LisaAreaModel, SalpAreaModel, TlDramAreaModel,
};
use das_dram::geometry::{Arrangement, BankLayout, FastRatio};
use das_dram::timing::TimingSet;

/// How the fast latency level is managed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastLevelManagement {
    /// No fast level (or no management): rows never move.
    None,
    /// Exclusive: a row lives in exactly one level; promotion swaps it with
    /// a victim (DAS, CLR-DRAM morph exchange, LISA).
    Exclusive,
    /// Inclusive: the fast level caches copies of slow rows; the slow copy
    /// stays valid and fast capacity is lost to duplication (TL-DRAM).
    Inclusive,
}

/// Geometry overrides a backend imposes on the system configuration.
///
/// `None` fields leave the configured value untouched, so sweeps can still
/// vary parameters the backend does not pin down.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlacementSpec {
    /// Required fast-level capacity share.
    pub fast_ratio: Option<FastRatio>,
    /// Required management group size (rows considered together).
    pub group_size: Option<u32>,
    /// Required physical arrangement of fast subarrays.
    pub arrangement: Option<Arrangement>,
    /// Required slow-subarray row count (TL-DRAM's 384-row far segment).
    pub slow_subarray_rows: Option<u32>,
    /// Whether the backend enables subarray-level parallelism.
    pub salp: bool,
}

/// One DRAM timing architecture.
///
/// Implementations are stateless: everything the constraint engine needs is
/// returned by value, and the same backend instance serves every job.
pub trait DramBackend: Sync {
    /// The timing sets the DDR3 constraint engine applies: per-kind
    /// latency-class parameters (including `tREFI`/`tRFC` refresh costs)
    /// plus the inter-row copy costs driving the migration machinery.
    fn timing(&self) -> TimingSet;

    /// How rows move (or don't) between latency levels.
    fn management(&self) -> FastLevelManagement;

    /// Geometry the backend requires (defaults to no constraints).
    fn placement(&self) -> PlacementSpec {
        PlacementSpec::default()
    }

    /// Usable rows per bank when the architecture trades capacity for
    /// latency; `None` means full capacity. (Inclusive caching losses are
    /// accounted separately by the management layer.)
    fn usable_rows(&self, _layout: &BankLayout) -> Option<u64> {
        None
    }

    /// Fractional die-area overhead versus commodity DRAM of the same
    /// nominal capacity.
    fn area_overhead(&self) -> f64;
}

/// Commodity DDR3-1600.
pub struct Ddr3Baseline;

impl DramBackend for Ddr3Baseline {
    fn timing(&self) -> TimingSet {
        TimingSet::homogeneous_slow()
    }

    fn management(&self) -> FastLevelManagement {
        FastLevelManagement::None
    }

    fn area_overhead(&self) -> f64 {
        0.0
    }
}

/// The paper's DAS-DRAM: asymmetric subarrays, exclusive fast level managed
/// by migration-cell row swaps (146.25 ns per swap).
pub struct Das;

impl DramBackend for Das {
    fn timing(&self) -> TimingSet {
        TimingSet::asymmetric()
    }

    fn management(&self) -> FastLevelManagement {
        FastLevelManagement::Exclusive
    }

    fn area_overhead(&self) -> f64 {
        AsymmetricAreaModel::default().overhead()
    }
}

/// TL-DRAM: near/far bitline segments; the near segment inclusively caches
/// hot far rows, copied over the shared bitline in one far-segment tRC.
pub struct TlDram;

impl DramBackend for TlDram {
    fn timing(&self) -> TimingSet {
        TimingSet::tl_dram()
    }

    fn management(&self) -> FastLevelManagement {
        FastLevelManagement::Inclusive
    }

    fn placement(&self) -> PlacementSpec {
        PlacementSpec {
            fast_ratio: Some(FastRatio::new(1, 4)),
            group_size: Some(64),
            arrangement: Some(Arrangement::Interleaving),
            slow_subarray_rows: Some(384),
            salp: false,
        }
    }

    fn area_overhead(&self) -> f64 {
        TlDramAreaModel::default().overhead()
    }
}

/// CLR-DRAM: rows morph in place into a coupled max-latency-reduction mode.
/// The coupled partner row loses its capacity, so a bank's usable rows drop
/// to the slow-row count; a morph exchange costs two commodity tRCs.
pub struct ClrDram;

impl DramBackend for ClrDram {
    fn timing(&self) -> TimingSet {
        TimingSet::clr_dram()
    }

    fn management(&self) -> FastLevelManagement {
        FastLevelManagement::Exclusive
    }

    fn usable_rows(&self, layout: &BankLayout) -> Option<u64> {
        // Every morphed (fast-class) row couples with a neighbour whose
        // capacity is lost; only the slow-row population stores data.
        Some(layout.slow_rows() as u64)
    }

    fn area_overhead(&self) -> f64 {
        ClrDramAreaModel::default().overhead()
    }
}

/// LISA: the DAS asymmetric device with inter-subarray links, cutting the
/// row-swap cost to a third of the migration-cell path.
pub struct Lisa;

impl DramBackend for Lisa {
    fn timing(&self) -> TimingSet {
        TimingSet::lisa()
    }

    fn management(&self) -> FastLevelManagement {
        FastLevelManagement::Exclusive
    }

    fn area_overhead(&self) -> f64 {
        LisaAreaModel::default().overhead()
    }
}

/// SALP: commodity timings with subarray-level parallelism — precharge and
/// activate overlap across subarrays within a bank. No fast level.
pub struct Salp;

impl DramBackend for Salp {
    fn timing(&self) -> TimingSet {
        TimingSet::homogeneous_slow()
    }

    fn management(&self) -> FastLevelManagement {
        FastLevelManagement::None
    }

    fn placement(&self) -> PlacementSpec {
        PlacementSpec {
            salp: true,
            ..PlacementSpec::default()
        }
    }

    fn area_overhead(&self) -> f64 {
        SalpAreaModel::default().overhead()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_dram::tick::Tick;

    #[test]
    fn das_backend_is_exactly_the_paper_device() {
        assert_eq!(Das.timing(), TimingSet::asymmetric());
        assert_eq!(Das.management(), FastLevelManagement::Exclusive);
        assert!(Das.placement().fast_ratio.is_none(), "DAS sweeps freely");
    }

    #[test]
    fn baseline_and_salp_have_no_fast_level() {
        for b in [&Ddr3Baseline as &dyn DramBackend, &Salp] {
            assert_eq!(b.management(), FastLevelManagement::None);
            assert!(!b.timing().supports_migration());
        }
        assert!(Salp.placement().salp);
        assert!(!Ddr3Baseline.placement().salp);
        assert_eq!(Ddr3Baseline.area_overhead(), 0.0);
    }

    #[test]
    fn copy_costs_order_lisa_below_clr_below_das() {
        let (das, lisa, clr) = (Das.timing().swap, Lisa.timing().swap, ClrDram.timing().swap);
        assert!(lisa < clr && clr < das);
        assert!(lisa > Tick::ZERO);
    }

    #[test]
    fn clr_loses_the_morphed_rows_capacity() {
        let layout = BankLayout::build(
            4096,
            FastRatio::new(1, 8),
            Arrangement::ReducedInterleaving,
            128,
            512,
        );
        let usable = ClrDram.usable_rows(&layout).unwrap();
        assert_eq!(usable, layout.slow_rows() as u64);
        assert!(usable < 4096);
        for b in [
            &Ddr3Baseline as &dyn DramBackend,
            &Das,
            &TlDram,
            &Lisa,
            &Salp,
        ] {
            assert!(b.usable_rows(&layout).is_none());
        }
    }

    #[test]
    fn tl_dram_placement_pins_the_paper_geometry() {
        let p = TlDram.placement();
        assert_eq!(p.fast_ratio, Some(FastRatio::new(1, 4)));
        assert_eq!(p.group_size, Some(64));
        assert_eq!(p.arrangement, Some(Arrangement::Interleaving));
        assert_eq!(p.slow_subarray_rows, Some(384));
    }

    #[test]
    fn area_overheads_are_ranked() {
        let o = |b: &dyn DramBackend| b.area_overhead();
        assert!(o(&TlDram) > o(&Das));
        assert!(o(&Das) > o(&Lisa));
        assert!(o(&Lisa) > o(&Salp));
        assert!(o(&Salp) > o(&ClrDram));
        assert!(o(&ClrDram) > 0.0);
    }
}
