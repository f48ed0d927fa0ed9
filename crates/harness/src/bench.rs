//! Stage-profiler settings shared with the pinned performance benchmark
//! (`perfbench/`), which times its traced runs with the same stride.

/// Profiler sampling stride used by profiled benchmark runs (every Nth
/// stage occurrence is timed).
pub const BENCH_SAMPLE_EVERY: u32 = 64;
