//! `ladderbench`: the repository benchmark. It runs three workloads through
//! the public APIs of `uncertain_engine` — `wire-fresh` and `wire-hot` over
//! the `unc/1` server on loopback, `churn-50k` in process against a
//! spatially sharded engine — checks a sample of answers against the core
//! library bit for bit, and prints the end-to-end metrics (or, traced, the
//! per-layer metrics) as one JSON line. See `report` for what each metric
//! means and what it should move.

pub mod engines;
pub mod gen;
pub mod oracle;
pub mod report;
pub mod stats;
pub mod trace;
pub mod wire;
pub mod workloads;
