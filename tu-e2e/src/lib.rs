//! `tu-e2e`: the end-to-end lifecycle benchmark of the TimeUnion
//! reproduction. Four workloads run through one phase skeleton
//! ([`harness`]); an untraced run reports the end-to-end metrics, a traced
//! run adds a span per engine call ([`tracer`]) and the per-layer metrics,
//! part counted from public engine state and part probed ([`probes`]).
//! [`spec`] names every metric; `BENCHMARK.md` explains them.
//!
//! The benchmark measures every layer from outside and changes no engine
//! code.

pub mod harness;
pub mod json;
pub mod probes;
pub mod report;
pub mod spec;
pub mod stats;
pub mod tracer;
pub mod workload;
