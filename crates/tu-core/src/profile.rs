//! Per-query cost profiles ("explain analyze" for storage spend).
//!
//! [`QueryProfile`] is the paper's cost model (Eq. 4/6) evaluated for one
//! operation instead of the whole process: how many billable Get/Put
//! requests and bytes each tier charged *this* query, how the block cache
//! and the read plan's merged requests changed that bill, and where the
//! wall time went stage by stage. Built from a finished
//! [`tu_obs::TraceSummary`] by [`crate::TimeUnion::query_profiled`].

use std::collections::BTreeMap;
use std::fmt;

use tu_obs::{SpanDelta, TraceSummary};

/// Request/byte charges one operation caused on one storage tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierProfile {
    /// Billable Get requests (the per-request term of Eq. 4/6).
    pub get_requests: u64,
    /// Billable Put requests.
    pub put_requests: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    /// Reads that paid the first-read penalty (Figure 1c).
    pub first_reads: u64,
}

impl TierProfile {
    fn from_summary(summary: &TraceSummary, tier: &str) -> TierProfile {
        let c = |suffix: &str| summary.counter(&format!("cloud.{tier}.{suffix}"));
        TierProfile {
            get_requests: c("get_requests"),
            put_requests: c("put_requests"),
            bytes_read: c("bytes_read"),
            bytes_written: c("bytes_written"),
            first_reads: c("first_reads"),
        }
    }
}

/// Heat one query contributed to one time partition on one tier, from
/// the partition heat registry's before/after delta around the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeatContribution {
    /// Partition start (inclusive, ms since epoch).
    pub start_ms: i64,
    /// Partition end (exclusive, ms since epoch).
    pub end_ms: i64,
    /// Owning tier (`block` or `object`).
    pub tier: &'static str,
    /// Requests this query charged the partition.
    pub requests: u64,
    /// Bytes this query moved for the partition.
    pub bytes: u64,
}

/// One timed stage of a query (from the trace context's span deltas).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTiming {
    /// Short stage name (`select`, `plan`, `fanout`, `sort`).
    pub name: String,
    /// Completions of this stage inside the query (normally 1).
    pub count: u64,
    pub total_ns: u64,
}

/// Everything one profiled query spent, with stable text and JSON
/// renderings. The per-tier request/byte totals are exact: the traced
/// counters charge the global registry and the query's context in the
/// same call, on the query thread and every worker it fanned out to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryProfile {
    /// Trace-context id (matches flight-recorder events of this query).
    pub trace_id: u64,
    /// Operation label (`query`).
    pub op: String,
    /// Series/group ids the index matched.
    pub matched_ids: usize,
    /// Query pool width the engine used.
    pub threads: usize,
    /// End-to-end wall time of the profiled call.
    pub wall_ns: u64,
    /// Stage timings in execution order.
    pub stages: Vec<StageTiming>,
    /// Fast-tier (cloud block storage) charges.
    pub block: TierProfile,
    /// Slow-tier (cloud object storage) charges.
    pub object: TierProfile,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// SSTable data blocks this query fetched from storage.
    pub block_loads: u64,
    pub block_load_bytes: u64,
    /// Requests of the read plan that carried ≥ 2 blocks (each replaced
    /// that many per-block Gets).
    pub readahead_requests: u64,
    /// Blocks those merged requests carried.
    pub readahead_blocks: u64,
    /// Bytes those requests transferred only to bridge the gaps between
    /// wanted blocks: what the saved requests cost in transfer.
    pub readahead_gap_bytes: u64,
    /// Every raw counter delta of the trace context, for consumers that
    /// need a metric this struct does not surface.
    pub counters: BTreeMap<String, u64>,
    /// Per-partition heat this query contributed (filled by the engine
    /// from a heat-registry delta; empty when no partition was touched).
    pub heat: Vec<HeatContribution>,
}

/// Stage span names, in display order, with their short labels. `plan`
/// (all of the query's storage reads) runs inside `fanout` and is part of
/// its time.
const STAGES: [(&str, &str); 4] = [
    ("core.query.select", "select"),
    ("core.query.plan", "plan"),
    ("core.query.fanout", "fanout"),
    ("core.query.sort", "sort"),
];

impl QueryProfile {
    /// Builds a profile from a finished query trace context.
    pub fn from_summary(
        summary: &TraceSummary,
        matched_ids: usize,
        threads: usize,
        wall_ns: u64,
    ) -> QueryProfile {
        let stages = STAGES
            .iter()
            .filter_map(|(span, label)| {
                let SpanDelta { count, total_ns } = summary.span(span);
                (count > 0).then(|| StageTiming {
                    name: (*label).to_string(),
                    count,
                    total_ns,
                })
            })
            .collect();
        QueryProfile {
            trace_id: summary.id,
            op: summary.op.clone(),
            matched_ids,
            threads,
            wall_ns,
            stages,
            block: TierProfile::from_summary(summary, "block"),
            object: TierProfile::from_summary(summary, "object"),
            cache_hits: summary.counter("lsm.cache.hits"),
            cache_misses: summary.counter("lsm.cache.misses"),
            block_loads: summary.counter("lsm.sstable.block_loads"),
            block_load_bytes: summary.counter("lsm.sstable.block_load_bytes"),
            readahead_requests: summary.counter("lsm.readahead.coalesced_requests"),
            readahead_blocks: summary.counter("lsm.readahead.coalesced_blocks"),
            readahead_gap_bytes: summary.counter("lsm.readahead.gap_bytes"),
            counters: summary.counters.clone(),
            heat: Vec::new(),
        }
    }

    /// Fills [`QueryProfile::heat`] from two heat-registry snapshots taken
    /// around the query: the per-partition lifetime request/byte deltas
    /// between them are this query's contribution.
    pub fn fill_heat(&mut self, before: &tu_obs::HeatSnapshot, after: &tu_obs::HeatSnapshot) {
        self.heat.clear();
        for p in &after.partitions {
            let prior = before.partition(p.key.start_ms, p.key.end_ms);
            for (t, tier) in p.tiers.iter().enumerate() {
                let (req0, bytes0) = prior
                    .map(|q| {
                        let h = &q.tiers[t];
                        (h.requests(), h.bytes_read + h.bytes_written)
                    })
                    .unwrap_or((0, 0));
                let requests = tier.requests().saturating_sub(req0);
                let bytes = (tier.bytes_read + tier.bytes_written).saturating_sub(bytes0);
                if requests > 0 || bytes > 0 {
                    self.heat.push(HeatContribution {
                        start_ms: p.key.start_ms,
                        end_ms: p.key.end_ms,
                        tier: tu_obs::heat::HEAT_TIERS[t],
                        requests,
                        bytes,
                    });
                }
            }
        }
    }

    /// Total billable requests across both tiers (Get + Put), the
    /// numerator of the paper's monetary request cost.
    pub fn total_requests(&self) -> u64 {
        self.block.get_requests
            + self.block.put_requests
            + self.object.get_requests
            + self.object.put_requests
    }

    /// Stable JSON encoding of the profile.
    pub fn to_json(&self) -> String {
        let tier = |t: &TierProfile| {
            format!(
                "{{\"get_requests\":{},\"put_requests\":{},\"bytes_read\":{},\
                 \"bytes_written\":{},\"first_reads\":{}}}",
                t.get_requests, t.put_requests, t.bytes_read, t.bytes_written, t.first_reads
            )
        };
        let mut out = format!(
            "{{\"trace_id\":{},\"op\":\"{}\",\"matched_ids\":{},\"threads\":{},\"wall_ns\":{}",
            self.trace_id, self.op, self.matched_ids, self.threads, self.wall_ns
        );
        out.push_str(",\"stages\":[");
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"count\":{},\"total_ns\":{}}}",
                s.name, s.count, s.total_ns
            ));
        }
        out.push_str("],\"heat\":[");
        for (i, h) in self.heat.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"start_ms\":{},\"end_ms\":{},\"tier\":\"{}\",\"requests\":{},\"bytes\":{}}}",
                h.start_ms, h.end_ms, h.tier, h.requests, h.bytes
            ));
        }
        out.push_str("],\"tiers\":{\"block\":");
        out.push_str(&tier(&self.block));
        out.push_str(",\"object\":");
        out.push_str(&tier(&self.object));
        out.push_str(&format!(
            "}},\"cache\":{{\"hits\":{},\"misses\":{}}},\
             \"block_loads\":{{\"count\":{},\"bytes\":{}}},\
             \"readahead\":{{\"coalesced_requests\":{},\"coalesced_blocks\":{},\
             \"gap_bytes\":{}}}}}",
            self.cache_hits,
            self.cache_misses,
            self.block_loads,
            self.block_load_bytes,
            self.readahead_requests,
            self.readahead_blocks,
            self.readahead_gap_bytes
        ));
        out
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl fmt::Display for QueryProfile {
    /// The "explain analyze" rendering: stable field order, one concept
    /// per line, parse-friendly `key=value` columns.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "QUERY PROFILE trace={} op={} matched={} threads={} wall={}",
            self.trace_id,
            self.op,
            self.matched_ids,
            self.threads,
            fmt_ns(self.wall_ns)
        )?;
        for s in &self.stages {
            writeln!(
                f,
                "  stage {:<8} time={:<12} count={}",
                s.name,
                fmt_ns(s.total_ns),
                s.count
            )?;
        }
        for (name, t) in [("block", &self.block), ("object", &self.object)] {
            writeln!(
                f,
                "  tier {:<7} gets={:<6} puts={:<6} bytes_read={:<10} bytes_written={:<10} first_reads={}",
                name, t.get_requests, t.put_requests, t.bytes_read, t.bytes_written, t.first_reads
            )?;
        }
        writeln!(
            f,
            "  cache   hits={} misses={} block_loads={} block_load_bytes={}",
            self.cache_hits, self.cache_misses, self.block_loads, self.block_load_bytes
        )?;
        writeln!(
            f,
            "  readahead coalesced_requests={} coalesced_blocks={} gap_bytes={}",
            self.readahead_requests, self.readahead_blocks, self.readahead_gap_bytes
        )?;
        for h in &self.heat {
            writeln!(
                f,
                "  heat partition=[{}..{}) tier={:<7} requests={:<6} bytes={}",
                h.start_ms, h.end_ms, h.tier, h.requests, h.bytes
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_summary() -> TraceSummary {
        let ctx = tu_obs::TraceContext::start("query");
        tu_obs::traced("cloud.object.get_requests").add(40);
        tu_obs::traced("cloud.object.bytes_read").add(163_840);
        tu_obs::traced("cloud.object.first_reads").add(2);
        tu_obs::traced("cloud.block.get_requests").add(3);
        tu_obs::traced("lsm.cache.hits").add(10);
        tu_obs::traced("lsm.cache.misses").add(40);
        tu_obs::traced("lsm.sstable.block_loads").add(40);
        tu_obs::traced("lsm.sstable.block_load_bytes").add(163_840);
        tu_obs::traced("lsm.readahead.coalesced_requests").add(2);
        tu_obs::traced("lsm.readahead.coalesced_blocks").add(39);
        tu_obs::traced("lsm.readahead.gap_bytes").add(70_000);
        tu_obs::span("core.query.select").observe_ns(10_000);
        tu_obs::span("core.query.plan").observe_ns(1_500_000);
        tu_obs::span("core.query.fanout").observe_ns(2_000_000);
        tu_obs::span("core.query.sort").observe_ns(5_000);
        ctx.finish()
    }

    #[test]
    fn profile_extracts_tiers_stages_and_cache() {
        let s = sample_summary();
        let p = QueryProfile::from_summary(&s, 7, 8, 2_100_000);
        assert_eq!(p.trace_id, s.id);
        assert_eq!(p.matched_ids, 7);
        assert_eq!(p.threads, 8);
        assert_eq!(p.object.get_requests, 40);
        assert_eq!(p.object.bytes_read, 163_840);
        assert_eq!(p.object.first_reads, 2);
        assert_eq!(p.block.get_requests, 3);
        assert_eq!(p.block.put_requests, 0);
        assert_eq!(p.cache_hits, 10);
        assert_eq!(p.cache_misses, 40);
        assert_eq!(p.readahead_requests, 2);
        assert_eq!(p.readahead_blocks, 39);
        assert_eq!(p.readahead_gap_bytes, 70_000);
        assert_eq!(p.total_requests(), 43);
        let stages: Vec<&str> = p.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(stages, ["select", "plan", "fanout", "sort"]);
        assert_eq!(p.stages[2].total_ns, 2_000_000);
        // Raw deltas ride along for everything else.
        assert_eq!(p.counters["lsm.cache.misses"], 40);
    }

    #[test]
    fn text_rendering_is_stable() {
        let p = QueryProfile::from_summary(&sample_summary(), 7, 8, 2_100_000);
        let text = p.to_string();
        assert!(text.starts_with(&format!("QUERY PROFILE trace={} op=query", p.trace_id)));
        assert!(text.contains("matched=7 threads=8 wall=2.100ms"));
        assert!(text.contains("stage select"));
        assert!(text.contains("stage fanout"));
        assert!(text.contains("tier object  gets=40"));
        assert!(text.contains("first_reads=2"));
        assert!(text.contains("cache   hits=10 misses=40"));
        assert!(text.contains("coalesced_requests=2 coalesced_blocks=39 gap_bytes=70000"));
    }

    #[test]
    fn json_rendering_is_balanced_and_complete() {
        let p = QueryProfile::from_summary(&sample_summary(), 7, 8, 2_100_000);
        let json = p.to_json();
        assert!(json.contains("\"op\":\"query\""));
        assert!(json.contains("\"matched_ids\":7"));
        assert!(json.contains("\"object\":{\"get_requests\":40"));
        assert!(json.contains("\"stages\":[{\"name\":\"select\""));
        assert!(json.contains("\"coalesced_blocks\":39,\"gap_bytes\":70000}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn heat_delta_fills_and_renders() {
        use tu_obs::{HeatSnapshot, PartitionHeat, PartitionKey, TierHeat};
        let key = PartitionKey {
            start_ms: 0,
            end_ms: 7_200_000,
        };
        let cell = |gets: u64, bytes: u64| TierHeat {
            get_requests: gets,
            bytes_read: bytes,
            ..TierHeat::default()
        };
        let before = HeatSnapshot {
            at_ms: 0,
            partitions: vec![PartitionHeat {
                key,
                tiers: [cell(2, 100), TierHeat::default()],
            }],
            unattributed: [TierHeat::default(), TierHeat::default()],
        };
        let after = HeatSnapshot {
            at_ms: 1,
            partitions: vec![PartitionHeat {
                key,
                tiers: [cell(5, 400), cell(1, 64)],
            }],
            unattributed: [TierHeat::default(), TierHeat::default()],
        };
        let mut p = QueryProfile::from_summary(&sample_summary(), 1, 1, 1);
        p.fill_heat(&before, &after);
        assert_eq!(p.heat.len(), 2);
        assert_eq!(p.heat[0].tier, "block");
        assert_eq!(p.heat[0].requests, 3);
        assert_eq!(p.heat[0].bytes, 300);
        assert_eq!(p.heat[1].tier, "object");
        assert_eq!(p.heat[1].requests, 1);
        let text = p.to_string();
        assert!(text.contains("heat partition=[0..7200000) tier=block"));
        let json = p.to_json();
        assert!(json.contains("\"heat\":[{\"start_ms\":0,\"end_ms\":7200000,\"tier\":\"block\",\"requests\":3,\"bytes\":300}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn empty_summary_profiles_to_zeroes() {
        let ctx = tu_obs::TraceContext::start("query");
        let p = QueryProfile::from_summary(&ctx.finish(), 0, 1, 0);
        assert_eq!(p.total_requests(), 0);
        assert!(p.stages.is_empty());
        assert_eq!(p.block, TierProfile::default());
        assert_eq!(p.object, TierProfile::default());
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(1_500), "1.5us");
        assert_eq!(fmt_ns(2_100_000), "2.100ms");
        assert_eq!(fmt_ns(3_500_000_000), "3.500s");
    }
}
