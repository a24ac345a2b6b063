//! The benchmark's contract in one place: every metric it reports, its
//! unit, which direction is better, the regression bound of each
//! end-to-end metric, and — for each layer metric — the end-to-end metric
//! it is expected to move and the workload where that shows.
//! `BENCHMARK.json` repeats the names, units, directions and bounds; the
//! integration test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

use Better::{Higher, Lower};

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Every end-to-end metric; each is reported for every workload.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ingest_samples_per_s", "1/s", Higher, 0.25),
    e2e("ingest_storage_ms_per_ksample", "ms", Lower, 0.06),
    e2e("query_cold_p50_ms", "ms", Lower, 0.25),
    e2e("query_cold_p99_ms", "ms", Lower, 0.10),
    e2e("reopen_s", "s", Lower, 0.25),
    e2e("bytes_stored_per_sample", "B", Lower, 0.02),
    e2e("write_amp", "ratio", Lower, 0.02),
    e2e("ingest_request_usd_per_gsample", "USD", Lower, 0.03),
    e2e("peak_heap_mib", "MiB", Lower, 0.05),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric a change to this number should move (one of
    /// `END_TO_END`, or a demoted timing at the head of `PER_LAYER`).
    pub moves: &'static str,
    /// The workload where that movement shows.
    pub shows_on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    shows_on: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        shows_on,
    }
}

const INGEST: &str = "ingest_samples_per_s";
const WARM: &str = "query_warm_p50_ms";
const COLD: &str = "query_cold_p50_ms";
const SERIES: &str = "devops_series";
const GROUP: &str = "devops_group";
const CHURN: &str = "series_churn";
const BACKFILL: &str = "ooo_backfill";

/// Every per-layer metric of the traced run. *Counts* are deltas of
/// public engine state around the harness's own spans; *probes* drive one
/// layer's public API directly with the workload's own data.
#[rustfmt::skip]
pub const PER_LAYER: &[PerLayer] = &[
    // Wall-clock timings measured end to end but too unsteady on a shared
    // two-core box to carry a bound (spreads of 20-40 % across ten runs,
    // see BENCHMARK.md); demoted here, as the issue asks, under the names
    // they would have had. They stand for themselves in `moves`, and the
    // layer metrics below may name them there.
    layer("query_warm_p50_ms", "ms", Lower, "query_warm_p50_ms", SERIES),
    layer("query_warm_p99_ms", "ms", Lower, "query_warm_p99_ms", GROUP),
    layer("query_warm_qps", "1/s", Higher, "query_warm_qps", SERIES),
    layer("retention_s", "s", Lower, "retention_s", CHURN),
    // tu-core, timed around its public calls.
    layer("tu-core.ingest.wall_samples_per_s", "1/s", Higher, INGEST, CHURN),
    layer("tu-core.put_batch.ns_per_sample", "ns", Lower, INGEST, SERIES),
    layer("tu-core.put_batch.max_ms", "ms", Lower, INGEST, SERIES),
    layer("tu-core.allocs_per_sample", "count", Lower, INGEST, SERIES),
    layer("tu-core.put_labels.ns_per_series", "ns", Lower, INGEST, CHURN),
    layer("tu-core.put_group_fast.ns_per_row", "ns", Lower, INGEST, GROUP),
    layer("tu-core.query_warm.select_us", "us", Lower, WARM, CHURN),
    layer("tu-core.query_warm.fanout_us", "us", Lower, WARM, SERIES),
    layer("tu-core.query_warm.sort_us", "us", Lower, "query_warm_qps", SERIES),
    layer("tu-core.query.1-1-1.cold_p50_ms", "ms", Lower, COLD, SERIES),
    layer("tu-core.query.1-1-1.warm_p50_ms", "ms", Lower, WARM, SERIES),
    layer("tu-core.query.1-1-24.cold_p50_ms", "ms", Lower, COLD, SERIES),
    layer("tu-core.query.1-1-24.warm_p50_ms", "ms", Lower, WARM, SERIES),
    layer("tu-core.query.1-8-1.cold_p50_ms", "ms", Lower, COLD, SERIES),
    layer("tu-core.query.1-8-1.warm_p50_ms", "ms", Lower, WARM, SERIES),
    layer("tu-core.query.5-1-1.cold_p50_ms", "ms", Lower, COLD, GROUP),
    layer("tu-core.query.5-1-1.warm_p50_ms", "ms", Lower, WARM, GROUP),
    layer("tu-core.query.5-1-24.cold_p50_ms", "ms", Lower, COLD, GROUP),
    layer("tu-core.query.5-1-24.warm_p50_ms", "ms", Lower, WARM, GROUP),
    layer("tu-core.query.5-8-1.cold_p50_ms", "ms", Lower, "query_cold_p99_ms", GROUP),
    layer("tu-core.query.5-8-1.warm_p50_ms", "ms", Lower, "query_warm_p99_ms", GROUP),
    layer("tu-core.query.lastpoint.cold_p50_ms", "ms", Lower, COLD, SERIES),
    layer("tu-core.query.lastpoint.warm_p50_ms", "ms", Lower, WARM, SERIES),
    layer("tu-core.query.node.cold_p50_ms", "ms", Lower, "query_cold_p99_ms", CHURN),
    layer("tu-core.query.node.warm_p50_ms", "ms", Lower, "query_warm_p99_ms", CHURN),
    layer("tu-core.query.ns-gen.cold_p50_ms", "ms", Lower, COLD, CHURN),
    layer("tu-core.query.ns-gen.warm_p50_ms", "ms", Lower, WARM, CHURN),
    layer("tu-core.query.pod-regex.cold_p50_ms", "ms", Lower, COLD, CHURN),
    layer("tu-core.query.pod-regex.warm_p50_ms", "ms", Lower, WARM, CHURN),
    layer("tu-core.agg.pushdown_chunks", "count", Higher, WARM, SERIES),
    layer("tu-core.agg.meta_answered", "count", Higher, WARM, SERIES),
    layer("tu-core.agg.skipped_chunks", "count", Higher, WARM, SERIES),
    layer("tu-core.open.replayed_records", "count", Lower, "reopen_s", CHURN),
    layer("tu-core.open.wall_s", "s", Lower, "reopen_s", CHURN),
    layer("tu-core.retention.objects_removed", "count", Lower, "retention_s", CHURN),
    layer("tu-core.retention.partitions_removed", "count", Lower, "retention_s", SERIES),
    layer("tu-core.mem.objects_bytes_per_series", "B", Lower, "peak_heap_mib", CHURN),
    layer("tu-core.mem.postings_bytes_per_series", "B", Lower, "peak_heap_mib", CHURN),
    // tu-index probes.
    layer("tu-index.add.ns_per_series", "ns", Lower, INGEST, CHURN),
    layer("tu-index.trie.insert_ns", "ns", Lower, INGEST, CHURN),
    layer("tu-index.trie.get_ns", "ns", Lower, WARM, CHURN),
    layer("tu-index.select.exact_us", "us", Lower, WARM, CHURN),
    layer("tu-index.select.regex_us", "us", Lower, WARM, CHURN),
    layer("tu-index.heap_bytes_per_series", "B", Lower, "peak_heap_mib", CHURN),
    // tu-compress probes.
    layer("tu-compress.gorilla.encode_ns_per_sample", "ns", Lower, INGEST, SERIES),
    layer("tu-compress.gorilla.decode_ns_per_sample", "ns", Lower, WARM, SERIES),
    layer("tu-compress.gorilla.fold_ns_per_sample", "ns", Lower, WARM, SERIES),
    layer("tu-compress.gorilla.bytes_per_sample", "B", Lower, "bytes_stored_per_sample", SERIES),
    layer("tu-compress.nullxor.encode_ns_per_value", "ns", Lower, INGEST, GROUP),
    layer("tu-compress.nullxor.decode_ns_per_value", "ns", Lower, WARM, GROUP),
    layer("tu-compress.nullxor.bytes_per_value", "B", Lower, "bytes_stored_per_sample", GROUP),
    layer("tu-compress.snappy.compress_mb_s", "MB/s", Higher, INGEST, SERIES),
    layer("tu-compress.snappy.decompress_mb_s", "MB/s", Higher, COLD, SERIES),
    layer("tu-compress.snappy.ratio", "ratio", Higher, "bytes_stored_per_sample", SERIES),
    // tu-mmap probes and its resident size.
    layer("tu-mmap.chunk.write_ns", "ns", Lower, INGEST, SERIES),
    layer("tu-mmap.chunk.read_ns", "ns", Lower, WARM, SERIES),
    layer("tu-mmap.page_cache_bytes", "B", Lower, "peak_heap_mib", CHURN),
    // tu-lsm counts and probes.
    layer("tu-lsm.wal.records", "count", Lower, "write_amp", SERIES),
    layer("tu-lsm.wal.fsyncs", "count", Lower, INGEST, SERIES),
    layer("tu-lsm.wal.bytes", "B", Lower, "write_amp", SERIES),
    layer("tu-lsm.wal.records_per_fsync", "count", Higher, INGEST, SERIES),
    layer("tu-lsm.wal.append_commit_ns_per_record", "ns", Lower, INGEST, SERIES),
    layer("tu-lsm.wal.replay_ns_per_record", "ns", Lower, "reopen_s", CHURN),
    layer("tu-lsm.memtable.put_ns", "ns", Lower, INGEST, SERIES),
    layer("tu-lsm.sstable.build_mb_s", "MB/s", Higher, INGEST, SERIES),
    layer("tu-lsm.sstable.range_cold_us", "us", Lower, COLD, SERIES),
    layer("tu-lsm.sstable.range_warm_us", "us", Lower, WARM, SERIES),
    layer("tu-lsm.sstable.block_loads_per_query", "count", Lower, COLD, SERIES),
    layer("tu-lsm.sstable.block_load_bytes_per_query", "B", Lower, COLD, SERIES),
    layer("tu-lsm.cache.hit_rate", "ratio", Higher, WARM, SERIES),
    layer("tu-lsm.cache.evictions", "count", Lower, WARM, SERIES),
    layer("tu-lsm.cache.get_ns", "ns", Lower, WARM, SERIES),
    layer("tu-lsm.bloom.negative_rate", "ratio", Higher, COLD, SERIES),
    layer("tu-lsm.readahead.blocks_per_request", "count", Higher, COLD, SERIES),
    layer("tu-lsm.tree.flush_busy_s", "s", Lower, INGEST, SERIES),
    layer("tu-lsm.tree.compact_l0_l1_busy_s", "s", Lower, INGEST, SERIES),
    layer("tu-lsm.tree.compact_l1_l2_busy_s", "s", Lower, INGEST, BACKFILL),
    layer("tu-lsm.tree.tables", "count", Lower, COLD, BACKFILL),
    layer("tu-lsm.tree.partitions", "count", Lower, COLD, SERIES),
    layer("tu-lsm.tree.put_ns_per_chunk", "ns", Lower, INGEST, SERIES),
    layer("tu-lsm.tree.range_chunks_warm_us", "us", Lower, WARM, SERIES),
    // tu-cloud counts over ingest + drain, per cold query, and probes of
    // the simulator's own real cost.
    layer("tu-cloud.fast.put_requests", "count", Lower, "ingest_storage_ms_per_ksample", SERIES),
    layer("tu-cloud.fast.get_requests", "count", Lower, "ingest_storage_ms_per_ksample", BACKFILL),
    layer("tu-cloud.fast.bytes_written", "B", Lower, "write_amp", SERIES),
    layer("tu-cloud.fast.bytes_read", "B", Lower, "ingest_storage_ms_per_ksample", BACKFILL),
    layer("tu-cloud.slow.put_requests", "count", Lower, "ingest_request_usd_per_gsample", BACKFILL),
    layer("tu-cloud.slow.get_requests", "count", Lower, "ingest_request_usd_per_gsample", BACKFILL),
    layer("tu-cloud.slow.bytes_written", "B", Lower, "write_amp", BACKFILL),
    layer("tu-cloud.slow.bytes_read", "B", Lower, "ingest_storage_ms_per_ksample", BACKFILL),
    layer("tu-cloud.virtual_s", "s", Lower, "ingest_storage_ms_per_ksample", BACKFILL),
    layer("tu-cloud.slow.gets_per_cold_query", "count", Lower, COLD, SERIES),
    layer("tu-cloud.slow.bytes_per_cold_query", "B", Lower, COLD, SERIES),
    layer("tu-cloud.slow.first_reads_per_cold_query", "count", Lower, COLD, SERIES),
    layer("tu-cloud.fast.append_wall_us", "us", Lower, INGEST, SERIES),
    layer("tu-cloud.slow.put_wall_us", "us", Lower, INGEST, BACKFILL),
    layer("tu-cloud.slow.get_range_wall_us", "us", Lower, COLD, SERIES),
    // tu-obs probes and the recorder's own cost.
    layer("tu-obs.counter_inc_ns", "ns", Lower, INGEST, SERIES),
    layer("tu-obs.traced_counter_ns", "ns", Lower, INGEST, SERIES),
    layer("tu-obs.span_ns", "ns", Lower, WARM, SERIES),
    layer("bench.trace_overhead_pct", "%", Lower, INGEST, SERIES),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn tables_respect_the_contract_limits() {
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(end_to_end("setup_s").is_some_and(|m| m.unit == "s" && m.better == Lower));
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().map(|w| w.0))
            .collect();
        assert!(names.iter().all(|n| well_formed(n)));
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(!u.is_empty() && u.len() <= 16, "{u}");
            assert!(
                u.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "{u}"
            );
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "a name is used twice");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn every_layer_metric_points_at_a_real_metric_and_workload() {
        for m in PER_LAYER {
            let known =
                end_to_end(m.moves).is_some() || PER_LAYER.iter().any(|l| l.name == m.moves);
            assert!(known, "{} moves {}", m.name, m.moves);
            assert!(WORKLOADS.iter().any(|w| w.0 == m.shows_on), "{}", m.name);
        }
    }
}
