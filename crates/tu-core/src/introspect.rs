//! JSON payloads behind the storage introspection endpoints.
//!
//! [`crate::TimeUnion::start_serving`] registers three extra endpoints on
//! the live plane; this module renders their bodies with stable,
//! hand-rolled JSON (field order never changes between scrapes):
//!
//! * `/introspect/lsm` — [`lsm_json`]: levels, partition boundaries,
//!   table inventory, stats-footer coverage, block-cache counters.
//! * `/introspect/partitions` — [`partitions_json`]: the LSM partition
//!   view joined with the partition heat registry (requests, bytes,
//!   decayed rate windows, hot/warm/cold class, last access).
//! * `/costs` — rendered by [`tu_cloud::ledger::CostLedger::to_json`];
//!   not duplicated here.

use tu_lsm::{LsmIntrospect, PartitionIntrospect, TableIntrospect};
use tu_obs::heat::{classify, HEAT_TIERS};
use tu_obs::{HeatSnapshot, TierHeat};

/// Escapes `"` and `\` for embedding in a JSON string literal (table
/// names are filesystem-safe, so control characters cannot appear).
fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn table_json(t: &TableIntrospect) -> String {
    format!(
        "{{\"name\":\"{}\",\"seq\":{},\"entries\":{},\"file_len\":{},\
         \"stats_chunks\":{},\"patches\":{}}}",
        esc(&t.name),
        t.seq,
        t.entries,
        t.file_len,
        t.stats_chunks,
        t.patches
    )
}

fn partition_core_json(p: &PartitionIntrospect) -> String {
    format!(
        "\"start_ms\":{},\"end_ms\":{},\"tier\":\"{}\",\"bytes\":{},\"fast_bytes\":{},\
         \"chunks\":{},\"stats_chunks\":{},\"patches\":{}",
        p.start_ms, p.end_ms, p.tier, p.bytes, p.fast_bytes, p.chunks, p.stats_chunks, p.patches
    )
}

/// The `/introspect/lsm` body: tree geometry and table inventory, plus
/// the block cache's counters.
pub fn lsm_json(view: &LsmIntrospect) -> String {
    let mut out = format!(
        "{{\"r1_ms\":{},\"r2_ms\":{},\"levels\":[",
        view.r1_ms, view.r2_ms
    );
    for (i, level) in view.levels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"level\":{},\"tier\":\"{}\",\"partitions\":[",
            level.level, level.tier
        ));
        for (j, p) in level.partitions.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('{');
            out.push_str(&partition_core_json(p));
            out.push_str(",\"tables\":[");
            for (k, t) in p.tables.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                out.push_str(&table_json(t));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
    }
    out.push_str(&format!(
        "],\"cache\":{{\"shards\":{},\"used_bytes\":{},\"hits\":{},\
         \"misses\":{},\"evictions\":{}}}}}",
        view.cache.shards,
        view.cache.used_bytes,
        view.cache.hits,
        view.cache.misses,
        view.cache.evictions
    ));
    out
}

fn tier_heat_json(h: &TierHeat) -> String {
    format!(
        "{{\"get_requests\":{},\"put_requests\":{},\"delete_requests\":{},\
         \"bytes_read\":{},\"bytes_written\":{},\"first_reads\":{},\
         \"last_access_ms\":{},\"rates\":{{\"1m\":{:.6},\"10m\":{:.6},\"1h\":{:.6}}}}}",
        h.get_requests,
        h.put_requests,
        h.delete_requests,
        h.bytes_read,
        h.bytes_written,
        h.first_reads,
        h.last_access_ms,
        h.rates[0],
        h.rates[1],
        h.rates[2]
    )
}

fn heat_cell_json(tiers: &[TierHeat; 2]) -> String {
    let mut out = String::from("{");
    for (i, name) in HEAT_TIERS.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{}", name, tier_heat_json(&tiers[i])));
    }
    let combined: [f64; 3] = std::array::from_fn(|w| tiers.iter().map(|t| t.rates[w]).sum::<f64>());
    out.push_str(&format!(",\"class\":\"{}\"}}", classify(&combined)));
    out
}

/// The `/introspect/partitions` body: every LSM partition with its heat
/// cell joined in, plus heat-only partitions (data already compacted or
/// purged away) and the unattributed catch-all, so that summing every
/// heat cell in the document reproduces the `cloud.<tier>.*` counter
/// totals exactly.
pub fn partitions_json(view: &LsmIntrospect, heat: &HeatSnapshot) -> String {
    let empty = [TierHeat::default(), TierHeat::default()];
    let mut out = format!("{{\"at_ms\":{},\"partitions\":[", heat.at_ms);
    let lsm_parts = view.partitions();
    for (i, p) in lsm_parts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let cell = heat
            .partition(p.start_ms, p.end_ms)
            .map(|h| &h.tiers)
            .unwrap_or(&empty);
        out.push('{');
        out.push_str(&partition_core_json(p));
        out.push_str(&format!(
            ",\"tables\":{},\"heat\":{}}}",
            p.tables.len(),
            heat_cell_json(cell)
        ));
    }
    // Heat the registry still holds for time ranges the tree no longer
    // reports (merged-away boundaries, purged partitions).
    out.push_str("],\"unmapped\":[");
    let mut first = true;
    for h in &heat.partitions {
        let mapped = lsm_parts
            .iter()
            .any(|p| p.start_ms == h.key.start_ms && p.end_ms == h.key.end_ms);
        if mapped {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"start_ms\":{},\"end_ms\":{},\"heat\":{}}}",
            h.key.start_ms,
            h.key.end_ms,
            heat_cell_json(&h.tiers)
        ));
    }
    out.push_str(&format!(
        "],\"unattributed\":{}}}",
        heat_cell_json(&heat.unattributed)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tu_lsm::{CacheIntrospect, LevelIntrospect};
    use tu_obs::{PartitionHeat, PartitionKey};

    fn sample_view() -> LsmIntrospect {
        LsmIntrospect {
            r1_ms: 7_200_000,
            r2_ms: 86_400_000,
            levels: vec![
                LevelIntrospect {
                    level: 0,
                    tier: "block",
                    partitions: vec![PartitionIntrospect {
                        start_ms: 0,
                        end_ms: 7_200_000,
                        tier: "block",
                        bytes: 4096,
                        fast_bytes: 4096,
                        chunks: 12,
                        stats_chunks: 10,
                        patches: 0,
                        tables: vec![TableIntrospect {
                            name: "l0/000001.sst".to_string(),
                            seq: 1,
                            entries: 12,
                            file_len: 4096,
                            stats_chunks: 10,
                            patches: 0,
                        }],
                    }],
                },
                LevelIntrospect {
                    level: 2,
                    tier: "object",
                    partitions: vec![PartitionIntrospect {
                        start_ms: 0,
                        end_ms: 86_400_000,
                        tier: "object",
                        bytes: 65536,
                        fast_bytes: 512,
                        chunks: 300,
                        stats_chunks: 300,
                        patches: 1,
                        tables: Vec::new(),
                    }],
                },
            ],
            cache: CacheIntrospect {
                shards: 16,
                used_bytes: 8192,
                hits: 40,
                misses: 9,
                evictions: 1,
            },
        }
    }

    fn sample_heat() -> HeatSnapshot {
        let mut hot = TierHeat::default();
        hot.get_requests = 5;
        hot.bytes_read = 2048;
        hot.last_access_ms = 1000;
        hot.rates = [3.0, 3.0, 3.0];
        HeatSnapshot {
            at_ms: 1234,
            partitions: vec![
                PartitionHeat {
                    key: PartitionKey {
                        start_ms: 0,
                        end_ms: 7_200_000,
                    },
                    tiers: [hot, TierHeat::default()],
                },
                PartitionHeat {
                    key: PartitionKey {
                        start_ms: -7_200_000,
                        end_ms: 0,
                    },
                    tiers: [TierHeat::default(), hot],
                },
            ],
            unattributed: [TierHeat::default(), TierHeat::default()],
        }
    }

    fn balanced(json: &str) {
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn lsm_json_is_stable_and_balanced() {
        let json = lsm_json(&sample_view());
        balanced(&json);
        assert!(json.starts_with("{\"r1_ms\":7200000,\"r2_ms\":86400000,\"levels\":["));
        assert!(json.contains("\"level\":0,\"tier\":\"block\""));
        assert!(json.contains("\"name\":\"l0/000001.sst\",\"seq\":1"));
        assert!(json.contains("\"stats_chunks\":10"));
        // An L2 partition's fast-tier patch bytes are their own field.
        assert!(json.contains("\"tier\":\"object\",\"bytes\":65536,\"fast_bytes\":512"));
        assert!(json.contains("\"cache\":{\"shards\":16,\"used_bytes\":8192"));
        // Identical inputs render byte-identically (schema stability).
        assert_eq!(json, lsm_json(&sample_view()));
    }

    #[test]
    fn partitions_json_joins_heat_and_keeps_unmapped() {
        let json = partitions_json(&sample_view(), &sample_heat());
        balanced(&json);
        assert!(json.contains("\"at_ms\":1234"));
        // The L0 partition carries its heat cell.
        assert!(json.contains("\"start_ms\":0,\"end_ms\":7200000,\"tier\":\"block\""));
        assert!(json.contains("\"get_requests\":5"));
        assert!(json.contains("\"class\":\"hot\""));
        // The L2 partition has no heat yet: zero cell, cold.
        assert!(json.contains("\"class\":\"cold\""));
        // The heat-only partition lands under "unmapped".
        assert!(json.contains("\"unmapped\":[{\"start_ms\":-7200000,\"end_ms\":0"));
        assert!(json.contains("\"unattributed\":{"));
    }

    #[test]
    fn table_names_are_escaped() {
        let mut view = sample_view();
        view.levels[0].partitions[0].tables[0].name = "we\"ird\\name".to_string();
        let json = lsm_json(&view);
        balanced(&json);
        assert!(json.contains("we\\\"ird\\\\name"));
    }
}
