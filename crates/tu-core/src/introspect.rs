//! JSON payload behind the storage introspection endpoint.
//!
//! [`crate::TimeUnion::start_serving`] registers two extra endpoints on
//! the live plane. This module renders the body of one of them with
//! stable, hand-rolled JSON (field order never changes between scrapes):
//!
//! * `/introspect/lsm` — [`lsm_json`]: levels, partition boundaries,
//!   table inventory (each table's reach, `null` when unknown),
//!   stats-footer coverage, block-cache counters.
//!
//! The other, `/costs`, is rendered by [`tu_cloud::ledger::to_json`]
//! from the monitor's samples.

use tu_lsm::{LsmIntrospect, TableIntrospect};

/// Escapes `"` and `\` for embedding in a JSON string literal (table
/// names are filesystem-safe, so control characters cannot appear).
fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn table_json(t: &TableIntrospect) -> String {
    let reach = t.reach.map_or("null".to_string(), |r| {
        format!("{{\"last_ts\":{},\"span\":{}}}", r.last_ts, r.span)
    });
    format!(
        "{{\"name\":\"{}\",\"seq\":{},\"entries\":{},\"file_len\":{},\
         \"stats_chunks\":{},\"patches\":{},\"reach\":{}}}",
        esc(&t.name),
        t.seq,
        t.entries,
        t.file_len,
        t.stats_chunks,
        t.patches,
        reach
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
            out.push_str(&format!(
                "{{\"start_ms\":{},\"end_ms\":{},\"tier\":\"{}\",\"bytes\":{},\
                 \"fast_bytes\":{},\"chunks\":{},\"stats_chunks\":{},\"patches\":{},\
                 \"tables\":[",
                p.start_ms,
                p.end_ms,
                p.tier,
                p.bytes,
                p.fast_bytes,
                p.chunks,
                p.stats_chunks,
                p.patches
            ));
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

#[cfg(test)]
mod tests {
    use super::*;
    use tu_lsm::{CacheIntrospect, LevelIntrospect, PartitionIntrospect};

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
                            reach: None,
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
    fn a_tables_reach_is_an_object_or_null() {
        let mut view = sample_view();
        let json = lsm_json(&view);
        assert!(json.contains("\"patches\":0,\"reach\":null}"), "{json}");
        view.levels[0].partitions[0].tables[0].reach = Some(tu_lsm::Reach {
            last_ts: 7_199_000,
            span: 110_000,
        });
        let json = lsm_json(&view);
        balanced(&json);
        assert!(
            json.contains("\"patches\":0,\"reach\":{\"last_ts\":7199000,\"span\":110000}}"),
            "{json}"
        );
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
