//! Out-of-order backfill deep dive: watch late data travel through the
//! time-partitioned LSM-tree as stale-partition merges and L2 patches
//! (§3.3, Figures 10 and 11).
//!
//! Run with: `cargo run --release --example out_of_order_backfill`

use timeunion::engine::{Options, Selector, TimeUnion};
use timeunion::lsm::TreeOptions;
use timeunion::model::Labels;

const MINUTE: i64 = 60_000;
const HOUR: i64 = 60 * MINUTE;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = tempfile::tempdir()?;
    let opts = Options {
        chunk_samples: 16,
        tree: TreeOptions {
            memtable_bytes: 64 << 10,
            patch_threshold: 2,
            ..TreeOptions::default()
        },
        ..Options::default()
    };
    let db = TimeUnion::open(dir.path().join("db"), opts)?;

    // 12 hours of in-order data for 32 series, then force it all down to
    // the slow tier so backfills must patch L2.
    let ids: Vec<u64> = (0..32)
        .map(|i| {
            db.put(
                &Labels::from_pairs([("metric", "flow"), ("sensor", &format!("s{i:02}"))]),
                0,
                0.0,
            )
        })
        .collect::<Result<_, _>>()?;
    for minute in 1..12 * 60 {
        for (i, id) in ids.iter().enumerate() {
            db.put_by_id(*id, minute * MINUTE, i as f64 + minute as f64 * 0.01)?;
        }
    }
    db.flush_all()?;
    let before = db.tree_stats();
    println!(
        "after in-order load: {} L2 partitions, {} patches so far",
        before.l2_partitions, before.patches_created
    );

    // A sensor delivers a correction batch for hour 2 (long gone to S3).
    for minute in 0..30 {
        db.put_by_id(ids[5], 2 * HOUR + minute * MINUTE + 1, 999.0)?;
    }
    db.flush_all()?;
    let after = db.tree_stats();
    println!(
        "after backfill #1: +{} patches, {} patch merges",
        after.patches_created - before.patches_created,
        after.patch_merges
    );

    // More corrections to the same window would push the patch count past
    // the threshold; the append that would do so merges the table instead,
    // which may split it (Figure 11).
    for round in 0..3 {
        for minute in 0..10 {
            db.put_by_id(ids[5], 2 * HOUR + minute * MINUTE + 2 + round, round as f64)?;
        }
        db.flush_all()?;
    }
    let merged = db.tree_stats();
    println!(
        "after backfill #2..4: {} patches created, {} patch merges",
        merged.patches_created, merged.patch_merges
    );
    assert!(
        merged.patch_merges > 0,
        "patch threshold must trigger merges"
    );

    // The corrected window reads as a consistent timeline.
    let res = db.query(
        &[Selector::exact("sensor", "s05")],
        2 * HOUR,
        2 * HOUR + 30 * MINUTE,
    )?;
    let corrected = res[0].samples.iter().filter(|s| s.v == 999.0).count();
    println!(
        "hour-2 window of s05: {} samples, {} carrying the correction value",
        res[0].samples.len(),
        corrected
    );
    assert!(corrected >= 28);
    Ok(())
}
