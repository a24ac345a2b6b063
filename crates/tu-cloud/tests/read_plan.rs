//! Seeded properties of the model-driven read plan
//! (`LatencyModel::plan_requests`) and of the store readers built on it: the
//! plan is never costlier than the alternatives it replaces, returns
//! exactly the wanted bytes, and bills exactly the spans it issued.

use rand::{Rng, SeedableRng};
use tu_cloud::cost::{LatencyMode, LatencyModel, PlannedRequest};
use tu_cloud::StorageEnv;

/// Modelled time of a request set; the first request of the object pays
/// the first-read factor when `first` is set.
fn cost(model: &LatencyModel, lens: impl Iterator<Item = u64>, first: bool) -> u64 {
    lens.enumerate()
        .map(|(i, len)| model.read_ns(len, first && i == 0))
        .sum()
}

/// The coalescing the plan replaced: one request per run of touching
/// ranges, at most `cap` ranges per request.
fn adjacency_only(ranges: &[(u64, usize)], cap: usize) -> Vec<u64> {
    let mut spans: Vec<(u64, u64, usize)> = Vec::new(); // (start, end, ranges)
    for &(o, l) in ranges {
        let end = o + l as u64;
        match spans.last_mut() {
            Some((_, e, n)) if o <= *e && *n < cap => {
                *e = (*e).max(end);
                *n += 1;
            }
            _ => spans.push((o, end, 1)),
        }
    }
    spans.iter().map(|(s, e, _)| e - s).collect()
}

/// Sorted ranges whose gaps cluster where the decisions are: touching,
/// small, around one request latency's worth of bandwidth, and far.
fn random_ranges(
    rng: &mut rand::rngs::StdRng,
    model: &LatencyModel,
    limit: u64,
) -> Vec<(u64, usize)> {
    let knee = model.read_base_ns as u128 * model.bandwidth_bps as u128 / 1_000_000_000;
    let knee = knee as u64;
    let n = rng.gen_range(1..40);
    let mut out = Vec::with_capacity(n);
    let mut at = rng.gen_range(0..8192u64);
    for _ in 0..n {
        let len = match rng.gen_range(0..4) {
            0 => rng.gen_range(1..512),
            1 => rng.gen_range(3000..5000),
            2 => rng.gen_range(12_000..40_000),
            _ => rng.gen_range(1..300_000),
        };
        if at + len as u64 > limit {
            break;
        }
        out.push((at, len));
        let gap = match rng.gen_range(0..5) {
            0 => 0,
            1 => rng.gen_range(1..65_536),
            2 => (knee + rng.gen_range(0..65_536u64)).saturating_sub(32_768),
            3 => rng.gen_range(0..2 * knee + 2),
            _ => rng.gen_range(0..8 * knee + 2),
        };
        at += len as u64 + gap;
    }
    out
}

fn check_plan(ranges: &[(u64, usize)], plan: &[PlannedRequest]) {
    // Every range is served by exactly one request whose span covers it.
    let mut next = 0;
    for r in plan {
        assert_eq!(r.ranges.start, next, "requests partition the ranges");
        assert!(r.ranges.end > r.ranges.start);
        next = r.ranges.end;
        let covered = &ranges[r.ranges.clone()];
        assert_eq!(r.offset, covered[0].0);
        let end = covered.iter().map(|&(o, l)| o + l as u64).max().unwrap();
        assert_eq!(r.end(), end, "span is exactly the covering span");
    }
    assert_eq!(next, ranges.len());
}

#[test]
fn plan_is_never_costlier_than_what_it_replaces() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x9E3779B97F4A7C15);
    let mut merged_across_gap = 0;
    for round in 0..4000 {
        let model = if round % 2 == 0 {
            LatencyModel::s3()
        } else {
            LatencyModel::ebs()
        };
        let ranges = random_ranges(&mut rng, &model, u64::MAX / 2);
        let plan = model.plan_requests(&ranges);
        check_plan(&ranges, &plan);
        let wanted: u64 = ranges.iter().map(|&(_, l)| l as u64).sum();
        if plan.iter().map(|r| r.len).sum::<u64>() > wanted {
            merged_across_gap += 1;
        }
        for first in [false, true] {
            let planned = cost(&model, plan.iter().map(|r| r.len), first);
            let per_range = cost(&model, ranges.iter().map(|&(_, l)| l as u64), first);
            assert!(
                planned <= per_range,
                "{planned} > per-range {per_range}: {ranges:?}"
            );
            for cap in [64, usize::MAX] {
                let adjacent = cost(&model, adjacency_only(&ranges, cap).into_iter(), first);
                assert!(
                    planned <= adjacent,
                    "{planned} > adjacency-only(cap {cap}) {adjacent}: {ranges:?}"
                );
            }
        }
    }
    assert!(
        merged_across_gap > 1000,
        "the generator must exercise gap merges ({merged_across_gap})"
    );
}

#[test]
fn merge_limit_is_one_request_latency_of_bandwidth() {
    // Two 4 KiB blocks: merged while the gap's transfer time is at most
    // one request latency (both blocks ride in the free 16 KiB).
    for (model, limit) in [
        (LatencyModel::s3(), 2 * 1024 * 1024 + 8 * 1024),
        (LatencyModel::ebs(), 25 * 1024 + 8 * 1024 + 614),
    ] {
        let two = |gap: u64| model.plan_requests(&[(0, 4096), (4096 + gap, 4096)]).len();
        assert_eq!(two(limit), 1, "gap {limit} still merges");
        assert_eq!(two(limit + 4096), 2, "a block further does not");
    }
}

#[test]
fn stores_return_the_wanted_bytes_and_bill_the_issued_spans() {
    const LEN: usize = 6 << 20;
    let dir = tempfile::tempdir().unwrap();
    let env = StorageEnv::open(dir.path(), LatencyMode::Virtual).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let data: Vec<u8> = (0..LEN).map(|_| rng.gen()).collect();
    env.object.put("obj", &data).unwrap();
    env.block.write_file("file", &data).unwrap();
    for round in 0..200 {
        let on_object = round % 2 == 0;
        let model = if on_object {
            LatencyModel::s3()
        } else {
            LatencyModel::ebs()
        };
        let ranges = random_ranges(&mut rng, &model, LEN as u64);
        let clock0 = env.clock.virtual_ns();
        let (read, delta) = if on_object {
            let before = env.object.stats();
            let read = env.object.get_ranges("obj", &ranges).unwrap();
            (read, env.object.stats().since(&before))
        } else {
            let before = env.block.stats();
            let read = env.block.read_ranges("file", &ranges).unwrap();
            (read, env.block.stats().since(&before))
        };
        assert_eq!(read.parts.len(), ranges.len());
        for (part, &(o, l)) in read.parts.iter().zip(&ranges) {
            assert_eq!(part.as_slice(), &data[o as usize..o as usize + l]);
        }
        assert_eq!(read.requests, model.plan_requests(&ranges));
        assert_eq!(delta.get_requests, read.requests.len() as u64);
        assert_eq!(
            delta.bytes_read,
            read.requests.iter().map(|r| r.len).sum::<u64>(),
            "each request is billed its covering span"
        );
        // The first round on each store pays the first-read factor once.
        let charged = env.clock.virtual_ns() - clock0;
        assert_eq!(
            charged,
            cost(&model, read.requests.iter().map(|r| r.len), round < 2)
        );
    }
}
