//! The Gorilla and NULL-XOR chunk layouts, and how their decoders meet
//! damaged bytes.
//!
//! Chunk bytes are a file format: they sit in SSTables on both tiers and
//! in the WAL's late-chunk records. Seeded inputs covering every branch of
//! the encoders must therefore produce the same bytes whatever the bit
//! writer does to get there, and the recorded FNV-1a hashes pin them.
//!
//! A decoder reads bytes that may have been torn or flipped on the way:
//! every truncation and a set of byte flips of those chunks must decode or
//! fail with `Error::Corruption`, never panic or overflow.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tu_common::{Result, Sample, Timestamp, Value};
use tu_compress::gorilla::{self, ChunkEncoder};
use tu_compress::nullxor::{GroupChunkDecoder, GroupChunkEncoder};

/// splitmix64: a fixed generator, so the recorded layout does not depend
/// on any library's choice of algorithm.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A devops gauge: 10 s scrapes with a few milliseconds of jitter, a
/// random walk rounded to hundredths.
fn devops(rng: &mut Mix, n: usize) -> Vec<Sample> {
    let mut v = 50.0f64;
    (0..n as i64)
        .map(|i| {
            let t = 1_451_606_400_000 + i * 10_000 + rng.below(4) as i64;
            v = (v + rng.below(201) as f64 / 100.0 - 1.0).clamp(0.0, 100.0);
            Sample::new(t, (v * 100.0).round() / 100.0)
        })
        .collect()
}

/// Random bit patterns as values (NaN payloads included) at random gaps.
fn random_floats(rng: &mut Mix, n: usize) -> Vec<Sample> {
    let mut t = -1_000_000;
    (0..n)
        .map(|_| {
            t += 1 + rng.below(1 << 20) as i64;
            Sample::new(t, f64::from_bits(rng.next()))
        })
        .collect()
}

fn special_values() -> Vec<Sample> {
    let values = [
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        f64::NAN,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        5e-324,
        1.0,
        1.0,
        f64::NEG_INFINITY,
    ];
    (0..)
        .zip(values)
        .map(|(i, v)| Sample::new(i * 1_000, v))
        .collect()
}

/// Delta-of-deltas at both edges of every bucket, zero and the 64-bit
/// escape in both directions.
fn every_dod_bucket() -> Vec<Sample> {
    let dods: [i64; 16] = [
        0,
        1,
        -1,
        8_192,
        -8_191,
        8_193,
        -8_192,
        65_536,
        -65_535,
        65_537,
        -65_536,
        524_288,
        -524_287,
        524_289,
        1 << 40,
        -(1 << 40),
    ];
    let (mut t, mut delta) = (0i64, 2_000_000i64);
    let mut out = vec![Sample::new(t, 0.5)];
    for (i, dod) in dods.iter().enumerate() {
        delta += dod;
        t += delta;
        out.push(Sample::new(t, i as f64 * 0.25));
    }
    out
}

/// First timestamps and first deltas of every varint length, 1 to 10
/// bytes, negative and positive.
fn varint_lengths() -> Vec<Vec<Sample>> {
    let shifts = [0, 7, 14, 21, 28, 35, 42, 49, 56, 62];
    let mut out: Vec<Vec<Sample>> = shifts
        .iter()
        .flat_map(|&s| {
            let mag = 1i64 << s;
            [(-mag, mag), (mag, 1i64 << s.min(60))].map(|(first, delta)| {
                vec![
                    Sample::new(first, s as f64),
                    Sample::new(first + delta, -(s as f64)),
                    Sample::new(first + delta + 1, 0.0),
                ]
            })
        })
        .collect();
    out.push(vec![Sample::new(i64::MIN + 1, 1.0), Sample::new(-1, 2.0)]);
    out
}

/// The Gorilla inputs, by name.
fn gorilla_inputs() -> Vec<(String, Vec<Sample>)> {
    let mut rng = Mix(0xc0de_u64);
    let mut out = vec![
        ("devops".to_string(), devops(&mut rng, 120)),
        ("devops32".to_string(), devops(&mut rng, 32)),
        ("random".to_string(), random_floats(&mut rng, 64)),
        ("special".to_string(), special_values()),
        ("dod".to_string(), every_dod_bucket()),
        ("empty".to_string(), Vec::new()),
        ("one".to_string(), vec![Sample::new(-7, 3.25)]),
    ];
    for (i, s) in varint_lengths().into_iter().enumerate() {
        out.push((format!("varint{i}"), s));
    }
    out
}

/// A group's chunk: `(timestamp, one value per column)` rows, with
/// columns added by `add_column` before the row whose index is listed.
struct GroupInput {
    rows: Vec<(Timestamp, Vec<Option<Value>>)>,
    initial_columns: usize,
    add_before: Vec<usize>,
}

/// Rows of each sample's value beside its negation.
fn beside_negation(
    samples: impl IntoIterator<Item = Sample>,
) -> Vec<(Timestamp, Vec<Option<Value>>)> {
    samples
        .into_iter()
        .map(|s| (s.t, vec![Some(s.v), Some(-s.v)]))
        .collect()
}

fn group_inputs() -> Vec<(String, GroupInput)> {
    let mut rng = Mix(0x6a0b_u64);
    let cols = 10;
    let dense: Vec<Vec<Sample>> = (0..cols).map(|_| devops(&mut rng, 32)).collect();
    let rows = |nulls: &mut dyn FnMut(usize, usize) -> bool| {
        (0..32)
            .map(|r| {
                let vals = (0..cols).map(|c| (!nulls(r, c)).then(|| dense[c][r].v));
                (dense[0][r].t, vals.collect())
            })
            .collect::<Vec<_>>()
    };
    let mut nulls = Mix(0x0dd_u64);
    let sparse = rows(&mut |_, _| nulls.below(5) == 0);
    // Column 8 joins at row 12, column 9 at row 20: NULL before that.
    let joined = rows(&mut |r, c| (c == 8 && r < 12) || (c == 9 && r < 20));
    // Halving keeps each NaN's bits.
    let with_specials = special_values()
        .iter()
        .map(|s| (s.t, vec![Some(s.v), None, Some(s.v * 0.5)]))
        .collect();
    // Each value beside its negation: the stats footer's sum meets two
    // NaNs of opposite sign, and in `opposed` +inf and -inf before any
    // NaN. The encoder fixes such a sum's bits whatever the code
    // generator does, so both profiles frame the same bytes.
    let negated = beside_negation(special_values());
    let opposed = [1.5, f64::INFINITY, -0.0, f64::NAN, 2.0, f64::NEG_INFINITY];
    let opposed = beside_negation((0..).zip(opposed).map(|(i, v)| Sample::new(i * 1_000, v)));
    vec![
        (
            "dense".to_string(),
            GroupInput {
                rows: rows(&mut |_, _| false),
                initial_columns: cols,
                add_before: vec![],
            },
        ),
        (
            "nulls".to_string(),
            GroupInput {
                rows: sparse,
                initial_columns: cols,
                add_before: vec![],
            },
        ),
        (
            "added".to_string(),
            GroupInput {
                rows: joined,
                initial_columns: cols - 2,
                add_before: vec![12, 20],
            },
        ),
        (
            "special".to_string(),
            GroupInput {
                rows: with_specials,
                initial_columns: 3,
                add_before: vec![],
            },
        ),
        (
            "negated".to_string(),
            GroupInput {
                rows: negated,
                initial_columns: 2,
                add_before: vec![],
            },
        ),
        (
            "opposed".to_string(),
            GroupInput {
                rows: opposed,
                initial_columns: 2,
                add_before: vec![],
            },
        ),
        (
            "empty".to_string(),
            GroupInput {
                rows: vec![],
                initial_columns: 2,
                add_before: vec![],
            },
        ),
        (
            "one".to_string(),
            GroupInput {
                rows: vec![(1_000, vec![None, Some(-2.5)])],
                initial_columns: 2,
                add_before: vec![],
            },
        ),
    ]
}

fn gorilla_encoder(samples: &[Sample]) -> ChunkEncoder {
    let mut enc = ChunkEncoder::new();
    for s in samples {
        enc.append(s.t, s.v).unwrap();
    }
    enc
}

fn group_encoder(input: &GroupInput) -> GroupChunkEncoder {
    let mut enc = GroupChunkEncoder::new(input.initial_columns);
    for (i, (t, values)) in input.rows.iter().enumerate() {
        if input.add_before.contains(&i) {
            enc.add_column();
        }
        enc.append_row(*t, &values[..enc.columns()]).unwrap();
    }
    enc
}

/// Every chunk the inputs give, legacy and framed, by name.
fn chunks() -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for (name, samples) in gorilla_inputs() {
        out.push((
            format!("gorilla/{name}"),
            gorilla_encoder(&samples).finish(),
        ));
        let framed = gorilla_encoder(&samples).finish_framed();
        out.push((format!("gorilla/{name}/framed"), framed));
    }
    for (name, input) in group_inputs() {
        out.push((format!("nullxor/{name}"), group_encoder(&input).finish()));
        let framed = group_encoder(&input).finish_framed();
        out.push((format!("nullxor/{name}/framed"), framed));
    }
    out
}

/// `(chunk, length, FNV-1a)`, recorded from the bit-at-a-time writer the
/// formats were first written with; `negated` and `opposed` from the
/// first encoder to fix a NaN sum's bits, the same in debug and release
/// builds. A change here is a change of the chunk formats.
const LAYOUT: &[(&str, usize, u64)] = &[
    ("gorilla/devops", 1014, 0xc856daeb586a4de1),
    ("gorilla/devops/framed", 1061, 0x5af23e55cff4c162),
    ("gorilla/devops32", 279, 0x3addac82392206f2),
    ("gorilla/devops32/framed", 326, 0x81c9ca34c289fcfe),
    ("gorilla/random", 794, 0x824f06e97ef39ee7),
    ("gorilla/random/framed", 841, 0xf59ef58da21ef00a),
    ("gorilla/special", 61, 0xce45aba7bbe9d27c),
    ("gorilla/special/framed", 108, 0x4d46420dcc7e9af0),
    ("gorilla/dod", 97, 0x5d13da169642868e),
    ("gorilla/dod/framed", 144, 0x004450df61a2c209),
    ("gorilla/empty", 2, 0x08328807b4eb6fed),
    ("gorilla/empty/framed", 2, 0x08328807b4eb6fed),
    ("gorilla/one", 11, 0xeccaab61b78e5db9),
    ("gorilla/one/framed", 58, 0x60e21404ef69329b),
    ("gorilla/varint0", 15, 0xa14f0b993eb072da),
    ("gorilla/varint0/framed", 62, 0x33e7e37cb5b3e973),
    ("gorilla/varint1", 15, 0xefba4831b5753b63),
    ("gorilla/varint1/framed", 62, 0x0b29f7780cbd2033),
    ("gorilla/varint2", 22, 0xc77395067db8c433),
    ("gorilla/varint2/framed", 69, 0x2f2f2a19f3d8b0df),
    ("gorilla/varint3", 22, 0x5f2844476a69f661),
    ("gorilla/varint3/framed", 69, 0x0d2dc49dfccc90ad),
    ("gorilla/varint4", 24, 0x63071d58c3772a77),
    ("gorilla/varint4/framed", 71, 0x981e8c1e1648a3b2),
    ("gorilla/varint5", 24, 0x2c9ab4250e0124aa),
    ("gorilla/varint5/framed", 71, 0xc4118ad3bb5025ed),
    ("gorilla/varint6", 32, 0x772512a699939884),
    ("gorilla/varint6/framed", 79, 0x2e89bf798f92bd32),
    ("gorilla/varint7", 32, 0xedd6e4c0fafca78c),
    ("gorilla/varint7/framed", 79, 0x8c22edd7479e013b),
    ("gorilla/varint8", 34, 0xa951d773c6a72b71),
    ("gorilla/varint8/framed", 81, 0x976736c77c55db8a),
    ("gorilla/varint9", 34, 0xb816b4f83a89201a),
    ("gorilla/varint9/framed", 81, 0x35a2c415e167d835),
    ("gorilla/varint10", 36, 0x8f54aa176700644f),
    ("gorilla/varint10/framed", 83, 0x15c27dfc888753f7),
    ("gorilla/varint11", 36, 0xf18256e5246823b1),
    ("gorilla/varint11/framed", 83, 0x8b7a228ce6472cfa),
    ("gorilla/varint12", 38, 0x7938b6869fe956dd),
    ("gorilla/varint12/framed", 85, 0xb8721f9097346654),
    ("gorilla/varint13", 38, 0xaa1cb9aa65c3ab60),
    ("gorilla/varint13/framed", 85, 0xacad751f1aa97513),
    ("gorilla/varint14", 40, 0x3bbe94006a67acb9),
    ("gorilla/varint14/framed", 87, 0xc5bd70a5804b92e5),
    ("gorilla/varint15", 40, 0x0daec4df8496d655),
    ("gorilla/varint15/framed", 87, 0xa1327fa07eda44d8),
    ("gorilla/varint16", 42, 0x0daf8b3279070cfe),
    ("gorilla/varint16/framed", 89, 0x71b3dbc688da8d30),
    ("gorilla/varint17", 42, 0xe3e81c77e9b3a5d9),
    ("gorilla/varint17/framed", 89, 0x468136cabbc5f237),
    ("gorilla/varint18", 43, 0x16a92756fc46a9e3),
    ("gorilla/varint18/framed", 90, 0x4a6a41d0ca5901ae),
    ("gorilla/varint19", 43, 0x7854524ef5bd69a2),
    ("gorilla/varint19/framed", 90, 0x8c506912fcc76003),
    ("gorilla/varint20", 33, 0xfb8169aeacc36537),
    ("gorilla/varint20/framed", 80, 0x926560f35371d67e),
    ("nullxor/dense", 2270, 0x7ac0119e0a44c77a),
    ("nullxor/dense/framed", 2317, 0x68f7120cd989f5e5),
    ("nullxor/nulls", 1802, 0xaea76e70666ca426),
    ("nullxor/nulls/framed", 1849, 0x671a772ea262d5f1),
    ("nullxor/added", 2061, 0xebad5c029bd8dcff),
    ("nullxor/added/framed", 2108, 0x12e5533d92ed51f4),
    ("nullxor/special", 134, 0x99468f653cd8c2a7),
    ("nullxor/special/framed", 181, 0xe76095595b37139d),
    ("nullxor/negated", 126, 0x9aff2567867d5621),
    ("nullxor/negated/framed", 173, 0xb955a11672d6d9ef),
    ("nullxor/opposed", 55, 0xa1e9316c3319f5d2),
    ("nullxor/opposed/framed", 102, 0xe3c7da216ab13e2d),
    ("nullxor/empty", 7, 0x90e8e069b1263f6d),
    ("nullxor/empty/framed", 7, 0x90e8e069b1263f6d),
    ("nullxor/one", 19, 0x0a22c5358509bd83),
    ("nullxor/one/framed", 66, 0x9e2001e98641482f),
];

#[test]
fn seeded_chunks_have_the_recorded_bytes() {
    let got: Vec<(String, usize, u64)> = chunks()
        .into_iter()
        .map(|(name, bytes)| (name, bytes.len(), fnv1a(&bytes)))
        .collect();
    let want: Vec<(String, usize, u64)> = LAYOUT
        .iter()
        .map(|&(name, len, hash)| (name.to_string(), len, hash))
        .collect();
    if got != want {
        let table: String = got
            .iter()
            .map(|(name, len, hash)| format!("    ({name:?}, {len}, {hash:#018x}),\n"))
            .collect();
        panic!("chunk layout moved; the bytes now give:\n{table}");
    }
}

#[test]
fn every_input_round_trips() {
    for (name, samples) in gorilla_inputs() {
        let back = gorilla::decompress_chunk(&gorilla_encoder(&samples).finish_framed()).unwrap();
        let bits = |s: &[Sample]| s.iter().map(|s| (s.t, s.v.to_bits())).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&samples), "{name}");
    }
    for (name, input) in group_inputs() {
        let bytes = group_encoder(&input).finish_framed();
        let dec = GroupChunkDecoder::new(&bytes).unwrap();
        let (ts, cols) = dec.decode_all().unwrap();
        let want_ts: Vec<Timestamp> = input.rows.iter().map(|r| r.0).collect();
        assert_eq!(ts, want_ts, "{name}");
        for (c, col) in cols.iter().enumerate() {
            let want: Vec<Option<u64>> = input
                .rows
                .iter()
                .map(|r| r.1.get(c).copied().flatten().map(f64::to_bits))
                .collect();
            let got: Vec<Option<u64>> = col.iter().map(|v| v.map(f64::to_bits)).collect();
            assert_eq!(got, want, "{name} column {c}");
        }
    }
}

/// Decodes every sample of a chunk in either format.
fn decode_fully(bytes: &[u8], group: bool) -> Result<()> {
    if group {
        let dec = GroupChunkDecoder::new(bytes)?;
        let ts = dec.decode_timestamps()?;
        for c in 0..dec.columns() {
            dec.decode_column(c)?;
            dec.for_each_in_column(c, &ts, |_, _| {})?;
        }
    } else {
        gorilla::decompress_chunk(bytes)?;
    }
    Ok(())
}

#[test]
fn damaged_chunks_decode_or_report_corruption() {
    let mut damaged = 0;
    let mut failures = Vec::new();
    for (name, bytes) in chunks() {
        let group = name.starts_with("nullxor");
        let mut variants: Vec<(String, Vec<u8>)> = (0..bytes.len())
            .map(|n| (format!("{name} cut to {n}"), bytes[..n].to_vec()))
            .collect();
        for i in 0..bytes.len() {
            for mask in [0x01u8, 0x80, 0xff, 0x10, 0x04] {
                let mut flipped = bytes.clone();
                flipped[i] ^= mask;
                variants.push((format!("{name} byte {i} ^ {mask:#04x}"), flipped));
            }
        }
        for (what, bytes) in variants {
            damaged += 1;
            match catch_unwind(AssertUnwindSafe(|| decode_fully(&bytes, group))) {
                Ok(Ok(())) => {}
                Ok(Err(e)) if e.is_corruption() => {}
                Ok(Err(e)) => failures.push(format!("{what}: {e}")),
                Err(_) => failures.push(format!("{what}: panicked")),
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {damaged} damaged chunks neither decoded nor reported corruption:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
