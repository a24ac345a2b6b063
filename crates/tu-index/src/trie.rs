//! A double-array trie with a tail array (Figure 8 of the paper).
//!
//! The paper indexes tag pairs with a double-array trie (derived from the
//! cedar implementation) because it stores millions of keys in three flat
//! arrays — Base, Check, and Tail — which live in segmented file-backed
//! arrays so the page cache can swap cold regions out (§3.2).
//!
//! Structure (Aoe's scheme):
//!
//! * `base[s] > 0` — internal node: the transition on code `c` goes to
//!   `t = base[s] + c`, valid iff `check[t] == s`.
//! * `base[s] < 0` — leaf: `-base[s]` points into the tail array, which
//!   stores the remaining key suffix and the 8-byte value.
//! * `check[t] == FREE (0)` — slot `t` is unallocated.
//!
//! Byte `b` uses code `b + 2`; code 1 is the end-of-key terminator, so a
//! key that is a prefix of another still gets its own leaf.

use std::path::Path;
use std::sync::Arc;

use tu_common::fs::replace_file;
use tu_common::lockdep::{self, Mutex};
use tu_common::{varint, Error, Result};
use tu_mmap::pagecache::PageCache;
use tu_mmap::SegArray;

const ROOT: u64 = 1;
const FREE: i32 = 0;
const TERM_CODE: u64 = 1;
const ALPHABET: u64 = 258; // terminator + 256 byte codes, codes 1..=257

#[inline]
fn code_of(b: u8) -> u64 {
    b as u64 + 2
}

/// Statistics for space accounting (Table 3, Figure 3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrieStats {
    pub keys: u64,
    pub base_slots: u64,
    pub tail_bytes: u64,
}

struct Inner {
    base: SegArray<i32>,
    check: SegArray<i32>,
    tail: SegArray<u8>,
    keys: u64,
    /// Search hint: where the last free-base scan ended.
    next_free_hint: u64,
}

/// A persistent double-array trie mapping byte keys to `u64` values.
pub struct DoubleArrayTrie {
    inner: Mutex<Inner>,
}

impl DoubleArrayTrie {
    /// Opens (or creates) a trie stored under `dir` with the given number
    /// of slots per segment file (the paper uses one million).
    pub fn open(
        cache: Arc<PageCache>,
        dir: impl AsRef<Path>,
        slots_per_segment: usize,
    ) -> Result<Self> {
        let dir = dir.as_ref();
        let base = SegArray::open(cache.clone(), dir, "base", slots_per_segment)?;
        let check = SegArray::open(cache.clone(), dir, "check", slots_per_segment)?;
        let tail = SegArray::open(cache, dir, "tail", slots_per_segment)?;
        let mut keys = 0;
        if base.is_empty() {
            // Fresh trie: materialize the root.
            base.set(0, 0)?; // slot 0 unused
            base.set(ROOT, 1)?;
            check.set(0, 0)?;
            check.set(ROOT, 0)?;
            tail.set(0, 0)?; // tail position 0 reserved (negative-zero ambiguity)
        } else {
            // Key count is recomputed lazily on reopen via a full scan; it
            // is persisted in a sidecar to avoid that in the common case.
            let count_path = dir.join("trie.keys");
            if let Ok(bytes) = std::fs::read(&count_path) {
                if bytes.len() == 8 {
                    keys = u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
                }
            }
        }
        Ok(DoubleArrayTrie {
            inner: Mutex::new(
                &lockdep::INDEX_TRIE,
                Inner {
                    base,
                    check,
                    tail,
                    keys,
                    next_free_hint: ROOT + 1,
                },
            ),
        })
    }

    /// Persists dirty pages and the key-count sidecar.
    pub fn sync(&self, dir: impl AsRef<Path>) -> Result<()> {
        // Writers stay excluded until the sidecar is on disk, so the key
        // count matches the synced arrays exactly; sync runs on the
        // maintenance path, never under a query.
        let inner = self.inner.lock();
        inner.base.sync()?;
        inner.check.sync()?;
        inner.tail.sync()?;
        replace_file(&dir.as_ref().join("trie.keys"), &inner.keys.to_le_bytes())
    }

    /// Number of keys stored.
    pub fn len(&self) -> u64 {
        self.inner.lock().keys
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Space accounting for the index-size experiments.
    pub fn stats(&self) -> TrieStats {
        let inner = self.inner.lock();
        TrieStats {
            keys: inner.keys,
            base_slots: inner.base.len(),
            tail_bytes: inner.tail.len(),
        }
    }

    /// Inserts `key -> value`, returning the previous value if the key was
    /// already present.
    pub fn insert(&self, key: &[u8], value: u64) -> Result<Option<u64>> {
        let mut inner = self.inner.lock();
        match put(&mut inner, key, || value)? {
            Put::Found(old) => {
                inner.tail.set_range(old.value_pos, &value.to_le_bytes())?;
                Ok(Some(old.value))
            }
            Put::Inserted(_) => Ok(None),
        }
    }

    /// Returns the value of `key`, first inserting `make_value()` if the
    /// key is absent — one walk from the root either way, and atomic with
    /// respect to other inserts: `make_value` runs at most once, under the
    /// trie's lock, and only when the key is new.
    pub fn get_or_insert(&self, key: &[u8], make_value: impl FnOnce() -> u64) -> Result<u64> {
        let mut inner = self.inner.lock();
        Ok(match put(&mut inner, key, make_value)? {
            Put::Found(rec) => rec.value,
            Put::Inserted(value) => value,
        })
    }

    /// Looks up a key.
    pub fn get(&self, key: &[u8]) -> Result<Option<u64>> {
        let inner = self.inner.lock();
        match walk(&inner, key)? {
            Walk::Leaf { tail_pos, at, .. } => {
                let rest = &key[at..];
                let rec = read_tail(&inner, tail_pos, rest.len())?;
                Ok((rec.suffix == rest).then_some(rec.value))
            }
            Walk::NoChild { .. } => Ok(None),
        }
    }

    /// Visits every `(key, value)` whose key starts with `prefix`, in
    /// unspecified order. The callback returns `false` to stop early.
    pub fn scan_prefix(
        &self,
        prefix: &[u8],
        mut visit: impl FnMut(&[u8], u64) -> bool,
    ) -> Result<()> {
        let inner = self.inner.lock();
        // Walk down the prefix.
        let mut s = ROOT;
        let mut i = 0usize;
        while i < prefix.len() {
            let base_s = inner.base.get(s)?;
            if base_s < 0 {
                let rec = read_tail(&inner, (-base_s) as u64, SCAN_SUFFIX_HINT)?;
                if rec.suffix.starts_with(&prefix[i..]) {
                    let mut key = prefix[..i].to_vec();
                    key.extend_from_slice(&rec.suffix);
                    visit(&key, rec.value);
                }
                return Ok(());
            }
            let c = code_of(prefix[i]);
            let t = base_s as u64 + c;
            if t >= inner.check.len() || inner.check.get(t)? != s as i32 {
                return Ok(());
            }
            s = t;
            i += 1;
        }
        // DFS below the prefix node.
        let mut stack: Vec<(u64, Vec<u8>)> = vec![(s, prefix.to_vec())];
        while let Some((node, key_so_far)) = stack.pop() {
            let base_n = inner.base.get(node)?;
            if base_n < 0 {
                let rec = read_tail(&inner, (-base_n) as u64, SCAN_SUFFIX_HINT)?;
                let mut key = key_so_far.clone();
                key.extend_from_slice(&rec.suffix);
                if !visit(&key, rec.value) {
                    return Ok(());
                }
                continue;
            }
            let start = base_n as u64 + TERM_CODE;
            let checks = inner
                .check
                .get_range(start, (ALPHABET - TERM_CODE) as usize)?;
            for (i, &chk) in checks.iter().enumerate().rev() {
                if chk == node as i32 {
                    let c = TERM_CODE + i as u64;
                    let t = base_n as u64 + c;
                    let mut key = key_so_far.clone();
                    if c == TERM_CODE {
                        stack.push((t, key));
                    } else {
                        key.push((c - 2) as u8);
                        stack.push((t, key));
                    }
                }
            }
        }
        Ok(())
    }
}

// --- internal helpers -------------------------------------------------------

/// Where a key's walk down from the root stops.
enum Walk {
    /// At leaf `node`, whose tail record at `tail_pos` holds the rest of
    /// the stored key; the walk consumed the first `at` bytes of the key.
    Leaf { node: u64, tail_pos: u64, at: usize },
    /// At internal node `node`, which has no transition on `code` — the
    /// code of key byte `at`, or the terminator when `at` is the key length.
    NoChild { node: u64, code: u64, at: usize },
}

/// Follows `key` from the root: one `base` and one `check` read per key
/// byte consumed.
fn walk(inner: &Inner, key: &[u8]) -> Result<Walk> {
    let mut s = ROOT;
    let mut i = 0usize;
    loop {
        let base_s = inner.base.get(s)?;
        if base_s < 0 {
            return Ok(Walk::Leaf {
                node: s,
                tail_pos: (-base_s) as u64,
                at: i,
            });
        }
        let c = key.get(i).map_or(TERM_CODE, |&b| code_of(b));
        let t = base_s as u64 + c;
        if t >= inner.check.len() || inner.check.get(t)? != s as i32 {
            return Ok(Walk::NoChild {
                node: s,
                code: c,
                at: i,
            });
        }
        if c == TERM_CODE {
            // The terminator transition must lead to a leaf.
            let base_t = inner.base.get(t)?;
            if base_t >= 0 {
                return Err(Error::corruption("terminator node is not a leaf"));
            }
            return Ok(Walk::Leaf {
                node: t,
                tail_pos: (-base_t) as u64,
                at: key.len(),
            });
        }
        s = t;
        i += 1;
    }
}

/// What [`put`] found or did.
enum Put {
    /// The key was present; nothing changed.
    Found(TailRecord),
    /// The key was absent and now maps to this value.
    Inserted(u64),
}

/// Finds `key`, or inserts it with the value `make_value` returns.
fn put(inner: &mut Inner, key: &[u8], make_value: impl FnOnce() -> u64) -> Result<Put> {
    match walk(inner, key)? {
        Walk::Leaf { node, tail_pos, at } => {
            split_leaf(inner, node, tail_pos, &key[at..], make_value)
        }
        Walk::NoChild { node, code, at } => {
            // Attach a new leaf holding the remainder.
            let value = make_value();
            let t = claim_child(inner, node, code)?;
            let suffix = key.get(at + 1..).unwrap_or(&[]);
            let tail_pos = append_tail(inner, suffix, value)?;
            inner.base.set(t, -(tail_pos as i32))?;
            inner.keys += 1;
            Ok(Put::Inserted(value))
        }
    }
}

/// A tail record: `varint(suffix length) | suffix | u64 LE value`.
struct TailRecord {
    suffix: Vec<u8>,
    value: u64,
    /// Tail position of the value's eight bytes.
    value_pos: u64,
}

/// Suffix length `scan_prefix` expects when it reads a leaf's record: tag
/// values are short, so most records arrive in one read.
const SCAN_SUFFIX_HINT: usize = 32;

/// Appends `suffix` + `value` to the tail pool in one write; returns its
/// position.
fn append_tail(inner: &mut Inner, suffix: &[u8], value: u64) -> Result<u64> {
    let pos = inner.tail.len();
    if pos > i32::MAX as u64 {
        return Err(Error::LimitExceeded("trie tail exceeds 2 GiB".into()));
    }
    let mut rec = Vec::with_capacity(varint::MAX_VARINT_LEN + suffix.len() + 8);
    varint::write_u64(&mut rec, suffix.len() as u64);
    rec.extend_from_slice(suffix);
    rec.extend_from_slice(&value.to_le_bytes());
    inner.tail.set_range(pos, &rec)?;
    Ok(pos)
}

/// Reads the tail record at `pos`: one read when its suffix is at most
/// `suffix_hint` bytes long, a second for the rest of a longer one.
fn read_tail(inner: &Inner, pos: u64, suffix_hint: usize) -> Result<TailRecord> {
    let hint = varint::encoded_len_u64(suffix_hint as u64) + suffix_hint + 8;
    let mut rec = inner.tail.get_range(pos, hint)?;
    let (len, n) = varint::read_u64(&rec)?;
    let total = len
        .checked_add((n + 8) as u64)
        .filter(|&total| total <= inner.tail.len().saturating_sub(pos))
        .ok_or_else(|| Error::corruption("trie tail record runs past the tail"))?
        as usize;
    if rec.len() < total {
        rec.extend(
            inner
                .tail
                .get_range(pos + rec.len() as u64, total - rec.len())?,
        );
    }
    let value_at = total - 8;
    let value = u64::from_le_bytes(rec[value_at..total].try_into().expect("8 bytes"));
    rec.truncate(value_at);
    rec.drain(..n);
    Ok(TailRecord {
        suffix: rec,
        value,
        value_pos: pos + value_at as u64,
    })
}

/// The remaining key at a leaf diverged from the stored suffix: grow the
/// shared prefix into trie nodes and attach two fresh leaves. A remaining
/// key equal to the stored suffix is the stored key: found, not inserted.
fn split_leaf(
    inner: &mut Inner,
    leaf: u64,
    tail_pos: u64,
    new_suffix: &[u8],
    make_value: impl FnOnce() -> u64,
) -> Result<Put> {
    let old = read_tail(inner, tail_pos, new_suffix.len())?;
    if old.suffix == new_suffix {
        return Ok(Put::Found(old));
    }
    let (old_suffix, old_value) = (old.suffix, old.value);
    let value = make_value();
    // Length of the common prefix.
    let p = old_suffix
        .iter()
        .zip(new_suffix.iter())
        .take_while(|(a, b)| a == b)
        .count();
    // Convert the leaf into a chain of internal nodes for the shared part.
    let mut node = leaf;
    for &b in &old_suffix[..p] {
        let child = claim_child(inner, node, code_of(b))?;
        node = child;
    }
    // Diverge: one child continues the old suffix, one the new.
    let old_code = old_suffix.get(p).map(|&b| code_of(b)).unwrap_or(TERM_CODE);
    let new_code = new_suffix.get(p).map(|&b| code_of(b)).unwrap_or(TERM_CODE);
    debug_assert_ne!(old_code, new_code, "suffixes differ beyond prefix");

    let old_child = claim_child(inner, node, old_code)?;
    let old_rest = if p < old_suffix.len() {
        &old_suffix[p + 1..]
    } else {
        &[]
    };
    let old_tail = append_tail(inner, old_rest, old_value)?;
    inner.base.set(old_child, -(old_tail as i32))?;

    let new_child = claim_child(inner, node, new_code)?;
    let new_rest = if p < new_suffix.len() {
        &new_suffix[p + 1..]
    } else {
        &[]
    };
    let new_tail = append_tail(inner, new_rest, value)?;
    inner.base.set(new_child, -(new_tail as i32))?;

    inner.keys += 1;
    Ok(Put::Inserted(value))
}

/// Ensures node `parent` has a child on `code`, relocating `parent`'s
/// children if the natural slot is taken. Returns the child slot, with
/// `check` set and `base` zeroed (caller decides leaf vs. internal).
fn claim_child(inner: &mut Inner, parent: u64, code: u64) -> Result<u64> {
    let base_p = inner.base.get(parent)?;
    if base_p > 0 {
        let t = base_p as u64 + code;
        ensure_len(inner, t + 1)?;
        if inner.check.get(t)? == FREE {
            inner.check.set(t, parent as i32)?;
            inner.base.set(t, 0)?;
            return Ok(t);
        }
        // Conflict: relocate parent's children to a base that also fits
        // the new code.
        let mut codes = children_of(inner, parent)?;
        codes.push(code);
        let new_base = find_base(inner, &codes)?;
        relocate(inner, parent, new_base, &codes[..codes.len() - 1])?;
        let t = new_base + code;
        inner.check.set(t, parent as i32)?;
        inner.base.set(t, 0)?;
        Ok(t)
    } else {
        // Parent was a leaf being converted to an internal node (split), or
        // a fresh node with no base yet: pick a base fitting this one code.
        let new_base = find_base(inner, &[code])?;
        inner.base.set(parent, new_base as i32)?;
        let t = new_base + code;
        inner.check.set(t, parent as i32)?;
        inner.base.set(t, 0)?;
        Ok(t)
    }
}

/// All outgoing transition codes of `parent`.
fn children_of(inner: &Inner, parent: u64) -> Result<Vec<u64>> {
    let base_p = inner.base.get(parent)?;
    let mut out = Vec::new();
    if base_p <= 0 {
        return Ok(out);
    }
    let start = base_p as u64 + TERM_CODE;
    let checks = inner
        .check
        .get_range(start, (ALPHABET - TERM_CODE) as usize)?;
    for (i, &chk) in checks.iter().enumerate() {
        if chk == parent as i32 {
            out.push(TERM_CODE + i as u64);
        }
    }
    Ok(out)
}

/// Candidate bases [`find_base`] tests per read of the `check` array.
const BASE_WINDOW: u64 = 1024;

/// Finds the lowest base at or after the search hint such that `base + c`
/// is free for every `c` in `codes`, and grows the arrays to hold its
/// highest child. Bases start at 1 so slot indexes stay positive.
///
/// `check` is read a window of candidates at a time and the candidates
/// are tested in memory; the result, the hint and the array lengths are
/// those of probing one slot at a time, so the files a given insert
/// sequence produces do not depend on the window.
fn find_base(inner: &mut Inner, codes: &[u64]) -> Result<u64> {
    let lo = *codes.iter().min().expect("at least one code");
    let hi = *codes.iter().max().expect("at least one code");
    let mut first = inner.next_free_hint.max(ALPHABET) - ALPHABET + 1;
    loop {
        // Every slot a candidate in the window can probe; slots past the
        // end of the array are free.
        let start = first + lo;
        let window = inner
            .check
            .get_range(start, (BASE_WINDOW + hi - lo) as usize)?;
        let free = |t: u64| window.get((t - start) as usize).is_none_or(|&c| c == FREE);
        if let Some(b) = (first..first + BASE_WINDOW).find(|&b| codes.iter().all(|&c| free(b + c)))
        {
            ensure_len(inner, b + hi + 1)?;
            inner.next_free_hint = b;
            return Ok(b);
        }
        first += BASE_WINDOW;
    }
}

fn ensure_len(inner: &mut Inner, len: u64) -> Result<()> {
    if inner.check.len() < len {
        inner.check.resize(len)?;
    }
    if inner.base.len() < len {
        inner.base.resize(len)?;
    }
    Ok(())
}

/// Moves `parent`'s children (transition codes in `codes`) to `new_base`,
/// updating grandchildren's check pointers.
fn relocate(inner: &mut Inner, parent: u64, new_base: u64, codes: &[u64]) -> Result<()> {
    let old_base = inner.base.get(parent)? as u64;
    for &c in codes {
        let old = old_base + c;
        let new = new_base + c;
        let old_node_base = inner.base.get(old)?;
        inner.base.set(new, old_node_base)?;
        inner.check.set(new, parent as i32)?;
        // Re-point grandchildren at the moved node.
        if old_node_base > 0 {
            let start = old_node_base as u64 + TERM_CODE;
            let checks = inner
                .check
                .get_range(start, (ALPHABET - TERM_CODE) as usize)?;
            for (i, &chk) in checks.iter().enumerate() {
                if chk == old as i32 {
                    inner.check.set(start + i as u64, new as i32)?;
                }
            }
        }
        inner.base.set(old, 0)?;
        inner.check.set(old, FREE)?;
    }
    inner.base.set(parent, new_base as i32)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use tu_mmap::pagecache::PAGE_SIZE;

    fn trie() -> (tempfile::TempDir, DoubleArrayTrie) {
        let dir = tempfile::tempdir().unwrap();
        let cache = PageCache::new(256 * PAGE_SIZE);
        let t = DoubleArrayTrie::open(cache, dir.path().join("trie"), 4096).unwrap();
        (dir, t)
    }

    #[test]
    fn insert_get_basic() {
        let (_d, t) = trie();
        assert_eq!(t.insert(b"metric\x01cpu", 1).unwrap(), None);
        assert_eq!(t.insert(b"metric\x01disk", 2).unwrap(), None);
        assert_eq!(t.get(b"metric\x01cpu").unwrap(), Some(1));
        assert_eq!(t.get(b"metric\x01disk").unwrap(), Some(2));
        assert_eq!(t.get(b"metric\x01mem").unwrap(), None);
        assert_eq!(t.get(b"metric").unwrap(), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn overwrite_returns_old_value() {
        let (_d, t) = trie();
        assert_eq!(t.insert(b"k", 10).unwrap(), None);
        assert_eq!(t.insert(b"k", 20).unwrap(), Some(10));
        assert_eq!(t.get(b"k").unwrap(), Some(20));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn prefix_keys_coexist() {
        let (_d, t) = trie();
        t.insert(b"a", 1).unwrap();
        t.insert(b"ab", 2).unwrap();
        t.insert(b"abc", 3).unwrap();
        t.insert(b"", 0).unwrap();
        assert_eq!(t.get(b"").unwrap(), Some(0));
        assert_eq!(t.get(b"a").unwrap(), Some(1));
        assert_eq!(t.get(b"ab").unwrap(), Some(2));
        assert_eq!(t.get(b"abc").unwrap(), Some(3));
        assert_eq!(t.get(b"abcd").unwrap(), None);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn paper_example_cpu_disk() {
        // Figure 8: metric$cpu and metric$disk share the "metric$" spine
        // and diverge into tails "pu" / "isk".
        let (_d, t) = trie();
        t.insert(b"metric$cpu", 100).unwrap();
        t.insert(b"metric$disk", 200).unwrap();
        assert_eq!(t.get(b"metric$cpu").unwrap(), Some(100));
        assert_eq!(t.get(b"metric$disk").unwrap(), Some(200));
        assert_eq!(t.get(b"metric$c").unwrap(), None);
        assert_eq!(t.get(b"metric$cpux").unwrap(), None);
    }

    #[test]
    fn scan_prefix_enumerates_subtree() {
        let (_d, t) = trie();
        let keys: &[(&[u8], u64)] = &[
            (b"host\x01h1", 1),
            (b"host\x01h2", 2),
            (b"host\x01h10", 3),
            (b"metric\x01cpu", 4),
        ];
        for (k, v) in keys {
            t.insert(k, *v).unwrap();
        }
        let mut seen = BTreeMap::new();
        t.scan_prefix(b"host\x01", |k, v| {
            seen.insert(k.to_vec(), v);
            true
        })
        .unwrap();
        assert_eq!(seen.len(), 3);
        assert_eq!(seen.get(b"host\x01h10".as_slice()), Some(&3));
        // Full scan sees everything.
        let mut count = 0;
        t.scan_prefix(b"", |_, _| {
            count += 1;
            true
        })
        .unwrap();
        assert_eq!(count, 4);
        // Early stop works.
        let mut count = 0;
        t.scan_prefix(b"", |_, _| {
            count += 1;
            false
        })
        .unwrap();
        assert_eq!(count, 1);
    }

    #[test]
    fn many_keys_force_relocations() {
        let (_d, t) = trie();
        let mut model = BTreeMap::new();
        for i in 0..2000u64 {
            let key = format!("tag{}\x01value{}", i % 37, i);
            t.insert(key.as_bytes(), i).unwrap();
            model.insert(key, i);
        }
        assert_eq!(t.len(), model.len() as u64);
        for (k, v) in &model {
            assert_eq!(t.get(k.as_bytes()).unwrap(), Some(*v), "key {k}");
        }
        assert_eq!(t.get(b"tag0\x01value2001").unwrap(), None);
    }

    #[test]
    fn binary_keys_with_all_byte_values() {
        let (_d, t) = trie();
        let keys: Vec<Vec<u8>> = (0..=255u8).map(|b| vec![b, 255 - b, b]).collect();
        for (i, k) in keys.iter().enumerate() {
            t.insert(k, i as u64).unwrap();
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.get(k).unwrap(), Some(i as u64));
        }
    }

    #[test]
    fn reopen_recovers_contents() {
        let dir = tempfile::tempdir().unwrap();
        let cache = PageCache::new(256 * PAGE_SIZE);
        {
            let t = DoubleArrayTrie::open(cache.clone(), dir.path().join("t"), 4096).unwrap();
            for i in 0..500u64 {
                t.insert(format!("key-{i}").as_bytes(), i).unwrap();
            }
            t.sync(dir.path().join("t")).unwrap();
        }
        let t = DoubleArrayTrie::open(cache, dir.path().join("t"), 4096).unwrap();
        assert_eq!(t.len(), 500);
        for i in (0..500u64).step_by(41) {
            assert_eq!(t.get(format!("key-{i}").as_bytes()).unwrap(), Some(i));
        }
    }

    #[test]
    fn leftover_key_count_tmp_from_an_interrupted_sync_is_ignored() {
        let dir = tempfile::tempdir().unwrap();
        let cache = PageCache::new(256 * PAGE_SIZE);
        let path = dir.path().join("t");
        {
            let t = DoubleArrayTrie::open(cache.clone(), &path, 4096).unwrap();
            for i in 0..50u64 {
                t.insert(format!("key-{i}").as_bytes(), i).unwrap();
            }
            t.sync(&path).unwrap();
            assert!(!path.join("trie.keys.tmp").exists());
        }
        for tmp_len in [0, 5, 8, 13] {
            // A crash inside the next sync leaves a tmp of any length.
            std::fs::write(path.join("trie.keys.tmp"), vec![0xCD; tmp_len]).unwrap();
            let t = DoubleArrayTrie::open(cache.clone(), &path, 4096).unwrap();
            assert_eq!(t.len(), 50, "tmp of {tmp_len} bytes");
            assert_eq!(t.get(b"key-7").unwrap(), Some(7));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20))]
        #[test]
        fn prop_matches_btreemap_model(
            entries in proptest::collection::vec(
                (proptest::collection::vec(any::<u8>(), 0..20), any::<u64>()),
                0..300,
            ),
            probes in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..20), 0..50),
        ) {
            let (_d, t) = trie();
            let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
            for (k, v) in &entries {
                if v % 3 == 0 {
                    // Every third entry goes through get_or_insert, which
                    // must neither overwrite nor build its value for a
                    // key that is present.
                    let present = model.contains_key(k);
                    let expected = *model.entry(k.clone()).or_insert(*v);
                    let mut built = false;
                    let got = t.get_or_insert(k, || { built = true; *v }).unwrap();
                    prop_assert_eq!(got, expected);
                    prop_assert_eq!(built, !present);
                } else {
                    let expected = model.insert(k.clone(), *v);
                    prop_assert_eq!(t.insert(k, *v).unwrap(), expected);
                }
            }
            prop_assert_eq!(t.len(), model.len() as u64);
            for (k, v) in &model {
                prop_assert_eq!(t.get(k).unwrap(), Some(*v));
            }
            for probe in &probes {
                prop_assert_eq!(t.get(probe).unwrap(), model.get(probe).copied());
            }
            // scan_prefix("") must enumerate exactly the model.
            let mut seen: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
            t.scan_prefix(b"", |k, v| { seen.insert(k.to_vec(), v); true }).unwrap();
            prop_assert_eq!(seen, model);
        }
    }
}
