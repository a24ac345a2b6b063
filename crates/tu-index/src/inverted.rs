//! The global inverted index: trie-backed tag dictionary plus postings.
//!
//! Unlike Prometheus tsdb, which builds one index per time partition and
//! loads old partitions' indexes into memory for querying, TimeUnion keeps
//! a *single* global index covering all live series and groups (§3.2).
//! Tag pairs live in the double-array trie; each maps to a postings list
//! of series/group IDs.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::matcher::{Matcher, Selector};
use crate::postings::{intersect, union, PostingsStore};
use crate::trie::DoubleArrayTrie;
use crate::KV_SEPARATOR;
use tu_common::fs::replace_file;
use tu_common::lockdep::{self, RwLock};
use tu_common::{Labels, Result, SeriesId};
use tu_mmap::pagecache::PageCache;

fn trie_key(key: &str, value: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(key.len() + value.len() + 1);
    out.extend_from_slice(key.as_bytes());
    out.push(KV_SEPARATOR);
    out.extend_from_slice(value.as_bytes());
    out
}

/// The combined inverted index.
pub struct InvertedIndex {
    trie: DoubleArrayTrie,
    postings: RwLock<PostingsStore>,
    dir: PathBuf,
}

impl InvertedIndex {
    /// Opens (or creates) the index under `dir`. `slots_per_segment`
    /// controls the trie's file-array segmentation (1M in the paper).
    pub fn open(
        cache: Arc<PageCache>,
        dir: impl Into<PathBuf>,
        slots_per_segment: usize,
    ) -> Result<Self> {
        let dir = dir.into();
        let trie = DoubleArrayTrie::open(cache, &dir, slots_per_segment)?;
        let mut postings = PostingsStore::new();
        // Postings are rebuilt from the sidecar on reopen; if absent (crash
        // before sync), the engine replays its WAL to repopulate.
        let sidecar = dir.join("postings.dat");
        if sidecar.exists() {
            postings = load_postings(&sidecar)?;
        }
        Ok(InvertedIndex {
            trie,
            postings: RwLock::new(&lockdep::INDEX_POSTINGS, postings),
            dir,
        })
    }

    /// The postings slot of a tag pair, created on first sight. One trie
    /// walk, and two creators of the same new pair get the same slot.
    fn slot_of(&self, key: &[u8]) -> Result<u64> {
        self.trie
            .get_or_insert(key, || self.postings.write().create())
    }

    /// Indexes `id` under every tag pair in `labels`.
    pub fn add(&self, labels: &Labels, id: SeriesId) -> Result<()> {
        for (k, v) in labels.iter() {
            let slot = self.slot_of(&trie_key(k, v))?;
            self.postings.write().add(slot, id);
        }
        Ok(())
    }

    /// Starts a bulk load (recovery re-indexes every live series): same
    /// result as calling [`InvertedIndex::add`] per entry, but a tag pair
    /// is walked through the trie once per batch, not once per series that
    /// carries it. Slots never move, so remembering them is safe.
    pub fn batch(&self) -> Batch<'_> {
        Batch {
            index: self,
            slots: HashMap::new(),
        }
    }

    /// Removes `id` from every tag pair in `labels` (retention purge).
    pub fn remove(&self, labels: &Labels, id: SeriesId) -> Result<()> {
        for (k, v) in labels.iter() {
            if let Some(slot) = self.trie.get(&trie_key(k, v))? {
                self.postings.write().remove(slot, id);
            }
        }
        Ok(())
    }

    /// The sorted postings for one exact tag pair.
    pub fn postings_for(&self, key: &str, value: &str) -> Result<Vec<SeriesId>> {
        Ok(match self.trie.get(&trie_key(key, value))? {
            Some(slot) => self.postings.read().get(slot).to_vec(),
            None => Vec::new(),
        })
    }

    /// All values of a tag key that some live series or group carries,
    /// sorted. A pair stays in the trie after its last series expires;
    /// its empty postings list is what marks it gone.
    pub fn tag_values(&self, key: &str) -> Result<Vec<String>> {
        let mut prefix = key.as_bytes().to_vec();
        prefix.push(KV_SEPARATOR);
        let mut found = Vec::new();
        self.trie.scan_prefix(&prefix, |full_key, slot| {
            let value = &full_key[prefix.len()..];
            if let Ok(s) = std::str::from_utf8(value) {
                found.push((s.to_string(), slot));
            }
            true
        })?;
        let postings = self.postings.read();
        let mut out: Vec<String> = found
            .into_iter()
            .filter(|&(_, slot)| !postings.get(slot).is_empty())
            .map(|(value, _)| value)
            .collect();
        out.sort();
        Ok(out)
    }

    /// Evaluates one selector to a sorted ID list.
    fn eval_selector(&self, sel: &Selector) -> Result<Vec<SeriesId>> {
        match &sel.matcher {
            Matcher::Exact(value) => self.postings_for(&sel.key, value),
            Matcher::Regex(re) => {
                let mut prefix = sel.key.as_bytes().to_vec();
                prefix.push(KV_SEPARATOR);
                let mut slots = Vec::new();
                self.trie.scan_prefix(&prefix, |full_key, slot| {
                    let value = &full_key[prefix.len()..];
                    if re.is_match_bytes(value) {
                        slots.push(slot);
                    }
                    true
                })?;
                let postings = self.postings.read();
                let mut acc: Vec<SeriesId> = Vec::new();
                for list in slots.into_iter().map(|slot| postings.get(slot)) {
                    if !list.is_empty() {
                        acc = union(&acc, list);
                    }
                }
                Ok(acc)
            }
        }
    }

    /// Evaluates a conjunction of selectors: the intersection of each
    /// selector's postings. An empty selector list selects nothing.
    pub fn select(&self, selectors: &[Selector]) -> Result<Vec<SeriesId>> {
        let mut iter = selectors.iter();
        let first = match iter.next() {
            Some(s) => self.eval_selector(s)?,
            None => return Ok(Vec::new()),
        };
        let mut acc = first;
        for sel in iter {
            if acc.is_empty() {
                break;
            }
            acc = intersect(&acc, &self.eval_selector(sel)?);
        }
        Ok(acc)
    }

    /// Number of distinct tag pairs indexed.
    pub fn tag_pairs(&self) -> u64 {
        self.trie.len()
    }

    /// Total posting entries (Equation 1's `N·T` term measured directly).
    pub fn posting_entries(&self) -> u64 {
        self.postings.read().total_entries()
    }

    /// Heap bytes of the postings lists (the trie is file-backed and
    /// accounted via the page cache).
    pub fn heap_bytes(&self) -> usize {
        self.postings.read().heap_bytes()
    }

    /// Persists the trie and the postings sidecar.
    pub fn sync(&self) -> Result<()> {
        self.trie.sync(&self.dir)?;
        save_postings(&self.dir.join("postings.dat"), &self.postings.read())?;
        Ok(())
    }
}

/// A bulk load into an [`InvertedIndex`]; see [`InvertedIndex::batch`].
pub struct Batch<'a> {
    index: &'a InvertedIndex,
    /// Trie key → postings slot, for the pairs this batch has seen.
    slots: HashMap<Vec<u8>, u64>,
}

impl Batch<'_> {
    /// Indexes `id` under every tag pair in `labels`.
    pub fn add(&mut self, labels: &Labels, id: SeriesId) -> Result<()> {
        for (k, v) in labels.iter() {
            let key = trie_key(k, v);
            let slot = match self.slots.get(&key) {
                Some(&slot) => slot,
                None => {
                    let slot = self.index.slot_of(&key)?;
                    self.slots.insert(key, slot);
                    slot
                }
            };
            self.index.postings.write().add(slot, id);
        }
        Ok(())
    }
}

fn save_postings(path: &Path, store: &PostingsStore) -> Result<()> {
    use tu_common::varint;
    let mut out = Vec::new();
    varint::write_u64(&mut out, store.len() as u64);
    for slot in 0..store.len() as u64 {
        let list = store.get(slot);
        varint::write_u64(&mut out, list.len() as u64);
        let mut prev = 0u64;
        for &id in list {
            varint::write_u64(&mut out, id.wrapping_sub(prev));
            prev = id;
        }
    }
    replace_file(path, &out)
}

fn load_postings(path: &Path) -> Result<PostingsStore> {
    use tu_common::varint;
    let bytes = std::fs::read(path)?;
    let mut off = 0usize;
    let (count, n) = varint::read_u64(&bytes[off..])?;
    off += n;
    let mut store = PostingsStore::new();
    for _ in 0..count {
        let slot = store.create();
        let (len, n) = varint::read_u64(&bytes[off..])?;
        off += n;
        let mut prev = 0u64;
        for _ in 0..len {
            let (delta, n) = varint::read_u64(&bytes[off..])?;
            off += n;
            prev = prev.wrapping_add(delta);
            store.add(slot, prev);
        }
    }
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tu_common::GROUP_ID_FLAG;
    use tu_mmap::pagecache::PAGE_SIZE;

    fn index() -> (tempfile::TempDir, InvertedIndex) {
        let dir = tempfile::tempdir().unwrap();
        let cache = PageCache::new(256 * PAGE_SIZE);
        let idx = InvertedIndex::open(cache, dir.path().join("idx"), 4096).unwrap();
        (dir, idx)
    }

    fn labels(pairs: &[(&str, &str)]) -> Labels {
        Labels::from_pairs(pairs.iter().copied())
    }

    #[test]
    fn add_and_select_exact() {
        let (_d, idx) = index();
        idx.add(&labels(&[("metric", "cpu"), ("host", "h1")]), 1)
            .unwrap();
        idx.add(&labels(&[("metric", "cpu"), ("host", "h2")]), 2)
            .unwrap();
        idx.add(&labels(&[("metric", "mem"), ("host", "h1")]), 3)
            .unwrap();
        assert_eq!(
            idx.select(&[Selector::exact("metric", "cpu")]).unwrap(),
            vec![1, 2]
        );
        assert_eq!(
            idx.select(&[
                Selector::exact("metric", "cpu"),
                Selector::exact("host", "h1")
            ])
            .unwrap(),
            vec![1]
        );
        assert!(idx
            .select(&[Selector::exact("metric", "disk")])
            .unwrap()
            .is_empty());
        assert!(idx.select(&[]).unwrap().is_empty());
        assert_eq!(idx.tag_pairs(), 4);
        assert_eq!(idx.posting_entries(), 6);
    }

    #[test]
    fn regex_selection_unions_matching_values() {
        let (_d, idx) = index();
        for (i, m) in ["disk_read", "disk_write", "cpu_user", "diskless"]
            .iter()
            .enumerate()
        {
            idx.add(&labels(&[("metric", m)]), i as u64 + 1).unwrap();
        }
        let sel = Selector::regex("metric", "disk_.*").unwrap();
        assert_eq!(idx.select(&[sel]).unwrap(), vec![1, 2]);
        let sel = Selector::regex("metric", "disk.*").unwrap();
        assert_eq!(idx.select(&[sel]).unwrap(), vec![1, 2, 4]);
    }

    #[test]
    fn group_ids_live_in_the_same_postings() {
        // Figure 5: grouping shortens postings because the group ID stands
        // in for all member series.
        let (_d, idx) = index();
        let gid = 7 | GROUP_ID_FLAG;
        idx.add(&labels(&[("region", "1"), ("device", "1")]), gid)
            .unwrap();
        assert_eq!(idx.postings_for("region", "1").unwrap(), vec![gid]);
        assert_eq!(idx.posting_entries(), 2);
    }

    #[test]
    fn remove_unindexes_series() {
        let (_d, idx) = index();
        let l = labels(&[("metric", "cpu"), ("host", "h1")]);
        idx.add(&l, 1).unwrap();
        idx.add(&labels(&[("metric", "cpu")]), 2).unwrap();
        idx.remove(&l, 1).unwrap();
        assert_eq!(
            idx.select(&[Selector::exact("metric", "cpu")]).unwrap(),
            vec![2]
        );
        assert!(idx.postings_for("host", "h1").unwrap().is_empty());
        // The pair stays in the trie, but no live series carries it.
        assert!(idx.tag_values("host").unwrap().is_empty());
        assert_eq!(idx.tag_values("metric").unwrap(), vec!["cpu"]);
    }

    #[test]
    fn tag_values_enumerates_sorted() {
        let (_d, idx) = index();
        for (i, h) in ["h9", "h1", "h10"].iter().enumerate() {
            idx.add(&labels(&[("host", h)]), i as u64).unwrap();
        }
        assert_eq!(idx.tag_values("host").unwrap(), vec!["h1", "h10", "h9"]);
        assert!(idx.tag_values("nope").unwrap().is_empty());
    }

    #[test]
    fn duplicate_add_is_idempotent() {
        let (_d, idx) = index();
        let l = labels(&[("metric", "cpu")]);
        idx.add(&l, 5).unwrap();
        idx.add(&l, 5).unwrap();
        assert_eq!(idx.postings_for("metric", "cpu").unwrap(), vec![5]);
    }

    #[test]
    fn batch_add_builds_the_same_index_as_add() {
        let (_d, one_by_one) = index();
        let (_d2, batched) = index();
        // A pair already in the trie before the batch starts must resolve
        // to its existing slot.
        for idx in [&one_by_one, &batched] {
            idx.add(&labels(&[("dc", "dc1")]), 500).unwrap();
        }
        let mut batch = batched.batch();
        for i in 0..200u64 {
            let host = format!("h{}", i / 8);
            let metric = format!("m{}", i % 8);
            let l = labels(&[("host", &host), ("metric", &metric), ("dc", "dc1")]);
            one_by_one.add(&l, i).unwrap();
            batch.add(&l, i).unwrap();
        }
        assert_eq!(batched.tag_pairs(), one_by_one.tag_pairs());
        assert_eq!(batched.posting_entries(), one_by_one.posting_entries());
        for (k, v) in [("host", "h3"), ("metric", "m5"), ("dc", "dc1"), ("dc", "x")] {
            assert_eq!(
                batched.postings_for(k, v).unwrap(),
                one_by_one.postings_for(k, v).unwrap()
            );
        }
        assert_eq!(batched.postings_for("host", "h3").unwrap().len(), 8);
    }

    #[test]
    fn sync_and_reopen_recovers() {
        let dir = tempfile::tempdir().unwrap();
        let cache = PageCache::new(256 * PAGE_SIZE);
        {
            let idx = InvertedIndex::open(cache.clone(), dir.path().join("i"), 4096).unwrap();
            for i in 0..100u64 {
                idx.add(&labels(&[("metric", "cpu"), ("host", &format!("h{i}"))]), i)
                    .unwrap();
            }
            idx.sync().unwrap();
        }
        let idx = InvertedIndex::open(cache, dir.path().join("i"), 4096).unwrap();
        assert_eq!(
            idx.select(&[Selector::exact("metric", "cpu")])
                .unwrap()
                .len(),
            100
        );
        assert_eq!(
            idx.select(&[Selector::exact("host", "h42")]).unwrap(),
            vec![42]
        );
    }

    #[test]
    fn high_cardinality_selection() {
        let (_d, idx) = index();
        for i in 0..1000u64 {
            idx.add(
                &labels(&[
                    ("metric", if i % 2 == 0 { "cpu" } else { "mem" }),
                    ("host", &format!("host_{i}")),
                    ("dc", &format!("dc{}", i % 4)),
                ]),
                i,
            )
            .unwrap();
        }
        let got = idx
            .select(&[
                Selector::exact("metric", "cpu"),
                Selector::exact("dc", "dc2"),
            ])
            .unwrap();
        assert_eq!(got.len(), 250);
        assert!(got.iter().all(|id| id % 2 == 0 && id % 4 == 2));
        let re = idx
            .select(&[Selector::regex("host", "host_99[0-9]").unwrap()])
            .unwrap();
        assert_eq!(re.len(), 10);
    }
}
