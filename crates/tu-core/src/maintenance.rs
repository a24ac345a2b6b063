//! One maintenance pass (§3.3): the fixed list of steps that moves sealed
//! chunks down the tiers, drops what retention expired, and lets the WAL
//! go of what the tree now holds.
//!
//! Inline maintenance, [`TimeUnion::maintain`], [`TimeUnion::sync`],
//! [`TimeUnion::flush_all`] and [`TimeUnion::apply_retention`] all run one
//! pass. They differ in two arguments only: `drain` (seal every head and
//! compact everything into L2, or take the memtables that filled and
//! upload the closed windows) and the retention watermark. [`Step`] lists
//! the steps in order, each with the ordering rule it keeps.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use tu_common::{Error, Result, SeriesId, Timestamp};
use tu_lsm::wal::RecordKind;

use crate::catalog::CatalogRecord;
use crate::engine::{tags_key, TimeUnion};
use crate::meta::{self, EngineMeta};

/// The steps of a pass, in the order it runs them. A step hook
/// ([`TimeUnion::set_step_hook`]) sees each one as it ends, whether or
/// not the pass had work for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// A drain seals every head before it uploads anything, so a window
    /// holds all of its data when it goes.
    Seal,
    /// Sealed memtables go to L0.
    Flush,
    /// L0 compacts into L1. A compaction's inputs stay readable until its
    /// outputs replace them.
    CompactL0,
    /// L1's windows merge into L2 or upload to it, likewise.
    UploadWindows,
    /// Retention drops what is past its watermark. Passes are serialized,
    /// so no compaction publishes a partition it dropped.
    Purge,
    /// The catalog is flushed, then the LSM `MANIFEST` replaced, once per
    /// pass: a table the manifest names holds chunks only of series and
    /// groups the catalog knows.
    SaveManifest,
    /// Tables the saved manifest no longer names are deleted.
    DeleteObsolete,
    /// `engine.meta`, if changed, covers every late chunk before a
    /// checkpoint lets its record go.
    WriteMeta,
    /// Head rows a late chunk's checkpoint would cover are logged again:
    /// no checkpoint covers a row still in a head.
    RelogHeads,
    /// The checkpoints of the chunks that reached L0 are queued.
    LogCheckpoints,
    /// `engine.maintenance` is released: no thread waits on the WAL while
    /// it holds it.
    Release,
    /// The WAL is flushed and truncated, and the catalog flushed.
    FlushWal,
}

pub(crate) type StepHook = Box<dyn Fn(Step) + Send + Sync>;

pub(crate) struct PendingCheckpoint {
    pub stream: u64,
    pub seq: u64,
    pub epoch: u64,
    /// For a late chunk — one that left ahead of its object's head — its
    /// newest timestamp. Its checkpoint is the only kind that can pass
    /// rows still in a head, and must carry the timestamp into
    /// `engine.meta` ([`EngineMeta::late_ts`]).
    pub late: Option<Timestamp>,
}

/// What only maintenance passes touch, under the lock that serializes
/// them.
#[derive(Default)]
pub(crate) struct Maintenance {
    pub meta: EngineMeta,
    /// `engine.meta` as last written or read: an unchanged file is not
    /// written again.
    pub written: Vec<u8>,
}

impl TimeUnion {
    /// Runs one maintenance pass: flushes what filled, compacts, uploads
    /// the closed windows and checkpoints the WAL. Passes are serialized:
    /// when several ingest workers seal memtables at once, one runs its
    /// pass while the others wait for it.
    pub fn maintain(&self) -> Result<()> {
        self.pass(false, None).map(drop)
    }

    /// Seals every open head chunk into the tree and drains all levels of
    /// fast storage down to the slow tier: the paper's "after all pending
    /// samples are flushed" state. Heads are sealed in map order, not time
    /// order, so nothing is uploaded before every head is sealed; each
    /// slow-tier partition is then written once, holding all of its data.
    /// A concurrent writer's inline maintenance waits for the drain.
    pub fn flush_all(&self) -> Result<()> {
        self.pass(true, None).map(drop)
    }

    /// Flushes logs/indexes and runs a pass; call before dropping for
    /// durability.
    pub fn sync(&self) -> Result<()> {
        self.flush_wal()?;
        self.index.sync()?;
        self.maintain()
    }

    /// Applies the retention policy (§3.3 "Data retention") in a pass:
    /// drops tree partitions past the watermark and purges memory objects
    /// whose newest sample is older than it. Returns `(partitions,
    /// objects)` removed. Without a retention window it is a plain pass.
    pub fn apply_retention(&self) -> Result<(usize, usize)> {
        let watermark = self.opts.retention_ms.map(|r| self.opts.clock.now_ms() - r);
        self.pass(false, watermark)
    }

    /// Installs a function every pass calls at each step boundary, on the
    /// thread that runs the pass. Crash tests copy the store there. Only
    /// the first hook installed on an engine takes.
    #[doc(hidden)]
    pub fn set_step_hook(&self, hook: impl Fn(Step) + Send + Sync + 'static) {
        let _ = self.step_hook.set(Box::new(hook));
    }

    fn step(&self, step: Step) {
        if let Some(hook) = self.step_hook.get() {
            hook(step);
        }
    }

    /// The pass: every step but the last two under `engine.maintenance`.
    /// Flushing and truncating the WAL may wait for a writer's
    /// group-commit wave in flight, and a thread parked on the log's
    /// condvar must hold no other lock.
    fn pass(&self, drain: bool, watermark: Option<Timestamp>) -> Result<(usize, usize)> {
        let mut state = self.maintenance.lock();
        let (purged, checkpointed) = self.locked_steps(&mut state, drain, watermark)?;
        drop(state);
        self.step(Step::Release);
        if checkpointed {
            self.flush_wal()?;
            self.wal.truncate(self.opts.wal_purge_bytes)?;
        }
        self.catalog.flush()?;
        self.step(Step::FlushWal);
        Ok(purged)
    }

    fn locked_steps(
        &self,
        state: &mut Maintenance,
        drain: bool,
        watermark: Option<Timestamp>,
    ) -> Result<((usize, usize), bool)> {
        if drain {
            self.seal_heads()?;
        }
        self.step(Step::Seal);
        self.tree.flush_sealed()?;
        self.step(Step::Flush);
        let mut obsolete = self.tree.compact_l0(drain)?;
        self.step(Step::CompactL0);
        obsolete.extend(self.tree.upload_windows(drain)?);
        self.step(Step::UploadWindows);
        let mut purged = (0, 0);
        if let Some(watermark) = watermark {
            let (partitions, expired) = self.tree.purge_before(watermark);
            obsolete.extend(expired);
            purged = (partitions, self.purge_objects(watermark)?);
        }
        self.step(Step::Purge);
        self.catalog.flush()?;
        self.tree.save_manifest()?;
        self.step(Step::SaveManifest);
        self.tree.delete_obsolete(obsolete)?;
        self.step(Step::DeleteObsolete);
        let newest = self.write_meta(state)?;
        self.step(Step::WriteMeta);
        for (&stream, &(seq, late)) in &newest {
            if late {
                self.relog_head_below(stream, seq)?;
            }
        }
        self.step(Step::RelogHeads);
        // A stream's highest checkpoint covers its lower ones: only that
        // one is logged.
        for (&stream, &(seq, _)) in &newest {
            self.wal.append_checkpoint(stream, seq);
        }
        self.step(Step::LogCheckpoints);
        Ok((purged, !newest.is_empty()))
    }

    /// The drain's seal step: seals every head into the tree, then the
    /// active memtable. A memtable that fills meanwhile is flushed to L0 at
    /// once, which keeps the heap bounded and uploads nothing.
    fn seal_heads(&self) -> Result<()> {
        for obj in self.objects.values() {
            // Each chunk reaches the tree before its head lets go of it.
            let mut o = obj.lock();
            let seq = o.seq;
            let sealed = o.seal(&self.arenas, seq)?;
            let filled = sealed.is_some_and(|f| {
                self.put_chunk(o.id, f.first_ts, f.last_ts, f.chunk, f.seq, false)
            });
            drop(o);
            if filled {
                self.tree.flush_sealed()?;
            }
        }
        self.tree.seal();
        Ok(())
    }

    /// Drops the objects whose newest sample is older than `watermark`,
    /// and records each removal in the catalog: the pass's `SaveManifest`
    /// step makes it durable. Returns how many went.
    fn purge_objects(&self, watermark: Timestamp) -> Result<usize> {
        let stale: Vec<SeriesId> = self
            .objects
            .entries()
            .into_iter()
            .filter(|(_, o)| o.lock().last_ts < watermark)
            .map(|(id, _)| id)
            .collect();
        let mut objects = 0;
        for id in stale {
            if self.drop_object(id)? {
                self.catalog.append(&CatalogRecord::Removed { id });
                objects += 1;
            }
        }
        Ok(objects)
    }

    /// Removes object `id` from memory: its map entries, its postings
    /// (each member's too) and its head slot. Retention and the replay of
    /// a removal record both go through here. Returns whether it existed.
    ///
    /// The tags stay mapped when they already name another id: a writer
    /// may recreate them before the removal is logged, so the catalog can
    /// hold the newer object's creation ahead of this removal.
    pub(crate) fn drop_object(&self, id: SeriesId) -> Result<bool> {
        let Some(obj) = self.objects.remove(&id) else {
            return Ok(false);
        };
        let obj = Arc::try_unwrap(obj)
            .map_err(|_| Error::Closed("object busy during retention".into()))?
            .into_inner();
        let key = tags_key(&obj.labels, obj.is_group());
        let mut by_tags = self.by_tags.lock_shard(&key);
        if by_tags.get(&key) == Some(&id) {
            by_tags.remove(&key);
        }
        drop(by_tags);
        self.index.remove(&obj.labels, id)?;
        for (_, unique) in obj.members() {
            self.index.remove(&obj.labels.merge(unique), id)?;
        }
        obj.release(&self.arenas)?;
        Ok(true)
    }

    /// Takes the checkpoints whose chunks reached L0 and replaces
    /// `engine.meta` if it changed. The meta goes first: a checkpoint lets
    /// truncation drop late chunks' records, and with them the versions and
    /// timestamps the meta must cover from then on. Returns each stream's
    /// newest ready checkpoint, and whether a late chunk is among them.
    fn write_meta(&self, state: &mut Maintenance) -> Result<BTreeMap<u64, (u64, bool)>> {
        let flushed = self.tree.flushed_epoch();
        let ready: Vec<PendingCheckpoint> = {
            let mut pending = self.pending_ckpts.lock();
            let (ready, keep) = pending.drain(..).partition(|c| c.epoch < flushed);
            *pending = keep;
            ready
        };
        let Maintenance { meta, written } = state;
        let mut newest: BTreeMap<u64, (u64, bool)> = BTreeMap::new();
        for c in &ready {
            if let Some(t) = c.late {
                let latest = meta.late_ts.entry(c.stream).or_insert(t);
                *latest = (*latest).max(t);
            }
            let (seq, late) = newest.entry(c.stream).or_insert((c.seq, false));
            *seq = (*seq).max(c.seq);
            *late |= c.late.is_some();
        }
        meta.late_seq = self.late_seq.load(Ordering::Relaxed);
        let bytes = meta.encode();
        if bytes != *written {
            self.env.block.replace_file(meta::FILE, &bytes)?;
            *written = bytes;
        }
        Ok(newest)
    }

    /// Logs an object's head rows again, as one record under fresh
    /// sequence numbers, when the checkpoint `seq` would cover the oldest
    /// of them: no checkpoint ever covers a row still in a head. The copy
    /// is queued ahead of the checkpoint, so no wave holds the checkpoint
    /// without it.
    fn relog_head_below(&self, stream: u64, seq: u64) -> Result<()> {
        let Some(obj) = self.objects.get(&stream) else {
            return Ok(()); // purged by retention
        };
        let mut obj = obj.lock();
        if obj.head_seq().is_none_or(|oldest| oldest > seq) {
            return Ok(());
        }
        let first = obj.seq + 1;
        let rows = obj.relog_head(&self.arenas, first)?;
        obj.seq += obj.take_rows(&rows, usize::MAX)?.1 as u64;
        self.log(RecordKind::Rows, stream, obj.seq, &rows)
    }
}
