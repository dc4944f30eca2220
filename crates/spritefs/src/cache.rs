//! The client (and server) block cache.
//!
//! File data is cached on a block-by-block basis in 4-Kbyte blocks
//! (Section 5). The cache itself is mechanism only: it tracks which
//! blocks are present, their reference and dirty times, and
//! least-recently-used order. *Policy* — when to grow, when to shrink,
//! what eviction means — lives with the caller (the client trades pages
//! with the VM system; the server has a fixed capacity).
//!
//! Three structures keep the hot paths cheap:
//!
//! * Blocks are indexed per file. One hash map takes a file to its
//!   `FileBlocks`, whose slot vector is indexed by block number, so a
//!   lookup is one file hash plus an array index. A file's cached and
//!   dirty blocks come out of a linear scan of that vector, already
//!   sorted.
//! * LRU order is an intrusive doubly-linked list threaded through a
//!   slab, so a touch is one lookup plus O(1) pointer surgery.
//!   Simulated time never decreases, so list order is exactly the old
//!   `(last_ref, seq)` order.
//! * The dirty index holds one entry per file with dirty blocks: the
//!   start of the file's oldest dirty episode, in a B-tree ordered by
//!   `(time, file)`. The write-back daemon's 5-second scan visits only
//!   files that have actually expired. Each file queues its dirty
//!   episodes in start order and drops ended ones lazily from the front,
//!   so dirtying or cleaning a block is O(1) amortized.

use std::collections::{BTreeSet, VecDeque};

use sdfs_simkit::{FastMap, SimDuration, SimTime};
use sdfs_trace::FileId;

/// Identity of one cached block: a file and a block index within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockKey {
    /// The file.
    pub file: FileId,
    /// Block index (byte offset / block size).
    pub index: u64,
}

/// Per-block cache state.
#[derive(Debug, Clone)]
pub struct BlockEntry {
    /// Last reference time (LRU key).
    pub last_ref: SimTime,
    /// Whether the block holds data not yet written to the server.
    pub dirty: bool,
    /// When the block first became dirty in its current dirty episode.
    pub dirty_since: SimTime,
    /// When the block was last written by an application.
    pub last_write: SimTime,
    /// Application bytes accumulated in the block since it last became
    /// dirty; used to account write-back block padding.
    pub dirty_app_bytes: u64,
}

impl BlockEntry {
    /// Time since the last application write — the write-back queue
    /// dwell the observability layer records when the block is cleaned.
    pub fn dwell(&self, now: SimTime) -> SimDuration {
        now.since(self.last_write)
    }
}

/// Sentinel for "no slab slot".
const NIL: u32 = u32::MAX;

/// One slab slot: the entry plus its LRU list links.
#[derive(Debug, Clone)]
struct Slot {
    key: BlockKey,
    entry: BlockEntry,
    prev: u32,
    next: u32,
}

/// The cached blocks of one file.
#[derive(Debug, Default)]
struct FileBlocks {
    /// Slab slot of each block, indexed by block number; `NIL` where
    /// the block is not cached. Never ends in `NIL`.
    slot_of: Vec<u32>,
    /// Cached blocks of the file (non-`NIL` entries of `slot_of`).
    live: usize,
    /// Dirty blocks of the file.
    dirty: usize,
    /// `(dirty_since, index)` of the file's dirty episodes in start
    /// order. An entry is *current* while its block is still dirty from
    /// that start; ended ones are skipped lazily, and the first entry is
    /// always current while `dirty > 0`.
    episodes: VecDeque<(SimTime, u64)>,
    /// Start of the oldest dirty episode: the file's key in the dirty
    /// index while `dirty > 0`.
    oldest: SimTime,
}

impl FileBlocks {
    /// Slab slot of block `index`, if cached.
    #[inline]
    fn slot(&self, index: u64) -> Option<u32> {
        match self.slot_of.get(index as usize) {
            Some(&i) if i != NIL => Some(i),
            _ => None,
        }
    }

    /// Whether episode `(since, index)` is still running.
    fn current(&self, slots: &[Slot], since: SimTime, index: u64) -> bool {
        self.slot(index).is_some_and(|i| {
            let e = &slots[i as usize].entry;
            e.dirty && e.dirty_since == since
        })
    }

    /// Caches `key` (a block of this file) referenced at `now`, or
    /// touches it if already cached. Returns whether it is new.
    fn place(&mut self, slab: &mut Slab, key: BlockKey, now: SimTime) -> bool {
        if let Some(i) = self.slot(key.index) {
            slab.touch(i, now);
            return false;
        }
        let at = key.index as usize;
        if at >= self.slot_of.len() {
            self.slot_of.resize(at + 1, NIL);
        }
        let i = slab.alloc(key, now);
        self.slot_of[at] = i;
        self.live += 1;
        true
    }

    /// Forgets block `index`, trimming trailing empty slots and giving
    /// back storage the vector no longer needs.
    fn unplace(&mut self, index: u64) {
        let at = index as usize;
        self.slot_of[at] = NIL;
        self.live -= 1;
        if at + 1 == self.slot_of.len() {
            while self.slot_of.last() == Some(&NIL) {
                self.slot_of.pop();
            }
            if self.slot_of.capacity() > 2 * self.slot_of.len() + 16 {
                self.slot_of.shrink_to_fit();
            }
        }
    }
}

/// Slot storage with the LRU list threaded through it.
#[derive(Debug)]
struct Slab {
    /// Slot storage; freed slots are listed in `free`.
    slots: Vec<Slot>,
    /// Freed slots, reused before the slab grows.
    free: Vec<u32>,
    /// Least-recently-used slot (list head).
    head: u32,
    /// Most-recently-used slot (list tail).
    tail: u32,
}

impl Slab {
    /// Unlinks slot `i` from the LRU list.
    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let s = &self.slots[i as usize];
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Links slot `i` at the most-recently-used end.
    fn push_back(&mut self, i: u32) {
        let tail = self.tail;
        {
            let s = &mut self.slots[i as usize];
            s.prev = tail;
            s.next = NIL;
        }
        if tail != NIL {
            self.slots[tail as usize].next = i;
        } else {
            self.head = i;
        }
        self.tail = i;
    }

    /// Sets slot `i`'s reference time and moves it to the MRU end.
    #[inline]
    fn touch(&mut self, i: u32, now: SimTime) {
        self.slots[i as usize].entry.last_ref = now;
        if self.tail != i {
            self.unlink(i);
            self.push_back(i);
        }
    }

    /// Stores `key` with a clean entry referenced at `now` in a free
    /// slot and links it at the MRU end, returning the slot.
    fn alloc(&mut self, key: BlockKey, now: SimTime) -> u32 {
        let entry = BlockEntry {
            last_ref: now,
            dirty: false,
            dirty_since: SimTime::ZERO,
            last_write: SimTime::ZERO,
            dirty_app_bytes: 0,
        };
        let i = match self.free.pop() {
            Some(i) => {
                let s = &mut self.slots[i as usize];
                s.key = key;
                s.entry = entry;
                i
            }
            None => {
                let i = self.slots.len() as u32;
                self.slots.push(Slot {
                    key,
                    entry,
                    prev: NIL,
                    next: NIL,
                });
                i
            }
        };
        self.push_back(i);
        i
    }

    /// Unlinks slot `i` and frees it.
    fn release(&mut self, i: u32) {
        self.unlink(i);
        self.free.push(i);
    }

    /// Touches slot `i` and records an application write of
    /// `app_bytes` at `now`. Returns `true` if the write started a dirty
    /// episode.
    fn write(&mut self, i: u32, now: SimTime, app_bytes: u64) -> bool {
        self.touch(i, now);
        let e = &mut self.slots[i as usize].entry;
        let began = !e.dirty;
        if began {
            e.dirty = true;
            e.dirty_since = now;
            e.dirty_app_bytes = 0;
        }
        e.last_write = now;
        e.dirty_app_bytes += app_bytes;
        began
    }

    /// Clears slot `i`'s dirty flag, returning its state just before,
    /// or `None` if it was clean.
    fn clean(&mut self, i: u32) -> Option<BlockEntry> {
        let e = &mut self.slots[i as usize].entry;
        if !e.dirty {
            return None;
        }
        let before = e.clone();
        e.dirty = false;
        e.dirty_app_bytes = 0;
        Some(before)
    }
}

/// The dirty index: every file with dirty blocks, keyed by the start of
/// its oldest dirty episode.
#[derive(Debug, Default)]
struct DirtyIndex {
    /// `(oldest dirty episode start, file)`, one entry per file with
    /// dirty blocks, for the daemon's expiry scan.
    files: BTreeSet<(SimTime, FileId)>,
    /// Number of dirty blocks.
    blocks: usize,
}

impl DirtyIndex {
    /// Block `index` of `file` (whose blocks are `f`) became dirty at
    /// `since`, no earlier than any episode it already queues.
    fn began(&mut self, f: &mut FileBlocks, file: FileId, since: SimTime, index: u64) {
        debug_assert!(
            !matches!(f.episodes.back(), Some(&(t, _)) if t > since),
            "simulated time went backwards"
        );
        self.blocks += 1;
        f.dirty += 1;
        f.episodes.push_back((since, index));
        if f.dirty == 1 {
            f.oldest = since;
            self.files.insert((since, file));
        }
    }

    /// A dirty block of `file` (whose blocks are `f`) was just cleaned
    /// or removed.
    fn ended(&mut self, f: &mut FileBlocks, slots: &[Slot], file: FileId) {
        self.blocks -= 1;
        f.dirty -= 1;
        if f.dirty == 0 {
            f.episodes.clear();
            self.files.remove(&(f.oldest, file));
        } else {
            self.resync(f, slots, file);
        }
    }

    /// Drops ended episodes from the front of `f`'s queue, rebuilds the
    /// queue when ended episodes dominate it, and moves the file's entry
    /// if its oldest episode changed. `f` must have dirty blocks.
    fn resync(&mut self, f: &mut FileBlocks, slots: &[Slot], file: FileId) {
        while let Some(&(t, index)) = f.episodes.front() {
            if f.current(slots, t, index) {
                break;
            }
            f.episodes.pop_front();
        }
        if f.episodes.len() > 2 * f.dirty + f.live / 4 + 32 {
            f.episodes.clear();
            for (index, &i) in f.slot_of.iter().enumerate() {
                if i != NIL && slots[i as usize].entry.dirty {
                    f.episodes.push_back((slots[i as usize].entry.dirty_since, index as u64));
                }
            }
            f.episodes.make_contiguous().sort_unstable();
        }
        let oldest = f.episodes.front().expect("dirty file has an episode").0;
        if oldest != f.oldest {
            self.files.remove(&(f.oldest, file));
            self.files.insert((oldest, file));
            f.oldest = oldest;
        }
    }
}

/// An LRU block cache.
#[derive(Debug)]
pub struct BlockCache {
    /// File → its cached blocks. A file is present iff it has a block.
    files: FastMap<FileId, FileBlocks>,
    /// Number of cached blocks.
    len: usize,
    /// Block entries and LRU order.
    slab: Slab,
    /// Files with dirty blocks, by oldest dirty episode.
    dirty: DirtyIndex,
}

impl Default for BlockCache {
    fn default() -> Self {
        BlockCache::new()
    }
}

impl BlockCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        BlockCache {
            files: FastMap::default(),
            len: 0,
            slab: Slab {
                slots: Vec::new(),
                free: Vec::new(),
                head: NIL,
                tail: NIL,
            },
            dirty: DirtyIndex::default(),
        }
    }

    /// Number of cached blocks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no blocks are cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of dirty blocks.
    pub fn dirty_len(&self) -> usize {
        self.dirty.blocks
    }

    /// Slab slot of `key`, if cached.
    #[inline]
    fn slot(&self, key: BlockKey) -> Option<u32> {
        self.files.get(&key.file)?.slot(key.index)
    }

    /// Returns `true` if `key` is cached.
    pub fn contains(&self, key: BlockKey) -> bool {
        self.slot(key).is_some()
    }

    /// Returns the entry for `key`, if cached.
    pub fn get(&self, key: BlockKey) -> Option<&BlockEntry> {
        self.slot(key).map(|i| &self.slab.slots[i as usize].entry)
    }

    /// Marks `key` referenced at `now`, refreshing its LRU position.
    /// Returns `true` if the block was present.
    pub fn touch(&mut self, key: BlockKey, now: SimTime) -> bool {
        match self.slot(key) {
            Some(i) => {
                self.slab.touch(i, now);
                true
            }
            None => false,
        }
    }

    /// Inserts a clean block referenced at `now`. The caller must have
    /// arranged capacity (this structure never evicts on its own).
    ///
    /// Inserting an already-present block just touches it.
    pub fn insert(&mut self, key: BlockKey, now: SimTime) {
        let f = self.files.entry(key.file).or_default();
        if f.place(&mut self.slab, key, now) {
            self.len += 1;
        }
    }

    /// Marks `key` dirty at `now` with `app_bytes` of new application
    /// data. The block must already be cached.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the block is absent.
    pub fn mark_dirty(&mut self, key: BlockKey, now: SimTime, app_bytes: u64) {
        let present = self.mark_dirty_if_present(key, now, app_bytes);
        debug_assert!(present, "mark_dirty on absent block");
    }

    /// [`Self::mark_dirty`], but absent blocks are a no-op returning
    /// `false`. Lets the write path probe and dirty in one lookup.
    pub fn mark_dirty_if_present(&mut self, key: BlockKey, now: SimTime, app_bytes: u64) -> bool {
        let Some(f) = self.files.get_mut(&key.file) else {
            return false;
        };
        let Some(i) = f.slot(key.index) else {
            return false;
        };
        if self.slab.write(i, now, app_bytes) {
            self.dirty.began(f, key.file, now, key.index);
        }
        true
    }

    /// Clears the dirty flag (the block was written to the server),
    /// returning the entry state just before cleaning.
    pub fn clean(&mut self, key: BlockKey) -> Option<BlockEntry> {
        let f = self.files.get_mut(&key.file)?;
        let before = self.slab.clean(f.slot(key.index)?)?;
        self.dirty.ended(f, &self.slab.slots, key.file);
        Some(before)
    }

    /// Removes `key` outright, returning its final state.
    pub fn remove(&mut self, key: BlockKey) -> Option<BlockEntry> {
        let f = self.files.get_mut(&key.file)?;
        let i = f.slot(key.index)?;
        f.unplace(key.index);
        self.len -= 1;
        let entry = self.slab.slots[i as usize].entry.clone();
        if entry.dirty {
            self.dirty.ended(f, &self.slab.slots, key.file);
        }
        if f.live == 0 {
            self.files.remove(&key.file);
        }
        self.slab.release(i);
        Some(entry)
    }

    /// Returns (without removing) the least-recently-used block.
    pub fn peek_lru(&self) -> Option<(BlockKey, &BlockEntry)> {
        if self.slab.head == NIL {
            return None;
        }
        let s = &self.slab.slots[self.slab.head as usize];
        Some((s.key, &s.entry))
    }

    /// Removes and returns the least-recently-used block.
    pub fn pop_lru(&mut self) -> Option<(BlockKey, BlockEntry)> {
        if self.slab.head == NIL {
            return None;
        }
        let key = self.slab.slots[self.slab.head as usize].key;
        let entry = self.remove(key).expect("LRU entry must exist");
        Some((key, entry))
    }

    /// All cached block indices of `file`, sorted.
    pub fn blocks_of(&self, file: FileId) -> Vec<u64> {
        let mut v = Vec::new();
        self.blocks_of_into(file, &mut v);
        v
    }

    /// Fills `out` with the cached block indices of `file`, sorted.
    /// Clears `out` first, so a caller can reuse one scratch buffer.
    pub fn blocks_of_into(&self, file: FileId, out: &mut Vec<u64>) {
        out.clear();
        if let Some(f) = self.files.get(&file) {
            out.extend(
                f.slot_of
                    .iter()
                    .enumerate()
                    .filter(|&(_, &i)| i != NIL)
                    .map(|(index, _)| index as u64),
            );
        }
    }

    /// All dirty block indices of `file`, sorted.
    pub fn dirty_blocks_of(&self, file: FileId) -> Vec<u64> {
        let mut v = Vec::new();
        self.dirty_blocks_of_into(file, &mut v);
        v
    }

    /// Fills `out` with the dirty block indices of `file`, sorted.
    /// Clears `out` first, so a caller can reuse one scratch buffer.
    pub fn dirty_blocks_of_into(&self, file: FileId, out: &mut Vec<u64>) {
        out.clear();
        let Some(f) = self.files.get(&file) else {
            return;
        };
        if f.dirty == 0 {
            return;
        }
        for (index, &i) in f.slot_of.iter().enumerate() {
            if i != NIL && self.slab.slots[i as usize].entry.dirty {
                out.push(index as u64);
                if out.len() == f.dirty {
                    break;
                }
            }
        }
    }

    /// Files that have at least one block dirty since `cutoff` or
    /// earlier — the write-back daemon's scan ("all dirty blocks for a
    /// file are written if any block of the file has been dirty for 30
    /// seconds").
    pub fn files_with_dirty_before(&self, cutoff: SimTime) -> Vec<FileId> {
        let mut files = Vec::new();
        self.files_with_dirty_before_into(cutoff, &mut files);
        files
    }

    /// Fills `out` with the files having a block dirty since `cutoff` or
    /// earlier, sorted. Clears `out` first. Visits only the expired
    /// range of the dirty index, so an idle tick is O(1).
    pub fn files_with_dirty_before_into(&self, cutoff: SimTime, out: &mut Vec<FileId>) {
        out.clear();
        out.extend(
            self.dirty
                .files
                .range(..=(cutoff, FileId(u64::MAX)))
                .map(|&(_, file)| file),
        );
        out.sort_unstable();
    }

    /// Age since last reference for `key` at `now` (for Table 8).
    pub fn ref_age(&self, key: BlockKey, now: SimTime) -> Option<SimDuration> {
        self.get(key).map(|e| now.since(e.last_ref))
    }

    /// The block that has been dirty longest, with the start of its
    /// dirty episode; ties go to the smallest key. Used by the
    /// sanitizer's write-back window check after each daemon tick.
    pub fn oldest_dirty(&self) -> Option<(SimTime, BlockKey)> {
        let &(since, file) = self.dirty.files.iter().next()?;
        let f = self.files.get(&file)?;
        let index = f
            .episodes
            .iter()
            .take_while(|&&(t, _)| t == since)
            .filter(|&&(t, index)| f.current(&self.slab.slots, t, index))
            .map(|&(_, index)| index)
            .min()?;
        Some((since, BlockKey { file, index }))
    }

    /// Cross-checks every internal index: the LRU list must thread
    /// exactly the live slots in non-decreasing `last_ref` order, each
    /// file's slot vector must map its blocks to slots holding them, and
    /// the dirty index must hold each dirty file once, at its oldest
    /// dirty episode. Returns the first inconsistency found. O(n); used
    /// by the sanitizer's deep audit.
    pub fn audit(&self) -> Result<(), String> {
        // Walk the LRU list.
        let mut walked = 0usize;
        let mut prev = NIL;
        let mut prev_ref: Option<SimTime> = None;
        let mut i = self.slab.head;
        while i != NIL {
            let slot = &self.slab.slots[i as usize];
            if slot.prev != prev {
                return Err(format!("LRU back-link broken at slot {i}"));
            }
            if self.slot(slot.key) != Some(i) {
                return Err(format!("LRU slot {i} holds {:?} not mapped to it", slot.key));
            }
            if let Some(p) = prev_ref {
                if slot.entry.last_ref < p {
                    return Err(format!("LRU order violated at slot {i}"));
                }
            }
            prev_ref = Some(slot.entry.last_ref);
            prev = i;
            i = slot.next;
            walked += 1;
            if walked > self.slab.slots.len() {
                return Err("LRU list cycles".to_string());
            }
        }
        if self.slab.tail != prev {
            return Err("LRU tail does not end the list".to_string());
        }
        if walked != self.len {
            return Err(format!("LRU list threads {walked} slots, len is {}", self.len));
        }
        // Per-file slot vectors and dirty episodes.
        let (mut live, mut dirty, mut dirty_files) = (0usize, 0usize, 0usize);
        for (&file, f) in &self.files {
            if !matches!(f.slot_of.last(), Some(&i) if i != NIL) {
                return Err(format!("{file:?} slot vector is empty or ends in NIL"));
            }
            let (mut n, mut d, mut oldest) = (0usize, 0usize, None);
            let mut queued: Vec<(SimTime, u64)> = f.episodes.iter().copied().collect();
            queued.sort_unstable();
            for (index, &i) in f.slot_of.iter().enumerate() {
                if i == NIL {
                    continue;
                }
                let key = BlockKey {
                    file,
                    index: index as u64,
                };
                if self.slab.slots[i as usize].key != key {
                    return Err(format!("{key:?} maps to slot {i} holding another key"));
                }
                n += 1;
                let e = &self.slab.slots[i as usize].entry;
                if e.dirty {
                    d += 1;
                    oldest = Some(oldest.map_or(e.dirty_since, |o: SimTime| o.min(e.dirty_since)));
                    if queued.binary_search(&(e.dirty_since, key.index)).is_err() {
                        return Err(format!("{key:?} is dirty with no queued episode"));
                    }
                }
            }
            if n != f.live || d != f.dirty {
                return Err(format!(
                    "{file:?} counts {} live / {} dirty, holds {n} / {d}",
                    f.live, f.dirty
                ));
            }
            if f.episodes.iter().zip(f.episodes.iter().skip(1)).any(|(a, b)| a.0 > b.0) {
                return Err(format!("{file:?} episode queue out of start order"));
            }
            live += n;
            dirty += d;
            if let Some(oldest) = oldest {
                dirty_files += 1;
                let front = f.episodes.front().copied();
                if f.oldest != oldest
                    || !front.is_some_and(|(t, index)| t == oldest && f.current(&self.slab.slots, t, index))
                    || !self.dirty.files.contains(&(oldest, file))
                {
                    return Err(format!("{file:?} oldest dirty episode {oldest} is not indexed"));
                }
            }
        }
        if live != self.len || dirty != self.dirty.blocks {
            return Err(format!(
                "files hold {live} blocks / {dirty} dirty, cache counts {} / {}",
                self.len, self.dirty.blocks
            ));
        }
        if dirty_files != self.dirty.files.len() {
            return Err(format!(
                "dirty index holds {} files, {dirty_files} have dirty blocks",
                self.dirty.files.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(file: u64, index: u64) -> BlockKey {
        BlockKey {
            file: FileId(file),
            index,
        }
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn insert_touch_lru_order() {
        let mut c = BlockCache::new();
        c.insert(key(1, 0), t(1));
        c.insert(key(1, 1), t(2));
        c.insert(key(2, 0), t(3));
        assert_eq!(c.len(), 3);
        // Touch the oldest; LRU should now be (1,1).
        assert!(c.touch(key(1, 0), t(4)));
        let (lru, _) = c.peek_lru().expect("non-empty");
        assert_eq!(lru, key(1, 1));
        let (popped, _) = c.pop_lru().expect("non-empty");
        assert_eq!(popped, key(1, 1));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lru_ties_break_by_insertion_order() {
        let mut c = BlockCache::new();
        c.insert(key(1, 0), t(5));
        c.insert(key(2, 0), t(5));
        let (first, _) = c.pop_lru().expect("non-empty");
        assert_eq!(first, key(1, 0));
    }

    #[test]
    fn dirty_lifecycle() {
        let mut c = BlockCache::new();
        c.insert(key(1, 0), t(1));
        c.mark_dirty(key(1, 0), t(2), 100);
        c.mark_dirty(key(1, 0), t(3), 50);
        assert_eq!(c.dirty_len(), 1);
        let entry = c.get(key(1, 0)).expect("cached");
        assert_eq!(entry.dirty_since, t(2), "first dirtying sets the clock");
        assert_eq!(entry.dirty_app_bytes, 150);
        assert_eq!(entry.last_write, t(3));

        let before = c.clean(key(1, 0)).expect("was dirty");
        assert!(before.dirty);
        assert_eq!(c.dirty_len(), 0);
        assert!(c.clean(key(1, 0)).is_none(), "already clean");
        // Dirtying again restarts the episode.
        c.mark_dirty(key(1, 0), t(10), 7);
        assert_eq!(c.get(key(1, 0)).expect("cached").dirty_since, t(10));
        assert_eq!(c.get(key(1, 0)).expect("cached").dirty_app_bytes, 7);
    }

    #[test]
    fn daemon_scan_finds_old_dirty_files() {
        let mut c = BlockCache::new();
        c.insert(key(1, 0), t(0));
        c.insert(key(2, 0), t(0));
        c.insert(key(3, 0), t(0));
        c.mark_dirty(key(1, 0), t(10), 1);
        c.mark_dirty(key(2, 0), t(50), 1);
        // Cutoff 20: only file 1 has been dirty since before t=20.
        assert_eq!(c.files_with_dirty_before(t(20)), vec![FileId(1)]);
        // Cutoff 60: both dirty files.
        assert_eq!(c.files_with_dirty_before(t(60)), vec![FileId(1), FileId(2)]);
    }

    #[test]
    fn per_file_views() {
        let mut c = BlockCache::new();
        c.insert(key(7, 3), t(1));
        c.insert(key(7, 1), t(1));
        c.insert(key(8, 0), t(1));
        c.mark_dirty(key(7, 1), t(2), 1);
        assert_eq!(c.blocks_of(FileId(7)), vec![1, 3]);
        assert_eq!(c.dirty_blocks_of(FileId(7)), vec![1]);
        assert!(c.blocks_of(FileId(9)).is_empty());
        c.remove(key(7, 1));
        c.remove(key(7, 3));
        assert!(c.blocks_of(FileId(7)).is_empty());
        assert_eq!(c.dirty_len(), 0);
    }

    #[test]
    fn remove_returns_state() {
        let mut c = BlockCache::new();
        c.insert(key(1, 0), t(1));
        c.mark_dirty(key(1, 0), t(2), 42);
        let e = c.remove(key(1, 0)).expect("present");
        assert!(e.dirty);
        assert_eq!(e.dirty_app_bytes, 42);
        assert!(c.remove(key(1, 0)).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn reinsert_touches() {
        let mut c = BlockCache::new();
        c.insert(key(1, 0), t(1));
        c.insert(key(2, 0), t(2));
        c.insert(key(1, 0), t(3)); // re-insert acts as touch
        assert_eq!(c.len(), 2);
        let (lru, _) = c.peek_lru().expect("non-empty");
        assert_eq!(lru, key(2, 0));
    }

    #[test]
    fn ref_age() {
        let mut c = BlockCache::new();
        c.insert(key(1, 0), t(10));
        assert_eq!(
            c.ref_age(key(1, 0), t(70)),
            Some(SimDuration::from_secs(60))
        );
        assert_eq!(c.ref_age(key(9, 9), t(70)), None);
    }

    #[test]
    fn slab_slots_are_reused() {
        let mut c = BlockCache::new();
        for round in 0..4u64 {
            for i in 0..8u64 {
                c.insert(key(1, i), t(round * 10 + i));
            }
            for i in 0..8u64 {
                c.remove(key(1, i));
            }
        }
        assert!(c.is_empty());
        assert!(c.slab.slots.len() <= 8, "slots reused, got {}", c.slab.slots.len());
    }

    #[test]
    fn interleaved_touch_keeps_list_consistent() {
        let mut c = BlockCache::new();
        for i in 0..16u64 {
            c.insert(key(i % 3, i), t(i));
        }
        for i in (0..16u64).rev() {
            c.touch(key(i % 3, i), t(100 + (16 - i)));
        }
        // Pop everything; order must be the reverse-touch order.
        let mut popped = Vec::new();
        while let Some((k, _)) = c.pop_lru() {
            popped.push(k.index);
        }
        assert_eq!(popped, (0..16u64).rev().collect::<Vec<_>>());
    }

    #[test]
    fn high_index_removal_shrinks_slot_storage() {
        let mut c = BlockCache::new();
        c.insert(key(1, 0), t(1));
        c.insert(key(1, 1 << 20), t(2));
        let grown = c.files[&FileId(1)].slot_of.capacity();
        assert!(grown > 1 << 20, "slot vector spans the high index");
        c.remove(key(1, 1 << 20));
        let f = &c.files[&FileId(1)];
        assert_eq!(f.slot_of.len(), 1, "trailing empty slots trimmed");
        assert!(f.slot_of.capacity() < 64, "storage shrank: {}", f.slot_of.capacity());
        c.remove(key(1, 0));
        assert!(c.files.is_empty(), "an emptied file leaves the index");
    }

    #[test]
    fn ended_episodes_behind_the_oldest_are_compacted() {
        let mut c = BlockCache::new();
        for i in 0..3 {
            c.insert(key(1, i), t(0));
        }
        // Block 0 stays dirty while block 1 is dirtied and cleaned over
        // and over: its ended episodes pile up behind block 0's.
        c.mark_dirty(key(1, 0), t(1), 1);
        for round in 0..100 {
            c.mark_dirty(key(1, 1), t(2 + round), 1);
            c.clean(key(1, 1));
        }
        let f = &c.files[&FileId(1)];
        assert!(f.episodes.len() <= 34, "queue compacted, holds {}", f.episodes.len());
        c.audit().expect("consistent after compaction");
        assert_eq!(c.oldest_dirty(), Some((t(1), key(1, 0))));
        c.mark_dirty(key(1, 1), t(200), 1);
        c.clean(key(1, 0));
        assert!(c.files_with_dirty_before(t(199)).is_empty());
        assert_eq!(c.oldest_dirty(), Some((t(200), key(1, 1))));
    }

    /// The naive reference the cache is model-checked against: every
    /// entry in a `BTreeMap`, LRU order as a list (front = least
    /// recently used), everything else derived by brute force.
    #[derive(Default)]
    struct Model {
        entries: std::collections::BTreeMap<BlockKey, BlockEntry>,
        lru: Vec<BlockKey>,
    }

    impl Model {
        fn touch(&mut self, key: BlockKey, now: SimTime) -> bool {
            let Some(e) = self.entries.get_mut(&key) else {
                return false;
            };
            e.last_ref = now;
            self.lru.retain(|&k| k != key);
            self.lru.push(key);
            true
        }

        fn insert(&mut self, key: BlockKey, now: SimTime) {
            if !self.touch(key, now) {
                let e = BlockEntry {
                    last_ref: now,
                    dirty: false,
                    dirty_since: SimTime::ZERO,
                    last_write: SimTime::ZERO,
                    dirty_app_bytes: 0,
                };
                self.entries.insert(key, e);
                self.lru.push(key);
            }
        }

        fn mark_dirty(&mut self, key: BlockKey, now: SimTime, bytes: u64) -> bool {
            if !self.touch(key, now) {
                return false;
            }
            let e = self.entries.get_mut(&key).expect("touched");
            if !e.dirty {
                e.dirty = true;
                e.dirty_since = now;
                e.dirty_app_bytes = 0;
            }
            e.last_write = now;
            e.dirty_app_bytes += bytes;
            true
        }

        fn clean(&mut self, key: BlockKey) -> Option<BlockEntry> {
            let e = self.entries.get_mut(&key).filter(|e| e.dirty)?;
            let before = e.clone();
            e.dirty = false;
            e.dirty_app_bytes = 0;
            Some(before)
        }

        fn remove(&mut self, key: BlockKey) -> Option<BlockEntry> {
            let e = self.entries.remove(&key)?;
            self.lru.retain(|&k| k != key);
            Some(e)
        }

        fn blocks_of(&self, file: FileId, dirty_only: bool) -> Vec<u64> {
            self.entries
                .iter()
                .filter(|(k, e)| k.file == file && (e.dirty || !dirty_only))
                .map(|(k, _)| k.index)
                .collect()
        }

        fn files_with_dirty_before(&self, cutoff: SimTime) -> Vec<FileId> {
            let mut v: Vec<FileId> = self
                .entries
                .iter()
                .filter(|(_, e)| e.dirty && e.dirty_since <= cutoff)
                .map(|(k, _)| k.file)
                .collect();
            v.dedup();
            v
        }

        fn oldest_dirty(&self) -> Option<(SimTime, BlockKey)> {
            self.entries
                .iter()
                .filter(|(_, e)| e.dirty)
                .map(|(&k, e)| (e.dirty_since, k))
                .min()
        }
    }

    fn same(a: Option<&BlockEntry>, b: Option<&BlockEntry>) -> bool {
        format!("{a:?}") == format!("{b:?}")
    }

    /// Compares every observable view of `c` with the model.
    fn check(c: &BlockCache, m: &Model, files: u64, now: SimTime, step: usize) {
        c.audit().unwrap_or_else(|e| panic!("step {step}: audit: {e}"));
        assert_eq!(c.len(), m.entries.len(), "step {step}: len");
        let dirty = m.entries.values().filter(|e| e.dirty).count();
        assert_eq!(c.dirty_len(), dirty, "step {step}: dirty_len");
        let mut lru = Vec::new();
        let mut i = c.slab.head;
        while i != NIL {
            lru.push(c.slab.slots[i as usize].key);
            i = c.slab.slots[i as usize].next;
        }
        assert_eq!(lru, m.lru, "step {step}: LRU order");
        for f in 0..files {
            let file = FileId(f);
            assert_eq!(c.blocks_of(file), m.blocks_of(file, false), "step {step}: blocks_of");
            assert_eq!(
                c.dirty_blocks_of(file),
                m.blocks_of(file, true),
                "step {step}: dirty_blocks_of"
            );
        }
        for back in [0, 1, 3, 10, 1 << 40] {
            let cutoff = SimTime::from_micros(now.as_micros().saturating_sub(back * 1_000_000));
            assert_eq!(
                c.files_with_dirty_before(cutoff),
                m.files_with_dirty_before(cutoff),
                "step {step}: files_with_dirty_before({cutoff})"
            );
        }
        assert_eq!(
            c.files_with_dirty_before(SimTime::MAX),
            m.files_with_dirty_before(SimTime::MAX),
            "step {step}: files_with_dirty_before(MAX)"
        );
        assert_eq!(c.oldest_dirty(), m.oldest_dirty(), "step {step}: oldest_dirty");
    }

    #[test]
    fn model_checked_against_naive_reference() {
        use sdfs_simkit::SimRng;
        const FILES: u64 = 4;
        for seed in 0..8u64 {
            let mut rng = SimRng::seed_from_u64(0xCAC4E ^ seed);
            let mut c = BlockCache::new();
            let mut m = Model::default();
            let mut now = SimTime::ZERO;
            let mut sparse_file = FileId(0);
            for step in 0..400 {
                // Time stands still often, so episodes and references tie.
                if rng.chance(0.4) {
                    now = SimTime::from_micros(now.as_micros() + rng.below(3) * 1_000_000);
                }
                let file = FileId(rng.below(FILES));
                if step % 200 == 0 {
                    sparse_file = file;
                }
                // Mostly a dense window; sometimes a sparse high block.
                // Every 200 steps a dirty block lands at 1 << 20 and is
                // removed again three steps later (scans of its slot
                // vector are slow in debug builds).
                let (file, index, op) = match step % 200 {
                    100 => (sparse_file, 1 << 20, 6),
                    103 => (sparse_file, 1 << 20, 8),
                    _ => match rng.below(50) {
                        0 => (file, (1 << 14) + rng.below(4), rng.below(12)),
                        _ => (file, rng.below(12), rng.below(12)),
                    },
                };
                let k = BlockKey { file, index };
                match op {
                    0..=2 => {
                        c.insert(k, now);
                        m.insert(k, now);
                    }
                    3 => assert_eq!(c.touch(k, now), m.touch(k, now), "step {step}"),
                    4 | 5 => {
                        let bytes = rng.range(1, 4097);
                        let hit = c.mark_dirty_if_present(k, now, bytes);
                        assert_eq!(hit, m.mark_dirty(k, now, bytes), "step {step}");
                    }
                    6 => {
                        // Insert and dirty at once, as a server accepts a
                        // write.
                        let bytes = rng.range(1, 4097);
                        c.insert(k, now);
                        c.mark_dirty(k, now, bytes);
                        m.insert(k, now);
                        m.mark_dirty(k, now, bytes);
                    }
                    7 => assert!(same(c.clean(k).as_ref(), m.clean(k).as_ref()), "step {step}"),
                    8 => assert!(same(c.remove(k).as_ref(), m.remove(k).as_ref()), "step {step}"),
                    9 => {
                        let got = c.pop_lru();
                        let want = m.lru.first().copied().map(|k| (k, m.remove(k).expect("in LRU")));
                        assert_eq!(got.as_ref().map(|g| g.0), want.as_ref().map(|w| w.0));
                        assert!(same(got.as_ref().map(|g| &g.1), want.as_ref().map(|w| &w.1)));
                    }
                    10 => {
                        // Flush the file, as the write-back daemon does.
                        for i in c.dirty_blocks_of(file) {
                            let k = BlockKey { file, index: i };
                            assert!(same(c.clean(k).as_ref(), m.clean(k).as_ref()), "step {step}");
                        }
                    }
                    _ => {
                        // Empty the file; later steps refill it.
                        for i in c.blocks_of(file) {
                            let k = BlockKey { file, index: i };
                            assert!(same(c.remove(k).as_ref(), m.remove(k).as_ref()));
                        }
                    }
                }
                check(&c, &m, FILES, now, step);
            }
            // Drain: pop order is LRU order, to the last block.
            while let Some((k, e)) = c.pop_lru() {
                let want = m.lru.remove(0);
                assert_eq!(k, want);
                assert!(same(Some(&e), m.entries.remove(&want).as_ref()));
            }
            assert!(m.lru.is_empty() && c.is_empty() && c.files.is_empty());
            assert_eq!(c.dirty_len(), 0);
            assert!(c.dirty.files.is_empty());
        }
    }
}
