//! The storage layer: persisting serialized mobile objects.
//!
//! The underlying facility is hidden behind [`StorageBackend`]; the paper
//! mentions regular files, block devices and databases — here we provide
//! two real file-backed stores ([`FileStore`] with one file per object,
//! [`SegmentStore`] as a segmented append-only log; both used by the
//! threaded runtime) and an in-memory store ([`MemStore`], used by tests
//! and by the discrete-event mode, which charges time through a
//! [`DiskModel`] instead of performing physical I/O).
//!
//! The spill log keeps the file system's page churn off the spill path.
//! A cleaning pass renames the segment files it retires to spares instead
//! of unlinking them, and spares beyond the footprint
//! `segment_garbage_frac` already allows are unlinked. A new segment
//! overwrites a spare rather than creating a file, so no page is
//! allocated, zeroed or freed for it. Every segment is written under a
//! spare name and renamed once complete, so a segment file is never torn.
//! [`StorageBackend::load_into`] reads into the caller's buffer; the
//! threaded I/O pool passes recycled ones, so a load maps no fresh
//! allocation either.
//!
//! Records land in append order, and a cleaning pass relocates the live
//! records it must move in key order.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fs;
use std::io::{self, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Report of one spill-log cleaning pass — including one that only
/// retired dead segments. The spill executor drains them through
/// [`StorageBackend::take_compaction_reports`] after every attempt, so
/// they stay bounded; the store's tests read them.
#[derive(Clone, Copy, Debug)]
pub struct CompactionReport {
    pub live_objects_before: usize,
    pub live_objects_after: usize,
    pub live_bytes_before: u64,
    pub live_bytes_after: u64,
    /// Dead bytes (records, headers, tombstones) reclaimed from the log.
    pub reclaimed_bytes: u64,
    /// Live records the pass relocated to the head of the log, in key
    /// order; 0 when every victim segment died whole.
    pub relocated: usize,
}

/// Where serialized mobile objects go when they are unloaded.
pub trait StorageBackend: Send {
    fn store(&mut self, key: u64, data: &[u8]) -> io::Result<()>;
    /// Store several records as one batch. The default stores them one by
    /// one; log-structured backends override this to coalesce the whole
    /// batch into a single append with one sync decision. On error the
    /// caller must treat the entire batch as failed (a prefix may have
    /// landed; retrying or reinstating every record is safe because each
    /// key's next store overwrites it).
    fn store_batch(&mut self, items: &[(u64, &[u8])]) -> io::Result<()> {
        for (key, data) in items {
            self.store(*key, data)?;
        }
        Ok(())
    }
    fn load(&mut self, key: u64) -> io::Result<Vec<u8>>;
    /// Load `key` into `buf`, replacing what it held: the bytes `load`
    /// returns, read into the caller's allocation where the backend can
    /// (the I/O pool passes recycled buffers). Default: `load`.
    fn load_into(&mut self, key: u64, buf: &mut Vec<u8>) -> io::Result<()> {
        *buf = self.load(key)?;
        Ok(())
    }
    fn remove(&mut self, key: u64) -> io::Result<()>;
    /// Total bytes currently stored (for reporting).
    fn bytes_stored(&self) -> u64;
    /// Number of stored objects.
    fn len(&self) -> usize;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Health check: can the backend accept writes right now? Degraded
    /// mode re-probes through this until space returns.
    fn probe(&mut self) -> io::Result<()> {
        Ok(())
    }
    /// Drain the reports of cleaning passes performed since the last call
    /// (log-structured stores only).
    fn take_compaction_reports(&mut self) -> Vec<CompactionReport> {
        Vec::new()
    }
    /// Drain the reports of injected faults since the last call
    /// ([`crate::fault::FaultyStore`] only).
    fn take_fault_reports(&mut self) -> Vec<crate::fault::FaultReport> {
        Vec::new()
    }
    /// Drain the `(loads, segment_switches)` counters of the sequential-
    /// read tracker (log-structured stores only): how many `load` calls
    /// were served since the last call, and how many of them had to leave
    /// the segment the previous load read from.
    fn take_read_stats(&mut self) -> (u64, u64) {
        (0, 0)
    }
}

/// In-memory backend (tests; virtual-time mode).
#[derive(Default)]
pub struct MemStore {
    map: HashMap<u64, Vec<u8>>,
    bytes: u64,
}

impl MemStore {
    pub fn new() -> Self {
        MemStore::default()
    }
}

impl StorageBackend for MemStore {
    fn store(&mut self, key: u64, data: &[u8]) -> io::Result<()> {
        if let Some(old) = self.map.insert(key, data.to_vec()) {
            self.bytes -= old.len() as u64;
        }
        self.bytes += data.len() as u64;
        Ok(())
    }

    fn load(&mut self, key: u64) -> io::Result<Vec<u8>> {
        self.map
            .get(&key)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no object {key}")))
    }

    fn remove(&mut self, key: u64) -> io::Result<()> {
        match self.map.remove(&key) {
            Some(old) => {
                self.bytes -= old.len() as u64;
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "remove: no key")),
        }
    }

    fn bytes_stored(&self) -> u64 {
        self.bytes
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// File-backed backend: one file per object under a spill directory.
/// Writes are buffered and flushed; the directory is created on demand and
/// cleaned up on drop.
pub struct FileStore {
    dir: PathBuf,
    sizes: HashMap<u64, u64>,
    /// Running total of stored bytes, kept in step with `sizes` so
    /// `bytes_stored` is O(1) instead of a sum over all objects.
    bytes: u64,
    cleanup_on_drop: bool,
}

impl FileStore {
    /// Open (creating) a spill directory.
    pub fn new(dir: PathBuf) -> io::Result<Self> {
        fs::create_dir_all(&dir)?;
        Ok(FileStore {
            dir,
            sizes: HashMap::new(),
            bytes: 0,
            cleanup_on_drop: true,
        })
    }

    /// A store in a fresh unique subdirectory of the system temp dir.
    pub fn new_temp(label: &str) -> io::Result<Self> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("mrts-spill-{label}-{}-{n}", std::process::id()));
        FileStore::new(dir)
    }

    fn path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("obj-{key:016x}.bin"))
    }

    pub fn dir(&self) -> &PathBuf {
        &self.dir
    }
}

impl StorageBackend for FileStore {
    fn store(&mut self, key: u64, data: &[u8]) -> io::Result<()> {
        let mut f = io::BufWriter::new(fs::File::create(self.path(key))?);
        f.write_all(data)?;
        f.flush()?;
        if let Some(old) = self.sizes.insert(key, data.len() as u64) {
            self.bytes -= old;
        }
        self.bytes += data.len() as u64;
        Ok(())
    }

    fn load(&mut self, key: u64) -> io::Result<Vec<u8>> {
        // Reject unknown keys eagerly: an absent size entry means the key
        // was never stored, and guessing a 4096-byte allocation would only
        // defer the miss to the (confusing) file-open error.
        let size = *self
            .sizes
            .get(&key)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no object {key}")))?;
        let mut f = io::BufReader::new(fs::File::open(self.path(key))?);
        let mut buf = Vec::with_capacity(size as usize);
        f.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn remove(&mut self, key: u64) -> io::Result<()> {
        if let Some(old) = self.sizes.remove(&key) {
            self.bytes -= old;
        }
        fs::remove_file(self.path(key))
    }

    fn bytes_stored(&self) -> u64 {
        self.bytes
    }

    fn len(&self) -> usize {
        self.sizes.len()
    }
}

impl Drop for FileStore {
    fn drop(&mut self) {
        if self.cleanup_on_drop {
            let _ = fs::remove_dir_all(&self.dir);
        }
    }
}

/// A record is `[key: u64 LE][payload len: u32 LE][payload]`; this length
/// value marks a tombstone (a remove, no payload follows).
const TOMBSTONE: u32 = u32::MAX;
const REC_HDR: usize = 12;
/// Open read handles a [`SegmentStore`] keeps (least recently read closed
/// first). A store outlives the run that filled it and may be read across
/// every segment it ever sealed; its descriptors must not follow.
const HANDLE_CACHE: usize = 16;

/// Write `parts` to `path` from offset 0, leaving a file exactly their
/// length: an existing file of `old_len` bytes is overwritten in place
/// (and cut if it was longer), otherwise a new one is created.
fn fill_file(path: &Path, old_len: Option<u64>, parts: &[&[u8]]) -> io::Result<()> {
    let mut f = match old_len {
        Some(_) => fs::OpenOptions::new().write(true).open(path)?,
        None => fs::File::create(path)?,
    };
    for part in parts {
        f.write_all(part)?;
    }
    let len: u64 = parts.iter().map(|p| p.len() as u64).sum();
    if old_len.is_some_and(|old| old > len) {
        f.set_len(len)?;
    }
    Ok(())
}

fn record_header(key: u64, len: u32) -> [u8; REC_HDR] {
    let mut h = [0u8; REC_HDR];
    h[..8].copy_from_slice(&key.to_le_bytes());
    h[8..].copy_from_slice(&len.to_le_bytes());
    h
}

/// Where a live record sits: `seg == active_id` means the in-memory
/// buffer, anything else a sealed `seg-*.log` file. `off` points at the
/// payload, past the record header.
#[derive(Clone, Copy, Debug)]
struct RecordLoc {
    seg: u64,
    off: usize,
    len: usize,
}

impl RecordLoc {
    /// Bytes the record occupies in its segment, header included.
    fn rec_bytes(&self) -> u64 {
        (REC_HDR + self.len) as u64
    }
}

/// Byte accounting of one segment, headers and tombstones included:
/// `total` is what the segment occupies (staged or on disk), `live` the
/// part of it that is current records.
#[derive(Debug, Default)]
struct SegmentMeta {
    live: u64,
    total: u64,
    /// Keys removed by a tombstone in this segment. Unlinking the segment
    /// while an older one survives would let a reopen resurrect an older
    /// record of such a key, so the cleaner re-appends the tombstone.
    tombstones: Vec<u64>,
}

/// Segmented append-only spill log.
///
/// Spills append records to an in-memory **active segment** that hits the
/// disk as a single write when it reaches `segment_bytes` — write
/// coalescing that replaces `FileStore`'s per-object
/// `create`/`open`/`remove` syscalls. A record of at least half a segment
/// skips that staging copy and is written straight from the caller's
/// slice as a segment of its own. Overwrites and removes leave dead bytes
/// behind; once they exceed `garbage_frac` of the log a **cleaning pass**
/// reclaims space one segment at a time: sealed segments with no live
/// record are retired outright, and only if that was not enough are the
/// live records of the emptiest segments moved to the log head, one
/// record in memory at a time.
///
/// **Reuse.** A retired segment file is renamed to a spare
/// (`free-<n>.log`) rather than unlinked, and after every store, batch
/// and remove the oldest spares are unlinked until the log and its
/// spares fit in `live / (1 − garbage_frac)` bytes, the footprint a pass
/// already allows. A new segment overwrites a spare from offset 0 (a
/// fresh file when none is left), so the file system neither allocates
/// nor frees pages for it.
///
/// **Publish rule.** Every segment is written under its spare name and
/// renamed to `seg-<id>.log` once complete, so a published segment is
/// never torn. Reopening a directory deletes leftover spares and replays
/// segments in id order — last record per key wins, tombstones delete,
/// and a torn tail (left by older versions) is ignored — so a crashed run
/// loses at most its unsealed active segment; a pass seals what it moved
/// before it retires anything, so a crash inside one loses nothing.
pub struct SegmentStore {
    dir: PathBuf,
    active: Vec<u8>,
    active_id: u64,
    index: HashMap<u64, RecordLoc>,
    segments: BTreeMap<u64, SegmentMeta>,
    /// Read handles of the sealed segments read most recently, oldest
    /// first: at most [`HANDLE_CACHE`], whatever the log's length or age.
    handles: Vec<(u64, fs::File)>,
    /// Bytes of current records, headers included.
    live_bytes: u64,
    /// All bytes in the log, staged or on disk: live records, dead ones,
    /// tombstones and torn tails.
    total_bytes: u64,
    segment_bytes: usize,
    garbage_frac: f64,
    cleanup_on_drop: bool,
    reports: Vec<CompactionReport>,
    /// Sequential-read tracker: loads served / segment switches since the
    /// last [`StorageBackend::take_read_stats`], and the segment the last
    /// load read from.
    reads: u64,
    read_switches: u64,
    last_read_seg: Option<u64>,
    /// Retired segment files kept for reuse: `(n, len)` of `free-<n>.log`,
    /// oldest first, `n` the id the file was retired under. A new segment
    /// takes the newest; trimming drops the oldest.
    spares: VecDeque<(u64, u64)>,
    spare_bytes: u64,
    /// Segment files created rather than reused.
    #[cfg(test)]
    files_created: u64,
    /// Crash injection: fail a cleaning pass right before it retires its
    /// victims.
    #[cfg(test)]
    abort_before_unlink: bool,
    /// Crash injection: fail a publish after the file is filled, before
    /// its rename to a segment name.
    #[cfg(test)]
    abort_before_rename: bool,
}

impl SegmentStore {
    /// Open (creating) a log directory, replaying any segments already in
    /// it. The directory is left on disk when the store drops; chain
    /// [`SegmentStore::cleanup_on_drop`] for a temporary store.
    pub fn open(dir: PathBuf, segment_bytes: usize, garbage_frac: f64) -> io::Result<Self> {
        fs::create_dir_all(&dir)?;
        let mut s = SegmentStore {
            dir,
            active: Vec::new(),
            active_id: 0,
            index: HashMap::new(),
            segments: BTreeMap::new(),
            handles: Vec::new(),
            live_bytes: 0,
            total_bytes: 0,
            segment_bytes: segment_bytes.max(1),
            garbage_frac: garbage_frac.clamp(f64::MIN_POSITIVE, 1.0),
            cleanup_on_drop: false,
            reports: Vec::new(),
            reads: 0,
            read_switches: 0,
            last_read_seg: None,
            spares: VecDeque::new(),
            spare_bytes: 0,
            #[cfg(test)]
            files_created: 0,
            #[cfg(test)]
            abort_before_unlink: false,
            #[cfg(test)]
            abort_before_rename: false,
        };
        s.replay()?;
        Ok(s)
    }

    /// A temporary store in a fresh unique subdirectory of the system
    /// temp dir, removed on drop.
    pub fn new_temp(label: &str, segment_bytes: usize, garbage_frac: f64) -> io::Result<Self> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("mrts-seglog-{label}-{}-{n}", std::process::id()));
        Ok(SegmentStore::open(dir, segment_bytes, garbage_frac)?.cleanup_on_drop(true))
    }

    pub fn cleanup_on_drop(mut self, yes: bool) -> Self {
        self.cleanup_on_drop = yes;
        self
    }

    pub fn dir(&self) -> &PathBuf {
        &self.dir
    }

    /// Number of sealed segment files currently on disk.
    pub fn sealed_segments(&self) -> usize {
        fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .filter(|e| Self::segment_id_of(&e.file_name()).is_some())
                    .count()
            })
            .unwrap_or(0)
    }

    /// Bytes in the log that are not current records — dead records with
    /// their headers, tombstones, torn tails — staged or on disk: what a
    /// cleaning pass can reclaim.
    pub fn garbage_bytes(&self) -> u64 {
        self.total_bytes - self.live_bytes
    }

    /// Bytes buffered in the active segment, not yet on disk.
    pub fn staged_bytes(&self) -> usize {
        self.active.len()
    }

    /// Bytes in spare files: retired segments kept for reuse, outside
    /// the log's own accounting.
    pub fn spare_bytes(&self) -> u64 {
        self.spare_bytes
    }

    /// The live keys currently in the log (unsorted). Checkpoint recovery
    /// uses this to enumerate the spilled objects a crashed run left
    /// behind.
    pub fn keys(&self) -> Vec<u64> {
        self.index.keys().copied().collect()
    }

    /// Seal the active segment to disk (one write syscall). Called on
    /// clean shutdown; an unsealed active segment is what a crash loses.
    pub fn sync(&mut self) -> io::Result<()> {
        self.roll()
    }

    fn segment_path(&self, seg: u64) -> PathBuf {
        self.dir.join(format!("seg-{seg:08}.log"))
    }

    fn spare_path(&self, n: u64) -> PathBuf {
        self.dir.join(format!("free-{n:08}.log"))
    }

    fn segment_id_of(name: &std::ffi::OsStr) -> Option<u64> {
        let name = name.to_str()?;
        name.strip_prefix("seg-")?
            .strip_suffix(".log")?
            .parse()
            .ok()
    }

    /// Parse one record header at `off`: `(key, payload len)`. `None`
    /// when fewer than [`REC_HDR`] bytes remain (a torn tail).
    fn parse_header(data: &[u8], off: usize) -> Option<(u64, u32)> {
        let key = u64::from_le_bytes(data.get(off..off + 8)?.try_into().ok()?);
        let len = u32::from_le_bytes(data.get(off + 8..off + 12)?.try_into().ok()?);
        Some((key, len))
    }

    /// Replay the on-disk segments in id order: last record per key wins,
    /// tombstones delete, a torn tail ends that segment's replay. Spares
    /// left by an earlier store are deleted: a crash may have left one
    /// filled but unpublished.
    fn replay(&mut self) -> io::Result<()> {
        let mut ids = Vec::new();
        for e in fs::read_dir(&self.dir)? {
            let e = e?;
            let name = e.file_name();
            if let Some(seg) = Self::segment_id_of(&name) {
                ids.push(seg);
            } else if name.to_str().is_some_and(|n| n.starts_with("free-")) {
                fs::remove_file(e.path())?;
            }
        }
        ids.sort_unstable();
        for &seg in &ids {
            let data = fs::read(self.segment_path(seg))?;
            let mut off = 0;
            while let Some((key, len)) = Self::parse_header(&data, off) {
                if len == TOMBSTONE {
                    self.index_tombstone(key, seg);
                    off += REC_HDR;
                    continue;
                }
                let len = len as usize;
                if off + REC_HDR + len > data.len() {
                    break; // torn record: ignore the tail
                }
                self.index_record(key, seg, off + REC_HDR, len);
                off += REC_HDR + len;
            }
            // The ignored tail still occupies the file; so does a segment
            // in which nothing parsed. Both are garbage a pass reclaims.
            let torn = (data.len() - off) as u64;
            self.segments.entry(seg).or_default().total += torn;
            self.total_bytes += torn;
        }
        self.active_id = ids.last().map_or(0, |last| last + 1);
        Ok(())
    }

    /// Mark any existing record for `key` dead.
    fn retire(&mut self, key: u64) {
        if let Some(loc) = self.index.get(&key) {
            if let Some(m) = self.segments.get_mut(&loc.seg) {
                m.live -= loc.rec_bytes();
            }
            self.live_bytes -= loc.rec_bytes();
        }
    }

    /// Account for a record of `key` that now sits in `seg` with its
    /// payload at `off`: it supersedes any earlier record of the key.
    fn index_record(&mut self, key: u64, seg: u64, off: usize, len: usize) {
        self.retire(key);
        let loc = RecordLoc { seg, off, len };
        let rec = loc.rec_bytes();
        self.index.insert(key, loc);
        let m = self.segments.entry(seg).or_default();
        m.live += rec;
        m.total += rec;
        self.live_bytes += rec;
        self.total_bytes += rec;
    }

    /// Account for a tombstone of `key` that now sits in `seg`.
    fn index_tombstone(&mut self, key: u64, seg: u64) {
        self.retire(key);
        self.index.remove(&key);
        let m = self.segments.entry(seg).or_default();
        m.total += REC_HDR as u64;
        m.tombstones.push(key);
        self.total_bytes += REC_HDR as u64;
    }

    /// Append one live record at the log head (no roll, no cleaning
    /// trigger — `store`, `store_batch` and the cleaner build on this).
    /// A record below half a segment is staged in the active buffer. A
    /// larger one would dominate its segment anyway: what is staged is
    /// sealed first, so segment ids stay in append order, and the record
    /// goes from `data` to a segment of its own without a staging copy.
    fn put(&mut self, key: u64, data: &[u8]) -> io::Result<()> {
        if data.len() as u64 >= TOMBSTONE as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "record exceeds segment format limit",
            ));
        }
        let header = record_header(key, data.len() as u32);
        if REC_HDR + data.len() >= self.segment_bytes / 2 {
            self.roll()?;
            self.publish(&[&header, data])?;
            self.index_record(key, self.active_id, REC_HDR, data.len());
            self.active_id += 1;
        } else {
            let off = self.active.len() + REC_HDR;
            self.active.extend_from_slice(&header);
            self.active.extend_from_slice(data);
            self.index_record(key, self.active_id, off, data.len());
        }
        Ok(())
    }

    /// Stage a tombstone for `key` at the log head.
    fn put_tombstone(&mut self, key: u64) {
        self.active
            .extend_from_slice(&record_header(key, TOMBSTONE));
        self.index_tombstone(key, self.active_id);
    }

    /// Seal the active buffer as `seg-<id>.log` with a single write.
    fn roll(&mut self) -> io::Result<()> {
        if self.active.is_empty() {
            return Ok(());
        }
        let active = std::mem::take(&mut self.active);
        let published = self.publish(&[&active]);
        self.active = active;
        published?;
        self.active.clear();
        self.active_id += 1;
        Ok(())
    }

    /// Write `parts` as segment `active_id`: into the newest spare,
    /// overwritten from offset 0 and cut to length (else a new file,
    /// `free-<active_id>.log`: spares carry retired ids, all below it),
    /// then renamed to its segment name. A file that fails before the
    /// rename is deleted; one left by a crash is deleted by the next
    /// `open`.
    fn publish(&mut self, parts: &[&[u8]]) -> io::Result<()> {
        let (n, old_len) = match self.spares.pop_back() {
            Some((n, len)) => {
                self.spare_bytes -= len;
                (n, Some(len))
            }
            None => {
                #[cfg(test)]
                {
                    self.files_created += 1;
                }
                (self.active_id, None)
            }
        };
        let path = self.spare_path(n);
        let filled = fill_file(&path, old_len, parts);
        #[cfg(test)]
        {
            if self.abort_before_rename {
                return Err(io::Error::other("publish aborted before rename"));
            }
        }
        let published = filled.and_then(|()| fs::rename(&path, self.segment_path(self.active_id)));
        if published.is_err() {
            let _ = fs::remove_file(&path);
        }
        published
    }

    /// Unlink the oldest spares until the log and its spares fit in the
    /// footprint a cleaning pass allows, `live / (1 − garbage_frac)`:
    /// after a pass has retired its victims, and whenever removes or
    /// smaller overwrites shrink the live bytes.
    fn trim_spares(&mut self) -> io::Result<()> {
        let footprint = self.live_bytes as f64 / (1.0 - self.garbage_frac);
        while (self.total_bytes + self.spare_bytes) as f64 > footprint {
            let Some(&(n, len)) = self.spares.front() else {
                break;
            };
            fs::remove_file(self.spare_path(n))?;
            self.spares.pop_front();
            self.spare_bytes -= len;
        }
        Ok(())
    }

    fn roll_if_full(&mut self) -> io::Result<()> {
        if self.active.len() >= self.segment_bytes {
            self.roll()?;
        }
        Ok(())
    }

    /// Read the payload at `loc` into `buf`, which must be `loc.len` long.
    fn read_at(&mut self, loc: RecordLoc, buf: &mut [u8]) -> io::Result<()> {
        if loc.seg == self.active_id {
            // Bounds-check instead of slicing: a corrupt index entry must
            // surface as an I/O error, not a panic in the spill path.
            let staged = self.active.get(loc.off..loc.off + loc.len).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    "record location outside the active segment",
                )
            })?;
            buf.copy_from_slice(staged);
            return Ok(());
        }
        let f = match self.handles.iter().position(|(seg, _)| *seg == loc.seg) {
            Some(i) => self.handles.remove(i).1,
            None => fs::File::open(self.segment_path(loc.seg))?,
        };
        f.read_exact_at(buf, loc.off as u64)?;
        if self.handles.len() == HANDLE_CACHE {
            self.handles.remove(0);
        }
        self.handles.push((loc.seg, f));
        Ok(())
    }

    fn over_trigger(&self, garbage: u64, total: u64) -> bool {
        garbage > 0 && garbage as f64 > self.garbage_frac * total as f64
    }

    /// One cleaning pass. Sealed segments without a live record are
    /// retired as they are. If the log is still over the trigger without
    /// them, the live records of the emptiest remaining segments move to
    /// the log head in `(rank, key)` order, through one buffer, until
    /// garbage is down to half the trigger. What moved is sealed before
    /// any old segment is retired (renamed to a spare), oldest first, so
    /// a reopen after a crash at any point replays the same contents.
    /// `maybe_clean` then trims the spares to the footprint.
    fn clean(&mut self) -> io::Result<()> {
        let objects = self.index.len();
        let live_before = self.bytes_stored();
        let garbage_before = self.garbage_bytes();
        let head = self.active_id;

        let (mut garbage, mut total) = (garbage_before, self.total_bytes);
        let mut victims = BTreeSet::new();
        let mut partial = Vec::new();
        for (&seg, m) in self.segments.range(..head) {
            if m.live == 0 {
                victims.insert(seg);
                garbage -= m.total;
                total -= m.total;
            } else if m.live < m.total {
                partial.push((m.live as f64 / m.total as f64, seg, m.total - m.live));
            }
        }
        let dead = victims.len();
        if self.over_trigger(garbage, total) {
            partial.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            for (_, seg, seg_garbage) in partial {
                if garbage as f64 <= 0.5 * self.garbage_frac * total as f64 {
                    break;
                }
                victims.insert(seg);
                garbage -= seg_garbage;
                total -= seg_garbage;
            }
        }
        if victims.is_empty() {
            return Ok(()); // all the garbage is still staged
        }

        let mut movers: Vec<u64> = Vec::new();
        if victims.len() > dead {
            movers.extend(
                self.index
                    .iter()
                    .filter(|(_, loc)| victims.contains(&loc.seg))
                    .map(|(key, _)| *key),
            );
            movers.sort_unstable();
        }
        let mut buf = Vec::new();
        for &key in &movers {
            let loc = self.index[&key];
            buf.resize(loc.len, 0);
            self.read_at(loc, &mut buf)?;
            self.put(key, &buf)?;
            self.roll_if_full()?;
        }

        // A tombstone leaves with its segment only when no older segment
        // survives in which a record of that key could still sit (or the
        // key has been stored again since); otherwise it moves too.
        let mut older_survives = false;
        let mut tombstones = Vec::new();
        for (seg, m) in self.segments.range(..head) {
            if !victims.contains(seg) {
                older_survives = true;
            } else if older_survives {
                tombstones.extend(
                    m.tombstones
                        .iter()
                        .filter(|k| !self.index.contains_key(k))
                        .copied(),
                );
            }
        }
        tombstones.sort_unstable();
        tombstones.dedup();
        for &key in &tombstones {
            self.put_tombstone(key);
        }
        if !movers.is_empty() || !tombstones.is_empty() {
            self.roll()?;
        }

        #[cfg(test)]
        {
            if self.abort_before_unlink {
                return Err(io::Error::other("cleaning pass aborted before unlink"));
            }
        }
        for seg in victims {
            fs::rename(self.segment_path(seg), self.spare_path(seg))?;
            self.spares.push_back((seg, self.segments[&seg].total));
            self.spare_bytes += self.segments[&seg].total;
            self.handles.retain(|(s, _)| *s != seg);
            let m = self
                .segments
                .remove(&seg)
                .expect("victims come from the segment table");
            debug_assert_eq!(m.live, 0, "a retired segment holds no live record");
            self.total_bytes -= m.total;
        }
        debug_assert_eq!(self.index.len(), objects);
        self.reports.push(CompactionReport {
            live_objects_before: objects,
            live_objects_after: self.index.len(),
            live_bytes_before: live_before,
            live_bytes_after: self.bytes_stored(),
            reclaimed_bytes: garbage_before - self.garbage_bytes(),
            relocated: movers.len(),
        });
        Ok(())
    }

    fn maybe_clean(&mut self) -> io::Result<()> {
        if self.over_trigger(self.garbage_bytes(), self.total_bytes) {
            self.clean()?;
        }
        self.trim_spares()
    }

    /// Resolve a demanded load and count it in the sequential-read
    /// tracker (the cleaner goes through `read_at` directly and must not
    /// pollute the locality metrics).
    fn demand(&mut self, key: u64) -> io::Result<RecordLoc> {
        let loc = *self
            .index
            .get(&key)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no object {key}")))?;
        self.reads += 1;
        if self.last_read_seg != Some(loc.seg) {
            if self.last_read_seg.is_some() {
                self.read_switches += 1;
            }
            self.last_read_seg = Some(loc.seg);
        }
        Ok(loc)
    }
}

impl StorageBackend for SegmentStore {
    fn store(&mut self, key: u64, data: &[u8]) -> io::Result<()> {
        self.put(key, data)?;
        self.roll_if_full()?;
        self.maybe_clean()
    }

    /// Batched eviction path: small records enter the active segment
    /// back-to-back with one cleaning check at the end — a multi-victim
    /// eviction of small objects costs one write syscall per segment it
    /// fills. The segment rolls as soon as it is full, so what is staged
    /// and what a sealed file holds stay within `segment_bytes` plus one
    /// record however large the batch. Each record keeps its own header,
    /// so per-object offsets land in the index exactly as with individual
    /// stores and replay is unchanged.
    fn store_batch(&mut self, items: &[(u64, &[u8])]) -> io::Result<()> {
        for (key, data) in items {
            self.put(*key, data)?;
            self.roll_if_full()?;
        }
        self.maybe_clean()
    }

    fn load(&mut self, key: u64) -> io::Result<Vec<u8>> {
        let loc = self.demand(key)?;
        let mut buf = vec![0u8; loc.len];
        self.read_at(loc, &mut buf)?;
        Ok(buf)
    }

    /// Fills `buf` in place: a recycled buffer's pages are already
    /// mapped, where `load` would fault in a fresh allocation. The read
    /// overwrites every byte, so only growth beyond `buf`'s old length
    /// is zeroed first.
    fn load_into(&mut self, key: u64, buf: &mut Vec<u8>) -> io::Result<()> {
        let loc = self.demand(key)?;
        buf.resize(loc.len, 0);
        self.read_at(loc, buf)
    }

    fn remove(&mut self, key: u64) -> io::Result<()> {
        if !self.index.contains_key(&key) {
            return Err(io::Error::new(io::ErrorKind::NotFound, "remove: no key"));
        }
        // A tombstone keeps a reopened directory from resurrecting any
        // earlier sealed record of this key.
        self.put_tombstone(key);
        self.roll_if_full()?;
        self.maybe_clean()
    }

    fn bytes_stored(&self) -> u64 {
        self.live_bytes - (REC_HDR * self.index.len()) as u64
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn take_compaction_reports(&mut self) -> Vec<CompactionReport> {
        std::mem::take(&mut self.reports)
    }

    fn take_read_stats(&mut self) -> (u64, u64) {
        let out = (self.reads, self.read_switches);
        self.reads = 0;
        self.read_switches = 0;
        out
    }
}

impl Drop for SegmentStore {
    fn drop(&mut self) {
        if self.cleanup_on_drop {
            let _ = fs::remove_dir_all(&self.dir);
        } else {
            // Clean shutdown persists the active segment; spares are
            // only ever of use to this store.
            let _ = self.roll();
            for (n, _) in std::mem::take(&mut self.spares) {
                let _ = fs::remove_file(self.spare_path(n));
            }
        }
    }
}

/// Performance model of the disk, used by the virtual-time mode to charge
/// I/O durations (the data itself round-trips through a [`MemStore`]).
#[derive(Clone, Copy, Debug)]
pub struct DiskModel {
    /// Fixed per-operation cost (seek + syscall).
    pub seek: Duration,
    /// Sustained bandwidth in bytes/second.
    pub bandwidth: f64,
}

impl DiskModel {
    /// A 2000s-era local disk: ~8 ms seek, ~60 MB/s sustained — in line
    /// with the SciClone/STEMS node-local disks of the paper's evaluation.
    pub fn cluster_disk() -> Self {
        DiskModel {
            seek: Duration::from_millis(8),
            bandwidth: 60e6,
        }
    }

    /// A faster disk for sensitivity studies.
    pub fn fast_ssd() -> Self {
        DiskModel {
            seek: Duration::from_micros(80),
            bandwidth: 500e6,
        }
    }

    /// Time to read or write `bytes`.
    pub fn op_time(&self, bytes: usize) -> Duration {
        self.seek + Duration::from_secs_f64(bytes as f64 / self.bandwidth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `load_into` returns what `load` does, also into a buffer that
    /// holds longer, older bytes.
    fn assert_load_into_agrees(store: &mut dyn StorageBackend, key: u64) {
        let want = store.load(key).unwrap();
        let mut buf = vec![0xEEu8; want.len() + 100];
        store.load_into(key, &mut buf).unwrap();
        assert_eq!(buf, want, "key {key}");
    }

    fn backend_contract(store: &mut dyn StorageBackend) {
        assert!(store.is_empty());
        store.store(1, b"hello").unwrap();
        store.store(2, &[7u8; 1000]).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.bytes_stored(), 1005);
        assert_eq!(store.load(1).unwrap(), b"hello");
        assert_eq!(store.load(2).unwrap(), vec![7u8; 1000]);
        assert_load_into_agrees(store, 1);
        assert_load_into_agrees(store, 2);
        // Overwrite.
        store.store(1, b"bye").unwrap();
        assert_eq!(store.load(1).unwrap(), b"bye");
        assert_load_into_agrees(store, 1);
        assert_eq!(store.len(), 2);
        // Remove.
        store.remove(1).unwrap();
        assert_eq!(store.len(), 1);
        assert!(store.load(1).is_err());
        assert!(store.load_into(1, &mut vec![1u8; 8]).is_err());
        assert!(store.remove(1).is_err());
        store.remove(2).unwrap();
        assert!(store.is_empty());
        assert!(store.load_into(2, &mut Vec::new()).is_err());
    }

    #[test]
    fn memstore_contract() {
        backend_contract(&mut MemStore::new());
    }

    #[test]
    fn filestore_contract() {
        let mut fs = FileStore::new_temp("contract").unwrap();
        backend_contract(&mut fs);
    }

    #[test]
    fn segmentstore_contract() {
        // Large segments: everything stays in the active buffer.
        let mut s = SegmentStore::new_temp("contract", 1 << 20, 0.95).unwrap();
        backend_contract(&mut s);
        // Tiny segments: every operation rolls a file.
        let mut s = SegmentStore::new_temp("contract-roll", 1, 0.95).unwrap();
        backend_contract(&mut s);
    }

    #[test]
    fn faultystore_contract() {
        use crate::fault::{FaultPlan, FaultyStore};
        let inner = SegmentStore::new_temp("contract-faulty", 1, 0.95).unwrap();
        backend_contract(&mut FaultyStore::new(Box::new(inner), FaultPlan::new(1)));
    }

    #[test]
    fn segmentstore_coalesces_writes() {
        let mut s = SegmentStore::new_temp("coalesce", 4096, 0.95).unwrap();
        for key in 0..64u64 {
            s.store(key, &[key as u8; 100]).unwrap();
        }
        // 64 stores of ~112 bytes coalesce into ~2 sealed segments, not 64
        // per-object files.
        let sealed = s.sealed_segments();
        assert!(
            (1..=3).contains(&sealed),
            "expected ~2 sealed segments, got {sealed}"
        );
        assert_eq!(s.len(), 64);
        for key in 0..64u64 {
            assert_eq!(s.load(key).unwrap(), vec![key as u8; 100]);
        }
    }

    #[test]
    fn store_batch_default_matches_individual_stores() {
        let mut s = MemStore::new();
        let items: Vec<(u64, &[u8])> = vec![(1, b"aa"), (2, b"bbbb"), (1, b"cc")];
        s.store_batch(&items).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.load(1).unwrap(), b"cc", "later batch entry wins");
        assert_eq!(s.load(2).unwrap(), b"bbbb");
    }

    #[test]
    fn segmentstore_batch_is_one_coalesced_append() {
        // Segment sized so eight 100-byte records fit exactly one segment:
        // the batch seals it with one write, as individual stores would.
        let mut s = SegmentStore::new_temp("batch", 8 * 112, 0.95).unwrap();
        let payloads: Vec<Vec<u8>> = (0..8u64).map(|k| vec![k as u8; 100]).collect();
        let items: Vec<(u64, &[u8])> = payloads
            .iter()
            .enumerate()
            .map(|(k, p)| (k as u64, p.as_slice()))
            .collect();
        s.store_batch(&items).unwrap();
        assert_eq!(s.sealed_segments(), 1, "eight records fill one segment");
        assert_eq!(s.len(), 8);
        // Per-object offsets were recorded: every record reads back.
        for (k, p) in &items {
            assert_eq!(&s.load(*k).unwrap(), p);
        }
        // Batches interleave with overwrites and survive replay.
        let update: Vec<(u64, &[u8])> = vec![(3, b"updated"), (9, b"new")];
        s.store_batch(&update).unwrap();
        s.sync().unwrap();
        assert_eq!(s.load(3).unwrap(), b"updated");
        assert_eq!(s.load(9).unwrap(), b"new");
        assert_eq!(s.len(), 9);
    }

    #[test]
    fn segmentstore_batch_rolls_every_segment() {
        // A batch sixteen segments long: staged records (a quarter of a
        // segment each) must seal a file whenever the segment fills, not
        // once at the end of the batch.
        const SEG: usize = 4096;
        let mut s = SegmentStore::new_temp("batch-roll", SEG, 0.95).unwrap();
        let payloads: Vec<Vec<u8>> = (0..64u64).map(|k| vec![k as u8; SEG / 4]).collect();
        let items: Vec<(u64, &[u8])> = payloads
            .iter()
            .enumerate()
            .map(|(k, p)| (k as u64, p.as_slice()))
            .collect();
        s.store_batch(&items).unwrap();
        let limit = (SEG + REC_HDR + SEG / 4) as u64;
        assert!(s.staged_bytes() as u64 <= limit);
        assert!(s.sealed_segments() >= 12, "{} files", s.sealed_segments());
        for e in fs::read_dir(&s.dir).unwrap() {
            let e = e.unwrap();
            let len = e.metadata().unwrap().len();
            assert!(len <= limit, "{:?} holds {len} bytes", e.file_name());
        }
        for (k, p) in &items {
            assert_eq!(&s.load(*k).unwrap(), p);
        }
    }

    #[test]
    fn segmentstore_handle_cache_is_bounded() {
        // One record per sealed segment (each is over half a segment and
        // becomes a file of its own), read back twice in two orders.
        let mut s = SegmentStore::new_temp("handles", 64, 0.95).unwrap();
        for key in 0..200u64 {
            s.store(key, &[key as u8; 64]).unwrap();
        }
        assert_eq!(s.sealed_segments(), 200);
        for key in (0..200u64).chain((0..200).rev()) {
            assert_eq!(s.load(key).unwrap(), vec![key as u8; 64]);
            assert!(s.handles.len() <= HANDLE_CACHE, "{} open", s.handles.len());
        }
        assert_eq!(s.handles.len(), HANDLE_CACHE);
    }

    /// Bytes in sealed segment files.
    fn disk_bytes(s: &SegmentStore) -> u64 {
        fs::read_dir(&s.dir)
            .unwrap()
            .map(|e| e.unwrap().metadata().unwrap().len())
            .sum()
    }

    /// Key of every live record in the sealed files, in log order.
    fn live_log_order(s: &SegmentStore) -> Vec<u64> {
        let mut out = Vec::new();
        for &seg in s.segments.keys() {
            let Ok(data) = fs::read(s.segment_path(seg)) else {
                continue; // the active segment has no file
            };
            let mut off = 0;
            while let Some((key, len)) = SegmentStore::parse_header(&data, off) {
                off += REC_HDR;
                if len != TOMBSTONE {
                    if s.index
                        .get(&key)
                        .is_some_and(|l| l.seg == seg && l.off == off)
                    {
                        out.push(key);
                    }
                    off += len as usize;
                }
            }
        }
        out
    }

    /// A fresh directory that outlives the store (reopen tests).
    fn fresh_dir(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mrts-seglog-{label}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn contents(s: &mut SegmentStore) -> BTreeMap<u64, Vec<u8>> {
        let mut keys = s.keys();
        keys.sort_unstable();
        keys.into_iter().map(|k| (k, s.load(k).unwrap())).collect()
    }

    #[test]
    fn segmentstore_compaction_preserves_live_reclaims_garbage() {
        let mut s = SegmentStore::new_temp("compact", 512, 0.5).unwrap();
        // Churn: overwrite the same keys repeatedly so dead records pile
        // up and cross the 50% garbage threshold many times over.
        for round in 0..20u64 {
            for key in 0..8u64 {
                s.store(key, &[(round * 8 + key) as u8; 64]).unwrap();
                // The space bound `segment_garbage_frac` buys: the files
                // never hold more than live / (1 - frac) plus one segment
                // (a full one: `segment_bytes` and the record that
                // crossed it).
                let bound = 2 * s.live_bytes + 512 + 64 + REC_HDR as u64;
                assert!(
                    disk_bytes(&s) <= bound,
                    "{} bytes on disk, bound {bound}",
                    disk_bytes(&s)
                );
            }
        }
        let reports = s.take_compaction_reports();
        assert!(!reports.is_empty(), "churn must have triggered cleaning");
        for r in &reports {
            assert_eq!(r.live_objects_before, r.live_objects_after);
            assert_eq!(r.live_bytes_before, r.live_bytes_after);
            assert!(r.reclaimed_bytes > 0);
        }
        // Every live object survived with its latest contents.
        assert_eq!(s.len(), 8);
        assert_eq!(s.bytes_stored(), 8 * 64);
        for key in 0..8u64 {
            assert_eq!(s.load(key).unwrap(), vec![(19 * 8 + key) as u8; 64]);
        }
        // Garbage actually came back: the log holds little beyond live.
        assert!(s.garbage_bytes() <= s.bytes_stored());
    }

    #[test]
    fn segmentstore_dead_segments_are_unlinked_without_copying() {
        // Rewriting objects in the order they were written kills whole
        // segments: the pass has nothing to move.
        let mut s = SegmentStore::new_temp("dead", 4 * (64 + REC_HDR), 0.5).unwrap();
        for round in 0..6u64 {
            for key in 0..16u64 {
                s.store(key, &[(round * 16 + key) as u8; 64]).unwrap();
            }
        }
        let reports = s.take_compaction_reports();
        assert!(!reports.is_empty());
        for r in &reports {
            assert_eq!(r.relocated, 0, "no record was relocated");
            assert!(r.reclaimed_bytes > 0);
            assert_eq!(r.live_bytes_after, 16 * 64);
        }
        for key in 0..16u64 {
            assert_eq!(s.load(key).unwrap(), vec![(5 * 16 + key) as u8; 64]);
        }
    }

    #[test]
    fn segmentstore_pass_relocates_in_key_order() {
        // Segments hold four 64-byte records; 16 keys fill four of them,
        // written in descending key order so append order is not key order.
        let mut s = SegmentStore::new_temp("order", 4 * (64 + REC_HDR), 0.3).unwrap();
        for key in (0..16u64).rev() {
            s.store(key, &[key as u8; 64]).unwrap();
        }
        // Kill the first half of each old segment. No segment dies whole,
        // and the seventh overwrite takes garbage to 7 of 23 records, over
        // the 30 % trigger: the pass must move records. Emptiest first, it
        // takes the three half-dead segments (garbage falls to 1 of 17,
        // under half the trigger) and leaves the fourth alone.
        let overwritten = [15u64, 14, 11, 10, 7, 6, 3];
        for key in overwritten {
            assert!(s.take_compaction_reports().is_empty());
            s.store(key, &[(16 + key) as u8; 64]).unwrap();
        }
        let reports = s.take_compaction_reports();
        assert_eq!(reports.len(), 1, "exactly one pass");
        assert_eq!(reports[0].relocated, 6, "the live half of three segments");
        assert_eq!(reports[0].reclaimed_bytes, 6 * (64 + REC_HDR) as u64);
        let relocated = [13u64, 12, 9, 8, 5, 4];
        let order: Vec<u64> = live_log_order(&s)
            .into_iter()
            .filter(|key| relocated.contains(key))
            .collect();
        assert_eq!(order, [4, 5, 8, 9, 12, 13], "key order at the head");
        for key in 0..16u64 {
            let fill = if overwritten.contains(&key) {
                16 + key
            } else {
                key
            };
            assert_eq!(s.load(key).unwrap(), vec![fill as u8; 64]);
        }
    }

    #[test]
    fn segmentstore_large_records_skip_staging_and_keep_append_order() {
        let dir = fresh_dir("direct");
        {
            let mut s = SegmentStore::open(dir.clone(), 1024, 0.95).unwrap();
            s.store(1, &[1u8; 100]).unwrap();
            assert_eq!(s.staged_bytes(), 100 + REC_HDR);
            // Half a segment or more: what is staged is sealed first, then
            // the record becomes a segment of its own.
            s.store(1, &[2u8; 512 - REC_HDR]).unwrap();
            assert_eq!(s.staged_bytes(), 0);
            assert_eq!(s.sealed_segments(), 2);
            assert_eq!(s.load(1).unwrap(), vec![2u8; 512 - REC_HDR]);
            // One byte less is staged again.
            s.store(2, &[3u8; 511 - REC_HDR]).unwrap();
            assert_eq!(s.staged_bytes(), 511);
            // Inside a batch too; the last record of a key still wins.
            let big = vec![4u8; 4000];
            let items: Vec<(u64, &[u8])> = vec![(3, b"small"), (1, &big), (3, b"later"), (4, &big)];
            s.store_batch(&items).unwrap();
            assert_eq!(s.len(), 4);
            assert_eq!(s.bytes_stored(), (8000 + 511 - REC_HDR + 5) as u64);
        }
        // Ids followed append order across staged and direct records, so
        // replay resolves every key to its last store.
        let mut s = SegmentStore::open(dir.clone(), 1024, 0.95).unwrap();
        assert_eq!(s.load(1).unwrap(), vec![4u8; 4000]);
        assert_eq!(s.load(2).unwrap(), vec![3u8; 511 - REC_HDR]);
        assert_eq!(s.load(3).unwrap(), b"later");
        assert_eq!(s.load(4).unwrap(), vec![4u8; 4000]);
        assert_eq!(s.garbage_bytes() + s.live_bytes, disk_bytes(&s));
        drop(s);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segmentstore_removed_key_stays_removed_across_passes() {
        let dir = fresh_dir("tombstone");
        let mut s = SegmentStore::open(dir.clone(), 512, 0.5).unwrap();
        // Keys 200.. are never touched again: their segment (seven
        // records seal it) survives every pass and still holds the dead
        // record of key 100.
        s.store(100, &[1u8; 64]).unwrap();
        for key in 200..206u64 {
            s.store(key, &[2u8; 64]).unwrap();
        }
        assert_eq!(s.staged_bytes(), 0);
        // A tombstone-only segment, and one among live records.
        s.remove(100).unwrap();
        s.sync().unwrap();
        s.store(101, &[3u8; 64]).unwrap();
        s.remove(101).unwrap();
        let tombstone_segments: Vec<u64> = s
            .segments
            .iter()
            .filter(|(_, m)| !m.tombstones.is_empty())
            .map(|(seg, _)| *seg)
            .collect();
        assert_eq!(tombstone_segments.len(), 2);
        for round in 0..20u64 {
            for key in 0..8u64 {
                s.store(key, &[(round * 8 + key) as u8; 64]).unwrap();
            }
        }
        assert!(!s.take_compaction_reports().is_empty());
        for seg in tombstone_segments {
            assert!(
                !s.segments.contains_key(&seg),
                "segment {seg} should have been cleaned away"
            );
        }
        assert!(
            s.segments.contains_key(&0),
            "keys 200.. keep segment 0 alive"
        );
        let before = contents(&mut s);
        drop(s);
        let mut s = SegmentStore::open(dir.clone(), 512, 0.5).unwrap();
        assert!(s.load(100).is_err(), "the tombstone moved with the pass");
        assert!(s.load(101).is_err());
        assert_eq!(contents(&mut s), before);
        drop(s);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segmentstore_crash_before_unlink_loses_nothing() {
        let dir = fresh_dir("crash");
        let mut s = SegmentStore::open(dir.clone(), 4 * (64 + REC_HDR), 0.3).unwrap();
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for key in 0..16u64 {
            s.store(key, &[key as u8; 64]).unwrap();
            model.insert(key, vec![key as u8; 64]);
        }
        // A removed key whose dead record sits in the oldest segment: that
        // segment survives the pass below, so the tombstone has to.
        s.remove(3).unwrap();
        model.remove(&3);
        s.abort_before_unlink = true;
        let mut aborted = false;
        for key in [4u64, 5, 8, 9, 12, 13, 6, 10] {
            model.insert(key, vec![(16 + key) as u8; 64]);
            if s.store(key, &[(16 + key) as u8; 64]).is_err() {
                aborted = true;
                break;
            }
        }
        assert!(aborted, "a pass must have reached its unlink step");
        assert_eq!(s.staged_bytes(), 0, "what moved is sealed by then");
        // The crash: nothing further reaches the directory.
        std::mem::forget(s);
        let mut s = SegmentStore::open(dir.clone(), 4 * (64 + REC_HDR), 0.3).unwrap();
        assert_eq!(contents(&mut s), model);
        assert_eq!(s.garbage_bytes() + s.live_bytes, disk_bytes(&s));
        // The reopened log cleans up what the crashed pass left behind.
        for key in 0..16u64 {
            s.store(key, &[(32 + key) as u8; 64]).unwrap();
            model.insert(key, vec![(32 + key) as u8; 64]);
        }
        assert!(!s.take_compaction_reports().is_empty());
        assert_eq!(contents(&mut s), model);
        drop(s);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Whether every record of a segment file parses, up to its last byte.
    fn parses_to_end(data: &[u8]) -> bool {
        let mut off = 0;
        while let Some((_, len)) = SegmentStore::parse_header(data, off) {
            off += REC_HDR;
            if len != TOMBSTONE {
                off += len as usize;
            }
        }
        off == data.len()
    }

    /// Only segment files in `dir`, each of which parses to its end.
    fn assert_only_whole_segments(dir: &Path) {
        for e in fs::read_dir(dir).unwrap() {
            let e = e.unwrap();
            let name = e.file_name();
            assert!(
                SegmentStore::segment_id_of(&name).is_some(),
                "stray file {name:?}"
            );
            assert!(parses_to_end(&fs::read(e.path()).unwrap()), "{name:?}");
        }
    }

    #[test]
    fn segmentstore_reuses_retired_files_within_the_footprint() {
        const SEG: usize = 4 * (64 + REC_HDR);
        let dir = fresh_dir("reuse");
        let mut s = SegmentStore::open(dir.clone(), SEG, 0.5).unwrap();
        let footprint_holds = |s: &SegmentStore| {
            s.spare_bytes == 0 || (s.total_bytes + s.spare_bytes) <= 2 * s.live_bytes
        };
        // Rewriting in write order kills whole segments: every pass
        // retires files, and later segments are written into them.
        let mut most_spares = 0;
        for round in 0..40u64 {
            for key in 0..16u64 {
                s.store(key, &[(round + key) as u8; 64]).unwrap();
                most_spares = most_spares.max(s.spares.len());
                assert!(footprint_holds(&s), "round {round} key {key}");
                assert_eq!(
                    disk_bytes(&s),
                    s.total_bytes - s.staged_bytes() as u64 + s.spare_bytes
                );
            }
        }
        assert!(most_spares > 1, "{most_spares} spares at most");
        assert!(
            s.files_created < s.active_id / 2,
            "{} files for {} segments",
            s.files_created,
            s.active_id
        );
        // A clean shutdown takes the spares with it.
        for i in 0..64u64 {
            if !s.spares.is_empty() {
                break;
            }
            s.store(i % 16, &[(40 + i) as u8; 64]).unwrap();
        }
        assert!(!s.spares.is_empty());
        let before = contents(&mut s);
        drop(s);
        assert_only_whole_segments(&dir);
        let mut s = SegmentStore::open(dir.clone(), SEG, 0.5).unwrap();
        assert_eq!(contents(&mut s), before);
        // Removes shrink the live set, and the spares with it.
        for key in 0..16u64 {
            s.store(key, &[key as u8; 64]).unwrap();
        }
        assert!(!s.spares.is_empty());
        for key in 0..12u64 {
            s.remove(key).unwrap();
            assert!(footprint_holds(&s), "remove {key}");
        }
        for key in 12..16u64 {
            assert_eq!(s.load(key).unwrap(), vec![key as u8; 64]);
        }
        drop(s);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segmentstore_crash_before_publish_keeps_previous_contents() {
        const SEG: usize = 4 * (64 + REC_HDR);
        let dir = fresh_dir("publish-crash");
        let mut s = SegmentStore::open(dir.clone(), SEG, 0.5).unwrap();
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        // Rewrite in write order up to the first pass: it retires whole
        // segments, all but the first into spares.
        for i in 0u64.. {
            s.store(i % 16, &[i as u8; 64]).unwrap();
            model.insert(i % 16, vec![i as u8; 64]);
            if !s.take_compaction_reports().is_empty() {
                break;
            }
        }
        s.sync().unwrap();
        let spares = s.spares.len();
        assert!(spares > 0, "a pass kept a retired file for reuse");
        // A direct record fills the newest spare; the crash comes before
        // its rename.
        s.abort_before_rename = true;
        assert!(s.store(99, &[9u8; SEG]).is_err());
        assert_eq!(s.spares.len(), spares - 1, "the spare was taken");
        assert_eq!(
            fs::read_dir(&dir).unwrap().count(),
            s.sealed_segments() + spares,
            "the filled file is left behind"
        );
        std::mem::forget(s);
        let mut s = SegmentStore::open(dir.clone(), SEG, 0.5).unwrap();
        assert_eq!(contents(&mut s), model);
        assert_eq!(s.spare_bytes(), 0);
        assert_only_whole_segments(&dir);
        assert_eq!(s.garbage_bytes() + s.live_bytes, disk_bytes(&s));
        drop(s);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segmentstore_opens_clean_over_stray_spares() {
        let dir = fresh_dir("stray");
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        {
            let mut s = SegmentStore::open(dir.clone(), 256, 0.5).unwrap();
            for key in 0..10u64 {
                s.store(key, &[key as u8; 50]).unwrap();
                model.insert(key, vec![key as u8; 50]);
            }
        }
        // Spares a crashed store left: one under the name the reopened
        // store's first new file takes (two segments hold the ten
        // records), one under a retired id, an empty one.
        fs::write(dir.join("free-00000002.log"), [0xAAu8; 700]).unwrap();
        fs::write(dir.join("free-00000001.log"), record_header(3, 50)).unwrap();
        fs::write(dir.join("free-00000009.log"), []).unwrap();
        let mut s = SegmentStore::open(dir.clone(), 256, 0.5).unwrap();
        assert_eq!(s.active_id, 2);
        assert_only_whole_segments(&dir);
        assert_eq!(s.spare_bytes(), 0);
        assert_eq!(contents(&mut s), model);
        assert_eq!(s.garbage_bytes() + s.live_bytes, disk_bytes(&s));
        // New segments publish through the same names.
        for key in 0..10u64 {
            s.store(key, &[(key + 1) as u8; 200]).unwrap();
            model.insert(key, vec![(key + 1) as u8; 200]);
        }
        drop(s);
        assert_only_whole_segments(&dir);
        let mut s = SegmentStore::open(dir.clone(), 256, 0.5).unwrap();
        assert_eq!(contents(&mut s), model);
        drop(s);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segmentstore_load_into_matches_load_wherever_a_record_sits() {
        const SEG: usize = 4 * (64 + REC_HDR);
        let dir = fresh_dir("load-into");
        let mut s = SegmentStore::open(dir.clone(), SEG, 0.3).unwrap();
        for key in 0..16u64 {
            s.store(key, &[key as u8; 64]).unwrap();
        }
        let before: HashMap<u64, u64> = s.index.iter().map(|(k, l)| (*k, l.seg)).collect();
        // The overwrites of the rank test: one pass moves six records.
        for key in [0u64, 1, 4, 5, 8, 9, 12] {
            s.store(key, &[(16 + key) as u8; 64]).unwrap();
        }
        assert_eq!(s.take_compaction_reports().len(), 1);
        s.store(16, &[16u8; 64]).unwrap();
        let staged = s.index.values().filter(|l| l.seg == s.active_id).count();
        let moved = (0..16u64)
            .filter(|k| ![0, 1, 4, 5, 8, 9, 12].contains(k) && s.index[k].seg != before[k])
            .count();
        let sealed_in_place = (0..16u64).filter(|k| s.index[k].seg == before[k]).count();
        assert!(staged > 0 && moved > 0 && sealed_in_place > 0);
        for key in 0..17u64 {
            assert_load_into_agrees(&mut s, key);
        }
        drop(s);
        let mut s = SegmentStore::open(dir.clone(), SEG, 0.3).unwrap();
        for key in 0..17u64 {
            assert_load_into_agrees(&mut s, key);
        }
        // A record cut short on disk is an error, never a panic.
        let loc = s.index[&13];
        let f = fs::OpenOptions::new()
            .write(true)
            .open(s.segment_path(loc.seg))
            .unwrap();
        f.set_len((loc.off + loc.len / 2) as u64).unwrap();
        let mut buf = vec![1u8; 4];
        assert!(s.load_into(13, &mut buf).is_err());
        assert!(s.load(13).is_err());
        drop(s);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segmentstore_read_stats_drain_and_reset() {
        let mut s = SegmentStore::new_temp("readstats", 1 << 20, 0.95).unwrap();
        assert_eq!(s.take_read_stats(), (0, 0));
        s.store(1, b"aa").unwrap();
        s.store(2, b"bb").unwrap();
        s.load(1).unwrap();
        s.load(2).unwrap();
        let (reads, switches) = s.take_read_stats();
        assert_eq!(reads, 2);
        assert_eq!(switches, 0, "both records live in the active segment");
        assert_eq!(s.take_read_stats(), (0, 0), "drain resets");
    }

    #[test]
    fn segmentstore_reopen_replays_log() {
        let dir = std::env::temp_dir().join(format!("mrts-seglog-reopen-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let mut s = SegmentStore::open(dir.clone(), 256, 0.95).unwrap();
            for key in 0..10u64 {
                s.store(key, &[key as u8; 50]).unwrap();
            }
            s.store(3, b"updated").unwrap();
            s.remove(7).unwrap();
            // Drop seals the active segment (clean shutdown).
        }
        let mut s = SegmentStore::open(dir.clone(), 256, 0.95).unwrap();
        assert_eq!(s.len(), 9);
        assert_eq!(s.load(3).unwrap(), b"updated");
        assert!(s.load(7).is_err(), "tombstone must survive reopen");
        for key in (0..10u64).filter(|&k| k != 3 && k != 7) {
            assert_eq!(s.load(key).unwrap(), vec![key as u8; 50]);
        }
        drop(s);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segmentstore_reopen_tolerates_torn_tail() {
        let dir = std::env::temp_dir().join(format!("mrts-seglog-torn-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let mut s = SegmentStore::open(dir.clone(), 128, 0.95).unwrap();
            for key in 0..6u64 {
                s.store(key, &[key as u8; 40]).unwrap();
            }
        }
        // Simulate a crash mid-append: the highest segment gets a valid
        // header claiming 100 payload bytes but only 5 on disk, plus a
        // few bytes of torn header after that.
        let last = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .max()
            .unwrap();
        let mut f = fs::OpenOptions::new().append(true).open(&last).unwrap();
        f.write_all(&99u64.to_le_bytes()).unwrap();
        f.write_all(&100u32.to_le_bytes()).unwrap();
        f.write_all(&[1, 2, 3, 4, 5]).unwrap();
        drop(f);
        let mut s = SegmentStore::open(dir.clone(), 128, 0.95).unwrap();
        assert_eq!(s.len(), 6, "full records before the tear must survive");
        for key in 0..6u64 {
            assert_eq!(s.load(key).unwrap(), vec![key as u8; 40]);
        }
        assert!(s.load(99).is_err(), "the torn record must not replay");
        drop(s);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segmentstore_cleans_up_directory() {
        let dir;
        {
            let mut s = SegmentStore::new_temp("cleanup", 64, 0.95).unwrap();
            s.store(1, &[0u8; 200]).unwrap();
            dir = s.dir().clone();
            assert!(dir.exists());
        }
        assert!(!dir.exists(), "spill dir must be removed on drop");
    }

    #[test]
    fn filestore_cleans_up_directory() {
        let dir;
        {
            let mut fs = FileStore::new_temp("cleanup").unwrap();
            fs.store(1, b"x").unwrap();
            dir = fs.dir().clone();
            assert!(dir.exists());
        }
        assert!(!dir.exists(), "spill dir must be removed on drop");
    }

    #[test]
    fn filestore_data_really_hits_disk() {
        let mut fs = FileStore::new_temp("ondisk").unwrap();
        let payload: Vec<u8> = (0..100_000u32).flat_map(|i| i.to_le_bytes()).collect();
        fs.store(42, &payload).unwrap();
        // The file exists with the right size.
        let path = fs.dir().join(format!("obj-{:016x}.bin", 42));
        assert_eq!(
            std::fs::metadata(&path).unwrap().len() as usize,
            payload.len()
        );
        assert_eq!(fs.load(42).unwrap(), payload);
    }

    #[test]
    fn disk_model_charges_seek_plus_transfer() {
        let d = DiskModel {
            seek: Duration::from_millis(10),
            bandwidth: 1e6,
        };
        let t = d.op_time(500_000);
        assert!((t.as_secs_f64() - 0.51).abs() < 1e-9);
        // Zero bytes still pays the seek.
        assert_eq!(d.op_time(0), Duration::from_millis(10));
        assert!(
            DiskModel::fast_ssd().op_time(1 << 20) < DiskModel::cluster_disk().op_time(1 << 20)
        );
    }
}
