//! File-mmap'd NVM backing for real-process crash experiments.
//!
//! Everything else in this crate simulates persistence *inside one process*:
//! [`SimMemory::crash`](crate::SimMemory::crash) decides what survives, so
//! the harness is grading its own crash model. This module moves the NVM
//! half of the model into a file shared between processes, so a `SIGKILL`
//! delivered by a *different* process decides what survives:
//!
//! * [`MappedFile`] — a fixed-size file mapped `MAP_SHARED` into the
//!   address space, exposed as a header plus an array of [`AtomicU64`]
//!   words. Because the mapping is shared, every committed store is visible
//!   to (and survives into) the parent process the instant it retires,
//!   regardless of when the child dies; `msync` only adds power-failure
//!   durability on top.
//! * [`MappedMemory`] — a [`Memory`] implementation over a [`MappedFile`]
//!   that honors the existing [`CacheMode`](crate::CacheMode) / [`CrashPolicy`] semantics
//!   *prospectively*: a SIGKILL cannot run crash code, so the decision the
//!   simulator makes **at** a crash (which dirty cells write back) is made
//!   **ahead of time** as a per-cell write-through discipline. In the
//!   shared-cache model, cached words live in a second mapped file, the
//!   overlay, which every process of the system maps, so processes see each
//!   other's unpersisted writes as they would through one shared cache.
//!   The crash-declaring process [`wipe`](MappedFile::wipe)s the overlay:
//!   a shared-cache crash is system-wide, and the wipe is its loss of the
//!   cache. Persisted words are committed (store + `msync`) at exactly the
//!   points [`SimMemory`](crate::SimMemory) would commit them.
//!
//! The `unsafe` needed for the `mmap` FFI is confined to the private [`sys`]
//! module; the rest of the crate keeps denying unsafe code.

use std::fmt;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::layout::{Layout, Loc};
use crate::memory::{CrashPolicy, Memory};
use crate::word::{Pid, Word};

/// Magic word identifying a mapped NVM file (first header word).
pub const MAPPED_MAGIC: u64 = 0x4E56_4D4D_4150_0001; // "NVMMAP" + format 1
/// Mapped-file format version (second header word). Version 2 grew the
/// header from 8 to 16 words so the crash fabric's cross-process barrier
/// protocol fits in the [`MappedFile::user`] area (one release word plus
/// one arrival word per worker process) alongside the log sequence counter.
pub const MAPPED_VERSION: u64 = 2;
/// Header words preceding the data array: magic, version, word count,
/// crash count, then [`MappedFile::USER_SLOTS`] free slots for harness use
/// (the process-crash log keeps its global sequence counter and the
/// multi-process barrier words there).
pub const HEADER_WORDS: usize = 16;

/// The raw `mmap`/`munmap`/`msync` bindings. This is the only unsafe code
/// in the crate: it maps a regular file `MAP_SHARED` (or anonymous memory
/// `MAP_PRIVATE`), hands out `&AtomicU64` views into the (page-aligned,
/// `u64`-aligned) mapping, and unmaps on drop. No other module can name
/// these symbols.
#[allow(unsafe_code)]
mod sys {
    use std::io;

    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const MAP_SHARED: i32 = 0x01;
    const MAP_PRIVATE: i32 = 0x02;
    const MAP_ANONYMOUS: i32 = 0x20;
    pub const MS_SYNC: i32 = 4;
    pub const MS_ASYNC: i32 = 1;

    extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
        fn munmap(addr: *mut u8, len: usize) -> i32;
        fn msync(addr: *mut u8, len: usize, flags: i32) -> i32;
    }

    /// Maps `len` bytes of the open file `fd` read/write + `MAP_SHARED`.
    pub fn map_shared(fd: i32, len: usize) -> io::Result<*mut u8> {
        map(len, MAP_SHARED, fd)
    }

    /// Maps `len` bytes of zero-filled private anonymous memory.
    pub fn map_anonymous(len: usize) -> io::Result<*mut u8> {
        map(len, MAP_PRIVATE | MAP_ANONYMOUS, -1)
    }

    fn map(len: usize, flags: i32, fd: i32) -> io::Result<*mut u8> {
        // SAFETY: a null hint lets the kernel place a fresh mapping, so no
        // existing memory is replaced; failure is reported, not used.
        let p = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                flags,
                fd,
                0,
            )
        };
        if p.is_null() || p as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(p)
    }

    /// Unmaps a region returned by [`map_shared`].
    pub fn unmap(base: *mut u8, len: usize) {
        unsafe {
            munmap(base, len);
        }
    }

    /// Schedules (or forces, with [`MS_SYNC`]) write-back of the mapping to
    /// its file. Irrelevant for SIGKILL survival (the page cache is shared
    /// either way); models the flush a power failure would need.
    pub fn sync(base: *mut u8, len: usize, flags: i32) {
        unsafe {
            msync(base, len, flags);
        }
    }

    /// A `&AtomicU64` view of the word at byte offset `off` in the mapping.
    /// Safe because the mapping is page-aligned (so 8-byte alignment holds),
    /// lives until `unmap`, and all access goes through atomic operations.
    pub fn word_at<'a>(base: *mut u8, off: usize) -> &'a std::sync::atomic::AtomicU64 {
        debug_assert_eq!(off % 8, 0);
        unsafe { &*(base.add(off) as *const std::sync::atomic::AtomicU64) }
    }

    /// Zero-initialized atomic words in a private anonymous mapping, the
    /// storage of [`AtomicMemory`](crate::AtomicMemory). The kernel supplies
    /// zero pages on first touch and takes them back on drop, so a dropped
    /// memory leaves no block in the allocator's heap. (A freed heap block
    /// can be split by later small allocations; a closed loop that builds a
    /// fresh world per run then grows the heap by a whole world.)
    #[derive(Debug)]
    pub(crate) struct AnonWords {
        base: *mut u8,
        bytes: usize,
        n: usize,
    }

    // SAFETY: `base` is a mapping owned by this value alone and unmapped
    // once, on drop; its words are only reached through `&AtomicU64`, so
    // moving or sharing the owner across threads is sound.
    unsafe impl Send for AnonWords {}
    // SAFETY: as for `Send`.
    unsafe impl Sync for AnonWords {}

    impl AnonWords {
        /// Maps `n` zeroed words; panics if the kernel refuses.
        pub(crate) fn new(n: usize) -> Self {
            let bytes = (n * 8).max(8);
            let base = map_anonymous(bytes).expect("map anonymous memory");
            AnonWords { base, bytes, n }
        }
    }

    impl std::ops::Deref for AnonWords {
        type Target = [std::sync::atomic::AtomicU64];

        fn deref(&self) -> &Self::Target {
            // SAFETY: the page-aligned (so `u64`-aligned) mapping holds
            // `bytes >= 8 * n` bytes and lives until `self` drops; it is
            // only accessed through atomics.
            unsafe { std::slice::from_raw_parts(self.base as *const _, self.n) }
        }
    }

    impl Drop for AnonWords {
        fn drop(&mut self) {
            unmap(self.base, self.bytes);
        }
    }
}

pub(crate) use sys::AnonWords;

/// A fixed-size file mapped `MAP_SHARED` as a header plus `words` atomic
/// `u64` cells. Multiple processes mapping the same file see one coherent
/// array; a store committed by one process is durable against that
/// process's death the moment it retires.
pub struct MappedFile {
    base: *mut u8,
    bytes: usize,
    words: usize,
    // Keeps the fd open for the lifetime of the mapping (not strictly
    // required by POSIX, but makes the ownership story obvious).
    _file: std::fs::File,
}

// The mapping is a fixed region of atomics; all mutation goes through
// `&AtomicU64`, so sharing across threads is sound.
#[allow(unsafe_code)]
unsafe impl Send for MappedFile {}
#[allow(unsafe_code)]
unsafe impl Sync for MappedFile {}

impl MappedFile {
    /// Free header slots available to harness code via [`user`](Self::user).
    pub const USER_SLOTS: usize = HEADER_WORDS - 4;

    /// Creates (truncating if present) a mapped file with `words` zeroed
    /// data words.
    ///
    /// # Errors
    ///
    /// Propagates file-creation / `mmap` failures.
    pub fn create(path: &Path, words: usize) -> io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let bytes = (HEADER_WORDS + words) * 8;
        file.set_len(bytes as u64)?;
        let base = sys::map_shared(Self::raw_fd(&file), bytes)?;
        let mapped = MappedFile {
            base,
            bytes,
            words,
            _file: file,
        };
        mapped.header(0).store(MAPPED_MAGIC, Ordering::SeqCst);
        mapped.header(1).store(MAPPED_VERSION, Ordering::SeqCst);
        mapped.header(2).store(words as u64, Ordering::SeqCst);
        mapped.header(3).store(0, Ordering::SeqCst);
        mapped.sync();
        Ok(mapped)
    }

    /// Maps an existing file created by [`create`](Self::create).
    ///
    /// # Errors
    ///
    /// Fails if the file is missing, too small, or carries the wrong
    /// magic/version words.
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)?;
        let bytes = file.metadata()?.len() as usize;
        if bytes < HEADER_WORDS * 8 || !bytes.is_multiple_of(8) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("mapped file too small: {bytes} bytes"),
            ));
        }
        let base = sys::map_shared(Self::raw_fd(&file), bytes)?;
        let mapped = MappedFile {
            base,
            bytes,
            words: bytes / 8 - HEADER_WORDS,
            _file: file,
        };
        let (magic, version) = (
            mapped.header(0).load(Ordering::SeqCst),
            mapped.header(1).load(Ordering::SeqCst),
        );
        if magic != MAPPED_MAGIC || version != MAPPED_VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad mapped-file header: magic={magic:#x} version={version}"),
            ));
        }
        let declared = mapped.header(2).load(Ordering::SeqCst) as usize;
        if declared != mapped.words {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "mapped-file word count mismatch: header says {declared}, size says {}",
                    mapped.words
                ),
            ));
        }
        Ok(mapped)
    }

    fn raw_fd(file: &std::fs::File) -> i32 {
        use std::os::unix::io::AsRawFd;
        file.as_raw_fd()
    }

    fn header(&self, k: usize) -> &AtomicU64 {
        debug_assert!(k < HEADER_WORDS);
        sys::word_at(self.base, k * 8)
    }

    /// Number of data words (the header excluded).
    pub fn words(&self) -> usize {
        self.words
    }

    /// The data word at `idx` as an atomic cell.
    pub fn word(&self, idx: usize) -> &AtomicU64 {
        assert!(idx < self.words, "mapped access outside file: {idx}");
        sys::word_at(self.base, (HEADER_WORDS + idx) * 8)
    }

    /// One of the [`USER_SLOTS`](Self::USER_SLOTS) free header words, for
    /// harness protocols. The process-crash harness reserves, on its log
    /// file: slot 0 for the global record sequence counter, slot 1 for the
    /// barrier release round, slot 2 for the recoverer's armed flag, slot
    /// 3 for the parent's mid-operation stall mask, and slots `4 + p` for
    /// worker `p`'s barrier arrival round.
    pub fn user(&self, k: usize) -> &AtomicU64 {
        assert!(k < Self::USER_SLOTS, "user slot out of range: {k}");
        self.header(4 + k)
    }

    /// The crash ordinal recorded in the header: how many times the owning
    /// harness has declared a crash over this file. The analogue of
    /// [`SimMemory::crash_count`](crate::SimMemory::crash_count), and the
    /// seed input for [`CrashPolicy::RandomSubset`] write-through coins.
    pub fn crash_count(&self) -> u64 {
        self.header(3).load(Ordering::SeqCst)
    }

    /// Records one more crash in the header and returns the new count. The
    /// crash-fabric parent calls this once per SIGKILL it lands — worker
    /// kills *and* recovery kills — so every subsequently constructed
    /// [`MappedMemory`] draws its write-through coins for a fresh epoch.
    pub fn bump_crash_count(&self) -> u64 {
        let n = self.header(3).fetch_add(1, Ordering::SeqCst) + 1;
        self.sync();
        n
    }

    /// Forces write-back of the whole mapping to the file (`MS_SYNC`).
    pub fn sync(&self) {
        sys::sync(self.base, self.bytes, sys::MS_SYNC);
    }

    /// Schedules asynchronous write-back of the whole mapping (`MS_ASYNC`)
    /// — the per-commit flush [`MappedMemory`] issues at persist points.
    pub fn sync_async(&self) {
        sys::sync(self.base, self.bytes, sys::MS_ASYNC);
    }

    /// Zeroes every data word and every [`user`](Self::user) slot, keeping
    /// the geometry and crash ordinal — how a crash clears a
    /// [`MappedMemory`] shared-cache overlay, lock word included.
    pub fn wipe(&self) {
        for i in 0..self.words {
            self.word(i).store(0, Ordering::SeqCst);
        }
        for k in 0..Self::USER_SLOTS {
            self.user(k).store(0, Ordering::SeqCst);
        }
    }

    /// Copies the data words into a fresh vector (for stitch-time
    /// inspection and tests).
    pub fn to_vec(&self) -> Vec<Word> {
        (0..self.words)
            .map(|i| self.word(i).load(Ordering::SeqCst))
            .collect()
    }
}

impl Drop for MappedFile {
    fn drop(&mut self) {
        sys::unmap(self.base, self.bytes);
    }
}

impl fmt::Debug for MappedFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MappedFile")
            .field("words", &self.words)
            .field("crash_count", &self.crash_count())
            .finish()
    }
}

/// Decides, ahead of time, whether writes to cell `idx` write through to
/// the file under `policy` for crash ordinal `epoch`.
///
/// A SIGKILL cannot run the write-back loop [`SimMemory::crash`]
/// (crate::SimMemory::crash) runs, so the dirty-subset decision is made
/// *per cell, before the crash*, and enforced as a write-through
/// discipline: a `persist` coin means every store to the cell is committed
/// as it happens (so the file holds the cell's latest value at the kill,
/// exactly as write-back would leave it); a `drop` coin means stores stay
/// in the volatile overlay (so the file keeps the last explicitly persisted
/// value, exactly as dropping the dirty cell would).
///
/// The coin is deliberately **value-independent**: deciding per *write*
/// rather than per *cell* could commit an intermediate value (write 1
/// through, keep 2 cached, die — the file says 1), a state no
/// [`CrashPolicy`] write-back can produce.
pub fn write_through(policy: CrashPolicy, epoch: u64, idx: u32) -> bool {
    match policy {
        CrashPolicy::DropAll => false,
        CrashPolicy::PersistAll => true,
        CrashPolicy::RandomSubset(seed) => {
            // One xorshift64* draw per (seed, crash ordinal, cell), mixing
            // the cell index with an odd multiplier so adjacent cells get
            // independent coins — the per-cell analogue of the sequential
            // draws in `SimMemory::crash`.
            let mut s = seed
                ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (u64::from(idx) + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93);
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s & 1 == 1
        }
    }
}

/// Words per cell of a shared-cache overlay file: a dirty flag, then the
/// cached value.
const OVERLAY_CELL: usize = 2;
/// The overlay file's [`MappedFile::user`] slot holding its lock word.
const OVERLAY_LOCK: usize = 0;

/// Multi-process [`Memory`] over a [`MappedFile`], honoring the
/// simulator's persistence semantics under real crashes.
///
/// * Private cache ([`private`](Self::private)) — every primitive is
///   applied directly to the file, as the paper's presentation model
///   applies primitives directly to NVM. Nothing but in-flight machine
///   state dies with the process.
/// * Shared cache ([`shared`](Self::shared)) — primitives land in a
///   volatile overlay: a second mapped file holding a dirty flag and a
///   value per cell, shared by every process that maps it, exactly as the
///   model's one cache is shared by every process. Each cell additionally
///   writes through to the data file iff its [`write_through`] coin says it
///   would have been written back at the next crash. [`Memory::persist`]
///   commits the cell unconditionally and clears its dirty flag, exactly
///   like the simulator. The overlay outlives any one process, so whoever
///   declares a crash must [`wipe`](MappedFile::wipe) it — that wipe is the
///   crash's loss of the cache.
///
/// All file stores are `SeqCst`, matching [`AtomicMemory`]
/// (crate::AtomicMemory). Overlay access is serialized by a lock word in
/// the overlay file's header, held across each read, write, cas and
/// persist, which also gives a cross-process SharedCache `cas` its
/// atomicity. A process killed while holding the lock leaves it held until
/// the wipe releases it.
#[derive(Debug)]
pub struct MappedMemory {
    layout: Arc<Layout>,
    file: MappedFile,
    /// The shared-cache overlay; `None` in the private-cache model.
    overlay: Option<MappedFile>,
    policy: CrashPolicy,
    epoch: u64,
}

/// Holds the overlay lock; releases it on drop. The `Release` store on
/// drop pairs with the `Acquire` exchange in [`MappedMemory::lock`], so the
/// next holder sees every overlay and file store of the previous one.
struct OverlayGuard<'a>(&'a AtomicU64);

impl Drop for OverlayGuard<'_> {
    fn drop(&mut self) {
        self.0.store(0, Ordering::Release);
    }
}

impl MappedMemory {
    /// Private-cache memory over `file` (created with exactly
    /// `layout.total_words()` data words).
    pub fn private(layout: Layout, file: MappedFile) -> Self {
        Self::with_overlay(layout, file, None, CrashPolicy::DropAll)
    }

    /// Shared-cache memory over `file`, caching in `overlay` (created with
    /// [`overlay_words`](Self::overlay_words) data words). The write-through
    /// epoch is the data file's next crash ordinal, so coins line up with
    /// the crash the owning harness will declare.
    pub fn shared(
        layout: Layout,
        file: MappedFile,
        overlay: MappedFile,
        policy: CrashPolicy,
    ) -> Self {
        assert_eq!(
            overlay.words(),
            Self::overlay_words(&layout),
            "overlay file does not span the layout"
        );
        Self::with_overlay(layout, file, Some(overlay), policy)
    }

    /// Data words a shared-cache overlay file for `layout` must hold.
    pub fn overlay_words(layout: &Layout) -> usize {
        OVERLAY_CELL * layout.total_words()
    }

    fn with_overlay(
        layout: Layout,
        file: MappedFile,
        overlay: Option<MappedFile>,
        policy: CrashPolicy,
    ) -> Self {
        assert_eq!(
            file.words(),
            layout.total_words(),
            "mapped file does not span the layout"
        );
        let epoch = file.crash_count() + 1;
        MappedMemory {
            layout: Arc::new(layout),
            file,
            overlay,
            policy,
            epoch,
        }
    }

    /// The underlying mapped file.
    pub fn file(&self) -> &MappedFile {
        &self.file
    }

    fn check_access(&self, pid: Pid, loc: Loc) {
        if let Some(owner) = self.layout.owner_of(loc) {
            assert_eq!(
                owner, pid,
                "model violation: {pid} accessed private cell {loc} owned by {owner}"
            );
        }
        assert!(
            loc.index() < self.layout.total_words(),
            "access outside layout: {loc}"
        );
    }

    fn commit(&self, idx: usize, val: Word) {
        self.file.word(idx).store(val, Ordering::SeqCst);
        self.file.sync_async();
    }

    fn lock(overlay: &MappedFile) -> OverlayGuard<'_> {
        let word = overlay.user(OVERLAY_LOCK);
        while word
            .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::thread::yield_now();
        }
        OverlayGuard(word)
    }

    /// The cell's dirty value, if the overlay holds one (lock held).
    fn cached(overlay: &MappedFile, idx: usize) -> Option<Word> {
        (overlay.word(OVERLAY_CELL * idx).load(Ordering::SeqCst) != 0)
            .then(|| overlay.word(OVERLAY_CELL * idx + 1).load(Ordering::SeqCst))
    }

    /// Caches `val` for the cell, writing it through if the cell's coin
    /// says so (lock held).
    fn cache(&self, overlay: &MappedFile, idx: usize, val: Word) {
        overlay
            .word(OVERLAY_CELL * idx + 1)
            .store(val, Ordering::SeqCst);
        overlay.word(OVERLAY_CELL * idx).store(1, Ordering::SeqCst);
        if write_through(self.policy, self.epoch, idx as u32) {
            self.commit(idx, val);
        }
    }
}

impl Memory for MappedMemory {
    fn read(&self, pid: Pid, loc: Loc) -> Word {
        self.check_access(pid, loc);
        let idx = loc.index();
        match &self.overlay {
            None => self.file.word(idx).load(Ordering::SeqCst),
            Some(overlay) => {
                let _guard = Self::lock(overlay);
                Self::cached(overlay, idx)
                    .unwrap_or_else(|| self.file.word(idx).load(Ordering::SeqCst))
            }
        }
    }

    fn write(&self, pid: Pid, loc: Loc, val: Word) {
        self.check_access(pid, loc);
        match &self.overlay {
            None => self.commit(loc.index(), val),
            Some(overlay) => {
                let _guard = Self::lock(overlay);
                self.cache(overlay, loc.index(), val);
            }
        }
    }

    fn cas(&self, pid: Pid, loc: Loc, old: Word, new: Word) -> bool {
        self.check_access(pid, loc);
        let idx = loc.index();
        match &self.overlay {
            None => {
                let ok = self
                    .file
                    .word(idx)
                    .compare_exchange(old, new, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok();
                if ok {
                    self.file.sync_async();
                }
                ok
            }
            Some(overlay) => {
                let _guard = Self::lock(overlay);
                let cur = Self::cached(overlay, idx)
                    .unwrap_or_else(|| self.file.word(idx).load(Ordering::SeqCst));
                if cur != old {
                    return false;
                }
                self.cache(overlay, idx, new);
                true
            }
        }
    }

    fn persist(&self, pid: Pid, loc: Loc) {
        self.check_access(pid, loc);
        if let Some(overlay) = &self.overlay {
            let idx = loc.index();
            let _guard = Self::lock(overlay);
            if let Some(w) = Self::cached(overlay, idx) {
                self.commit(idx, w);
                overlay.word(OVERLAY_CELL * idx).store(0, Ordering::SeqCst);
            }
        }
    }

    fn layout(&self) -> &Layout {
        &self.layout
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LayoutBuilder;
    use crate::memory::{CacheMode, SimMemory};
    use std::collections::BTreeMap;
    use std::path::PathBuf;
    use std::sync::atomic::AtomicUsize;

    static TEST_SEQ: AtomicUsize = AtomicUsize::new(0);

    fn temp_path(tag: &str) -> PathBuf {
        let n = TEST_SEQ.fetch_add(1, Ordering::SeqCst);
        std::env::temp_dir().join(format!(
            "nvm-mapped-{}-{}-{}.bin",
            std::process::id(),
            tag,
            n
        ))
    }

    fn layout() -> (crate::layout::Layout, Loc) {
        let mut b = LayoutBuilder::new();
        let x = b.shared("X", 6, 64);
        (b.finish(), x)
    }

    #[test]
    fn create_open_roundtrip() {
        let path = temp_path("roundtrip");
        {
            let f = MappedFile::create(&path, 4).unwrap();
            f.word(2).store(77, Ordering::SeqCst);
            f.user(0).store(5, Ordering::SeqCst);
            assert_eq!(f.crash_count(), 0);
            assert_eq!(f.bump_crash_count(), 1);
        }
        let f = MappedFile::open(&path).unwrap();
        assert_eq!(f.words(), 4);
        assert_eq!(f.word(2).load(Ordering::SeqCst), 77);
        assert_eq!(f.user(0).load(Ordering::SeqCst), 5);
        assert_eq!(f.crash_count(), 1);
        drop(f);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn header_has_room_for_the_fabric_barrier() {
        // The crash fabric needs seq + release + armed + stall mask + one
        // arrival word per worker; 12 user slots cover up to 8 worker
        // processes, beyond what the 64-op checker window admits.
        assert_eq!(MappedFile::USER_SLOTS, 12);
        let path = temp_path("userslots");
        let f = MappedFile::create(&path, 1).unwrap();
        for k in 0..MappedFile::USER_SLOTS {
            f.user(k).store(k as u64 + 1, Ordering::SeqCst);
        }
        for k in 0..MappedFile::USER_SLOTS {
            assert_eq!(f.user(k).load(Ordering::SeqCst), k as u64 + 1);
        }
        assert_eq!(f.word(0).load(Ordering::SeqCst), 0, "data must not alias");
        drop(f);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_rejects_garbage() {
        let path = temp_path("garbage");
        std::fs::write(&path, vec![0u8; 256]).unwrap();
        assert!(MappedFile::open(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    /// A tiny shadow of the simulator's cache/NVM split, so the tests can
    /// state "a state `SimMemory::crash(policy)` could have produced"
    /// without reaching into private fields.
    struct Shadow {
        nvm: Vec<Word>,
        cache: BTreeMap<u32, Word>,
        mode: CacheMode,
    }

    impl Shadow {
        fn new(words: usize, mode: CacheMode) -> Self {
            Shadow {
                nvm: vec![0; words],
                cache: BTreeMap::new(),
                mode,
            }
        }
        fn logical(&self, i: usize) -> Word {
            self.cache.get(&(i as u32)).copied().unwrap_or(self.nvm[i])
        }
        fn write(&mut self, i: usize, w: Word) {
            match self.mode {
                CacheMode::PrivateCache => self.nvm[i] = w,
                CacheMode::SharedCache => {
                    self.cache.insert(i as u32, w);
                }
            }
        }
        fn persist(&mut self, i: usize) {
            if let Some(w) = self.cache.remove(&(i as u32)) {
                self.nvm[i] = w;
            }
        }
    }

    /// Runs the same mixed write/cas/persist script against a
    /// [`MappedMemory`], a twin [`SimMemory`], and the shadow model.
    fn run_script(mapped: &MappedMemory, twin: &SimMemory, shadow: &mut Shadow) {
        let p = Pid::new(0);
        let (_, x) = layout();
        let mut rng: u64 = 0x5EED_1234;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for step in 0..200 {
            let i = (next() % 6) as usize;
            let loc = x.at(i);
            match next() % 4 {
                0 | 1 => {
                    let v = next() % 1000;
                    mapped.write(p, loc, v);
                    twin.write(p, loc, v);
                    shadow.write(i, v);
                }
                2 => {
                    let old = shadow.logical(i);
                    let v = next() % 1000;
                    let a = mapped.cas(p, loc, old, v);
                    let b = twin.cas(p, loc, old, v);
                    assert_eq!(a, b, "cas outcomes diverge at step {step}");
                    if a {
                        shadow.write(i, v);
                    }
                }
                _ => {
                    mapped.persist(p, loc);
                    twin.persist(p, loc);
                    shadow.persist(i);
                }
            }
            assert_eq!(
                mapped.read(p, loc),
                twin.read(p, loc),
                "logical views diverge at step {step}"
            );
        }
    }

    /// The data and overlay files one memory maps; removed on drop.
    struct Files {
        data: PathBuf,
        overlay: PathBuf,
    }

    impl Files {
        fn create(tag: &str, mode: CacheMode) -> Files {
            let files = Files {
                data: temp_path(tag),
                overlay: temp_path(&format!("{tag}-overlay")),
            };
            let (lay, _) = layout();
            MappedFile::create(&files.data, lay.total_words()).unwrap();
            if mode == CacheMode::SharedCache {
                MappedFile::create(&files.overlay, MappedMemory::overlay_words(&lay)).unwrap();
            }
            files
        }

        /// A handle over the files, as one process of the system maps them.
        fn open(&self, mode: CacheMode, policy: CrashPolicy) -> MappedMemory {
            let (lay, _) = layout();
            let data = MappedFile::open(&self.data).unwrap();
            match mode {
                CacheMode::PrivateCache => MappedMemory::private(lay, data),
                CacheMode::SharedCache => {
                    let overlay = MappedFile::open(&self.overlay).unwrap();
                    MappedMemory::shared(lay, data, overlay, policy)
                }
            }
        }

        /// A SIGKILL as the crash-declaring process models it: the handle
        /// dies with its process and the shared overlay is wiped.
        fn kill(&self, mem: MappedMemory) {
            drop(mem);
            if let Ok(overlay) = MappedFile::open(&self.overlay) {
                overlay.wipe();
            }
        }

        fn data_word(&self, i: usize) -> Word {
            MappedFile::open(&self.data)
                .unwrap()
                .word(i)
                .load(Ordering::SeqCst)
        }
    }

    impl Drop for Files {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.data);
            let _ = std::fs::remove_file(&self.overlay);
        }
    }

    /// Satellite contract: after a (simulated-SIGKILL) drop of the
    /// `MappedMemory` and a wipe of the shared overlay, the data file holds
    /// word-for-word a state `SimMemory::crash(policy)` could have
    /// produced, for every `CacheMode` × `CrashPolicy` combination, and a
    /// fresh handle reads exactly that state. For the deterministic
    /// policies the state is unique, so the comparison is exact equality
    /// against the twin; for `RandomSubset` the simulator's subset depends
    /// on its own draw sequence, so the test checks membership in the
    /// policy's reachable set: every clean cell equals the pre-crash NVM
    /// word, and every dirty cell holds either its NVM word (dropped) or
    /// its cached word (written back).
    #[test]
    fn sigkill_state_matches_simulated_crash() {
        let policies = [
            CrashPolicy::DropAll,
            CrashPolicy::PersistAll,
            CrashPolicy::RandomSubset(0xDEAD_BEEF),
        ];
        let p = Pid::new(0);
        for mode in [CacheMode::PrivateCache, CacheMode::SharedCache] {
            for policy in policies {
                let files = Files::create("crashpair", mode);
                let mapped = files.open(mode, policy);
                let (lay, _) = layout();
                let words = lay.total_words();
                let twin = SimMemory::with_mode(lay, mode);
                let mut shadow = Shadow::new(words, mode);
                run_script(&mapped, &twin, &mut shadow);

                files.kill(mapped);
                twin.crash(policy);
                let restarted = files.open(mode, policy);

                for i in 0..words {
                    let got = files.data_word(i);
                    assert_eq!(
                        restarted.read(p, Loc(i as u32)),
                        got,
                        "cell {i}: the wiped overlay still shadows the file ({mode:?}, {policy:?})"
                    );
                    match policy {
                        CrashPolicy::DropAll | CrashPolicy::PersistAll => assert_eq!(
                            got,
                            twin.peek(Loc(i as u32)),
                            "cell {i} diverges from the simulated crash ({mode:?}, {policy:?})"
                        ),
                        CrashPolicy::RandomSubset(_) => {
                            if shadow.cache.contains_key(&(i as u32)) {
                                assert!(
                                    got == shadow.nvm[i] || got == shadow.logical(i),
                                    "dirty cell {i} holds {got}, reachable values are \
                                     {} (dropped) / {} (written back)",
                                    shadow.nvm[i],
                                    shadow.logical(i)
                                );
                            } else {
                                assert_eq!(
                                    got, shadow.nvm[i],
                                    "clean cell {i} must ride through the crash"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn private_cache_commits_every_store() {
        let files = Files::create("private", CacheMode::PrivateCache);
        let mapped = files.open(CacheMode::PrivateCache, CrashPolicy::DropAll);
        let (_, x) = layout();
        let p = Pid::new(0);
        mapped.write(p, x, 9);
        assert!(mapped.cas(p, x.at(1), 0, 4));
        files.kill(mapped);
        assert_eq!(files.data_word(0), 9);
        assert_eq!(files.data_word(1), 4);
    }

    #[test]
    fn shared_cache_drop_all_loses_unpersisted() {
        let files = Files::create("droppy", CacheMode::SharedCache);
        let mapped = files.open(CacheMode::SharedCache, CrashPolicy::DropAll);
        let (_, x) = layout();
        let p = Pid::new(0);
        mapped.write(p, x, 7); // dirty: must die with the crash
        mapped.write(p, x.at(1), 8);
        mapped.persist(p, x.at(1)); // explicitly persisted: must survive
        assert_eq!(mapped.read(p, x), 7, "visible before the crash");
        files.kill(mapped);
        assert_eq!(files.data_word(0), 0);
        assert_eq!(files.data_word(1), 8);
    }

    /// Two handles over the same data and overlay files — two processes of
    /// one system — share one cache: each sees the other's unpersisted
    /// writes, a persist through either commits to the file, and the
    /// crash's wipe takes the still-dirty cells from both.
    #[test]
    fn shared_overlay_is_one_cache_across_handles() {
        let mode = CacheMode::SharedCache;
        let files = Files::create("twohandles", mode);
        let a = files.open(mode, CrashPolicy::DropAll);
        let b = files.open(mode, CrashPolicy::DropAll);
        let (_, x) = layout();
        let (p, q) = (Pid::new(0), Pid::new(1));
        a.write(p, x, 5);
        b.write(q, x.at(1), 6);
        assert_eq!(b.read(q, x), 5, "b sees a's dirty write");
        assert_eq!(a.read(p, x.at(1)), 6, "a sees b's dirty write");
        assert_eq!(files.data_word(0), 0, "unpersisted: not in the file");
        b.persist(q, x);
        assert_eq!(files.data_word(0), 5, "b persisted a's write");
        files.kill(a);
        assert_eq!(b.read(q, x), 5, "persisted: survives the wipe");
        assert_eq!(b.read(q, x.at(1)), 0, "dirty: lost with the wipe");
    }

    /// A shared-cache `cas` is atomic across handles: threads racing
    /// `cas(v, v + 1)` on one cell through two handles produce exactly one
    /// winner per expected value.
    #[test]
    fn shared_overlay_cas_has_one_winner_per_value() {
        const TARGET: Word = 400;
        let mode = CacheMode::SharedCache;
        let files = Files::create("casrace", mode);
        let handles = [
            files.open(mode, CrashPolicy::DropAll),
            files.open(mode, CrashPolicy::DropAll),
        ];
        let (_, x) = layout();
        let start = std::sync::Barrier::new(4);
        let mut wins: Vec<Word> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..4u32)
                .map(|t| {
                    let (mem, start) = (&handles[t as usize % 2], &start);
                    s.spawn(move || {
                        let pid = Pid::new(t);
                        let mut won = Vec::new();
                        start.wait();
                        loop {
                            let cur = mem.read(pid, x);
                            if cur >= TARGET {
                                return won;
                            }
                            if mem.cas(pid, x, cur, cur + 1) {
                                won.push(cur);
                            }
                        }
                    })
                })
                .collect();
            racers.into_iter().flat_map(|r| r.join().unwrap()).collect()
        });
        wins.sort_unstable();
        assert_eq!(wins, (0..TARGET).collect::<Vec<_>>());
        assert_eq!(handles[0].read(Pid::new(0), x), TARGET);
    }

    #[test]
    fn write_through_coin_is_value_independent_and_deterministic() {
        for idx in 0..64u32 {
            assert!(!write_through(CrashPolicy::DropAll, 1, idx));
            assert!(write_through(CrashPolicy::PersistAll, 1, idx));
            let a = write_through(CrashPolicy::RandomSubset(42), 1, idx);
            let b = write_through(CrashPolicy::RandomSubset(42), 1, idx);
            assert_eq!(a, b);
        }
        // Different epochs draw different subsets (with overwhelming
        // probability over 64 cells).
        let e1: Vec<bool> = (0..64)
            .map(|i| write_through(CrashPolicy::RandomSubset(42), 1, i))
            .collect();
        let e2: Vec<bool> = (0..64)
            .map(|i| write_through(CrashPolicy::RandomSubset(42), 2, i))
            .collect();
        assert_ne!(e1, e2);
    }
}
