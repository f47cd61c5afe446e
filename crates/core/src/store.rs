//! The persistent fault-dictionary store: durable, resumable checkpoints
//! of the chip-independent Monte-Carlo bit grids held by
//! [`DictionaryCache`](crate::cache::DictionaryCache).
//!
//! The Monte-Carlo phase of dictionary construction
//! ([`simulate_fail_masks`](crate::dictionary)) dominates campaign
//! wall-clock, yet its output depends only on (circuit, timing model,
//! pattern set, `clk`, defect-size distribution, Monte-Carlo config) —
//! nothing about the chip under diagnosis, nothing about the process
//! that computed it. [`DictionaryStore`] makes those grids survive the
//! process: one file per [`StoreKey`], written atomically, validated
//! exhaustively on the way back in.
//!
//! ## Guarantees
//!
//! * **Atomic writes** — a bank is serialized to a temporary file in the
//!   store directory, `fsync`ed, and `rename`d over the final name. A
//!   reader never observes a half-written file; a crash leaves at worst
//!   a stale temp file that is ignored (and reclaimed on the next
//!   [`DictionaryStore::open`]).
//! * **Corruption degrades to a miss** — every section of the file
//!   carries a length and an FNV-1a checksum, and the header carries
//!   magic, version and the full key. Truncation, bit flips, version
//!   skew and key mismatches are all detected and reported as "no
//!   checkpoint"; the caller recomputes. No panic, and — because grids
//!   are validated before use — no silently wrong ranking.
//! * **Bit-identical results** — a loaded bank stores the exact words of
//!   the simulated `BitGrid`s, so a dictionary assembled from a
//!   checkpoint equals a freshly simulated one bit for bit (proven by
//!   the `store` round-trip tests).
//! * **Single-read, in-place decode** — a load is one `fs::read` and one
//!   forward pass over the bytes: sections are borrowed slices of that
//!   buffer ([`ByteReader::read_section`]), and grid word arrays decode
//!   through one bulk bounds check ([`ByteReader::get_u64_into`]) rather
//!   than a per-word cursor loop, so warm-store startup is bounded by
//!   the file I/O (plus the unavoidable checksum pass), not by parse or
//!   copy overhead.
//!
//! A flush serializes the bank and writes the bytes to a temp file on the
//! caller's thread (which already holds the bank lock), then frees them;
//! only the `fsync`s and the rename are deferred. Queued flushes thus
//! hold no buffers, so memory does not grow while `fsync` is slow. One
//! long-lived writer thread serves every store of the process in
//! submission order, so a later flush of a key always lands after an
//! earlier one, and no short-lived thread per flush leaves its
//! allocator arena behind for the next worker thread to grow.
//! [`DictionaryStore::sync`] — also run on drop — waits until every
//! flush this store queued before the call is written, whichever thread
//! queued it, so checkpoints are on disk before the process exits.

use crate::dictionary::{BitGrid, DictionaryConfig, SuspectMasks};
use crate::format::{
    checksum, write_section, ByteReader, ByteWriter, FormatError, StableHasher,
    DICTIONARY_FORMAT_VERSION, MAGIC, PATTERN_FORMAT_VERSION,
};
use crate::metrics::{Counter, MetricsSink};
use sdd_atpg::{PatternSet, TestPattern};
use sdd_netlist::{Circuit, EdgeId};
use sdd_timing::{CircuitTiming, Dist};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Section tags of the store file layout (see DESIGN.md §4.3).
const SECTION_KEY: u32 = 0x5344_4B31; // "SDK1"
const SECTION_BASE: u32 = 0x5344_4231; // "SDB1"
const SECTION_SUSPECTS: u32 = 0x5344_5331; // "SDS1"

/// Section tags of the pattern-checkpoint layout (see DESIGN.md §4.6).
const SECTION_PATTERN_KEY: u32 = 0x5350_4B31; // "SPK1"
const SECTION_PATTERNS: u32 = 0x5350_5431; // "SPT1"

/// File extension of dictionary checkpoints.
const STORE_EXT: &str = "sdds";

/// XOR'd into a [`PatternKey`] fingerprint before it names a temp file,
/// so a (vanishingly unlikely) fingerprint collision between a
/// dictionary key and a pattern key cannot share a temp name.
const PATTERN_TMP_NAMESPACE: u64 = 0x5350_4154_5345_5431; // "SPATSET1"

/// Everything a cached dictionary bank depends on, reduced to stable
/// 64-bit fingerprints. This is both the in-memory cache key of
/// [`DictionaryCache`](crate::cache::DictionaryCache) and the identity
/// of a store file: all fields are hashed with the process-stable FNV-1a
/// of [`crate::format`], never the std `DefaultHasher`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StoreKey {
    /// Fingerprint of the circuit and its statistical timing model
    /// (names, topology counts, per-edge delay means, variation model).
    pub model_fp: u64,
    /// Fingerprint of the applied two-vector patterns.
    pub patterns_fp: u64,
    /// Exact bits of the cut-off period.
    pub clk_bits: u64,
    /// Monte-Carlo budget.
    pub n_samples: u64,
    /// Monte-Carlo base seed.
    pub seed: u64,
    /// Fingerprint of the defect-size distribution.
    pub defect_fp: u64,
}

impl StoreKey {
    /// Computes the key for one dictionary build request.
    pub fn compute(
        circuit: &Circuit,
        timing: &CircuitTiming,
        defect_size: &Dist,
        patterns: &PatternSet,
        clk: f64,
        config: DictionaryConfig,
    ) -> StoreKey {
        StoreKey::for_model(
            fingerprint_model(circuit, timing),
            defect_size,
            patterns,
            clk,
            config,
        )
    }

    /// [`StoreKey::compute`] for a model already fingerprinted
    /// (`model_fp` from `fingerprint_model`), so one build hashes its
    /// O(edges) model once however many keys it derives.
    pub(crate) fn for_model(
        model_fp: u64,
        defect_size: &Dist,
        patterns: &PatternSet,
        clk: f64,
        config: DictionaryConfig,
    ) -> StoreKey {
        StoreKey {
            model_fp,
            patterns_fp: fingerprint_patterns(patterns),
            clk_bits: clk.to_bits(),
            n_samples: config.n_samples as u64,
            seed: config.seed,
            defect_fp: fingerprint_dist(defect_size),
        }
    }

    /// Collapses the key to one fingerprint (the store file name stem).
    pub fn fingerprint(&self) -> u64 {
        let mut h = StableHasher::new();
        for field in self.fields() {
            h.write_u64(field);
        }
        h.finish()
    }

    /// File name of this key's checkpoint inside a store directory.
    pub fn file_name(&self) -> String {
        format!("dict-{:016x}.{STORE_EXT}", self.fingerprint())
    }

    fn fields(&self) -> [u64; 6] {
        [
            self.model_fp,
            self.patterns_fp,
            self.clk_bits,
            self.n_samples,
            self.seed,
            self.defect_fp,
        ]
    }
}

/// Fingerprint of (circuit, timing model): store files must never be
/// resurrected against a different netlist or characterization, even if
/// every other knob coincides.
pub(crate) fn fingerprint_model(circuit: &Circuit, timing: &CircuitTiming) -> u64 {
    let mut h = StableHasher::new();
    h.write(circuit.name().as_bytes());
    h.write_usize(circuit.num_nodes());
    h.write_usize(circuit.num_edges());
    h.write_usize(circuit.primary_inputs().len());
    h.write_usize(circuit.primary_outputs().len());
    for &mean in timing.edge_means() {
        h.write_f64(mean);
    }
    // `Debug` for the variation model prints exact shortest-roundtrip
    // floats — distinct models give distinct strings.
    h.write(format!("{:?}", timing.variation()).as_bytes());
    h.finish()
}

/// Stable fingerprint of the applied two-vector patterns.
pub(crate) fn fingerprint_patterns(patterns: &PatternSet) -> u64 {
    let mut h = StableHasher::new();
    h.write_usize(patterns.len());
    for p in patterns.iter() {
        h.write_usize(p.v1.len());
        for &b in &p.v1 {
            h.write_bool(b);
        }
        for &b in &p.v2 {
            h.write_bool(b);
        }
    }
    h.finish()
}

/// Stable fingerprint of the defect-size distribution.
pub(crate) fn fingerprint_dist(dist: &Dist) -> u64 {
    // `Debug` for `Dist` prints variant name plus exact shortest-roundtrip
    // float fields — distinct distributions give distinct strings.
    let mut h = StableHasher::new();
    h.write(format!("{dist:?}").as_bytes());
    h.finish()
}

/// Everything a per-site ATPG pattern set depends on, reduced to stable
/// fingerprints. Patterns are a pure function of (circuit, suspected
/// arc, ATPG knobs, site seed) — never of a chip's sampled delays — so
/// this key is both the in-memory pattern-cache key and the identity of
/// a `pat-*.sdds` checkpoint file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PatternKey {
    /// Fingerprint of the circuit and its statistical timing model
    /// (shared with [`StoreKey::model_fp`]).
    pub model_fp: u64,
    /// Index of the suspected arc the patterns target.
    pub edge: u64,
    /// Fingerprint of the ATPG configuration
    /// ([`AtpgConfig::fingerprint`](crate::inject::AtpgConfig::fingerprint)).
    pub atpg_fp: u64,
    /// The per-site ATPG seed.
    pub seed: u64,
}

impl PatternKey {
    /// Collapses the key to one fingerprint (the file name stem).
    pub fn fingerprint(&self) -> u64 {
        let mut h = StableHasher::new();
        for field in self.fields() {
            h.write_u64(field);
        }
        h.finish()
    }

    /// File name of this key's checkpoint inside a store directory.
    pub fn file_name(&self) -> String {
        format!("pat-{:016x}.{STORE_EXT}", self.fingerprint())
    }

    fn fields(&self) -> [u64; 4] {
        [self.model_fp, self.edge, self.atpg_fp, self.seed]
    }
}

/// A deserialized checkpoint: the defect-free baseline grids plus the
/// per-suspect fail grids, exactly as the in-memory cache banks hold
/// them.
#[derive(Debug)]
pub(crate) struct StoredBank {
    /// One grid per pattern (`n_samples` × all outputs).
    pub(crate) base: Vec<BitGrid>,
    /// Per suspect arc: its reachable outputs and per-pattern grids.
    pub(crate) suspects: Vec<(EdgeId, SuspectMasks)>,
}

/// An on-disk, versioned store of dictionary Monte-Carlo banks: one
/// checkpoint file per [`StoreKey`] under one directory. See the module
/// docs for the durability and corruption story.
#[derive(Debug)]
pub struct DictionaryStore {
    dir: PathBuf,
    /// This store's writes: how many were queued, and how many the
    /// writer thread has finished.
    writes: Arc<WriteProgress>,
    tmp_counter: AtomicU64,
}

/// `(queued, written)` write counts of one store, plus the condition
/// [`DictionaryStore::sync`] waits on. The writer runs writes in queue
/// order, so `written >= n` means the first `n` queued writes are done.
#[derive(Debug, Default)]
struct WriteProgress {
    counts: Mutex<(u64, u64)>,
    written: Condvar,
}

impl WriteProgress {
    fn counts(&self) -> std::sync::MutexGuard<'_, (u64, u64)> {
        self.counts.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl DictionaryStore {
    /// Opens (creating if necessary) a store rooted at `dir`, and sweeps
    /// any temp files a crashed writer left behind.
    ///
    /// # Errors
    ///
    /// [`crate::SddError::Store`] when the directory cannot be created
    /// or read.
    pub fn open(dir: impl Into<PathBuf>) -> Result<DictionaryStore, crate::SddError> {
        let dir = dir.into();
        let wrap = |source: std::io::Error| crate::SddError::Store {
            path: dir.clone(),
            source,
        };
        fs::create_dir_all(&dir).map_err(wrap)?;
        // Reclaim orphaned temp files (crash between create and rename).
        for entry in fs::read_dir(&dir).map_err(wrap)?.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with('.') && name.ends_with(".tmp") {
                let _ = fs::remove_file(entry.path());
            }
        }
        Ok(DictionaryStore {
            dir,
            writes: Arc::default(),
            tmp_counter: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of dictionary checkpoint files (`dict-*.sdds`) currently
    /// in the store.
    pub fn num_checkpoints(&self) -> usize {
        fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .flatten()
                    .filter(|e| {
                        let name = e.file_name();
                        let name = name.to_string_lossy();
                        name.starts_with("dict-") && name.ends_with(STORE_EXT)
                    })
                    .count()
            })
            .unwrap_or(0)
    }

    /// Loads the checkpoint for `key`, if a valid one exists. *Any*
    /// failure — absent file, truncation, bit flip, version skew, key
    /// mismatch, shape mismatch (grid widths, row counts other than
    /// `key.n_samples`, reach lists not strictly increasing), I/O error —
    /// returns `None` (a miss that degrades to recomputation), never a
    /// panic.
    pub(crate) fn load(
        &self,
        key: &StoreKey,
        n_patterns: usize,
        n_outputs: usize,
        metrics: Option<&MetricsSink>,
    ) -> Option<StoredBank> {
        let start = Instant::now();
        let bank = fs::read(self.dir.join(key.file_name()))
            .ok()
            .and_then(|bytes| decode_bank(&bytes, key).ok())
            .filter(|bank| bank_fits(bank, key.n_samples, n_patterns, n_outputs));
        if let Some(m) = metrics {
            let outcome = match bank {
                Some(_) => Counter::StoreHits,
                None => Counter::StoreMisses,
            };
            m.add(outcome, 1);
            m.add(Counter::StoreLoadNanos, start.elapsed().as_nanos() as u64);
        }
        bank
    }

    /// Checkpoints one bank: serializes it immediately (the caller holds
    /// the bank lock, so the bytes are a consistent snapshot), writes
    /// them to a temp file and queues its `fsync` and rename on the
    /// writer thread. Write failures are swallowed — the store is an
    /// accelerator, not a system of record.
    pub(crate) fn flush(
        &self,
        key: &StoreKey,
        base: &[BitGrid],
        suspects: &[(EdgeId, &SuspectMasks)],
        metrics: Option<&MetricsSink>,
    ) {
        let bytes = encode_bank(key, base, suspects);
        let fingerprint = key.fingerprint();
        let seq = self.tmp_counter.fetch_add(1, Ordering::Relaxed);
        let final_path = self.dir.join(key.file_name());
        let tmp_path = self.dir.join(format!(
            ".{:016x}-{}-{}.tmp",
            fingerprint,
            std::process::id(),
            seq,
        ));
        if let Some(m) = metrics {
            m.add(Counter::StoreFlushes, 1);
        }
        self.write_in_background(tmp_path, final_path, bytes);
    }

    /// Number of pattern checkpoint files (`pat-*.sdds`) in the store.
    pub fn num_pattern_checkpoints(&self) -> usize {
        fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .flatten()
                    .filter(|e| {
                        let name = e.file_name();
                        let name = name.to_string_lossy();
                        name.starts_with("pat-") && name.ends_with(STORE_EXT)
                    })
                    .count()
            })
            .unwrap_or(0)
    }

    /// Loads the pattern checkpoint for `key`, if a valid one exists.
    /// Same degradation contract as [`DictionaryStore::load`]: *any*
    /// failure — absent file, truncation, bit flip, version skew, key
    /// mismatch, width mismatch — is a recorded miss, never a panic, and
    /// the caller regenerates.
    pub(crate) fn load_patterns(
        &self,
        key: &PatternKey,
        width: usize,
        metrics: Option<&MetricsSink>,
    ) -> Option<PatternSet> {
        let start = Instant::now();
        let patterns = fs::read(self.dir.join(key.file_name()))
            .ok()
            .and_then(|bytes| decode_patterns(&bytes, key).ok())
            .filter(|set| set.iter().all(|p| p.width() == width));
        if let Some(m) = metrics {
            let outcome = match patterns {
                Some(_) => Counter::PatternStoreHits,
                None => Counter::PatternStoreMisses,
            };
            m.add(outcome, 1);
            m.add(
                Counter::PatternStoreLoadNanos,
                start.elapsed().as_nanos() as u64,
            );
        }
        patterns
    }

    /// Checkpoints one per-site pattern set. Serialization and the
    /// temp-file write are immediate; the `fsync` and rename are queued
    /// on the writer thread like a dictionary bank's. Write failures are
    /// swallowed — the store is an accelerator.
    pub(crate) fn flush_patterns(
        &self,
        key: &PatternKey,
        patterns: &PatternSet,
        metrics: Option<&MetricsSink>,
    ) {
        let bytes = encode_patterns(key, patterns);
        let fingerprint = key.fingerprint() ^ PATTERN_TMP_NAMESPACE;
        let seq = self.tmp_counter.fetch_add(1, Ordering::Relaxed);
        let final_path = self.dir.join(key.file_name());
        let tmp_path = self.dir.join(format!(
            ".{:016x}-{}-{}.tmp",
            fingerprint,
            std::process::id(),
            seq,
        ));
        if let Some(m) = metrics {
            m.add(Counter::PatternStoreFlushes, 1);
        }
        self.write_in_background(tmp_path, final_path, bytes);
    }

    /// Writes `bytes` to `tmp_path` now and frees them, then queues the
    /// rest of the atomic write (`fsync`, rename) on the process's
    /// checkpoint writer: a single thread, started on first use, that
    /// runs writes in submission order. Order is what keeps banks
    /// consistent: a bank grows incrementally, so a key can be flushed
    /// twice before the first write lands, and the later (superset)
    /// bytes must win. A temp file that cannot be written is removed and
    /// nothing is queued.
    fn write_in_background(&self, tmp_path: PathBuf, final_path: PathBuf, bytes: Vec<u8>) {
        type Write = Box<dyn FnOnce() + Send>;
        static WRITER: OnceLock<mpsc::Sender<Write>> = OnceLock::new();
        let written = fs::File::create(&tmp_path).and_then(|mut f| f.write_all(&bytes));
        drop(bytes);
        if written.is_err() {
            let _ = fs::remove_file(&tmp_path);
            return;
        }
        let writer = WRITER.get_or_init(|| {
            let (queue, writes) = mpsc::channel::<Write>();
            std::thread::Builder::new()
                .name("sdd-store-writer".into())
                .spawn(move || writes.into_iter().for_each(|write| write()))
                .expect("store writer thread starts");
            queue
        });
        let progress = Arc::clone(&self.writes);
        let write: Write = Box::new(move || {
            // A panicking write is over all the same: it must count as
            // written and must not stop the writes queued behind it.
            let _ = std::panic::catch_unwind(|| persist(&tmp_path, &final_path));
            progress.counts().1 += 1;
            progress.written.notify_all();
        });
        // Count and send under one lock, so this store's writes are
        // counted in queue order. The writer never exits, so the queue
        // stays open.
        let mut counts = self.writes.counts();
        counts.0 += 1;
        let _ = writer.send(write);
    }

    /// Blocks until every background flush issued so far — by any
    /// thread — has hit disk. Called automatically on drop; call it
    /// explicitly before handing the directory to another process.
    pub fn sync(&self) {
        let counts = self.writes.counts();
        let queued = counts.0;
        let _written = (self.writes.written)
            .wait_while(counts, |(_, written)| *written < queued)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

impl Drop for DictionaryStore {
    fn drop(&mut self) {
        self.sync();
    }
}

/// A belt-and-braces shape check before a loaded bank reaches the
/// assembly path: the key already pins patterns and model, but a grid of
/// the wrong width or row count, or a reach list with repeated or
/// unordered positions, would make downstream counting index out of
/// bounds or miscount, so it is cheaper to re-simulate than to trust a
/// mismatched file.
fn bank_fits(bank: &StoredBank, n_samples: u64, n_patterns: usize, n_outputs: usize) -> bool {
    let rows_fit = |g: &BitGrid| g.rows() as u64 == n_samples;
    bank.base.len() == n_patterns
        && bank
            .base
            .iter()
            .all(|g| g.width() == n_outputs && rows_fit(g))
        && bank.suspects.iter().all(|(_, m)| {
            m.fails.len() == n_patterns
                && m.fails.iter().all(rows_fit)
                && m.reachable.windows(2).all(|w| w[0] < w[1])
                && m.reachable.last().is_none_or(|&r| r < n_outputs)
        })
}

/// Makes a written temp file the checkpoint at `final_path`: `fsync` +
/// atomic rename (+ best-effort directory sync).
fn persist(tmp_path: &Path, final_path: &Path) -> std::io::Result<()> {
    let synced = fs::OpenOptions::new()
        .write(true)
        .open(tmp_path)
        .and_then(|f| f.sync_all());
    if let Err(e) = synced.and_then(|()| fs::rename(tmp_path, final_path)) {
        let _ = fs::remove_file(tmp_path);
        return Err(e);
    }
    // Persist the rename itself; not all platforms allow fsync on a
    // directory handle, so failures here are ignored.
    if let Some(dir) = final_path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Serializes one bank. Layout: `MAGIC`, version, then three framed
/// sections (key, baseline grids, suspect grids), each length-prefixed
/// and checksummed by [`write_section`].
pub(crate) fn encode_bank(
    key: &StoreKey,
    base: &[BitGrid],
    suspects: &[(EdgeId, &SuspectMasks)],
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&DICTIONARY_FORMAT_VERSION.to_le_bytes());

    let mut kw = ByteWriter::new();
    for field in key.fields() {
        kw.put_u64(field);
    }
    write_section(&mut out, SECTION_KEY, &kw.into_bytes());

    let mut bw = ByteWriter::new();
    bw.put_usize(base.len());
    for grid in base {
        put_grid(&mut bw, grid);
    }
    write_section(&mut out, SECTION_BASE, &bw.into_bytes());

    let mut sw = ByteWriter::new();
    sw.put_usize(suspects.len());
    for (edge, masks) in suspects {
        sw.put_u64(edge.index() as u64);
        sw.put_usize(masks.reachable.len());
        for &r in &masks.reachable {
            sw.put_usize(r);
        }
        sw.put_usize(masks.fails.len());
        for grid in &masks.fails {
            put_grid(&mut sw, grid);
        }
    }
    write_section(&mut out, SECTION_SUSPECTS, &sw.into_bytes());
    out
}

/// Parses and validates a checkpoint against the key the caller wants.
pub(crate) fn decode_bank(bytes: &[u8], want: &StoreKey) -> Result<StoredBank, FormatError> {
    let mut r = ByteReader::new(bytes);
    if r.take(MAGIC.len())? != MAGIC {
        return Err(FormatError::BadMagic);
    }
    let version = r.get_u32()?;
    if version != DICTIONARY_FORMAT_VERSION {
        return Err(FormatError::BadVersion { found: version });
    }

    let key_payload = r.read_section(SECTION_KEY)?;
    let mut kr = ByteReader::new(key_payload);
    let mut found = [0u64; 6];
    for slot in &mut found {
        *slot = kr.get_u64()?;
    }
    if found != want.fields() {
        // A hash-collision rename or a file copied between stores: the
        // checkpoint is internally consistent but not *ours*.
        return Err(FormatError::Malformed("store key mismatch"));
    }

    let base_payload = r.read_section(SECTION_BASE)?;
    let mut br = ByteReader::new(base_payload);
    let n_patterns = br.get_usize()?;
    let mut base = Vec::with_capacity(n_patterns.min(1 << 20));
    for _ in 0..n_patterns {
        base.push(get_grid(&mut br)?);
    }
    if br.remaining() != 0 {
        return Err(FormatError::Malformed("trailing bytes in base section"));
    }

    let susp_payload = r.read_section(SECTION_SUSPECTS)?;
    let mut sr = ByteReader::new(susp_payload);
    let n_suspects = sr.get_usize()?;
    let mut suspects = Vec::with_capacity(n_suspects.min(1 << 20));
    for _ in 0..n_suspects {
        let edge = EdgeId::from_index(sr.get_usize()?);
        let n_reach = sr.get_usize()?;
        let mut reachable = Vec::with_capacity(n_reach.min(1 << 20));
        for _ in 0..n_reach {
            reachable.push(sr.get_usize()?);
        }
        let n_grids = sr.get_usize()?;
        if n_grids != n_patterns {
            return Err(FormatError::Malformed("suspect grid count != patterns"));
        }
        let mut fails = Vec::with_capacity(n_grids);
        for _ in 0..n_grids {
            let grid = get_grid(&mut sr)?;
            if grid.width() != reachable.len() {
                return Err(FormatError::Malformed("grid width != reachable outputs"));
            }
            fails.push(grid);
        }
        suspects.push((edge, SuspectMasks { reachable, fails }));
    }
    if sr.remaining() != 0 {
        return Err(FormatError::Malformed("trailing bytes in suspect section"));
    }
    if r.remaining() != 0 {
        return Err(FormatError::Malformed("trailing bytes after last section"));
    }
    Ok(StoredBank { base, suspects })
}

/// Serializes one per-site pattern set. Layout mirrors the dictionary
/// bank files: `MAGIC`, version, a framed key section ("SPK1") and a
/// framed payload section ("SPT1"), each checksummed by
/// [`write_section`]. Vectors are stored one byte per bit — the files
/// are a few kilobytes, so packing is not worth the decode branch.
pub(crate) fn encode_patterns(key: &PatternKey, patterns: &PatternSet) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&PATTERN_FORMAT_VERSION.to_le_bytes());

    let mut kw = ByteWriter::new();
    for field in key.fields() {
        kw.put_u64(field);
    }
    write_section(&mut out, SECTION_PATTERN_KEY, &kw.into_bytes());

    let mut pw = ByteWriter::new();
    pw.put_usize(patterns.len());
    for p in patterns.iter() {
        pw.put_usize(p.width());
        let bytes: Vec<u8> = p.v1.iter().chain(&p.v2).map(|&b| b as u8).collect();
        pw.put_bytes(&bytes);
    }
    write_section(&mut out, SECTION_PATTERNS, &pw.into_bytes());
    out
}

/// Parses and validates a pattern checkpoint against the wanted key.
pub(crate) fn decode_patterns(bytes: &[u8], want: &PatternKey) -> Result<PatternSet, FormatError> {
    let mut r = ByteReader::new(bytes);
    if r.take(MAGIC.len())? != MAGIC {
        return Err(FormatError::BadMagic);
    }
    let version = r.get_u32()?;
    if version != PATTERN_FORMAT_VERSION {
        return Err(FormatError::BadVersion { found: version });
    }

    let key_payload = r.read_section(SECTION_PATTERN_KEY)?;
    let mut kr = ByteReader::new(key_payload);
    let mut found = [0u64; 4];
    for slot in &mut found {
        *slot = kr.get_u64()?;
    }
    if found != want.fields() {
        return Err(FormatError::Malformed("pattern key mismatch"));
    }

    let payload = r.read_section(SECTION_PATTERNS)?;
    let mut pr = ByteReader::new(payload);
    let n_patterns = pr.get_usize()?;
    let mut set = PatternSet::new();
    for _ in 0..n_patterns {
        let width = pr.get_usize()?;
        if width > pr.remaining() / 2 {
            return Err(FormatError::Truncated);
        }
        let decode_bits = |raw: &[u8]| -> Result<Vec<bool>, FormatError> {
            raw.iter()
                .map(|&b| match b {
                    0 => Ok(false),
                    1 => Ok(true),
                    _ => Err(FormatError::Malformed("pattern bit not 0/1")),
                })
                .collect()
        };
        let v1 = decode_bits(pr.take(width)?)?;
        let v2 = decode_bits(pr.take(width)?)?;
        if !set.push(TestPattern::new(v1, v2)) {
            // The writer serialized a deduplicated set; a duplicate here
            // means the bytes are not a faithful pattern-set image.
            return Err(FormatError::Malformed("duplicate pattern in checkpoint"));
        }
    }
    if pr.remaining() != 0 {
        return Err(FormatError::Malformed("trailing bytes in pattern section"));
    }
    if r.remaining() != 0 {
        return Err(FormatError::Malformed("trailing bytes after last section"));
    }
    Ok(set)
}

fn put_grid(w: &mut ByteWriter, grid: &BitGrid) {
    w.put_usize(grid.width());
    w.put_usize(grid.words().len());
    for &word in grid.words() {
        w.put_u64(word);
    }
}

fn get_grid(r: &mut ByteReader<'_>) -> Result<BitGrid, FormatError> {
    let width = r.get_usize()?;
    let n_words = r.get_usize()?;
    if n_words > r.remaining() / 8 {
        return Err(FormatError::Truncated);
    }
    // Bulk-decode the word payload in place: one bounds check and one
    // linear pass over the borrowed section bytes, instead of a per-word
    // `get_u64` loop — grid decode is the dominant parse cost of a warm
    // load, and this keeps it bounded by the single `fs::read` I/O.
    let mut words = Vec::new();
    r.get_u64_into(n_words, &mut words)?;
    BitGrid::from_words(width, words).ok_or(FormatError::Malformed(
        "grid words not whole zero-padded rows",
    ))
}

/// Re-exported for the corruption-injection integration tests: the raw
/// checksum function used by the format (so tests can prove a flipped
/// byte really lands inside a checksummed region).
pub fn file_checksum(bytes: &[u8]) -> u64 {
    checksum(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(width: usize, rows: usize, fill: impl Fn(usize, usize) -> bool) -> BitGrid {
        let mut g = BitGrid::new(rows, width);
        for r in 0..rows {
            for b in 0..width {
                if fill(r, b) {
                    g.set(r, b);
                }
            }
        }
        g
    }

    fn demo_key() -> StoreKey {
        StoreKey {
            model_fp: 1,
            patterns_fp: 2,
            clk_bits: 0.25f64.to_bits(),
            n_samples: 8,
            seed: 4,
            defect_fp: 5,
        }
    }

    fn demo_bank() -> (Vec<BitGrid>, Vec<(EdgeId, SuspectMasks)>) {
        let base = vec![
            grid(3, 8, |r, b| (r + b) % 2 == 0),
            grid(3, 8, |r, _| r == 0),
        ];
        let suspects = vec![
            (
                EdgeId::from_index(4),
                SuspectMasks {
                    reachable: vec![0, 2],
                    fails: vec![grid(2, 8, |r, b| r * 2 + b < 5), grid(2, 8, |_, _| true)],
                },
            ),
            (
                EdgeId::from_index(9),
                SuspectMasks {
                    reachable: vec![1],
                    fails: vec![grid(1, 8, |_, _| false), grid(1, 8, |r, _| r == 7)],
                },
            ),
        ];
        (base, suspects)
    }

    fn encode_demo() -> Vec<u8> {
        let (base, suspects) = demo_bank();
        let refs: Vec<(EdgeId, &SuspectMasks)> = suspects.iter().map(|(e, m)| (*e, m)).collect();
        encode_bank(&demo_key(), &base, &refs)
    }

    #[test]
    fn encode_decode_roundtrip_is_exact() {
        let (base, suspects) = demo_bank();
        let bank = decode_bank(&encode_demo(), &demo_key()).expect("decodes");
        assert_eq!(bank.base, base);
        assert_eq!(bank.suspects.len(), suspects.len());
        for ((de, dm), (ee, em)) in bank.suspects.iter().zip(&suspects) {
            assert_eq!(de, ee);
            assert_eq!(dm.reachable, em.reachable);
            assert_eq!(dm.fails, em.fails);
        }
    }

    #[test]
    fn every_flipped_byte_is_detected_or_harmless() {
        // Flip each byte of the file in turn: decode must either fail
        // (the overwhelmingly common case) or — never — succeed with
        // different grids. There is no unchecksummed payload region.
        let clean = encode_demo();
        let reference = decode_bank(&clean, &demo_key()).unwrap();
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x40;
            if let Ok(bank) = decode_bank(&bad, &demo_key()) {
                assert_eq!(bank.base, reference.base, "byte {i} changed data silently");
            }
        }
    }

    #[test]
    fn truncation_at_every_length_is_an_error() {
        let clean = encode_demo();
        for len in 0..clean.len() {
            assert!(
                decode_bank(&clean[..len], &demo_key()).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }

    #[test]
    fn wrong_version_and_wrong_key_are_misses() {
        let mut bad = encode_demo();
        bad[8] = 0xFF; // version word
        assert!(matches!(
            decode_bank(&bad, &demo_key()),
            Err(FormatError::BadVersion { .. })
        ));
        let mut other = demo_key();
        other.seed ^= 1;
        assert!(matches!(
            decode_bank(&encode_demo(), &other),
            Err(FormatError::Malformed("store key mismatch"))
        ));
    }

    #[test]
    fn store_load_and_flush_roundtrip_on_disk() {
        let dir = crate::testutil::TestDir::new("store-unit");
        let store = DictionaryStore::open(dir.path()).expect("opens");
        let key = demo_key();
        let metrics = MetricsSink::new();
        assert!(
            store.load(&key, 2, 3, Some(&metrics)).is_none(),
            "empty store"
        );
        let (base, suspects) = demo_bank();
        let refs: Vec<(EdgeId, &SuspectMasks)> = suspects.iter().map(|(e, m)| (*e, m)).collect();
        store.flush(&key, &base, &refs, Some(&metrics));
        store.sync();
        assert_eq!(store.num_checkpoints(), 1);
        let bank = store
            .load(&key, 2, 3, Some(&metrics))
            .expect("hit after flush");
        assert_eq!(bank.base, base);
        // Shape mismatches (wrong pattern count / output width) are
        // misses even though the file is internally valid.
        assert!(store.load(&key, 3, 3, None).is_none());
        assert!(store.load(&key, 2, 2, None).is_none());
        let snap = metrics.snapshot(std::time::Duration::ZERO);
        assert_eq!(snap.store_misses, 1);
        assert_eq!(snap.store_hits, 1);
        assert_eq!(snap.store_flushes, 1);
        // A second open sweeps temp files and still sees the checkpoint.
        fs::write(dir.path().join(".orphan.tmp"), b"junk").unwrap();
        drop(store);
        let store = DictionaryStore::open(dir.path()).expect("reopens");
        assert_eq!(store.num_checkpoints(), 1);
        assert!(!dir.path().join(".orphan.tmp").exists(), "temp file swept");
    }

    #[test]
    fn a_later_flush_of_a_key_always_lands_last() {
        // A bank grows between flushes: the subset flushed first must
        // never overwrite the superset flushed after it.
        let dir = crate::testutil::TestDir::new("store-order");
        let store = DictionaryStore::open(dir.path()).expect("opens");
        let key = demo_key();
        let (base, suspects) = demo_bank();
        let refs: Vec<(EdgeId, &SuspectMasks)> = suspects.iter().map(|(e, m)| (*e, m)).collect();
        for round in 0..20 {
            store.flush(&key, &base, &refs[..1], None);
            store.flush(&key, &base, &refs, None);
            store.sync();
            let bank = store.load(&key, 2, 3, None).expect("hit after sync");
            assert_eq!(bank.suspects.len(), suspects.len(), "round {round}");
            for ((e, m), (want_e, want)) in bank.suspects.iter().zip(&suspects) {
                assert_eq!(
                    (e, &m.reachable, &m.fails),
                    (want_e, &want.reachable, &want.fails)
                );
            }
        }
        let leftovers = fs::read_dir(dir.path())
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .count();
        assert_eq!(leftovers, 0, "every temp file renamed");
    }

    #[test]
    fn a_flush_returns_with_its_bytes_in_a_file() {
        // The queued part of a flush holds no buffer: its bytes are in
        // the temp file (or, once the writer renamed it, the checkpoint)
        // before `flush` returns, however slow the writer's fsync is.
        let dir = crate::testutil::TestDir::new("store-eager");
        let store = DictionaryStore::open(dir.path()).expect("opens");
        let key = demo_key();
        let (base, suspects) = demo_bank();
        let refs: Vec<(EdgeId, &SuspectMasks)> = suspects.iter().map(|(e, m)| (*e, m)).collect();
        let want = encode_bank(&key, &base, &refs).len() as u64;
        store.flush(&key, &base, &refs, None);
        // A rename moves the file between the two names atomically, so
        // reading the temp name first never misses both.
        let tmp = dir.path().join(format!(
            ".{:016x}-{}-0.tmp",
            key.fingerprint(),
            std::process::id()
        ));
        let len = fs::metadata(&tmp)
            .or_else(|_| fs::metadata(dir.path().join(key.file_name())))
            .expect("flushed bytes are on the file system")
            .len();
        assert_eq!(len, want);
        store.sync();
    }

    #[test]
    fn concurrent_syncs_each_wait_for_every_earlier_flush() {
        // Two threads sync at once behind large flushes: neither may
        // return before every checkpoint queued ahead of it is on disk.
        let dir = crate::testutil::TestDir::new("store-sync");
        let store = DictionaryStore::open(dir.path()).expect("opens");
        let (_, suspects) = demo_bank();
        let refs: Vec<(EdgeId, &SuspectMasks)> = suspects.iter().map(|(e, m)| (*e, m)).collect();
        let base: Vec<BitGrid> = (0..8)
            .map(|_| grid(64, 1 << 15, |r, b| r % 3 == b % 5))
            .collect();
        let keys: Vec<StoreKey> = (0..4)
            .map(|n| StoreKey {
                seed: n,
                ..demo_key()
            })
            .collect();
        for key in &keys {
            store.flush(key, &base, &refs, None);
        }
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    start.wait();
                    store.sync();
                    for key in &keys {
                        assert!(
                            dir.path().join(key.file_name()).exists(),
                            "sync returned before {} was written",
                            key.file_name()
                        );
                    }
                });
            }
        });
    }

    #[test]
    fn banks_assembly_cannot_handle_are_recorded_misses() {
        // Internally valid files whose shape would break assembly: a
        // grid with a row count other than the key's `n_samples`, and a
        // reach list that is not strictly increasing. Each must load as
        // a recorded miss, not reach the counting code.
        let dir = crate::testutil::TestDir::new("store-shape");
        let store = DictionaryStore::open(dir.path()).expect("opens");
        let metrics = MetricsSink::new();
        let mut short_base = demo_bank();
        short_base.0[1] = grid(3, 7, |_, _| false);
        let mut short_fails = demo_bank();
        short_fails.1[0].1.fails[0] = grid(2, 9, |_, _| true);
        let mut repeated = demo_bank();
        repeated.1[0].1.reachable = vec![2, 2];
        let mut unordered = demo_bank();
        unordered.1[0].1.reachable = vec![2, 0];
        let banks = [short_base, short_fails, repeated, unordered];
        for (n, (base, suspects)) in banks.iter().enumerate() {
            let mut key = demo_key();
            key.seed = n as u64;
            let refs: Vec<(EdgeId, &SuspectMasks)> =
                suspects.iter().map(|(e, m)| (*e, m)).collect();
            store.flush(&key, base, &refs, None);
            store.sync();
            assert!(
                decode_bank(&fs::read(dir.path().join(key.file_name())).unwrap(), &key).is_ok()
            );
            assert!(
                store.load(&key, 2, 3, Some(&metrics)).is_none(),
                "bank {n} must not load"
            );
        }
        let snap = metrics.snapshot(std::time::Duration::ZERO);
        assert_eq!(
            (snap.store_hits, snap.store_misses),
            (0, banks.len() as u64)
        );
    }

    fn demo_pattern_key() -> PatternKey {
        PatternKey {
            model_fp: 21,
            edge: 7,
            atpg_fp: 9,
            seed: 4,
        }
    }

    fn demo_patterns() -> PatternSet {
        let mut set = PatternSet::new();
        set.push(TestPattern::new(
            vec![false, true, true],
            vec![true, true, false],
        ));
        set.push(TestPattern::new(
            vec![true, false, false],
            vec![true, true, true],
        ));
        set
    }

    #[test]
    fn pattern_encode_decode_roundtrip_is_exact() {
        let set = demo_patterns();
        let bytes = encode_patterns(&demo_pattern_key(), &set);
        let back = decode_patterns(&bytes, &demo_pattern_key()).expect("decodes");
        assert_eq!(set, back);
    }

    #[test]
    fn pattern_checkpoint_rejects_corruption_truncation_and_wrong_key() {
        let clean = encode_patterns(&demo_pattern_key(), &demo_patterns());
        let reference = decode_patterns(&clean, &demo_pattern_key()).unwrap();
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x40;
            if let Ok(set) = decode_patterns(&bad, &demo_pattern_key()) {
                assert_eq!(set, reference, "byte {i} changed patterns silently");
            }
        }
        for len in 0..clean.len() {
            assert!(
                decode_patterns(&clean[..len], &demo_pattern_key()).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
        let mut other = demo_pattern_key();
        other.seed ^= 1;
        assert!(matches!(
            decode_patterns(&clean, &other),
            Err(FormatError::Malformed("pattern key mismatch"))
        ));
    }

    #[test]
    fn pattern_store_load_and_flush_roundtrip_on_disk() {
        let dir = crate::testutil::TestDir::new("pattern-store-unit");
        let store = DictionaryStore::open(dir.path()).expect("opens");
        let key = demo_pattern_key();
        let metrics = MetricsSink::new();
        assert!(store.load_patterns(&key, 3, Some(&metrics)).is_none());
        let set = demo_patterns();
        store.flush_patterns(&key, &set, Some(&metrics));
        store.sync();
        assert_eq!(store.num_pattern_checkpoints(), 1);
        assert_eq!(
            store.load_patterns(&key, 3, Some(&metrics)).as_ref(),
            Some(&set)
        );
        // Width mismatches are misses even though the file is valid.
        assert!(store.load_patterns(&key, 2, None).is_none());
        let snap = metrics.snapshot(std::time::Duration::ZERO);
        assert_eq!(snap.pattern_store_misses, 1);
        assert_eq!(snap.pattern_store_hits, 1);
        assert_eq!(snap.pattern_store_flushes, 1);
        // Pattern and dictionary checkpoints coexist in one directory
        // without being counted as each other.
        assert_eq!(store.num_checkpoints(), 0);
        let (base, suspects) = demo_bank();
        let refs: Vec<(EdgeId, &SuspectMasks)> = suspects.iter().map(|(e, m)| (*e, m)).collect();
        store.flush(&demo_key(), &base, &refs, None);
        store.sync();
        assert_eq!(store.num_checkpoints(), 1);
        assert_eq!(store.num_pattern_checkpoints(), 1);
    }

    #[test]
    fn pattern_key_fingerprints_separate_every_field() {
        let base = demo_pattern_key();
        let mut seen = std::collections::HashSet::new();
        seen.insert(base.fingerprint());
        for field in 0..4 {
            let mut k = base;
            match field {
                0 => k.model_fp ^= 1,
                1 => k.edge ^= 1,
                2 => k.atpg_fp ^= 1,
                _ => k.seed ^= 1,
            }
            assert!(seen.insert(k.fingerprint()), "field {field} not separated");
        }
    }

    #[test]
    fn store_key_fingerprints_separate_every_field() {
        let base = demo_key();
        let mut seen = std::collections::HashSet::new();
        seen.insert(base.fingerprint());
        for field in 0..6 {
            let mut k = base;
            match field {
                0 => k.model_fp ^= 1,
                1 => k.patterns_fp ^= 1,
                2 => k.clk_bits ^= 1,
                3 => k.n_samples ^= 1,
                4 => k.seed ^= 1,
                _ => k.defect_fp ^= 1,
            }
            assert!(seen.insert(k.fingerprint()), "field {field} not separated");
        }
    }
}
