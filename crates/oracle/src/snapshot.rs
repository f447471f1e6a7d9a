//! Versioned binary snapshot formats for [`Oracle`] — compute once, serve
//! forever.
//!
//! No external dependencies (the build is offline): both formats are small
//! hand-rolled little-endian layouts sealed by 64-bit checksums —
//! byte-wise FNV-1a for v1, a word-wise 4-lane hash ([`block_checksum`])
//! for the blocked format. Two formats coexist:
//!
//! ## Format v1 — monolithic (the eager path)
//!
//! One contiguous image, one trailing checksum. [`Oracle::load`] /
//! [`Oracle::from_bytes`] read it fully into RAM:
//!
//! ```text
//! offset  size      field
//! 0       8         magic  b"CGSTORCL"
//! 8       2         format version (u16 LE) = 1
//! 10      1         weight-type tag (PortableWeight::TAG)
//! 11      1         flags (reserved, 0)
//! 12      8         n (u64 LE)
//! 20      n²·8      distance arena, row-major, 8 bytes per weight
//! ..      n²·4      successor arena, target-major, u32 LE per entry
//! end-8   8         FNV-1a 64 checksum of every preceding byte (u64 LE)
//! ```
//!
//! ## Format v2 — blocked (the out-of-core path)
//!
//! The arenas are cut into fixed-size blocks of whole rows, each with its
//! own checksum, indexed from the tail of the file so a reader can
//! validate the header + index eagerly and page blocks lazily (the
//! [`PagedOracle`](crate::PagedOracle) backend). Written front-to-back
//! with no seeks, so [`Oracle::save_v2_to`] streams to any `Write`. Its
//! on-disk version field is [`VERSION_V2`] = 3; every "hash" below is
//! [`block_checksum`]:
//!
//! ```text
//! offset  size      field
//! 0       8         magic  b"CGSTORCL"
//! 8       2         format version (u16 LE) = 3
//! 10      1         weight-type tag (PortableWeight::TAG)
//! 11      1         flags: bit0 = successor plane on disk,
//!                          bit1 = graph section on disk (≥ one set)
//! 12      8         n (u64 LE)
//! 20      4         block_rows (u32 LE): rows per block
//! 24      8         hash of header bytes 0..24
//! 32      ...       B dist blocks, block b = rows [b·br, min(n,(b+1)·br))
//!                   of the row-major distance arena, 8 bytes per weight
//! ..      ...       B successor blocks (flag bit0): same row partition of
//!                   the target-major plane, u32 LE per entry
//! ..      ...       graph section (flag bit1): u8 directed, u64 m, then
//!                   m × (u32 from, u32 to, 8-byte weight)
//! ..      E·24      index: one (offset u64, len u64, hash u64) entry per
//!                   dist block, then per successor block, then the graph
//!                   section — ranges must tile [32, index) exactly
//! end-32  32        footer: index offset u64, index len u64, index hash
//!                   u64, hash of the footer's first 24 bytes
//! ```
//!
//! The checksum reads its input as little-endian 8-byte words in stripes
//! of four, one word per lane. With
//! `step(s, w) = rotl(s + w · P2, 31) · P1` (wrapping arithmetic,
//! `P1 = 0x9E37_79B1_85EB_CA87`, `P2 = 0xC2B2_AE3D_27D4_EB4F`,
//! `O = 0x27D4_EB2F_1656_67C5`):
//!
//! 1. lane `i` starts at `step(O, i)`, for `i` in `0..4`;
//! 2. each whole 32-byte stripe steps every lane with its own word;
//! 3. the lanes fold left to right: `h = step(step(step(lane0, lane1),
//!    lane2), lane3)`;
//! 4. the remaining 0–31 tail bytes, zero-padded to whole words, step
//!    `h` one word at a time, and a last `h = step(h, len)` folds in the
//!    input length in bytes.
//!
//! Every step is a bijection of the running state and of the word, so
//! two equal-length inputs differing in a single word (hence any single
//! bit) always hash differently. The word is multiplied before it meets
//! the state and the rotation sits between the two multiplies, so a
//! change to one word — even to its top bit alone — reaches the next
//! step as a data-dependent difference a later word cannot cancel in a
//! fixed way. It reads 8 bytes per two multiplies where FNV-1a reads one
//! byte per multiply, which keeps verification below the cost of the
//! read on the paged miss path.
//!
//! The successor plane is optional on disk: with flag bit0 clear the
//! graph section must be present, and readers re-derive each target's
//! successor column on demand via the reverse-BFS derivation (counted by
//! [`successor_derivations`](crate::successor_derivations)). Paging
//! semantics: [`PagedOracle::open`](crate::PagedOracle::open) validates
//! header, footer and index up front, then reads a block only when a
//! query touches it, verifying the block checksum on first touch
//! ([`SnapshotError::BlockCorrupt`] names the failing index entry) and
//! keeping a byte-budgeted LRU resident set.
//!
//! **Migration:** `congest-serve make-snapshot --from old.snap --format
//! v2` rewrites a v1 snapshot as v2 ([`Oracle::load`] accepts both, so
//! the eager path needs no migration for v1). Blocked files of on-disk
//! version 2, which sealed everything with FNV-1a, are rejected by both
//! loaders with `UnsupportedVersion { found: 2 }`; re-make them from the
//! graph with `make-snapshot`.
//!
//! ## Durability
//!
//! Every `save` variant writes a same-directory temp file, fsyncs and
//! atomically renames it over the target, so a concurrent reader (the
//! serve-side snapshot watcher) can never observe a half-written file.
//!
//! Loading is strictly validated and never panics on malformed input:
//! truncation, bad magic, unknown version, weight-type mismatch, checksum
//! failure and out-of-range successor ids all surface as [`SnapshotError`].

use crate::oracle::{Oracle, NO_SUCC};
use congest_graph::{NodeId, Weight, F64};
use std::hash::Hasher;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Magic bytes identifying an oracle snapshot.
pub const MAGIC: &[u8; 8] = b"CGSTORCL";
/// The monolithic (v1) snapshot format version.
pub const VERSION: u16 = 1;
/// The on-disk version of the blocked, out-of-core (v2) snapshot format.
/// Version 2 sealed it with FNV-1a; version 3 uses [`block_checksum`].
pub const VERSION_V2: u16 = 3;
pub(crate) const HEADER_LEN: usize = 20;
const CHECKSUM_LEN: usize = 8;

/// A weight type with a canonical, portable 8-byte encoding, snapshottable
/// into the binary format.
pub trait PortableWeight: Weight {
    /// One-byte tag identifying the weight type in the snapshot header, so
    /// a `u64` snapshot cannot be silently decoded as `F64`.
    const TAG: u8;

    /// Canonical little-endian 8-byte encoding.
    fn encode(self) -> [u8; 8];

    /// Inverse of [`encode`](PortableWeight::encode); `None` when the bytes
    /// are not a valid weight (e.g. NaN for floats).
    fn decode(bytes: [u8; 8]) -> Option<Self>;
}

impl PortableWeight for u64 {
    const TAG: u8 = 1;

    fn encode(self) -> [u8; 8] {
        self.to_le_bytes()
    }

    fn decode(bytes: [u8; 8]) -> Option<Self> {
        Some(u64::from_le_bytes(bytes))
    }
}

impl PortableWeight for u32 {
    const TAG: u8 = 2;

    fn encode(self) -> [u8; 8] {
        u64::from(self).to_le_bytes()
    }

    fn decode(bytes: [u8; 8]) -> Option<Self> {
        u32::try_from(u64::from_le_bytes(bytes)).ok()
    }
}

impl PortableWeight for F64 {
    const TAG: u8 = 3;

    fn encode(self) -> [u8; 8] {
        self.get().to_bits().to_le_bytes()
    }

    fn decode(bytes: [u8; 8]) -> Option<Self> {
        let v = f64::from_bits(u64::from_le_bytes(bytes));
        (!v.is_nan() && v >= 0.0).then(|| F64::new(v))
    }
}

/// Why a snapshot failed to load (or save).
#[derive(Debug)]
pub enum SnapshotError {
    /// Fewer bytes than the header + arenas + checksum require.
    Truncated {
        /// Bytes the snapshot should contain.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// Extra bytes after the checksum trailer.
    TrailingData {
        /// Bytes the snapshot should contain.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The leading magic bytes are not [`MAGIC`].
    BadMagic,
    /// The format version is not one this build reads (1 or
    /// [`VERSION_V2`]).
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
    },
    /// The snapshot was written with a different weight type.
    WeightTypeMismatch {
        /// Tag found in the header.
        found: u8,
        /// Tag of the weight type being loaded.
        expected: u8,
    },
    /// The trailer checksum does not match the content.
    ChecksumMismatch,
    /// A single v2 block failed validation — its checksum does not match
    /// or its payload does not decode. `block` is the position of the
    /// failing entry in the snapshot's index (dist blocks first, then
    /// successor blocks, then the graph section).
    BlockCorrupt {
        /// Index-entry position of the failing block.
        block: u32,
        /// What went wrong with it.
        what: &'static str,
    },
    /// Structurally invalid content despite a valid checksum.
    Corrupt(&'static str),
    /// Filesystem failure while reading or writing.
    Io(std::io::Error),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated { expected, got } => {
                write!(f, "snapshot truncated: expected {expected} bytes, got {got}")
            }
            SnapshotError::TrailingData { expected, got } => {
                write!(f, "snapshot has trailing data: expected {expected} bytes, got {got}")
            }
            SnapshotError::BadMagic => write!(f, "not an oracle snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (this build reads {VERSION} and {VERSION_V2})"
                )
            }
            SnapshotError::WeightTypeMismatch { found, expected } => {
                write!(f, "snapshot weight tag {found} does not match expected {expected}")
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::BlockCorrupt { block, what } => {
                write!(f, "snapshot block {block} corrupt: {what}")
            }
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Checks that every successor chain in target `v`'s column reaches `v`
/// (no cycles, no dead ends). Chains are memoized, so the whole column is
/// O(n): each node is walked at most once across all starting points.
fn succ_chains_terminate(n: usize, v: usize, col: &[NodeId]) -> bool {
    /// Per-node memo: unknown / on the current walk / proven to reach `v`.
    #[derive(Copy, Clone, PartialEq)]
    enum Mark {
        Unknown,
        InProgress,
        Ok,
    }
    let mut mark = vec![Mark::Unknown; n];
    mark[v] = Mark::Ok;
    let mut walk = Vec::new();
    for start in 0..n {
        if mark[start] != Mark::Unknown || col[start] == NO_SUCC {
            continue;
        }
        walk.clear();
        let mut cur = start;
        loop {
            match mark[cur] {
                Mark::Ok => break,
                Mark::InProgress => return false, // cycle
                Mark::Unknown => {}
            }
            let nxt = col[cur];
            if nxt == NO_SUCC {
                // Dead end before reaching `v` (cross-invariant already
                // rules this out for consistent snapshots, but stay safe).
                return false;
            }
            mark[cur] = Mark::InProgress;
            walk.push(cur);
            cur = nxt as usize;
        }
        for &u in &walk {
            mark[u] = Mark::Ok;
        }
    }
    true
}

/// Cross-arena invariants shared by the snapshot loader and
/// [`Oracle::from_dist`]'s supplied-plane path: a successor exists iff the
/// pair is distinct and reachable, and every successor chain terminates at
/// its target. Returns the first violated invariant's description.
pub(crate) fn check_plane<W: Weight>(
    n: usize,
    dist: &[W],
    succ: &[NodeId],
) -> Result<(), &'static str> {
    for v in 0..n {
        for u in 0..n {
            let has_succ = succ[v * n + u] != NO_SUCC;
            let reachable = u != v && !dist[u * n + v].is_inf();
            if has_succ != reachable {
                return Err("successor/distance mismatch");
            }
        }
    }
    for v in 0..n {
        if !succ_chains_terminate(n, v, &succ[v * n..(v + 1) * n]) {
            return Err("successor chain does not reach its target");
        }
    }
    Ok(())
}

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a 64 as a streaming [`Hasher`]: the v1 trailer checksum.
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64-bit over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

/// Multiplier applied to the running state of the blocked format's hash.
const BLOCK_P1: u64 = 0x9E37_79B1_85EB_CA87;
/// Multiplier applied to each input word before it meets the state.
const BLOCK_P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
/// The state every lane starts from before its lane number is folded in.
const BLOCK_SEED: u64 = 0x27D4_EB2F_1656_67C5;

/// One step of the blocked format's word hash. Both multipliers are odd,
/// so for a fixed `word` the step is a bijection of `state`, and for a
/// fixed `state` a bijection of `word`. Multiplying only carries upward;
/// the rotation between the two multiplies brings the top bits back
/// down, so no bit of a word reaches the next step as a fixed,
/// data-independent difference that a later word could cancel.
#[inline(always)]
fn mix_word(state: u64, word: u64) -> u64 {
    state.wrapping_add(word.wrapping_mul(BLOCK_P2)).rotate_left(31).wrapping_mul(BLOCK_P1)
}

/// Independent hash lanes, one 8-byte word each per stripe.
const LANES: usize = 4;
/// Bytes consumed per step of all lanes.
const STRIPE: usize = LANES * 8;

/// Streaming form of [`block_checksum`]: whatever way the input is split
/// across [`write`](Hasher::write) calls, the result equals the one-shot
/// value. Carries at most `STRIPE - 1` bytes between calls, so a writer
/// hashing a block on its way out never buffers the block.
pub(crate) struct BlockHasher {
    lanes: [u64; LANES],
    pending: [u8; STRIPE],
    pending_len: usize,
    len: u64,
}

impl Default for BlockHasher {
    fn default() -> Self {
        BlockHasher {
            lanes: std::array::from_fn(|i| mix_word(BLOCK_SEED, i as u64)),
            pending: [0; STRIPE],
            pending_len: 0,
            len: 0,
        }
    }
}

impl BlockHasher {
    /// Folds whole stripes (`data.len()` is a multiple of `STRIPE`).
    fn stripes(&mut self, data: &[u8]) {
        let word = |s: &[u8], i: usize| {
            u64::from_le_bytes(s[i * 8..i * 8 + 8].try_into().expect("8 bytes"))
        };
        let [mut a, mut b, mut c, mut d] = self.lanes;
        for stripe in data.chunks_exact(STRIPE) {
            a = mix_word(a, word(stripe, 0));
            b = mix_word(b, word(stripe, 1));
            c = mix_word(c, word(stripe, 2));
            d = mix_word(d, word(stripe, 3));
        }
        self.lanes = [a, b, c, d];
    }
}

impl Hasher for BlockHasher {
    fn write(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = (STRIPE - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < STRIPE {
                return;
            }
            let stripe = self.pending;
            self.stripes(&stripe);
            self.pending_len = 0;
        }
        let whole = bytes.len() - bytes.len() % STRIPE;
        self.stripes(&bytes[..whole]);
        let rest = &bytes[whole..];
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    fn finish(&self) -> u64 {
        let mut h = self.lanes[0];
        for &lane in &self.lanes[1..] {
            h = mix_word(h, lane);
        }
        for tail in self.pending[..self.pending_len].chunks(8) {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            h = mix_word(h, u64::from_le_bytes(word));
        }
        mix_word(h, self.len)
    }
}

/// The blocked snapshot format's checksum (header, every block, index and
/// footer; see the module docs for its definition). A 4-lane,
/// word-at-a-time hash: every step is a bijection of the state,
/// so two equal-length inputs that differ in one 8-byte word — in
/// particular in one bit — always hash differently.
#[must_use]
pub fn block_checksum(bytes: &[u8]) -> u64 {
    let mut h = BlockHasher::default();
    h.write(bytes);
    h.finish()
}

/// A [`Write`] adapter folding every byte it forwards into a running
/// hash, so streaming encoders can emit a checksum without buffering the
/// bytes it covers. Partial writes are absorbed internally (`write`
/// forwards via `write_all`), keeping the hash in lockstep with the
/// stream.
pub(crate) struct HashWriter<Wr, H> {
    inner: Wr,
    hasher: H,
}

impl<Wr: Write, H: Hasher + Default> HashWriter<Wr, H> {
    pub(crate) fn new(inner: Wr) -> Self {
        HashWriter { inner, hasher: H::default() }
    }

    /// The hash of every byte written so far.
    pub(crate) fn hash(&self) -> u64 {
        self.hasher.finish()
    }

    /// Bypasses hashing: writes trailer bytes (e.g. the checksum itself)
    /// that must not fold into the running hash.
    pub(crate) fn write_unhashed(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.inner.write_all(bytes)
    }
}

impl<Wr: Write, H: Hasher> Write for HashWriter<Wr, H> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.inner.write_all(buf)?;
        self.hasher.write(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Atomically replaces `path`: streams the snapshot into a same-directory
/// temp file, fsyncs it, then renames it over the target, so a concurrent
/// reader (the serve-side watcher) sees either the old complete file or
/// the new complete file — never a partial write. The temp file is
/// removed on failure.
pub(crate) fn atomic_write(
    path: &Path,
    write_fn: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> Result<(), SnapshotError>,
) -> Result<(), SnapshotError> {
    // Unique per (process, call): concurrent savers in one process — or
    // two processes saving into one directory — never share a temp file.
    static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or(SnapshotError::Corrupt("snapshot path has no file name"))?;
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    let tmp = dir.join(format!(
        ".{name}.tmp.{}.{}",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let result = (|| {
        let file = std::fs::File::create(&tmp).map_err(SnapshotError::Io)?;
        let mut w = std::io::BufWriter::new(file);
        write_fn(&mut w)?;
        w.flush().map_err(SnapshotError::Io)?;
        // Data must be durable *before* the rename publishes it: a crash
        // between rename and writeback must not leave a torn target.
        w.get_ref().sync_all().map_err(SnapshotError::Io)?;
        std::fs::rename(&tmp, path).map_err(SnapshotError::Io)
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    } else {
        // Best effort: persist the directory entry too. Failure here
        // (e.g. an unsyncable filesystem) does not un-publish the data.
        if let Ok(d) = std::fs::File::open(dir) {
            d.sync_all().ok();
        }
    }
    result
}

/// Encoding chunk size for the streaming writers: big enough to amortize
/// `Write` dispatch, small enough to keep peak extra memory trivial.
pub(crate) const ENCODE_CHUNK: usize = 64 * 1024;

impl<W: PortableWeight> Oracle<W> {
    /// Serializes the oracle into the monolithic v1 snapshot format.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.n();
        let mut buf = Vec::with_capacity(HEADER_LEN + n * n * 12 + CHECKSUM_LEN);
        self.save_to(&mut buf).expect("writing to a Vec cannot fail");
        buf
    }

    /// Streams the v1 snapshot into `w`, encoding block-by-block: peak
    /// extra memory is one small chunk buffer instead of the full n²×12
    /// image [`to_bytes`](Oracle::to_bytes) materializes — the shape that
    /// matters at exactly the sizes the blocked v2 format targets.
    ///
    /// # Errors
    /// Propagates `w`'s failures as [`SnapshotError::Io`].
    pub fn save_to(&self, w: impl Write) -> Result<(), SnapshotError> {
        let n = self.n();
        let mut fw = HashWriter::<_, Fnv1a>::new(w);
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.push(W::TAG);
        header.push(0); // flags, reserved
        header.extend_from_slice(&(n as u64).to_le_bytes());
        fw.write_all(&header).map_err(SnapshotError::Io)?;
        let mut chunk: Vec<u8> = Vec::with_capacity(ENCODE_CHUNK);
        for &d in self.dist_arena() {
            chunk.extend_from_slice(&d.encode());
            if chunk.len() >= ENCODE_CHUNK {
                fw.write_all(&chunk).map_err(SnapshotError::Io)?;
                chunk.clear();
            }
        }
        for &s in self.succ_arena() {
            chunk.extend_from_slice(&s.to_le_bytes());
            if chunk.len() >= ENCODE_CHUNK {
                fw.write_all(&chunk).map_err(SnapshotError::Io)?;
                chunk.clear();
            }
        }
        fw.write_all(&chunk).map_err(SnapshotError::Io)?;
        let sum = fw.hash();
        fw.write_unhashed(&sum.to_le_bytes()).map_err(SnapshotError::Io)?;
        Ok(())
    }

    /// Deserializes a snapshot in either format — monolithic v1
    /// ([`to_bytes`](Oracle::to_bytes)) or blocked v2
    /// ([`to_bytes_v2`](Oracle::to_bytes_v2)) — dispatching on the header
    /// version. v2 input is loaded eagerly: every block checksum is
    /// verified, and when the successor plane was dropped on disk it is
    /// re-derived from the embedded graph (one
    /// [`successor_derivations`](crate::successor_derivations) tick).
    ///
    /// # Errors
    /// Returns a [`SnapshotError`] (never panics) on truncated, corrupted,
    /// version-mismatched or wrong-weight-type input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let min_len = HEADER_LEN + CHECKSUM_LEN;
        if bytes.len() < min_len {
            return Err(SnapshotError::Truncated { expected: min_len, got: bytes.len() });
        }
        if &bytes[0..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[8], bytes[9]]);
        if version == VERSION_V2 {
            return crate::format_v2::from_bytes_v2(bytes);
        }
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion { found: version });
        }
        if bytes[10] != W::TAG {
            return Err(SnapshotError::WeightTypeMismatch { found: bytes[10], expected: W::TAG });
        }
        let n_raw = u64::from_le_bytes(bytes[12..20].try_into().expect("8 header bytes"));
        let n = usize::try_from(n_raw)
            .ok()
            .filter(|&n| n <= u32::MAX as usize / 4)
            .ok_or(SnapshotError::Corrupt("node count out of range"))?;
        let cells = n
            .checked_mul(n)
            .and_then(|c| c.checked_mul(12))
            .ok_or(SnapshotError::Corrupt("arena size overflows"))?;
        let expected = HEADER_LEN + cells + CHECKSUM_LEN;
        if bytes.len() < expected {
            return Err(SnapshotError::Truncated { expected, got: bytes.len() });
        }
        if bytes.len() > expected {
            return Err(SnapshotError::TrailingData { expected, got: bytes.len() });
        }
        let body = &bytes[..expected - CHECKSUM_LEN];
        let stored =
            u64::from_le_bytes(bytes[expected - CHECKSUM_LEN..].try_into().expect("8 bytes"));
        if fnv1a(body) != stored {
            return Err(SnapshotError::ChecksumMismatch);
        }

        let dist_bytes = &bytes[HEADER_LEN..HEADER_LEN + n * n * 8];
        let mut dist = Vec::with_capacity(n * n);
        for chunk in dist_bytes.chunks_exact(8) {
            let w = W::decode(chunk.try_into().expect("8-byte chunk"))
                .ok_or(SnapshotError::Corrupt("invalid weight encoding"))?;
            dist.push(w);
        }
        let succ_bytes = &bytes[HEADER_LEN + n * n * 8..expected - CHECKSUM_LEN];
        let mut succ = Vec::with_capacity(n * n);
        for chunk in succ_bytes.chunks_exact(4) {
            let s = NodeId::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
            if s != NO_SUCC && s as usize >= n {
                return Err(SnapshotError::Corrupt("successor id out of range"));
            }
            succ.push(s);
        }
        // Cross-arena invariants (keep `path` panic-free and queries
        // self-consistent on loaded snapshots): zero diagonal, a successor
        // exists iff the pair is distinct and reachable, and every
        // successor chain terminates at its target.
        for u in 0..n {
            if dist[u * n + u] != W::ZERO {
                return Err(SnapshotError::Corrupt("nonzero diagonal distance"));
            }
        }
        check_plane(n, &dist, &succ).map_err(SnapshotError::Corrupt)?;
        Ok(Oracle::from_parts(n, dist.into_boxed_slice(), succ.into_boxed_slice()))
    }

    /// Writes the v1 snapshot to `path` **atomically**: the bytes are
    /// streamed into a same-directory temp file, fsynced, then renamed
    /// over the target. A concurrent reader — in particular the serve
    /// watcher, which fingerprints and reloads on change — can never
    /// observe a half-written snapshot.
    ///
    /// # Errors
    /// Propagates filesystem failures as [`SnapshotError::Io`].
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        atomic_write(path.as_ref(), |w| self.save_to(w))
    }

    /// Reads a snapshot (either format; see
    /// [`from_bytes`](Oracle::from_bytes)) from `path`.
    ///
    /// # Errors
    /// Propagates filesystem failures and every
    /// [`from_bytes`](Oracle::from_bytes) validation error.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        Self::from_bytes(&std::fs::read(path).map_err(SnapshotError::Io)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators::{gnm_connected, WeightDist};
    use congest_graph::seq::apsp_dijkstra;

    fn sample_oracle() -> Oracle<u64> {
        let g = gnm_connected(12, 24, true, WeightDist::Uniform(0, 9), 9);
        Oracle::from_dist(&g, apsp_dijkstra(&g))
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let o = sample_oracle();
        let bytes = o.to_bytes();
        let o2 = Oracle::<u64>::from_bytes(&bytes).unwrap();
        assert_eq!(o, o2);
        assert_eq!(bytes, o2.to_bytes());
    }

    #[test]
    fn f64_round_trip() {
        let g = gnm_connected(8, 16, false, WeightDist::Uniform(1, 5), 4);
        let gf = g.map_weights(|w| F64::new(w as f64 * 0.5));
        let o = Oracle::from_dist(&gf, apsp_dijkstra(&gf));
        let o2 = Oracle::<F64>::from_bytes(&o.to_bytes()).unwrap();
        assert_eq!(o, o2);
    }

    #[test]
    fn truncation_is_an_error_at_every_length() {
        let bytes = sample_oracle().to_bytes();
        // Sample a spread of prefixes, including header-interior cuts.
        for cut in [0, 1, 7, 8, 11, 19, 20, 21, bytes.len() / 2, bytes.len() - 1] {
            let err = Oracle::<u64>::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated { .. } | SnapshotError::BadMagic),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut bytes = sample_oracle().to_bytes();
        bytes[8] = 99;
        assert!(matches!(
            Oracle::<u64>::from_bytes(&bytes).unwrap_err(),
            SnapshotError::UnsupportedVersion { found: 99 }
        ));
    }

    #[test]
    fn weight_tag_mismatch_rejected() {
        let bytes = sample_oracle().to_bytes();
        assert!(matches!(
            Oracle::<F64>::from_bytes(&bytes).unwrap_err(),
            SnapshotError::WeightTypeMismatch { found: 1, expected: 3 }
        ));
    }

    #[test]
    fn bit_flip_detected() {
        let mut bytes = sample_oracle().to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            Oracle::<u64>::from_bytes(&bytes).unwrap_err(),
            SnapshotError::ChecksumMismatch
        ));
    }

    #[test]
    fn trailing_data_rejected() {
        let mut bytes = sample_oracle().to_bytes();
        bytes.push(0);
        assert!(matches!(
            Oracle::<u64>::from_bytes(&bytes).unwrap_err(),
            SnapshotError::TrailingData { .. }
        ));
    }

    #[test]
    fn garbage_rejected() {
        assert!(matches!(
            Oracle::<u64>::from_bytes(b"definitely not a snapshot at all").unwrap_err(),
            SnapshotError::BadMagic
        ));
        assert!(matches!(
            Oracle::<u64>::from_bytes(b"short").unwrap_err(),
            SnapshotError::Truncated { .. }
        ));
    }

    #[test]
    fn nonzero_diagonal_snapshot_rejected() {
        // Checksum-valid n = 2 snapshot claiming δ(0,0) = INF: per-cell
        // fields are fine, but the diagonal invariant must be enforced.
        let n = 2usize;
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.push(<u64 as PortableWeight>::TAG);
        buf.push(0);
        buf.extend_from_slice(&(n as u64).to_le_bytes());
        for d in [u64::INF, 1, 1, 0] {
            buf.extend_from_slice(&d.encode());
        }
        for s in [NO_SUCC, 0, 1, NO_SUCC] {
            buf.extend_from_slice(&s.to_le_bytes());
        }
        let sum = fnv1a(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            Oracle::<u64>::from_bytes(&buf).unwrap_err(),
            SnapshotError::Corrupt("nonzero diagonal distance")
        ));
    }

    #[test]
    fn cyclic_successor_snapshot_rejected() {
        // Hand-craft a checksum-valid n = 2 snapshot where node 0's
        // successor toward target 1 is node 0 itself: structurally valid
        // per-cell, but the path walk would never terminate.
        let n = 2usize;
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.push(<u64 as PortableWeight>::TAG);
        buf.push(0);
        buf.extend_from_slice(&(n as u64).to_le_bytes());
        for d in [0u64, 1, 1, 0] {
            buf.extend_from_slice(&d.encode());
        }
        // Target-major: toward 0: [NO_SUCC, 0]; toward 1: [0 (cycle!), NO_SUCC].
        for s in [NO_SUCC, 0, 0, NO_SUCC] {
            buf.extend_from_slice(&s.to_le_bytes());
        }
        let sum = fnv1a(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            Oracle::<u64>::from_bytes(&buf).unwrap_err(),
            SnapshotError::Corrupt("successor chain does not reach its target")
        ));
    }

    #[test]
    fn save_load_file_round_trip() {
        let o = sample_oracle();
        let path = std::env::temp_dir().join("congest_oracle_snapshot_test.bin");
        o.save(&path).unwrap();
        let o2 = Oracle::<u64>::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(o, o2);
    }

    /// Deterministic filler bytes; no two words alike.
    fn filler(len: usize) -> Vec<u8> {
        (0..len as u64).map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8).collect()
    }

    #[test]
    fn block_hash_matches_the_documented_definition() {
        // Golden values from an independent implementation of the
        // definition in the module docs: pins the on-disk format.
        assert_eq!(block_checksum(b""), 0xedf7_341d_a3f2_e6e8);
        assert_eq!(block_checksum(b"CGSTORCL"), 0xa15a_dfa0_81cd_6f43);
        let counting: Vec<u8> = (0..100).collect();
        assert_eq!(block_checksum(&counting), 0x1163_174e_d9d7_e339);
    }

    #[test]
    fn block_hash_streaming_matches_one_shot_at_every_split() {
        // 64 + t covers every tail length t in 0..32; 9 + 16m is a graph
        // section (tail 9 or 25); rows·n·4 with rows·n odd is a successor
        // block (tail 4, 12, 20 or 28).
        let mut lens: Vec<usize> = (0..32).map(|t| 64 + t).collect();
        lens.extend([0, 1, 8, 31, 32, 33]);
        lens.extend([9 + 16 * 3, 9 + 16 * 4, 9 + 16 * 41]);
        lens.extend([3 * 5 * 4, 7 * 13 * 4, 9 * 4]);
        for len in lens {
            let data = filler(len);
            let want = block_checksum(&data);
            for split in 0..=len {
                let mut h = BlockHasher::default();
                h.write(&data[..split]);
                h.write(&data[split..]);
                assert_eq!(h.finish(), want, "len {len}, split at {split}");
            }
            let mut h = BlockHasher::default();
            for b in &data {
                h.write(std::slice::from_ref(b));
            }
            assert_eq!(h.finish(), want, "len {len}, one byte per write");
        }
    }

    #[test]
    fn block_hash_detects_every_single_bit_flip() {
        for len in [1usize, 8, 31, 32, 77] {
            let data = filler(len);
            let clean = block_checksum(&data);
            for bit in 0..len * 8 {
                let mut d = data.clone();
                d[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(block_checksum(&d), clean, "len {len}, bit {bit}");
            }
        }
        // Zero padding of the tail is disambiguated by the folded length.
        assert_ne!(block_checksum(&[]), block_checksum(&[0]));
        assert_ne!(block_checksum(&[0; 8]), block_checksum(&[0; 16]));
    }

    #[test]
    fn block_hash_detects_two_bit_flips_and_top_byte_damage() {
        // A bare `(s ^ w) · P` step passes a flip of bit 63 through to bit
        // 63 of every later state, so the same flip in any second word
        // cancels it. Every pair of bits over two stripes and a tail word:
        let mut data = filler(72);
        let clean = block_checksum(&data);
        let flip = |d: &mut [u8], bit: usize| d[bit / 8] ^= 1 << (bit % 8);
        for a in 0..data.len() * 8 {
            flip(&mut data, a);
            for b in a + 1..data.len() * 8 {
                flip(&mut data, b);
                assert_ne!(block_checksum(&data), clean, "bits {a} and {b}");
                flip(&mut data, b);
            }
            flip(&mut data, a);
        }
        // Bit 63 and the whole top byte of every pair of words, over five
        // stripes and two tail words.
        let mut data = filler(22 * 8);
        let clean = block_checksum(&data);
        for mask in [0x80u8, 0xFF] {
            for i in 0..22 {
                data[i * 8 + 7] ^= mask;
                for j in i + 1..22 {
                    data[j * 8 + 7] ^= mask;
                    assert_ne!(block_checksum(&data), clean, "words {i} and {j}, mask {mask:#x}");
                    data[j * 8 + 7] ^= mask;
                }
                data[i * 8 + 7] ^= mask;
            }
        }
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = Oracle::<u64>::load("/nonexistent/oracle.snap").unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)));
        assert!(std::error::Error::source(&err).is_some());
    }
}
