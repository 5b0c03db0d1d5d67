//! The block wire format — one shared serialization path for every
//! collective and point-to-point exchange of matrix blocks.
//!
//! Historically each call site (result scatter, transpose, Cannon tile
//! shifts, block fetches) hand-rolled its own `(meta, data)` packing; this
//! module is now the single public API. The format is unchanged: meta is
//! `[count, br_0, bc_0, br_1, bc_1, ...]` and data concatenates the
//! column-major block contents in the same order (block shapes are implied
//! by the partition, so they are never transmitted).
//!
//! Tag discipline: `sm-comsim` reserves the top tag bit
//! ([`sm_comsim::COLLECTIVE_BIT`]) for its internal collective traffic.
//! Every tagged send issued from this crate goes through [`user_tag`],
//! which rejects tags trespassing on the reserved namespace at the call
//! site instead of deep inside a communicator assert.

use std::collections::BTreeMap;

use sm_comsim::{Comm, Payload, COLLECTIVE_BIT, SUBGROUP_BIT};
use sm_linalg::Matrix;

use crate::dims::BlockedDims;
use crate::local::{BlockCoord, BlockStore};

/// Validate a user-chosen message tag against the communicator's reserved
/// namespaces.
///
/// # Panics
/// Panics if `tag` sets [`COLLECTIVE_BIT`] (it could cross-match internal
/// collective traffic and corrupt an unrelated allgather) or
/// [`SUBGROUP_BIT`] (reserved for subcommunicator traffic; see
/// `sm_comsim::subcomm`). The guard applies unchanged *inside* a subgroup:
/// a `SubComm` rewrites these low-bit user tags into its own namespace and
/// enforces the same two reservations one level down.
#[inline]
pub fn user_tag(tag: u64) -> u64 {
    assert!(
        tag & COLLECTIVE_BIT == 0,
        "tag {tag:#x} trespasses on the reserved collective namespace"
    );
    assert!(
        tag & SUBGROUP_BIT == 0,
        "tag {tag:#x} trespasses on the reserved subgroup namespace"
    );
    tag
}

/// Element encoding of a block-value payload. `F64` is the historical
/// format; `F32` halves the value bytes for evaluations whose numeric phase
/// runs in single precision (`Precision::Fp32*` — see `sm_linalg::elem`).
///
/// The format is **self-describing**: the packer sets [`F32_FORMAT_BIT`]
/// in the meta header's count word, and [`unpack_blocks_prec`] rejects a
/// meta/payload combination whose flags disagree — a mixed-precision
/// protocol error surfaces at the unpack site, not as silent garbage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueFormat {
    /// 8-byte elements (exact).
    F64,
    /// 4-byte elements (values rounded through `f32` storage).
    F32,
}

impl ValueFormat {
    /// Bytes per element on the wire.
    pub fn elem_bytes(&self) -> usize {
        match self {
            ValueFormat::F64 => 8,
            ValueFormat::F32 => 4,
        }
    }
}

/// Bit set in the meta count word (`meta[0]`) when the companion data
/// payload is `f32`-encoded. Block counts are far below 2⁶², so the flag
/// can never collide with a real count.
pub const F32_FORMAT_BIT: u64 = 1 << 62;

/// Serialize blocks into a meta vector plus a value payload in the given
/// [`ValueFormat`]. `F32` rounds every element through single precision
/// and moves half the bytes.
pub fn pack_blocks_prec<'a>(
    blocks: impl Iterator<Item = (&'a BlockCoord, &'a Matrix)>,
    format: ValueFormat,
) -> (Vec<u64>, Payload) {
    let mut meta = vec![0u64];
    let mut count = 0u64;
    match format {
        ValueFormat::F64 => {
            let mut data: Vec<f64> = Vec::new();
            for (&(br, bc), blk) in blocks {
                meta.push(br as u64);
                meta.push(bc as u64);
                data.extend_from_slice(blk.as_slice());
                count += 1;
            }
            meta[0] = count;
            (meta, Payload::F64(data))
        }
        ValueFormat::F32 => {
            let mut data: Vec<f32> = Vec::new();
            for (&(br, bc), blk) in blocks {
                meta.push(br as u64);
                meta.push(bc as u64);
                data.extend(blk.as_slice().iter().map(|&v| v as f32));
                count += 1;
            }
            meta[0] = count | F32_FORMAT_BIT;
            (meta, Payload::F32(data))
        }
    }
}

/// Inverse of [`pack_blocks_prec`] for either value format: reconstruct
/// `(coord, block)` pairs using the partition to recover block shapes. The
/// meta header's format flag must agree with the payload variant.
pub fn unpack_blocks_prec(
    dims: &BlockedDims,
    meta: &[u64],
    payload: Payload,
) -> Vec<(BlockCoord, Matrix)> {
    if meta.is_empty() {
        return Vec::new();
    }
    let tagged_f32 = meta[0] & F32_FORMAT_BIT != 0;
    match (tagged_f32, payload) {
        (false, Payload::F64(data)) => unpack_into(
            dims,
            meta,
            |off, len| data[off..off + len].to_vec(),
            data.len(),
        ),
        (true, Payload::F32(data)) => unpack_into(
            dims,
            meta,
            |off, len| data[off..off + len].iter().map(|&v| v as f64).collect(),
            data.len(),
        ),
        (_, other) => panic!(
            "unpack_blocks_prec: {}-tagged meta with {} payload",
            if tagged_f32 { "f32" } else { "f64" },
            match other {
                Payload::F64(_) => "an f64",
                Payload::F32(_) => "an f32",
                Payload::U64(_) => "a u64",
            }
        ),
    }
}

/// Shared meta walk of the unpackers: `read(offset, len)` materializes the
/// column-major values of one block.
fn unpack_into(
    dims: &BlockedDims,
    meta: &[u64],
    read: impl Fn(usize, usize) -> Vec<f64>,
    data_len: usize,
) -> Vec<(BlockCoord, Matrix)> {
    let count = (meta[0] & !F32_FORMAT_BIT) as usize;
    let mut out = Vec::with_capacity(count);
    let mut off = 0usize;
    for k in 0..count {
        let br = meta[1 + 2 * k] as usize;
        let bc = meta[2 + 2 * k] as usize;
        let (rows, cols) = (dims.size(br), dims.size(bc));
        let len = rows * cols;
        let blk = Matrix::from_col_major(rows, cols, read(off, len));
        off += len;
        out.push(((br, bc), blk));
    }
    assert_eq!(off, data_len, "unpack_blocks: trailing data");
    out
}

/// Route per-destination block maps to their ranks with one all-to-all
/// exchange (collective) in the given value encoding and return every
/// block received, already deserialized. `outgoing[d]` is delivered to
/// rank `d`; the entry for the calling rank is returned locally without
/// serialization. Additionally returns the **value-payload bytes this rank
/// sent to remote ranks** — the deterministic per-rank byte counter the
/// engine's precision telemetry reports (meta traffic and local
/// passthrough excluded).
pub fn exchange_blocks_prec<C: Comm>(
    outgoing: Vec<BTreeMap<BlockCoord, Matrix>>,
    dims: &BlockedDims,
    format: ValueFormat,
    comm: &C,
) -> (Vec<(BlockCoord, Matrix)>, u64) {
    assert_eq!(
        outgoing.len(),
        comm.size(),
        "exchange_blocks needs one outgoing map per rank"
    );
    if comm.size() == 1 {
        // Everything is local: nothing to pack, move or count.
        return (outgoing.into_iter().flatten().collect(), 0);
    }
    let mut local: Vec<(BlockCoord, Matrix)> = Vec::new();
    let mut metas: Vec<Payload> = Vec::with_capacity(outgoing.len());
    let mut datas: Vec<Payload> = Vec::with_capacity(outgoing.len());
    let mut value_bytes = 0u64;
    let (empty_meta, empty_data) = match format {
        ValueFormat::F64 => (0u64, Payload::F64(Vec::new())),
        ValueFormat::F32 => (F32_FORMAT_BIT, Payload::F32(Vec::new())),
    };
    for (dst, m) in outgoing.into_iter().enumerate() {
        if dst == comm.rank() {
            local.extend(m);
            metas.push(Payload::U64(vec![empty_meta]));
            datas.push(empty_data.clone());
        } else {
            let (meta, data) = pack_blocks_prec(m.iter(), format);
            value_bytes += data.byte_len() as u64;
            metas.push(Payload::U64(meta));
            datas.push(data);
        }
    }
    let metas_in = comm.alltoallv(metas);
    let datas_in = comm.alltoallv(datas);
    let mut out = local;
    for (meta, data) in metas_in.into_iter().zip(datas_in) {
        out.extend(unpack_blocks_prec(dims, &meta.into_u64(), data));
    }
    (out, value_bytes)
}

/// Send a block store to `dst` and receive one from `src` over a pair of
/// tagged point-to-point messages (the Cannon tile-shift primitive).
/// Returns the received store plus the number of payload bytes sent.
pub fn shift_store<C: Comm>(
    store: &BlockStore,
    dims: &BlockedDims,
    dst: usize,
    src: usize,
    tag_meta: u64,
    tag_data: u64,
    comm: &C,
) -> (BlockStore, u64) {
    let (tag_meta, tag_data) = (user_tag(tag_meta), user_tag(tag_data));
    assert_ne!(
        tag_meta, tag_data,
        "meta and data streams need distinct tags"
    );
    let (meta, data) = pack_blocks_prec(store.iter(), ValueFormat::F64);
    let bytes = (meta.len() * 8 + data.byte_len()) as u64;
    comm.send(dst, tag_meta, Payload::U64(meta));
    comm.send(dst, tag_data, data);
    let meta_in = comm.recv(src, tag_meta).into_u64();
    let data_in = comm.recv(src, tag_data);
    (
        unpack_blocks_prec(dims, &meta_in, data_in)
            .into_iter()
            .collect(),
        bytes,
    )
}

/// Order-independent 64-bit fingerprint of a block sparsity pattern plus
/// its partition.
///
/// Each `(br, bc)` coordinate is hashed independently and the per-block
/// hashes are combined commutatively (lane-wise sums), so ranks holding
/// disjoint parts of a distributed pattern can fingerprint their local
/// blocks and merge — no allgather of the full pattern is needed.
/// The partition itself (block sizes) is mixed in, so two patterns that
/// agree block-wise but partition elements differently fingerprint apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PatternFingerprint(pub u64);

/// Accumulator for building a [`PatternFingerprint`] incrementally.
///
/// Internally keeps the sum of per-block hashes split into four 16-bit
/// lanes, so the state survives a floating-point sum-allreduce exactly:
/// each lane term is < 2¹⁶, so the lane sum stays below 2⁵³ (f64-exact)
/// up to ~2³⁷ nonzero blocks — far beyond any pattern this system will
/// hold in memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FingerprintAccumulator {
    lanes: [u64; 4],
    count: u64,
}

/// SplitMix64 finalizer — the shared 64-bit mixing primitive behind the
/// pattern fingerprint and the engine's plan-cache tags.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

use mix64 as mix;

impl FingerprintAccumulator {
    /// Absorb one block coordinate.
    pub fn add_block(&mut self, br: usize, bc: usize) {
        let h = mix(((br as u64) << 32) ^ (bc as u64) ^ 0x9e37_79b9_7f4a_7c15);
        for (k, lane) in self.lanes.iter_mut().enumerate() {
            *lane += (h >> (16 * k)) & 0xffff;
        }
        self.count += 1;
    }

    /// State as exactly-representable f64 summands, ready for a
    /// `ReduceOp::Sum` allreduce across ranks.
    pub fn to_reduction(&self) -> [f64; 5] {
        [
            self.lanes[0] as f64,
            self.lanes[1] as f64,
            self.lanes[2] as f64,
            self.lanes[3] as f64,
            self.count as f64,
        ]
    }

    /// Rebuild an accumulator from (possibly reduced) summands.
    pub fn from_reduction(buf: &[f64; 5]) -> Self {
        FingerprintAccumulator {
            lanes: [buf[0] as u64, buf[1] as u64, buf[2] as u64, buf[3] as u64],
            count: buf[4] as u64,
        }
    }

    /// Finish, mixing in the partition.
    pub fn finish(&self, dims: &BlockedDims) -> PatternFingerprint {
        let mut h = self.count.wrapping_mul(0x2545_f491_4f6c_dd1d);
        for (k, lane) in self.lanes.iter().enumerate() {
            h = mix(h ^ lane.rotate_left(16 * k as u32));
        }
        h = mix(h ^ (dims.nb() as u64));
        for b in 0..dims.nb() {
            h = mix(h ^ (((b as u64) << 32) | dims.size(b) as u64));
        }
        PatternFingerprint(h)
    }
}

// ---------------------------------------------------------------------------
// Plan manifest — the on-disk spill format for cached pattern plans.
// ---------------------------------------------------------------------------

/// Schema version of the on-disk plan manifest. Bumped on any layout
/// change; [`PlanManifest::decode`] refuses to misparse an unknown
/// version. v2: plan payloads carry the pattern's element-fill fraction
/// (the sparse-backend decision input). v3: every entry carries a checksum
/// of its payload words. v4: a payload is the plan's inputs only — the
/// block partition and the global pattern — and the importer rebuilds the
/// plan from them after checking they hash to the entry's fingerprint. v5:
/// one entry per pattern, with no rank and no communicator size — the
/// importer restores the pattern, and any rank of any world derives its
/// view from it.
pub const PLAN_MANIFEST_SCHEMA_VERSION: u32 = 5;

/// Leading magic of every plan manifest (eight bytes, also the first
/// little-endian word of the container). Guards against feeding an
/// arbitrary file — a trace, a bench JSON — to the manifest decoder.
pub const PLAN_MANIFEST_MAGIC: [u8; 8] = *b"SMPLANS\0";

/// One spilled plan-cache entry, one per pattern. The payload is an opaque word stream
/// owned by the producer (the engine's plan codec); this container
/// guarantees framing, versioning, payload integrity (a checksum written
/// by [`PlanManifest::encode`] and verified by [`PlanManifest::decode`]),
/// and the LRU metadata needed to restore eviction order faithfully.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanManifestEntry {
    /// Raw pattern fingerprint ([`PatternFingerprint`] value, *not* the
    /// producer-tag-mixed cache key — the tag travels in the header).
    pub fingerprint: u64,
    /// LRU stamp at export time; import restores it so eviction order
    /// survives the restart.
    pub lru_stamp: u64,
    /// Producer-defined encoding (the engine's pattern-plan codec), opaque
    /// at this layer.
    pub words: Vec<u64>,
}

/// A versioned, self-describing spill of a plan cache: header counters
/// plus fingerprint-keyed entries. Layout (all words little-endian
/// `u64`): magic, version, producer tag, capacity (`u64::MAX` =
/// unbounded), LRU tick, lifetime evictions/hits/builds, entry count;
/// then per entry fingerprint, LRU stamp, payload length, payload
/// checksum, payload words.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PlanManifest {
    /// Producer namespace tag mixed into cache keys (the engine uses the
    /// grouping's cache tag); import rejects a manifest whose tag
    /// disagrees with the importing engine instead of serving patterns
    /// built under a different grouping policy.
    pub tag: u64,
    /// Cache capacity at export (`u64::MAX` encodes unbounded).
    pub capacity: u64,
    /// LRU clock at export; import resumes the clock at or above the
    /// newest restored stamp.
    pub tick: u64,
    /// Lifetime eviction count at export (ops visibility only).
    pub evictions: u64,
    /// Lifetime cache-hit count at export (ops visibility only).
    pub hits: u64,
    /// Lifetime symbolic-build count at export (ops visibility only).
    pub builds: u64,
    /// The spilled entries, in producer order (the engine sorts them by
    /// fingerprint so equal caches export equal bytes).
    pub entries: Vec<PlanManifestEntry>,
}

/// Typed decode failure for [`PlanManifest::decode`]: a manifest from a
/// different schema or a truncated file is rejected with a description,
/// never misparsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ManifestError {
    /// The file does not start with [`PLAN_MANIFEST_MAGIC`].
    BadMagic,
    /// Schema version differs from [`PLAN_MANIFEST_SCHEMA_VERSION`].
    VersionMismatch {
        /// Version word found in the header.
        found: u32,
        /// Version this decoder speaks.
        expected: u32,
    },
    /// The byte stream ends before the advertised content.
    Truncated {
        /// Words available.
        len: usize,
        /// Words the header/entry framing promised.
        needed: usize,
    },
    /// An entry's payload does not match the checksum stored with it: the
    /// file was damaged after it was written.
    Checksum {
        /// Index of the damaged entry.
        entry: usize,
    },
    /// Bytes follow the last advertised entry: a damaged entry count.
    TrailingBytes {
        /// Bytes the header and entries account for.
        used: usize,
        /// Bytes present.
        len: usize,
    },
}

/// Words of an entry header: fingerprint, LRU stamp, payload length,
/// payload checksum.
const ENTRY_HEADER_WORDS: usize = 4;

/// Chained [`mix64`] over an entry's payload words, seeded with their
/// count. `mix64` is a bijection, so changing any single word changes the
/// result.
fn payload_checksum(words: &[u64]) -> u64 {
    words
        .iter()
        .fold(mix64(words.len() as u64), |h, &w| mix64(h ^ w))
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::BadMagic => {
                write!(
                    f,
                    "plan manifest: missing SMPLANS magic (not a manifest file)"
                )
            }
            ManifestError::VersionMismatch { found, expected } => write!(
                f,
                "plan manifest schema v{found} but this build speaks \
                 v{expected} (PLAN_MANIFEST_SCHEMA_VERSION) — refusing to misparse"
            ),
            ManifestError::Truncated { len, needed } => write!(
                f,
                "plan manifest truncated: {len} words present, {needed} needed"
            ),
            ManifestError::Checksum { entry } => write!(
                f,
                "plan manifest entry {entry} fails its payload checksum (file damaged)"
            ),
            ManifestError::TrailingBytes { used, len } => write!(
                f,
                "plan manifest has {len} bytes but its entries end at byte {used} (file damaged)"
            ),
        }
    }
}

impl std::error::Error for ManifestError {}

impl PlanManifest {
    /// Encode to bytes (little-endian `u64` words behind the magic).
    pub fn encode(&self) -> Vec<u8> {
        let mut words: Vec<u64> = vec![
            u64::from_le_bytes(PLAN_MANIFEST_MAGIC),
            PLAN_MANIFEST_SCHEMA_VERSION as u64,
            self.tag,
            self.capacity,
            self.tick,
            self.evictions,
            self.hits,
            self.builds,
            self.entries.len() as u64,
        ];
        for e in &self.entries {
            words.extend_from_slice(&[
                e.fingerprint,
                e.lru_stamp,
                e.words.len() as u64,
                payload_checksum(&e.words),
            ]);
            words.extend_from_slice(&e.words);
        }
        let mut out = Vec::with_capacity(words.len() * 8);
        for w in words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Decode from bytes, rejecting wrong magic, unknown versions,
    /// truncation, damaged payloads and bytes past the last entry with a
    /// typed error instead of panicking.
    pub fn decode(bytes: &[u8]) -> Result<Self, ManifestError> {
        let n_words = bytes.len() / 8;
        let word = |i: usize| -> u64 {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[i * 8..i * 8 + 8]);
            u64::from_le_bytes(b)
        };
        if n_words < 1 || word(0) != u64::from_le_bytes(PLAN_MANIFEST_MAGIC) {
            return Err(ManifestError::BadMagic);
        }
        if n_words < 9 {
            return Err(ManifestError::Truncated {
                len: n_words,
                needed: 9,
            });
        }
        // The whole word: a version with high bits set is not this one.
        if word(1) != PLAN_MANIFEST_SCHEMA_VERSION as u64 {
            return Err(ManifestError::VersionMismatch {
                found: u32::try_from(word(1)).unwrap_or(u32::MAX),
                expected: PLAN_MANIFEST_SCHEMA_VERSION,
            });
        }
        let n_entries = word(8) as usize;
        let mut entries = Vec::with_capacity(n_entries.min(1024));
        let mut pos = 9usize;
        for entry in 0..n_entries {
            // `n_words - pos` cannot underflow: `pos` only ever advances to
            // an end that was checked against `n_words`.
            if n_words - pos < ENTRY_HEADER_WORDS {
                return Err(ManifestError::Truncated {
                    len: n_words,
                    needed: pos + ENTRY_HEADER_WORDS,
                });
            }
            let payload_len = word(pos + 2) as usize;
            let start = pos + ENTRY_HEADER_WORDS;
            if n_words - start < payload_len {
                return Err(ManifestError::Truncated {
                    len: n_words,
                    needed: start.saturating_add(payload_len),
                });
            }
            let words: Vec<u64> = (0..payload_len).map(|i| word(start + i)).collect();
            if payload_checksum(&words) != word(pos + 3) {
                return Err(ManifestError::Checksum { entry });
            }
            entries.push(PlanManifestEntry {
                fingerprint: word(pos),
                lru_stamp: word(pos + 1),
                words,
            });
            pos = start + payload_len;
        }
        if pos * 8 != bytes.len() {
            return Err(ManifestError::TrailingBytes {
                used: pos * 8,
                len: bytes.len(),
            });
        }
        Ok(PlanManifest {
            tag: word(2),
            capacity: word(3),
            tick: word(4),
            evictions: word(5),
            hits: word(6),
            builds: word(7),
            entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooPattern;
    use sm_comsim::SerialComm;

    fn dims3() -> BlockedDims {
        BlockedDims::new(vec![2, 3, 1])
    }

    #[test]
    fn user_tag_passes_clean_tags() {
        assert_eq!(user_tag(0), 0);
        assert_eq!(user_tag(0x3fff_ffff_ffff_ffff), 0x3fff_ffff_ffff_ffff);
    }

    #[test]
    #[should_panic(expected = "reserved collective namespace")]
    fn user_tag_rejects_collective_bit() {
        user_tag(COLLECTIVE_BIT | 3);
    }

    #[test]
    #[should_panic(expected = "reserved subgroup namespace")]
    fn user_tag_rejects_subgroup_bit() {
        user_tag(SUBGROUP_BIT | 3);
    }

    #[test]
    fn exchange_blocks_serial_is_local_passthrough() {
        let dims = dims3();
        let mut m = BTreeMap::new();
        m.insert((0usize, 0usize), Matrix::identity(2));
        let comm = SerialComm::new();
        let (got, _) = exchange_blocks_prec(vec![m], &dims, ValueFormat::F64, &comm);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, (0, 0));
        assert!(got[0].1.allclose(&Matrix::identity(2), 0.0));
    }

    #[test]
    fn f32_payload_roundtrip_rounds_through_single_precision() {
        let dims = dims3();
        let mut blocks: BTreeMap<(usize, usize), Matrix> = BTreeMap::new();
        blocks.insert(
            (0, 0),
            Matrix::from_fn(2, 2, |i, j| 0.1 * (i * 2 + j) as f64 + 0.01),
        );
        blocks.insert((1, 2), Matrix::from_fn(3, 1, |i, _| -(i as f64) * 0.3));
        let (meta, payload) = pack_blocks_prec(blocks.iter(), ValueFormat::F32);
        assert!(meta[0] & F32_FORMAT_BIT != 0, "f32 meta must be tagged");
        assert_eq!(meta[0] & !F32_FORMAT_BIT, 2, "count survives the tag");
        // Half the bytes of the f64 encoding of the same blocks.
        let (_, f64_payload) = pack_blocks_prec(blocks.iter(), ValueFormat::F64);
        assert_eq!(payload.byte_len() * 2, f64_payload.byte_len());
        let got = unpack_blocks_prec(&dims, &meta, payload);
        assert_eq!(got.len(), 2);
        for (coord, blk) in got {
            let expect = blocks[&coord].round_f32_storage();
            assert!(
                blk.allclose(&expect, 0.0),
                "block {coord:?} not f32-rounded"
            );
        }
    }

    #[test]
    fn f32_values_already_in_storage_roundtrip_losslessly() {
        // Values that are f32-representable (a plain-Fp32 solve's output)
        // survive the f32 wire bit-for-bit.
        let dims = dims3();
        let mut blocks: BTreeMap<(usize, usize), Matrix> = BTreeMap::new();
        blocks.insert(
            (1, 1),
            Matrix::from_fn(3, 3, |i, j| (0.7 * (i + 2 * j) as f64) as f32 as f64),
        );
        let (meta, payload) = pack_blocks_prec(blocks.iter(), ValueFormat::F32);
        let got = unpack_blocks_prec(&dims, &meta, payload);
        assert!(got[0].1.allclose(&blocks[&(1, 1)], 0.0));
    }

    #[test]
    #[should_panic(expected = "f32-tagged meta with an f64 payload")]
    fn format_mismatch_is_a_protocol_error() {
        let dims = dims3();
        let mut blocks: BTreeMap<(usize, usize), Matrix> = BTreeMap::new();
        blocks.insert((0, 0), Matrix::identity(2));
        let (meta, _) = pack_blocks_prec(blocks.iter(), ValueFormat::F32);
        // Deliver an f64 payload against the f32-tagged meta.
        unpack_blocks_prec(&dims, &meta, Payload::F64(vec![0.0; 4]));
    }

    #[test]
    fn exchange_blocks_prec_serial_f32_counts_no_self_bytes() {
        let dims = dims3();
        let mut m = BTreeMap::new();
        m.insert((0usize, 0usize), Matrix::identity(2));
        let comm = SerialComm::new();
        let (got, value_bytes) = exchange_blocks_prec(vec![m], &dims, ValueFormat::F32, &comm);
        assert_eq!(got.len(), 1);
        assert_eq!(value_bytes, 0, "local passthrough moves no wire bytes");
        assert!(got[0].1.allclose(&Matrix::identity(2), 0.0));
    }

    #[test]
    #[should_panic(expected = "reserved subgroup namespace")]
    fn f32_wire_traffic_still_obeys_the_subgroup_tag_guard() {
        // The reserved-tag discipline is format-independent: a caller
        // shipping f32 payloads must still pass its tags through
        // `user_tag`, which rejects SUBGROUP_BIT trespass identically.
        let _ = user_tag(SUBGROUP_BIT | 42);
    }

    #[test]
    fn fingerprint_is_order_and_distribution_independent() {
        let dims = dims3();
        let coords = [(0usize, 0usize), (1, 0), (1, 1), (2, 2)];
        let mut fwd = FingerprintAccumulator::default();
        for &(r, c) in &coords {
            fwd.add_block(r, c);
        }
        let mut rev = FingerprintAccumulator::default();
        for &(r, c) in coords.iter().rev() {
            rev.add_block(r, c);
        }
        assert_eq!(fwd.finish(&dims), rev.finish(&dims));
    }

    #[test]
    fn fingerprint_distinguishes_patterns_and_partitions() {
        let dims = dims3();
        let mut a = FingerprintAccumulator::default();
        a.add_block(0, 0);
        a.add_block(1, 1);
        let mut b = a;
        b.add_block(2, 2);
        assert_ne!(a.finish(&dims), b.finish(&dims));
        let other_dims = BlockedDims::new(vec![3, 2, 1]);
        assert_ne!(a.finish(&dims), a.finish(&other_dims));
    }

    #[test]
    fn pattern_fingerprint_matches_accumulated_blocks() {
        let dims = dims3();
        let p = CooPattern::from_coords(vec![(0, 0), (1, 0), (2, 1)], 3);
        let via_pattern = p.fingerprint(&dims);
        let mut acc = FingerprintAccumulator::default();
        for &(r, c) in p.entries() {
            acc.add_block(r, c);
        }
        assert_eq!(via_pattern, acc.finish(&dims));
    }

    /// A two-pattern manifest, as the engine writes one.
    fn sample_manifest() -> PlanManifest {
        PlanManifest {
            tag: 0xdead_beef,
            capacity: u64::MAX,
            tick: 7,
            evictions: 1,
            hits: 12,
            builds: 3,
            entries: vec![
                PlanManifestEntry {
                    fingerprint: 0x1234_5678_9abc_def0,
                    lru_stamp: 5,
                    words: vec![1, 2, 3, f64::to_bits(0.25)],
                },
                PlanManifestEntry {
                    fingerprint: 0x2345_6789_abcd_ef01,
                    lru_stamp: 7,
                    words: vec![],
                },
            ],
        }
    }

    #[test]
    fn plan_manifest_roundtrips_bytes_exactly() {
        let m = sample_manifest();
        let bytes = m.encode();
        assert_eq!(&bytes[..8], &PLAN_MANIFEST_MAGIC);
        let back = PlanManifest::decode(&bytes).expect("decode");
        assert_eq!(back, m);
        // Re-encoding the decode is byte-identical (the format has no
        // nondeterministic padding).
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn plan_manifest_rejects_bad_magic_version_truncation_and_damage() {
        let m = sample_manifest();
        let bytes = m.encode();

        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert_eq!(PlanManifest::decode(&bad), Err(ManifestError::BadMagic));
        assert_eq!(PlanManifest::decode(b"short"), Err(ManifestError::BadMagic));

        for version in [PLAN_MANIFEST_SCHEMA_VERSION + 1, 4] {
            let mut wrong = bytes.clone();
            wrong[8..16].copy_from_slice(&(version as u64).to_le_bytes());
            assert_eq!(
                PlanManifest::decode(&wrong),
                Err(ManifestError::VersionMismatch {
                    found: version,
                    expected: 5
                })
            );
        }

        // Every truncation is refused: the magic, the header or an entry's
        // advertised payload no longer fits.
        for len in 0..bytes.len() {
            match PlanManifest::decode(&bytes[..len]) {
                Err(ManifestError::BadMagic | ManifestError::Truncated { .. }) => {}
                other => panic!("{len} of {} bytes: {other:?}", bytes.len()),
            }
        }

        // Every single-word corruption is refused or decodes to exactly
        // the damaged bytes: never a panic, never a misparse.
        for at in (0..bytes.len()).step_by(8) {
            let word = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            for bad in [word ^ 1, word.wrapping_add(1 << 32), u64::MAX, 0] {
                let mut damaged = bytes.clone();
                damaged[at..at + 8].copy_from_slice(&bad.to_le_bytes());
                if let Ok(back) = PlanManifest::decode(&damaged) {
                    assert_eq!(back.encode(), damaged, "word {} := {bad:#x}", at / 8);
                }
            }
        }

        // One flipped bit in a payload word (the first entry's payload
        // starts after the 9 header words and its own 4) or in the stored
        // checksum itself fails that entry's checksum.
        for word in [9 + 4, 9 + 3] {
            let mut damaged = bytes.clone();
            damaged[word * 8] ^= 1;
            assert_eq!(
                PlanManifest::decode(&damaged),
                Err(ManifestError::Checksum { entry: 0 })
            );
        }
    }
}
