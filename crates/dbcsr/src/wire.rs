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
use crate::error::WireError;
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
/// protocol error surfaces at the unpack site as a [`WireError`], not as
/// silent garbage.
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
/// `(coord, block)` pairs using the partition to recover block shapes. A
/// pair that does not describe blocks of `dims` — no count word, a count
/// the meta does not hold, a coordinate outside the partition, a payload of
/// another length than the blocks need, or a format flag that disagrees
/// with the payload variant — is a [`WireError`], found before any block
/// is allocated.
pub fn unpack_blocks_prec(
    dims: &BlockedDims,
    meta: &[u64],
    payload: Payload,
) -> Result<Vec<(BlockCoord, Matrix)>, WireError> {
    let (&head, coords) = meta.split_first().ok_or(WireError::ShortMeta)?;
    let count = head & !F32_FORMAT_BIT;
    if coords.len() as u64 != count.saturating_mul(2) {
        let meta_words = meta.len();
        return Err(WireError::CountMismatch { count, meta_words });
    }
    let mut values = 0usize;
    for pair in coords.chunks_exact(2) {
        let nb = dims.nb();
        let (br, bc) = (pair[0], pair[1]);
        if br >= nb as u64 || bc >= nb as u64 {
            return Err(WireError::OutsidePartition { br, bc, nb });
        }
        values += dims.size(br as usize) * dims.size(bc as usize);
    }
    let tagged_f32 = head & F32_FORMAT_BIT != 0;
    let (f64s, f32s): (&[f64], &[f32]) = match (tagged_f32, &payload) {
        (false, Payload::F64(d)) => (d, &[]),
        (true, Payload::F32(d)) => (&[], d),
        (_, other) => {
            let payload = match other {
                Payload::F64(_) => "an f64",
                Payload::F32(_) => "an f32",
                Payload::U64(_) => "a u64",
            };
            return Err(WireError::FormatMismatch {
                tagged_f32,
                payload,
            });
        }
    };
    let data = f64s.len() + f32s.len();
    if data != values {
        return Err(WireError::PayloadLength { values, data });
    }
    let mut off = 0usize;
    let blocks = coords.chunks_exact(2).map(|pair| {
        let (br, bc) = (pair[0] as usize, pair[1] as usize);
        let (rows, cols) = (dims.size(br), dims.size(bc));
        let run = off..off + rows * cols;
        off = run.end;
        let v = match tagged_f32 {
            false => f64s[run].to_vec(),
            true => f32s[run].iter().map(|&x| f64::from(x)).collect(),
        };
        ((br, bc), Matrix::from_col_major(rows, cols, v))
    });
    Ok(blocks.collect())
}

/// [`unpack_blocks_prec`] for a message a peer sent this rank: the one
/// place the collectives turn a [`WireError`] into a stop, since a
/// malformed message from a rank of the same program is a protocol fault
/// no caller can recover from.
pub(crate) fn unpack_received(
    dims: &BlockedDims,
    meta: &[u64],
    payload: Payload,
) -> Vec<(BlockCoord, Matrix)> {
    unpack_blocks_prec(dims, meta, payload).unwrap_or_else(|e| panic!("unpack_blocks_prec: {e}"))
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
        out.extend(unpack_received(dims, &meta.into_u64(), data));
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
        unpack_received(dims, &meta_in, data_in)
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
        let got = unpack_blocks_prec(&dims, &meta, payload).unwrap();
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
        let got = unpack_blocks_prec(&dims, &meta, payload).unwrap();
        assert!(got[0].1.allclose(&blocks[&(1, 1)], 0.0));
    }

    #[test]
    #[should_panic(expected = "f32-tagged meta with an f64 payload")]
    fn format_mismatch_is_a_protocol_error() {
        let dims = dims3();
        let mut blocks: BTreeMap<(usize, usize), Matrix> = BTreeMap::new();
        blocks.insert((0, 0), Matrix::identity(2));
        let (meta, _) = pack_blocks_prec(blocks.iter(), ValueFormat::F32);
        // Deliver an f64 payload against the f32-tagged meta: a typed
        // error, which a collective receiving it stops on.
        let err = unpack_blocks_prec(&dims, &meta, Payload::F64(vec![0.0; 4])).unwrap_err();
        assert!(matches!(
            err,
            WireError::FormatMismatch {
                tagged_f32: true,
                ..
            }
        ));
        unpack_received(&dims, &meta, Payload::F64(vec![0.0; 4]));
    }

    /// One message of the sweep below: `seed` picks up to four blocks of
    /// `dims3` and a format, then one to three mutations of the packed
    /// pair — a meta bit flipped (the format flag and the high count bits
    /// among them), a huge or off-by-one count, a coordinate outside the
    /// partition, the meta or the payload cut short or grown, or the
    /// payload swapped for another variant.
    fn mutated_message(seed: u64) -> (Vec<u64>, Payload) {
        let mut next = (0u64..).map(move |k| mix64(seed.wrapping_mul(0x9e37) ^ k));
        let mut pick = move |n: u64| (next.next().unwrap_or(0) % n) as usize;
        let blocks: BTreeMap<(usize, usize), Matrix> = (0..pick(5))
            .map(|_| {
                let (br, bc) = (pick(3), pick(3));
                let size = dims3();
                let blk = Matrix::from_fn(size.size(br), size.size(bc), |i, j| (i + j) as f64);
                ((br, bc), blk)
            })
            .collect();
        let format = [ValueFormat::F64, ValueFormat::F32][pick(2)];
        let (mut meta, mut payload) = pack_blocks_prec(blocks.iter(), format);
        for _ in 0..1 + pick(3) {
            let word = pick(meta.len().max(1) as u64);
            match pick(7) {
                0 if !meta.is_empty() => meta[word] ^= 1 << pick(64),
                1 if !meta.is_empty() => {
                    meta[0] = [
                        u64::MAX,
                        1 << 61,
                        meta[0].wrapping_add(1),
                        meta[0] ^ (1 << 63),
                    ][pick(4)]
                }
                2 if meta.len() > 1 => {
                    let at = 1 + pick(meta.len() as u64 - 1);
                    meta[at] = [3, u64::MAX][pick(2)]
                }
                3 => meta.truncate(word),
                4 => meta.extend((0..1 + pick(3)).map(|_| pick(4) as u64)),
                5 => {
                    let keep = |len: usize| [len / 2, len + 1, len.saturating_sub(1)];
                    payload = match payload {
                        Payload::F64(mut d) => {
                            d.resize(keep(d.len())[pick(3)], 0.5);
                            Payload::F64(d)
                        }
                        Payload::F32(mut d) => {
                            d.resize(keep(d.len())[pick(3)], 0.5);
                            Payload::F32(d)
                        }
                        other => other,
                    }
                }
                _ => {
                    let len = payload.byte_len() / 8;
                    payload = match pick(3) {
                        0 => Payload::F64(vec![0.0; len]),
                        1 => Payload::F32(vec![0.0; len]),
                        _ => Payload::U64(vec![0; len]),
                    };
                }
            }
        }
        (meta, payload)
    }

    /// The seeded mutation sweep, run under a watchdog: every mutated
    /// message unpacks or fails with a typed error — no abort (a huge
    /// count once sized an allocation), no panic, no hang — and one that
    /// unpacks holds exactly the blocks its meta names, in order. Each
    /// error kind occurs.
    #[test]
    fn mutated_messages_unpack_or_fail_typed() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut kinds = std::collections::BTreeSet::new();
            for seed in 0..20_000 {
                let (meta, payload) = mutated_message(seed);
                let len = payload.byte_len();
                match unpack_blocks_prec(&dims3(), &meta, payload) {
                    Ok(blocks) => {
                        let named = meta[1..]
                            .chunks_exact(2)
                            .map(|p| (p[0] as usize, p[1] as usize));
                        assert!(blocks.iter().map(|b| b.0).eq(named), "seed {seed}");
                        let values: usize = blocks.iter().map(|b| b.1.as_slice().len()).sum();
                        assert!(len == values * 8 || len == values * 4, "seed {seed}");
                        kinds.insert("ok".to_string());
                    }
                    Err(e) => drop(
                        kinds.insert(
                            format!("{e:?}")
                                .split([' ', '{'])
                                .next()
                                .unwrap_or("")
                                .to_string(),
                        ),
                    ),
                }
            }
            let _ = tx.send(kinds);
        });
        let kinds = rx
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("the sweep panicked or did not finish within 120 s");
        let all = [
            "CountMismatch",
            "FormatMismatch",
            "OutsidePartition",
            "PayloadLength",
            "ShortMeta",
            "ok",
        ];
        assert_eq!(kinds.iter().map(String::as_str).collect::<Vec<_>>(), all);
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
}
