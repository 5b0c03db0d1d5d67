//! Typed errors for distributed block-sparse operations and the block
//! wire format.

use std::fmt;

/// Errors produced by distributed block-sparse operations.
///
/// A malformed multiply — mismatched partitions or process grids — used to
/// `assert!` deep inside the collective, killing the whole rank thread and
/// stranding its group peers. These typed results let a caller fail the
/// *job* instead (the same treatment `SchedError::BadEstimate` gives bad
/// cost estimates at scheduler admission).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbcsrError {
    /// Operand block partitions differ.
    PartitionMismatch {
        /// Operation name.
        op: &'static str,
        /// Block count of the left operand's partition.
        lhs_nb: usize,
        /// Block count of the right operand's partition.
        rhs_nb: usize,
    },
    /// Operand process grids differ.
    GridMismatch {
        /// Operation name.
        op: &'static str,
        /// Grid shape of the left operand.
        lhs: (usize, usize),
        /// Grid shape of the right operand.
        rhs: (usize, usize),
    },
}

impl fmt::Display for DbcsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbcsrError::PartitionMismatch { op, lhs_nb, rhs_nb } => {
                write!(f, "{op}: partition mismatch ({lhs_nb} vs {rhs_nb} blocks)")
            }
            DbcsrError::GridMismatch { op, lhs, rhs } => write!(
                f,
                "{op}: process grid mismatch ({}x{} vs {}x{})",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
        }
    }
}

impl std::error::Error for DbcsrError {}

/// Why a block message does not unpack
/// ([`unpack_blocks_prec`](crate::wire::unpack_blocks_prec)): its meta and
/// payload do not describe blocks of the partition in one value format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The meta holds no count word.
    ShortMeta,
    /// The count word names another number of blocks than the meta holds
    /// coordinates for.
    CountMismatch {
        /// Blocks the count word names (format flag removed).
        count: u64,
        /// Words in the meta, the count word included.
        meta_words: usize,
    },
    /// A block coordinate outside the partition.
    OutsidePartition {
        /// Block row.
        br: u64,
        /// Block column.
        bc: u64,
        /// Blocks per side of the partition.
        nb: usize,
    },
    /// The payload holds another number of values than the blocks need.
    PayloadLength {
        /// Values the blocks need.
        values: usize,
        /// Values the payload holds.
        data: usize,
    },
    /// The meta's format flag disagrees with the payload variant.
    FormatMismatch {
        /// Whether the meta is tagged f32.
        tagged_f32: bool,
        /// The payload variant, with its article.
        payload: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::ShortMeta => write!(f, "meta holds no count word"),
            WireError::CountMismatch { count, meta_words } => {
                write!(f, "count {count} in a meta of {meta_words} words")
            }
            WireError::OutsidePartition { br, bc, nb } => {
                write!(f, "block ({br},{bc}) outside the {nb}x{nb} partition")
            }
            WireError::PayloadLength { values, data } => {
                write!(f, "blocks need {values} values, payload holds {data}")
            }
            WireError::FormatMismatch {
                tagged_f32,
                payload,
            } => {
                let meta = if *tagged_f32 { "f32" } else { "f64" };
                write!(f, "{meta}-tagged meta with {payload} payload")
            }
        }
    }
}

impl std::error::Error for WireError {}
