//! Immutable shared data blocks — the unit of intermediate data.
//!
//! A [`Block`] is created exactly once, when a task finishes (or when a
//! routing pass buckets a finished output), and is only *referenced* from
//! then on: the master's location table, progress snapshots, executor
//! caches, and consumer task inputs all hold `Arc` clones of the same
//! allocation. Records are never copied to move a block around, which
//! makes pushing a completed output to its consumers, snapshotting the
//! master's progress, and recovering from a master restart all O(refs)
//! instead of O(records).
//!
//! A block is also *typed*: the first time a layout question is asked it
//! analyzes its records ([`crate::column::analyze`]) and, when they are
//! homogeneous scalars or pairs of scalars, holds them as flat column
//! vectors ([`Columns`]). The row and column representations are duals —
//! whichever side a block was built from, the other is derived lazily
//! and cached, and materializing rows out of columns constructs fresh
//! values (never clones, so the clone-count proofs are unaffected).
//!
//! Sharing invariants:
//! - a block's records are immutable after creation (there is no `&mut`
//!   path to a block's contents anywhere in the engine);
//! - any component may hold a block indefinitely; dropping the last
//!   reference frees it;
//! - code that needs to *change* records builds a new block.

use std::sync::{Arc, OnceLock};

use crate::column::{analyze, Columns};
use crate::value::Value;

/// An immutable, reference-counted run of records.
pub type Block = Arc<BlockInner>;

/// Cached byte-accounting for one block (computed at most once).
#[derive(Clone, Copy)]
struct BlockSizes {
    /// Length of [`crate::colcodec::encode_block`]'s output — what a
    /// spill file or serialized push actually occupies.
    encoded: usize,
    /// Length of the legacy row encoding (`4 + Σ size_bytes`) — the
    /// uncompressed baseline the compression ratio is measured against.
    raw: usize,
}

/// The contents of a [`Block`]: a fixed run of records, held as rows, as
/// typed columns, or both. Always constructed through [`block_from_vec`],
/// [`block_from_columns`], or `From<Vec<Value>>`, so at least one of the
/// two representations is seeded and the other can be derived.
/// (`Arc` is not a fundamental type, so a `From<Vec<Value>>` impl for
/// the `Block` alias is not possible — use [`block_from_vec`].)
pub struct BlockInner {
    len: usize,
    rows: OnceLock<Vec<Value>>,
    cols: OnceLock<Option<Columns>>,
    sizes: OnceLock<BlockSizes>,
}

impl BlockInner {
    /// Number of records (free: never materializes either layout).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the block holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The records as rows, materializing (fresh values, no clones) from
    /// the columns on first use if the block was built columnar.
    pub fn rows(&self) -> &[Value] {
        self.rows.get_or_init(|| {
            self.cols
                .get()
                .and_then(|c| c.as_ref())
                .expect("block is seeded with rows or columns")
                .rows()
        })
    }

    /// The records as owned rows, built once: fresh from the columns when
    /// the block holds a column layout (no clone, and no row copy left
    /// cached in the block), cloned only for a row block.
    pub fn to_rows(&self) -> Vec<Value> {
        match self.cols.get() {
            Some(Some(c)) => c.rows(),
            _ => self.rows().to_vec(),
        }
    }

    /// The column layout, analyzing the rows on first use; `None` means
    /// the records are heterogeneous and only the row path applies.
    pub fn columns(&self) -> Option<&Columns> {
        self.cols.get_or_init(|| analyze(self.rows())).as_ref()
    }

    /// Serialized size in bytes: the length of this block's
    /// [`crate::colcodec::encode_block`] output, which is what spill
    /// files and push payloads actually occupy. Memoized: only the first
    /// call encodes. A budget charges it; a transient push journals it.
    pub fn encoded_len(&self) -> usize {
        self.sizes().encoded
    }

    /// Size of the same records in the row (per-record) encoding:
    /// `4 + Σ Value::size_bytes`. The compression win reported by the
    /// journal is `encoded_len` against this baseline.
    pub fn raw_len(&self) -> usize {
        self.sizes().raw
    }

    /// Whether [`BlockInner::encoded_len`] is already memoized. A worker
    /// sizes what it builds only when the master will read the size;
    /// tests use this to show such blocks arrive sized, and no others.
    pub fn is_sized(&self) -> bool {
        self.sizes.get().is_some()
    }

    /// Whether the row view exists (sealed from rows, or derived since).
    pub fn has_rows(&self) -> bool {
        self.rows.get().is_some()
    }

    fn sizes(&self) -> BlockSizes {
        *self.sizes.get_or_init(|| {
            let raw = 4 + self.raw_body_bytes();
            // A block too large for the codec's u32 lengths cannot be
            // serialized at all; account it at the row size so budget
            // math stays sane and the spill path reports the error.
            let encoded = crate::colcodec::encode_block(self)
                .map(|b| b.len())
                .unwrap_or(raw);
            BlockSizes { encoded, raw }
        })
    }

    fn raw_body_bytes(&self) -> usize {
        if let Some(Some(c)) = self.cols.get() {
            return c.row_encoded_bytes();
        }
        self.rows().iter().map(Value::size_bytes).sum()
    }

    /// Records the serialized length observed while decoding, so a
    /// reloaded block doesn't re-encode just to size itself. Safe
    /// because the codec is deterministic: re-encoding reproduces the
    /// same bytes.
    pub(crate) fn seal_encoded_len(&self, encoded: usize) {
        let raw = 4 + self.raw_body_bytes();
        let _ = self.sizes.set(BlockSizes { encoded, raw });
    }
}

impl std::ops::Deref for BlockInner {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        self.rows()
    }
}

impl PartialEq for BlockInner {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.rows() == other.rows()
    }
}

impl Eq for BlockInner {}

impl std::fmt::Debug for BlockInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Block{:?}", self.rows())
    }
}

/// Builds a block from owned records (moves them; no per-record clone).
pub fn block_from_vec(records: Vec<Value>) -> Block {
    let inner = BlockInner {
        len: records.len(),
        rows: OnceLock::from(records),
        cols: OnceLock::new(),
        sizes: OnceLock::new(),
    };
    Arc::new(inner)
}

/// Builds a block directly from a column layout (the vectorized kernels'
/// output path; rows are derived lazily only if someone asks).
pub fn block_from_columns(cols: Columns) -> Block {
    let inner = BlockInner {
        len: cols.len(),
        rows: OnceLock::new(),
        cols: OnceLock::from(Some(cols)),
        sizes: OnceLock::new(),
    };
    Arc::new(inner)
}

/// The records of `block` as owned rows: moved out when this is the only
/// reference to a block seeded with rows, otherwise
/// [`BlockInner::to_rows`].
pub fn block_into_rows(block: Block) -> Vec<Value> {
    match Arc::try_unwrap(block) {
        Ok(mut inner) => inner.rows.take().unwrap_or_else(|| inner.to_rows()),
        Err(shared) => shared.to_rows(),
    }
}

/// The shared empty block (one static allocation, cloned by reference).
pub fn empty_block() -> Block {
    static EMPTY: OnceLock<Block> = OnceLock::new();
    EMPTY.get_or_init(|| block_from_vec(Vec::new())).clone()
}

/// One *main* input slot of a task: the blocks it reads, in producer-index
/// order.
///
/// A slot fed by a one-to-one edge or by an interior fused chain member
/// always holds a single block; slots fed by gather (many-to-one) or
/// shuffle (many-to-many) edges hold one block per producer task. Holding
/// blocks — not concatenated vectors — is what lets a consumer read its
/// inputs without taking ownership of a single record.
#[derive(Debug, Clone, Default)]
pub struct MainSlot {
    parts: Vec<Block>,
}

impl MainSlot {
    /// Builds a single-block slot from owned records (no per-record clone).
    pub fn from_vec(records: Vec<Value>) -> Self {
        MainSlot {
            parts: vec![block_from_vec(records)],
        }
    }

    /// Builds a single-block slot sharing an existing block.
    pub fn from_block(block: Block) -> Self {
        MainSlot { parts: vec![block] }
    }

    /// Builds a slot over several shared blocks; empty blocks are dropped.
    pub fn from_blocks(parts: Vec<Block>) -> Self {
        MainSlot {
            parts: parts.into_iter().filter(|b| !b.is_empty()).collect(),
        }
    }

    /// The underlying blocks, in producer-index order.
    pub fn parts(&self) -> &[Block] {
        &self.parts
    }

    /// Total number of records across all blocks.
    pub fn len(&self) -> usize {
        self.parts.iter().map(|b| b.len()).sum()
    }

    /// Whether the slot holds no records.
    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(|b| b.is_empty())
    }

    /// The first record, if any.
    pub fn first(&self) -> Option<&Value> {
        self.parts.iter().find_map(|b| b.rows().first())
    }

    /// Iterates over all records, in block order.
    pub fn iter(&self) -> impl Iterator<Item = &Value> {
        self.parts.iter().flat_map(|b| b.rows().iter())
    }

    /// The records as one contiguous slice.
    ///
    /// Slots fed by one-to-one edges and interior fused chain members are
    /// always a single block, so this is the natural zero-copy accessor
    /// for whole-partition user functions. Use [`MainSlot::iter`] for
    /// slots that may gather several producer blocks.
    ///
    /// # Panics
    ///
    /// Panics if the slot holds more than one block; the runtime catches
    /// the panic and fails the task attempt with a readable reason.
    pub fn contiguous(&self) -> &[Value] {
        match self.parts.len() {
            0 => &[],
            1 => self.parts[0].rows(),
            n => {
                panic!("MainSlot::contiguous() on a {n}-block slot; use iter() for gathered inputs")
            }
        }
    }
}

impl<'a> IntoIterator for &'a MainSlot {
    type Item = &'a Value;
    type IntoIter = std::iter::FlatMap<
        std::slice::Iter<'a, Block>,
        std::slice::Iter<'a, Value>,
        fn(&'a Block) -> std::slice::Iter<'a, Value>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.parts.iter().flat_map(|b| b.rows().iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(n: i64) -> Vec<Value> {
        (0..n).map(Value::from).collect()
    }

    #[test]
    fn from_blocks_drops_empties_and_flattens() {
        let slot = MainSlot::from_blocks(vec![
            block_from_vec(ints(2)),
            empty_block(),
            block_from_vec(ints(3)),
        ]);
        assert_eq!(slot.parts().len(), 2);
        assert_eq!(slot.len(), 5);
        assert!(!slot.is_empty());
        let collected: Vec<i64> = slot.iter().map(|v| v.as_i64().unwrap()).collect();
        assert_eq!(collected, vec![0, 1, 0, 1, 2]);
    }

    #[test]
    fn contiguous_serves_single_block_slots() {
        let slot = MainSlot::from_vec(ints(4));
        assert_eq!(slot.contiguous().len(), 4);
        assert_eq!(slot.first(), Some(&Value::from(0i64)));
        let empty = MainSlot::default();
        assert!(empty.contiguous().is_empty());
        assert!(empty.first().is_none());
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn contiguous_panics_on_multi_block_slots() {
        let slot = MainSlot::from_blocks(vec![block_from_vec(ints(1)), block_from_vec(ints(1))]);
        let _ = slot.contiguous();
    }

    #[test]
    fn empty_block_is_shared() {
        let a = empty_block();
        let b = empty_block();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.is_empty());
    }

    #[test]
    fn rows_and_columns_are_duals() {
        let records: Vec<Value> = (0..20)
            .map(|i| Value::pair(Value::from(i % 3), Value::from(i as f64)))
            .collect();
        // Row-seeded: columns derive by analysis.
        let by_rows = block_from_vec(records.clone());
        let cols = by_rows.columns().expect("homogeneous pairs").clone();
        // Column-seeded: rows derive by materialization, without a
        // single Value clone.
        let by_cols = block_from_columns(cols);
        assert_eq!(by_cols.len(), 20);
        let before = crate::value::thread_clone_count();
        assert_eq!(by_cols.rows(), &records[..]);
        assert_eq!(crate::value::thread_clone_count(), before);
        assert_eq!(by_rows, by_cols);
    }

    #[test]
    fn owned_rows_move_out_of_a_sole_row_block_and_build_fresh_from_columns() {
        let records: Vec<Value> = (0..10)
            .map(|i| Value::pair(Value::from(format!("k{i}")), Value::from(i)))
            .collect();
        let before = crate::value::thread_clone_count();
        // Sole reference, row-seeded: the rows move out.
        assert_eq!(block_into_rows(block_from_vec(ints(3))), ints(3));
        // Columnar, shared or not: fresh values, no row copy cached.
        let by_cols = block_from_columns(analyze(&records).expect("columnar"));
        assert_eq!(by_cols.to_rows(), records);
        assert!(by_cols.rows.get().is_none());
        assert_eq!(block_into_rows(by_cols), records);
        assert_eq!(crate::value::thread_clone_count(), before);
        // A shared row block is the one case that clones.
        let shared = block_from_vec(ints(3));
        let keep = Arc::clone(&shared);
        assert_eq!(block_into_rows(shared), ints(3));
        assert_eq!(crate::value::thread_clone_count(), before + 3);
        assert_eq!(keep.len(), 3);
    }

    #[test]
    fn len_never_materializes_rows() {
        let records: Vec<Value> = (0..10).map(Value::from).collect();
        let cols = analyze(&records).expect("columnar");
        let block = block_from_columns(cols);
        assert_eq!(block.len(), 10);
        assert!(!block.is_empty());
        // The rows cell is still empty: len came from the columns.
        assert!(block.rows.get().is_none());
    }

    #[test]
    fn heterogeneous_blocks_report_no_columns() {
        let block = block_from_vec(vec![Value::Unit, Value::from(1i64)]);
        assert!(block.columns().is_none());
        assert_eq!(block.len(), 2);
    }

    #[test]
    fn encoded_len_is_compressed_and_raw_len_is_row_format() {
        let records: Vec<Value> = (0..1000)
            .map(|i| Value::pair(Value::from(i % 5), Value::from(1i64)))
            .collect();
        let raw: usize = 4 + records.iter().map(Value::size_bytes).sum::<usize>();
        let block = block_from_vec(records);
        assert_eq!(block.raw_len(), raw);
        assert!(
            block.encoded_len() < raw / 4,
            "low-cardinality pairs should compress 4x: {} vs {raw}",
            block.encoded_len()
        );
        assert_eq!(
            block.encoded_len(),
            crate::colcodec::encode_block(&block).unwrap().len()
        );
    }
}
