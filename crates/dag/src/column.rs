//! Typed column layouts for [`crate::Block`].
//!
//! When every record of a block shares one of the four scalar shapes
//! (i64 / f64 / str / bytes) — or is a `Pair` of two such scalars — the
//! block stores them as flat column vectors instead of boxed [`Value`]
//! trees, taken apart as they are emitted ([`LayoutBuilder`]) or by
//! analyzing its rows once ([`analyze`]). Columns are what the vectorized
//! kernels in `pado-core` operate on and what the block codec compresses;
//! anything heterogeneous (or containing `Unit`/`List`/`Vector`) stays on
//! the row-of-`Value` fallback, which remains the semantic oracle.
//!
//! Invariants the rest of the engine relies on:
//!
//! - Analysis is deterministic: the same rows always produce the same
//!   layout (or the same `None`).
//! - Materializing rows back out of columns constructs *fresh* values —
//!   it never clones a `Value`, so the clone-count proofs see zero.
//! - `f64` columns preserve raw bits (NaN payloads, signed zeros), and
//!   column equality/ordering on them is bit-level, exactly matching
//!   [`Value`]'s total order for grouping purposes.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::block::{block_from_columns, block_from_vec, Block};
use crate::value::Value;

/// Variable-length byte items (strings or byte blobs) packed into one
/// contiguous buffer with cumulative `u32` end offsets.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Packed {
    ends: Vec<u32>,
    bytes: Vec<u8>,
}

impl Packed {
    /// Number of items.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when no items are packed.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The `i`-th item's bytes.
    pub fn get(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.bytes[start..self.ends[i] as usize]
    }

    /// Appends an item; `false` if the cumulative size would overflow
    /// the `u32` offsets (the caller then falls back to rows).
    pub fn push(&mut self, item: &[u8]) -> bool {
        let Some(end) = self.end_after(item.len()) else {
            return false;
        };
        self.bytes.extend_from_slice(item);
        self.ends.push(end);
        true
    }

    /// The `u32` end offset an item of `len` bytes would get if pushed
    /// next; `None` when the cumulative size would overflow the offsets.
    fn end_after(&self, len: usize) -> Option<u32> {
        self.bytes
            .len()
            .checked_add(len)
            .and_then(|e| u32::try_from(e).ok())
    }

    /// The packed byte buffer (all items concatenated).
    pub fn buffer(&self) -> &[u8] {
        &self.bytes
    }

    /// Length of the longest prefix every item starts with (0 when
    /// empty).
    pub fn common_prefix_len(&self) -> usize {
        let first: &[u8] = if self.is_empty() { &[] } else { self.get(0) };
        (1..self.len()).fold(first.len(), |len, i| {
            let same = first[..len].iter().zip(self.get(i));
            same.take_while(|(a, b)| a == b).count()
        })
    }
}

/// The first 8 bytes of `item`, zero-padded, as a big-endian u64: its
/// unsigned order agrees with the items' byte order wherever two
/// abbreviations differ.
fn abbreviation(item: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    let n = item.len().min(8);
    word[..n].copy_from_slice(&item[..n]);
    u64::from_be_bytes(word)
}

/// One homogeneous column of scalar values.
#[derive(Clone, Debug, PartialEq)]
pub enum ScalarCol {
    /// 64-bit integers.
    I64(Vec<i64>),
    /// 64-bit floats, bit-exact.
    F64(Vec<f64>),
    /// UTF-8 strings, packed.
    Str(Packed),
    /// Byte blobs, packed.
    Bytes(Packed),
}

impl ScalarCol {
    /// Number of values in the column.
    pub fn len(&self) -> usize {
        match self {
            ScalarCol::I64(v) => v.len(),
            ScalarCol::F64(v) => v.len(),
            ScalarCol::Str(p) | ScalarCol::Bytes(p) => p.len(),
        }
    }

    /// True when the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A fresh empty column of the same scalar kind.
    pub fn empty_like(&self) -> ScalarCol {
        match self {
            ScalarCol::I64(_) => ScalarCol::I64(Vec::new()),
            ScalarCol::F64(_) => ScalarCol::F64(Vec::new()),
            ScalarCol::Str(_) => ScalarCol::Str(Packed::default()),
            ScalarCol::Bytes(_) => ScalarCol::Bytes(Packed::default()),
        }
    }

    /// An empty column of `v`'s kind; `None` for a non-scalar.
    fn for_value(v: &Value) -> Option<ScalarCol> {
        Some(match v {
            Value::I64(_) => ScalarCol::I64(Vec::new()),
            Value::F64(_) => ScalarCol::F64(Vec::new()),
            Value::Str(_) => ScalarCol::Str(Packed::default()),
            Value::Bytes(_) => ScalarCol::Bytes(Packed::default()),
            _ => return None,
        })
    }

    /// Whether `push(v)` would succeed: `v` is this column's kind and,
    /// packed, keeps the `u32` offsets.
    fn fits(&self, v: &Value) -> bool {
        match (self, v) {
            (ScalarCol::I64(_), Value::I64(_)) | (ScalarCol::F64(_), Value::F64(_)) => true,
            (ScalarCol::Str(p), Value::Str(s)) => p.end_after(s.len()).is_some(),
            (ScalarCol::Bytes(p), Value::Bytes(b)) => p.end_after(b.len()).is_some(),
            _ => false,
        }
    }

    /// Appends `v`'s payload; `false` (unchanged) on a kind mismatch or offset overflow.
    fn push(&mut self, v: &Value) -> bool {
        match (self, v) {
            (ScalarCol::I64(c), Value::I64(x)) => c.push(*x),
            (ScalarCol::F64(c), Value::F64(x)) => c.push(*x),
            (ScalarCol::Str(p), Value::Str(s)) => return p.push(s.as_bytes()),
            (ScalarCol::Bytes(p), Value::Bytes(b)) => return p.push(b),
            _ => return false,
        }
        true
    }

    /// Constructs a fresh [`Value`] for position `i` (never clones).
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            ScalarCol::I64(v) => Value::I64(v[i]),
            ScalarCol::F64(v) => Value::F64(v[i]),
            ScalarCol::Str(p) => Value::Str(Arc::from(
                std::str::from_utf8(p.get(i)).expect("str column holds valid utf-8"),
            )),
            ScalarCol::Bytes(p) => Value::Bytes(Arc::from(p.get(i))),
        }
    }

    /// Fresh [`Value`]s for every position, in order (never clones). A
    /// str column checks its UTF-8 once, over the packed buffer, and
    /// slices each item out of it: a bad item boundary panics.
    pub fn values(&self) -> Box<dyn Iterator<Item = Value> + '_> {
        let ScalarCol::Str(p) = self else {
            return Box::new((0..self.len()).map(|i| self.value_at(i)));
        };
        let text = std::str::from_utf8(&p.bytes).expect("str column holds valid utf-8");
        let mut start = 0;
        Box::new(p.ends.iter().map(move |&end| {
            let item = &text[start..end as usize];
            start = end as usize;
            Value::Str(Arc::from(item))
        }))
    }

    /// Appends the value at `src[i]` to `self`. Both columns must be the
    /// same kind (they always come from one analyzed source column).
    pub fn push_from(&mut self, src: &ScalarCol, i: usize) {
        match (self, src) {
            (ScalarCol::I64(dst), ScalarCol::I64(s)) => dst.push(s[i]),
            (ScalarCol::F64(dst), ScalarCol::F64(s)) => dst.push(s[i]),
            (ScalarCol::Str(dst), ScalarCol::Str(s))
            | (ScalarCol::Bytes(dst), ScalarCol::Bytes(s)) => {
                // A subset of a column that already fit in u32 offsets
                // always fits again.
                assert!(dst.push(s.get(i)), "subset column overflowed offsets");
            }
            _ => panic!("push_from across column kinds"),
        }
    }

    /// Appends every value of `other`, failing (`false`) on a kind
    /// mismatch or packed-offset overflow.
    pub fn append(&mut self, other: &ScalarCol) -> bool {
        match (self, other) {
            (ScalarCol::I64(dst), ScalarCol::I64(s)) => {
                dst.extend_from_slice(s);
                true
            }
            (ScalarCol::F64(dst), ScalarCol::F64(s)) => {
                dst.extend_from_slice(s);
                true
            }
            (ScalarCol::Str(dst), ScalarCol::Str(s))
            | (ScalarCol::Bytes(dst), ScalarCol::Bytes(s)) => {
                (0..s.len()).all(|i| dst.push(s.get(i)))
            }
            _ => false,
        }
    }

    /// Hashes position `i` exactly as `Value::hash` would hash the
    /// corresponding value (tag byte first, then the payload through the
    /// same std `Hash` impls), so columnar shuffle routing lands every
    /// record in the same bucket as the row path.
    pub fn hash_at<H: Hasher>(&self, i: usize, state: &mut H) {
        match self {
            ScalarCol::I64(v) => {
                state.write_u8(1);
                v[i].hash(state);
            }
            ScalarCol::F64(v) => {
                state.write_u8(2);
                v[i].to_bits().hash(state);
            }
            ScalarCol::Str(p) => {
                // What `str::hash` feeds the hasher, without re-checking
                // the UTF-8 the column was built from.
                state.write_u8(3);
                state.write(p.get(i));
                state.write_u8(0xff);
            }
            ScalarCol::Bytes(p) => {
                state.write_u8(4);
                p.get(i).hash(state);
            }
        }
    }

    /// A stable permutation of `0..len` sorting by value in exactly the
    /// order `BTreeMap<Value, _>` iterates (ascending `Ord`, floats by
    /// `total_cmp`, bit-level equality), and where in it each run of
    /// equal values starts. Ties keep their input order.
    ///
    /// One [`radix_sort`] of `(normalized key, position)` pairs for every
    /// kind: an i64 with its sign bit flipped, a float's
    /// [`total_order_key`], and for str/bytes the [`abbreviation`] of what
    /// follows the column's common prefix. Only a run of equal
    /// abbreviations whose items differ is re-sorted, by the full bytes.
    pub fn sort_perm(&self) -> (Vec<u32>, Vec<u32>) {
        let (mut keyed, packed): (Vec<(u64, u32)>, _) = match self {
            ScalarCol::I64(v) => (
                v.iter().map(|&x| (x as u64) ^ 1 << 63).zip(0..).collect(),
                None,
            ),
            ScalarCol::F64(v) => (
                v.iter().map(|&x| total_order_key(x)).zip(0..).collect(),
                None,
            ),
            ScalarCol::Str(p) | ScalarCol::Bytes(p) => {
                let skip = p.common_prefix_len();
                let abbreviated = (0..p.len()).map(|i| (abbreviation(&p.get(i)[skip..]), i as u32));
                (abbreviated.collect(), Some(p))
            }
        };
        radix_sort(&mut keyed);
        let mut starts = Vec::new();
        let mut i = 0;
        while i < keyed.len() {
            let j = i + keyed[i..].iter().take_while(|x| x.0 == keyed[i].0).count();
            starts.push(i as u32);
            if let Some(p) = packed.filter(|_| j - i > 1) {
                let item = |&(_, at): &(u64, u32)| p.get(at as usize);
                let run = &mut keyed[i..j];
                if run.iter().any(|x| item(x) != item(&run[0])) {
                    run.sort_unstable_by(|a, b| item(a).cmp(item(b)).then(a.1.cmp(&b.1)));
                    let differs = (i + 1..j).filter(|&k| item(&keyed[k]) != item(&keyed[k - 1]));
                    starts.extend(differs.map(|k| k as u32));
                }
            }
            i = j;
        }
        (keyed.into_iter().map(|(_, at)| at).collect(), starts)
    }

    /// Bytes this column would occupy in the row (per-record) encoding:
    /// the sum of `Value::size_bytes` over its values.
    pub fn row_encoded_bytes(&self) -> usize {
        match self {
            ScalarCol::I64(v) => v.len() * 9,
            ScalarCol::F64(v) => v.len() * 9,
            ScalarCol::Str(p) | ScalarCol::Bytes(p) => p.len() * 5 + p.buffer().len(),
        }
    }
}

/// Maps IEEE-754 bits to a u64 whose unsigned order equals
/// [`f64::total_cmp`]'s order.
fn total_order_key(x: f64) -> u64 {
    let b = x.to_bits();
    b ^ ((((b as i64) >> 63) as u64) | (1 << 63))
}

/// Sorts `(key, position)` pairs whose positions ascend into the order
/// `sort_unstable` gives them: a stable LSD radix sort with one counting
/// pass per byte that varies across the keys (where their OR and AND
/// differ), ping-ponging with one scratch buffer. Ties keep their order.
fn radix_sort(keyed: &mut Vec<(u64, u32)>) {
    let (or, and) = keyed.iter().fold((0, !0), |(o, a), &(k, _)| (o | k, a & k));
    let mut scratch = vec![(0, 0); keyed.len()];
    for shift in (0..64).step_by(8).filter(|s| (or ^ and) >> s & 0xff != 0) {
        let digit = |k: u64| (k >> shift) as u8 as usize;
        let mut at = [0usize; 256];
        keyed.iter().for_each(|&(k, _)| at[digit(k)] += 1);
        at.iter_mut()
            .fold(0, |start, n| start + std::mem::replace(n, start));
        for &x in keyed.iter() {
            let d = digit(x.0);
            scratch[at[d]] = x;
            at[d] += 1;
        }
        std::mem::swap(keyed, &mut scratch);
    }
}

/// The column layout of one block.
#[derive(Clone, Debug, PartialEq)]
pub enum Columns {
    /// Every record is one scalar.
    Scalar(ScalarCol),
    /// Every record is a `Pair` of two scalars of fixed kinds.
    Pair {
        /// The pairs' keys.
        keys: ScalarCol,
        /// The pairs' values.
        vals: ScalarCol,
    },
}

impl Columns {
    /// Number of records.
    pub fn len(&self) -> usize {
        match self {
            Columns::Scalar(c) => c.len(),
            Columns::Pair { keys, .. } => keys.len(),
        }
    }

    /// An empty layout of `v`'s shape; `None` for a non-columnar one.
    fn for_value(v: &Value) -> Option<Columns> {
        match v {
            Value::Pair(kv) => Some(Columns::Pair {
                keys: ScalarCol::for_value(&kv.0)?,
                vals: ScalarCol::for_value(&kv.1)?,
            }),
            _ => ScalarCol::for_value(v).map(Columns::Scalar),
        }
    }

    /// Takes `v` apart into the columns; `false` (unchanged) when it does
    /// not fit. A pair's halves are both checked before either is pushed.
    fn push(&mut self, v: &Value) -> bool {
        match (self, v) {
            (Columns::Scalar(c), _) => c.push(v),
            (Columns::Pair { keys, vals }, Value::Pair(kv)) => {
                keys.fits(&kv.0) && vals.fits(&kv.1) && keys.push(&kv.0) && vals.push(&kv.1)
            }
            _ => false,
        }
    }

    /// True when the layout holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fresh row values for every record, in order (never clones).
    pub fn values(&self) -> Box<dyn Iterator<Item = Value> + '_> {
        match self {
            Columns::Scalar(c) => c.values(),
            Columns::Pair { keys, vals } => {
                let halves = keys.values().zip(vals.values());
                Box::new(halves.map(|(k, v)| Value::pair(k, v)))
            }
        }
    }

    /// Materializes all records as fresh row values.
    pub fn rows(&self) -> Vec<Value> {
        self.values().collect()
    }

    /// Bytes these records occupy in the row (per-record) encoding, not
    /// counting the batch header.
    pub fn row_encoded_bytes(&self) -> usize {
        match self {
            Columns::Scalar(c) => c.row_encoded_bytes(),
            Columns::Pair { keys, vals } => {
                keys.len() + keys.row_encoded_bytes() + vals.row_encoded_bytes()
            }
        }
    }
}

/// Builds a block's layout one record at a time, the one place the layout
/// rule lives. The first record picks the shape; each that fits is taken
/// apart into the columns and dropped while hot. The first that does not
/// turns what was built into fresh rows (no clone) and it, and all after
/// it, stay rows: a sealed block holds the layout [`analyze`] finds.
#[derive(Default)]
pub struct LayoutBuilder {
    cols: Option<Columns>,
    rows: Vec<Value>,
}

impl LayoutBuilder {
    /// Takes `v` apart into the columns; `false` when it does not fit.
    fn take_apart(&mut self, v: &Value) -> bool {
        if self.cols.is_none() {
            self.cols = Columns::for_value(v);
        }
        self.cols.as_mut().is_some_and(|c| c.push(v))
    }

    /// Adds one record: into the columns while they fit (the record is
    /// dropped here), as a row once one has not.
    pub fn push(&mut self, v: Value) {
        if self.rows.is_empty() && self.take_apart(&v) {
            return;
        }
        if let Some(cols) = self.cols.take() {
            self.rows = cols.rows();
        }
        self.rows.push(v);
    }

    /// Seals the records pushed so far as one block.
    pub fn finish(self) -> Block {
        match self.cols {
            Some(cols) => block_from_columns(cols),
            None => block_from_vec(self.rows),
        }
    }
}

/// The column layout of `rows`, or `None` when the data is heterogeneous,
/// empty, contains non-columnar shapes (`Unit`, `List`, `Vector`, nested
/// pairs), or would overflow the packed `u32` offsets.
pub fn analyze(rows: &[Value]) -> Option<Columns> {
    let mut b = LayoutBuilder::default();
    if rows.iter().all(|r| b.take_apart(r)) {
        b.cols
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_value(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    fn hash_col(c: &ScalarCol, i: usize) -> u64 {
        let mut h = DefaultHasher::new();
        c.hash_at(i, &mut h);
        h.finish()
    }

    #[test]
    fn analyzes_homogeneous_scalars() {
        let rows: Vec<Value> = (0..10).map(Value::from).collect();
        let cols = analyze(&rows).expect("columnar");
        assert!(matches!(cols, Columns::Scalar(ScalarCol::I64(_))));
        assert_eq!(cols.rows(), rows);
    }

    #[test]
    fn analyzes_pairs_of_scalars() {
        let rows: Vec<Value> = (0..10)
            .map(|i| Value::pair(Value::from(format!("k{}", i % 3)), Value::from(i as f64)))
            .collect();
        let cols = analyze(&rows).expect("columnar");
        assert!(matches!(
            cols,
            Columns::Pair {
                keys: ScalarCol::Str(_),
                vals: ScalarCol::F64(_)
            }
        ));
        assert_eq!(cols.rows(), rows);
        assert_eq!(
            cols.row_encoded_bytes(),
            rows.iter().map(Value::size_bytes).sum()
        );
    }

    #[test]
    fn falls_back_on_heterogeneous_and_nested() {
        assert!(analyze(&[]).is_none());
        assert!(analyze(&[Value::Unit]).is_none());
        assert!(analyze(&[Value::from(1i64), Value::from(1.0)]).is_none());
        assert!(analyze(&[Value::list(vec![Value::from(1i64)])]).is_none());
        assert!(analyze(&[Value::vector(vec![1.0])]).is_none());
        assert!(analyze(&[Value::pair(
            Value::from(1i64),
            Value::pair(Value::from(2i64), Value::from(3i64)),
        )])
        .is_none());
        assert!(analyze(&[
            Value::pair(Value::from(1i64), Value::from(1i64)),
            Value::from(2i64),
        ])
        .is_none());
    }

    #[test]
    fn a_pair_that_does_not_fit_pushes_neither_half() {
        let fits = Value::pair(Value::from("k1"), Value::from(1i64));
        let odd = Value::pair(Value::from("k2"), Value::from(2.0));
        let mut cols = Columns::for_value(&fits).expect("columnar");
        assert!(cols.push(&fits));
        assert!(!cols.push(&odd), "an f64 value does not fit an i64 column");
        let Columns::Pair { keys, vals } = &cols else {
            panic!("expected pair columns")
        };
        assert_eq!((keys.len(), vals.len(), cols.len()), (1, 1, 1));
        let mut b = LayoutBuilder::default();
        b.push(fits.clone());
        b.push(odd.clone());
        assert_eq!(
            b.finish().rows(),
            &[fits, odd],
            "the builder turns into rows"
        );
    }

    #[test]
    fn nan_bits_and_signed_zero_survive_columns() {
        let weird = f64::from_bits(0x7ff8_dead_beef_cafe);
        let rows = vec![
            Value::from(weird),
            Value::from(-0.0f64),
            Value::from(0.0f64),
        ];
        let cols = analyze(&rows).expect("columnar");
        let back = cols.rows();
        for (a, b) in rows.iter().zip(&back) {
            match (a, b) {
                (Value::F64(x), Value::F64(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                _ => panic!("variant changed"),
            }
        }
        if let Columns::Scalar(c) = &cols {
            assert_eq!(
                c.sort_perm().1.len(),
                3,
                "-0.0 and +0.0 must stay distinct keys"
            );
        }
    }

    #[test]
    fn column_hash_matches_value_hash() {
        let rows = vec![Value::from(-7i64), Value::from(42i64)];
        if let Some(Columns::Scalar(c)) = analyze(&rows) {
            for (i, r) in rows.iter().enumerate() {
                assert_eq!(hash_col(&c, i), hash_value(r), "i64 hash diverged at {i}");
            }
        } else {
            panic!("expected i64 column");
        }
        let rows = vec![
            Value::from("alpha"),
            Value::from(""),
            Value::from("größe-π-页"),
        ];
        if let Some(Columns::Scalar(c)) = analyze(&rows) {
            for (i, r) in rows.iter().enumerate() {
                assert_eq!(hash_col(&c, i), hash_value(r), "str hash diverged at {i}");
            }
        } else {
            panic!("expected str column");
        }
        let rows = vec![
            Value::Bytes(Arc::from(&b"\x00\xff"[..])),
            Value::Bytes(Arc::from(&b""[..])),
        ];
        if let Some(Columns::Scalar(c)) = analyze(&rows) {
            for (i, r) in rows.iter().enumerate() {
                assert_eq!(hash_col(&c, i), hash_value(r), "bytes hash diverged at {i}");
            }
        } else {
            panic!("expected bytes column");
        }
        let rows = vec![Value::from(f64::NAN), Value::from(-0.0f64)];
        if let Some(Columns::Scalar(c)) = analyze(&rows) {
            for (i, r) in rows.iter().enumerate() {
                assert_eq!(hash_col(&c, i), hash_value(r), "f64 hash diverged at {i}");
            }
        } else {
            panic!("expected f64 column");
        }
    }

    proptest! {
        /// A str column hashes its bytes as `str::hash` does, without
        /// re-reading them as UTF-8: a toolchain whose `str` hash feeds
        /// the hasher differently fails here, not in a shuffle.
        #[test]
        fn str_column_hash_matches_value_hash_for_any_string(
            items in proptest::collection::vec(proptest::collection::vec(any::<u32>(), 0..12), 1..20),
        ) {
            let rows: Vec<Value> = items
                .iter()
                .map(|cs| {
                    let s: String = cs.iter().map(|&c| char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}')).collect();
                    Value::from(s)
                })
                .collect();
            let Some(Columns::Scalar(c)) = analyze(&rows) else {
                panic!("expected a str column")
            };
            for (i, r) in rows.iter().enumerate() {
                prop_assert_eq!(hash_col(&c, i), hash_value(r), "str hash diverged for {:?}", r);
            }
        }
    }

    /// `sort_perm` of `rows` (one scalar column) against the reference:
    /// `BTreeMap<Value, _>` iteration order, insertion order within a
    /// key, one run per key.
    fn assert_sort_perm_is_btreemap_order(rows: &[Value]) {
        use std::collections::BTreeMap;
        let Some(Columns::Scalar(c)) = analyze(rows) else {
            panic!("expected a scalar column")
        };
        let mut groups: BTreeMap<&Value, Vec<u32>> = BTreeMap::new();
        for (i, r) in rows.iter().enumerate() {
            groups.entry(r).or_default().push(i as u32);
        }
        let starts: Vec<u32> = groups
            .values()
            .scan(0, |at, g| {
                let start = *at;
                *at += g.len() as u32;
                Some(start)
            })
            .collect();
        let perm: Vec<u32> = groups.into_values().flatten().collect();
        assert_eq!(c.sort_perm(), (perm, starts), "{rows:?}");
    }

    fn strs(items: &[&str]) -> Vec<Value> {
        items.iter().map(|&s| Value::from(s)).collect()
    }

    fn blobs(items: &[&[u8]]) -> Vec<Value> {
        items.iter().map(|&b| Value::Bytes(Arc::from(b))).collect()
    }

    #[test]
    fn sort_perm_matches_value_ordering() {
        let vals = [
            3.5,
            f64::NAN,
            -0.0,
            0.0,
            -f64::NAN,
            f64::INFINITY,
            -1.0,
            3.5,
        ];
        assert_sort_perm_is_btreemap_order(&vals.map(Value::from));
        let ints = [5, i64::MIN, -1, 0, i64::MAX, -1, 1, i64::MIN];
        assert_sort_perm_is_btreemap_order(&ints.map(Value::from));
        for items in [
            // A shared prefix longer than 8 bytes.
            &[
                "shared-prefix/b",
                "shared-prefix/a",
                "shared-prefix/ab",
                "shared-prefix/b",
            ][..],
            // Equal for 8 bytes past the common prefix `p:`.
            &[
                "p:abcdefgh2",
                "p:abcdefgh",
                "p:abcdefgh1",
                "p:a",
                "p:abcdefgh1",
                "p:abcdefgh",
            ],
            &["ab\0", "ab", "a", "ab\0\0", "ab", "ab\0"],
            &["", "a", "", "b", ""],
            &["same", "same", "same"],
            &["solo"],
            // The common prefix is a whole item.
            &[
                "abc",
                "abcdef",
                "abc",
                "abcd",
                "abcdefghijklm",
                "abcdefghijkl",
            ],
        ] {
            assert_sort_perm_is_btreemap_order(&strs(items));
        }
        assert_sort_perm_is_btreemap_order(&blobs(&[
            b"\xff",
            b"\0",
            b"",
            b"\0\0",
            b"\0",
            b"\xff\0\0\0\0\0\0\0\0",
            b"\xff",
        ]));
    }

    /// Columns of `item`s, as often short (under 64) as up to ~2 000
    /// long.
    fn short_or_long<S>(item: S) -> impl Strategy<Value = Vec<S::Value>>
    where
        S: Strategy + 'static,
        S::Value: 'static,
    {
        use proptest::collection::vec;
        let item = item.boxed();
        prop_oneof![vec(item.clone(), 1..64), vec(item, 64..2_000)]
    }

    /// `i`-th of a few byte values that sort and tie in interesting ways.
    fn byte(i: usize) -> u8 {
        [0u8, 1, b'a', 0xff][i]
    }

    proptest! {
        #[test]
        fn sort_perm_orders_byte_strings_like_the_btreemap(
            items in short_or_long(
                proptest::collection::vec((0usize..4).prop_map(byte), 0..13),
            ),
        ) {
            let items: Vec<&[u8]> = items.iter().map(Vec::as_slice).collect();
            assert_sort_perm_is_btreemap_order(&blobs(&items));
        }

        /// Items past a shared stem longer than 8 bytes, where the stem
        /// alone is an item, as strings and as bytes; or short items
        /// that may be empty.
        #[test]
        fn sort_perm_orders_prefixed_and_empty_items_like_the_btreemap(
            stem in prop_oneof![Just(""), Just("shared-prefix/"), Just("page-")],
            tails in short_or_long(
                proptest::collection::vec((0usize..4).prop_map(|i| b"a0-~"[i] as char), 0..7),
            ),
        ) {
            let items: Vec<String> = tails.iter().map(|t| format!("{stem}{}", String::from_iter(t))).collect();
            let items: Vec<&str> = items.iter().map(String::as_str).collect();
            assert_sort_perm_is_btreemap_order(&strs(&items));
            let bytes: Vec<&[u8]> = items.iter().map(|s| s.as_bytes()).collect();
            assert_sort_perm_is_btreemap_order(&blobs(&bytes));
        }

        #[test]
        fn sort_perm_orders_i64s_like_the_btreemap(
            ints in short_or_long(prop_oneof![
                Just(i64::MIN), Just(i64::MAX), -40i64..40, any::<i64>(), (0i64..300).prop_map(|x| x << 20),
            ]),
        ) {
            assert_sort_perm_is_btreemap_order(&ints.into_iter().map(Value::from).collect::<Vec<_>>());
        }

        #[test]
        fn sort_perm_orders_f64s_like_the_btreemap(
            floats in short_or_long(prop_oneof![
                (0usize..8).prop_map(|i| [
                    f64::from_bits(0x7ff8_dead_beef_cafe),
                    f64::from_bits(0x7ff0_0000_0000_0001),
                    -f64::NAN, f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY,
                ][i]),
                (-20i64..20).prop_map(|x| x as f64 / 4.0),
                any::<f64>(),
            ]),
        ) {
            assert_sort_perm_is_btreemap_order(&floats.into_iter().map(Value::from).collect::<Vec<_>>());
        }
    }

    #[test]
    fn materializing_rows_never_clones() {
        let rows: Vec<Value> = (0..100)
            .map(|i| Value::pair(Value::from(format!("k{i}")), Value::from(i)))
            .collect();
        let cols = analyze(&rows).expect("columnar");
        let before = crate::value::thread_clone_count();
        let back = cols.rows();
        assert_eq!(
            crate::value::thread_clone_count(),
            before,
            "columns->rows must not clone"
        );
        assert_eq!(back, rows);
    }
}
