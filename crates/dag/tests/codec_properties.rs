//! Property tests of the wire codecs and the row↔columnar duality: for
//! arbitrary `Value`s (bit-pattern floats — NaNs, infinities, signed
//! zeros — empty strings, nested pairs/lists, heterogeneous mixes),
//!
//! - `Value::size_bytes` equals the exact encoded length,
//! - the per-record codec round-trips batches bit-identically,
//! - a block round-trips rows → columns → encoded bytes → block → rows
//!   without changing a record, whichever side it was seeded from,
//! - re-encoding a decoded block reproduces the same bytes (the
//!   determinism the store's byte accounting and the journal matrices
//!   rely on),
//! - a block built record by record as a ParDo emits them is the block
//!   sealed from the same rows.

use std::sync::Arc;

use pado_dag::codec::{decode_batch, encode, encode_batch};
use pado_dag::colcodec::{decode_block, encode_block};
use pado_dag::{block_from_columns, block_from_vec, column, Value};
use proptest::prelude::*;

fn scalar_value() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Unit),
        any::<i64>().prop_map(Value::from),
        // Arbitrary bit patterns: NaN payloads, infinities, subnormals.
        any::<f64>().prop_map(Value::from),
        "[a-z0-9 ]{0,12}".prop_map(Value::from),
        proptest::collection::vec(0u8..255, 0..12).prop_map(|b| Value::Bytes(Arc::from(&b[..]))),
    ]
    .boxed()
}

fn value_strategy() -> BoxedStrategy<Value> {
    scalar_value().prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(k, v)| Value::pair(k, v)),
            proptest::collection::vec(inner.clone(), 0..5).prop_map(Value::list),
            proptest::collection::vec(any::<f64>(), 0..5).prop_map(Value::vector),
        ]
    })
}

/// Rows that analyze to a column layout: one scalar kind throughout, or
/// pairs of two fixed scalar kinds (possibly empty).
fn columnar_rows() -> BoxedStrategy<Vec<Value>> {
    let i64s = proptest::collection::vec(any::<i64>(), 0..40)
        .prop_map(|v| v.into_iter().map(Value::from).collect::<Vec<_>>());
    let f64s = proptest::collection::vec(any::<f64>(), 0..40)
        .prop_map(|v| v.into_iter().map(Value::from).collect::<Vec<_>>());
    let strs = proptest::collection::vec("[a-z]{0,8}", 0..40)
        .prop_map(|v| v.into_iter().map(Value::from).collect::<Vec<_>>());
    let pairs = proptest::collection::vec((any::<i64>(), any::<f64>()), 0..40).prop_map(|v| {
        v.into_iter()
            .map(|(k, x)| Value::pair(Value::from(k % 50), Value::from(x)))
            .collect::<Vec<_>>()
    });
    prop_oneof![i64s, f64s, strs, pairs].boxed()
}

/// A leaf of kind 0–6: i64, f64 (±0 among them), str, bytes, `Unit`, a
/// `List`, a `Vector`.
fn leaf(kind: usize, i: usize) -> Value {
    match kind {
        0 => Value::from(i as i64 - 3),
        1 => Value::from([1.5, -0.0, 0.0][i % 3] * i as f64),
        2 => Value::from(["", "page-1", "größe"][i % 3]),
        3 => Value::Bytes(Arc::from(&b"\0\xffab"[..i % 5])),
        4 => Value::Unit,
        5 => Value::list(vec![Value::from(i as i64)]),
        _ => Value::vector(vec![i as f64]),
    }
}

/// A record of one shape: a leaf, a pair of two leaves, or a pair whose
/// value is itself a pair.
fn record((key, val, nesting): (usize, usize, u8), i: usize) -> Value {
    match nesting {
        0 => leaf(key, i),
        1 => Value::pair(leaf(key, i), leaf(val, i)),
        _ => Value::pair(leaf(key, i), Value::pair(leaf(val, i), leaf(key, i))),
    }
}

/// What a ParDo might emit: up to 40 records of one shape, switching to
/// a second shape at record `switch` (no switch when it is past the end).
fn emitted() -> BoxedStrategy<Vec<Value>> {
    let shape = (0usize..7, 0usize..7, 0u8..3);
    (shape.clone(), shape, 0usize..40, 0usize..60)
        .prop_map(|(a, b, n, switch)| {
            (0..n)
                .map(|i| record(if i < switch { a } else { b }, i))
                .collect()
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Taking records apart as they are emitted seals the block that
    /// sealing them as rows would: the layout `analyze` finds (columns
    /// exactly when there are columns, with no row view beside them), the
    /// same sizes and the same encoded bytes. The builder clones nothing.
    #[test]
    fn layout_builder_seals_the_block_rows_would(rows in emitted()) {
        // Fresh owned copies (decoded, not cloned) to emit.
        let copies = decode_batch(&encode_batch(&rows).expect("encodes")).expect("decodes");
        let before = pado_dag::value::thread_clone_count();
        let mut builder = column::LayoutBuilder::default();
        for r in copies {
            builder.push(r);
        }
        let built = builder.finish();
        prop_assert_eq!(pado_dag::value::thread_clone_count(), before);
        let analyzed = column::analyze(&rows);
        prop_assert_eq!(built.has_rows(), analyzed.is_none());
        prop_assert_eq!(built.columns(), analyzed.as_ref());
        let sealed = block_from_vec(rows.clone());
        prop_assert_eq!(built.raw_len(), sealed.raw_len());
        prop_assert_eq!(built.encoded_len(), sealed.encoded_len());
        prop_assert_eq!(encode_block(&built).expect("encodes"), encode_block(&sealed).expect("encodes"));
        prop_assert_eq!(built.rows(), &rows[..]);
    }

    /// `size_bytes` is the exact encoded length — the store's byte
    /// accounting and the codec agree on every value shape.
    #[test]
    fn size_bytes_equals_encoded_length(v in value_strategy()) {
        let bytes = encode(&v).expect("encodes");
        prop_assert_eq!(v.size_bytes(), bytes.len(), "size_bytes lies for {:?}", v);
    }

    /// The per-record batch codec round-trips bit-identically (NaN
    /// payloads included: equality here is total-order, not IEEE).
    #[test]
    fn batch_codec_roundtrips(rows in proptest::collection::vec(value_strategy(), 0..20)) {
        let bytes = encode_batch(&rows).expect("encodes");
        let back = decode_batch(&bytes).expect("decodes");
        prop_assert_eq!(&back, &rows);
    }

    /// Arbitrary (typically heterogeneous) rows round-trip through the
    /// block codec's row-fallback layout, and re-encoding the decoded
    /// block reproduces the same bytes.
    #[test]
    fn block_codec_roundtrips_any_rows(rows in proptest::collection::vec(value_strategy(), 0..16)) {
        let block = block_from_vec(rows.clone());
        let bytes = encode_block(&block).expect("encodes");
        prop_assert_eq!(block.encoded_len(), bytes.len());
        let back = decode_block(&bytes).expect("decodes");
        prop_assert_eq!(back.rows(), &rows[..]);
        prop_assert_eq!(back.encoded_len(), bytes.len());
        prop_assert_eq!(encode_block(&back).expect("re-encodes"), bytes, "codec not deterministic");
    }

    /// Columnar rows survive the full duality cycle: analysis to columns,
    /// column-seeded blocks, the compressed wire format, and back —
    /// byte-identically, from either seed side.
    #[test]
    fn columnar_blocks_roundtrip_from_both_sides(rows in columnar_rows()) {
        let by_rows = block_from_vec(rows.clone());
        let bytes = encode_block(&by_rows).expect("encodes");
        let back = decode_block(&bytes).expect("decodes");
        prop_assert_eq!(back.rows(), &rows[..]);
        prop_assert_eq!(encode_block(&back).expect("re-encodes"), bytes.clone());

        // Seeding from the analyzed columns must produce the same bytes:
        // the layout decision is a function of content, not provenance.
        if let Some(cols) = column::analyze(&rows) {
            let by_cols = block_from_columns(cols);
            prop_assert_eq!(by_cols.rows(), &rows[..]);
            prop_assert_eq!(encode_block(&by_cols).expect("encodes"), bytes.clone());
            prop_assert_eq!(by_cols.raw_len(), by_rows.raw_len());
        } else {
            // Only the empty row set may refuse analysis here.
            prop_assert!(rows.is_empty());
        }
    }

    /// Heterogeneous mixes always fall back to the rows layout and still
    /// round-trip; the decoded block re-analyzes to "no columns" again.
    #[test]
    fn heterogeneous_fallback_roundtrips(
        rows in proptest::collection::vec(scalar_value(), 1..12),
        tail in value_strategy(),
    ) {
        let mut rows = rows;
        rows.push(Value::list(vec![tail])); // lists never columnize
        let block = block_from_vec(rows.clone());
        prop_assert!(block.columns().is_none());
        let bytes = encode_block(&block).expect("encodes");
        let back = decode_block(&bytes).expect("decodes");
        prop_assert!(back.columns().is_none());
        prop_assert_eq!(back.rows(), &rows[..]);
        prop_assert_eq!(encode_block(&back).expect("re-encodes"), bytes);
    }
}
