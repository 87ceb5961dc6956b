//! The block codec: serializes whole [`Block`]s column-at-a-time with
//! per-column codecs, then LZ-compresses the result when that wins.
//!
//! Wire format:
//!
//! ```text
//! block    := <compress flag: u8>  body-or-lz
//!             flag 0: body follows raw
//!             flag 1: <u32 LE body len> <lz bytes>  (see crate::lz)
//! body     := <layout: u8> payload
//!             layout 0: rows     — codec::encode_batch of the records
//!             layout 1: scalar   — column
//!             layout 2: pair     — column(keys) column(vals)
//! column   := <kind: u8 (0 i64, 1 f64, 2 str, 3 bytes)> <u32 LE count>
//!             kind i64:  <codec: u8> (0 delta-zigzag varints,
//!                                     1 dictionary: u16 LE count,
//!                                       8-byte LE entries sorted,
//!                                       u8 indices)
//!             kind f64:  raw LE bit patterns, 8 bytes each
//!             kind str/bytes: <codec: u8>
//!                        (0 packed: varint length per item, then blob;
//!                         1 dictionary: u16 LE count, entries as
//!                           varint length + bytes sorted, u8 indices)
//! ```
//!
//! Every codec choice (delta vs dictionary, packed vs dictionary,
//! compressed vs raw) is decided by comparing exact encoded sizes, which
//! are pure functions of the column contents — so re-encoding a decoded
//! block reproduces the same bytes, and `encoded_len` accounting is
//! stable across spill/reload cycles.

use crate::block::{block_from_columns, block_from_vec, Block, BlockInner};
use crate::codec::{decode_batch, encode_batch, Reader};
use crate::column::{Columns, Packed, ScalarCol};
use crate::error::{DagError, Result};
use crate::lz;

const LAYOUT_ROWS: u8 = 0;
const LAYOUT_SCALAR: u8 = 1;
const LAYOUT_PAIR: u8 = 2;

const KIND_I64: u8 = 0;
const KIND_F64: u8 = 1;
const KIND_STR: u8 = 2;
const KIND_BYTES: u8 = 3;

const CODEC_DIRECT: u8 = 0;
const CODEC_DICT: u8 = 1;

/// Largest dictionary a column codec will consider (indices are `u8`).
const DICT_MAX: usize = 256;

fn push_varint(mut v: u64, out: &mut Vec<u8>) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn read_varint(r: &mut Reader<'_>) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = r.u8()?;
        if shift >= 64 || (shift == 63 && b > 1) {
            return Err(DagError::Codec("varint overflow"));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Encoded length of `v` as a varint.
fn varint_len(v: u64) -> usize {
    (70 - (v | 1).leading_zeros() as usize) / 7
}

/// The zigzagged deltas of an i64 column (previous value starts at 0;
/// deltas wrap).
fn i64_deltas(vals: &[i64]) -> impl Iterator<Item = u64> + '_ {
    let mut prev = 0i64;
    vals.iter().map(move |&x| {
        let d = zigzag(x.wrapping_sub(prev));
        prev = x;
        d
    })
}

/// Slots of the linear-probing table [`dict_entries`] finds distinct
/// items with: four per possible entry.
const DICT_SLOTS: usize = 1024;

const SLOT_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Where an item hashing to `h` starts probing: the top bits of `h`
/// times an odd constant.
fn home_slot(h: u64) -> usize {
    (h.wrapping_mul(SLOT_MUL) >> (64 - DICT_SLOTS.trailing_zeros())) as usize
}

/// An item's bytes folded in 8 at a time (length first, the last word
/// zero-padded).
fn bytes_hash(item: &[u8]) -> u64 {
    item.chunks(8).fold(item.len() as u64, |h, word| {
        let mut w = [0u8; 8];
        w[..word.len()].copy_from_slice(word);
        (h.rotate_left(5) ^ u64::from_le_bytes(w)).wrapping_mul(SLOT_MUL)
    })
}

/// The distinct items in ascending order, or `None` when there are more
/// than [`DICT_MAX`] of them. A dictionary index is an item's position
/// here. Items are found in a [`DICT_SLOTS`]-slot table of `u16`
/// indices into the entries (0 = empty), sorted once at the end.
fn dict_entries<T: Ord>(
    items: impl Iterator<Item = T>,
    hash: impl Fn(&T) -> u64,
) -> Option<Vec<T>> {
    let mut slots = [0u16; DICT_SLOTS];
    let mut entries: Vec<T> = Vec::new();
    'items: for x in items {
        let mut s = home_slot(hash(&x));
        while slots[s] != 0 {
            if entries[slots[s] as usize - 1] == x {
                continue 'items;
            }
            s = (s + 1) % DICT_SLOTS;
        }
        if entries.len() == DICT_MAX {
            return None;
        }
        entries.push(x);
        slots[s] = entries.len() as u16;
    }
    entries.sort_unstable();
    Some(entries)
}

fn dict_index<T: Ord>(entries: &[T], x: &T) -> u8 {
    entries
        .binary_search(x)
        .expect("every item was collected into the dictionary") as u8
}

/// Appends the dictionary body of an i64 column over `entries`.
fn enc_i64_dict(vals: &[i64], entries: &[i64], out: &mut Vec<u8>) {
    out.extend_from_slice(&(entries.len() as u16).to_le_bytes());
    for entry in entries {
        out.extend_from_slice(&entry.to_le_bytes());
    }
    out.extend(vals.iter().map(|x| dict_index(entries, x)));
}

fn packed_items(p: &Packed) -> impl Iterator<Item = &[u8]> {
    (0..p.len()).map(|i| p.get(i))
}

/// Appends the dictionary body of a str/bytes column over `entries`.
fn enc_packed_dict(p: &Packed, entries: &[&[u8]], out: &mut Vec<u8>) {
    out.extend_from_slice(&(entries.len() as u16).to_le_bytes());
    for entry in entries {
        push_varint(entry.len() as u64, out);
        out.extend_from_slice(entry);
    }
    out.extend(packed_items(p).map(|item| dict_index(entries, &item)));
}

/// Appends one column (kind, count, codec choice, body) to `out`. The
/// two candidate bodies are compared by their computed lengths and only
/// the winner is written.
fn enc_col(col: &ScalarCol, out: &mut Vec<u8>) -> Result<()> {
    let n = u32::try_from(col.len()).map_err(|_| DagError::Codec("column exceeds u32::MAX"))?;
    match col {
        ScalarCol::I64(vals) => {
            out.push(KIND_I64);
            out.extend_from_slice(&n.to_le_bytes());
            let direct_len: usize = i64_deltas(vals).map(varint_len).sum();
            match dict_entries(vals.iter().copied(), |&x| x as u64) {
                Some(entries) if 2 + entries.len() * 8 + vals.len() < direct_len => {
                    out.push(CODEC_DICT);
                    enc_i64_dict(vals, &entries, out);
                }
                _ => {
                    // Delta-zigzag varints.
                    out.push(CODEC_DIRECT);
                    for d in i64_deltas(vals) {
                        push_varint(d, out);
                    }
                }
            }
        }
        ScalarCol::F64(vals) => {
            out.push(KIND_F64);
            out.extend_from_slice(&n.to_le_bytes());
            for x in vals {
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }
        ScalarCol::Str(p) | ScalarCol::Bytes(p) => {
            out.push(if matches!(col, ScalarCol::Str(_)) {
                KIND_STR
            } else {
                KIND_BYTES
            });
            out.extend_from_slice(&n.to_le_bytes());
            let item_len = |item: &[u8]| varint_len(item.len() as u64) + item.len();
            let direct_len: usize = packed_items(p).map(item_len).sum();
            match dict_entries(packed_items(p), |x| bytes_hash(x)) {
                Some(entries)
                    if 2 + entries.iter().map(|e| item_len(e)).sum::<usize>() + p.len()
                        < direct_len =>
                {
                    out.push(CODEC_DICT);
                    enc_packed_dict(p, &entries, out);
                }
                _ => {
                    // Packed: varint item lengths, then the blob.
                    out.push(CODEC_DIRECT);
                    for item in packed_items(p) {
                        push_varint(item.len() as u64, out);
                    }
                    out.extend_from_slice(p.buffer());
                }
            }
        }
    }
    Ok(())
}

fn dec_i64_body(r: &mut Reader<'_>, n: usize) -> Result<Vec<i64>> {
    match r.u8()? {
        CODEC_DIRECT => {
            let mut vals = Vec::with_capacity(n.min(1 << 20));
            let mut prev = 0i64;
            for _ in 0..n {
                prev = prev.wrapping_add(unzigzag(read_varint(r)?));
                vals.push(prev);
            }
            Ok(vals)
        }
        CODEC_DICT => {
            let count = u16::from_le_bytes([r.u8()?, r.u8()?]) as usize;
            let mut entries = Vec::with_capacity(count.min(DICT_MAX));
            for _ in 0..count {
                entries.push(r.u64()? as i64);
            }
            let mut vals = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                let idx = r.u8()? as usize;
                vals.push(
                    *entries
                        .get(idx)
                        .ok_or(DagError::Codec("dictionary index out of range"))?,
                );
            }
            Ok(vals)
        }
        _ => Err(DagError::Codec("unknown column codec")),
    }
}

fn packed_from_items<'a>(items: impl Iterator<Item = &'a [u8]>) -> Result<Packed> {
    let mut p = Packed::default();
    for item in items {
        if !p.push(item) {
            return Err(DagError::Codec("packed column overflows u32 offsets"));
        }
    }
    Ok(p)
}

fn dec_packed_body(r: &mut Reader<'_>, n: usize) -> Result<Packed> {
    match r.u8()? {
        CODEC_DIRECT => {
            let mut lens = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                lens.push(
                    usize::try_from(read_varint(r)?)
                        .map_err(|_| DagError::Codec("item length overflow"))?,
                );
            }
            let mut p = Packed::default();
            for len in lens {
                let item = r.take(len)?;
                if !p.push(item) {
                    return Err(DagError::Codec("packed column overflows u32 offsets"));
                }
            }
            Ok(p)
        }
        CODEC_DICT => {
            let count = u16::from_le_bytes([r.u8()?, r.u8()?]) as usize;
            let mut entries: Vec<&[u8]> = Vec::with_capacity(count.min(DICT_MAX));
            for _ in 0..count {
                let len = usize::try_from(read_varint(r)?)
                    .map_err(|_| DagError::Codec("item length overflow"))?;
                entries.push(r.take(len)?);
            }
            let mut items = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                let idx = r.u8()? as usize;
                items.push(
                    *entries
                        .get(idx)
                        .ok_or(DagError::Codec("dictionary index out of range"))?,
                );
            }
            packed_from_items(items.into_iter())
        }
        _ => Err(DagError::Codec("unknown column codec")),
    }
}

fn dec_col(r: &mut Reader<'_>) -> Result<ScalarCol> {
    let kind = r.u8()?;
    let n = r.u32()? as usize;
    match kind {
        KIND_I64 => Ok(ScalarCol::I64(dec_i64_body(r, n)?)),
        KIND_F64 => {
            let mut vals = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                vals.push(f64::from_bits(r.u64()?));
            }
            Ok(ScalarCol::F64(vals))
        }
        KIND_STR => {
            let p = dec_packed_body(r, n)?;
            for i in 0..p.len() {
                std::str::from_utf8(p.get(i))
                    .map_err(|_| DagError::Codec("invalid utf-8 in string column"))?;
            }
            Ok(ScalarCol::Str(p))
        }
        KIND_BYTES => Ok(ScalarCol::Bytes(dec_packed_body(r, n)?)),
        _ => Err(DagError::Codec("unknown column kind")),
    }
}

thread_local!(static THREAD_ENCODE_COUNT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) });

/// [`encode_block`] calls made by the calling thread so far: the view a
/// proof that one thread encodes nothing reads, like
/// [`crate::value::thread_clone_count`].
pub fn thread_encode_count() -> u64 {
    THREAD_ENCODE_COUNT.with(|c| c.get())
}

/// Serializes a block: columnar layout when the block has one, the row
/// codec otherwise, LZ-compressed when that is strictly smaller.
///
/// # Errors
///
/// Fails with [`DagError::Codec`] on a length overflowing the format's
/// `u32` fields.
pub fn encode_block(block: &BlockInner) -> Result<Vec<u8>> {
    THREAD_ENCODE_COUNT.with(|c| c.set(c.get() + 1));
    let mut body = Vec::new();
    match block.columns() {
        Some(Columns::Scalar(c)) => {
            body.push(LAYOUT_SCALAR);
            enc_col(c, &mut body)?;
        }
        Some(Columns::Pair { keys, vals }) => {
            body.push(LAYOUT_PAIR);
            enc_col(keys, &mut body)?;
            enc_col(vals, &mut body)?;
        }
        None => {
            body.push(LAYOUT_ROWS);
            body.extend_from_slice(&encode_batch(block.rows())?);
        }
    }
    let packed = lz::compress(&body);
    // A block under a budget keeps this buffer as its image; an exact-size
    // copy of it measured a higher peak RSS than this capacity does.
    let mut out = Vec::with_capacity(body.len() + 1);
    if packed.len() + 5 < body.len() {
        out.push(1);
        out.extend_from_slice(
            &u32::try_from(body.len())
                .map_err(|_| DagError::Codec("block body exceeds u32::MAX"))?
                .to_le_bytes(),
        );
        out.extend_from_slice(&packed);
    } else {
        out.push(0);
        out.extend_from_slice(&body);
    }
    Ok(out)
}

fn decode_body(body: &[u8]) -> Result<Block> {
    let mut r = Reader { buf: body, pos: 0 };
    let block = match r.u8()? {
        LAYOUT_ROWS => {
            let rows = decode_batch(&body[r.pos..])?;
            r.pos = body.len();
            block_from_vec(rows)
        }
        LAYOUT_SCALAR => block_from_columns(Columns::Scalar(dec_col(&mut r)?)),
        LAYOUT_PAIR => {
            let keys = dec_col(&mut r)?;
            let vals = dec_col(&mut r)?;
            if keys.len() != vals.len() {
                return Err(DagError::Codec("pair column length mismatch"));
            }
            block_from_columns(Columns::Pair { keys, vals })
        }
        _ => Err(DagError::Codec("unknown block layout"))?,
    };
    if r.pos != body.len() {
        return Err(DagError::Codec("trailing bytes"));
    }
    Ok(block)
}

/// Deserializes an [`encode_block`] buffer.
///
/// # Errors
///
/// Fails on any malformed input: truncation, trailing bytes, bad
/// compression framing, invalid UTF-8, out-of-range dictionary indices.
pub fn decode_block(buf: &[u8]) -> Result<Block> {
    let mut r = Reader { buf, pos: 0 };
    match r.u8()? {
        0 => decode_body(&buf[1..]),
        1 => {
            let raw_len = r.u32()? as usize;
            let body = lz::decompress(&buf[r.pos..], raw_len).map_err(DagError::Codec)?;
            decode_body(&body)
        }
        _ => Err(DagError::Codec("unknown compression flag")),
    }
}

/// [`decode_block`] of a buffer the block then keeps as its image
/// ([`BlockInner::image`]), so writing it out again encodes nothing.
pub fn decode_image(image: Vec<u8>) -> Result<Block> {
    decode_block(&image).inspect(|b| b.seal_image(image))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::analyze;
    use crate::Value;
    use proptest::prelude::*;
    use std::sync::Arc;

    /// The column encoders as they were before the dictionary stopped
    /// paying two `BTreeMap` lookups per value and before `enc_col`
    /// stopped materialising the losing body: the byte oracle.
    mod oracle {
        use super::super::*;
        use std::collections::BTreeMap;

        fn enc_i64_delta(vals: &[i64]) -> Vec<u8> {
            let mut out = Vec::new();
            let mut prev = 0i64;
            for &x in vals {
                push_varint(zigzag(x.wrapping_sub(prev)), &mut out);
                prev = x;
            }
            out
        }

        pub fn enc_i64_dict(vals: &[i64]) -> Option<Vec<u8>> {
            let mut dict: BTreeMap<i64, u8> = BTreeMap::new();
            for &x in vals {
                if !dict.contains_key(&x) {
                    if dict.len() == DICT_MAX {
                        return None;
                    }
                    dict.insert(x, 0);
                }
            }
            for (i, idx) in dict.values_mut().enumerate() {
                *idx = i as u8;
            }
            let mut out = Vec::new();
            out.extend_from_slice(&(dict.len() as u16).to_le_bytes());
            for &entry in dict.keys() {
                out.extend_from_slice(&entry.to_le_bytes());
            }
            for &x in vals {
                out.push(dict[&x]);
            }
            Some(out)
        }

        fn enc_packed_direct(p: &Packed) -> Vec<u8> {
            let mut out = Vec::new();
            for i in 0..p.len() {
                push_varint(p.get(i).len() as u64, &mut out);
            }
            out.extend_from_slice(p.buffer());
            out
        }

        pub fn enc_packed_dict(p: &Packed) -> Option<Vec<u8>> {
            let mut dict: BTreeMap<&[u8], u8> = BTreeMap::new();
            for i in 0..p.len() {
                let item = p.get(i);
                if !dict.contains_key(item) {
                    if dict.len() == DICT_MAX {
                        return None;
                    }
                    dict.insert(item, 0);
                }
            }
            for (i, idx) in dict.values_mut().enumerate() {
                *idx = i as u8;
            }
            let mut out = Vec::new();
            out.extend_from_slice(&(dict.len() as u16).to_le_bytes());
            for &entry in dict.keys() {
                push_varint(entry.len() as u64, &mut out);
                out.extend_from_slice(entry);
            }
            for i in 0..p.len() {
                out.push(dict[p.get(i)]);
            }
            Some(out)
        }

        /// Body of one column after its kind and count: the codec byte,
        /// then the shorter of the two candidates (direct on a tie).
        pub fn enc_col_body(col: &ScalarCol) -> Option<Vec<u8>> {
            let (direct, dict) = match col {
                ScalarCol::I64(vals) => (enc_i64_delta(vals), enc_i64_dict(vals)),
                ScalarCol::Str(p) | ScalarCol::Bytes(p) => {
                    (enc_packed_direct(p), enc_packed_dict(p))
                }
                ScalarCol::F64(_) => return None,
            };
            Some(match dict {
                Some(dict) if dict.len() < direct.len() => [&[CODEC_DICT][..], &dict].concat(),
                _ => [&[CODEC_DIRECT][..], &direct].concat(),
            })
        }
    }

    fn new_i64_dict(vals: &[i64]) -> Option<Vec<u8>> {
        let entries = dict_entries(vals.iter().copied(), |&x| x as u64)?;
        let mut out = Vec::new();
        enc_i64_dict(vals, &entries, &mut out);
        Some(out)
    }

    fn new_packed_dict(p: &Packed) -> Option<Vec<u8>> {
        let entries = dict_entries(packed_items(p), |x| bytes_hash(x))?;
        let mut out = Vec::new();
        enc_packed_dict(p, &entries, &mut out);
        Some(out)
    }

    /// `picks` mapped onto `distinct` different i64s on both sides of
    /// zero (an odd multiplier keeps them distinct).
    fn i64_column(distinct: usize, spread: i64, picks: &[usize]) -> Vec<i64> {
        picks
            .iter()
            .map(|r| ((r % distinct.max(1)) as i64 - distinct as i64 / 2).wrapping_mul(spread | 1))
            .collect()
    }

    /// `picks` mapped onto `distinct` different byte strings, the empty
    /// one among them.
    fn packed_column(distinct: usize, picks: &[usize]) -> Packed {
        let items = picks.iter().map(|r| match r % distinct.max(1) {
            0 => Vec::new(),
            j => format!("item-{j}").into_bytes(),
        });
        let items: Vec<Vec<u8>> = items.collect();
        packed_from_items(items.iter().map(Vec::as_slice)).expect("fits u32 offsets")
    }

    fn assert_matches_oracle(col: &ScalarCol) {
        let mut out = Vec::new();
        enc_col(col, &mut out).expect("encodes");
        // Kind byte and u32 count precede the body.
        assert_eq!(Some(out[5..].to_vec()), oracle::enc_col_body(col));
    }

    #[test]
    fn dictionaries_match_the_btreemap_oracle_around_the_256_entry_limit() {
        for distinct in [0usize, 1, 2, 255, 256, 257] {
            // Every entry appears, late ones first, then repeats.
            let picks: Vec<usize> = (0..distinct).rev().chain(0..distinct.min(40)).collect();
            for spread in [1i64, -3, 1_000_000_007, i64::MAX] {
                let vals = i64_column(distinct, spread, &picks);
                assert_eq!(new_i64_dict(&vals), oracle::enc_i64_dict(&vals));
                assert_eq!(new_i64_dict(&vals).is_some(), distinct <= DICT_MAX);
                assert_matches_oracle(&ScalarCol::I64(vals));
            }
            let p = packed_column(distinct, &picks);
            assert_eq!(new_packed_dict(&p), oracle::enc_packed_dict(&p));
            assert_matches_oracle(&ScalarCol::Str(p.clone()));
            assert_matches_oracle(&ScalarCol::Bytes(p));
        }
        // Items that all start probing in the table's last slot: one
        // probe run holds every entry and wraps around to slot 0.
        let last = DICT_SLOTS - 1;
        let ints: Vec<i64> = (0..)
            .filter(|&x| home_slot(x as u64) == last)
            .take(257)
            .collect();
        let items: Vec<Vec<u8>> = (0..)
            .map(|k: u32| format!("collide-{k}").into_bytes())
            .filter(|b| home_slot(bytes_hash(b)) == last)
            .take(257)
            .collect();
        for distinct in [1usize, 255, 256, 257] {
            let picks: Vec<usize> = (0..distinct).rev().chain(0..distinct.min(40)).collect();
            let vals: Vec<i64> = picks.iter().map(|&i| ints[i]).collect();
            assert_eq!(new_i64_dict(&vals), oracle::enc_i64_dict(&vals));
            assert_eq!(new_i64_dict(&vals).is_some(), distinct <= DICT_MAX);
            assert_matches_oracle(&ScalarCol::I64(vals));
            let p = packed_from_items(picks.iter().map(|&i| items[i].as_slice())).unwrap();
            assert_eq!(new_packed_dict(&p), oracle::enc_packed_dict(&p));
            assert_eq!(new_packed_dict(&p).is_some(), distinct <= DICT_MAX);
            assert_matches_oracle(&ScalarCol::Str(p));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn column_encoders_emit_the_oracle_bytes(
            distinct in 0usize..300,
            spread in any::<i64>(),
            picks in proptest::collection::vec(0usize..1_000_000, 0..700),
        ) {
            let vals = i64_column(distinct, spread, &picks);
            prop_assert_eq!(new_i64_dict(&vals), oracle::enc_i64_dict(&vals));
            assert_matches_oracle(&ScalarCol::I64(vals));
            let p = packed_column(distinct, &picks);
            prop_assert_eq!(new_packed_dict(&p), oracle::enc_packed_dict(&p));
            assert_matches_oracle(&ScalarCol::Bytes(p));
        }

        #[test]
        fn varint_len_is_the_pushed_length(v in any::<u64>(), shift in 0u32..64) {
            let mut out = Vec::new();
            push_varint(v >> shift, &mut out);
            prop_assert_eq!(varint_len(v >> shift), out.len());
        }
    }

    fn roundtrip(rows: Vec<Value>) -> usize {
        let block = block_from_vec(rows.clone());
        let bytes = encode_block(&block).expect("encodes");
        let back = decode_block(&bytes).expect("decodes");
        assert_eq!(back.rows(), &rows[..], "rows diverged through the codec");
        assert_eq!(
            back.encoded_len(),
            bytes.len(),
            "sealed size disagrees with the buffer"
        );
        // Re-encoding the decoded block must reproduce the same bytes:
        // the store's accounting relies on this across spill cycles.
        assert_eq!(encode_block(&back).expect("re-encodes"), bytes);
        bytes.len()
    }

    #[test]
    fn roundtrips_every_layout() {
        roundtrip(vec![]);
        roundtrip((0..100).map(Value::from).collect());
        roundtrip((0..100).map(|i| Value::from(i as f64 / 3.0)).collect());
        roundtrip(
            (0..50)
                .map(|i| Value::from(format!("key-{}", i % 7)))
                .collect(),
        );
        roundtrip(
            (0..50)
                .map(|i| Value::Bytes(Arc::from(vec![i as u8; i % 5].as_slice())))
                .collect(),
        );
        roundtrip(
            (0..80)
                .map(|i| Value::pair(Value::from(i % 9), Value::from(format!("v{i}"))))
                .collect(),
        );
        // Heterogeneous → row layout.
        roundtrip(vec![
            Value::Unit,
            Value::from(1i64),
            Value::list(vec![Value::from("x")]),
            Value::vector(vec![1.0, f64::NAN]),
        ]);
    }

    #[test]
    fn nan_payloads_survive_block_codec() {
        let weird = f64::from_bits(0x7ff8_dead_beef_cafe);
        let rows = vec![Value::from(weird), Value::from(-0.0f64)];
        let block = block_from_vec(rows);
        let back = decode_block(&encode_block(&block).unwrap()).unwrap();
        match (&back.rows()[0], &back.rows()[1]) {
            (Value::F64(a), Value::F64(b)) => {
                assert_eq!(a.to_bits(), weird.to_bits());
                assert_eq!(b.to_bits(), (-0.0f64).to_bits());
            }
            _ => panic!("variant changed"),
        }
    }

    #[test]
    fn low_cardinality_ints_use_the_dictionary() {
        // 4096 records over 4 distinct wide-spread values: the delta
        // varints stay wide, the dictionary is one byte per record.
        let rows: Vec<Value> = (0..4096)
            .map(|i| Value::from((i % 4) * 1_000_000_007i64))
            .collect();
        let n = roundtrip(rows.clone());
        let raw = 4 + rows.iter().map(Value::size_bytes).sum::<usize>();
        assert!(
            n < raw / 4,
            "dictionary+lz should beat rows 4x: {n} vs {raw}"
        );
    }

    #[test]
    fn repetitive_strings_compress_well_below_row_encoding() {
        let rows: Vec<Value> = (0..2000)
            .map(|i| Value::pair(Value::from(format!("word-{}", i % 13)), Value::from(1i64)))
            .collect();
        let n = roundtrip(rows.clone());
        let raw = 4 + rows.iter().map(Value::size_bytes).sum::<usize>();
        assert!(
            n < raw / 4,
            "pair dictionaries should beat rows 4x: {n} vs {raw}"
        );
    }

    #[test]
    fn columnar_block_roundtrips_from_columns_side() {
        let rows: Vec<Value> = (0..64)
            .map(|i| Value::pair(Value::from(i), Value::from(i as f64)))
            .collect();
        let cols = analyze(&rows).expect("columnar");
        let block = block_from_columns(cols);
        let bytes = encode_block(&block).unwrap();
        let back = decode_block(&bytes).unwrap();
        assert_eq!(back.rows(), &rows[..]);
    }

    #[test]
    fn malformed_blocks_are_rejected() {
        assert!(decode_block(&[]).is_err());
        assert!(decode_block(&[9]).is_err()); // unknown compression flag
        assert!(decode_block(&[0, 9]).is_err()); // unknown layout
        assert!(decode_block(&[0, LAYOUT_SCALAR, 7]).is_err()); // unknown kind
        let good = encode_block(&block_from_vec((0..10).map(Value::from).collect())).unwrap();
        for cut in 0..good.len() {
            assert!(decode_block(&good[..cut]).is_err(), "cut at {cut}");
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode_block(&trailing).is_err());
    }

    #[test]
    fn i64_extremes_roundtrip_through_deltas() {
        roundtrip(vec![
            Value::from(i64::MIN),
            Value::from(i64::MAX),
            Value::from(0i64),
            Value::from(-1i64),
            Value::from(i64::MIN),
        ]);
    }
}
