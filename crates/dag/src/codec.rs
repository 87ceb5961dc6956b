//! A compact binary codec for [`Value`] records.
//!
//! The in-process runtime moves records as Rust objects, but a distributed
//! deployment serializes task outputs before pushing them to reserved
//! executors (the paper's implementation extracts output serializers from
//! each Beam `Transform`, §4). This codec is self-describing (one tag
//! byte per node), length-prefixed, and round-trips every [`Value`]
//! exactly — including NaN payloads, which travel as raw bits.

use std::sync::Arc;

use crate::error::{DagError, Result};
use crate::value::Value;

const TAG_UNIT: u8 = 0;
const TAG_I64: u8 = 1;
const TAG_F64: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_BYTES: u8 = 4;
const TAG_PAIR: u8 = 5;
const TAG_LIST: u8 = 6;
const TAG_VECTOR: u8 = 7;

/// Writes a 4-byte little-endian length prefix, rejecting lengths that do
/// not fit in `u32`. Every length the codec emits goes through here: a
/// payload past 4 GiB used to wrap silently (`len as u32`) and corrupt
/// the stream for every record after it.
fn write_len(n: usize, out: &mut Vec<u8>) -> Result<()> {
    let n = u32::try_from(n).map_err(|_| DagError::Codec("length exceeds u32::MAX"))?;
    out.extend_from_slice(&n.to_le_bytes());
    Ok(())
}

/// Serializes one record, appending to `out`.
///
/// # Errors
///
/// Fails with [`DagError::Codec`] if any length (string, bytes, list,
/// vector) exceeds `u32::MAX`; `out` may then hold a partial prefix.
pub fn encode_into(v: &Value, out: &mut Vec<u8>) -> Result<()> {
    match v {
        Value::Unit => out.push(TAG_UNIT),
        Value::I64(i) => {
            out.push(TAG_I64);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::F64(x) => {
            out.push(TAG_F64);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            write_len(s.len(), out)?;
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bytes(b) => {
            out.push(TAG_BYTES);
            write_len(b.len(), out)?;
            out.extend_from_slice(b);
        }
        Value::Pair(kv) => {
            out.push(TAG_PAIR);
            encode_into(&kv.0, out)?;
            encode_into(&kv.1, out)?;
        }
        Value::List(l) => {
            out.push(TAG_LIST);
            write_len(l.len(), out)?;
            for item in l.iter() {
                encode_into(item, out)?;
            }
        }
        Value::Vector(xs) => {
            out.push(TAG_VECTOR);
            write_len(xs.len(), out)?;
            for x in xs.iter() {
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }
    }
    Ok(())
}

/// Serializes one record into a fresh buffer.
///
/// # Errors
///
/// Fails with [`DagError::Codec`] on a length overflowing `u32`.
pub fn encode(v: &Value) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(v.size_bytes() + 8);
    encode_into(v, &mut out)?;
    Ok(out)
}

/// Serializes a batch of records (a task output partition).
///
/// # Errors
///
/// Fails with [`DagError::Codec`] if the record count or any nested
/// length overflows `u32`.
pub fn encode_batch(records: &[Value]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    write_len(records.len(), &mut out)?;
    for r in records {
        encode_into(r, &mut out)?;
    }
    Ok(out)
}

pub(crate) struct Reader<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(DagError::Codec("truncated input"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        let b: [u8; 8] = self.take(8)?.try_into().expect("take(8) is 8 bytes");
        Ok(u64::from_le_bytes(b))
    }

    fn value(&mut self) -> Result<Value> {
        match self.u8()? {
            TAG_UNIT => Ok(Value::Unit),
            TAG_I64 => Ok(Value::I64(self.u64()? as i64)),
            TAG_F64 => Ok(Value::F64(f64::from_bits(self.u64()?))),
            TAG_STR => {
                let n = self.u32()? as usize;
                let bytes = self.take(n)?;
                let s = std::str::from_utf8(bytes)
                    .map_err(|_| DagError::Codec("invalid utf-8 in string"))?;
                Ok(Value::Str(Arc::from(s)))
            }
            TAG_BYTES => {
                let n = self.u32()? as usize;
                Ok(Value::Bytes(Arc::from(self.take(n)?)))
            }
            TAG_PAIR => Ok(Value::pair(self.value()?, self.value()?)),
            TAG_LIST => {
                let n = self.u32()? as usize;
                let mut items = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    items.push(self.value()?);
                }
                Ok(Value::list(items))
            }
            TAG_VECTOR => {
                let n = self.u32()? as usize;
                let mut xs = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    xs.push(f64::from_bits(self.u64()?));
                }
                Ok(Value::vector(xs))
            }
            _ => Err(DagError::Codec("unknown tag")),
        }
    }
}

/// Deserializes one record.
///
/// # Errors
///
/// Fails on truncation, invalid UTF-8, unknown tags, or trailing bytes.
pub fn decode(buf: &[u8]) -> Result<Value> {
    let mut r = Reader { buf, pos: 0 };
    let v = r.value()?;
    if r.pos != buf.len() {
        return Err(DagError::Codec("trailing bytes"));
    }
    Ok(v)
}

/// Deserializes a batch of records.
///
/// # Errors
///
/// Fails on malformed input (see [`decode`]).
pub fn decode_batch(buf: &[u8]) -> Result<Vec<Value>> {
    let mut r = Reader { buf, pos: 0 };
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        out.push(r.value()?);
    }
    if r.pos != buf.len() {
        return Err(DagError::Codec("trailing bytes"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: Value) {
        let bytes = encode(&v).expect("encodes");
        let back = decode(&bytes).expect("decodes");
        assert_eq!(v, back);
    }

    #[test]
    fn a_nested_pair_encodes_to_pinned_bytes() {
        let v = Value::pair(
            Value::pair(Value::from("k"), Value::from(7i64)),
            Value::pair(Value::from(1.5), Value::Unit),
        );
        let pinned: &[u8] = &[
            5, 5, 3, 1, 0, 0, 0, b'k', 1, 7, 0, 0, 0, 0, 0, 0, 0, 5, 2, 0, 0, 0, 0, 0, 0, 0xf8,
            0x3f, 0,
        ];
        assert_eq!(encode(&v).expect("encodes"), pinned);
        roundtrip(v);
    }

    #[test]
    fn oversized_length_is_an_error_not_a_wrap() {
        // All four variable-length encoders (str/bytes/list/vector) and
        // the batch record count funnel through `write_len`; a value past
        // u32::MAX must refuse to encode rather than silently truncate.
        let mut out = Vec::new();
        assert!(write_len(u32::MAX as usize, &mut out).is_ok());
        let err = write_len(u32::MAX as usize + 1, &mut out).unwrap_err();
        assert!(
            matches!(err, DagError::Codec(msg) if msg.contains("u32")),
            "wrong error: {err}"
        );
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(Value::Unit);
        roundtrip(Value::from(i64::MIN));
        roundtrip(Value::from(i64::MAX));
        roundtrip(Value::from(0.0));
        roundtrip(Value::from(-1.5e300));
        roundtrip(Value::from("héllo wörld"));
        roundtrip(Value::from(String::new()));
        roundtrip(Value::Bytes(std::sync::Arc::from(&b"\x00\xff\x7f"[..])));
    }

    #[test]
    fn nan_bits_survive() {
        let weird = f64::from_bits(0x7ff8_dead_beef_cafe);
        let bytes = encode(&Value::F64(weird)).unwrap();
        match decode(&bytes).unwrap() {
            Value::F64(x) => assert_eq!(x.to_bits(), weird.to_bits()),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn nested_structures_roundtrip() {
        roundtrip(Value::pair(
            Value::from("key"),
            Value::list(vec![
                Value::vector(vec![1.0, 2.0, 3.0]),
                Value::pair(Value::from(1i64), Value::Unit),
                Value::list(vec![]),
            ]),
        ));
    }

    #[test]
    fn batch_roundtrip() {
        let records: Vec<Value> = (0..100)
            .map(|i| Value::pair(Value::from(i), Value::from(i as f64 / 3.0)))
            .collect();
        let bytes = encode_batch(&records).unwrap();
        assert_eq!(decode_batch(&bytes).unwrap(), records);
        assert_eq!(decode_batch(&encode_batch(&[]).unwrap()).unwrap(), vec![]);
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = encode(&Value::from("hello")).unwrap();
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode(&Value::Unit).unwrap();
        bytes.push(0);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert!(decode(&[99]).is_err());
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut bytes = vec![TAG_STR];
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert!(decode(&bytes).is_err());
    }
}
