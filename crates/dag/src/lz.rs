//! A small, dependency-free LZ77 byte compressor in the LZ4 block style.
//!
//! Spill files and transient→reserved push payloads are dominated by
//! repetitive encoded column data, so even a greedy single-probe matcher
//! wins real bytes. The format is a sequence of tokens, each a literal
//! run followed by a back-reference:
//!
//! ```text
//! token := <byte: lit_len(hi nibble) | match_len-4(lo nibble)>
//!          [lit_len extension: 255* final]   (if lit nibble == 15)
//!          <literals>
//!          <offset: u16 LE>                  (absent in the final token)
//!          [match_len extension: 255* final] (if match nibble == 15)
//! ```
//!
//! The final token carries literals only (its match nibble is 0 and no
//! offset follows); the decoder knows it is final because the input ends
//! right after the literals. Compression is fully deterministic — a pure
//! function of the input bytes — which the block codec relies on for
//! byte-identical re-encodes.

const MIN_MATCH: usize = 4;
const MAX_OFFSET: usize = u16::MAX as usize;
const HASH_BITS: u32 = 13;

#[inline]
fn hash4(b: &[u8]) -> usize {
    let v = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

fn push_run_len(mut n: usize, out: &mut Vec<u8>) {
    while n >= 255 {
        out.push(255);
        n -= 255;
    }
    out.push(n as u8);
}

fn emit(out: &mut Vec<u8>, literals: &[u8], m: Option<(usize, usize)>) {
    let lit = literals.len();
    let match_nibble = match m {
        Some((_, len)) => (len - MIN_MATCH).min(15) as u8,
        None => 0,
    };
    out.push(((lit.min(15) as u8) << 4) | match_nibble);
    if lit >= 15 {
        push_run_len(lit - 15, out);
    }
    out.extend_from_slice(literals);
    if let Some((offset, len)) = m {
        out.extend_from_slice(&(offset as u16).to_le_bytes());
        if len - MIN_MATCH >= 15 {
            push_run_len(len - MIN_MATCH - 15, out);
        }
    }
}

/// Length of the match between the earlier position `c` and `i`, whose
/// first [`MIN_MATCH`] bytes are known equal: compared 8 bytes at a time
/// (the first differing byte is the lowest set byte of the XOR), then
/// byte by byte within 8 bytes of the end.
#[inline]
fn match_len(input: &[u8], c: usize, i: usize) -> usize {
    let n = input.len();
    let word = |at: usize| u64::from_le_bytes(input[at..at + 8].try_into().expect("8 bytes"));
    let mut len = MIN_MATCH;
    while i + len + 8 <= n {
        let diff = word(c + len) ^ word(i + len);
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while i + len < n && input[c + len] == input[i + len] {
        len += 1;
    }
    len
}

/// Compresses `input`. The output is only useful with [`decompress`] and
/// the original length; it is not self-framing.
pub fn compress(input: &[u8]) -> Vec<u8> {
    compress_with(input, match_len)
}

/// [`compress`] with the match-extension step as a parameter, so the
/// tests can run the byte-wise oracle through the same matcher.
fn compress_with(input: &[u8], extend: impl Fn(&[u8], usize, usize) -> usize) -> Vec<u8> {
    let n = input.len();
    let mut out = Vec::with_capacity(n / 2 + 16);
    if n <= MIN_MATCH {
        emit(&mut out, input, None);
        return out;
    }
    // Single-probe hash table of the most recent position for each
    // 4-byte prefix hash (stored +1 so 0 means empty).
    let mut table = vec![0u32; 1 << HASH_BITS];
    let mut anchor = 0usize;
    let mut i = 0usize;
    while i + MIN_MATCH <= n {
        let h = hash4(&input[i..i + 4]);
        let cand = table[h] as usize;
        table[h] = (i + 1) as u32;
        if cand > 0 {
            let c = cand - 1;
            if i - c <= MAX_OFFSET && input[c..c + MIN_MATCH] == input[i..i + MIN_MATCH] {
                let len = extend(input, c, i);
                emit(&mut out, &input[anchor..i], Some((i - c, len)));
                i += len;
                anchor = i;
                continue;
            }
        }
        i += 1;
    }
    emit(&mut out, &input[anchor..], None);
    out
}

fn read_run_len(input: &[u8], pos: &mut usize) -> Result<usize, &'static str> {
    let mut n = 0usize;
    loop {
        let b = *input.get(*pos).ok_or("lz: truncated run length")?;
        *pos += 1;
        n += b as usize;
        if b != 255 {
            return Ok(n);
        }
    }
}

/// Decompresses a [`compress`] output back to exactly `expected_len`
/// bytes.
///
/// # Errors
///
/// Fails on any malformed input: truncated tokens, offsets pointing
/// before the start of the output, or a result that is not exactly
/// `expected_len` bytes.
pub fn decompress(input: &[u8], expected_len: usize) -> Result<Vec<u8>, &'static str> {
    let mut out = Vec::with_capacity(expected_len);
    decompress_into(input, expected_len, &mut out)?;
    Ok(out)
}

/// [`decompress`] into `out`, which never grows past `expected_len`: a
/// literal run or match that would overshoot it is rejected before a
/// byte of it is copied.
fn decompress_into(
    input: &[u8],
    expected_len: usize,
    out: &mut Vec<u8>,
) -> Result<(), &'static str> {
    let mut pos = 0usize;
    while pos < input.len() {
        let token = input[pos];
        pos += 1;
        let mut lit = (token >> 4) as usize;
        if lit == 15 {
            lit += read_run_len(input, &mut pos)?;
        }
        let end = pos.checked_add(lit).ok_or("lz: literal overflow")?;
        if end > input.len() {
            return Err("lz: truncated literals");
        }
        if out.len() + lit > expected_len {
            return Err("lz: output exceeds expected length");
        }
        out.extend_from_slice(&input[pos..end]);
        pos = end;
        if pos == input.len() {
            break; // final token: literals only
        }
        if pos + 2 > input.len() {
            return Err("lz: truncated offset");
        }
        let offset = u16::from_le_bytes([input[pos], input[pos + 1]]) as usize;
        pos += 2;
        let mut mlen = (token & 0x0f) as usize + MIN_MATCH;
        if mlen == MIN_MATCH + 15 {
            mlen += read_run_len(input, &mut pos)?;
        }
        if offset == 0 || offset > out.len() {
            return Err("lz: bad match offset");
        }
        if out.len() + mlen > expected_len {
            return Err("lz: output exceeds expected length");
        }
        let start = out.len() - offset;
        if offset >= mlen {
            out.extend_from_within(start..start + mlen);
        } else {
            // Overlapping its own output: byte by byte from the tail.
            for k in start..start + mlen {
                out.push(out[k]);
            }
        }
    }
    if out.len() != expected_len {
        return Err("lz: output length mismatch");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(data: &[u8]) {
        let packed = compress(data);
        let back = decompress(&packed, data.len()).expect("decompresses");
        assert_eq!(back, data);
    }

    #[test]
    fn roundtrips_edge_cases() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abcd");
        roundtrip(b"abcde");
        roundtrip(&[0u8; 10_000]);
        roundtrip(
            "the quick brown fox jumps over the lazy dog "
                .repeat(50)
                .as_bytes(),
        );
    }

    #[test]
    fn roundtrips_incompressible_bytes() {
        // A seeded xorshift stream: no 4-byte match survives, so the
        // whole input travels as one literal run with extensions.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn roundtrips_overlapping_matches() {
        // Period-1 and period-3 repetitions force offset < match length.
        roundtrip(&[7u8; 300]);
        let mut data = Vec::new();
        for _ in 0..200 {
            data.extend_from_slice(b"xyz");
        }
        roundtrip(&data);
    }

    #[test]
    fn repetitive_data_compresses() {
        let data = b"abcdefgh".repeat(512);
        let packed = compress(&data);
        assert!(
            packed.len() * 10 < data.len(),
            "{} vs {}",
            packed.len(),
            data.len()
        );
    }

    #[test]
    fn compression_is_deterministic() {
        let data = b"deterministic deterministic deterministic".repeat(7);
        assert_eq!(compress(&data), compress(&data));
    }

    /// The byte-at-a-time match extension [`match_len`] replaced: the
    /// oracle it must agree with.
    fn match_len_bytewise(input: &[u8], c: usize, i: usize) -> usize {
        let mut len = MIN_MATCH;
        while i + len < input.len() && input[c + len] == input[i + len] {
            len += 1;
        }
        len
    }

    fn assert_matches_bytewise_oracle(data: &[u8]) {
        assert_eq!(
            compress(data),
            compress_with(data, match_len_bytewise),
            "{data:?}"
        );
    }

    proptest! {
        #[test]
        fn word_wise_matching_emits_the_bytewise_tokens(
            random in proptest::collection::vec(any::<u8>(), 0..300),
            period in 1usize..20,
            len in 0usize..400,
            tail in 0usize..10,
        ) {
            let small: Vec<u8> = random.iter().map(|b| b % 3).collect();
            assert_matches_bytewise_oracle(&random);
            assert_matches_bytewise_oracle(&small);
            assert_matches_bytewise_oracle(&vec![0u8; len]);
            let periodic: Vec<u8> = (0..len).map(|k| random.get(k % period).copied().unwrap_or(7)).collect();
            assert_matches_bytewise_oracle(&periodic);
            // A repeat of a prefix that ends `tail` bytes before the end
            // of the input, followed by bytes that break it.
            let mut near_end = random.clone();
            near_end.extend_from_slice(&random[..random.len().min(len)]);
            near_end.extend((0..tail).map(|k| !random.get(k).copied().unwrap_or(0)));
            assert_matches_bytewise_oracle(&near_end);
        }
    }

    #[test]
    fn a_match_past_the_expected_length_is_rejected_before_it_is_copied() {
        // One literal, then a period-1 match of ~1 M bytes: a 4 KiB input
        // claiming to expand 255x past the 16 bytes it is expected to.
        let mut input = vec![0x1f, b'a', 1, 0];
        input.extend([255; 4096]);
        input.push(0);
        let mut out = Vec::with_capacity(16);
        let capacity = out.capacity();
        assert_eq!(
            decompress_into(&input, 16, &mut out),
            Err("lz: output exceeds expected length")
        );
        assert!(out.len() <= 16, "output grew to {} bytes", out.len());
        assert_eq!(out.capacity(), capacity, "output reallocated");
        // The same bound holds for a non-overlapping match and a literal
        // run.
        let mut copy = vec![0x84];
        copy.extend_from_slice(b"abcdefgh");
        copy.extend_from_slice(&[8, 0]);
        assert_eq!(decompress(&copy, 16).unwrap(), b"abcdefghabcdefgh");
        assert!(decompress(&copy, 12).is_err());
        assert!(decompress(&[0x30, 1, 2, 3], 2).is_err());
    }

    #[test]
    fn malformed_input_is_rejected() {
        assert!(decompress(&[0xf0], 100).is_err()); // truncated run length
        assert!(decompress(&[0x20, b'a'], 2).is_err()); // truncated literals
        assert!(decompress(&[0x10, b'a', 0x00], 5).is_err()); // truncated offset
        assert!(decompress(&[0x10, b'a', 0x05, 0x00, 0x00], 6).is_err()); // offset past start
        assert!(decompress(&[0x20, b'a', b'b'], 9).is_err()); // wrong length
    }
}
