//! The §2.1 pipeline's output, pinned bit for bit on the default trace.
//!
//! Every simulated figure draws its evictions from these lifetimes, so a
//! faster `generate` or `analyze` must reproduce them exactly: each
//! fingerprint is FNV-1a over the words below, floats by their bits.

use pado_trace::{analyze, generate, SynthConfig, PAPER_MARGINS};

/// `generate`: every sample, container after container. Then, per margin
/// of `PAPER_MARGINS`, `analyze`: the lifetime count, every lifetime in
/// order, `collected_fraction` and `baseline_idle_fraction`.
const PINNED: [u64; 4] = [
    0xb796_6d75_799f_f2c6,
    0x86cd_4811_9fdb_4306,
    0x0f39_18cd_a482_39f0,
    0x3822_7d4a_87ae_d0b2,
];

fn fnv1a(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[test]
fn default_trace_and_its_analyses_are_pinned() {
    let series = generate(&SynthConfig::default());
    let mut fingerprints = vec![series
        .iter()
        .flat_map(|s| &s.samples)
        .fold(FNV_OFFSET, |h, u| fnv1a(h, u.to_bits()))];
    for margin in PAPER_MARGINS {
        let a = analyze(&series, margin);
        let words = [a.lifetimes_min.len() as u64]
            .into_iter()
            .chain(a.lifetimes_min.iter().copied())
            .chain([
                a.collected_fraction.to_bits(),
                a.baseline_idle_fraction.to_bits(),
            ]);
        fingerprints.push(words.fold(FNV_OFFSET, fnv1a));
    }
    let hex: Vec<String> = fingerprints.iter().map(|f| format!("{f:#018x}")).collect();
    assert_eq!(
        fingerprints, PINNED,
        "generate, then analyze per margin: {hex:?}"
    );
}
