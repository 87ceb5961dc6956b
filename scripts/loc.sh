#!/usr/bin/env bash
# Production lines per Rust file: every line above the file's trailing
# `#[cfg(test)] mod …` (comments and blanks included), with a total.
# Usage: scripts/loc.sh [dir ...]      (default: crates/*/src)
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- crates/*/src

find "$@" -name '*.rs' -print0 | sort -z | xargs -0 awk '
    function report() { printf "%7d  %s\n", n, file; total += n }
    FNR == 1 { if (file != "") report(); file = FILENAME; n = 0; skip = 0; held = 0 }
    skip { next }
    held { held = 0; if ($0 ~ /^mod /) { skip = 1; next } n++ }
    /^#\[cfg\(test\)\]$/ { held = 1; next }
    { n++ }
    END { report(); printf "%7d  total\n", total }
'
