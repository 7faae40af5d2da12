#!/usr/bin/env bash
# Inline guard: fails if a hot helper of the kernels or the probe is
# emitted out of line in the release `dasp-spmv`. A helper that is a
# symbol of its own pays a call per block or per access, and such a move
# has shown up as 3-35% of host time on bare and counted SpMV. This check
# needs no clock: it builds the binary and lists its symbols with
# `nm -C`.
#
#   scripts/check-inline.sh
#
# Runs from the repo root whatever the caller's directory. Exits non-zero
# if a listed helper has a symbol, or if `nm` is missing.
#
# Not listed, because they are out of line today:
# `CountingProbe::classify_run` (one copy) and `spmm::short::write_permuted`
# (one copy per instantiation). ROADMAP item 2 (cheap counted kernels)
# decides whether they should be inlined; add them here once they are.
set -euo pipefail
cd "$(dirname "$0")/.."

# Matched against the end of each demangled symbol name.
helpers=(
    mma_m8n8k4_row_panel
    gather_x
    extract_diagonals
    kernels::helpers::write_permuted
    kernels::helpers::load_block
    f16_bits_to_f32
    f32_to_f16_bits
    touch_sectors
    push_run
    access_run
)

if ! command -v nm >/dev/null; then
    echo "check-inline: nm not found (install binutils)" >&2
    exit 2
fi

echo "== build (release dasp-spmv)"
cargo build --release -p dasp-cli --bin dasp-spmv

# The name field of every symbol, hash and generic suffixes stripped.
symbols=$(nm -C target/release/dasp-spmv | cut -c 20- |
    sed -E 's/::h[0-9a-f]{16}$//; s/::<.*>$//')
if [ -z "$symbols" ]; then
    echo "check-inline: nm listed no symbols" >&2
    exit 2
fi

failed=0
for h in "${helpers[@]}"; do
    found=$(grep -cE "(^|::)${h}$" <<<"$symbols" || true)
    if [ "$found" -gt 0 ]; then
        echo "check-inline: FAIL: $h is out of line ($found symbol(s))"
        grep -E "(^|::)${h}$" <<<"$symbols" | sort | uniq -c | sed 's/^/    /'
        failed=1
    fi
done
if [ "$failed" -ne 0 ]; then
    exit 1
fi
echo "check-inline: OK (${#helpers[@]} helpers inlined)"
