#!/usr/bin/env bash
# Fails if a vector-level instantiation of the SpGEMM band body
# (crates/kernels/src/bitmap_spgemm/simd.rs) was compiled with a fused
# multiply-add, or without a packed multiply at all.
#
# The word kernel is bit-identical to the scalar reference only while a MAC
# stays a rounded multiply then a rounded add, so `vfmadd*` anywhere in
# `run_bands_avx2` / `run_bands_avx512` is a bug. And a reformulated loop that
# LLVM stops vectorising still passes every test, only slower, so `vmulps` on
# the level's registers (ymm / zmm) has to be there.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$(uname -m)" != x86_64 ]; then
    echo "check_mac_asm: not x86_64, only the portable body exists; nothing to check"
    exit 0
fi

DEPS=${CARGO_TARGET_DIR:-target}/release/deps
rm -f "$DEPS"/dsstc_kernels-*.s
cargo rustc --release --offline -q -p dsstc-kernels --lib -- --emit asm
ASM=$(ls "$DEPS"/dsstc_kernels-*.s)

check() { # <function> <vector register>
    local body
    body=$(awk -v f="$1" '$0 ~ "^_.*" f ".*:$" { on = 1 } on { print } on && /\.cfi_endproc/ { exit }' "$ASM")
    [ -n "$body" ] || { echo "check_mac_asm: no $1 in $ASM"; exit 1; }
    if grep -q 'vfmadd\|vfnmadd\|vfmsub' <<<"$body"; then
        echo "check_mac_asm: $1 contains a fused multiply-add:"
        grep -n 'vfmadd\|vfnmadd\|vfmsub' <<<"$body" | head -5
        exit 1
    fi
    grep -q "vmulps.*%$2" <<<"$body" \
        || { echo "check_mac_asm: $1 has no vmulps on $2 registers (MAC step not vectorised)"; exit 1; }
    echo "check_mac_asm: $1 ok ($(grep -c "vmulps.*%$2" <<<"$body") vmulps on $2, no fused multiply-add)"
}

check run_bands_avx2 ymm
check run_bands_avx512 zmm
