#!/usr/bin/env bash
# Fails if a vector-level instantiation of the SpGEMM hot loops
# (crates/kernels/src/bitmap_spgemm/simd.rs) was compiled with a fused
# multiply-add, without a packed multiply on the level's registers, or — for
# the AVX-512 B expansion — without the expand instruction.
#
# The word kernel is bit-identical to the scalar reference only while a MAC
# stays a rounded multiply then a rounded add, so `vfmadd*` anywhere in a
# per-level function is a bug. And a reformulated loop whose lane ops LLVM no
# longer inlines into the `#[target_feature]` function still passes every
# test, only slower, so `vmulps` on the level's registers (ymm / zmm) and
# `vexpandps` have to be there.
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

check() { # <function> <instruction that must be there> <on this vector register>
    # The band-loop functions are generic over the output sink, so one name
    # is several symbols (the arena's emitter, which the fused forward's
    # inner layers write, and the dense rows `execute_encoded` and a
    # forward's last layer write): every instantiation is held to the same
    # rules.
    local labels label body
    labels=$(grep -E "^_.*$1.*:\$" "$ASM" | tr -d ':') || true
    [ -n "$labels" ] || { echo "check_mac_asm: no $1 in $ASM"; exit 1; }
    [ "$(wc -l <<<"$labels")" = "$4" ] \
        || { echo "check_mac_asm: $(wc -l <<<"$labels") instantiations of $1, expected $4"; exit 1; }
    for label in $labels; do
        body=$(awk -v l="$label:" '$0 == l { on = 1 } on { print } on && /\.cfi_endproc/ { exit }' "$ASM")
        if grep -q 'vfmadd\|vfnmadd\|vfmsub' <<<"$body"; then
            echo "check_mac_asm: $label contains a fused multiply-add:"
            grep -n 'vfmadd\|vfnmadd\|vfmsub' <<<"$body" | head -5
            exit 1
        fi
        grep -q "$2.*%$3" <<<"$body" \
            || { echo "check_mac_asm: $label has no $2 on $3 registers (lane ops not inlined at this level)"; exit 1; }
        echo "check_mac_asm: $1 ok ($(grep -c "$2.*%$3" <<<"$body") $2 on $3, no fused multiply-add)"
    done
}

# Every per-level function simd.rs defines must be named here.
LEVEL_FNS=$(grep -c '^#\[target_feature' crates/kernels/src/bitmap_spgemm/simd.rs)
[ "$LEVEL_FNS" = 3 ] || { echo "check_mac_asm: simd.rs has $LEVEL_FNS #[target_feature] functions, this script checks 3"; exit 1; }

# One A operand, the arena, into each sink: arena -> emitter, arena -> dense
# rows.
check run_bands_avx2 vmulps ymm 2
check run_bands_avx512 vmulps zmm 2
check expand_b_avx512 vexpandps zmm 1
