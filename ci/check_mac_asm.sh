#!/usr/bin/env bash
# Fails if a vector-level instantiation of the SpGEMM hot loops
# (crates/kernels/src/bitmap_spgemm/simd.rs) was compiled with a fused
# multiply-add, without its level's lane ops: a packed multiply on the level's
# registers for the band loop, the expand instruction for the AVX-512 B
# expansion, and the compress instruction for the AVX-512 emitter.
#
# The word kernel is bit-identical to the scalar reference only while a MAC
# stays a rounded multiply then a rounded add, so `vfmadd*` anywhere in a
# per-level function is a bug. And a reformulated loop whose lane ops LLVM no
# longer inlines into the `#[target_feature]` function still passes every
# test, only slower, so `vmulps` on the level's registers (ymm / zmm),
# `vexpandps` and `vcompressps` have to be there.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$(uname -m)" != x86_64 ]; then
    echo "check_mac_asm: not x86_64, only the portable body exists; nothing to check"
    exit 0
fi

DEPS=${CARGO_TARGET_DIR:-target}/release/deps
rm -f "$DEPS"/dsstc_kernels-*.s
# A build cargo holds fresh would emit nothing.
touch crates/kernels/src/lib.rs
cargo rustc --release --offline -q -p dsstc-kernels --lib -- --emit asm
ASM=$(ls "$DEPS"/dsstc_kernels-*.s)

labels() { # <function> <expected instantiations>
    # The band-loop functions are generic over the output sink, so one name
    # is several symbols (the arena's emitter, which the fused forward's
    # inner layers write, and the dense rows `execute_encoded` and a
    # forward's last layer write).
    local labels
    labels=$(grep -E "^_.*$1.*:\$" "$ASM" | tr -d ':') || true
    [ -n "$labels" ] || { echo "check_mac_asm: no $1 in $ASM" >&2; exit 1; }
    [ "$(wc -l <<<"$labels")" = "$2" ] \
        || { echo "check_mac_asm: $(wc -l <<<"$labels") instantiations of $1, expected $2" >&2; exit 1; }
    echo "$labels"
}

body() { # <label>
    awk -v l="$1:" '$0 == l { on = 1 } on { print } on && /\.cfi_endproc/ { exit }' "$ASM"
}

check() { # <function> <instruction that must be there> <on this vector register> <instantiations>
    # Every instantiation is held to the same rules.
    local labels label body
    labels=$(labels "$1" "$4")
    for label in $labels; do
        body=$(body "$label")
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

check_one() { # <function> <instruction> <on this vector register> <instantiations>
    # Exactly one instantiation of a sink-generic function has the sink's
    # lane op: the one whose sink is the arena's emitter.
    local labels label with=0
    labels=$(labels "$1" "$4")
    for label in $labels; do
        if grep -q "$2.*%$3" <<<"$(body "$label")"; then with=$((with + 1)); fi
    done
    [ "$with" = 1 ] \
        || { echo "check_mac_asm: $with instantiations of $1 have $2 on $3, expected 1 (the emitter's)"; exit 1; }
    echo "check_mac_asm: $1 ok (the emitter's instantiation has $2 on $3)"
}

# Every per-level function simd.rs defines must be named here.
LEVEL_FNS=$(grep -c '^#\[target_feature' crates/kernels/src/bitmap_spgemm/simd.rs)
[ "$LEVEL_FNS" = 5 ] || { echo "check_mac_asm: simd.rs has $LEVEL_FNS #[target_feature] functions, this script checks 5"; exit 1; }

# One A operand, the arena, into each sink: arena -> emitter, arena -> dense
# rows.
check run_bands_avx2 vmulps ymm 2
check run_bands_avx512 vmulps zmm 2
check_one run_bands_avx512 vcompressps zmm 2
check expand_b_avx512 vexpandps zmm 1
# A dense operand into the emitter. It multiplies nothing: at AVX2 the lane
# op is the branch-free rounding's add, at AVX-512 the compaction.
check encode_avx2 vaddps ymm 1
check encode_avx512 vcompressps zmm 1
