#!/usr/bin/env bash
# Fails if a vector-level instantiation of the SpGEMM hot loops
# (crates/kernels/src/bitmap_spgemm/simd.rs) was compiled with a fused
# multiply-add, without its level's lane ops: a packed multiply on the level's
# registers for the band loops, the expand instruction for the AVX-512
# expansions of B and of A transposed, the compress instruction for the
# AVX-512 emitter, the interleaves of the in-register transposes (the
# transposing sink's and the emitter's), and the compare of the survivor
# count. It also fails if any other function of the crate names a ymm or zmm
# register.
#
# The word kernel is bit-identical to the scalar reference only while a MAC
# stays a rounded multiply then a rounded add, so `vfmadd*` anywhere in a
# per-level function is a bug. And a reformulated loop whose lane ops LLVM no
# longer inlines into the `#[target_feature]` function still passes every
# test, only slower, so `vmulps` on the level's registers (ymm / zmm),
# `vexpandps`, `vcompressps`, `v(p)unpckl*` and `vcmp*ps` have to be there. A
# lane op LLVM outlines instead (a helper, or a `core::arch` intrinsic called
# from one) is a function of its own, compiled without the level's features
# and called per lane op: every test still passes, at up to ten times the
# cost, and the only trace is a ymm / zmm register outside the per-level
# functions.
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
    # inner layers write; the dense rows a forward's last layer and a plain
    # `execute_encoded` write; and the transposed rows an `execute_encoded`
    # that runs as D^T = B^T * A^T writes).
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

check_some() { # <function> <instruction> <on this vector register> <instantiations> <with it> <sinks>
    # Exactly <with it> instantiations of a sink-generic function have the
    # sinks' lane op: those whose sink is one of <sinks>.
    local labels label with=0
    labels=$(labels "$1" "$4")
    for label in $labels; do
        if grep -q "$2.*%$3" <<<"$(body "$label")"; then with=$((with + 1)); fi
    done
    [ "$with" = "$5" ] \
        || { echo "check_mac_asm: $with instantiations of $1 have $2 on $3, expected $5 ($6)"; exit 1; }
    echo "check_mac_asm: $1 ok ($6 $2 on $3)"
}

# Only simd.rs's per-level functions name a ymm or zmm register. The label
# of a function is an unindented symbol line; `.L` labels are inside one. A
# per-level function's symbol, in either mangling, has its name end in
# `_avx2` / `_avx512` right after `simd`'s path.
OUTSIDE=$(awk '/^[^.\t #][^ \t]*:$/ { fn = substr($0, 1, length($0) - 1) }
               /%[yz]mm/ && fn != "" { print fn }' "$ASM" | sort -u \
    | grep -vE '13bitmap_spgemm4simd[0-9]+[a-z0-9_]*_avx(2|512)(17h[0-9a-f]{16}E|[^a-z0-9_]|$)' \
    || true)
[ -z "$OUTSIDE" ] || {
    echo "check_mac_asm: ymm / zmm registers outside simd.rs's per-level functions (a lane op outlined, compiled without the level's features):"
    echo "$OUTSIDE"
    exit 1
}
echo "check_mac_asm: no ymm / zmm register outside simd.rs's per-level functions"

# Every per-level function simd.rs defines must be named here.
LEVEL_FNS=$(grep -c '^#\[target_feature' crates/kernels/src/bitmap_spgemm/simd.rs)
[ "$LEVEL_FNS" = 9 ] || { echo "check_mac_asm: simd.rs has $LEVEL_FNS #[target_feature] functions, this script checks 9"; exit 1; }

# A transpose's interleaves: LLVM may pick the integer-domain twins
# (vpunpckldq / vpunpcklqdq) of vunpcklps / vunpcklpd when it only moves the
# values.
UNPCKL='vp\?unpckl'

# One condensed operand, the arena, into each sink: arena -> emitter, arena
# -> dense rows, arena -> transposed rows. Only the emitter compresses; the
# emitter and the transposed rows interleave (each transposes in registers),
# the dense rows do not.
check run_bands_avx2 vmulps ymm 3
check run_bands_avx512 vmulps zmm 3
check_some run_bands_avx512 vcompressps zmm 3 1 "the emitter's instantiation has"
check_some run_bands_avx2 "$UNPCKL" ymm 3 2 "the emitter's and the transposed rows' instantiations have"
check_some run_bands_avx512 "$UNPCKL" zmm 3 2 "the emitter's and the transposed rows' instantiations have"
# A forward's small band (at most SMALL_ROWS live rows) into the emitter and
# into the dense rows, its accumulators held in zmm registers.
check run_small_band_avx512 vmulps zmm 2
check_some run_small_band_avx512 vcompressps zmm 2 1 "the emitter's instantiation has"
# Its row loop unrolls, so each of the 8 x 2 accumulators has a multiply of
# its own; a loop left rolled indexes them in memory and shows two.
for label in $(labels run_small_band_avx512 2); do
    n=$(body "$label" | grep -c 'vmulps.*%zmm')
    [ "$n" -ge 16 ] \
        || { echo "check_mac_asm: $label has $n vmulps on zmm, expected >= 16 (row loop rolled)"; exit 1; }
done
check expand_b_avx512 vexpandps zmm 1
check expand_at_avx512 vexpandps zmm 1
# A dense operand into the emitter. It multiplies nothing: at AVX2 the lane
# op is the branch-free rounding's add, at AVX-512 the compaction; at both
# the tile transpose interleaves.
check encode_avx2 vaddps ymm 1
check encode_avx512 vcompressps zmm 1
check encode_avx2 "$UNPCKL" ymm 1
check encode_avx512 "$UNPCKL" zmm 1
# The survivor count an owned A operand takes before the emitter writes it:
# a compare on the level's registers.
check survivors_avx2 vcmp ymm 1
check survivors_avx512 vcmp zmm 1
