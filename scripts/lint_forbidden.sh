#!/usr/bin/env bash
# Source lint gate (runs offline, no cargo needed).
#
# Rules, applied to library sources (`crates/*/src`, `compat/*/src`, `src`)
# outside test code (per file, scanning stops at the first `#[cfg(test)]`;
# `*_tests.rs` files are skipped entirely):
#
#   1. `.unwrap()` / `.expect(` must carry a `// invariant:` comment on the
#      same line or within the 3 preceding lines explaining why the value
#      cannot be absent.
#   2. `unsafe` must carry a `// SAFETY:` comment in the same window (the
#      workspace currently forbids unsafe everywhere; this guards future
#      exceptions).
#   3. In the checkpoint reader (`crates/nn/src/checkpoint.rs`), narrowing
#      `as u16|u32|usize` casts must carry a `// invariant:` comment; length
#      fields there must use checked conversions instead.
#   4. `std::time::Instant` is forbidden outside `crates/obs/src` and
#      `crates/bench/src`, the vendored compat shims included: product
#      crates must read wall-clock through `cts_obs::{timer, Stopwatch}` so the
#      metrics-off path stays free of clock syscalls.
#   5. `cts_autograd` (the tape) must never be referenced inside
#      `crates/runtime/src`: compiled plans are tape-free by construction,
#      and the parity guarantee depends on the runtime never re-entering
#      autograd.
#   6. The serving request path (`crates/runtime/src`, `crates/serve/src`)
#      must never panic on request data: `assert!`/`assert_eq!`/
#      `assert_ne!`/`debug_assert*`/`panic!`/`.unwrap()` are forbidden
#      there — failures must surface as typed `ServeError`s. Annotated
#      `.expect(` with `// invariant:` stays allowed (rule 1) for
#      conditions the code itself makes impossible — EXCEPT on channel
#      results: a `.send(`/`.recv(`/`.try_recv(`/`.recv_timeout(` result
#      must map to `ServeError::ShardDown`/`FrontClosed`, never be
#      unwrapped or expected (a worker dying is an operational event,
#      not an invariant the sender controls).
#   7. The cost model (`crates/verify/src/cost.rs` and the pricing entry
#      point in `crates/core/src/preflight.rs`), the kernel price
#      rules of the `Price` backend (`crates/nn/src/price.rs`) and the
#      plan compiler (`crates/runtime/src/plan.rs`) size buffers in
#      u64/usize; bare ` * ` / ` + ` there must be
#      `checked_*`/`saturating_*` instead —
#      an overflow in a size computation silently prices a genotype
#      wrong. Float lines are exempt when marked `f32`/`f64` on the
#      line (comment counts).
#   8. Inside `crates/tensor/src`, `unsafe` may appear only in the two
#      opt-out modules: `pool.rs` (lifetime-erased task pointers) and
#      `simd.rs` (core::arch intrinsics). Everywhere else in the crate
#      the `#![deny(unsafe_code)]` at lib.rs must stay load-bearing —
#      a vectorized kernel belongs in the simd module, not inline.
#      (Rule 2 still requires a `// SAFETY:` comment at every use.)
#   9. No `partial_cmp` inside a `sort_by`/`sort_unstable_by` comparator
#      (tracked from the call's opening parenthesis to its closing one,
#      across lines). `partial_cmp(..).unwrap_or(Equal)` is not a total
#      order once a NaN is compared, and the standard sorts may panic on
#      such a comparator; write an explicit total order (e.g. NaN last).
#
# Exits non-zero with a `file:line` listing on any finding.
set -euo pipefail
cd "$(dirname "$0")/.."

findings=$(mktemp)
trap 'rm -f "$findings"' EXIT

while IFS= read -r f; do
    awk -v look=3 '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        {
            hist[NR] = $0
            ok_inv = 0; ok_safety = 0
            for (i = NR; i >= NR - look && i >= 1; i--) {
                if (hist[i] ~ /\/\/ invariant:/) ok_inv = 1
                if (hist[i] ~ /\/\/ SAFETY:/) ok_safety = 1
            }
            line = $0
            sub(/\/\/.*/, "", line)  # comment text never triggers a rule
            if (line ~ /\.unwrap\(\)|\.expect\(/ && !ok_inv)
                printf "%s:%d: unannotated unwrap/expect (add // invariant:)\n", FILENAME, NR
            if (line ~ /(^|[^a-zA-Z_])unsafe([^a-zA-Z_]|$)/ && !ok_safety)
                printf "%s:%d: unsafe without // SAFETY: comment\n", FILENAME, NR
            if (FILENAME ~ /crates\/nn\/src\/checkpoint\.rs$/ \
                && line ~ / as (u16|u32|usize)([^0-9_a-zA-Z]|$)/ && !ok_inv)
                printf "%s:%d: unchecked narrowing cast in checkpoint reader\n", FILENAME, NR
            if (FILENAME !~ /^crates\/(obs|bench)\/src\// \
                && line ~ /(^|[^a-zA-Z_])Instant([^a-zA-Z_]|$)/)
                printf "%s:%d: Instant outside cts-obs/cts-bench (use cts_obs timers)\n", FILENAME, NR
            if (FILENAME ~ /^crates\/runtime\/src\// && line ~ /cts_autograd/)
                printf "%s:%d: cts_autograd referenced inside cts-runtime (plans are tape-free)\n", FILENAME, NR
            if ((FILENAME ~ /crates\/verify\/src\/cost\.rs$/ || FILENAME ~ /crates\/nn\/src\/price\.rs$/ \
                 || FILENAME ~ /crates\/core\/src\/preflight\.rs$/ \
                 || FILENAME ~ /crates\/runtime\/src\/plan\.rs$/) \
                && $0 !~ /f32|f64/ && line ~ / \* | \+ /)
                printf "%s:%d: bare size arithmetic in cost model (use checked_/saturating_, or mark f64)\n", FILENAME, NR
            if (FILENAME ~ /^crates\/(runtime|serve)\/src\// \
                && line ~ /(^|[^a-zA-Z_!])(assert|assert_eq|assert_ne|debug_assert|debug_assert_eq|debug_assert_ne|panic)!|\.unwrap\(\)/)
                printf "%s:%d: panic path in serving code (return a typed ServeError)\n", FILENAME, NR
            if (FILENAME ~ /^crates\/(runtime|serve)\/src\// \
                && line ~ /\.(send|recv|try_recv|recv_timeout)\(/ \
                && line ~ /\.unwrap\(\)|\.expect\(/)
                printf "%s:%d: channel result unwrapped in serving code (map to ServeError::ShardDown/FrontClosed)\n", FILENAME, NR
            if (!in_sort && match(line, /sort(_unstable)?_by\(/)) {
                in_sort = 1; depth = 0; rest = substr(line, RSTART)
            } else if (in_sort) {
                rest = line
            }
            if (in_sort) {
                if (rest ~ /partial_cmp/)
                    printf "%s:%d: partial_cmp in a sort comparator (not a total order with NaN)\n", FILENAME, NR
                for (i = 1; i <= length(rest); i++) {
                    ch = substr(rest, i, 1)
                    if (ch == "(") depth++
                    if (ch == ")" && --depth == 0) { in_sort = 0; break }
                }
            }
            if (FILENAME ~ /^crates\/tensor\/src\// && FILENAME !~ /crates\/tensor\/src\/(pool|simd)\.rs$/ \
                && line ~ /(^|[^a-zA-Z_])unsafe([^a-zA-Z_]|$)/)
                printf "%s:%d: unsafe in cts-tensor outside pool.rs/simd.rs (move the intrinsics into the simd module)\n", FILENAME, NR
        }
    ' "$f" >>"$findings"
done < <(find crates/*/src compat/*/src src -name '*.rs' ! -name '*_tests.rs' | sort)

if [[ -s "$findings" ]]; then
    echo "lint_forbidden: $(wc -l <"$findings") finding(s):" >&2
    cat "$findings" >&2
    exit 1
fi
echo "lint_forbidden: clean"
