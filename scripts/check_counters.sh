#!/usr/bin/env bash
# Deterministic performance gate over the serving benchmark (perfbench/,
# see BENCHMARK.json). Takes no arguments:
#
#   scripts/check_counters.sh
#
# It builds perfbench in release into target/perfbench, runs the two
# single-client workloads traced (`--seed 7 --trace 1`), and compares the
# `perfbench: prefix counts name=value ...` line each run prints on stderr
# with scripts/baselines/counters.txt. Those counters cover the first
# `prefix` requests of the run's untraced half (1000 on rw_mix, 200 on
# adhoc_large): executor counters, plan- and match-cache hits, misses and
# evictions, carry counts and heap allocations. They depend on neither
# timing nor core count, so every counter must equal its baseline exactly.
# The one exception is `allocs`, which may differ from its baseline by less
# than 1e-4 of it (perfbench's own ALLOC_JITTER rule for same-seed replays).
# Each run must also exit 0, and its last stdout line must report
# "correct": true, "failed": 0 and a determinism.drift of 0.
#
# Run lengths. The untraced half lasts --seconds / 2 and must reach the
# prefix. On a 2-vCPU host, and pinned to one of its CPUs, rw_mix serves
# ~1100 requests/s and adhoc_large 95-150/s. So --seconds 6 gives rw_mix
# 3 s for its 1000 requests (3.3x headroom) and --seconds 10 gives
# adhoc_large 5 s for its 200 (2.4x at the slowest rate seen); --seconds 2
# cut adhoc_large short. A run too short to reach its prefix fails.
#
# hot_mix is not gated: it runs 2 clients, so perfbench prints no prefix
# counts for it. Wall-clock figures (QPS, latency) gate nothing here.
#
# Baseline rule: a change that moves a counter updates counters.txt in the
# same change and explains the move in CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."

baseline="scripts/baselines/counters.txt"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml \
    --target-dir target/perfbench
bin="$PWD/target/perfbench/release/perfbench"

# perfbench writes its span files under the working directory; keep them
# out of the tree.
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

failed=0
for spec in rw_mix:6 adhoc_large:10; do
    workload="${spec%%:*}"
    seconds="${spec##*:}"
    out="$work/$workload.out"
    err="$work/$workload.err"
    status=0
    (cd "$work" && "$bin" --workload "$workload" --seed 7 --seconds "$seconds" --trace 1) \
        > "$out" 2> "$err" || status=$?
    problems=()
    [ "$status" -eq 0 ] || problems+=("exit code $status")
    last="$(tail -n 1 "$out")"
    grep -q '"correct": true' <<< "$last" || problems+=('no "correct": true')
    grep -q '"failed": 0,' <<< "$last" || problems+=('no "failed": 0')
    grep -q '"determinism.drift": {"value": 0.0,' <<< "$last" ||
        problems+=("determinism.drift is not 0")
    counts="$(sed -n 's/^perfbench: prefix counts //p' "$err")"
    [ -n "$counts" ] || problems+=("no prefix counts line on stderr")
    if [ "${#problems[@]}" -gt 0 ]; then
        for p in "${problems[@]}"; do
            echo "check_counters: $workload: $p" >&2
        done
        sed 's/^/    /' "$err" >&2
        failed=1
        continue
    fi
    # Baseline lines are `<workload> <name>=<value>`; the fresh line is
    # space-separated `<name>=<value>` pairs.
    if ! grep "^$workload " "$baseline" | cut -d' ' -f2 |
        awk -v fresh="$counts" -v workload="$workload" '
            BEGIN {
                n = split(fresh, pairs, " ")
                for (i = 1; i <= n; i++) {
                    split(pairs[i], kv, "=")
                    now[kv[1]] = kv[2]
                }
            }
            {
                split($0, kv, "=")
                name = kv[1]; base = kv[2]
                seen[name] = 1
                if (!(name in now)) {
                    printf "check_counters: %s: %s: %s → missing\n", workload, name, base
                    bad++
                    next
                }
                diff = now[name] - base
                if (diff < 0) diff = -diff
                moved = (name == "allocs") ? (diff * 10000 >= base) : (diff != 0)
                if (moved) {
                    printf "check_counters: %s: %s: %s → %s\n", workload, name, base, now[name]
                    bad++
                }
            }
            END {
                for (name in now) {
                    if (!(name in seen)) {
                        printf "check_counters: %s: %s: (no baseline) → %s\n",
                            workload, name, now[name]
                        bad++
                    }
                }
                if (NR == 0) {
                    printf "check_counters: %s: no baseline in counters.txt\n", workload
                    bad++
                }
                exit bad > 0
            }' >&2; then
        failed=1
        continue
    fi
    echo "check_counters: $workload: all counters match $baseline"
done
if [ "$failed" -ne 0 ]; then
    echo "check_counters: FAILED (a change that moves a counter updates $baseline and says why in CHANGES.md)" >&2
    exit 1
fi
