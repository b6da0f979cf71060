#!/usr/bin/env bash
# Compares the throughput figures of a fresh `experiments ... --json`
# report against a checked-in baseline (scripts/baselines/), failing when
# any QPS figure drops below TOLERANCE x its baseline value. Reports that
# carry allocation counts (`*allocs_per_request`, from the counting
# allocator in `experiments batch`) are additionally gated the other way:
# a fresh count may not exceed its baseline by more than 1/TOLERANCE —
# an allocation regression on the hot path, which QPS alone can miss on
# fast hardware.
#
#   usage: check_qps.sh BASELINE.json FRESH.json [TOLERANCE]
#
# Figures are matched positionally: every `"qps"` / `"read_qps"` field, in
# document order (batch reports carry cached / uncached sides; rw
# reports carry one read_qps per write fraction), so baseline and fresh
# runs must use the same experiment configuration. The default
# tolerance of 0.5 guards against collapses — a regression that halves
# throughput (or doubles allocations) — not run-to-run jitter; hardware
# differences are expected to stay well inside it. Allocation counts are
# hardware-independent, so they sit far inside the tolerance by design.
set -euo pipefail

if [ "$#" -lt 2 ]; then
    echo "usage: $0 BASELINE.json FRESH.json [TOLERANCE]" >&2
    exit 2
fi
baseline="$1"
fresh="$2"
tolerance="${3:-0.5}"

extract() {
    grep -oE '"(read_)?qps":[0-9]+(\.[0-9]+)?' "$1" | cut -d: -f2
}

base_vals="$(extract "$baseline")"
fresh_vals="$(extract "$fresh")"

if [ -z "$base_vals" ] || [ -z "$fresh_vals" ]; then
    echo "check_qps: no qps figures found in $baseline or $fresh" >&2
    exit 2
fi
if [ "$(echo "$base_vals" | wc -l)" != "$(echo "$fresh_vals" | wc -l)" ]; then
    echo "check_qps: $baseline and $fresh carry different numbers of qps figures;" \
         "regenerate the baseline with the current report format" >&2
    exit 2
fi

paste <(echo "$base_vals") <(echo "$fresh_vals") | awk -v tol="$tolerance" '
    {
        floor = $1 * tol
        status = ($2 >= floor) ? "ok" : "REGRESSED"
        printf "check_qps: figure %d: baseline %.1f qps, fresh %.1f qps (floor %.1f): %s\n",
               NR, $1, $2, floor, status
        if ($2 < floor) bad++
    }
    END { exit (bad > 0) ? 1 : 0 }
'

# Allocation-count gate (upper bound). Only engages when both reports
# carry the figures, so reports without the counting allocator's output
# (rw) pass through untouched.
extract_allocs() {
    grep -oE '"[a-z_]*allocs_per_request":[0-9]+(\.[0-9]+)?' "$1" | cut -d: -f2 || true
}
base_allocs="$(extract_allocs "$baseline")"
fresh_allocs="$(extract_allocs "$fresh")"
if [ -n "$base_allocs" ] && [ -n "$fresh_allocs" ]; then
    if [ "$(echo "$base_allocs" | wc -l)" != "$(echo "$fresh_allocs" | wc -l)" ]; then
        echo "check_qps: $baseline and $fresh carry different numbers of allocation figures;" \
             "regenerate the baseline with the current report format" >&2
        exit 2
    fi
    paste <(echo "$base_allocs") <(echo "$fresh_allocs") | awk -v tol="$tolerance" '
        {
            ceiling = $1 / tol
            status = ($2 <= ceiling) ? "ok" : "REGRESSED"
            printf "check_qps: alloc figure %d: baseline %.0f allocs/request, fresh %.0f (ceiling %.0f): %s\n",
                   NR, $1, $2, ceiling, status
            if ($2 > ceiling) bad++
        }
        END { exit (bad > 0) ? 1 : 0 }
    '
elif [ -n "$base_allocs$fresh_allocs" ]; then
    echo "check_qps: only one of $baseline / $fresh carries allocation figures;" \
         "regenerate the baseline with the current report format" >&2
    exit 2
fi
echo "check_qps: all figures within tolerance $tolerance of $baseline"
