#!/usr/bin/env bash
# Tier-1 verification: everything CI gates on. Runs fully offline — the
# workspace has zero external dependencies by design (see DESIGN.md §7).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace
cargo test -q --workspace
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
# The serving benchmark (perfbench/, see BENCHMARK.json) is its own package
# with path dependencies on the crates: an API change that breaks it must
# fail here, not in the benchmark pipeline.
cargo check --offline --manifest-path perfbench/Cargo.toml --target-dir target/perfbench

# Catalog smoke test: drive tlc-serve over stdin — open a second document,
# query both databases, edit the second's source, hot-swap it with .reload,
# and check each answer in the framed output.
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
second="$smoke_dir/second.xml"
printf '<site><person><name>Ann</name></person></site>' > "$second"
out="$smoke_dir/out.txt"
{
    printf 'FOR $p IN document("auction.xml")//person RETURN $p/name/text()\n'
    printf '.open second %s\n' "$second"
    printf 'FOR $p IN document("auction.xml")//person RETURN $p/name\n'
    # Let the server drain the queries above before the source changes
    # under it; the pipe gives us no other ordering guarantee.
    sleep 1
    printf '<site><person><name>Bea</name></person></site>' > "$second"
    printf '.reload second\n'
    printf 'FOR $p IN document("auction.xml")//person RETURN $p/name\n'
    printf '.catalog\n'
    printf '.use main\n'
    printf '.drop second\n'
    printf '.catalog\n'
    printf '.quit\n'
} | ./target/release/tlc-serve --factor 0.001 > "$out" 2>/dev/null
grep -q '<name>Ann</name>' "$out"       # pre-swap answer from `second`
grep -q 'reloaded second: epoch 1' "$out"
grep -q '<name>Bea</name>' "$out"       # post-swap answer sees the edit
grep -q 'catalog: 2 database(s)' "$out"
grep -q 'dropped second' "$out"         # .drop purges the plan + match caches
grep -q 'catalog: 1 database(s)' "$out"
echo "tier1: catalog smoke test passed"

# Skewed-mix smoke: the replay must byte-match the single-threaded
# reference on every answer and actually hit the match cache (the binary
# exits non-zero on either defect); assert the nonzero hit rate in the
# output too so a silent format change cannot mask it. The same run
# replays identical traffic uncached, and reports the counting
# allocator's allocations per request on the cached side (check_qps.sh
# gates that figure against the baseline).
batch_out="$smoke_dir/batch.txt"
./target/release/experiments batch --factor 0.0005 --clients 4 --requests 40 \
    --json "$smoke_dir/batch.json" > "$batch_out" 2>/dev/null
grep -q 'byte mismatches vs single-threaded reference: 0' "$batch_out"
grep -Eq 'match cache hit rate: ([1-9][0-9]*\.[0-9]|0\.[1-9])%' "$batch_out"
grep -q 'heap allocs/request' "$batch_out"
grep -q '"allocs_per_request":' "$smoke_dir/batch.json"
echo "tier1: skewed-mix smoke test passed"

# In-place update smoke: mutate a tiny catalog database through the line
# protocol (the document is 5 GAP-spaced nodes, so pre ordinals are
# knowable: site=32, person=64, name=96), confirm every answer reflects
# the mutation, and confirm the copy-on-write commit carried warmed
# plan/match cache entries into the new epoch. The manifest written by
# the first server must restore the catalog — name and epoch — on the
# next start.
tiny="$smoke_dir/tiny.xml"
printf '<site><person><name>Ann</name></person></site>' > "$tiny"
rw_out="$smoke_dir/rw.txt"
{
    printf '.open tiny %s\n' "$tiny"
    printf 'FOR $p IN document("auction.xml")//person RETURN $p/name\n'
    printf 'FOR $n IN document("auction.xml")//note RETURN $n\n'
    printf '.insert auction.xml 32 <note>smoke</note>\n'
    printf 'FOR $n IN document("auction.xml")//note RETURN $n\n'
    printf '.settext auction.xml 96 Bea\n'
    printf 'FOR $p IN document("auction.xml")//person RETURN $p/name\n'
    printf '.metrics\n'
    printf '.quit\n'
} | ./target/release/tlc-serve --factor 0.001 --manifest "$smoke_dir/catalog.manifest" \
    > "$rw_out" 2>/dev/null
grep -q 'updated tiny: epoch 1' "$rw_out"
grep -q '<note>smoke</note>' "$rw_out"   # the insert is queryable
grep -q 'updated tiny: epoch 2' "$rw_out"
grep -q '<name>Bea</name>' "$rw_out"     # the settext is queryable
# Selective invalidation: warmed entries whose footprints miss the
# mutated range must survive both epoch bumps.
grep -Eq 'db tiny: 2 update\(s\), [1-9][0-9]* plan\(s\) and [1-9][0-9]* match entr\(ies\) carried across epochs' "$rw_out"
restart_out="$smoke_dir/restart.txt"
printf '.catalog\n.quit\n' | ./target/release/tlc-serve --factor 0.001 \
    --manifest "$smoke_dir/catalog.manifest" > "$restart_out" 2>&1
grep -q 'restored 1 database(s) from manifest' "$restart_out"
grep -q 'tiny: epoch 2' "$restart_out"
echo "tier1: update + manifest smoke test passed"

# Shell smoke: tlc-shell answers its catalog and update commands through
# the protocol's session on an in-process service, so an update at the
# prompt must print the protocol's commit line (with carry counts), the
# next local query must see the inserted fragment, and `.metrics` must
# report the commit per database.
shell_out="$smoke_dir/shell.txt"
{
    printf '.open tiny %s\n' "$tiny"
    printf 'FOR $n IN document("auction.xml")//note RETURN $n;\n'
    printf '.insert auction.xml 32 <note>shell</note>\n'
    printf 'FOR $n IN document("auction.xml")//note RETURN $n;\n'
    printf '.metrics\n'
    printf '.quit\n'
} | ./target/release/tlc-shell --factor 0.001 > "$shell_out" 2>/dev/null
grep -Eq 'updated tiny: epoch 1, \+1/-0 node\(s\), [0-9]+ plan\(s\) and [0-9]+ match entr\(ies\) carried' "$shell_out"
grep -q '<note>shell</note>' "$shell_out"
grep -q 'db tiny: 1 update(s)' "$shell_out"
echo "tier1: shell smoke test passed"

# Mixed read/write experiment: every read byte-checked against a
# reparse-from-scratch reference, store invariants verified after every
# write. The binary exits non-zero on any mismatch, error, or check
# failure — and if no plan ever carried across a mutation epoch.
rwexp_out="$smoke_dir/rwexp.txt"
./target/release/experiments rw --factor 0.0005 --ops 60 > "$rwexp_out" 2>/dev/null
grep -q 'rw run clean' "$rwexp_out"
grep -q 'mismatches 0, errors 0, check failures 0' "$rwexp_out"
echo "tier1: read/write experiment smoke test passed"

# Static-analysis smoke: `.explain <query>` through the protocol must
# report the crafted lints (statically-empty select, redundant DupElim,
# dead Project column) plus the footprint and liveness sections.
explain_out="$smoke_dir/explain.txt"
{
    printf '.explain FOR $z IN document("auction.xml")//zzz RETURN $z\n'
    printf '.explain FOR $p IN document("auction.xml")//person LET $n := $p/name RETURN <r>{$p/age}</r>\n'
    printf '.quit\n'
} | ./target/release/tlc-serve --factor 0.001 > "$explain_out" 2>/dev/null
grep -q 'warning\[empty-select\]' "$explain_out"
grep -q 'warning\[redundant-dupelim\]' "$explain_out"
grep -q 'warning\[dead-project-column\]' "$explain_out"
grep -q '== footprint ==' "$explain_out"
grep -q '== liveness ==' "$explain_out"
echo "tier1: explain/lint smoke test passed"

# Differential soundness oracle: seeded random plans, every static claim
# (cardinality, liveness-pruning byte-identity, empty-select lints,
# footprint-based cache carry, match-cache transparency under no, cold
# and warm caches) checked against execution. The binary exits non-zero
# on any violation.
lint_out="$smoke_dir/lintcheck.txt"
./target/release/experiments lintcheck --factor 0.0005 --plans 60 > "$lint_out" 2>/dev/null
grep -q 'lintcheck clean' "$lint_out"
grep -Eq 'match cache: [1-9][0-9]* plan\(s\) replayed uncached, cold and warm' "$lint_out"
echo "tier1: lintcheck oracle smoke test passed"

# Throughput non-regression against the checked-in baselines: re-run the
# batch and rw sweeps at baseline configuration and compare every QPS
# figure (scripts/check_qps.sh fails on a drop past tolerance).
./target/release/experiments batch --json "$smoke_dir/bench_batch.json" \
    > /dev/null 2>&1
./scripts/check_qps.sh scripts/baselines/BENCH_batch.json "$smoke_dir/bench_batch.json"
./target/release/experiments rw --json "$smoke_dir/bench_rw.json" \
    > /dev/null 2>&1
./scripts/check_qps.sh scripts/baselines/BENCH_rw.json "$smoke_dir/bench_rw.json"
echo "tier1: QPS baseline check passed"
