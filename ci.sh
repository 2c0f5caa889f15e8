#!/usr/bin/env bash
# CI gate: formatting, lints, and the tier-1 verify.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo test --doc"
cargo test -q --doc --workspace

echo "==> docs check: md_check (fenced sh blocks parse, intra-repo links resolve)"
cargo run --release -p backboning_bench --bin md_check

echo "==> tier-1 verify: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> graph crate tests in release mode (no overflow checks)"
# CsrBuilder::finish indexes with u32 arithmetic; release builds turn the
# overflow checks of the debug run above off, so its tests run there too.
cargo test --release -q -p backboning_graph

echo "==> NC score bits in release mode (the posterior inlined into the scorer)"
# The Beta–Binomial posterior inlines into the NC scorer only in an
# optimised build, so its bit pins run there too.
cargo test --release -q -p backboning --test nc_bits

echo "==> benchmark harness: build and test perfbench against the current crates"
# perfbench is a workspace of its own, so `cargo test` above skips it; an API
# change that breaks the harness fails here rather than in the next
# benchmark run.
cargo test --offline -q --manifest-path perfbench/Cargo.toml

echo "==> perf smoke: bench_snapshot -> a temp file"
# BENCH_SCALE=full adds the million-node substrates (that mode produces the
# committed BENCH_backbones.json); the default keeps the smoke budget. The
# smoke-scale rows go to a temp file, so the committed full-scale record
# is left as it is.
SNAPSHOT_JSON=$(mktemp --suffix .json)
cleanup_snapshot() { rm -f "$SNAPSHOT_JSON"; }
trap cleanup_snapshot EXIT
BENCH_SNAPSHOT_PATH="$SNAPSHOT_JSON" cargo run --release -p backboning_bench --bin bench_snapshot
grep -q '"substrate": ' "$SNAPSHOT_JSON"
cleanup_snapshot
trap - EXIT

echo "==> large-substrate smoke: 100k-node BA through score -> select (180 s budget)"
SMOKE_TSV=$(mktemp --suffix .tsv)
cleanup_smoke() { rm -f "$SMOKE_TSV"; }
trap cleanup_smoke EXIT
./target/release/backbone gen 'ba:n=100000,m=3,w=unit,noise=0,seed=4242' --out "$SMOKE_TSV"
SMOKE_SUMMARY=$(timeout 180 ./target/release/backbone --method nc --top-share 0.1 \
    --undirected -o summary "$SMOKE_TSV")
echo "$SMOKE_SUMMARY" | grep -q '"nodes": 100000'
echo "$SMOKE_SUMMARY" | grep -q '"method": "nc"'

# hss-approx smoke: the sampled-root estimator serves the same 100k
# substrate inside the same budget (256 roots, default seed).
SMOKE_HSSA=$(timeout 180 ./target/release/backbone --method hss-approx --hss-roots 256 \
    --top-share 0.05 --undirected -o summary "$SMOKE_TSV")
echo "$SMOKE_HSSA" | grep -q '"method": "hss-approx"'
echo "$SMOKE_HSSA" | grep -q '"hss_roots": 256'
cleanup_smoke
trap - EXIT

echo "==> weighted-queue smoke: exact and all-root sampled HSS agree at 1 and 2 threads"
# The hss-approx smoke above has unit weights and takes the batched BFS.
# This graph has uniform(10) weights, so every tree grows through
# CsrDijkstra's bucket queue. With as many roots as nodes, hss-approx is
# the exact skeleton, and neither may depend on the thread count.
HSSW_TSV=$(mktemp --suffix .tsv)
HSSW_DIR=$(mktemp -d)
cleanup_hssw() { rm -rf "$HSSW_TSV" "$HSSW_DIR"; }
trap cleanup_hssw EXIT
./target/release/backbone gen 'er:n=2000,e=6000,w=uniform(10),noise=0.1,seed=701' > "$HSSW_TSV"
for HSSW_THREADS in 1 2; do
    ./target/release/backbone -m hss --top-share 0.1 --undirected \
        --threads "$HSSW_THREADS" "$HSSW_TSV" > "$HSSW_DIR/hss-$HSSW_THREADS.tsv"
    ./target/release/backbone -m hss-approx --hss-roots 2000 --top-share 0.1 --undirected \
        --threads "$HSSW_THREADS" "$HSSW_TSV" > "$HSSW_DIR/hssa-$HSSW_THREADS.tsv"
done
[ "$(wc -l < "$HSSW_DIR/hss-1.tsv")" -gt 500 ]
for HSSW_RUN in hss-2 hssa-1 hssa-2; do
    cmp "$HSSW_DIR/hss-1.tsv" "$HSSW_DIR/$HSSW_RUN.tsv"
done
cleanup_hssw
trap - EXIT

echo "==> DS smoke: a 50k-node graph is refused with exit 1, not an allocation abort"
# DS's dense matrix would take 20 GB. Under a 4 GB address-space limit the
# allocation fails, and the method must report that instead of aborting.
DS_TSV=$(mktemp --suffix .tsv)
cleanup_ds() { rm -f "$DS_TSV"; }
trap cleanup_ds EXIT
./target/release/backbone gen 'ba:n=50000,m=2,w=unit,noise=0,seed=1' > "$DS_TSV"
DS_STATUS=0
(ulimit -v 4000000 && exec ./target/release/backbone -m ds --top-k 10 "$DS_TSV") \
    >/dev/null 2>&1 || DS_STATUS=$?
[ "$DS_STATUS" = "1" ]
cleanup_ds
trap - EXIT

echo "==> policy smoke: an out-of-range share is refused for every method"
# MST keeps a fixed edge set whatever the share, so without the check it
# printed its spanning tree for `--top-share 7` and exited 0.
MST_STATUS=0
./target/release/backbone -m mst --top-share 7 --undirected docs/examples/trade.tsv \
    >/dev/null 2>&1 || MST_STATUS=$?
[ "$MST_STATUS" = "1" ]
# A sampled HSS without roots is refused the same way, before the input
# (here a missing file) is read.
ROOTS_STATUS=0
ROOTS_ERR=$(./target/release/backbone -m hss-approx --hss-roots 0 --top-k 1 \
    /nonexistent.tsv 2>&1) || ROOTS_STATUS=$?
[ "$ROOTS_STATUS" = "1" ]
echo "$ROOTS_ERR" | grep -q 'sampled-root HSS needs at least one root'

echo "==> hub smoke: one PATCH reweighting every edge of a 160k-leaf star (10 s budget)"
# Resolving the batch reads each adjacency row at most twice and writing
# the weights rewrites each touched row once, so the batch costs the hub's
# degree, not its square, undirected (leaf rows) and directed (hub row).
HUB_TSV=$(mktemp --suffix .tsv)
HUB_DELTA=$(mktemp --suffix .tsv)
HUB_OUT=$(mktemp --suffix .tsv)
cleanup_hub() { rm -f "$HUB_TSV" "$HUB_DELTA" "$HUB_OUT"; }
trap cleanup_hub EXIT
seq 1 160000 | awk '{ print "0\t" $1 "\t1" }' > "$HUB_TSV"
seq 1 160000 | awk '{ print "reweight 0 " $1 " 2" }' > "$HUB_DELTA"
for HUB_DIRECTION in --undirected --directed; do
    timeout 10 ./target/release/backbone patch "$HUB_DELTA" "$HUB_TSV" "$HUB_DIRECTION" \
        > "$HUB_OUT"
    [ "$(awk '!/^#/ && $3 == 2' "$HUB_OUT" | wc -l)" = "160000" ]
done
cleanup_hub
trap - EXIT

echo "==> timings smoke: --timings prints a stage table to stderr only"
TIMINGS_OUT=$(./target/release/backbone --method nc --top-k 5 --undirected --timings \
    -o summary docs/examples/trade.tsv 2>/dev/null)
TIMINGS_ERR=$(./target/release/backbone --method nc --top-k 5 --undirected --timings \
    -o summary docs/examples/trade.tsv 2>&1 >/dev/null)
echo "$TIMINGS_OUT" | grep -q '"stage_ms": { "score": '
echo "$TIMINGS_ERR" | grep -q '^ingest'
echo "$TIMINGS_ERR" | grep -q '^score'
echo "$TIMINGS_ERR" | grep -q '^write'
echo "$TIMINGS_ERR" | grep -q '^total'
# stdout stays pure pipeline output: no table rows leak into it.
if echo "$TIMINGS_OUT" | grep -q '^total'; then exit 1; fi

echo "==> label-route smoke: decimal and hashed labels give one backbone"
# Generated node names 0..n-1 take the label table's decimal route; the
# same graph with every name prefixed by `n` takes its hashed route. Once
# the prefix is stripped again, the two backbones are the same bytes.
LABEL_TSV=$(mktemp --suffix .tsv)
LABEL_PREFIXED=$(mktemp --suffix .tsv)
LABEL_DECIMAL=$(mktemp --suffix .tsv)
LABEL_HASHED=$(mktemp --suffix .tsv)
cleanup_labels() { rm -f "$LABEL_TSV" "$LABEL_PREFIXED" "$LABEL_DECIMAL" "$LABEL_HASHED"; }
trap cleanup_labels EXIT
./target/release/backbone gen 'ba:n=20000,m=3,w=powerlaw(2.5),noise=0.1,seed=4242' > "$LABEL_TSV"
awk 'BEGIN { OFS = "\t" } /^#/ { print; next } { print "n" $1, "n" $2, $3 }' \
    "$LABEL_TSV" > "$LABEL_PREFIXED"
./target/release/backbone -m nc --top-share 0.1 "$LABEL_TSV" > "$LABEL_DECIMAL"
./target/release/backbone -m nc --top-share 0.1 "$LABEL_PREFIXED" \
    | sed 's/^n//; s/\tn/\t/' > "$LABEL_HASHED"
[ "$(wc -l < "$LABEL_DECIMAL")" -gt 1000 ]
cmp "$LABEL_DECIMAL" "$LABEL_HASHED"
cleanup_labels
trap - EXIT

echo "==> gen smoke: backbone gen | backbone nc"
# A community-structured scenario straight through the pipeline, by pipe.
GEN_SPEC='sb:n=5000,b=8,pin=0.02,pout=0.0008,w=lognormal(0,1),noise=0.1,seed=4242'
GEN_SUMMARY=$(./target/release/backbone gen "$GEN_SPEC" \
    | ./target/release/backbone --method nc --top-share 0.1 --undirected -o summary)
echo "$GEN_SUMMARY" | grep -q '"method": "nc"'
echo "$GEN_SUMMARY" | grep -q '"nodes": 5000'
# Same spec, same bytes: the gen output hashes identically across runs.
GEN_HASH_A=$(./target/release/backbone gen "$GEN_SPEC" | sha256sum)
GEN_HASH_B=$(./target/release/backbone gen "$GEN_SPEC" | sha256sum)
[ "$GEN_HASH_A" = "$GEN_HASH_B" ]

echo "==> round-trip smoke: gen | naive --threshold 0 gives back the same bytes"
# Every edge kept, in edge-id order: the written weights (2.2e-8 to 8.1e6,
# shortest round-trip digits) must read back to the same f64s and be
# written as the same text again.
RT_GEN=$(mktemp --suffix .tsv)
RT_OUT=$(mktemp --suffix .tsv)
cleanup_roundtrip() { rm -f "$RT_GEN" "$RT_OUT"; }
trap cleanup_roundtrip EXIT
./target/release/backbone gen \
    'sb:n=3000,b=6,pin=0.03,pout=0.001,w=lognormal(0,4),noise=0.3,seed=11' > "$RT_GEN"
./target/release/backbone -m naive --threshold 0 < "$RT_GEN" > "$RT_OUT"
[ "$(wc -l < "$RT_GEN")" -gt 20000 ]
cmp "$RT_GEN" "$RT_OUT"
cleanup_roundtrip
trap - EXIT
# A node name holding a tab (possible with --csv) is refused with exit 1,
# not written back as a line that reads as a different graph.
TAB_STATUS=0
printf 'x\t2,3,1\n3,4,5\n' | ./target/release/backbone --csv -m naive --threshold 0 2>/dev/null \
    | ./target/release/backbone --tsv -m naive --threshold 0 >/dev/null || TAB_STATUS=$?
[ "$TAB_STATUS" = "1" ]
# A node name holding a space (also possible with --csv) is written into a
# line that the whitespace reader splits into four fields. It is refused
# with exit 1, not read back as the edge `x 5` with weight 6.
SPACE_STATUS=0
printf 'x,5 6,3\n' | ./target/release/backbone --csv -m naive --threshold 0 2>/dev/null \
    | ./target/release/backbone -m naive --threshold 0 >/dev/null 2>&1 || SPACE_STATUS=$?
[ "$SPACE_STATUS" = "1" ]

echo "==> bench-matrix smoke: 3-cell sweep, rows parse and are run-stable"
MATRIX_A=$(mktemp --suffix .json)
MATRIX_B=$(mktemp --suffix .json)
MATRIX_COPY=$(mktemp --suffix .json)
cleanup_matrix() { rm -f "$MATRIX_A" "$MATRIX_B" "$MATRIX_COPY"; }
trap cleanup_matrix EXIT
MATRIX_SPECS='ba:n=2000,m=3,seed=4242;geo:n=2000,r=0.04,w=powerlaw(2.5),seed=4242;sb:n=2000,b=8,pin=0.01,pout=0.0004,w=lognormal(0,1),seed=4242'
./target/release/bench_matrix --specs "$MATRIX_SPECS" --methods nc \
    --runs 1 --out "$MATRIX_A" | grep -q '3 cell(s) swept'
./target/release/bench_matrix --specs "$MATRIX_SPECS" --methods nc \
    --runs 1 --out "$MATRIX_B" >/dev/null
# The appended rows parse (one per cell, keyed by spec) ...
[ "$(grep -c '"spec": ' "$MATRIX_A")" = "3" ]
grep -q '"backbone_hash": "' "$MATRIX_A"
# ... and are byte-identical across runs once the timing fields are
# stripped (same sed idiom as the compare smoke below).
MATRIX_STRIP='s/, "median_ms": [0-9.]*//g; s/, "edges_per_sec": [0-9.]*//g'
MATRIX_A_STABLE=$(sed "$MATRIX_STRIP" "$MATRIX_A")
MATRIX_B_STABLE=$(sed "$MATRIX_STRIP" "$MATRIX_B")
[ "$MATRIX_A_STABLE" = "$MATRIX_B_STABLE" ]
# Re-measuring a committed cell rewrites its line where it stands: with the
# timing fields stripped, the updated copy is the committed record.
cp BENCH_backbones.json "$MATRIX_COPY"
./target/release/bench_matrix --specs 'ba:n=2000,m=3,w=unit,noise=0,seed=4242' --methods nc \
    --runs 1 --out "$MATRIX_COPY" | grep -q '1 cell(s) swept'
cmp <(sed "$MATRIX_STRIP" BENCH_backbones.json) <(sed "$MATRIX_STRIP" "$MATRIX_COPY")
cleanup_matrix
trap - EXIT

echo "==> empty-graph PATCH smoke: tokens are names, under a 4 GB address-space limit"
# A PATCH on an upload without edges resolves its tokens as names, as an
# upload of the same lines would. Read as a node id, `4000000000` sized
# per-node arrays for four billion nodes and aborted the server.
EMPTY_PORT="${EMPTY_PORT:-48171}"
EMPTY_URL="http://127.0.0.1:${EMPTY_PORT}"
(ulimit -v 4000000 && exec ./target/release/backbone serve --addr "127.0.0.1:${EMPTY_PORT}") \
    >/dev/null 2>&1 &
EMPTY_PID=$!
cleanup_empty() {
    kill -TERM "$EMPTY_PID" 2>/dev/null || true
    wait "$EMPTY_PID" 2>/dev/null || true
}
trap cleanup_empty EXIT
for _ in $(seq 1 50); do
    if curl -sf "${EMPTY_URL}/health" >/dev/null 2>&1; then break; fi
    sleep 0.1
done
curl -sf -X POST --data-binary '# nothing' "${EMPTY_URL}/graphs/e" | grep -q '"edges": 0'
curl -sf -X PATCH --data-binary 'add 0 4000000000 1' "${EMPTY_URL}/graphs/e" \
    | grep -q '"nodes": 2'
curl -sf "${EMPTY_URL}/health" | grep -q '"status": "ok"'
curl -sf -X POST "${EMPTY_URL}/shutdown" | grep -q 'shutting down'
wait "$EMPTY_PID"
trap - EXIT

echo "==> server smoke: backbone serve"
SERVE_PORT="${SERVE_PORT:-48170}"
SERVE_URL="http://127.0.0.1:${SERVE_PORT}"
./target/release/backbone serve --addr "127.0.0.1:${SERVE_PORT}" \
    --graphs docs/examples --undirected &
SERVE_PID=$!
cleanup_server() {
    if kill -0 "$SERVE_PID" 2>/dev/null; then
        kill -TERM "$SERVE_PID" 2>/dev/null || true
        wait "$SERVE_PID" 2>/dev/null || true
    fi
}
trap cleanup_server EXIT

# Wait for the listener (the health route answers once the pool is up).
for _ in $(seq 1 50); do
    if curl -sf "${SERVE_URL}/health" >/dev/null 2>&1; then break; fi
    sleep 0.1
done
curl -sf "${SERVE_URL}/health" | grep -q '"status": "ok"'

# A real backbone query on the bundled example graph, validated as JSON.
SUMMARY=$(curl -sf "${SERVE_URL}/graphs/trade/backbone?method=nc&top_share=0.2&output=summary")
echo "$SUMMARY" | grep -q '"method": "nc"'
echo "$SUMMARY" | grep -q '"kind": "top_share"'
echo "$SUMMARY" | grep -q '"graph": "trade"'
# A cached re-query must return the identical bytes.
SUMMARY_CACHED=$(curl -sf "${SERVE_URL}/graphs/trade/backbone?method=nc&top_share=0.2&output=summary")
[ "$SUMMARY" = "$SUMMARY_CACHED" ]

# Compare smoke: the CLI's JSON report minus its per-method score_wall_ms
# timing (the one run-dependent field) and the server's /compare route must
# emit byte-identical documents, cold and from cache.
COMPARE_CLI=$(./target/release/backbone compare --methods nc,df,hss \
    --top-share 0.1 --undirected -o json docs/examples/trade.tsv)
echo "$COMPARE_CLI" | grep -q '"matched_edges": 3'
echo "$COMPARE_CLI" | grep -q '"noise_stability"'
echo "$COMPARE_CLI" | grep -q '"score_wall_ms"'
COMPARE_CLI_STABLE=$(echo "$COMPARE_CLI" | sed 's/, "score_wall_ms": [0-9.]*//g')
COMPARE_SERVER=$(curl -sf "${SERVE_URL}/graphs/trade/compare")
[ "$COMPARE_CLI_STABLE" = "$COMPARE_SERVER" ]
COMPARE_CACHED=$(curl -sf "${SERVE_URL}/graphs/trade/compare")
[ "$COMPARE_SERVER" = "$COMPARE_CACHED" ]

# A refused policy value runs no scoring pass: the scored-cache counters
# in /health do not move.
SCORED_BEFORE=$(curl -sf "${SERVE_URL}/health" | grep -o '"scored": { [^}]*}')
POLICY_STATUS=$(curl -s -o /dev/null -w '%{http_code}' \
    "${SERVE_URL}/graphs/trade/backbone?method=hss&top_share=7")
[ "$POLICY_STATUS" = "400" ]
SCORED_AFTER=$(curl -sf "${SERVE_URL}/health" | grep -o '"scored": { [^}]*}')
[ "$SCORED_BEFORE" = "$SCORED_AFTER" ]

# Upload parameters take only the values they document: `Directed` is a
# 400, not an undirected graph.
DIRECTION_STATUS=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
    --data-binary $'a b 2\nb a 3\n' "${SERVE_URL}/graphs/mixed?direction=Directed")
[ "$DIRECTION_STATUS" = "400" ]
# So is a misspelt parameter name, which used to be dropped (the same body
# registered an undirected graph), and the server keeps answering.
DIRECTON_STATUS=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
    --data-binary $'a b 2\nb a 3\n' "${SERVE_URL}/graphs/mixed?directon=directed")
[ "$DIRECTON_STATUS" = "400" ]
curl -sf "${SERVE_URL}/health" | grep -q '"status": "ok"'

# Observability smoke: /metrics serves both formats and reports nonzero
# graph and score-cache memory (the nc query above cached a score set),
# /health exposes the cache counters, and a concurrent loadtest burst
# cross-checks the server's request counts and latency quantiles against
# the client side — with byte-identity asserted on every cached backbone
# response under load.
curl -sf "${SERVE_URL}/metrics" | grep -q '# TYPE http_requests_total counter'
curl -sf "${SERVE_URL}/metrics" | grep -Eq '^graph_memory_bytes [1-9][0-9]*$'
curl -sf "${SERVE_URL}/metrics" | grep -Eq '^score_cache_bytes [1-9][0-9]*$'
curl -sf "${SERVE_URL}/metrics" | grep -Eq '^process_resident_memory_bytes [1-9][0-9]*$'
curl -sf "${SERVE_URL}/metrics" | grep -q 'http_request_duration_seconds{method="GET",route="/graphs/{name}/backbone",quantile="0.5"}'
curl -sf "${SERVE_URL}/metrics?format=json" | grep -q '"name": "http_requests_total"'
curl -sf "${SERVE_URL}/health" | grep -q '"cache": { "scored": { "hits": '
./target/release/backbone_loadtest --addr "127.0.0.1:${SERVE_PORT}" --graph trade \
    --clients 4 --requests 25 | grep -q 'cross-checks passed'

# PATCH smoke: upload a generated substrate, ship a 3-edge delta, and pin
# that the cached backbone both *changes* and lands byte-identical to a
# fresh CLI run over the offline-patched edge list.
PATCH_TSV=$(mktemp --suffix .tsv)
PATCH_DELTA=$(mktemp --suffix .tsv)
PATCH_OUT=$(mktemp --suffix .tsv)
PATCH_SERVED=$(mktemp --suffix .tsv)
PATCH_ONESHOT=$(mktemp --suffix .tsv)
cleanup_patch() {
    rm -f "$PATCH_TSV" "$PATCH_DELTA" "$PATCH_OUT" "$PATCH_SERVED" "$PATCH_ONESHOT"
    cleanup_server
}
trap cleanup_patch EXIT
./target/release/backbone gen 'ba:n=500,m=3,w=powerlaw(2.5),noise=0.1,seed=4242' > "$PATCH_TSV"
curl -sf -X POST --data-binary @"$PATCH_TSV" "${SERVE_URL}/graphs/patch-smoke" \
    | grep -q '"generation": 0'
PATCH_BEFORE=$(curl -sf "${SERVE_URL}/graphs/patch-smoke/backbone?method=nc&top_share=0.1")
printf 'reweight 0 2 30\nadd 0 499 8\nremove 3 11\n' > "$PATCH_DELTA"
PATCH_RESP=$(curl -sf -X PATCH --data-binary @"$PATCH_DELTA" "${SERVE_URL}/graphs/patch-smoke")
echo "$PATCH_RESP" | grep -q '"generation": 1'
echo "$PATCH_RESP" | grep -q '"applied": { "added": 1, "removed": 1, "reweighted": 1 }'
echo "$PATCH_RESP" | grep -q '"rescored_methods": \["nc"\]'
# The PATCH's stage latencies reach /metrics: one nc rescore sample.
curl -sf "${SERVE_URL}/metrics" \
    | grep -q '^patch_rescore_duration_seconds_count{method="nc"} 1$'
curl -sf "${SERVE_URL}/metrics" | grep -Eq '^patch_apply_duration_seconds_count [1-9]'
./target/release/backbone patch "$PATCH_DELTA" "$PATCH_TSV" --undirected --verify \
    > "$PATCH_OUT"
# The PATCH rescores nc without ranking it. The first rank-based read
# below builds the patched scores' rank order; every later read, the
# second of each pair included, is a prefix of it. Each read must be the
# bytes of a one-shot CLI run (keyed selection) on the patched file.
for PATCH_POLICY in top_k=40 top_share=0.2 coverage=0.5; do
    PATCH_FLAG="--$(echo "${PATCH_POLICY%%=*}" | tr _ -)"
    ./target/release/backbone --method nc "$PATCH_FLAG" "${PATCH_POLICY#*=}" --undirected \
        "$PATCH_OUT" > "$PATCH_ONESHOT"
    for _ in 1 2; do
        curl -sf "${SERVE_URL}/graphs/patch-smoke/backbone?method=nc&${PATCH_POLICY}" \
            > "$PATCH_SERVED"
        cmp "$PATCH_SERVED" "$PATCH_ONESHOT"
    done
done
PATCH_AFTER=$(curl -sf "${SERVE_URL}/graphs/patch-smoke/backbone?method=nc&top_share=0.1")
[ "$PATCH_BEFORE" != "$PATCH_AFTER" ]
PATCH_FRESH=$(./target/release/backbone --method nc --top-share 0.1 --undirected "$PATCH_OUT")
[ "$PATCH_AFTER" = "$PATCH_FRESH" ]
curl -sf -X DELETE "${SERVE_URL}/graphs/patch-smoke" >/dev/null
rm -f "$PATCH_TSV" "$PATCH_DELTA" "$PATCH_OUT" "$PATCH_SERVED" "$PATCH_ONESHOT"
trap cleanup_server EXIT

# Directed PATCH round: every third edge is also served reversed, so the
# first line `x y` and the second `y x` are distinct edges. The delta
# reweights `x y`, removes the third line's edge and adds an edge to a new
# node; the served read must be the bytes of a one-shot CLI run on the
# offline-patched file.
DIR_TSV=$(mktemp --suffix .tsv)
DIR_DELTA=$(mktemp --suffix .tsv)
DIR_OUT=$(mktemp --suffix .tsv)
DIR_SERVED=$(mktemp --suffix .tsv)
DIR_ONESHOT=$(mktemp --suffix .tsv)
cleanup_directed() {
    rm -f "$DIR_TSV" "$DIR_DELTA" "$DIR_OUT" "$DIR_SERVED" "$DIR_ONESHOT"
    cleanup_server
}
trap cleanup_directed EXIT
./target/release/backbone gen 'ba:n=500,m=3,w=powerlaw(2.5),noise=0.1,seed=4242' \
    | awk 'BEGIN { OFS = "\t" } /^#/ { next } { print; if (n++ % 3 == 0) print $2, $1, $3 + 1 }' \
    > "$DIR_TSV"
read -r DIR_X DIR_Y _ < "$DIR_TSV"
[ "$(sed -n 2p "$DIR_TSV" | cut -f1,2)" = "$(printf '%s\t%s' "$DIR_Y" "$DIR_X")" ]
read -r DIR_GONE_X DIR_GONE_Y _ < <(sed -n 3p "$DIR_TSV")
printf 'reweight %s %s 40\nremove %s %s\nadd %s fresh 5\n' \
    "$DIR_X" "$DIR_Y" "$DIR_GONE_X" "$DIR_GONE_Y" "$DIR_Y" > "$DIR_DELTA"
curl -sf -X POST --data-binary @"$DIR_TSV" "${SERVE_URL}/graphs/patch-directed?direction=directed" \
    | grep -q '"direction": "directed"'
curl -sf "${SERVE_URL}/graphs/patch-directed/backbone?method=nc&top_k=40" >/dev/null
curl -sf -X PATCH --data-binary @"$DIR_DELTA" "${SERVE_URL}/graphs/patch-directed" \
    | grep -q '"applied": { "added": 1, "removed": 1, "reweighted": 1 }'
./target/release/backbone patch "$DIR_DELTA" "$DIR_TSV" > "$DIR_OUT"
./target/release/backbone --method nc --top-k 40 "$DIR_OUT" > "$DIR_ONESHOT"
curl -sf "${SERVE_URL}/graphs/patch-directed/backbone?method=nc&top_k=40" > "$DIR_SERVED"
[ "$(wc -l < "$DIR_ONESHOT")" -gt 40 ]
cmp "$DIR_SERVED" "$DIR_ONESHOT"
curl -sf -X DELETE "${SERVE_URL}/graphs/patch-directed" >/dev/null
rm -f "$DIR_TSV" "$DIR_DELTA" "$DIR_OUT" "$DIR_SERVED" "$DIR_ONESHOT"
trap cleanup_server EXIT

# Churn soak: race concurrent PATCH writers against backbone readers and
# assert every read equals the from-scratch output of a reachable state
# (no torn reads), with the generation counter and /metrics cross-checked.
./target/release/backbone_loadtest --addr "127.0.0.1:${SERVE_PORT}" --churn \
    --clients 4 --requests 25 | grep -q 'churn cross-checks passed'

# Clean shutdown via the control path; SIGTERM (see cleanup_server) is the
# fallback if the route ever breaks.
curl -sf -X POST "${SERVE_URL}/shutdown" | grep -q 'shutting down'
wait "$SERVE_PID"
trap - EXIT

echo "==> OK"
