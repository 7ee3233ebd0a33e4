#!/usr/bin/env sh
# Local CI gate. Run from the repository root:
#
#   ./ci.sh
#
# Order matters: cheap style checks fail fast before the build/test cycle.
set -eu

echo "==> cargo fmt --check (workspace)"
cargo fmt --check

echo "==> cargo clippy -D warnings -W clippy::perf (workspace)"
cargo clippy --workspace --all-targets -- -D warnings -W clippy::perf

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> forced-scalar equivalence proptests (GANA_KERNEL=scalar)"
# The workspace run above exercises whatever kernel the CPU dispatches to
# (avx2/neon on capable hardware). Re-run the gana-core equivalence
# proptests with the scalar fallback forced so both sides of the dispatch
# are proven on every CI box, regardless of its CPU features.
GANA_KERNEL=scalar cargo test -q -p gana-core \
    --test parallel_equivalence --test workspace_reuse --test batched_equivalence

echo "==> cargo test --doc"
cargo test --doc -q

echo "==> cargo doc (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> snapshot round-trip smoke (train -> save -> inspect -> reject corrupt)"
# End-to-end check of the gana-persist container through the CLI: a model
# trained in one process must re-save byte-identically from its checkpoint
# (canonical encoding), and damaged snapshots must be rejected.
SNAP_DIR=$(mktemp -d)
./target/release/gana train --task ota --circuits 8 --epochs 2 \
    --out "$SNAP_DIR/ota.ckpt" --save-model "$SNAP_DIR/engine.gsnap" >/dev/null
./target/release/gana snapshot inspect "$SNAP_DIR/engine.gsnap"
./target/release/gana snapshot save --model "$SNAP_DIR/ota.ckpt" --task ota \
    --out "$SNAP_DIR/resave.gsnap" >/dev/null
cmp "$SNAP_DIR/engine.gsnap" "$SNAP_DIR/resave.gsnap"
echo "checkpoint -> snapshot re-save is byte-identical"
head -c 64 "$SNAP_DIR/engine.gsnap" >"$SNAP_DIR/truncated.gsnap"
if ./target/release/gana snapshot inspect "$SNAP_DIR/truncated.gsnap" >/dev/null 2>&1; then
    echo "ERROR: truncated snapshot was accepted"
    exit 1
fi
cp "$SNAP_DIR/engine.gsnap" "$SNAP_DIR/corrupt.gsnap"
printf 'X' | dd of="$SNAP_DIR/corrupt.gsnap" bs=1 seek=0 conv=notrunc status=none
if ./target/release/gana snapshot inspect "$SNAP_DIR/corrupt.gsnap" >/dev/null 2>&1; then
    echo "ERROR: corrupt snapshot was accepted"
    exit 1
fi
echo "truncated and corrupt snapshots rejected"
rm -rf "$SNAP_DIR"

echo "==> shard smoke (router + 2 supervised shards, drain, warm-restartable)"
# End-to-end fleet check through the CLI: train once, launch a two-shard
# supervised fleet behind the router, route traffic that lands on both
# shards, drain the fleet, and require every shard directory to hold a
# loadable warm-start snapshot afterwards.
SHARD_DIR=$(mktemp -d)
./target/release/gana train --task ota --circuits 8 --epochs 2 \
    --out "$SHARD_DIR/ota.ckpt" --save-model "$SHARD_DIR/seed.gsnap" >/dev/null
./target/release/gana generate --kind ota --seed 1 --out "$SHARD_DIR/a.sp"
./target/release/gana generate --kind ota --seed 2 --out "$SHARD_DIR/b.sp"
./target/release/gana generate --kind ota --seed 3 --out "$SHARD_DIR/c.sp"
./target/release/gana generate --kind ota --seed 4 --out "$SHARD_DIR/d.sp"
./target/release/gana shard --shards 2 --snapshot-root "$SHARD_DIR/fleet" \
    --seed-snapshot "$SHARD_DIR/seed.gsnap" --addr 127.0.0.1:0 \
    >"$SHARD_DIR/shard.log" 2>&1 &
SHARD_PID=$!
# The router prints its bound address once the fleet is up.
for _ in $(seq 1 100); do
    SHARD_ADDR=$(sed -n 's/^gana-shard router on \([0-9.:]*\) .*/\1/p' "$SHARD_DIR/shard.log")
    [ -n "$SHARD_ADDR" ] && break
    sleep 0.2
done
[ -n "$SHARD_ADDR" ] || { cat "$SHARD_DIR/shard.log"; exit 1; }
for f in a b c d; do
    ./target/release/gana submit "$SHARD_DIR/$f.sp" --task ota \
        --addr "$SHARD_ADDR" --binary >/dev/null
done
./target/release/gana submit stats --per-shard --addr "$SHARD_ADDR" \
    | tee "$SHARD_DIR/stats.txt"
# Mixed seeds must have landed work on both shards.
SHARDS_WITH_TRAFFIC=$(grep -c '^shard [0-9][0-9]*: jobs: [0-9][0-9]* submitted, [1-9][0-9]* completed' \
    "$SHARD_DIR/stats.txt")
[ "$SHARDS_WITH_TRAFFIC" -eq 2 ] || {
    echo "ERROR: expected traffic on 2 shards, saw $SHARDS_WITH_TRAFFIC"
    exit 1
}
./target/release/gana submit shutdown --addr "$SHARD_ADDR" >/dev/null
wait "$SHARD_PID"
for shard in 0 1; do
    ./target/release/gana snapshot inspect \
        "$SHARD_DIR/fleet/shard-$shard/engine.gsnap" >/dev/null
done
echo "fleet drained; both shard snapshots loadable"
rm -rf "$SHARD_DIR"

echo "==> loadgen smoke (open-loop generator vs live daemon, overload behavior)"
# End-to-end SLO check through the CLI: a healthy open-loop run must account
# for every operation it scheduled (histogram count conservation) with
# ordered quantiles, and a grossly over-capacity run must surface structured
# `overloaded` rejections — never hangs, stalls, or silent disconnects —
# while the daemon stays responsive enough to drain cleanly.
LOAD_DIR=$(mktemp -d)
./target/release/gana train --task ota --circuits 8 --epochs 2 \
    --out "$LOAD_DIR/ota.ckpt" >/dev/null
./target/release/gana serve --model "$LOAD_DIR/ota.ckpt" --task ota \
    --addr 127.0.0.1:0 --workers 1 --queue 64 --max-batch 4 \
    --batch-window-us auto --stats-secs 0 >"$LOAD_DIR/serve.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
    SERVE_ADDR=$(sed -n 's/^gana-serve listening on \([0-9.:]*\) .*/\1/p' "$LOAD_DIR/serve.log")
    [ -n "$SERVE_ADDR" ] && break
    sleep 0.2
done
[ -n "$SERVE_ADDR" ] || { cat "$LOAD_DIR/serve.log"; exit 1; }
# Healthy run: well under capacity, generous deadline.
./target/release/gana loadgen --addr "$SERVE_ADDR" --families ota \
    --rate 25 --duration-s 2 --connections 2 --deadline-ms 1000 --seed 7 \
    | tee "$LOAD_DIR/healthy.txt"
grep '^loadgen-result ' "$LOAD_DIR/healthy.txt" | awk '
    {
        for (i = 2; i <= NF; i++) { split($i, kv, "="); v[kv[1]] = kv[2] }
    }
    END {
        if (v["sent"] == 0) { print "ERROR: healthy run sent nothing"; exit 1 }
        if (v["sent"] != v["hist_count"]) {
            printf "ERROR: count conservation broken: sent %d but histogram holds %d\n", \
                v["sent"], v["hist_count"]; exit 1
        }
        if (v["p50_us"] + 0 > v["p99_us"] + 0 || v["p99_us"] + 0 > v["p999_us"] + 0) {
            printf "ERROR: quantiles out of order: p50 %d p99 %d p999 %d\n", \
                v["p50_us"], v["p99_us"], v["p999_us"]; exit 1
        }
        print "healthy run: count conservation holds, quantiles ordered"
    }'
# Overload run: far beyond a single worker's capacity with a tight deadline
# and enough connections that the server queue (not the client) holds the
# backlog. The deadline-aware shed must reject with structured `overloaded`
# errors and keep the accepted tail bounded instead of letting the queue grow.
./target/release/gana loadgen --addr "$SERVE_ADDR" --families ota \
    --rate 2000 --duration-s 2 --connections 64 --deadline-ms 20 --seed 7 \
    | tee "$LOAD_DIR/overload.txt"
grep '^loadgen-result ' "$LOAD_DIR/overload.txt" | awk '
    {
        for (i = 2; i <= NF; i++) { split($i, kv, "="); v[kv[1]] = kv[2] }
    }
    END {
        if (v["sent"] != v["hist_count"]) {
            printf "ERROR: count conservation broken under overload: sent %d, histogram %d\n", \
                v["sent"], v["hist_count"]; exit 1
        }
        if (v["overloaded"] + 0 == 0) {
            print "ERROR: 10x-capacity run produced no structured overloaded rejections"; exit 1
        }
        if (v["io_errors"] + 0 > 0) {
            printf "ERROR: overload caused %d transport errors (hangs/disconnects)\n", \
                v["io_errors"]; exit 1
        }
        if (v["accepted_p99_us"] + 0 > 1000000) {
            printf "ERROR: accepted p99 unbounded under overload: %dus\n", \
                v["accepted_p99_us"]; exit 1
        }
        printf "overload run: %d overloaded rejections, accepted p99 %dus (bounded)\n", \
            v["overloaded"], v["accepted_p99_us"]
    }'
./target/release/gana submit shutdown --addr "$SERVE_ADDR" >/dev/null
wait "$SERVE_PID"
echo "daemon drained cleanly after overload"
rm -rf "$LOAD_DIR"

echo "==> end-to-end benchmark smoke (serve_batch, 2 s)"
# A short run of the BENCHMARK.json command on the pipelined batch-frame
# workload, through a live daemon on loopback. It exits 1 when a reply
# carries a wrong label and 2 when the run is invalid, and either fails CI.
# Its timings are not judged here: two seconds on a shared runner say
# nothing about speed.
cargo run --release --offline --manifest-path gana-benchmark/Cargo.toml \
    --bin gana-benchmark -- --workload serve_batch --seed 1 --seconds 2

echo "==> end-to-end benchmark tests"
# The benchmark is its own workspace, so the workspace test run above does
# not reach its suite, whose serve workloads read the stats fields.
cargo test --release --offline --manifest-path gana-benchmark/Cargo.toml -q

echo "==> bench smoke (report-only -> BENCH_pipeline.json)"
# Absolute timings flake on shared runners, so this stage reports but never
# gates: a bench failure is surfaced without failing CI.
if cargo run --release -p gana-bench --bin bench-smoke; then
    echo "bench artifact: BENCH_pipeline.json"
    echo "==> bench regression check (report-only, vs committed baseline)"
    # Diff fresh medians — and, where present, p99 tails — against the
    # baseline committed at HEAD. Entries regressing >10% are printed for a
    # human to judge; shared runners make absolute timings flaky, so this
    # never fails the build. Entries stamped `"dirty": true` were measured
    # on an uncommitted tree, so their numbers cannot be reproduced from
    # the stamped commit: warn loudly on either side of the diff.
    if git show HEAD:BENCH_pipeline.json >/tmp/bench_baseline.json 2>/dev/null; then
        awk '
            function field(line, key,    v) {
                if (line !~ ("\"" key "\":")) return ""
                v = line
                sub(".*\"" key "\": ", "", v); sub(/[^0-9].*/, "", v)
                return v
            }
            /"median_ns"/ {
                name = $0; sub(/^[[:space:]]*"/, "", name); sub(/".*/, "", name)
                if (FILENAME == ARGV[1]) {
                    base[name] = field($0, "median_ns")
                    base_p99[name] = field($0, "p99_ns")
                    if ($0 ~ /"dirty": true/) base_dirty++
                } else {
                    fresh[name] = field($0, "median_ns")
                    fresh_p99[name] = field($0, "p99_ns")
                    if ($0 ~ /"dirty": true/) fresh_dirty++
                }
            }
            END {
                if (base_dirty > 0)
                    printf "WARNING: committed baseline has %d entries stamped \"dirty\": true — those numbers were measured on an uncommitted tree and cannot be reproduced from the stamped commit\n", base_dirty
                if (fresh_dirty > 0)
                    printf "WARNING: fresh artifact has %d entries stamped \"dirty\": true — re-run bench-smoke from a clean tree before committing it as the new baseline\n", fresh_dirty
                worst = 0
                for (n in fresh) {
                    if (!(n in base)) {
                        printf "NEW bench %s: %d ns (no committed baseline)\n", n, fresh[n]
                        continue
                    }
                    if (base[n] == 0) continue
                    pct = (fresh[n] - base[n]) * 100.0 / base[n]
                    if (pct > 10)
                        printf "REGRESSION %s: %d -> %d ns (+%.1f%%)\n", n, base[n], fresh[n], pct
                    if (pct > worst) worst = pct
                    if (base_p99[n] != "" && fresh_p99[n] != "" && base_p99[n] > 0) {
                        p99pct = (fresh_p99[n] - base_p99[n]) * 100.0 / base_p99[n]
                        if (p99pct > 10)
                            printf "TAIL REGRESSION %s: p99 %d -> %d ns (+%.1f%%)\n", \
                                n, base_p99[n], fresh_p99[n], p99pct
                        if (p99pct > worst) worst = p99pct
                    }
                }
                for (n in base)
                    if (!(n in fresh))
                        printf "REMOVED bench %s: was %d ns in committed baseline\n", n, base[n]
                if (worst <= 10) print "no bench median or p99 regressed >10% vs committed baseline"
            }
        ' /tmp/bench_baseline.json BENCH_pipeline.json || true
    else
        echo "no committed BENCH_pipeline.json baseline at HEAD; skipping diff"
    fi
else
    echo "WARNING: bench smoke failed (report-only stage, not gating)"
fi

echo "==> allocation profile (report-only -> BENCH_alloc.json)"
# The bench-smoke binary rebuilt with the counting global allocator
# (feature alloc-count) runs deterministic fixed-iteration workloads and
# reports per-phase allocation calls + high-water byte deltas. Counts —
# unlike wall-clock — reproduce exactly on shared runners, so any drift
# vs the committed baseline is a real allocation-behavior change. Still
# report-only: a human judges whether a delta is a regression or an
# intended trade (e.g. fewer, larger arena slabs).
if cargo run --release -p gana-bench --features alloc-count --bin bench-smoke; then
    echo "alloc artifact: BENCH_alloc.json"
    if git show HEAD:BENCH_alloc.json >/tmp/alloc_baseline.json 2>/dev/null; then
        awk '
            function field(line, key,    v) {
                if (line !~ ("\"" key "\":")) return ""
                v = line
                sub(".*\"" key "\": ", "", v); sub(/[^0-9].*/, "", v)
                return v
            }
            /"allocs"/ {
                name = $0; sub(/^[[:space:]]*"/, "", name); sub(/".*/, "", name)
                if (FILENAME == ARGV[1]) {
                    base[name] = field($0, "allocs")
                    base_hw[name] = field($0, "high_water_bytes")
                } else {
                    fresh[name] = field($0, "allocs")
                    fresh_hw[name] = field($0, "high_water_bytes")
                }
            }
            END {
                drift = 0
                for (n in fresh) {
                    if (!(n in base)) {
                        printf "NEW alloc phase %s: %d calls, %d B high-water (no committed baseline)\n", \
                            n, fresh[n], fresh_hw[n]
                        continue
                    }
                    if (fresh[n] != base[n]) {
                        printf "ALLOC DELTA %s: %d -> %d calls (%+.1f%%)\n", \
                            n, base[n], fresh[n], (fresh[n] - base[n]) * 100.0 / base[n]
                        drift = 1
                    }
                    if (fresh_hw[n] != base_hw[n]) {
                        printf "HIGH-WATER DELTA %s: %d -> %d B (%+.1f%%)\n", \
                            n, base_hw[n], fresh_hw[n], \
                            (fresh_hw[n] - base_hw[n]) * 100.0 / base_hw[n]
                        drift = 1
                    }
                }
                for (n in base)
                    if (!(n in fresh))
                        printf "REMOVED alloc phase %s: was %d calls in committed baseline\n", n, base[n]
                if (!drift) print "allocation profile matches committed baseline exactly"
            }
        ' /tmp/alloc_baseline.json BENCH_alloc.json || true
    else
        echo "no committed BENCH_alloc.json baseline at HEAD; skipping diff"
    fi
else
    echo "WARNING: allocation profile failed (report-only stage, not gating)"
fi

echo "CI green."
