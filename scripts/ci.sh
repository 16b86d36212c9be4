#!/usr/bin/env bash
# The repository's CI gate: formatting, lints (warnings are errors), the
# release build, and the full test suite. Run from the repository root.
set -euo pipefail

echo "=== cargo fmt --check ==="
cargo fmt --all --check

echo "=== cargo clippy (deny warnings) ==="
cargo clippy --workspace --all-targets -- -D warnings

echo "=== cargo doc (deny warnings) ==="
# Public docs may link only to public items: a link to a private or
# deleted name is an error, not a dead link in the rendered docs.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "=== cargo build --release ==="
cargo build --release

tdir="$(mktemp -d)"
trap 'rm -rf "$tdir"' EXIT

echo "=== cargo test ==="
# Every package of the workspace, on the runtime-detected SIMD kernels (the
# NO_SIMD sweeps below cover the scalar level; the tensor suites and
# tests/forced_paths.rs run each GEMM route by `set_forced_path`). The
# `train:` header line names the level this host detected, so the log says
# what the tensor suite exercised; the f32 sweep below diffs this run's
# digest against the scalar one.
cargo run -q --release -p zfgan -- train --gan mnist --seed 2024 --iters 3 > "$tdir/f32_simd.txt"
head -n 1 "$tdir/f32_simd.txt"
# Under a temp root of its own: a test that leaves a `zfgan-*` entry
# behind (its guard skipped, or no guard) fails the stage, named.
mkdir "$tdir/test-tmp"
TMPDIR="$tdir/test-tmp" cargo test -q --workspace
leftover="$(find "$tdir/test-tmp" -mindepth 1 -maxdepth 1 -name 'zfgan-*')"
if [ -n "$leftover" ]; then
    echo "the test suite left temp entries behind:" >&2
    echo "$leftover" >&2
    exit 1
fi

echo "=== pool + dse suites, repeated across pool widths ==="
# Scheduling races show up only on some runs and some widths (the depth-
# gauge wrap needed one worker, the steal deadlock two), so the two
# suites that drive the pool hardest run five times at each width; the
# timeout turns a deadlock into a failure.
for threads in 2 4 8; do
    for _ in 1 2 3 4 5; do
        ZFGAN_THREADS="$threads" timeout 300 cargo test -q -p zfgan-pool -p zfgan-dse
    done
done

echo "=== executor engine suites across pool widths ==="
# All nine executors split their output positions into blocks that
# follow the pool width, so the bit-identity and zero-allocation suites
# run at widths that leave one block per call, a few, and more blocks than
# some shapes have positions.
for threads in 1 2 3 8; do
    ZFGAN_THREADS="$threads" timeout 300 \
        cargo test -q -p zfgan --test exec_engine --test exec_zero_alloc
done

echo "=== train step across pool widths ==="
# The packed engine decides its own fan-out from the pool width, so width
# must be invisible in everything but time: three MNIST-GAN iterations (its
# 128x1600x49 and 128x49x1600 GEMMs fan out, rows, pack and fills) print the
# same deterministic line and the same deterministic telemetry, serial and at widths
# that split those rows evenly, raggedly and one tile a chunk, and that run
# the trainer's samples on that many lanes; and the warm
# train step stays allocation-free when it does fan out (width 2 explicitly:
# the test step above ran it at the host's width, which may be 1). Two DCGAN
# iterations print the same deterministic line at every width and on the
# scalar kernels: every DCGAN layer's optimizer step, sub-kernel re-gather
# and accumulator zero fill fans out past the pool's element threshold,
# where most of MNIST-GAN's stay serial.
ZFGAN_NO_SIMD=1 cargo run -q --release -p zfgan -- train --gan dcgan --seed 2024 --iters 2 \
    | grep '^deterministic:' > "$tdir/dcgan_scalar.txt"
for threads in 1 2 3 8; do
    ZFGAN_THREADS="$threads" cargo run -q --release -p zfgan -- \
        train --gan dcgan --seed 2024 --iters 2 \
        | grep '^deterministic:' > "$tdir/dcgan_width_$threads.txt"
    diff "$tdir/dcgan_scalar.txt" "$tdir/dcgan_width_$threads.txt"
    # The deterministic line plus the summary's deterministic-class series
    # (`name{labels}  value`; wall-class rows end in "(wall)").
    ZFGAN_THREADS="$threads" cargo run -q --release -p zfgan -- \
        train --gan mnist --seed 2024 --iters 3 --telemetry \
        | grep -E '^deterministic:|^    [a-z_]+(\{[^}]*\})? +[0-9]+$' > "$tdir/width_$threads.txt"
    grep -q 'gemm_calls{backend="blocked"}' "$tdir/width_$threads.txt"
    diff "$tdir/width_1.txt" "$tdir/width_$threads.txt"
    # The same at batch 3, whose sample loops leave a short last lane group
    # at width 2 (the Generator's 3 samples on 2 lanes: 2 + 1) and idle
    # lanes at width 8.
    ZFGAN_THREADS="$threads" cargo run -q --release -p zfgan -- \
        train --gan mnist --batch 3 --seed 2024 --iters 3 --telemetry \
        | grep -E '^deterministic:|^    [a-z_]+(\{[^}]*\})? +[0-9]+$' > "$tdir/ragged_$threads.txt"
    grep -q 'gemm_calls{backend="blocked"}' "$tdir/ragged_$threads.txt"
    diff "$tdir/ragged_1.txt" "$tdir/ragged_$threads.txt"
    # Both sync modes run their samples on the lanes, so deferred must
    # equal synchronized at every width, ragged lane groups included (the
    # runner's own test covers 3 samples on 2 lanes, 7 on 3, 3 on 8).
    ZFGAN_THREADS="$threads" timeout 300 cargo test -q --release -p zfgan-nn --lib trainer::tests
    ZFGAN_THREADS="$threads" timeout 300 \
        cargo test -q --release -p zfgan --test properties deferred_equals_synchronized
    ZFGAN_THREADS="$threads" timeout 300 \
        cargo test -q --release -p zfgan --test end_to_end mnist_gan_trains_identically_in_both_modes
done
diff <(grep '^deterministic:' "$tdir/f32_simd.txt") <(grep '^deterministic:' "$tdir/width_1.txt")
ZFGAN_THREADS=2 timeout 300 cargo test -q -p zfgan --test zero_alloc --test exec_zero_alloc
echo "train digests and telemetry are byte-identical at pool widths 1, 2, 3, 8 (DCGAN also on scalar kernels, MNIST also on ragged lane groups); deferred equals synchronized at each"

echo "=== tensor suite under ZFGAN_NO_SIMD=1 ==="
# The portable scalar kernels must pass the same suite as the runtime-
# detected SIMD kernels — the microkernel dispatch table's fallback
# contract.
ZFGAN_NO_SIMD=1 cargo test -q -p zfgan-tensor

echo "=== fault-injection smoke campaign ==="
# Fixed seed; the command exits non-zero if any resilience invariant is
# violated (no detections, silent accumulator corruptions, training
# failing to complete under rollback), and its campaign JSON must be the
# committed results/faults.json byte for byte. It lands in the temp
# results directory the paper stage below regenerates and digests.
mkdir "$tdir/results"
cargo run -q --release -p zfgan -- faults --seed 2024 --out "$tdir/results/faults.json" > /dev/null
diff "$tdir/results/faults.json" results/faults.json
echo "fault campaign passed and reproduces results/faults.json"

echo "=== telemetry smoke gate ==="
# Two separate same-seed processes must produce (a) trace files that
# parse as Chrome-trace JSON (report --check re-parses them) and (b)
# byte-identical deterministic sections — the observability layer's
# reproducibility contract.
cargo run -q --release -p zfgan -- report --seed 2024 --trace-out "$tdir/t1.json" > /dev/null
cargo run -q --release -p zfgan -- report --seed 2024 --trace-out "$tdir/t2.json" > /dev/null
cargo run -q --release -p zfgan -- report --check "$tdir/t1.json" | grep '^deterministic:' > "$tdir/d1"
cargo run -q --release -p zfgan -- report --check "$tdir/t2.json" | grep '^deterministic:' > "$tdir/d2"
diff "$tdir/d1" "$tdir/d2"
cargo run -q --release -p zfgan -- sweep cgan --trace-out "$tdir/s1.json" > /dev/null
cargo run -q --release -p zfgan -- sweep cgan --trace-out "$tdir/s2.json" > /dev/null
cargo run -q --release -p zfgan -- report --check "$tdir/s1.json" | grep '^deterministic:' > "$tdir/sd1"
cargo run -q --release -p zfgan -- report --check "$tdir/s2.json" | grep '^deterministic:' > "$tdir/sd2"
diff "$tdir/sd1" "$tdir/sd2"
echo "telemetry deterministic sections are byte-identical"

echo "=== f32 SIMD bit-identity sweep ==="
# Every SIMD level runs each output element's k-ascending fused chain, so a
# few MNIST-GAN training iterations (packed GEMMs wide enough for the
# AVX-512 pair tile, an odd last panel, ragged tails, multi-chunk resumes)
# must end in the same final_digest under the runtime-detected level (the
# run at the top of the test step) and under ZFGAN_NO_SIMD=1.
ZFGAN_NO_SIMD=1 cargo run -q --release -p zfgan -- train --gan mnist --seed 2024 --iters 3 \
    > "$tdir/f32_scalar.txt"
head -qn 1 "$tdir/f32_simd.txt" "$tdir/f32_scalar.txt"
grep -q 'simd scalar' "$tdir/f32_scalar.txt"
diff <(grep '^deterministic:' "$tdir/f32_simd.txt") <(grep '^deterministic:' "$tdir/f32_scalar.txt")
echo "f32 train digests are bit-identical across SIMD levels"

echo "=== GEMM dispatch census ==="
# The routes each paper GAN's train step dispatches, pinned: a change that
# sends a GEMM down another route, or adds one, must update these counts.
census() {
    cargo run -q --release -p zfgan -- train --gan "$1" --seed 2024 --iters 2 --batch 4 \
        --telemetry | grep -o 'gemm_dispatch{path="[a-z]*"} *[0-9]*' | tr -s ' '
}
expect() {
    printf 'gemm_dispatch{path="packed"} %s\ngemm_dispatch{path="smallm"} %s\n' "$1" "$2"
}
diff <(census mnist) <(expect 304 152)
diff <(census dcgan) <(expect 736 152)
diff <(census cgan) <(expect 736 152)
echo "gemm_dispatch counts match the pinned census"

echo "=== perf ledger round trip ==="
# A smoke run of the repo benchmark, ingested twice into a temp ledger:
# 5 workloads x 5 end-to-end metrics per ingest, and an identical pair must
# pass --check. Smoke numbers never touch the tracked results/ledger.jsonl,
# which must itself render.
benchmark/run.sh --smoke --trace 0 --out "$tdir/runs.json" > "$tdir/benchmark.txt"
for _ in 1 2; do
    cargo run -q --release -p zfgan -- perf --ingest "$tdir/runs.json" \
        --ledger "$tdir/ledger.jsonl" > /dev/null
done
[ "$(wc -l < "$tdir/ledger.jsonl")" -eq 50 ]
cargo run -q --release -p zfgan -- perf --check --ledger "$tdir/ledger.jsonl" | grep '^perf check: OK'
cargo run -q --release -p zfgan -- perf > /dev/null
echo "perf ledger: 50 rows from two ingests, --check passed, tracked ledger renders"

echo "=== report byte-identity gate ==="
# Two same-seed attribution reports must be byte-identical end to end
# (all quantities are integers derived from seeded cycle state), and the
# shared trace/report validator must accept the report JSON and print the
# same deterministic section for both, and for the trace the same run
# wrote from the same registry.
for run in 1 2; do
    cargo run -q --release -p zfgan -- report --seed 2024 --out "$tdir/r$run.json" \
        --trace-out "$tdir/rt$run.json" | grep -v ' written to ' > "$tdir/rout$run.txt"
    for f in r rt; do
        cargo run -q --release -p zfgan -- report --check "$tdir/$f$run.json" \
            | grep '^deterministic:' > "$tdir/$f$run.det"
    done
done
diff "$tdir/r1.json" "$tdir/r2.json"
diff "$tdir/rout1.txt" "$tdir/rout2.txt"
diff "$tdir/r1.det" "$tdir/r2.det"
diff "$tdir/r1.det" "$tdir/rt1.det"
diff "$tdir/rt1.det" "$tdir/rt2.det"
echo "attribution reports are byte-identical"

echo "=== serve-metrics smoke ==="
# Start the scrape endpoint on an ephemeral port, scrape /metrics with
# the built-in TcpStream client, assert the self-metric counter line,
# and let the --max-requests bound shut the server down cleanly.
cargo run -q --release -p zfgan -- serve-metrics --addr 127.0.0.1:0 --max-requests 1 \
    > "$tdir/serve.log" &
serve_pid=$!
for _ in $(seq 1 100); do
    grep -q 'serving metrics' "$tdir/serve.log" && break
    sleep 0.1
done
addr="$(sed -n 's|.*http://\([0-9.:]*\)/metrics.*|\1|p' "$tdir/serve.log")"
cargo run -q --release -p zfgan -- serve-metrics --scrape "$addr" > "$tdir/scrape.txt"
grep -q 'serve_requests_total{path="/metrics"} 1' "$tdir/scrape.txt"
wait "$serve_pid"
echo "serve-metrics scrape round-trip passed"

echo "=== executor report byte-identity across pool widths ==="
# The ZFOST executors' whole attribution report (rows and deterministic
# telemetry section) and their trace's deterministic section must be
# byte-identical whether the engine's position-block fan-out runs inline
# or across four pool workers.
for threads in 1 4; do
    ZFGAN_THREADS="$threads" cargo run -q --release -p zfgan -- report --arch zfost \
        --seed 2024 --out "$tdir/x$threads.json" --trace-out "$tdir/xt$threads.json" > /dev/null
    cargo run -q --release -p zfgan -- report --check "$tdir/xt$threads.json" \
        | grep '^deterministic:' > "$tdir/xd$threads"
done
diff "$tdir/x1.json" "$tdir/x4.json"
diff "$tdir/xd1" "$tdir/xd4"
echo "executor report and trace are byte-identical across pool widths"

echo "=== pooled sweep byte-identity ==="
# The same seed must produce byte-identical sweep output no matter how
# the persistent pool schedules the fan-out (order-preserving merge).
ZFGAN_THREADS=4 cargo run -q --release -p zfgan -- sweep cgan > "$tdir/p1"
ZFGAN_THREADS=2 cargo run -q --release -p zfgan -- sweep cgan > "$tdir/p2"
diff "$tdir/p1" "$tdir/p2"
echo "sweep output is byte-identical across pool widths"

echo "=== crash-resume gate ==="
# The deterministic crash-injection campaign: kill train children at
# seeded points (before-publish, torn mid-write, after-publish), resume
# from the surviving store, byte-diff the resumed deterministic section
# against an uninterrupted baseline; then corrupt stored checkpoint
# generations and assert detection + fallback. Exits non-zero on any
# violated durability invariant; its campaign JSON must be the committed
# results/crashtest.json byte for byte. Without --dir the command works in
# a temp directory of its own and removes it: under a temp root of the
# gate's own, a `zfgan-*` entry left behind fails the stage, named.
mkdir "$tdir/crash-tmp"
TMPDIR="$tdir/crash-tmp" cargo run -q --release -p zfgan -- crashtest --seed 2024 \
    --out "$tdir/results/crashtest.json" > /dev/null
diff "$tdir/results/crashtest.json" results/crashtest.json
leftover="$(find "$tdir/crash-tmp" -mindepth 1 -maxdepth 1 -name 'zfgan-*')"
if [ -n "$leftover" ]; then
    echo "crashtest left temp entries behind:" >&2
    echo "$leftover" >&2
    exit 1
fi
echo "crash-resume campaign passed, reproduces results/crashtest.json, left no temp entries"

echo "=== paper results, byte for byte ==="
# Every committed result is a pure function of the tree: `zfgan paper all`
# rewrites each table's JSON beside the two campaign files the stages above
# wrote, then the RESULTS.md digest of all of them, once on the runtime-
# detected SIMD kernels and once on the scalar ones. Each run must equal
# results/ file for file; the ledger is a measurement, not a result.
cargo run -q --release -p zfgan -- paper all --out "$tdir/results" > /dev/null
diff -r -x ledger.jsonl "$tdir/results" results
ZFGAN_NO_SIMD=1 cargo run -q --release -p zfgan -- paper all --out "$tdir/results" > /dev/null
diff -r -x ledger.jsonl "$tdir/results" results
echo "zfgan paper all reproduces results/ on SIMD and scalar kernels"

echo "=== corrupted-store smoke ==="
# Train into a store, flip one byte of the newest generation, resume:
# the corruption must be detected (fallback note printed) and the
# resumed run must still match the uninterrupted baseline byte for byte.
cargo run -q --release -p zfgan -- train --seed 2024 --iters 4 > "$tdir/base.txt"
cargo run -q --release -p zfgan -- train --seed 2024 --iters 4 --dir "$tdir/cstore" > /dev/null
newest="$(ls "$tdir/cstore/train" | sort | tail -1)"
printf '\x01' | dd of="$tdir/cstore/train/$newest" bs=1 seek=40 count=1 conv=notrunc status=none
cargo run -q --release -p zfgan -- train --seed 2024 --iters 4 --dir "$tdir/cstore" --resume > "$tdir/resume.txt"
grep -q 'fallback: generation' "$tdir/resume.txt"
diff <(grep '^deterministic:' "$tdir/base.txt") <(grep '^deterministic:' "$tdir/resume.txt")
echo "corrupted store detected, fell back, resumed byte-identically"

echo "=== DSE service gate (concurrent cold writers -> warm -> verified -> corrupted cell) ==="
# Cold: two plain `zfgan dse fig15` writers start at the same moment on
# one empty cache; each serves the whole batch, computing what it does not
# find and publishing its waves under keys of its own. Warm: a
# single-threaded rerun hits every cell. Verified: `--verify all`
# recomputes every hit and byte-compares it against the payload the cold
# writers encoded, so the payload codec's round trip runs through the real
# CLI. Corrupted: one flipped byte in a stored generation is detected,
# recomputed and republished. Every canonical stream must be
# byte-identical, and the dse_* counters must tell the true cache story
# each time.
dse_counter() { # file counter -> value (0 when the series is absent)
    sed -n "s/.*$2{namespace=\"fig15\"} *\([0-9][0-9]*\).*/\1/p" "$1" \
        | grep . || echo 0
}
pids=""
for w in a b; do
    ZFGAN_THREADS=4 target/release/zfgan dse fig15 \
        --cache "$tdir/dsecache" --out "$tdir/dse_cold_$w.jsonl" \
        --telemetry > "$tdir/dse_cold_$w.txt" &
    pids="$pids $!"
done
for pid in $pids; do
    wait "$pid"
done
cells="$(dse_counter "$tdir/dse_cold_a.txt" dse_cells_total)"
[ "$cells" -gt 0 ]
# Each writer serves every cell, as a hit or as a miss it computed.
for w in a b; do
    [ "$(dse_counter "$tdir/dse_cold_$w.txt" dse_cells_total)" -eq "$cells" ]
    [ $(($(dse_counter "$tdir/dse_cold_$w.txt" dse_cache_hits_total) \
        + $(dse_counter "$tdir/dse_cold_$w.txt" dse_cache_misses_total))) -eq "$cells" ]
done
# Each writer publishes its misses in whole waves (window 64), one
# generation per wave: at most writers x ceil(cells / window) files.
waves="$(find "$tdir/dsecache" -name '*.zfc' -path '*fig15-*-w*' | wc -l)"
[ "$waves" -ge 1 ] && [ "$waves" -le $((2 * ((cells + 63) / 64))) ]
ZFGAN_THREADS=1 cargo run -q --release -p zfgan -- dse fig15 \
    --cache "$tdir/dsecache" --out "$tdir/dse_warm.jsonl" \
    --telemetry > "$tdir/dse_warm.txt"
# The warm rerun serves pure hits.
[ "$(dse_counter "$tdir/dse_warm.txt" dse_cache_hits_total)" -eq "$cells" ]
[ "$(dse_counter "$tdir/dse_warm.txt" dse_cache_misses_total)" -eq 0 ]
# Every warm hit re-derives to the stored bytes: nothing to republish.
cargo run -q --release -p zfgan -- dse fig15 \
    --cache "$tdir/dsecache" --verify all --out "$tdir/dse_verify.jsonl" \
    --telemetry > "$tdir/dse_verify.txt"
[ "$(dse_counter "$tdir/dse_verify.txt" dse_verified_total)" -eq "$cells" ]
[ "$(dse_counter "$tdir/dse_verify.txt" dse_verify_failures_total)" -eq 0 ]
[ "$(dse_counter "$tdir/dse_verify.txt" dse_published_total)" -eq 0 ]
# Flip one byte inside the first record of one stored wave (byte 60 is in
# its payload) and rerun: exactly one miss, one republish, and the stream
# must not change.
victim="$(find "$tdir/dsecache" -name '*.zfc' -path '*fig15-*-w*' | sort | head -1)"
printf '\x01' | dd of="$victim" bs=1 seek=60 count=1 conv=notrunc status=none
cargo run -q --release -p zfgan -- dse fig15 \
    --cache "$tdir/dsecache" --out "$tdir/dse_corrupt.jsonl" \
    --telemetry > "$tdir/dse_corrupt.txt"
[ "$(dse_counter "$tdir/dse_corrupt.txt" dse_cache_misses_total)" -eq 1 ]
[ "$(dse_counter "$tdir/dse_corrupt.txt" dse_published_total)" -eq 1 ]
# The damaged wave is reclaimed: the live cells were carried into one new
# wave, the recomputed cell went into another, and nothing else is left.
[ "$(find "$tdir/dsecache" -name '*.zfc' | wc -l)" -eq 2 ]
# Flip a byte 40 bytes before the end of the carried wave: it sits in the
# section of the wave's last record, past the third quarter its CRC's
# four chains split the payload into. Again one miss, one republish, the
# same stream.
victim="$(find "$tdir/dsecache" -name '*.zfc' -path '*fig15-*-w*' | sort | head -1)"
printf '\x01' | dd of="$victim" bs=1 seek=$(($(wc -c < "$victim") - 40)) count=1 \
    conv=notrunc status=none
cargo run -q --release -p zfgan -- dse fig15 \
    --cache "$tdir/dsecache" --out "$tdir/dse_corrupt_tail.jsonl" \
    --telemetry > "$tdir/dse_corrupt_tail.txt"
[ "$(dse_counter "$tdir/dse_corrupt_tail.txt" dse_cache_misses_total)" -eq 1 ]
[ "$(dse_counter "$tdir/dse_corrupt_tail.txt" dse_published_total)" -eq 1 ]
for w in a b; do
    for run in dse_warm dse_verify dse_corrupt dse_corrupt_tail; do
        diff "$tdir/dse_cold_$w.jsonl" "$tdir/$run.jsonl"
    done
done
echo "dse streams are byte-identical (two concurrent cold writers, warm, verified, corrupted cells)"
# Concurrent writers on one cache, some SIGKILLed mid-run: the cache heals.
scripts/dse_kill_campaign.sh 20 3 | tail -1

echo "=== bench gates (paired in-process speed ratios) ==="
# Each harness asserts its own floors on `zfgan_bench::paired_ratio`
# (packed GEMM vs naive, its pool fan-out vs one inline chunk, dispatched
# vs forced-packed, AVX-512 vs AVX2 tile, the critic's score layer vs its
# golden nest, DCGAN's parameter-sized passes vs their serial loops, the
# nine executor engines vs the scalar oracle) plus warm vs cold DSE. One
# pass, no retry: a pair's two sides share whatever the host is doing.
# Last, so a red gate cannot hide a correctness stage.
cargo bench -q -p zfgan-bench

echo "CI gate passed."
