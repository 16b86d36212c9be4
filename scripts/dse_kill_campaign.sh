#!/bin/sh
# Multi-process kill campaign for the DSE cell cache.
#
# Each round starts several real `zfgan dse fig15` writers on one shared
# cache (plain and `--verify all` runs, one cell per wave so every process
# publishes many times), SIGKILLs some of them at seeded moments, and
# first either empties the cache or flips a byte in a stored wave, so
# writers publish, and survivors reclaim waves while others publish. After every round the cache must serve the
# cache-less reference stream byte for byte, `--verify all` must find no
# failure, and a further run must be pure hits: no torn or damaged record
# is ever served. A wave directory may only hold
# one generation and no temp file, or — the claim of a killed writer — no
# generation at all; the campaign reports how many such orphans it left.
#
#   scripts/dse_kill_campaign.sh [rounds] [writers]
set -eu

rounds="${1:-40}"
writers="${2:-3}"
cargo build -q --release -p zfgan
bin="$PWD/target/release/zfgan"
tdir="$(mktemp -d)"
trap 'rm -rf "$tdir"' EXIT
cache="$tdir/cache"

counter() { # file counter -> value (0 when the series is absent)
    sed -n "s/.*$2{namespace=\"fig15\"} *\([0-9][0-9]*\).*/\1/p" "$1" | grep . || echo 0
}

"$bin" dse fig15 --out "$tdir/reference.jsonl" > /dev/null
state=1
next() { # seeded LCG step: $1 -> value in 0..$1-1 in $draw
    state=$(( (state * 1103515245 + 12345) % 2147483648 ))
    draw=$(( state / 65536 % $1 ))
}

round=1
while [ "$round" -le "$rounds" ]; do
    # One round in three starts cold, one flips a byte of a stored wave.
    next 3
    if [ "$draw" -eq 0 ]; then
        rm -rf "$cache"
    elif [ "$draw" -eq 1 ]; then
        set -- $(find "$cache" -name 'gen-*.zfc' 2> /dev/null | sort)
        if [ "$#" -gt 0 ]; then
            next "$#"
            shift "$draw"
            size="$(wc -c < "$1")"
            next "$size"
            printf '\377' | dd of="$1" bs=1 seek="$draw" count=1 conv=notrunc status=none
        fi
    fi
    pids=""
    w=1
    while [ "$w" -le "$writers" ]; do
        # One writer in three verifies every hit; the rest are plain.
        next 3
        case "$draw" in
            1) mode="--verify all" ;;
            *) mode="" ;;
        esac
        # shellcheck disable=SC2086
        "$bin" dse fig15 --cache "$cache" --window 1 $mode \
            --out "$tdir/writer-$w.jsonl" > /dev/null 2>&1 &
        pids="$pids $!"
        w=$((w + 1))
    done
    killed=0
    for pid in $pids; do
        next 2
        if [ "$draw" -eq 1 ]; then
            next 15
            sleep "0.$(printf '%03d' "$draw")"
            kill -9 "$pid" 2> /dev/null && killed=$((killed + 1))
        fi
    done
    for pid in $pids; do
        wait "$pid" 2> /dev/null || true
    done

    "$bin" dse fig15 --cache "$cache" --out "$tdir/healed.jsonl" \
        --telemetry > "$tdir/healed.txt"
    cmp "$tdir/reference.jsonl" "$tdir/healed.jsonl"
    "$bin" dse fig15 --cache "$cache" --verify all --out "$tdir/verified.jsonl" \
        --telemetry > "$tdir/verified.txt"
    cmp "$tdir/reference.jsonl" "$tdir/verified.jsonl"
    [ "$(counter "$tdir/verified.txt" dse_verify_failures_total)" -eq 0 ]
    "$bin" dse fig15 --cache "$cache" --out "$tdir/warm.jsonl" \
        --telemetry > "$tdir/warm.txt"
    cmp "$tdir/reference.jsonl" "$tdir/warm.jsonl"
    [ "$(counter "$tdir/warm.txt" dse_cache_misses_total)" -eq 0 ]
    [ "$(counter "$tdir/warm.txt" dse_published_total)" -eq 0 ]

    orphans=0
    for wave in "$cache"/*; do
        gens="$(find "$wave" -name 'gen-*.zfc' | wc -l)"
        temps="$(find "$wave" -name '.tmp-*' | wc -l)"
        if [ "$gens" -eq 0 ]; then
            orphans=$((orphans + 1))
        else
            [ "$gens" -eq 1 ] && [ "$temps" -eq 0 ]
        fi
    done
    echo "round $round: $killed of $writers writers killed, $(ls "$cache" | wc -l) waves, $orphans orphaned claims"
    round=$((round + 1))
done
echo "dse kill campaign passed ($rounds rounds, $writers writers)"
