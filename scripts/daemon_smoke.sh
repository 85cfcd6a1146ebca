#!/usr/bin/env bash
# End-to-end smoke test for the tracescoped daemon: start it on a fresh
# temp corpus, trickle a generated fleet in with the tracegen feeder,
# poll /healthz, and pull every query endpoint. Run the whole dance
# twice with different arrival orders (and once more restarted over the
# first run's corpus, exercising the warm-up path) and fail unless the
# query responses — /metrics included — are byte-identical. Last, check
# that the daemon is its corpus's only writer: once a second writer has
# landed a corpus in its directory, the next upload is refused and the
# directory stays that writer's corpus, which vets clean.
#
# Usage: scripts/daemon_smoke.sh [STREAMS] [EPISODES]
set -euo pipefail

STREAMS="${1:-10}"
EPISODES="${2:-5}"
SCENARIO="BrowserTabCreate"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/tracescoped-smoke.XXXXXX")"
DAEMON_PID=""
DAEMON_ADDR=""

cleanup() {
    stop_daemon
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "== building binaries"
go build -o "$WORK/bin/" ./cmd/tracescoped ./cmd/tracegen ./cmd/tracevet

# start_daemon sets DAEMON_PID and DAEMON_ADDR, so it must run in this
# shell: called inside $(...) it would set them in a subshell, and
# stop_daemon would have nothing to kill.
start_daemon() { # $1 corpus dir, $2 log file
    "$WORK/bin/tracescoped" -corpus "$1" -addr 127.0.0.1:0 > "$2" 2>&1 &
    DAEMON_PID=$!
    DAEMON_ADDR=""
    # The daemon prints its listening address; poll for it, then for
    # readiness.
    local i
    for i in $(seq 1 50); do
        DAEMON_ADDR="$(sed -n 's|^tracescoped listening on \(http://[^ ]*\).*|\1|p' "$2")"
        [ -n "$DAEMON_ADDR" ] && break
        kill -0 "$DAEMON_PID" 2>/dev/null || { cat "$2" >&2; echo "daemon died" >&2; exit 1; }
        sleep 0.1
    done
    [ -n "$DAEMON_ADDR" ] || { echo "daemon never printed its address" >&2; exit 1; }
    for i in $(seq 1 50); do
        curl -sf "$DAEMON_ADDR/healthz" > /dev/null && break
        sleep 0.1
    done
}

# stop_daemon returns once the daemon has exited: the next one may be
# started over the same corpus directory, which has a single owner.
stop_daemon() {
    [ -n "$DAEMON_PID" ] || return 0
    kill "$DAEMON_PID" 2>/dev/null || true
    wait "$DAEMON_PID" 2>/dev/null || true
    DAEMON_PID=""
}

query_all() { # $1 base url, $2 output dir
    mkdir -p "$2"
    local ep
    for ep in healthz corpus scenarios impact metrics metrics.json; do
        curl -sf "$1/$ep" > "$2/${ep%.json}$( [ "${ep##*.}" = json ] && echo .json )" \
            || { echo "GET /$ep failed" >&2; exit 1; }
    done
    curl -sf "$1/impact?scenario=$SCENARIO"            > "$2/impact-$SCENARIO"
    curl -sf "$1/causality?scenario=$SCENARIO"         > "$2/causality-$SCENARIO"
    curl -sf "$1/awg?scenario=$SCENARIO&maxdepth=64"   > "$2/awg-$SCENARIO.txt"
    curl -sf "$1/awg?scenario=$SCENARIO&format=dot"    > "$2/awg-$SCENARIO.dot"
}

run_once() { # $1 run name, $2 arrival-order seed
    local corpus="$WORK/corpus-$1" log="$WORK/daemon-$1.log" addr
    echo "== run $1 (order seed $2)"
    start_daemon "$corpus" "$log"
    addr="$DAEMON_ADDR"
    "$WORK/bin/tracegen" -stream "$addr" -streams "$STREAMS" -episodes "$EPISODES" \
        -order "$2" > "$WORK/feed-$1.log"
    grep -q "\"streams\": $STREAMS" <(curl -sf "$addr/healthz") \
        || { echo "daemon did not ingest all $STREAMS streams" >&2; curl -s "$addr/healthz" >&2; exit 1; }
    query_all "$addr" "$WORK/out-$1"
    stop_daemon
}

# Two fleets, same streams, different arrival orders.
run_once a 0
run_once b 7

# Restart over run a's corpus: the warm-up path must reconstruct the
# same state the streaming path built. (/metrics differs by design —
# warm-up counts differ from per-request ingest counts — so compare the
# analysis queries only.)
echo "== run c (restart over run a's corpus, warm-up path)"
start_daemon "$WORK/corpus-a" "$WORK/daemon-c.log"
query_all "$DAEMON_ADDR" "$WORK/out-c"
stop_daemon

echo "== vetting the ingested corpora (every stream passed the admission gate)"
"$WORK/bin/tracevet" -semantic "$WORK/corpus-a" "$WORK/corpus-b" \
    || { echo "daemon-grown corpus failed verification" >&2; exit 1; }

echo "== one writer: an upload behind a second writer is refused"
start_daemon "$WORK/corpus-w" "$WORK/daemon-w.log"
"$WORK/bin/tracegen" -stream "$DAEMON_ADDR" -streams 3 -episodes "$EPISODES" > "$WORK/feed-w.log"
"$WORK/bin/tracegen" -out "$WORK/corpus-w" -seed 2 -streams 5 -episodes "$EPISODES" > "$WORK/gen-w.log"
if "$WORK/bin/tracegen" -stream "$DAEMON_ADDR" -seed 3 -streams 1 -episodes "$EPISODES" \
        > "$WORK/feed-w2.log" 2>&1; then
    echo "daemon accepted an upload behind a second writer" >&2; exit 1
fi
grep -q '"streams": 3' <(curl -sf "$DAEMON_ADDR/healthz") \
    || { echo "a refused upload changed the daemon's state" >&2; curl -s "$DAEMON_ADDR/healthz" >&2; exit 1; }
stop_daemon
"$WORK/bin/tracevet" -semantic "$WORK/corpus-w" \
    || { echo "the second writer's corpus failed verification after the refused upload" >&2; exit 1; }

echo "== comparing arrival orders (all endpoints, /metrics included)"
diff -ru "$WORK/out-a" "$WORK/out-b"

echo "== comparing streaming vs warm-up (analysis queries)"
for f in healthz corpus scenarios impact "impact-$SCENARIO" "causality-$SCENARIO" \
         "awg-$SCENARIO.txt" "awg-$SCENARIO.dot"; do
    cmp "$WORK/out-a/$f" "$WORK/out-c/$f"
done

# Every daemon started above must be gone: a survivor still owns its
# corpus directory (and outlives the CI job).
if survivors="$(pgrep -f "^$WORK/bin/tracescoped ")"; then
    echo "tracescoped still running after the smoke: $survivors" >&2
    exit 1
fi

echo "daemon smoke: OK ($STREAMS streams, two arrival orders + warm-up restart, byte-identical; one writer)"
