#!/usr/bin/env bash
# Corpus-verifier gate: generate a fleet with tracegen, prove tracevet
# passes it clean (structural AND semantic rules, with LF and with CRLF
# line ends in corpus.index), then corrupt the corpus one deterministic
# bit-flip / truncation / edit at a time and fail unless every mutant is
#
#   1. caught (tracevet exits non-zero with at least one finding),
#   2. caught by the *expected* rule, and
#   3. reported byte-identically at -workers 1 and -workers 4.
#
# The clean run's SARIF log lands in tracevet.sarif (uploaded as a CI
# artifact), so every green run leaves a machine-readable record of the
# rule set that vetted the corpus.
#
# The clean corpus also gates residency: the semantic phase decodes a
# stream, uses it and drops it, so vetting a corpus four times the size
# must not take more than twice the memory.
#
# Usage: scripts/vet_gate.sh [STREAMS] [EPISODES]
set -euo pipefail

STREAMS="${1:-12}"
EPISODES="${2:-6}"
SEED=42
WORK="$(mktemp -d "${TMPDIR:-/tmp}/tracescope-vet-gate.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT INT TERM

cd "$(dirname "$0")/.."

echo "== building binaries"
go build -o "$WORK/bin/" ./cmd/tracegen ./cmd/tracevet

echo "== generating corpus (seed $SEED, $STREAMS streams)"
"$WORK/bin/tracegen" -out "$WORK/corpus" -seed "$SEED" -streams "$STREAMS" \
    -episodes "$EPISODES" > "$WORK/gen.log"

echo "== vetting the clean corpus (structural + semantic, SARIF artifact)"
"$WORK/bin/tracevet" -semantic -sarif tracevet.sarif "$WORK/corpus" \
    > "$WORK/clean.out" 2> "$WORK/clean.err" \
    || { echo "clean corpus failed verification:" >&2
         cat "$WORK/clean.out" "$WORK/clean.err" >&2; exit 1; }
[ -s "$WORK/clean.out" ] && { echo "clean corpus produced findings:" >&2
                              cat "$WORK/clean.out" >&2; exit 1; }

echo "== vetting the clean corpus with CRLF line ends (the loader reads them the same)"
cp -r "$WORK/corpus" "$WORK/corpus-crlf"
sed -i 's/$/\r/' "$WORK/corpus-crlf/corpus.index"
"$WORK/bin/tracevet" -semantic "$WORK/corpus-crlf" > "$WORK/crlf.out" 2> "$WORK/crlf.err" \
    || { echo "CRLF corpus failed verification:" >&2
         cat "$WORK/crlf.out" "$WORK/crlf.err" >&2; exit 1; }
[ -s "$WORK/crlf.out" ] && { echo "CRLF corpus produced findings:" >&2
                             cat "$WORK/crlf.out" >&2; exit 1; }

# peak_rss_kb CMD... — run CMD quietly, print its peak resident set size
# in KiB (Linux ru_maxrss), and exit with its status.
peak_rss_kb() {
    python3 -c '
import resource, subprocess, sys
status = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
sys.exit(status)' "$@"
}

echo "== residency: the same vet over $(( STREAMS * 4 )) streams"
"$WORK/bin/tracegen" -out "$WORK/corpus4x" -seed "$SEED" -streams $(( STREAMS * 4 )) \
    -episodes "$EPISODES" > "$WORK/gen4x.log"
rss1="$(peak_rss_kb "$WORK/bin/tracevet" -semantic "$WORK/corpus")" &&
    rss4="$(peak_rss_kb "$WORK/bin/tracevet" -semantic "$WORK/corpus4x")" \
    || { echo "residency runs failed (python3 missing, or the 4x corpus does not vet clean)" >&2; exit 1; }
echo "   peak RSS: $rss1 KiB over $STREAMS streams, $rss4 KiB over $(( STREAMS * 4 ))"
[ "$rss4" -le $(( rss1 * 2 )) ] \
    || { echo "vet gate: tracevet -semantic holds memory in proportion to the corpus:" \
              "4x the streams took more than 2x the peak RSS" >&2; exit 1; }

# flip_bit FILE OFFSET — XOR one bit of the byte at OFFSET in place.
flip_bit() {
    local b
    b="$(od -An -tu1 -j "$2" -N1 "$1" | tr -d ' ')"
    printf "$(printf '\\%03o' $(( b ^ 0x01 )))" \
        | dd of="$1" bs=1 seek="$2" conv=notrunc status=none
}

# expect_caught NAME RULE MUTATE... — copy the corpus, apply the
# mutation (a shell command run with the mutant dir in $MUT), and demand
# tracevet catches it with RULE, deterministically across worker counts.
failures=0
expect_caught() {
    local name="$1" rule="$2"; shift 2
    local MUT="$WORK/mut-$name"
    cp -r "$WORK/corpus" "$MUT"
    "$@"
    local status=0
    "$WORK/bin/tracevet" -json -workers 1 "$MUT" > "$WORK/$name-w1.json" 2>/dev/null \
        && status=0 || status=$?
    if [ "$status" -eq 0 ]; then
        echo "FAIL $name: mutation not caught" >&2
        failures=$((failures + 1))
        return 0
    fi
    if ! grep -q "\"analyzer\": \"$rule\"" "$WORK/$name-w1.json"; then
        echo "FAIL $name: expected rule '$rule' absent from report:" >&2
        cat "$WORK/$name-w1.json" >&2
        failures=$((failures + 1))
        return 0
    fi
    "$WORK/bin/tracevet" -json -workers 4 "$MUT" > "$WORK/$name-w4.json" 2>/dev/null || true
    if ! cmp -s "$WORK/$name-w1.json" "$WORK/$name-w4.json"; then
        echo "FAIL $name: report differs between -workers 1 and -workers 4" >&2
        failures=$((failures + 1))
        return 0
    fi
    echo "   $name: caught by $rule (deterministic)"
}

echo "== mutation harness"
index_size="$(wc -c < "$WORK/corpus/corpus.index")"
stream_file="$(ls "$WORK/corpus" | grep '^stream-' | head -1)"

# Bit-flips in the index: the version digit of the header and the
# sequence digit of a mid-file stream record ('s 2 ' -> 's 3 ', a gap).
expect_caught index-header index-seq \
    flip_bit "$WORK/mut-index-header/corpus.index" 8
seq_off="$(grep -b -o '^s 2 ' "$WORK/corpus/corpus.index" | head -1 | cut -d: -f1)"
expect_caught index-gap index-seq \
    flip_bit "$WORK/mut-index-gap/corpus.index" $(( seq_off + 2 ))

# A committed record the grammar refuses: the first stream record's
# duration made negative.
expect_caught neg-duration index-seq \
    sed -i '0,/^s /s/^\(s [0-9]* "[^"]*" [0-9]*\) [0-9]*/\1 -1/' "$WORK/mut-neg-duration/corpus.index"
if ! grep -q '"severity": "error"' "$WORK/neg-duration-w1.json"; then
    echo "FAIL neg-duration: negative duration not reported as an error" >&2
    failures=$((failures + 1))
fi

# Bit-flip in a committed stream file's magic: indexed-file corruption.
expect_caught stream-magic stream-decode \
    flip_bit "$WORK/mut-stream-magic/$stream_file" 2

# Torn tails — the Appender crash shapes: a batch cut inside its last
# line, and one cut after its intern records, before its stream record.
# Both must be caught AND classified recoverable (notes only, no errors
# in the human render).
expect_caught index-tail tail-truncated \
    truncate -s $(( index_size - 3 )) "$WORK/mut-index-tail/corpus.index"
expect_caught torn-batch tail-truncated \
    sh -c 'printf "f \"torn.sys!F\"\nk 0\n" >> "$0"' "$WORK/mut-torn-batch/corpus.index"
for name in index-tail torn-batch; do
    if grep -q '"severity": "error"' "$WORK/$name-w1.json"; then
        echo "FAIL $name: crash-shaped tail reported as error, want recoverable note" >&2
        failures=$((failures + 1))
    fi
done

# Dangling intern references — corruption, not notes: a committed stack
# record naming a frame the log never defined, and the frame records of
# the first stream's batch removed, so its stacks name frames that are
# gone.
expect_caught stack-undefined-frame intern-ref \
    sed -i '0,/^k /s/^k .*/k 99999/' "$WORK/mut-stack-undefined-frame/corpus.index"
expect_caught frames-removed intern-ref \
    sed -i '2,/^s /{/^f /d}' "$WORK/mut-frames-removed/corpus.index"
for name in stack-undefined-frame frames-removed; do
    if ! grep -q '"severity": "error"' "$WORK/$name-w1.json"; then
        echo "FAIL $name: dangling intern reference not reported as an error" >&2
        failures=$((failures + 1))
    fi
done

[ "$failures" -eq 0 ] || { echo "vet gate: $failures mutation(s) escaped" >&2; exit 1; }
echo "vet gate: OK (clean corpus verified semantically in bounded memory; all mutants caught, reports worker-count-stable)"
