#!/usr/bin/env bash
# Run a binary with one environment variable set and with it unset, and
# require byte-identical stdout, and identical files wherever the
# arguments name an output directory as @OUT@: an execution strategy
# (the burst fast path, the block tier, the thread count) is never a
# model change (DESIGN.md §8, §12, §14).
#
# Usage: flip_identical.sh VAR=VALUE BINARY [ARGS...]
#   flip_identical.sh GECKO_COALESCE=0 ./build/bench/fig05_remote_adc
#   flip_identical.sh GECKO_EXEC=step ./build/bench/fault_campaign \
#       --cases=160 --seed=42 --out=@OUT@
set -u

usage='usage: flip_identical.sh VAR=VALUE BINARY [ARGS...]'
FLIP=${1:?$usage}
BIN=${2:?$usage}
shift 2
VAR=${FLIP%%=*}
ARGS=("$@")
tmp=$(mktemp -d) || exit 1
trap 'rm -rf "$tmp"' EXIT

# run SIDE ENV-ARGS...: the binary under `env ENV-ARGS`, its stdout in
# SIDE.stdout and @OUT@ replaced by the directory SIDE.
run() {
    local side=$1
    shift
    mkdir -p "$tmp/$side"
    env "$@" "$BIN" "${ARGS[@]//@OUT@/$tmp/$side}" > "$tmp/$side.stdout"
}

run flip "$FLIP" ||
    { echo "FAIL: '$BIN' with $FLIP exited $?"; exit 1; }
run default -u "$VAR" ||
    { echo "FAIL: '$BIN' with $VAR unset exited $?"; exit 1; }
if ! cmp "$tmp/flip.stdout" "$tmp/default.stdout"; then
    echo "FAIL: '$BIN' stdout differs between $FLIP and $VAR unset"
    diff "$tmp/flip.stdout" "$tmp/default.stdout" | head -20
    exit 1
fi
if ! diff -r "$tmp/flip" "$tmp/default" > "$tmp/dirs.diff"; then
    echo "FAIL: '$BIN' output files differ between $FLIP and $VAR unset"
    head -20 "$tmp/dirs.diff"
    exit 1
fi
echo "ok: $(wc -l < "$tmp/default.stdout") identical lines," \
     "$(find "$tmp/default" -type f | wc -l) identical files"
