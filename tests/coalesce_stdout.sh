#!/usr/bin/env bash
# Run a figure binary with the burst fast path off (GECKO_COALESCE=0)
# and at its default, and require byte-identical stdout: a burst is an
# execution strategy, never a model change (DESIGN.md §14).
#
# Usage: coalesce_stdout.sh FIGURE_BINARY [ARGS...]
set -u

BIN=${1:?usage: coalesce_stdout.sh FIGURE_BINARY [ARGS...]}
shift
out=$(mktemp -d) || exit 1
trap 'rm -rf "$out"' EXIT

GECKO_COALESCE=0 "$BIN" "$@" > "$out/off.txt" ||
    { echo "FAIL: '$BIN' with GECKO_COALESCE=0 exited $?"; exit 1; }
env -u GECKO_COALESCE "$BIN" "$@" > "$out/on.txt" ||
    { echo "FAIL: '$BIN' with default bursts exited $?"; exit 1; }
if ! cmp "$out/off.txt" "$out/on.txt"; then
    echo "FAIL: '$BIN' stdout differs with bursts on"
    diff "$out/off.txt" "$out/on.txt" | head -20
    exit 1
fi
echo "ok: $(wc -l < "$out/on.txt") identical lines"
