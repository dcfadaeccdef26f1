#!/usr/bin/env bash
# Corpus replay must run under the campaign's own budgets.
#
# A campaign with a tiny livelock watchdog keeps livelocked cases in its
# corpus (and fails: GECKO livelocks count as corruption, so its exit
# status is nonzero by design).  Replaying that corpus with the same
# --watchdog must reproduce every recorded outcome; a replay that fell
# back to the default budget would let those cases finish instead.
#
# Usage: fault_replay_budget.sh /path/to/fault_campaign
set -u

BENCH=${1:?usage: fault_replay_budget.sh /path/to/fault_campaign}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/gecko_replay.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

"$BENCH" --cases=256 --seed=1 --watchdog=50 --out="$WORK" \
    >"$WORK/campaign.out" 2>&1
rc=$?
if [ $rc -eq 0 ]; then
    echo "FAIL: the --watchdog=50 campaign was expected to exit nonzero"
    exit 1
fi
kept=$(grep -c '^case ' "$WORK/fault_corpus.txt")
echo "campaign exited $rc with $kept corpus cases"

"$BENCH" --watchdog=50 --replay="$WORK/fault_corpus.txt" \
    >"$WORK/replay.out" 2>&1
rc=$?
tail -1 "$WORK/replay.out"
if [ $rc -ne 0 ] || ! grep -qx '# replay mismatches=0' "$WORK/replay.out"; then
    echo "FAIL: replay under --watchdog=50 exited $rc"
    grep MISMATCH "$WORK/replay.out" | head -5
    exit 1
fi
