#!/usr/bin/env bash
# bench_all --baseline runs each figure twice: at the suite's thread
# count, then serially.  Both passes must start the campaign drivers
# fresh inside the suite's scratch area: a serial run that resumed a
# work directory of the current one would time a finished campaign.
# Run from an empty directory, which must stay free of the drivers'
# default work directories.
#
# Usage: bench_all_fresh_dirs.sh BENCH_ALL [FIGURE...]
set -u

BENCH_ALL=${1:?usage: bench_all_fresh_dirs.sh BENCH_ALL [FIGURE...]}
shift
work=$(mktemp -d) || exit 1
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1
"$BENCH_ALL" --baseline --out="$work/suite.json" "$@" ||
    { echo "FAIL: bench_all --baseline exited $?"; exit 1; }
for dir in campaign_out adversarial_out; do
    if [ -e "$dir" ]; then
        echo "FAIL: bench_all --baseline left $dir/ in its working directory"
        exit 1
    fi
done
echo "ok: no work directory left behind"
