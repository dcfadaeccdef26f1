#!/usr/bin/env bash
# Durable-write failure probe for the campaign engine and the
# adversarial search.  Under a 2 KiB file-size limit (SIGXFSZ ignored,
# so a write past the limit fails with EFBIG) no journal can be written
# whole.  Each driver must then stop with exit 1 and a diagnostic naming
# the file it could not write — never report a complete run.
#
# Usage: durable_write_probe.sh CAMPAIGN_RUNNER FIG_ADVERSARIAL
set -u

USAGE="usage: durable_write_probe.sh CAMPAIGN_RUNNER FIG_ADVERSARIAL"
RUNNER=${1:?$USAGE}
ADVERSARIAL=${2:?$USAGE}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
status=0

# probe NAME COMMAND [ARGS...]
probe() {
    local name=$1
    shift
    local out rc
    out=$( (trap '' XFSZ; ulimit -f 2; "$@") 2>&1 )
    rc=$?
    if [ "$rc" -ne 1 ]; then
        echo "FAIL: $name exited $rc under ulimit -f 2, expected 1"
        echo "$out" | tail -5
        status=1
    elif ! grep -q "cannot write $WORK/" <<<"$out"; then
        echo "FAIL: $name exited 1 without naming the file it could not write"
        echo "$out" | tail -5
        status=1
    else
        echo "ok: $name: $(grep -m1 "cannot write" <<<"$out")"
    fi
}

probe campaign_runner "$RUNNER" --fresh --quick --dir="$WORK/campaign"
probe fig_adversarial "$ADVERSARIAL" --fresh --quick \
    --dir="$WORK/adversarial"
exit $status
