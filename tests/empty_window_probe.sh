#!/usr/bin/env bash
# A campaign whose attack windows round to empty is refused before any
# journal exists: exit 1, a message naming the spec field, and no
# manifest.jsonl in the work directory.  Runs the duty-cycle and the
# explicit-burst probe.
#
# Usage: empty_window_probe.sh CAMPAIGN_RUNNER SPEC_DIR WORK_DIR
set -u

RUNNER=${1:?usage: empty_window_probe.sh CAMPAIGN_RUNNER SPEC_DIR WORK_DIR}
SPECS=${2:?usage: empty_window_probe.sh CAMPAIGN_RUNNER SPEC_DIR WORK_DIR}
WORK=${3:?usage: empty_window_probe.sh CAMPAIGN_RUNNER SPEC_DIR WORK_DIR}

status=0
for probe in duty:duty.on_frac burst:burst.on_s; do
    name=${probe%%:*}
    field=${probe#*:}
    dir=$WORK/$name
    rm -rf "$dir"
    err=$("$RUNNER" --spec="$SPECS/empty_${name}_window_spec.json" \
          --fresh --dir="$dir" 2>&1 >/dev/null)
    got=$?
    bad=0
    if [ "$got" -ne 1 ]; then
        echo "FAIL: $name probe exited $got, expected 1"
        bad=1
    fi
    if ! grep -qF "$field" <<<"$err"; then
        echo "FAIL: $name probe's message does not name $field: $err"
        bad=1
    fi
    if [ -e "$dir/manifest.jsonl" ]; then
        echo "FAIL: $name probe journaled its space ($dir/manifest.jsonl)"
        bad=1
    fi
    if [ "$bad" -eq 0 ]; then
        echo "ok: $name refused: $err"
    else
        status=1
    fi
done
exit "$status"
