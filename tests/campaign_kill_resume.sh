#!/usr/bin/env bash
# Kill-and-resume differential oracle for the campaign engine
# (DESIGN.md §13).
#
# Runs a reference campaign to completion, then runs the identical
# campaign a second time but SIGKILLs it mid-flight (no cleanup, no
# signal handler — the hardest crash) and resumes it in a loop until it
# reports complete.  The two aggregate.json files must be byte-identical
# and the stdout aggregate lines must match.
#
# Usage: campaign_kill_resume.sh /path/to/campaign_runner [spec.json]
#
# With a second argument, a spec-driven phase repeats the oracle for a
# campaign configured entirely from that declarative spec file
# (scenario grid/burst axes included).
set -u

RUNNER=${1:?usage: campaign_kill_resume.sh /path/to/campaign_runner}
SPEC=${2:-}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/gecko_killres.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

# Big enough that the kill window reliably lands mid-campaign, small
# enough to stay a smoke test (~1-2 s per full pass on one core).
ARGS=(--threads=4 --seed=7 --workloads=sensor_loop,crc16
      --schemes=NVP,GECKO --seeds=16 --sim=0.3 --slice=0.03)

echo "== reference (uninterrupted) run"
"$RUNNER" "${ARGS[@]}" --fresh --dir="$WORK/ref" \
    >"$WORK/ref.out" 2>"$WORK/ref.err"
rc=$?
if [ $rc -ne 0 ]; then
    echo "FAIL: reference run exited $rc"
    cat "$WORK/ref.err"
    exit 1
fi

echo "== victim run, SIGKILL mid-flight"
"$RUNNER" "${ARGS[@]}" --fresh --dir="$WORK/cut" \
    >/dev/null 2>"$WORK/cut.err" &
VICTIM=$!
sleep 0.4
if kill -9 "$VICTIM" 2>/dev/null; then
    echo "   killed pid $VICTIM"
else
    # The campaign beat the timer; the oracle still checks resume
    # idempotence below, but flag it so a slow-host tune-up is visible.
    echo "   victim finished before the kill (host too fast?)"
fi
wait "$VICTIM" 2>/dev/null

done_before=$(grep -c '"state":"done"' "$WORK/cut/manifest.jsonl" \
    2>/dev/null || true)
echo "   jobs done at kill: ${done_before:-0}"

echo "== resume loop"
tries=0
until "$RUNNER" "${ARGS[@]}" --dir="$WORK/cut" \
    >"$WORK/cut.out" 2>>"$WORK/cut.err"; do
    rc=$?
    tries=$((tries + 1))
    if [ "$tries" -gt 20 ]; then
        echo "FAIL: campaign did not converge after $tries resumes (rc=$rc)"
        tail -5 "$WORK/cut.err"
        exit 1
    fi
done
echo "   converged after $tries interrupted resume(s)"

echo "== differential"
if ! cmp -s "$WORK/ref/aggregate.json" "$WORK/cut/aggregate.json"; then
    echo "FAIL: aggregate.json differs between uninterrupted and resumed"
    diff <(tr ',' '\n' <"$WORK/ref/aggregate.json") \
         <(tr ',' '\n' <"$WORK/cut/aggregate.json") | head -20
    exit 1
fi
if ! cmp -s "$WORK/ref.out" "$WORK/cut.out"; then
    echo "FAIL: stdout aggregate lines differ"
    exit 1
fi

echo "== backend invariance"
# The aggregate must not depend on the execution backend either: the
# same campaign under each explicit backend renders the same bytes as
# the ambient-backend reference (so the kill/resume property proven
# above transfers to every backend).
for be in step block; do
    if ! GECKO_EXEC=$be "$RUNNER" "${ARGS[@]}" --fresh \
        --dir="$WORK/be_$be" >/dev/null 2>>"$WORK/cut.err"; then
        echo "FAIL: backend $be campaign failed"
        exit 1
    fi
    if ! cmp -s "$WORK/ref/aggregate.json" "$WORK/be_$be/aggregate.json"
    then
        echo "FAIL: aggregate differs under GECKO_EXEC=$be"
        exit 1
    fi
done

if [ -n "$SPEC" ]; then
    echo "== spec-driven kill/resume ($SPEC)"
    # The spec supplies the scenario axes (grid cell, burst schedule);
    # the scale flags after --spec deliberately override its engine
    # section so the kill window lands mid-campaign.
    SARGS=(--threads=4 "--spec=$SPEC" --seeds=32 --sim=0.5 --slice=0.05)
    "$RUNNER" "${SARGS[@]}" --fresh --dir="$WORK/spec_ref" \
        >"$WORK/spec_ref.out" 2>"$WORK/spec.err"
    rc=$?
    if [ $rc -ne 0 ]; then
        echo "FAIL: spec reference run exited $rc"
        cat "$WORK/spec.err"
        exit 1
    fi
    "$RUNNER" "${SARGS[@]}" --fresh --dir="$WORK/spec_cut" \
        >/dev/null 2>>"$WORK/spec.err" &
    VICTIM=$!
    sleep 0.4
    kill -9 "$VICTIM" 2>/dev/null && \
        echo "   killed spec pid $VICTIM" || \
        echo "   spec victim finished before the kill"
    wait "$VICTIM" 2>/dev/null
    tries=0
    until "$RUNNER" "${SARGS[@]}" --dir="$WORK/spec_cut" \
        >"$WORK/spec_cut.out" 2>>"$WORK/spec.err"; do
        tries=$((tries + 1))
        if [ "$tries" -gt 20 ]; then
            echo "FAIL: spec campaign did not converge after $tries resumes"
            tail -5 "$WORK/spec.err"
            exit 1
        fi
    done
    if ! cmp -s "$WORK/spec_ref/aggregate.json" \
        "$WORK/spec_cut/aggregate.json"; then
        echo "FAIL: spec-driven aggregate differs after kill/resume"
        exit 1
    fi
    if ! cmp -s "$WORK/spec_ref.out" "$WORK/spec_cut.out"; then
        echo "FAIL: spec-driven stdout aggregate lines differ"
        exit 1
    fi
    echo "   spec-driven aggregate byte-identical"
fi

echo "PASS: resumed aggregate byte-identical to uninterrupted run"
exit 0
