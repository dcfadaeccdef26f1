#!/usr/bin/env bash
# Run a command and require one exact exit status: a crash (signal) or
# any other status fails.  Used for the CLI's bad-input contracts, where
# a diagnostic plus exit 2 is the expected behaviour.
#
# Usage: expect_exit.sh STATUS COMMAND [ARGS...]
set -u

WANT=${1:?usage: expect_exit.sh STATUS COMMAND [ARGS...]}
shift
"$@"
got=$?
if [ "$got" -ne "$WANT" ]; then
    echo "FAIL: '$*' exited $got, expected $WANT"
    exit 1
fi
echo "ok: exited $got"
