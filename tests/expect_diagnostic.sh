#!/usr/bin/env bash
# Run a command that must refuse its input: it has to exit non-zero and
# name TEXT in its stderr.  Used for malformed environment variables,
# which throw before any work starts (the uncaught exception aborts the
# process, so the status alone cannot tell a refusal from a crash).
#
# Usage: expect_diagnostic.sh TEXT COMMAND [ARGS...]
set -u

TEXT=${1:?usage: expect_diagnostic.sh TEXT COMMAND [ARGS...]}
shift
ulimit -c 0
err=$("$@" 2>&1 >/dev/null)
got=$?
if [ "$got" -eq 0 ]; then
    echo "FAIL: '$*' exited 0, expected a refusal"
    exit 1
fi
if ! grep -qF "$TEXT" <<<"$err"; then
    echo "FAIL: '$*' exited $got without naming $TEXT: $err"
    exit 1
fi
echo "ok: exited $got: $err"
