#!/bin/sh
# Runs htapex_cli once per malformed or out-of-range numeric flag, stdin
# from /dev/null: each must exit 2 with a usage line on stderr, before the
# router trains. Then valid spellings of the same flags must still run to
# exit 0.
# Usage: cli_flags_test.sh <path to htapex_cli>
status=0
for flags in '--serve 0' '--serve 65' '--serve abc' '--serve 4x' \
    '--serve 1 --shards=4294967297' '--serve 1 --shards=x' \
    '--fault-seed=abc' '--fault-seed=-1' '--fault-seed=' \
    '--trace-log=5ms' '--trace-log=nan' '--trace-log=inf' '--trace-log=0'; do
  # $flags is split on spaces on purpose: one word per argument.
  err=$("$1" $flags < /dev/null 2>&1 > /dev/null)
  rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: htapex_cli $flags exited $rc, want 2"
    status=1
  elif ! printf '%s\n' "$err" | grep -q '^usage: '; then
    echo "FAIL: htapex_cli $flags printed no usage line"
    status=1
  fi
done
"$1" --serve 1 --shards=1 --fault-seed=18446744073709551615 \
  --trace-log=2.5 < /dev/null > /dev/null ||
  { echo "FAIL: valid numeric flags were refused"; status=1; }
exit $status
