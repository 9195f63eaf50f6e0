#!/bin/sh
# Pipes one query and \metrics into htapex_cli and checks that both are
# answered, and that the demo script does not run in their place. Then
# pipes \expire and \correct with ids that are not whole decimal ints: each
# must print its usage line and leave entry 0 in the knowledge base.
# Usage: cli_pipe_test.sh <path to htapex_cli>
out=$(printf '%s\n' 'SELECT COUNT(*) FROM orders WHERE o_totalprice > 1000;' \
  '\metrics' '\expire abc' '\expire 4294967296' '\correct x new text' \
  '\kb' | "$1") || exit 1
printf '%s\n' "$out"
printf '%s\n' "$out" | grep -q 'is faster' ||
  { echo "FAIL: piped query not answered"; exit 1; }
printf '%s\n' "$out" | grep -q '^htapex_traces_recorded_total 1$' ||
  { echo "FAIL: piped \\metrics not answered"; exit 1; }
if printf '%s\n' "$out" | grep -q 'c_custkey = 42'; then
  echo "FAIL: the demo ran instead of the piped input"
  exit 1
fi
[ "$(printf '%s\n' "$out" | grep -c '^usage: ')" -eq 3 ] ||
  { echo "FAIL: a bad entry id did not print the usage line"; exit 1; }
printf '%s\n' "$out" | grep -q '^\[ 0\] ' ||
  { echo "FAIL: a bad entry id changed entry 0"; exit 1; }
