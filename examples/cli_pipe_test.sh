#!/bin/sh
# Pipes one query and \metrics into htapex_cli and checks that both are
# answered, and that the demo script does not run in their place.
# Usage: cli_pipe_test.sh <path to htapex_cli>
out=$(printf 'SELECT COUNT(*) FROM orders WHERE o_totalprice > 1000;\n\\metrics\n' |
  "$1") || exit 1
printf '%s\n' "$out"
printf '%s\n' "$out" | grep -q 'is faster' ||
  { echo "FAIL: piped query not answered"; exit 1; }
printf '%s\n' "$out" | grep -q '^htapex_traces_recorded_total 1$' ||
  { echo "FAIL: piped \\metrics not answered"; exit 1; }
if printf '%s\n' "$out" | grep -q 'c_custkey = 42'; then
  echo "FAIL: the demo ran instead of the piped input"
  exit 1
fi
