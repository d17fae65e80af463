#!/bin/sh
# Transcript of `gdp verify` over a fixed matrix of instances, fault
# models and modes: each command line, its stdout and stderr, and its
# exit code.  The dune rule in test/dune diffs the transcript against
# verify_cli.expected.  Usage: verify_cli.sh PATH/TO/gdp.exe
set -u
gdp=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 2

run() {
  echo "\$ gdp verify $*"
  "$gdp" verify "$@" 2>&1
  echo "[exit $?]"
  echo
}

for spec in "node 1 3" "node 3 2" "mixed 1 3" "colored 1 3" "neighbor 1 3"; do
  set -- $spec
  m="--model $1 -n $2 -k $3 --domains 2"
  run $m
  run $m --symmetry
  run $m --no-splice
  run $m --sample 200 --seed 7
  run $m --procs 2
  run $m --checkpoint ck.bin
  run $m --symmetry --procs 2
  run $m --symmetry --checkpoint ck.bin
  run $m --symmetry --resume ck.bin
  if [ "$1" = node ]; then
    run $m --merged
    run $m --merged --symmetry
  fi
done

# An unopenable checkpoint path is a usage error (exit 2), not a crash.
run -n 1 -k 3 --domains 2 --checkpoint no-such-dir/ck.bin
run -n 1 -k 3 --domains 2 --resume no-such-dir/ck.bin
run -n 1 -k 3 --domains 2 --checkpoint .
