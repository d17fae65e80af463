#!/bin/sh
# Transcript of `gdp certify` and `gdp check-cert`: each command line,
# its stdout and stderr, and its exit code.  Covers round trips (an
# orbit certificate and a flat one), a truncated file, an old-format
# header and unopenable paths.  The dune rule in test/dune diffs the
# transcript against cert_cli.expected.  Usage: cert_cli.sh PATH/TO/gdp.exe
set -u
gdp=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 2

run() {
  echo "\$ gdp $*"
  "$gdp" "$@" 2>&1
  echo "[exit $?]"
  echo
}

for spec in "6 2" "1 3" "3 2"; do
  set -- $spec
  run certify -n $1 -k $2 c.bin
  run check-cert -n $1 -k $2 c.bin
done

# A truncated certificate fails closed.
head -c 200 c.bin > short.bin
run check-cert -n 3 -k 2 short.bin

# A certificate for another instance names the mismatch.
run check-cert -n 6 -k 2 c.bin

# Old text formats are refused by version, not misparsed.
printf 'gdpn-cert 2\ninstance 0\nsets 67\n' > old.cert
run check-cert -n 3 -k 2 old.cert

# An unopenable path is a usage error (exit 2), not a crash.
run certify -n 6 -k 2 no-such-dir/c
run certify -n 6 -k 2 .
run check-cert -n 6 -k 2 no-such-dir/c
run check-cert -n 6 -k 2 .
