#!/bin/sh
# No fault site without a test. Lists every DAISY_FAILPOINT("<site>")
# name under src/, skipping comment lines (support/FailPoint.h shows the
# macro on a placeholder name), and fails when no file under tests/
# names the site in double quotes: a site that no test can arm is a
# failure path nothing exercises.
#
# Usage: failpoint_sites_armed.sh <source root>
# ctest runs it (see CMakeLists.txt); it exits non-zero if a site is
# named by no test.

set -eu

if [ $# -ne 1 ]; then
  echo "usage: $0 <source root>" >&2
  exit 2
fi
root=$1

sites=$(grep -rhE 'DAISY_FAILPOINT\("[^"]+"\)' "$root/src" |
  grep -vE '^[[:space:]]*(//|/\*|\*)' |
  grep -oE 'DAISY_FAILPOINT\("[^"]+"\)' |
  sed -E 's/DAISY_FAILPOINT\("([^"]+)"\)/\1/' |
  sort -u)

if [ -z "$sites" ]; then
  echo "no DAISY_FAILPOINT site found under $root/src" >&2
  exit 1
fi

missing=0
for site in $sites; do
  if grep -rqF "\"$site\"" "$root/tests"; then
    echo "armed by a test: $site"
  else
    echo "named by no test under tests/: $site" >&2
    missing=$((missing + 1))
  fi
done

if [ "$missing" -ne 0 ]; then
  echo "$missing fault site(s) without a test" >&2
  exit 1
fi
