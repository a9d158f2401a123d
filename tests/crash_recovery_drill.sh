#!/bin/sh
# Crash-recovery drill across a real process boundary. One PersistTest
# process seeds a checkpoint pair (current = gen 2, rotation slot = gen 1)
# through a live Engine. The shell then damages the current file both ways
# a crash can (truncated mid-write, then a bit flip in the payload), and
# each time a fresh process must boot an Engine, reject the damaged file
# by its CRC, and recover the last good generation from the rotation slot.
# DAISY_CKPT_EXPECT_CORRUPT=1 asserts the corruption was counted, not
# silently skipped.
#
# Usage: crash_recovery_drill.sh <PersistTest binary> <checkpoint path>
# ctest runs it (see CMakeLists.txt); it exits non-zero if a stage fails.

set -eu

if [ $# -ne 2 ]; then
  echo "usage: $0 <PersistTest binary> <checkpoint path>" >&2
  exit 2
fi
test_bin=$1
ckpt=$2
filter='--gtest_filter=PersistStagedTest.*'

cleanup() {
  rm -f "$ckpt" "$ckpt.prev" "$ckpt.tmp" "$ckpt.orig"
}
cleanup

echo "=== seed two generations ==="
DAISY_CKPT_STAGE=seed DAISY_CKPT_PATH="$ckpt" "$test_bin" "$filter"
ls -l "$ckpt" "$ckpt.prev"

echo "=== recover from truncated current ==="
cp "$ckpt" "$ckpt.orig"
truncate -s 21 "$ckpt"
DAISY_CKPT_STAGE=recover DAISY_CKPT_PATH="$ckpt" \
  DAISY_CKPT_EXPECT_CORRUPT=1 "$test_bin" "$filter"

echo "=== recover from bit-flipped current ==="
cp "$ckpt.orig" "$ckpt"
printf '\377' | dd of="$ckpt" bs=1 seek=40 count=1 conv=notrunc 2>/dev/null
DAISY_CKPT_STAGE=recover DAISY_CKPT_PATH="$ckpt" \
  DAISY_CKPT_EXPECT_CORRUPT=1 "$test_bin" "$filter"

cleanup
echo "crash-recovery drill passed"
