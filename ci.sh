#!/usr/bin/env sh
# One-command verify matrix.  CMake workflow presets cannot chain
# configure presets (each workflow is pinned to its first configure
# step), so the matrix is three workflows run back to back:
#
#   default  Release build, full ctest suite (tier-1 gate)
#   scalar   the same default code in its own Release tree, full ctest
#            suite (kept as a matrix leg; there is no separate scalar path)
#   tsan     ThreadSanitizer build, tier1-tsan labelled tests
#
# then the end-to-end benchmark's own tests (perfbench ledger and compare
# logic; builds into .bench_build on first use).
#
# Usage: ./ci.sh            (from the repository root)
set -e
for wf in ci ci-scalar ci-tsan; do
  echo "==== cmake --workflow --preset ${wf} ===="
  cmake --workflow --preset "${wf}"
done
echo "==== tuning_shootout --smoke ===="
./build/examples/tuning_shootout --smoke \
  --json=build/BENCH_shootout.json > /dev/null
# The default build reproduces the committed file byte for byte: every
# strategy x landscape x noise cell pins the deterministic evaluation path.
cmp build/BENCH_shootout.json BENCH_shootout.json
echo "==== perfbench selftest ===="
python3 perfbench/run.py --selftest
echo "==== verify matrix green ===="
