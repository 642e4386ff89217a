#!/usr/bin/env sh
# Prints one "sha256  name" line per figure/ablation/extension harness, each
# run at REPRO_REPS=4 with the default seed and step counts.  The output of
# every harness is deterministic (byte-identical for any REPRO_THREADS, and
# free of timing), so bench/harness_digests.txt pins it:
#
#   bench/harness_digests.sh [build-dir] | diff bench/harness_digests.txt -
#
# build-dir defaults to build.  Run from the repository root.  Exits
# non-zero when a harness fails.
set -e
bin="${1:-build}/bench"
unset REPRO_SEED REPRO_STEPS OBS_TRACE
tmp=$(mktemp)
trap 'rm -f "${tmp}"' EXIT
for name in \
    fig01_metrics fig02_simplex_geometry fig03_traces fig04_07_tail \
    fig08_surface fig09_initial_simplex fig10_multisample \
    ablation_estimators ablation_expansion_check ablation_algorithms \
    ablation_sampling_modes ablation_correlated_noise ablation_probe_policy \
    ablation_queue_model extension_adaptive_k extension_racing; do
  REPRO_REPS=4 "${bin}/${name}" > "${tmp}"
  digest=$(sha256sum < "${tmp}" | cut -d ' ' -f 1)
  echo "${digest}  ${name}"
done
