#!/bin/sh
# Print the sha256 of the stdout of every paper subcommand in full mode
# (no --fast), one "<sha256>  <subcommand>" line each: the format of
# tests/full_mode.sha256, which pins the reproduction's full-mode
# tables. A deliberate change to them re-records that file with
#
#   tools/full_mode_digests.sh build/tools/p5sim > tests/full_mode.sha256
#
# Usage: full_mode_digests.sh P5SIM [JOBS]   (JOBS defaults to 4; stdout
# does not depend on it)
set -eu
p5sim=${1:?usage: full_mode_digests.sh P5SIM [JOBS]}
jobs=${2:-4}
out=$(mktemp)
trap 'rm -f "$out"' EXIT
for cmd in table1 table2 table3 table4 fig2 fig3 fig4 fig5 fig6 ablation; do
    "$p5sim" "$cmd" --jobs="$jobs" > "$out"
    printf '%s  %s\n' "$(sha256sum < "$out" | cut -d' ' -f1)" "$cmd"
done
