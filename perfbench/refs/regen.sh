#!/usr/bin/env bash
# Regenerate the reference reports that the benchmark compares every
# timed flow and every served report against, byte for byte.  They are
# rendered by the tree-walking interpreter (--interp ast), independently
# of the default VM backend the benchmark measures.
#
# Run from the repository root:  bash perfbench/refs/regen.sh
set -euo pipefail
dune build bin/psaflow.exe
psaflow=_build/default/bin/psaflow.exe
out=perfbench/refs
run() { "$psaflow" run "$@" --interp ast --cache off --ledger off; }
for app in nbody kmeans adpredictor rush_larsen bezier; do
  run "$app" --mode uninformed > "$out/$app.uninformed.eval.txt"
  for mode in informed uninformed; do
    run "$app" --quick --mode "$mode" > "$out/$app.$mode.quick.txt"
  done
done
