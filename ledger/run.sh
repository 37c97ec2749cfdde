#!/bin/sh
# Builds the ledger from source and runs `ledger.exe bench` with the
# given arguments.  Run from the repository root:
#
#   sh ledger/run.sh --workload faults --seed 1 --seconds 20 --trace 0
#
# The compiler's temporary files go under _build, so a run writes
# nothing outside the source tree.
set -e
mkdir -p _build/ledger-tmp
TMPDIR="$PWD/_build/ledger-tmp"
export TMPDIR
exec dune exec --root . --cache disabled --display quiet -- ./ledger/ledger.exe bench "$@"
