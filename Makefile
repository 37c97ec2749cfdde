.PHONY: all check test bench bench-smoke clean

all:
	dune build

# Tier-1 verification: full build plus the whole test suite (which
# includes tiny-scale smoke runs of every figure and of the ledger, and
# the ledger's pinned work counts).
check:
	dune build && dune runtest

test: check

# Full evaluation reproduction at default scale (slow): every figure
# and ablation.
bench:
	dune exec bin/risim.exe -- all --extensions

# Quick wall-clock check of the same tables.
bench-smoke:
	dune exec bin/risim.exe -- all --extensions --nodes 2000 --trials 5

clean:
	dune clean
