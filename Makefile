.PHONY: all check test bench bench-smoke clean

all:
	dune build

# Tier-1 verification: full build plus the whole test suite (which
# includes tiny-scale smoke runs of the bench harness and the ledger,
# and the ledger's pinned work counts).
check:
	dune build && dune runtest

test: check

# Full evaluation reproduction at default scale (slow).
bench:
	dune exec bench/main.exe

# Quick wall-clock check of the figure harness.
bench-smoke:
	RI_NODES=2000 RI_TRIALS=5 dune exec bench/main.exe

clean:
	dune clean
