.PHONY: all build test test-verbose bench bench-quick bench-json bench-gate bench-history \
	check stats corpus corpus-ifc examples doc clean loc

all: build test

build:
	dune build @all

test:
	dune runtest

test-verbose:
	dune runtest --force --no-buffer

bench:
	dune exec bench/main.exe

bench-quick:
	dune exec bench/main.exe -- --quick

# Wall-clock trajectory: the microbenchmark and pipeline Mpps races,
# serialized to BENCH_netstack.json at the repo root, plus a dated
# line appended to BENCH_history.jsonl (the cross-commit trajectory).
bench-json:
	dune exec bench/main.exe -- --json

# Regression gate: fresh wall-clock numbers vs the committed baseline,
# +-30% tolerance per row (CI runs the same two steps).
bench-gate:
	cp BENCH_netstack.json /tmp/bench-baseline.json
	dune exec bench/main.exe -- --quick --json
	dune exec bench/gate.exe -- /tmp/bench-baseline.json BENCH_netstack.json 1.3

# Validate and print the cross-commit wall-clock trajectory: every
# line of BENCH_history.jsonl must be a JSON object carrying date +
# results; any malformed line fails the target.
bench-history:
	@python3 tools/bench_history_check.py BENCH_history.jsonl
	@echo "bench history: OK"

# Every golden-pinned experiment's determinism claims, in one pass:
# replay, 1/2/4-shard invariance and identity lines (the spec lives in
# lib/experiments/registry.ml). `dune runtest` runs the same checks and
# diffs each block against test/golden/.
check:
	dune exec bin/repro.exe -- check

stats:
	dune exec bin/repro.exe -- stats fig2 recovery rollback

# Regenerate the committed corrupt-checkpoint corpus (test/corpus/) —
# deterministic byte surgery, so the tree is reproducible.
corpus:
	dune exec tools/gen_corpus.exe -- test/corpus

# Regenerate the committed IFC program corpus (test/corpus-ifc/) —
# deterministic generator output rendered to concrete syntax, so the
# tree is reproducible bit-for-bit.
corpus-ifc:
	dune exec tools/gen_ifc_corpus.exe -- test/corpus-ifc

examples:
	dune exec examples/quickstart.exe
	dune exec examples/nf_isolation.exe
	dune exec examples/secure_store.exe
	dune exec examples/firewall_checkpoint.exe
	dune exec examples/session_rpc.exe

clean:
	dune clean

loc:
	@find lib test bench bin examples -name '*.ml' -o -name '*.mli' | xargs wc -l | tail -1
