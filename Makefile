# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race bench mbench mbench-pair bench-protocols bench-protocols-short figures figures-short examples vet lint clean

all: vet lint test

build:
	$(GO) build ./...

# vet also fails on a file gofmt would rewrite.
vet: build
	$(GO) vet ./...
	@out=$$(gofmt -l *.go cmd examples internal); test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

# Repo-specific analyzers (determinism, sticky errors, obs namespace,
# lock discipline, dispatch layering, kind switches, dead code); see
# docs/ANALYSIS.md. Exits nonzero on findings.
lint: build
	$(GO) run ./cmd/mlint

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=NONE .

# The repository's benchmark (BENCHMARK.json, cmd/mbench/README.md): eight
# workloads, three end-to-end metrics each; exits nonzero on a failed
# correctness check. Pass flags through MBENCH, e.g.
# `make mbench MBENCH="-workload hop_small -trace 1"`.
MBENCH ?=
mbench:
	$(GO) run ./cmd/mbench $(MBENCH)

# A perf claim is a paired run (ROADMAP, standing measurement rules): fresh
# clones of PARENT and of HEAD (committed files only), PAIRS alternating
# pairs of `mbench -out` with seeds SEED, SEED+1, ... (the side that runs
# first alternates too), then `mbench -compare`. Run nothing else meanwhile.
#   make mbench-pair PARENT=HEAD~1 MBENCH="-workload hop_small"
PARENT ?=
PAIRS ?= 10
SEED ?= 1
PAIR_DIR ?= .bench_build/pair
mbench-pair:
	@test -n "$(PARENT)" || { echo "usage: make mbench-pair PARENT=<rev> [PAIRS=10] [SEED=1] [MBENCH=...]"; exit 2; }
	rm -rf $(PAIR_DIR) && mkdir -p $(PAIR_DIR)
	git clone -q . $(PAIR_DIR)/parent && git -C $(PAIR_DIR)/parent checkout -q --detach $(PARENT)
	git clone -q . $(PAIR_DIR)/change
	cd $(PAIR_DIR)/parent && $(GO) build -o ../mbench.parent ./cmd/mbench
	cd $(PAIR_DIR)/change && $(GO) build -o ../mbench.change ./cmd/mbench
	@set -e; i=0; while [ $$i -lt $(PAIRS) ]; do \
		seed=$$(( $(SEED) + i )); \
		if [ $$(( i % 2 )) -eq 0 ]; then order="parent change"; else order="change parent"; fi; \
		for side in $$order; do \
			echo "== pair $$(( i + 1 ))/$(PAIRS), seed $$seed: $$side"; \
			( cd $(PAIR_DIR)/$$side && ../mbench.$$side $(MBENCH) -seed $$seed -out ../$$side.jsonl >/dev/null ); \
		done; \
		i=$$(( i + 1 )); \
	done
	$(GO) run ./cmd/mbench -compare $(PAIR_DIR)/parent.jsonl $(PAIR_DIR)/change.jsonl

# Protocol chaos suite: Paxos, 2PC, and termination detection as Messenger
# programs and PVM baselines, swept across seeded nemesis fault plans with
# every trace checked against the safety invariants. Exits nonzero on any
# violation; cost comparison lands in BENCH_protocols.json. The -broken run
# proves the checkers have teeth (a promise-forgetting acceptor must be
# caught).
bench-protocols:
	$(GO) run ./cmd/mproto -seeds 32 -out BENCH_protocols.json
	$(GO) run ./cmd/mproto -broken -seeds 12 -out ""

# Reduced sweep for CI sanity (6 seeds, sim engine).
bench-protocols-short:
	$(GO) run ./cmd/mproto -short -out BENCH_protocols.json
	$(GO) run ./cmd/mproto -broken -seeds 6 -out ""

# Regenerate every paper figure/table into experiments/.
figures:
	$(GO) run ./cmd/figures

figures-short:
	$(GO) run ./cmd/figures -short

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/ringtoken
	$(GO) run ./examples/matmul -m 2 -s 32
	$(GO) run ./examples/mandelbrot -size 256 -grid 4 -workers 4 -o mandelbrot.pgm

clean:
	rm -f mandelbrot.pgm test_output.txt bench_output.txt
