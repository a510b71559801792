# OFence-Go build and evaluation targets.

GO ?= go

.PHONY: all build vet lint loc fuzz test test-race race race-service smoke examples bench bench-confidence serve eval eval-json corpus trace-demo clean

all: build lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static checks: go vet, gofmt (failing on any unformatted file), and the
# documentation lint — docs/CLI.md must cover every registered CLI flag and
# internal/obs must document every exported identifier (docs_test.go).
lint: vet
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) test . -run TestDocs

# Non-test Go lines outside bench/, the size measure ROADMAP.md tracks.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l

# Short fuzz passes over the robustness targets: the parser (no panics, no
# hangs), the preprocessor's per-file work budget (every input of at most
# 4 KiB ends within it), the service's HTTP handler (no panics, no 5xx, 4xx
# for malformed bodies) and the disk store's index replay (no panics, exact
# byte accounting, every well-formed line applied); and over four
# differential ones: header replay against a fresh environment,
# header-declaration splicing against a fresh parser, warm analysis
# after random edits and depth flips against a cold PairSites and a cold
# -json, and the service's one-pass request decoding against
# encoding/json.
fuzz:
	$(GO) test ./internal/cparser/ -fuzz FuzzParseSource -fuzztime 30s
	$(GO) test ./internal/cpp/ -run '^$$' -fuzz FuzzPreprocessBounded -fuzztime 30s
	$(GO) test ./internal/service/ -run '^$$' -fuzz FuzzHandler -fuzztime 30s
	$(GO) test ./internal/rescache/ -run '^$$' -fuzz FuzzDiskStoreReplay -fuzztime 30s
	$(GO) test ./internal/cpp/ -run '^$$' -fuzz FuzzIncludeReplay -fuzztime 30s
	$(GO) test ./internal/cparser/ -run '^$$' -fuzz FuzzHeaderDeclReplay -fuzztime 30s
	$(GO) test ./internal/ofence/ -run '^$$' -fuzz FuzzIncrementalPairing -fuzztime 30s
	$(GO) test ./internal/service/ -run '^$$' -fuzz FuzzDecodeAnalyze -fuzztime 30s

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Alias: the race-detector gate for the concurrent analysis paths — the
# parallel extraction fan-out (including interprocedural mode), the pairing
# checkers, the serving subsystem, and the diagnostics engine.
race: test-race

# One benchmark per paper table/figure (see EXPERIMENTS.md).
bench:
	$(GO) test -bench=. -benchmem ./...

# Confidence-ranking headline number: precision/recall/F1 of the ranking
# pass (internal/rank) on the labeled confidence corpus, swept over the
# -min-confidence threshold grid. Refreshes BENCH_confidence.json via the
# harness in internal/report/confidence_test.go (see docs/RANKING.md).
bench-confidence:
	OFENCE_BENCH_CONFIDENCE_OUT=$(CURDIR)/BENCH_confidence.json \
		$(GO) test ./internal/report/ -run '^TestWriteBenchConfidenceJSON$$' -count=1 -v

# Race-detector gate for the job engine: lease juggling, worker
# heartbeats, in-process and external workers, the result cache and the
# warm lineages every in-process worker shares.
race-service:
	$(GO) test -race -count=1 ./internal/service/ ./internal/rescache/

# Builds ofence-serve and ofence-worker and runs them together end to end
# (cmd/ofence-serve/smoke_test.go).
smoke:
	$(GO) test -count=1 -run '^TestDaemonSmoke$$' -v ./cmd/ofence-serve/

# Runs every example program; an example that misses its expected result
# prints "BUG: ..." and exits 1, which fails the target.
examples:
	@for d in examples/*/; do \
		echo "== $$d"; $(GO) run ./$$d > /dev/null || exit 1; \
	done

# Run the analysis daemon (see README "Running as a service").
serve:
	$(GO) run ./cmd/ofence-serve

# Regenerate the paper's evaluation as text.
eval:
	$(GO) run ./cmd/ofence-eval

# Machine-readable evaluation; exits nonzero if any correctness gate fails.
eval-json:
	$(GO) run ./cmd/ofence-eval -json

# Write a synthetic labelled corpus to ./corpus-out.
corpus:
	$(GO) run ./cmd/ofence-corpus -seed 42 -truth corpus-out

# Traced analysis over the synthetic corpus: stage tree on stderr plus a
# Perfetto-loadable trace-demo.json (see docs/OBSERVABILITY.md).
trace-demo: corpus
	$(GO) run ./cmd/ofence -trace -trace-out trace-demo.json corpus-out

clean:
	rm -rf corpus-out trace-demo.json
	$(GO) clean ./...
