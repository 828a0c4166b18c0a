GO ?= go

.PHONY: all build test race vet bench-module check fuzz-smoke bench paperbench bench-json

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Static analysis: every Go file gofmt-clean (gofmt -l . must print
# nothing), then go vet.
vet:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l . lists unformatted files:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# bench/ is a Go module of its own (the iglrbench benchmark), so the root
# `go build ./...` and `go test ./...` do not reach it: vet and test it
# here, so a removed library API it uses fails the gate.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The CI gate: static analysis (gofmt and go vet), the full suite under
# the race detector (includes the concurrent-session stress tests, the
# budget suites, and the fault-injection convergence suite), and the
# bench module's vet and tests.
check: vet race bench-module

# Short coverage-guided runs of the fuzz targets: the batch-vs-incremental
# parse oracle, the recovery convergence invariant, the compiled-artifact
# codec (decode of arbitrary bytes must never panic; accepted artifacts must
# re-encode canonically), the error-isolation convergence contract
# (tier-1 recovery preserves text; repairing converges to the batch parse),
# and the session-snapshot codec plus its write-ahead journal framing
# (arbitrary bytes never panic; accepted snapshots restore and re-encode
# canonically).
fuzz-smoke:
	$(GO) test -run FuzzParseOracle -fuzz FuzzParseOracle -fuzztime 30s ./internal/earley/
	$(GO) test -run FuzzRecoveryConverges -fuzz FuzzRecoveryConverges -fuzztime 30s ./internal/recovery/
	$(GO) test -run FuzzLangCodecRoundTrip -fuzz FuzzLangCodecRoundTrip -fuzztime 30s ./internal/langcodec/
	$(GO) test -run FuzzErrorIsolationConverges -fuzz FuzzErrorIsolationConverges -fuzztime 30s .
	$(GO) test -run FuzzSessCodecRoundTrip -fuzz FuzzSessCodecRoundTrip -fuzztime 30s ./internal/sesscodec/
	$(GO) test -run FuzzJournalDecode -fuzz FuzzJournalDecode -fuzztime 15s ./internal/sesscodec/

bench:
	$(GO) test -bench=. -benchmem ./...

paperbench:
	$(GO) run ./cmd/paperbench

# Machine-readable compiled-artifact benchmark (cold vs cached language
# loads, lexer MB/s, table footprints). BENCH_parse.json in the repo is a
# committed reference run.
bench-json:
	$(GO) run ./cmd/paperbench -json BENCH_parse.json
