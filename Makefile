GO ?= go

.PHONY: all build test race vet bench-module check fuzz-smoke bench paperbench

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
# re-encode canonically; resealed inputs, whose mutations get past the
# checksum, must never panic and must re-encode to a fixed point), the
# error-isolation convergence contract
# (isolation preserves text; repairing converges to the batch parse),
# the session-snapshot codec plus its write-ahead journal framing
# (arbitrary bytes never panic; accepted snapshots re-encode canonically
# and restore coherently), restored sessions against the live ones they
# were snapshotted from, the document's incremental relex against a batch scan
# over random edit scripts on a source spanning many token runs,
# sequence-edit scripts over every bundled language against a cold parse
# (balanced sequences, §3.4), and the reads that locate nodes from the
# tree (NodeSpan, Subtree, the error walk) against the token scan.
fuzz-smoke:
	$(GO) test -run FuzzParseOracle -fuzz FuzzParseOracle -fuzztime 30s ./internal/earley/
	$(GO) test -run FuzzLangCodecRoundTrip -fuzz FuzzLangCodecRoundTrip -fuzztime 30s ./internal/langcodec/
	$(GO) test -run FuzzLangCodecResealed -fuzz FuzzLangCodecResealed -fuzztime 30s ./internal/langcodec/
	$(GO) test -run FuzzErrorIsolationConverges -fuzz FuzzErrorIsolationConverges -fuzztime 30s .
	$(GO) test -run FuzzSessCodecRoundTrip -fuzz FuzzSessCodecRoundTrip -fuzztime 30s ./internal/sesscodec/
	$(GO) test -run FuzzJournalDecode -fuzz FuzzJournalDecode -fuzztime 15s ./internal/sesscodec/
	$(GO) test -run FuzzRestoreEqualsLive -fuzz FuzzRestoreEqualsLive -fuzztime 30s .
	$(GO) test -run FuzzRelexMatchesScan -fuzz FuzzRelexMatchesScan -fuzztime 30s .
	$(GO) test -run FuzzSequenceEditsEqualBatch -fuzz FuzzSequenceEditsEqualBatch -fuzztime 30s .
	$(GO) test -run FuzzReadsEqualScan -fuzz FuzzReadsEqualScan -fuzztime 30s .

bench:
	$(GO) test -bench=. -benchmem ./...

paperbench:
	$(GO) run ./cmd/paperbench
