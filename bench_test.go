// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (see DESIGN.md's experiment index). Custom metrics carry the
// paper's observables; cmd/paperbench prints the same experiments as
// human-readable tables at full scale.
package incremental_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	incremental "iglr"
	"iglr/engine"
	"iglr/internal/corpus"
	"iglr/internal/experiments"
)

// BenchmarkTable1SpaceOverhead — paper Table 1: space overhead of explicit
// ambiguity per program (measured over the synthetic corpus at 10% of the
// paper's line counts per iteration; run cmd/paperbench for full scale).
func BenchmarkTable1SpaceOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(0.10)
		if err != nil {
			b.Fatal(err)
		}
		var sum, maxPct float64
		for _, r := range rows {
			sum += r.MeasuredPct
			if r.MeasuredPct > maxPct {
				maxPct = r.MeasuredPct
			}
		}
		b.ReportMetric(sum/float64(len(rows)), "mean-%ov")
		b.ReportMetric(maxPct, "max-%ov")
	}
}

// BenchmarkFigure4Histogram — paper Figure 4: distribution of per-file
// ambiguity overhead for a gcc-like corpus.
func BenchmarkFigure4Histogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure4(40, 600)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanPct, "mean-%ov")
		b.ReportMetric(float64(res.Bins[0].Files), "files-in-lowest-bin")
	}
}

// BenchmarkFigure7 — paper Figures 5/7: dynamic lookahead via GLR forking
// on the LR(2) grammar.
func BenchmarkFigure7(b *testing.B) {
	lang := incremental.LR2Language()
	for i := 0; i < b.N; i++ {
		s := incremental.NewSession(lang, "x z c")
		out := s.Do(nil)
		if out.Err != nil {
			b.Fatal(out.Err)
		}
		if incremental.CountParses(out.Root) != 1 {
			b.Fatal("figure 7 grammar must be unambiguous")
		}
		b.ReportMetric(float64(s.Stats().MaxActiveParsers), "max-parsers")
	}
}

// BenchmarkSection5BatchOverhead — §5: batch parse cost, deterministic
// state-matching parser vs IGLR (paper: 12% vs 15% parse-time share,
// ≈1.25× on the parser itself).
func BenchmarkSection5BatchOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunSection5Batch(5000, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Ratio, "iglr/det-ratio")
		b.ReportMetric(r.IGLRNsPerTok, "iglr-ns/token")
		b.ReportMetric(r.DetNsPerTok, "det-ns/token")
	}
}

// BenchmarkSection5Incremental — §5: self-cancelling token edits; the
// paper found the difference between the parsers undetectable.
func BenchmarkSection5Incremental(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunSection5Incremental(4000, 25)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Ratio, "iglr/det-ratio")
		b.ReportMetric(r.IGLRNsPerRe, "iglr-ns/reparse")
		b.ReportMetric(r.IGLRShiftsPerRe, "shifts/reparse")
	}
}

// BenchmarkSection5SpaceOverhead — §5: the extra word per node for parse
// states (paper: ≈5% over sentential-form nodes) and node-count parity.
func BenchmarkSection5SpaceOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunSection5Space(2000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.StatePct, "state-field-%")
		b.ReportMetric(r.NodeCountRatio, "node-parity")
	}
}

// BenchmarkSection5AmbiguousReconstruction — §5: carrying ambiguous
// regions costs well under 1% additional reconstruction time.
func BenchmarkSection5AmbiguousReconstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunSection5Ambiguity(8000, 20)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.OverheadPct, "overhead-%")
	}
}

// BenchmarkSection34Asymptotics — §3.4: list-shaped sequences degrade
// incremental reparsing to linear; balanced sequences restore O(lg N).
func BenchmarkSection34Asymptotics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunAsymptotics([]int{1000, 4000, 16000}, 4)
		if err != nil {
			b.Fatal(err)
		}
		first, last := pts[0], pts[len(pts)-1]
		b.ReportMetric(last.ListNsPerEdit/first.ListNsPerEdit, "list-growth")
		b.ReportMetric(last.BalancedNsPerEdit/first.BalancedNsPerEdit, "balanced-growth")
		b.ReportMetric(float64(last.BalancedDepth), "balanced-depth")
	}
}

// BenchmarkSection41FilterStaging — §4.1: static filters vs dynamic-only
// filtering (quadratic retained structure per expression).
func BenchmarkSection41FilterStaging(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunFilterStaging([]int{8, 32}, 2)
		if err != nil {
			b.Fatal(err)
		}
		small, big := pts[0], pts[1]
		b.ReportMetric(float64(big.DynamicNodes)/float64(small.DynamicNodes), "dynamic-node-growth")
		b.ReportMetric(float64(big.StaticNodes)/float64(small.StaticNodes), "static-node-growth")
	}
}

// BenchmarkSection33TableAblation — LALR vs canonical LR(1) as the IGLR
// driver (the paper's §3.3 design choice).
func BenchmarkSection33TableAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunAblation(1500, 8)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.LR1Cells)/float64(r.LALRCells), "lr1/lalr-table-size")
		b.ReportMetric(float64(r.LR1Bytes)/float64(r.LALRBytes), "lr1/lalr-bytes")
		b.ReportMetric(r.LALRIncShifts, "lalr-shifts/reparse")
		b.ReportMetric(r.LR1IncShifts, "lr1-shifts/reparse")
	}
}

// BenchmarkFootnote4EarleyComparison — GLR vs Earley on a deterministic
// grammar (the comparison the paper cites to justify GLR's practicality).
func BenchmarkFootnote4EarleyComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunEarleyComparison([]int{500, 2000})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[len(pts)-1].Speedup, "earley/glr-speedup")
	}
}

// BenchmarkBatchParseThroughput measures raw GLR parse throughput on the
// generated C corpus (tokens/op is reported for context).
func BenchmarkBatchParseThroughput(b *testing.B) {
	spec := corpus.Spec{Name: "bench", Lines: 5000, Lang: "c", AmbiguousPerKLoC: 5, Seed: 3}
	src, _ := corpus.Generate(spec)
	lang := incremental.CSubset()
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := incremental.NewSession(lang, src)
		if out := s.Do(nil); out.Err != nil {
			b.Fatal(out.Err)
		}
	}
}

// BenchmarkIncrementalReparse measures one incremental reparse after a
// single-token edit in a mid-sized program.
func BenchmarkIncrementalReparse(b *testing.B) {
	spec := corpus.Spec{Name: "bench", Lines: 5000, Lang: "c", AmbiguousPerKLoC: 5, Seed: 3}
	src, _ := corpus.Generate(spec)
	lang := incremental.CSubset()
	s := incremental.NewSession(lang, src)
	if out := s.Do(nil); out.Err != nil {
		b.Fatal(out.Err)
	}
	off := strings.Index(src, "v7 =")
	if off < 0 {
		b.Fatal("edit site not found")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Edit(off, 2, "vq")
		if out := s.Do(nil); out.Err != nil {
			b.Fatal(out.Err)
		}
		s.Edit(off, 2, "v7")
		if out := s.Do(nil); out.Err != nil {
			b.Fatal(out.Err)
		}
	}
}

// BenchmarkSemanticResolution measures the Figure 8 semantic pass over a
// program with many typedef ambiguities.
func BenchmarkSemanticResolution(b *testing.B) {
	spec := corpus.Spec{Name: "bench", Lines: 3000, Lang: "c", AmbiguousPerKLoC: 30, Seed: 5}
	src, nAmb := corpus.Generate(spec)
	lang := incremental.CSubset()
	s := incremental.NewSession(lang, src)
	if out := s.Do(nil); out.Err != nil {
		b.Fatal(out.Err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := s.Resolve()
		if res.ResolvedDecl != nAmb {
			b.Fatalf("resolved %d of %d", res.ResolvedDecl, nAmb)
		}
	}
}

// BenchmarkParallelCorpus sweeps the engine's worker count over a scaled
// Table 1 corpus parsed against one shared language — the multi-core axis
// the paper's single-stream §5 numbers leave open. bytes/op (via SetBytes)
// turns into MB/s per worker count; files-failed must stay 0.
func BenchmarkParallelCorpus(b *testing.B) {
	var inputs []engine.Input
	var total int64
	for i, spec := range corpus.Table1Specs() {
		spec.Lang = "c" // one shared language drives the whole batch
		spec.Lines = spec.Lines / 50
		if spec.Lines < 100 {
			spec.Lines = 100
		}
		src, _ := corpus.Generate(spec)
		inputs = append(inputs, engine.Input{Name: fmt.Sprintf("%s-%d", spec.Name, i), Source: src})
		total += int64(len(src))
	}
	lang := incremental.CSubset()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(total)
			for i := 0; i < b.N; i++ {
				batch, err := engine.ParseAll(context.Background(), lang, inputs, engine.WithWorkers(workers))
				if err != nil {
					b.Fatal(err)
				}
				if batch.Aggregate.Failed != 0 {
					b.Fatalf("%d files failed", batch.Aggregate.Failed)
				}
			}
		})
	}
}

// BenchmarkSessionRestore measures the durability path on one 2,000-line
// generated C file: Snapshot of a parsed session, RestoreSession from its
// bytes, and the cold NewSession+Do that a restore replaces. restore/cold
// is the restore time as a fraction of the cold parse.
func BenchmarkSessionRestore(b *testing.B) {
	src, _ := corpus.Generate(corpus.Spec{Name: "restore", Lines: 2000, Lang: "c", Seed: 1})
	lang := incremental.CSubset()
	s := incremental.NewSession(lang, src)
	if out := s.Do(nil); out.Err != nil {
		b.Fatal(out.Err)
	}
	var snap bytes.Buffer
	if err := s.Snapshot(&snap); err != nil {
		b.Fatal(err)
	}
	var snapshot, restore, cold time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if err := s.Snapshot(io.Discard); err != nil {
			b.Fatal(err)
		}
		snapped := time.Now()
		if _, err := incremental.RestoreSession(bytes.NewReader(snap.Bytes()), lang); err != nil {
			b.Fatal(err)
		}
		restored := time.Now()
		if out := incremental.NewSession(lang, src).Do(nil); out.Err != nil {
			b.Fatal(out.Err)
		}
		snapshot += snapped.Sub(start)
		restore += restored.Sub(snapped)
		cold += time.Since(restored)
	}
	n := float64(b.N)
	b.ReportMetric(float64(snapshot.Nanoseconds())/n, "snapshot-ns/op")
	b.ReportMetric(float64(restore.Nanoseconds())/n, "restore-ns/op")
	b.ReportMetric(float64(cold.Nanoseconds())/n, "cold-ns/op")
	b.ReportMetric(float64(restore)/float64(cold), "restore/cold")
	b.ReportMetric(float64(snap.Len()), "snapshot-bytes")
}

var sinkStr string

// BenchmarkLexThroughput measures the incremental lexer's batch scan rate.
func BenchmarkLexThroughput(b *testing.B) {
	spec := corpus.Spec{Name: "bench", Lines: 10000, Lang: "c", AmbiguousPerKLoC: 0, Seed: 6}
	src, _ := corpus.Generate(spec)
	lang := incremental.CSubset()
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := incremental.NewSession(lang, src)
		sinkStr = fmt.Sprint(s.LexErrors())
	}
}
