package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"

	incremental "iglr"
	"iglr/engine"
	"iglr/internal/corpus"
	"iglr/internal/langreg"
	"iglr/internal/lexer"
)

// The cold-corpus workload: lex and parse the (scaled) Table 1 corpus from
// a standing start. This is the throughput axis of the batch path — raw
// lexer MB/s, parse-stage MB/s (pre-lexed sessions, Parse() alone on the
// clock; the number the 50× lex/parse gap tracks), and end-to-end engine
// MB/s at the default file pool with allocation pressure per file. The two
// stage microbenchmarks take the best of several passes: a single pass is
// at the mercy of a GC cycle or a scheduler hiccup, and the committed
// numbers flapped run to run before the repeats took the minimum. It runs
// standalone under -corpus (the CI race smoke) and as the cold_corpus
// section of the -json artifact report. Its one parallel axis is the
// engine's file pool (GOMAXPROCS workers); -exp parallel sweeps that pool.

// ColdCorpusBench is the cold-corpus section of the benchmark report.
type ColdCorpusBench struct {
	Files      int     `json:"files"`
	Bytes      int64   `json:"bytes"`
	Scale      float64 `json:"scale"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	// Raw lexer throughput over the corpus, best of five passes.
	LexMBPerSec float64 `json:"lex_mb_per_sec"`
	// Parse-stage throughput: sessions built (lexed) off the clock, then
	// every file's cold Parse() timed together, best of three passes.
	ParseMBPerSec float64 `json:"parse_mb_per_sec"`
	// End-to-end engine throughput (lex + parse + commit) at the default
	// file pool.
	EngineMBPerSec float64 `json:"engine_mb_per_sec"`
	// Heap allocations per file during the end-to-end run.
	AllocsPerFile int64 `json:"allocs_per_file"`
}

func runColdCorpus(scale float64) (*ColdCorpusBench, error) {
	type group struct {
		lang   *incremental.Language
		spec   *lexer.Spec
		inputs []engine.Input
	}
	groups := map[string]*group{}
	for lang, name := range map[string]string{"c": "c-subset", "c++": "cpp-subset"} {
		e, ok := langreg.Find(name)
		if !ok {
			return nil, fmt.Errorf("cold corpus: %s not registered", name)
		}
		pub, ok := incremental.BundledLanguage(name)
		if !ok {
			return nil, fmt.Errorf("cold corpus: %s registered but not bundled", name)
		}
		groups[lang] = &group{lang: pub, spec: e.Lang().Spec}
	}

	bench := &ColdCorpusBench{Scale: scale, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	for _, spec := range corpus.Table1Specs() {
		spec.Lines = int(float64(spec.Lines) * scale)
		if spec.Lines < 100 {
			spec.Lines = 100
		}
		src, _ := corpus.Generate(spec)
		g := groups[spec.Lang]
		g.inputs = append(g.inputs, engine.Input{Name: spec.Name, Source: src})
		bench.Bytes += int64(len(src))
		bench.Files++
	}

	// Raw lex throughput: every corpus file through the batch scanner,
	// best wall time of five passes. An untimed warmup pass grows the
	// shared token buffer and faults the corpus in so rep 0 measures
	// the same work as the rest.
	runtime.GC() // settle corpus-generation debt
	var buf []lexer.Token
	for _, g := range groups {
		for _, in := range g.inputs {
			buf = g.spec.ScanInto(in.Source, buf[:0])
		}
	}
	best := time.Duration(0)
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		for _, g := range groups {
			for _, in := range g.inputs {
				buf = g.spec.ScanInto(in.Source, buf[:0])
			}
		}
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	if best > 0 {
		bench.LexMBPerSec = float64(bench.Bytes) / best.Seconds() / 1e6
	}

	// Parse stage alone: build every session (which lexes) off the
	// clock, then time the cold Parse() calls back to back, best of
	// three passes. Each rep builds fresh sessions so every timed parse
	// is cold; the GC runs between building and timing so the parses
	// don't pay down session-construction debt. A session is dropped as
	// soon as its parse finishes: this stage measures parse throughput,
	// not residency, and holding every finished tree live would tax
	// each file's parse with GC scans of its predecessors' trees (the
	// engine run below does keep its whole batch and pays that rent).
	best = 0
	for rep := 0; rep < 3; rep++ {
		var sessions []*incremental.Session
		for _, g := range groups {
			for _, in := range g.inputs {
				sessions = append(sessions, incremental.NewSession(g.lang, in.Source))
			}
		}
		runtime.GC()
		start := time.Now()
		for i, s := range sessions {
			if _, err := s.Parse(); err != nil {
				return nil, fmt.Errorf("cold corpus: parse stage: %w", err)
			}
			sessions[i] = nil
		}
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	if best > 0 {
		bench.ParseMBPerSec = float64(bench.Bytes) / best.Seconds() / 1e6
	}

	// End to end: the engine's batch path, allocation pressure included.
	// One pass — ParseAll dominates the wall clock and its variance is
	// low next to the stage microbenchmarks'.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for _, g := range groups {
		batch, err := engine.ParseAll(context.Background(), g.lang, g.inputs)
		if err != nil {
			return nil, err
		}
		if batch.Aggregate.Failed != 0 {
			return nil, fmt.Errorf("cold corpus: %d files failed", batch.Aggregate.Failed)
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	bench.EngineMBPerSec = float64(bench.Bytes) / wall.Seconds() / 1e6
	bench.AllocsPerFile = int64(after.Mallocs-before.Mallocs) / int64(bench.Files)

	return bench, nil
}

// runCorpusOnly is the -corpus entry point: the standalone workload the CI
// race smoke runs. The table goes to stdout; jsonPath (when set) gets the
// machine-readable report.
func runCorpusOnly(scale float64, jsonPath string) error {
	bench, err := runColdCorpus(scale)
	if err != nil {
		return err
	}
	fmt.Print(formatColdCorpus(bench))
	if jsonPath == "" {
		return nil
	}
	out, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(jsonPath, append(out, '\n'), 0o644)
}

func formatColdCorpus(b *ColdCorpusBench) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cold corpus: %d files, %.1f MB (Table 1 at %.0f%% scale), GOMAXPROCS=%d\n",
		b.Files, float64(b.Bytes)/1e6, 100*b.Scale, b.GOMAXPROCS)
	w := tabwriter.NewWriter(&sb, 0, 0, 2, ' ', 0)
	fmt.Fprintln(w, "lex MB/s\tparse MB/s\tengine MB/s\tallocs/file")
	fmt.Fprintf(w, "%.1f\t%.2f\t%.2f\t%d\n",
		b.LexMBPerSec, b.ParseMBPerSec, b.EngineMBPerSec, b.AllocsPerFile)
	w.Flush()
	return sb.String()
}
