// Command paperbench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index and EXPERIMENTS.md for the
// paper-vs-measured record).
//
// Usage:
//
//	paperbench [-exp all|table1|figure4|figure7|section5|asymptotics|ablation|earley|parallel|staging] [-scale 1.0]
//	           [-budget] [-json out.json] [-cpuprofile cpu.out] [-memprofile mem.out]
//
// -scale shrinks the Table 1 / Figure 4 program sizes for quick runs.
// -budget runs the resource-governance sweep instead: a corpus salted
// with pathologically ambiguous files is driven through the engine under
// per-file budgets of decreasing strictness, reporting budget trips,
// degraded (pruned) completions, and failures at each level.
// -json runs the compiled-artifact benchmark suite instead — per bundled
// language: cold build vs artifact decode vs disk-hit load times, parse
// ns/op and allocs/op, lexer MB/s, and table/DFA footprints — and writes
// the machine-readable report to the given file (see BENCH_parse.json for
// a committed reference run).
// -cpuprofile and -memprofile write pprof profiles covering the selected
// experiments (the memory profile is a heap snapshot taken after they
// finish), for inspecting the hot path outside the go test harness.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"text/tabwriter"
	"time"

	incremental "iglr"
	"iglr/engine"
	"iglr/internal/corpus"
	"iglr/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: "+strings.Join(experimentNames(), ", "))
	scale := flag.Float64("scale", 1.0, "scale factor for program sizes")
	budget := flag.Bool("budget", false, "run the resource-budget sweep (trips/degradations under per-file policies)")
	jsonOut := flag.String("json", "", "write the compiled-artifact benchmark suite (cold vs cached language loads, lexer MB/s, table footprints) as JSON to this file and exit")
	corpusOnly := flag.Bool("corpus", false, "run only the cold-corpus throughput workload (lex, parse-stage, and end-to-end MB/s) and exit; with -json, write its report there")
	corpusScale := flag.Float64("corpus-scale", 0.05, "fraction of Table 1 line counts for the cold-corpus workload")
	overloadOnly := flag.Bool("overload", false, "run only the overload/backpressure workload (shed rate, queue-wait percentiles, accepted throughput against an undersized daemon) and exit; with -json, write its report there")
	overloadWorkers := flag.Int("overload-workers", 16, "concurrent clients for the -overload workload")
	overloadRounds := flag.Int("overload-rounds", 6, "create/edit/read/close rounds per client for the -overload workload")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	exps, err := selectExperiments(*exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "paperbench: -memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "paperbench: -memprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	if *corpusOnly {
		if err := runCorpusOnly(*corpusScale, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: -corpus: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *overloadOnly {
		if err := runOverloadOnly(*overloadWorkers, *overloadRounds, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: -overload: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *jsonOut != "" {
		if err := runArtifactBench(*jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: -json: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *budget {
		if err := runBudget(*scale); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: -budget: %v\n", err)
			os.Exit(1)
		}
		return
	}

	for _, e := range exps {
		fmt.Printf("==== %s ====\n", e.name)
		if err := e.run(*scale); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

// experiment is one -exp entry: its name and the runner that prints it.
type experiment struct {
	name string
	run  func(scale float64) error
}

// experimentTable lists every -exp name in the order -exp all runs them.
// The dispatcher, the name check and the flag's help text all read it.
var experimentTable = []experiment{
	{"table1", runTable1},
	{"figure4", runFigure4},
	{"figure7", runFigure7},
	{"section5", runSection5},
	{"asymptotics", runAsymptotics},
	{"ablation", runAblation},
	{"earley", runEarley},
	{"parallel", runParallel},
	{"staging", runStaging},
}

// experimentNames is every valid -exp value: "all", then the table's names.
func experimentNames() []string {
	names := []string{"all"}
	for _, e := range experimentTable {
		names = append(names, e.name)
	}
	return names
}

// selectExperiments resolves an -exp value to the experiments it runs; an
// unknown name is an error listing the valid ones.
func selectExperiments(name string) ([]experiment, error) {
	if name == "all" {
		return experimentTable, nil
	}
	for _, e := range experimentTable {
		if e.name == name {
			return []experiment{e}, nil
		}
	}
	return nil, fmt.Errorf("unknown -exp %q (valid: %s)", name, strings.Join(experimentNames(), ", "))
}

func runTable1(scale float64) error {
	rows, err := experiments.Table1(scale)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatTable1(rows))
	var sum float64
	for _, r := range rows {
		sum += r.MeasuredPct
	}
	fmt.Printf("mean measured overhead: %.3f%% (paper: all rows ≤ 0.52%%, ~0.5%% headline)\n",
		sum/float64(len(rows)))
	return nil
}

func runFigure4(scale float64) error {
	res, err := experiments.Figure4(int(120*scale)+10, 900)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatFigure4(res))
	return nil
}

func runFigure7(float64) error {
	r, err := experiments.RunFigure7()
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatFigure7(r))
	return nil
}

func runSection5(scale float64) error {
	b, err := experiments.RunSection5Batch(int(20000*scale)+500, 5)
	if err != nil {
		return err
	}
	fmt.Printf("batch: det %.0f ns/token, IGLR %.0f ns/token, ratio %.2f (paper: 12%% vs 15%% parse share ≈ 1.25x)\n",
		b.DetNsPerTok, b.IGLRNsPerTok, b.Ratio)
	fmt.Printf("parse share of lex+parse: det %.0f%%, IGLR %.0f%% (paper: 12%% / 15%% of full analysis)\n",
		100*b.DetShare, 100*b.IGLRShare)
	fmt.Printf("batch work: det %d shifts/%d reductions, IGLR %d/%d, %d splits\n",
		b.DetShifts, b.DetReductions, b.IGLRShifts, b.IGLRReductions, b.IGLRSplits)

	inc, err := experiments.RunSection5Incremental(int(8000*scale)+500, 40)
	if err != nil {
		return err
	}
	fmt.Printf("incremental: det %.0f ns/reparse, IGLR %.0f ns/reparse, ratio %.2f (paper: undetectable difference)\n",
		inc.DetNsPerRe, inc.IGLRNsPerRe, inc.Ratio)
	fmt.Printf("IGLR work per reparse: %.1f shifts over %d statements\n",
		inc.IGLRShiftsPerRe, inc.Statements)

	sp, err := experiments.RunSection5Space(2000)
	if err != nil {
		return err
	}
	fmt.Printf("space: node %dB, state field %dB = %.1f%% of node (paper: ~5%% over sentential-form nodes); node-count parity %.3f\n",
		sp.NodeBytes, sp.StateBytes, sp.StatePct, sp.NodeCountRatio)

	amb, err := experiments.RunSection5Ambiguity(int(12000*scale)+1000, 30)
	if err != nil {
		return err
	}
	fmt.Printf("ambiguity carry cost: plain %.0f ns/reparse, with %d ambiguous regions %.0f ns/reparse → %.2f%% time overhead (paper: well under 1%%)\n",
		amb.PlainNsPerRe, amb.Ambiguous, amb.AmbNsPerRe, amb.OverheadPct)
	fmt.Printf("  parser work per reparse: plain %.1f, ambiguous %.1f → %.2f%% work overhead\n",
		amb.PlainWorkPerRe, amb.AmbWorkPerRe, amb.WorkOverheadPct)
	return nil
}

func runAsymptotics(scale float64) error {
	sizes := []int{1000, 4000, 16000, 64000}
	if scale < 0.5 {
		sizes = []int{500, 2000, 8000}
	}
	pts, err := experiments.RunAsymptotics(sizes, 8)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatAsymptotics(pts))
	fmt.Println("paper §3.4: list-shaped sequences degrade incremental parsing to linear;")
	fmt.Println("balanced sequences restore O(t + s·lg N) (depth column grows logarithmically).")
	return nil
}

func runAblation(scale float64) error {
	r, err := experiments.RunAblation(int(4000*scale)+500, 12)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatAblation(r))
	fmt.Println("paper §3.3: LALR tables are significantly smaller than LR(1) and merge")
	fmt.Println("like-cored states, which improves incremental reuse; speeds are comparable.")
	return nil
}

func runEarley(float64) error {
	pts, err := experiments.RunEarleyComparison([]int{500, 2000, 8000})
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatEarleyComparison(pts))
	fmt.Println("paper footnote 4 (Tomita/Rekers): programming-language grammars are near-LR(1),")
	fmt.Println("so GLR parses in linear time while Earley pays its general-case overhead.")
	return nil
}

func runStaging(float64) error {
	pts, err := experiments.RunFilterStaging([]int{4, 8, 16, 32, 64}, 3)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatFilterStaging(pts))
	fmt.Println("paper §4.1: static filters keep expressions deterministic (linear nodes);")
	fmt.Println("dynamic-only filtering pays quadratic space per expression before filtering.")
	return nil
}

// runBudget drives a corpus salted with pathologically ambiguous files
// through the engine under per-file budgets of decreasing strictness. Each
// row reports how the fleet fared: outright failures, files completed at
// reduced fidelity by the degraded retry (ambiguity pruned to the
// statically preferred reading), and the number of budget trips absorbed.
func runBudget(scale float64) error {
	lang := incremental.AmbiguousExprLanguage()

	// Healthy files: short expressions. Hostile files: long undisambiguated
	// operator chains whose forests grow like Catalan numbers.
	var inputs []engine.Input
	healthy, hostile := 24, 8
	if scale < 1 {
		healthy, hostile = 12, 4
	}
	for i := 0; i < healthy; i++ {
		inputs = append(inputs, engine.Input{
			Name: fmt.Sprintf("ok%d.expr", i), Source: mkExpr(6 + i%4),
		})
	}
	for i := 0; i < hostile; i++ {
		inputs = append(inputs, engine.Input{
			Name: fmt.Sprintf("hostile%d.expr", i), Source: mkExpr(40 + 10*i),
		})
	}

	degraded := incremental.Budget{MaxAlternatives: 2}
	w := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(w, "gss-link budget\tfailed\tdegraded\ttrips\twall")
	for _, links := range []int{64, 256, 1024, 8192, 0} {
		batch, err := engine.ParseAll(context.Background(), lang, inputs,
			engine.WithPolicy(engine.Policy{
				Budget:         incremental.Budget{MaxGSSLinks: links},
				Retries:        1,
				DegradedBudget: &degraded,
			}))
		if err != nil {
			return err
		}
		a := batch.Aggregate
		limit := "unlimited"
		if links > 0 {
			limit = fmt.Sprint(links)
		}
		fmt.Fprintf(w, "%s\t%d/%d\t%d\t%d\t%v\n",
			limit, a.Failed, a.Files, a.Degraded, a.BudgetTrips, a.Wall.Round(time.Millisecond))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println("degraded files completed under MaxAlternatives=2 after the strict-budget attempt tripped;")
	fmt.Println("their dags are marked BudgetPruned where the forest was cut (see DESIGN.md, failure model).")
	return nil
}

// mkExpr builds an n-term expression over cycling operators with no
// precedence information — every operator is a fork for the raw grammar.
func mkExpr(n int) string {
	ops := []byte{'+', '*', '-', '/'}
	buf := make([]byte, 0, 2*n)
	for i := 0; i < n; i++ {
		if i > 0 {
			buf = append(buf, ops[i%len(ops)])
		}
		buf = append(buf, byte('1'+i%9))
	}
	return string(buf)
}

// runParallel sweeps the engine's worker count over the (scaled) Table 1
// corpus: C rows drive the shared C-subset language, C++ rows the shared
// C++-subset language, in one batch each per worker count. The paper's §5
// numbers are single-stream; this is the multi-core axis on top of them.
func runParallel(scale float64) error {
	type group struct {
		lang   *incremental.Language
		inputs []engine.Input
	}
	groups := map[string]*group{
		"c":   {lang: incremental.CSubset()},
		"c++": {lang: incremental.CPPSubset()},
	}
	var totalBytes int64
	files := 0
	for _, spec := range corpus.Table1Specs() {
		spec.Lines = int(float64(spec.Lines) * scale / 20)
		if spec.Lines < 100 {
			spec.Lines = 100
		}
		src, _ := corpus.Generate(spec)
		g := groups[spec.Lang]
		g.inputs = append(g.inputs, engine.Input{Name: spec.Name, Source: src})
		totalBytes += int64(len(src))
		files++
	}
	fmt.Printf("corpus: %d files, %.1f MB (Table 1 line counts at %.1f%%); GOMAXPROCS=%d\n",
		files, float64(totalBytes)/1e6, 100*scale/20, runtime.GOMAXPROCS(0))

	sweep := []int{1, 2, 4, 8}
	for w := 16; w <= 2*runtime.NumCPU(); w *= 2 {
		sweep = append(sweep, w)
	}
	w := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(w, "workers\twall\tMB/s\tspeedup\tfiles/s")
	var base float64
	for _, workers := range sweep {
		start := time.Now()
		for _, g := range groups {
			batch, err := engine.ParseAll(context.Background(), g.lang, g.inputs, engine.WithWorkers(workers))
			if err != nil {
				return err
			}
			if batch.Aggregate.Failed != 0 {
				return fmt.Errorf("%d files failed", batch.Aggregate.Failed)
			}
		}
		wall := time.Since(start)
		mbs := float64(totalBytes) / 1e6 / wall.Seconds()
		if base == 0 {
			base = wall.Seconds()
		}
		fmt.Fprintf(w, "%d\t%v\t%.2f\t%.2fx\t%.1f\n",
			workers, wall.Round(time.Millisecond), mbs, base/wall.Seconds(), float64(files)/wall.Seconds())
	}
	return w.Flush()
}
