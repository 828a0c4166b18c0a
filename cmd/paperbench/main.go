// Command paperbench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index and EXPERIMENTS.md for the
// paper-vs-measured record).
//
// Usage:
//
//	paperbench [-exp all|table1|figure4|figure7|section5|asymptotics|ablation|earley|staging|budget]
//	           [-scale 1.0] [-cpuprofile cpu.out] [-memprofile mem.out]
//
// -scale shrinks the Table 1 / Figure 4 program sizes for quick runs; it
// must be a positive finite number.
// -exp budget is the resource-governance sweep: a corpus salted with
// pathologically ambiguous files is driven through the engine under
// per-file budgets of decreasing strictness, reporting budget trips,
// degraded (pruned) completions, and failures at each level.
// -cpuprofile and -memprofile write pprof profiles covering the selected
// experiments (the memory profile is a heap snapshot taken after they
// finish), for inspecting the hot path outside the go test harness.
//
// An unknown -exp name, a -scale that is not a positive finite number, an
// undefined flag or any positional argument exits with status 2 and the
// usage text.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"text/tabwriter"
	"time"

	incremental "iglr"
	"iglr/engine"
	"iglr/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: "+strings.Join(experimentNames(), ", "))
	scale := flag.Float64("scale", 1.0, "scale factor for program sizes")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "paperbench: unexpected argument %q (name an experiment with -exp)\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	exps, err := selectExperiments(*exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if !(*scale > 0) || math.IsInf(*scale, 1) {
		fmt.Fprintf(os.Stderr, "paperbench: -scale %v: want a positive finite number\n", *scale)
		flag.Usage()
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
	{"staging", runStaging},
	{"budget", runBudget},
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
	fmt.Printf("batch (median of alternated parses): det %.0f ns/token, IGLR %.0f ns/token, ratio %.2f (paper: 12%% vs 15%% parse share ≈ 1.25x)\n",
		b.DetNsPerTok, b.IGLRNsPerTok, b.Ratio)
	fmt.Printf("parse share of lex+parse: det %.0f%%, IGLR %.0f%% (paper: 12%% / 15%% of full analysis)\n",
		100*b.DetShare, 100*b.IGLRShare)
	fmt.Printf("batch work: det %d shifts/%d reductions, IGLR %d/%d, %d splits\n",
		b.DetShifts, b.DetReductions, b.IGLRShifts, b.IGLRReductions, b.IGLRSplits)

	inc, err := experiments.RunSection5Incremental(int(8000*scale)+500, 40)
	if err != nil {
		return err
	}
	fmt.Printf("incremental (median of alternated reparses): det %.0f ns/reparse, IGLR %.0f ns/reparse, ratio %.2f (paper: undetectable difference)\n",
		inc.DetNsPerRe, inc.IGLRNsPerRe, inc.Ratio)
	fmt.Printf("IGLR work per reparse: %.1f shifts over %d statements\n",
		inc.IGLRShiftsPerRe, inc.Statements)
	fmt.Printf("incremental work over %d reparses: det %d shifts/%d reductions, IGLR %d/%d, max %d active parsers\n",
		inc.Edits, inc.DetShifts, inc.DetReductions, inc.IGLRShifts, inc.IGLRReductions, inc.IGLRMaxActiveParsers)

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
	fmt.Printf("ambiguity carry cost (median of alternated reparses): plain %.0f ns/reparse, with %d ambiguous regions %.0f ns/reparse → %.2f%% time overhead (paper: well under 1%%)\n",
		amb.PlainNsPerRe, amb.Ambiguous, amb.AmbNsPerRe, amb.OverheadPct)
	fmt.Printf("  per-pair difference, ambiguous − plain: median %.0f ns, quartiles %.0f / %.0f ns\n",
		amb.DiffNs[1], amb.DiffNs[0], amb.DiffNs[2])
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
