package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	incremental "iglr"
	"iglr/internal/corpus"
)

// testCorpus generates n small C files with ambiguous constructs.
func testCorpus(n, lines int) ([]Input, int) {
	inputs := make([]Input, n)
	totalAmb := 0
	for i := range inputs {
		src, amb := corpus.Generate(corpus.Spec{
			Name: fmt.Sprintf("file%d", i), Lines: lines, Lang: "c",
			AmbiguousPerKLoC: 20, Seed: int64(i + 1),
		})
		inputs[i] = Input{Name: fmt.Sprintf("file%d.c", i), Source: src}
		totalAmb += amb
	}
	return inputs, totalAmb
}

func TestParseAllOverSharedLanguage(t *testing.T) {
	inputs, _ := testCorpus(12, 120)
	lang := incremental.CSubset()
	b, err := ParseAll(context.Background(), lang, inputs, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if b.Aggregate.Files != 12 || b.Aggregate.Failed != 0 {
		t.Fatalf("aggregate = %+v", b.Aggregate)
	}
	for i, r := range b.Results {
		if r.Index != i || r.Name != inputs[i].Name {
			t.Fatalf("result %d out of order: %+v", i, r)
		}
		if r.Err != nil || r.Root == nil {
			t.Fatalf("file %s failed: %v", r.Name, r.Err)
		}
		if r.Stats.TerminalShifts == 0 {
			t.Fatalf("file %s has no parse stats", r.Name)
		}
	}
	if b.Aggregate.Stats.TerminalShifts == 0 || b.Aggregate.Bytes == 0 {
		t.Fatalf("aggregate not summed: %+v", b.Aggregate)
	}
}

func TestAnalyzeAllResolvesAndMeasures(t *testing.T) {
	inputs, totalAmb := testCorpus(8, 150)
	lang := incremental.CSubset()
	b, err := AnalyzeAll(context.Background(), lang, inputs, WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	if b.Aggregate.Failed != 0 {
		t.Fatalf("aggregate = %+v", b.Aggregate)
	}
	if b.Aggregate.Semantics.ResolvedDecl != totalAmb {
		t.Fatalf("resolved %d of %d ambiguous constructs", b.Aggregate.Semantics.ResolvedDecl, totalAmb)
	}
	// Resolution marks the losing interpretations, so the regions no longer
	// count as ambiguous — but their choice nodes remain in the dag.
	if b.Aggregate.Dag.DagNodes == 0 || b.Aggregate.Dag.ChoiceNodes == 0 {
		t.Fatalf("dag stats not aggregated: %+v", b.Aggregate.Dag)
	}
}

// TestPerFileErrorIsolation: a file with a syntax error fails alone; the
// rest of the batch completes.
func TestPerFileErrorIsolation(t *testing.T) {
	inputs, _ := testCorpus(6, 80)
	inputs[3] = Input{Name: "broken.c", Source: "int a; !!! int b;"}
	lang := incremental.CSubset()
	b, err := ParseAll(context.Background(), lang, inputs, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if b.Aggregate.Failed != 1 {
		t.Fatalf("failed = %d, want 1", b.Aggregate.Failed)
	}
	var pe *incremental.ParseError
	if !errors.As(b.Results[3].Err, &pe) {
		t.Fatalf("broken.c error = %v, want *ParseError", b.Results[3].Err)
	}
	for i, r := range b.Results {
		if i != 3 && (r.Err != nil || r.Root == nil) {
			t.Fatalf("healthy file %s failed: %v", r.Name, r.Err)
		}
	}
}

// TestPanicIsolation: a panicking semantic hook poisons only its own file.
func TestPanicIsolation(t *testing.T) {
	lang, err := incremental.DefineLanguage(incremental.LanguageDef{
		Name:    "panicky",
		Grammar: "%token x ';'\n%start L\nL : Item* ;\nItem : x ';' ;",
		Lexer: []incremental.LexRule{
			{Name: "WS", Pattern: `[ \t\n]+`, Skip: true},
			{Name: "X", Pattern: `x`},
			{Name: "SEMI", Pattern: `;`},
		},
		TokenSyms: map[string]string{"X": "x", "SEMI": "';'"},
	})
	if err != nil {
		t.Fatal(err)
	}
	lang = lang.WithSemantics(incremental.SemanticsConfig{
		IsScope: func(n *incremental.Node) bool {
			if strings.Contains(n.Yield(), "x;x;x;") {
				panic("hook exploded")
			}
			return false
		},
		TypedefName:          func(n *incremental.Node) (string, bool) { return "", false },
		DeclaredName:         func(n *incremental.Node) (string, bool) { return "", false },
		IsDeclInterpretation: func(n *incremental.Node) bool { return false },
	})
	inputs := []Input{
		{Name: "ok1", Source: "x; x;"},
		{Name: "boom", Source: "x; x; x;"},
		{Name: "ok2", Source: "x;"},
	}
	b, err := AnalyzeAll(context.Background(), lang, inputs, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	var pe *PanicError
	if !errors.As(b.Results[1].Err, &pe) {
		t.Fatalf("boom error = %v, want *PanicError", b.Results[1].Err)
	}
	if pe.Value != "hook exploded" || len(pe.Stack) == 0 {
		t.Fatalf("panic not captured: %+v", pe)
	}
	if b.Results[0].Err != nil || b.Results[2].Err != nil {
		t.Fatalf("healthy files failed: %v %v", b.Results[0].Err, b.Results[2].Err)
	}
	if b.Aggregate.Failed != 1 {
		t.Fatalf("failed = %d, want 1", b.Aggregate.Failed)
	}
}

// TestCancellationStopsBatchWithoutLeaks: cancelling mid-batch returns the
// context error, marks unprocessed inputs, and leaves no goroutines.
func TestCancellationStopsBatchWithoutLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	inputs, _ := testCorpus(16, 4000)
	lang := incremental.CSubset()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	b, err := ParseAll(ctx, lang, inputs, WithWorkers(4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch err = %v, want context.Canceled", err)
	}
	if b == nil || len(b.Results) != len(inputs) {
		t.Fatal("cancelled batch must still return all result slots")
	}
	cancelled := 0
	for _, r := range b.Results {
		if errors.Is(r.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatal("no input observed the cancellation — batch ran to completion too fast to test")
	}

	// Workers exit promptly; allow the runtime a moment to reap them.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, n)
	}
}

func TestEmptyBatch(t *testing.T) {
	b, err := ParseAll(context.Background(), incremental.CSubset(), nil)
	if err != nil || len(b.Results) != 0 || b.Aggregate.Files != 0 {
		t.Fatalf("empty batch: %+v err=%v", b, err)
	}
}

// TestTolerantPolicyKeepsBrokenFiles: under Policy.Tolerant a syntactically
// broken file still yields a Root — the damage quarantined under error
// nodes and reported as Diagnostics — while healthy files are untouched;
// a file no region can bound yields one error node over all of it.
func TestTolerantPolicyKeepsBrokenFiles(t *testing.T) {
	inputs := []Input{
		{Name: "ok1.c", Source: "int a; a = 1;"},
		{Name: "broken.c", Source: "int a; int (; int b;"},
		{Name: "ok2.c", Source: "int z;"},
		{Name: "garbage.c", Source: ") ) ) )"},
	}
	lang := incremental.CSubset()
	b, err := AnalyzeAll(context.Background(), lang, inputs,
		WithWorkers(2), WithPolicy(Policy{Tolerant: true}))
	if err != nil {
		t.Fatal(err)
	}
	if b.Aggregate.Failed != 0 {
		t.Fatalf("tolerant batch reported failures: %+v", b.Aggregate)
	}
	for _, r := range b.Results {
		if r.Err != nil || r.Root == nil {
			t.Fatalf("file %s: err=%v root=%v", r.Name, r.Err, r.Root)
		}
	}
	if n := len(b.Results[1].Diagnostics); n < 1 {
		t.Fatalf("broken.c diagnostics = %d, want >= 1", n)
	}
	if len(b.Results[0].Diagnostics) != 0 || len(b.Results[2].Diagnostics) != 0 {
		t.Fatal("healthy files must not carry diagnostics")
	}
	if g := b.Results[3]; len(g.Diagnostics) != 1 || g.Diagnostics[0].Length != len(inputs[3].Source) {
		t.Fatalf("garbage.c diagnostics = %v, want one over the whole file", g.Diagnostics)
	}
	if b.Aggregate.FilesWithDiagnostics != 2 || b.Aggregate.Diagnostics < 2 {
		t.Fatalf("aggregate diagnostics: %+v", b.Aggregate)
	}
	if b.Aggregate.Dag.ErrorNodes < 1 {
		t.Fatalf("aggregate error nodes = %d", b.Aggregate.Dag.ErrorNodes)
	}
}
