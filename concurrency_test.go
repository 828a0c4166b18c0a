package incremental_test

// Concurrency contract tests (run with -race): one compiled *Language is
// shared by many Sessions on different goroutines; Sessions themselves are
// single-goroutine. Plus the context-aware parse path and concurrent
// language definition.

import (
	"context"
	"errors"
	"os"
	"strings"
	"sync"
	"testing"

	incremental "iglr"
	"iglr/internal/corpus"
)

// sharedLangCases lists every bundled language with a source that parses
// and an edit that keeps it parsing.
func sharedLangCases() []struct {
	name   string
	lang   *incremental.Language
	src    string
	oldTxt string
	newTxt string
} {
	return []struct {
		name   string
		lang   *incremental.Language
		src    string
		oldTxt string
		newTxt string
	}{
		{"expr", incremental.ExprLanguage(), "1 + 2 * x", "2", "9"},
		{"ambig-expr", incremental.AmbiguousExprLanguage(), "a+b*c", "b", "d"},
		{"csub", incremental.CSubset(), "typedef int t; t(a); int b; b = b + 1;", "1", "2"},
		{"cppsub", incremental.CPPSubset(), "typedef int a; a(b); c(q);", "q", "w"},
		{"javasub", incremental.JavaSubset(), "class A { int[] xs; void m() { xs[0] = 1; } }", "1", "2"},
		{"lispsub", incremental.LispSubset(), "(define (f x) (* x x)) (f 3)", "3", "9"},
		{"mod2sub", incremental.Modula2Subset(), "MODULE M;\nVAR x : INTEGER;\nBEGIN\n  x := 1\nEND M.\n", "1", "2"},
		{"scannerless", incremental.ScannerlessLanguage(), "if(cond)x=1;", "1", "2"},
		{"lr2", incremental.LR2Language(), "x z c", "c", "c"},
	}
}

// TestConcurrentSessionsSharedLanguage runs ≥8 concurrent sessions per
// bundled language against one shared *Language, each performing the full
// pipeline (parse, edit, incremental reparse, semantic resolution). Any
// hidden mutation of the compiled language shows up under -race.
func TestConcurrentSessionsSharedLanguage(t *testing.T) {
	const goroutines = 8
	for _, tc := range sharedLangCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for iter := 0; iter < 3; iter++ {
						s := incremental.NewSession(tc.lang, tc.src)
						if out := s.Do(nil); out.Err != nil {
							errs <- out.Err
							return
						}
						s.Resolve()
						off := strings.Index(s.Text(), tc.oldTxt)
						s.Edit(off, len(tc.oldTxt), tc.newTxt)
						if out := s.Do(nil); out.Err != nil {
							errs <- out.Err
							return
						}
						s.Resolve()
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// TestWithSemanticsDoesNotMutateReceiver pins the immutability fix: the
// original language keeps its configuration while the derived one gets the
// override, even when both are used concurrently.
func TestWithSemanticsDoesNotMutateReceiver(t *testing.T) {
	base := incremental.CSubset() // semantics preconfigured
	derived := base.WithSemantics(incremental.SemanticsConfig{
		IsScope:              func(n *incremental.Node) bool { return false },
		TypedefName:          func(n *incremental.Node) (string, bool) { return "", false },
		DeclaredName:         func(n *incremental.Node) (string, bool) { return "", false },
		IsDeclInterpretation: func(n *incremental.Node) bool { return false },
	})
	src := "typedef int t; t(a);"

	s := incremental.NewSession(base, src)
	if out := s.Do(nil); out.Err != nil {
		t.Fatal(out.Err)
	}
	if res := s.Resolve(); res.ResolvedDecl != 1 {
		t.Fatalf("base language lost its semantics config: %+v", res)
	}

	d := incremental.NewSession(derived, src)
	if out := d.Do(nil); out.Err != nil {
		t.Fatal(out.Err)
	}
	if res := d.Resolve(); res.Resolved() != 0 {
		t.Fatalf("derived language should use the no-op override: %+v", res)
	}
}

// TestParseContextPreCancelled: Do with a done context aborts before any
// work, the committed tree survives, and the session remains usable.
func TestParseContextPreCancelled(t *testing.T) {
	lang := incremental.CSubset()
	s := incremental.NewSession(lang, "int a; int b;")
	base := s.Do(nil)
	if base.Err != nil {
		t.Fatal(base.Err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Edit(4, 1, "x")
	if err := s.Do(ctx).Err; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s.Tree() != base.Root {
		t.Fatal("cancelled parse must not commit")
	}
	// The same session retries cleanly without the context.
	if out := s.Do(nil); out.Err != nil || out.Root.Yield() != "intx;intb;" {
		t.Fatalf("retry: tree=%v err=%v", out.Root, out.Err)
	}
}

// TestParseContextCancelMidParse cancels while a large Do is running.
// Whichever side wins the race, the session must stay coherent: either the
// parse finished normally, or it returned the cancellation error without
// committing.
func TestParseContextCancelMidParse(t *testing.T) {
	src, _ := corpus.Generate(corpus.Spec{Name: "cancel", Lines: 20000, Lang: "c", AmbiguousPerKLoC: 5, Seed: 11})
	lang := incremental.CSubset()
	s := incremental.NewSession(lang, src)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { cancel(); close(done) }()
	out := s.Do(ctx)
	<-done
	if out.Err != nil {
		if !errors.Is(out.Err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", out.Err)
		}
		if s.Tree() != nil {
			t.Fatal("cancelled first parse must leave no committed tree")
		}
		if out := s.Do(nil); out.Err != nil {
			t.Fatalf("retry after cancellation: %v", out.Err)
		}
	} else if out.Root == nil {
		t.Fatal("successful parse returned nil tree")
	}
}

// listDef is a small sequence language for the definition tests.
func listDef(name string) incremental.LanguageDef {
	return incremental.LanguageDef{
		Name:    name,
		Grammar: "%token x ';'\n%start L\nL : Item* ;\nItem : x ';' ;",
		Lexer: []incremental.LexRule{
			{Name: "WS", Pattern: `[ \t\n]+`, Skip: true},
			{Name: "X", Pattern: `x`},
			{Name: "SEMI", Pattern: `;`},
		},
		TokenSyms: map[string]string{"X": "x", "SEMI": "';'"},
	}
}

// TestLanguageCache: concurrent definitions of one language share no
// hidden state; each builds its own language, and each result parses.
func TestLanguageCache(t *testing.T) {
	def := listDef("concurrent-lists")
	const goroutines = 8
	var wg sync.WaitGroup
	langs := make([]*incremental.Language, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			l, err := incremental.DefineLanguage(def)
			if err != nil {
				t.Error(err)
				return
			}
			langs[g] = l
		}(g)
	}
	wg.Wait()
	for _, l := range langs {
		if l == nil {
			t.FailNow()
		}
		out := incremental.NewSession(l, "x; x; x;").Do(nil)
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		if out.Root.Yield() != "x;x;x;" {
			t.Fatalf("yield = %q", out.Root.Yield())
		}
	}
}

// TestDefineLanguageWritesNothing: defining and using a language touches
// no file, in particular nothing under the user's cache directory.
func TestDefineLanguageWritesNothing(t *testing.T) {
	home := t.TempDir()
	t.Setenv("HOME", home)
	t.Setenv("XDG_CACHE_HOME", home)
	// A fresh name, so no definition built earlier in the process can
	// stand in for this one.
	l, err := incremental.DefineLanguage(listDef("writes-nothing " + home))
	if err != nil {
		t.Fatal(err)
	}
	if out := incremental.NewSession(l, "x; x;").Do(nil); out.Err != nil {
		t.Fatal(out.Err)
	}
	left, err := os.ReadDir(home)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("DefineLanguage left %s in %s", e.Name(), home)
	}
}

// TestDefinitionErrorTypes: rejected definitions surface as structured,
// errors.Is/As-compatible values.
func TestDefinitionErrorTypes(t *testing.T) {
	_, err := incremental.DefineLanguage(incremental.LanguageDef{
		Name:    "broken",
		Grammar: "%start S\nS : Undefined ;",
		Lexer:   []incremental.LexRule{{Name: "X", Pattern: "x"}},
	})
	if err == nil {
		t.Fatal("invalid grammar must be rejected")
	}
	if !errors.Is(err, incremental.ErrInvalidDefinition) {
		t.Fatalf("errors.Is(ErrInvalidDefinition) = false for %v", err)
	}
	var de *incremental.DefinitionError
	if !errors.As(err, &de) {
		t.Fatalf("errors.As(*DefinitionError) = false for %v", err)
	}
	if de.Language != "broken" || de.Stage != "grammar" {
		t.Fatalf("DefinitionError = %+v", de)
	}
	if !strings.Contains(de.Production, "S → Undefined") {
		t.Fatalf("offending production not reported: %+v", de)
	}

	// A bad token mapping is a "tokens"-stage error.
	_, err = incremental.DefineLanguage(incremental.LanguageDef{
		Grammar:   "%token x\n%start S\nS : x ;",
		Lexer:     []incremental.LexRule{{Name: "X", Pattern: "x"}},
		TokenSyms: map[string]string{"X": "nope"},
	})
	if !errors.As(err, &de) || de.Stage != "tokens" {
		t.Fatalf("want tokens-stage DefinitionError, got %v", err)
	}
}

// TestParseErrorStructure: syntax errors expose position and expectations
// through the exported type.
func TestParseErrorStructure(t *testing.T) {
	s := incremental.NewSession(incremental.ExprLanguage(), "1 +\n+ 2")
	err := s.Do(nil).Err
	if err == nil {
		t.Fatal("want syntax error")
	}
	var pe *incremental.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("errors.As(*ParseError) = false for %v", err)
	}
	if pe.Line != 2 || pe.Col != 1 {
		t.Fatalf("position = %d:%d, want 2:1", pe.Line, pe.Col)
	}
}
