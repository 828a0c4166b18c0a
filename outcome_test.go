package incremental_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	incremental "iglr"
)

// The Do contract, one path against another: an incremental Do against a
// cold Do over the same text, the plain path against Tolerant, and a
// cancelled Do against its retry.

// TestDoDifferentialClean drives clean edit scripts over several bundled
// languages through Do: every successful Do reports Clean with a root, the
// incremental tree equals a cold Do over the final text, and Tolerant over
// clean text commits the same tree without claiming any recovery.
func TestDoDifferentialClean(t *testing.T) {
	cases := []struct {
		name string
		lang *incremental.Language
		src  string
		edit func(s *incremental.Session)
	}{
		{"expr", incremental.ExprLanguage(), "1+2*3", func(s *incremental.Session) {
			s.Edit(0, 0, "9*")
			s.Edit(2, 1, "7")
		}},
		{"c-subset", incremental.CSubset(), "int a = 1; { a = a + 2; }", func(s *incremental.Session) {
			s.Edit(4, 1, "b")
			s.Edit(13, 1, "b")
			s.Edit(17, 1, "b")
		}},
		{"java-subset", incremental.JavaSubset(), "class A { int f() { return 1; } }", func(s *incremental.Session) {
			s.Edit(27, 1, "42")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			s := incremental.NewSession(tc.lang, tc.src)
			if out := s.Do(ctx); out.Err != nil || !out.Clean || out.Root == nil {
				t.Fatalf("initial Do: %+v", out)
			}
			tc.edit(s)
			out := s.Do(ctx)
			if out.Err != nil || !out.Clean || out.Root == nil || out.Root != s.Tree() {
				t.Fatalf("Do after edits: %+v", out)
			}
			if out.Stats != s.Stats() {
				t.Fatalf("Outcome.Stats %+v differs from Session.Stats %+v", out.Stats, s.Stats())
			}
			cold := incremental.NewSession(tc.lang, s.Text()).Do(ctx)
			if cold.Err != nil {
				t.Fatal(cold.Err)
			}
			want := incremental.FormatDag(tc.lang, cold.Root)
			if got := incremental.FormatDag(tc.lang, out.Root); got != want {
				t.Fatalf("incremental tree differs from a cold Do:\n-- incremental --\n%s\n-- cold --\n%s", got, want)
			}

			tol := s.Do(ctx, incremental.Tolerant())
			if tol.Err != nil || !tol.Clean || tol.Isolated || tol.ErrorRegions != 0 {
				t.Fatalf("Tolerant over clean text claimed recovery: %+v", tol)
			}
			if got := incremental.FormatDag(tc.lang, tol.Root); got != want {
				t.Fatalf("Tolerant over clean text changed the tree:\n%s", got)
			}
			if ds := s.Diagnostics(); len(ds) != 0 {
				t.Fatalf("clean text has diagnostics: %v", ds)
			}
		})
	}
}

// TestDoDifferentialSyntaxError breaks a statement and runs both paths over
// it: the plain Do fails with a located *ParseError, returns no root and
// keeps the committed tree; Tolerant isolates the damage, keeps the broken
// text and reports it; the repair clears the diagnostics and converges to
// the cold parse.
func TestDoDifferentialSyntaxError(t *testing.T) {
	lang := incremental.CSubset()
	src := "int a = 1; int b = 2; int c = 3;"
	s := incremental.NewSession(lang, src)
	base := s.Do(nil)
	if !base.Clean {
		t.Fatalf("baseline: %v", base.Err)
	}

	// Break the middle statement.
	s.Edit(15, 1, "= @@")
	broken := s.Text()
	out := s.Do(nil)
	if out.Err == nil || out.Clean || out.Root != nil {
		t.Fatalf("broken text must fail the plain path without a root: %+v", out)
	}
	var pe *incremental.ParseError
	if !errors.As(out.Err, &pe) {
		t.Fatalf("Do must locate syntax errors as *ParseError, got %T", out.Err)
	}
	if pe.Line != 1 || pe.Offset < 11 || pe.Offset >= 22 || pe.Col != pe.Offset+1 {
		t.Fatalf("error located at %d:%d (offset %d), want inside the broken statement", pe.Line, pe.Col, pe.Offset)
	}
	if s.Tree() != base.Root || s.Text() != broken {
		t.Fatal("a failed plain Do must keep the committed tree and the pending text")
	}

	// Tolerant isolates the damage, text preserved.
	tol := s.Do(nil, incremental.Tolerant())
	if tol.Err != nil || tol.Clean || !tol.Isolated || tol.ErrorRegions != 1 {
		t.Fatalf("tolerant isolation: %+v", tol)
	}
	if s.Text() != broken {
		t.Fatalf("tolerant Do must preserve the broken text, got %q", s.Text())
	}
	if ds := s.Diagnostics(); len(ds) != 1 {
		t.Fatalf("isolation must surface one diagnostic, got %v", ds)
	}

	// Repair (undo the break) converges back to clean.
	s.Edit(15, 4, "b")
	rep := s.Do(nil, incremental.Tolerant())
	if rep.Err != nil || !rep.Clean || rep.Isolated {
		t.Fatalf("after repair: %+v", rep)
	}
	if ds := s.Diagnostics(); len(ds) != 0 {
		t.Fatalf("repaired text must clear diagnostics, got %v", ds)
	}
	cold := incremental.NewSession(lang, src).Do(nil)
	if got, want := incremental.FormatDag(lang, rep.Root), incremental.FormatDag(lang, cold.Root); got != want {
		t.Fatalf("repaired tree differs from a cold Do:\n%s\nwant\n%s", got, want)
	}
}

// TestDoDifferentialBudget trips a budget on both paths: the plain Do and
// Tolerant each report ErrBudget with no root, Tolerant treats the trip as
// infrastructure and claims neither recovery nor isolation, and the
// pending edit stays in the text.
func TestDoDifferentialBudget(t *testing.T) {
	lang := incremental.AmbiguousExprLanguage()
	s := incremental.NewSession(lang, "1+2", incremental.WithBudget(incremental.Budget{MaxGSSLinks: 8}))
	// Hostile edit: a long undisambiguated chain.
	chain := strings.Repeat("+1", 40)
	s.Edit(3, 0, chain)
	out := s.Do(nil)
	if !errors.Is(out.Err, incremental.ErrBudget) || out.Root != nil || out.Clean {
		t.Fatalf("plain Do: want a budget trip without a root, got %+v", out)
	}
	tol := s.Do(nil, incremental.Tolerant())
	if !errors.Is(tol.Err, incremental.ErrBudget) || tol.Root != nil {
		t.Fatalf("tolerant Do: want a budget trip without a root, got %+v", tol)
	}
	if tol.Clean || tol.Isolated || tol.ErrorRegions != 0 {
		t.Fatalf("infrastructure failure must not claim recovery: %+v", tol)
	}
	if s.Text() != "1+2"+chain || s.Tree() != nil {
		t.Fatalf("budget trip disturbed the session: text %q", s.Text())
	}
}

// TestDoDifferentialCancellation runs Do, plain and Tolerant, under a
// cancelled context: both return context.Canceled without committing, and
// a retry succeeds with the tree an uncancelled session commits.
func TestDoDifferentialCancellation(t *testing.T) {
	lang := incremental.CSubset()
	src := "int a = 1;"
	s := incremental.NewSession(lang, src)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, opts := range [][]incremental.ParseOption{nil, {incremental.Tolerant()}} {
		out := s.Do(ctx, opts...)
		if !errors.Is(out.Err, context.Canceled) || out.Root != nil || out.Clean || out.Isolated {
			t.Fatalf("cancelled Do(%d options): %+v", len(opts), out)
		}
	}
	if s.Tree() != nil {
		t.Fatal("a cancelled Do must not commit")
	}
	retry := s.Do(context.Background())
	if retry.Err != nil || !retry.Clean {
		t.Fatalf("retry after cancel: %+v", retry)
	}
	want := incremental.FormatDag(lang, incremental.NewSession(lang, src).Do(nil).Root)
	if got := incremental.FormatDag(lang, retry.Root); got != want {
		t.Fatalf("retried tree differs from an uncancelled Do:\n%s\nwant\n%s", got, want)
	}
}

// TestDoTimeoutDeadline asserts Budget.MaxDuration trips surface through
// Do as ErrBudget.
func TestDoTimeoutDeadline(t *testing.T) {
	lang := incremental.AmbiguousExprLanguage()
	chain := "1"
	for i := 0; i < 200; i++ {
		chain += "+1"
	}
	s := incremental.NewSession(lang, chain,
		incremental.WithBudget(incremental.Budget{MaxDuration: time.Nanosecond}))
	out := s.Do(nil)
	if !errors.Is(out.Err, incremental.ErrBudget) {
		t.Fatalf("want deadline budget trip, got %v", out.Err)
	}
}

// TestWithTrace asserts the construction-time trace option delivers
// callbacks for the first parse (the handed-off-session use case).
func TestWithTrace(t *testing.T) {
	var lines int
	s := incremental.NewSession(incremental.ExprLanguage(), "1+2",
		incremental.WithTrace(func(format string, args ...any) { lines++ }))
	if out := s.Do(nil); out.Err != nil {
		t.Fatal(out.Err)
	}
	if lines == 0 {
		t.Fatal("WithTrace callback never fired")
	}
}

// TestSubtree covers the session-level subtree query the daemon's
// /subtree endpoint is built on.
func TestSubtree(t *testing.T) {
	lang := incremental.CSubset()
	src := "int a = 1; int b = 2;"
	s := incremental.NewSession(lang, src)
	if out := s.Do(nil); out.Err != nil {
		t.Fatal(out.Err)
	}
	// The span of "int b = 2;" — the subtree must cover it and be smaller
	// than the whole program.
	second := s.Subtree(11, 10)
	if second == nil {
		t.Fatal("no subtree for second statement")
	}
	off, ln, ok := s.NodeSpan(second)
	if !ok {
		t.Fatal("subtree has no span")
	}
	if off > 11 || off+ln < 21 {
		t.Fatalf("subtree span [%d,%d) does not cover [11,21)", off, off+ln)
	}
	if root := s.Tree(); second == root {
		rOff, rLn, _ := s.NodeSpan(root)
		if rOff != off || rLn != ln {
			t.Fatal("expected a narrower subtree than the root")
		}
	}
	// A single byte inside the first statement narrows further.
	first := s.Subtree(4, 1)
	if first == nil {
		t.Fatal("no subtree for first identifier")
	}
	fOff, fLn, _ := s.NodeSpan(first)
	if fLn >= len(src) {
		t.Fatalf("single-byte query returned the whole program [%d,%d)", fOff, fOff+fLn)
	}
	// Out-of-range queries return nil.
	if n := s.Subtree(len(src)+5, 1); n != nil {
		t.Fatal("out-of-range subtree must be nil")
	}
	// Before the first parse there is no tree to query.
	fresh := incremental.NewSession(lang, src)
	if n := fresh.Subtree(0, 1); n != nil {
		t.Fatal("subtree before first parse must be nil")
	}
}
