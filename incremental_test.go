package incremental_test

import (
	"fmt"
	"strings"
	"testing"

	incremental "iglr"
)

func TestQuickstartExprSession(t *testing.T) {
	lang := incremental.ExprLanguage()
	s := incremental.NewSession(lang, "1 + 2 * x")
	out := s.Do(nil)
	if out.Err != nil {
		t.Fatalf("parse: %v", out.Err)
	}
	tree := out.Root
	if tree.Yield() != "1+2*x" {
		t.Fatalf("yield = %q", tree.Yield())
	}
	if incremental.CountParses(tree) != 1 {
		t.Fatal("static filters should fully disambiguate")
	}

	s.Edit(4, 1, "3")
	out = s.Do(nil)
	if out.Err != nil {
		t.Fatalf("reparse: %v", out.Err)
	}
	if out.Root.Yield() != "1+3*x" {
		t.Fatalf("yield = %q", out.Root.Yield())
	}
}

func TestCPPSubsetTypedefFlow(t *testing.T) {
	lang := incremental.CPPSubset()
	s := incremental.NewSession(lang, "typedef int a; a(b); c(d);")
	out := s.Do(nil)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if !out.Root.Ambiguous() {
		t.Fatal("expected retained ambiguity before semantics")
	}
	res := s.Resolve()
	if res.ResolvedDecl != 1 || res.Unresolved != 1 {
		t.Fatalf("resolution = %+v", res)
	}

	// Declare c: its call site resolves on the next pass.
	s.Edit(0, 0, "int c; ")
	if out := s.Do(nil); out.Err != nil {
		t.Fatal(out.Err)
	}
	res = s.Resolve()
	if res.ResolvedDecl != 1 || res.ResolvedStmt != 1 || res.Unresolved != 0 {
		t.Fatalf("after declaring c: %+v", res)
	}
}

func TestSessionRecovery(t *testing.T) {
	lang := incremental.CSubset()
	s := incremental.NewSession(lang, "int a; int b;")
	if out := s.Do(nil, incremental.Tolerant()); out.Err != nil || !out.Clean {
		t.Fatalf("initial: %+v", out)
	}
	s.Edit(4, 1, "x")  // good
	s.Edit(11, 1, "(") // bad
	out := s.Do(nil, incremental.Tolerant())
	if out.Err != nil || !out.Isolated || out.ErrorRegions == 0 {
		t.Fatalf("recovery outcome: %+v", out)
	}
	// Isolation never reverts the user's text: the bad edit stays,
	// quarantined under an error node and reported as a diagnostic.
	if s.Text() != "int x; int (;" {
		t.Fatalf("text = %q", s.Text())
	}
	if ds := s.Diagnostics(); len(ds) == 0 {
		t.Fatalf("no diagnostics for the quarantined region")
	}
	// Repairing the text clears the quarantine and converges.
	s.Edit(11, 1, "b")
	if out := s.Do(nil); out.Err != nil {
		t.Fatal(out.Err)
	}
	if s.Text() != "int x; int b;" {
		t.Fatalf("repaired text = %q", s.Text())
	}
	if ds := s.Diagnostics(); len(ds) != 0 {
		t.Fatalf("diagnostics after repair: %v", ds)
	}
}

func TestDefineLanguage(t *testing.T) {
	def := listDef("lists")
	def.Method = incremental.LR1
	lang, err := incremental.DefineLanguage(def)
	if err != nil {
		t.Fatal(err)
	}
	if lang.Name() != "lists" {
		t.Fatalf("name = %q", lang.Name())
	}
	if !lang.Deterministic() {
		t.Fatal("list language should be deterministic")
	}
	s := incremental.NewSession(lang, "x; x; x;")
	out := s.Do(nil)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.Root.Yield() != "x;x;x;" {
		t.Fatalf("yield = %q", out.Root.Yield())
	}

	if _, err := incremental.DefineLanguage(incremental.LanguageDef{
		Name:    "broken",
		Grammar: "%start S\nS : Undefined ;",
		Lexer:   []incremental.LexRule{{Name: "X", Pattern: "x"}},
	}); err == nil {
		t.Fatal("invalid grammar must be rejected")
	}
}

func TestDynamicOperatorsThroughFacade(t *testing.T) {
	lang := incremental.AmbiguousExprLanguage()
	s := incremental.NewSession(lang, "a+b*c")
	out := s.Do(nil)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	tree := out.Root
	if incremental.CountParses(tree) != 2 {
		t.Fatalf("parses = %d", incremental.CountParses(tree))
	}
	ops := incremental.Operators{Prec: map[string]int{"+": 1, "-": 1, "*": 2, "/": 2}}
	filtered, discarded := incremental.ApplyFilter(tree, ops.Filter())
	if discarded != 1 || incremental.CountParses(filtered) != 1 {
		t.Fatalf("discarded=%d parses=%d", discarded, incremental.CountParses(filtered))
	}
}

// TestAppendixBTrace replays the paper's Appendix B scenario: in
// `a(b); c(d);` the semicolon after the first ambiguous item is deleted
// and re-inserted; reparsing discards the non-deterministic structure,
// reads the region as terminals, splits on the reduce/reduce conflict, and
// merges the two parsers back into one Item symbol node.
func TestAppendixBTrace(t *testing.T) {
	lang := incremental.CPPSubset()
	s := incremental.NewSession(lang, "a(b); c(d);")
	if out := s.Do(nil); out.Err != nil {
		t.Fatal(out.Err)
	}

	s.Edit(4, 1, "")  // delete ';'
	s.Edit(4, 0, ";") // re-insert it
	var lines []string
	s.Trace(func(f string, args ...any) {
		lines = append(lines, fmt.Sprintf(f, args...))
	})
	out := s.Do(nil)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	tree := out.Root
	s.Trace(nil)
	trace := strings.Join(lines, "\n")

	// The ambiguous region is re-read as terminal symbols by >1 parser.
	if !strings.Contains(trace, "2 parser(s)") {
		t.Fatalf("expected a parser split in the trace:\n%s", trace)
	}
	// Context sharing: the two interpretations merge into one symbol node.
	if !strings.Contains(trace, "M: merge interpretation for Item") {
		t.Fatalf("expected an Item merge in the trace:\n%s", trace)
	}
	if !tree.Ambiguous() {
		t.Fatal("both interpretations must be present after reparse")
	}
	st := incremental.Measure(tree)
	if st.AmbiguousRegions != 2 {
		t.Fatalf("ambiguous regions = %d, want 2", st.AmbiguousRegions)
	}
	if s.Stats().MaxActiveParsers < 2 {
		t.Fatalf("stats = %+v", s.Stats())
	}
}
