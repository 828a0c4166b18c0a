package incremental_test

import (
	"strings"
	"testing"

	incremental "iglr"
)

func TestJavaSessionEndToEnd(t *testing.T) {
	lang := incremental.JavaSubset()
	s := incremental.NewSession(lang, `class A { int[] xs; void m() { xs[0] = 1; } }`)
	out := s.Do(nil)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.Root.Ambiguous() {
		t.Fatal("java subset resolves its forks by context")
	}
	if s.Stats().MaxActiveParsers < 2 {
		t.Fatal("array declarations should fork")
	}
	// Incremental edit inside the method.
	off := strings.Index(s.Text(), "= 1")
	s.Edit(off+2, 1, "42")
	out = s.Do(nil)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if !strings.Contains(out.Root.Yield(), "xs[0]=42;") {
		t.Fatalf("yield = %q", out.Root.Yield())
	}
}

func TestLispSessionEndToEnd(t *testing.T) {
	lang := incremental.LispSubset()
	s := incremental.NewSession(lang, `(define (f x) (* x x)) (f 3)`)
	if out := s.Do(nil); out.Err != nil {
		t.Fatal(out.Err)
	}
	s.Edit(strings.Index(s.Text(), "3"), 1, "99")
	out := s.Do(nil)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if !strings.HasSuffix(out.Root.Yield(), "(f99)") {
		t.Fatalf("yield = %q", out.Root.Yield())
	}
	if s.Stats().SubtreeShifts == 0 {
		t.Fatal("the definition should be reused whole")
	}
}

func TestScannerlessSessionEndToEnd(t *testing.T) {
	lang := incremental.ScannerlessLanguage()
	if lang.Deterministic() {
		t.Fatal("scannerless keyword prefixes should leave conflicts")
	}
	s := incremental.NewSession(lang, "if(cond)x=1;")
	out := s.Do(nil)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.Root.Yield() != "if(cond)x=1;" {
		t.Fatalf("yield = %q", out.Root.Yield())
	}
	// Turn the keyword use into an identifier by appending letters.
	s.Edit(2, 0, "fy")
	if out := s.Do(nil); out.Err == nil {
		t.Fatal("iffy(cond)... has no statement reading in this grammar")
	}
	out = s.Do(nil, incremental.Tolerant())
	if out.Err != nil || len(out.Unincorporated) != 1 {
		t.Fatalf("recovery: %+v", out)
	}
}

func TestSessionTreeAndLexErrors(t *testing.T) {
	lang := incremental.CSubset()
	s := incremental.NewSession(lang, "int a;")
	if s.Tree() != nil {
		t.Fatal("no tree before first parse")
	}
	if out := s.Do(nil); out.Err != nil {
		t.Fatal(out.Err)
	}
	if s.Tree() == nil || s.Len() != 6 {
		t.Fatal("tree/len wrong")
	}
	s.Edit(3, 0, " @")
	if s.LexErrors() != 1 {
		t.Fatalf("lex errors = %d", s.LexErrors())
	}
	if out := s.Do(nil); out.Err == nil {
		t.Fatal("lexical garbage should fail to parse")
	}
	s.Edit(3, 2, "")
	if s.LexErrors() != 0 {
		t.Fatal("lex error should clear")
	}
	if out := s.Do(nil); out.Err != nil {
		t.Fatal(out.Err)
	}
}

func TestResolveWithoutSemanticsConfig(t *testing.T) {
	lang := incremental.ExprLanguage() // no semantics attached
	s := incremental.NewSession(lang, "a + b")
	if out := s.Do(nil); out.Err != nil {
		t.Fatal(out.Err)
	}
	res := s.Resolve()
	if res.Resolved() != 0 && res.Unresolved != 0 {
		t.Fatalf("Resolve on a semantics-free language should be a no-op: %+v", res)
	}
}

func TestWithSemanticsOverride(t *testing.T) {
	// A custom language can attach its own semantic configuration.
	lang, err := incremental.DefineLanguage(incremental.LanguageDef{
		Name:    "mini",
		Grammar: "%token a\n%start S\nS : a ;",
		Lexer: []incremental.LexRule{
			{Name: "A", Pattern: "a"},
		},
		TokenSyms: map[string]string{"A": "a"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// WithSemantics returns a new immutable *Language; the receiver is
	// unchanged.
	lang = lang.WithSemantics(incremental.SemanticsConfig{
		IsScope:              func(n *incremental.Node) bool { return false },
		TypedefName:          func(n *incremental.Node) (string, bool) { return "", false },
		DeclaredName:         func(n *incremental.Node) (string, bool) { return "", false },
		IsDeclInterpretation: func(n *incremental.Node) bool { return false },
	})
	s := incremental.NewSession(lang, "a")
	if out := s.Do(nil); out.Err != nil {
		t.Fatal(out.Err)
	}
	_ = s.Resolve() // must not panic
}

func TestResolveTrackedAndUseSites(t *testing.T) {
	lang := incremental.CPPSubset()
	s := incremental.NewSession(lang, "typedef int a; a(b); a(c);")
	if out := s.Do(nil); out.Err != nil {
		t.Fatal(out.Err)
	}
	res, flips := s.ResolveTracked()
	if res.ResolvedDecl != 2 || len(flips) != 0 {
		t.Fatalf("first pass: %+v flips=%d", res, len(flips))
	}
	if len(s.UseSites("a")) != 2 {
		t.Fatalf("use sites = %d", len(s.UseSites("a")))
	}
	// Flip the namespace of a.
	s.Edit(0, len("typedef int a;"), "int a;")
	if out := s.Do(nil); out.Err != nil {
		t.Fatal(out.Err)
	}
	res, flips = s.ResolveTracked()
	if res.ResolvedStmt != 2 || len(flips) != 2 {
		t.Fatalf("after flip: %+v flips=%d", res, len(flips))
	}
}

func TestParseErrorPositions(t *testing.T) {
	lang := incremental.CSubset()
	s := incremental.NewSession(lang, "int a;\nint b\nint c;\n")
	err := s.Do(nil).Err
	if err == nil {
		t.Fatal("missing semicolon should fail")
	}
	pe, ok := err.(*incremental.ParseError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	// The error is detected at the third 'int' (line 3).
	if pe.Line != 3 || pe.Col != 1 {
		t.Fatalf("position = %d:%d, want 3:1 (%v)", pe.Line, pe.Col, err)
	}
	if len(pe.Expected) == 0 {
		t.Fatal("expected-token set missing")
	}
	found := false
	for _, e := range pe.Expected {
		if e == "';'" {
			found = true
		}
	}
	if !found {
		t.Fatalf("';' should be among expected tokens: %v", pe.Expected)
	}
	if !strings.Contains(err.Error(), "3:1") {
		t.Fatalf("message lacks position: %v", err)
	}
}

func TestModula2DeterministicSession(t *testing.T) {
	lang := incremental.Modula2Subset()
	if !lang.Deterministic() {
		t.Fatal("Modula-2 subset should be conflict-free")
	}
	s := incremental.NewSession(lang, "MODULE M;\nVAR x : INTEGER;\nBEGIN\n  x := 1\nEND M.\n")
	if err := s.UseDeterministic(); err != nil {
		t.Fatal(err)
	}
	if out := s.Do(nil); out.Err != nil {
		t.Fatal(out.Err)
	}
	s.Edit(strings.Index(s.Text(), ":= 1")+3, 1, "42")
	out := s.Do(nil)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if !strings.Contains(out.Root.Yield(), "x:=42") {
		t.Fatalf("yield = %q", out.Root.Yield())
	}
}
