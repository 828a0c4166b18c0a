package iglr

import (
	"strings"
	"testing"

	"iglr/internal/dag"
	"iglr/internal/grammar"
	"iglr/internal/lr"
)

func mk(t testing.TB, src string, opts lr.Options) *Parser {
	t.Helper()
	g, err := grammar.Parse(src)
	if err != nil {
		t.Fatalf("grammar: %v", err)
	}
	tbl, err := lr.Build(g, opts)
	if err != nil {
		t.Fatalf("table: %v", err)
	}
	return New(tbl)
}

func symsOf(t testing.TB, g *grammar.Grammar, names ...string) []grammar.Sym {
	t.Helper()
	out := make([]grammar.Sym, len(names))
	for i, n := range names {
		s := g.Lookup(n)
		if s == grammar.InvalidSym {
			t.Fatalf("unknown symbol %q", n)
		}
		out[i] = s
	}
	return out
}

func TestBatchDeterministicExpr(t *testing.T) {
	p := mk(t, `
%token ID
%left '+'
%left '*'
%start E
E : E '+' E | E '*' E | ID ;
`, lr.Options{Method: lr.LALR})
	g := p.Grammar()
	root, err := p.ParseSyms(symsOf(t, g, "ID", "'+'", "ID", "'*'", "ID"))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if root.Sym != g.Lookup("E") {
		t.Fatalf("root symbol = %s", g.Name(root.Sym))
	}
	if root.Ambiguous() {
		t.Fatalf("precedence-resolved parse should be unambiguous:\n%s", dag.Format(g, root))
	}
	if n := CountParses(root); n != 1 {
		t.Fatalf("CountParses = %d, want 1", n)
	}
	// Left associativity + precedence: (ID + (ID*ID)).
	if root.Prod == -1 {
		t.Fatalf("root should be a production node")
	}
	plus := g.Lookup("'+'")
	if root.Kids[1].Sym != plus {
		t.Fatalf("top-level operator should be '+':\n%s", dag.Format(g, root))
	}
}

func TestBatchAmbiguousCounts(t *testing.T) {
	p := mk(t, `
%token x
%start S
S : S S | x ;
`, lr.Options{Method: lr.LALR})
	g := p.Grammar()
	x := g.Lookup("x")
	// Catalan numbers: 1, 1, 2, 5, 14, 42 parses for 1..6 x's.
	want := []int{1, 1, 2, 5, 14, 42}
	for n := 1; n <= 6; n++ {
		input := make([]grammar.Sym, n)
		for i := range input {
			input[i] = x
		}
		root, err := p.ParseSyms(input)
		if err != nil {
			t.Fatalf("parse %d x's: %v", n, err)
		}
		if got := CountParses(root); got != want[n-1] {
			t.Fatalf("CountParses(%d) = %d, want %d", n, got, want[n-1])
		}
		if n >= 3 && !root.Ambiguous() {
			t.Fatalf("expected ambiguity for %d x's", n)
		}
	}
}

func TestBatchAmbiguousExprStats(t *testing.T) {
	p := mk(t, `
%token ID '+'
%start E
E : E '+' E | ID ;
`, lr.Options{Method: lr.LALR})
	g := p.Grammar()
	root, err := p.ParseSyms(symsOf(t, g, "ID", "'+'", "ID", "'+'", "ID"))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got := CountParses(root); got != 2 {
		t.Fatalf("CountParses = %d, want 2", got)
	}
	s := dag.Measure(root)
	if s.ChoiceNodes == 0 || s.AmbiguousRegions == 0 {
		t.Fatalf("expected choice nodes: %+v", s)
	}
	// Terminals must be shared between interpretations, not duplicated.
	if s.Terminals != 5 {
		t.Fatalf("terminals = %d, want 5 (shared)", s.Terminals)
	}
}

const figure7Src = `
%token x z c e
%start A
A : B c | D e ;
B : U z ;
D : V z ;
U : x ;
V : x ;
`

func TestFigure7DynamicLookahead(t *testing.T) {
	// The paper's Figure 7: LR(2) but unambiguous. A GLR parser with
	// LALR(1) tables forks on the U→x / V→x decision and collapses after
	// reading the decisive terminal; the loser is discarded.
	p := mk(t, figure7Src, lr.Options{Method: lr.LALR})
	g := p.Grammar()
	for _, tc := range []struct {
		input []string
		bsym  string // the nonterminal built while parsers were split
	}{
		{[]string{"x", "z", "c"}, "B"},
		{[]string{"x", "z", "e"}, "D"},
	} {
		root, err := p.ParseSyms(symsOf(t, g, tc.input...))
		if err != nil {
			t.Fatalf("parse %v: %v", tc.input, err)
		}
		if root.Ambiguous() {
			t.Fatalf("figure 7 grammar is unambiguous; got:\n%s", dag.Format(g, root))
		}
		if n := CountParses(root); n != 1 {
			t.Fatalf("CountParses = %d, want 1", n)
		}
		if p.Stats.MaxActiveParsers < 2 {
			t.Fatalf("expected a parser split, max active = %d", p.Stats.MaxActiveParsers)
		}
		// Nodes reduced while >1 parser active record MultiState (the
		// dynamic-lookahead equivalence class): U/V and B/D.
		var multi, det []string
		root.Walk(func(n *dag.Node) {
			if n.Kind != dag.KindProduction {
				return
			}
			name := g.Name(n.Sym)
			if n.State == dag.MultiState {
				multi = append(multi, name)
			} else {
				det = append(det, name)
			}
		})
		joined := strings.Join(multi, " ")
		if !strings.Contains(joined, tc.bsym) {
			t.Fatalf("expected %s among MultiState nodes, got %v (det %v)", tc.bsym, multi, det)
		}
		// A is reduced after the collapse: deterministic state.
		foundA := false
		for _, d := range det {
			if d == "A" {
				foundA = true
			}
		}
		if !foundA {
			t.Fatalf("A should have a deterministic state; multi=%v det=%v", multi, det)
		}
	}
}

func TestBatchEpsilonUnsharing(t *testing.T) {
	p := mk(t, `
%token a b
%start S
S : A X B X ;
A : a ;
B : b ;
X : ;
`, lr.Options{Method: lr.LALR})
	g := p.Grammar()
	root, err := p.ParseSyms(symsOf(t, g, "a", "b"))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if shared := dag.SharedNullYields(root); len(shared) != 0 {
		t.Fatalf("epsilon structure still shared after parse: %d nodes", len(shared))
	}
	// Both X instances exist and are distinct.
	var xs []*dag.Node
	root.Walk(func(n *dag.Node) {
		if n.Kind == dag.KindProduction && g.Name(n.Sym) == "X" {
			xs = append(xs, n)
		}
	})
	if len(xs) != 2 {
		t.Fatalf("X instances = %d, want 2", len(xs))
	}
}

func TestBatchSyntaxError(t *testing.T) {
	p := mk(t, `
%token a b
%start S
S : a b ;
`, lr.Options{Method: lr.LALR})
	g := p.Grammar()
	_, err := p.ParseSyms(symsOf(t, g, "a", "a"))
	if err == nil {
		t.Fatal("expected syntax error")
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if se.SymName != "a" || se.TokenIndex != 1 {
		t.Fatalf("error = %+v", se)
	}
	// Incomplete input.
	_, err = p.ParseSyms(symsOf(t, g, "a"))
	if err == nil {
		t.Fatal("expected error for incomplete input")
	}
}

func TestBatchEmptyInput(t *testing.T) {
	p := mk(t, `
%token a
%start S
S : a | ;
`, lr.Options{Method: lr.LALR})
	root, err := p.ParseTerminals(nil)
	if err != nil {
		t.Fatalf("empty parse: %v", err)
	}
	if root.Yield() != "" {
		t.Fatalf("yield = %q", root.Yield())
	}
}

func TestBatchSequenceGrammar(t *testing.T) {
	p := mk(t, `
%token x ';'
%start Block
Block : Stmt* ;
Stmt : x ';' ;
`, lr.Options{Method: lr.LALR})
	g := p.Grammar()
	var input []grammar.Sym
	for i := 0; i < 20; i++ {
		input = append(input, g.Lookup("x"), g.Lookup("';'"))
	}
	root, err := p.ParseSyms(input)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	// Block → Stmt* → Stmt+: the chain the commit rebuilds balanced.
	chain := root.Kids[0].Kids[0]
	if !dag.IsSeqChain(g, chain) {
		t.Fatalf("no sequence chain under the root: %s", dag.Format(g, root))
	}
	seqRoot := dag.NewSeqBuilder(p.arena, g).Canonical(chain)
	if seqRoot.Kind != dag.KindSeq || seqRoot.SeqCount != 20 {
		t.Fatalf("balanced sequence %v over %d elements, want 20", seqRoot, seqRoot.SeqCount)
	}
}

func TestBatchNestedAmbiguity(t *testing.T) {
	// PP-attachment-style ambiguity with nesting: sharing must keep the
	// dag polynomial while the forest is exponential.
	p := mk(t, `
%token x
%start S
S : S S | x ;
`, lr.Options{Method: lr.LALR})
	g := p.Grammar()
	n := 14
	input := make([]grammar.Sym, n)
	for i := range input {
		input[i] = g.Lookup("x")
	}
	root, err := p.ParseSyms(input)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	st := dag.Measure(root)
	if st.DagNodes > 3000 {
		t.Fatalf("dag nodes = %d; sharing is broken", st.DagNodes)
	}
	if c := CountParses(root); c != 742900 { // Catalan(13)
		t.Fatalf("CountParses = %d, want 742900", c)
	}
}

func TestStatsPopulated(t *testing.T) {
	p := mk(t, figure7Src, lr.Options{Method: lr.LALR})
	g := p.Grammar()
	if _, err := p.ParseSyms(symsOf(t, g, "x", "z", "c")); err != nil {
		t.Fatal(err)
	}
	s := p.Stats
	if s.TerminalShifts != 3 || s.Reductions == 0 || s.Rounds == 0 {
		t.Fatalf("stats = %+v", s)
	}
}
