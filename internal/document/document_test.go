package document

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"iglr/internal/dag"
	"iglr/internal/grammar"
	"iglr/internal/iglr"
	"iglr/internal/lexer"
	"iglr/internal/lr"
)

// testLang is a small assignment-statement language used throughout.
type testLang struct {
	g    *grammar.Grammar
	spec *lexer.Spec
	tbl  *lr.Table
	m    map[int]grammar.Sym
}

func newTestLang(t testing.TB) *testLang {
	t.Helper()
	g, err := grammar.Parse(`
%token ID NUM '=' ';' '+' '(' ')'
%start Prog
Prog : Stmt* ;
Stmt : ID '=' Expr ';' ;
Expr : Expr '+' Term | Term ;
Term : ID | NUM | '(' Expr ')' ;
`)
	if err != nil {
		t.Fatalf("grammar: %v", err)
	}
	spec, err := lexer.NewSpec([]lexer.Rule{
		{Name: "WS", Pattern: `[ \t\n]+`, Skip: true},
		{Name: "COMMENT", Pattern: `//[^\n]*`, Skip: true},
		{Name: "ID", Pattern: `[a-zA-Z_][a-zA-Z0-9_]*`},
		{Name: "NUM", Pattern: `[0-9]+`},
		{Name: "EQ", Pattern: `=`},
		{Name: "SEMI", Pattern: `;`},
		{Name: "PLUS", Pattern: `\+`},
		{Name: "LP", Pattern: `\(`},
		{Name: "RP", Pattern: `\)`},
	})
	if err != nil {
		t.Fatalf("lexer: %v", err)
	}
	tbl, err := lr.Build(g, lr.Options{Method: lr.LALR})
	if err != nil {
		t.Fatalf("table: %v", err)
	}
	if !tbl.Deterministic() {
		t.Fatalf("test language should be deterministic:\n%s", tbl.DescribeConflicts())
	}
	m := map[int]grammar.Sym{
		spec.RuleIndex("ID"):   g.Lookup("ID"),
		spec.RuleIndex("NUM"):  g.Lookup("NUM"),
		spec.RuleIndex("EQ"):   g.Lookup("'='"),
		spec.RuleIndex("SEMI"): g.Lookup("';'"),
		spec.RuleIndex("PLUS"): g.Lookup("'+'"),
		spec.RuleIndex("LP"):   g.Lookup("'('"),
		spec.RuleIndex("RP"):   g.Lookup("')'"),
	}
	return &testLang{g: g, spec: spec, tbl: tbl, m: m}
}

func (l *testLang) mapper(rule int, text string) grammar.Sym { return l.m[rule] }

func (l *testLang) doc(src string) *Document {
	return New(l.spec, l.g, l.mapper, src)
}

// parseAndCommit runs an incremental parse over the document and commits.
func parseAndCommit(t testing.TB, l *testLang, d *Document) (*dag.Node, iglr.Stats) {
	t.Helper()
	p := iglr.New(l.tbl)
	root, err := p.Parse(d.Stream())
	if err != nil {
		t.Fatalf("parse of %q: %v", d.Text(), err)
	}
	d.Commit(root)
	return root, p.Stats
}

// batchParse parses text from scratch through a fresh document and commits
// it, which is where sequences take their balanced shape.
func batchParse(t testing.TB, l *testLang, src string) *dag.Node {
	t.Helper()
	d := l.doc(src)
	p := iglr.New(l.tbl)
	root, err := p.Parse(d.Stream())
	if err != nil {
		t.Fatalf("batch parse of %q: %v", src, err)
	}
	d.Commit(root)
	return d.Root()
}

// equalStructure compares parse structure, ignoring parse states and node
// identity.
func equalStructure(a, b *dag.Node) bool {
	if a.Kind != b.Kind || a.Sym != b.Sym || a.Prod != b.Prod {
		return false
	}
	if a.Kind == dag.KindTerminal {
		return a.Text == b.Text
	}
	if len(a.Kids) != len(b.Kids) {
		return false
	}
	for i := range a.Kids {
		if !equalStructure(a.Kids[i], b.Kids[i]) {
			return false
		}
	}
	return true
}

func checkAgainstBatch(t *testing.T, l *testLang, d *Document, root *dag.Node) {
	t.Helper()
	want := batchParse(t, l, d.Text())
	if !equalStructure(root, want) {
		t.Fatalf("incremental parse differs from batch for %q:\nincremental:\n%swant:\n%s",
			d.Text(), dag.Format(l.g, root), dag.Format(l.g, want))
	}
}

func TestInitialParse(t *testing.T) {
	l := newTestLang(t)
	d := l.doc("x = 1; y = x + 2;")
	root, stats := parseAndCommit(t, l, d)
	if root.Yield() != "x=1;y=x+2;" {
		t.Fatalf("yield = %q", root.Yield())
	}
	if stats.SubtreeShifts != 0 {
		t.Fatalf("first parse should shift no subtrees, got %d", stats.SubtreeShifts)
	}
	if d.Root() != root {
		t.Fatalf("root not committed")
	}
}

func TestIncrementalTokenEdit(t *testing.T) {
	l := newTestLang(t)
	d := l.doc("x = 1; y = 2; z = 3;")
	parseAndCommit(t, l, d)

	// Rename the identifier y.
	d.Replace(7, 1, "w")
	if d.Text() != "x = 1; w = 2; z = 3;" {
		t.Fatalf("text = %q", d.Text())
	}
	root, stats := parseAndCommit(t, l, d)
	checkAgainstBatch(t, l, d, root)
	if stats.SubtreeShifts == 0 {
		t.Fatalf("expected subtree reuse, stats = %+v", stats)
	}
	if stats.TerminalShifts > 6 {
		t.Fatalf("too many terminal shifts for a one-token edit: %+v", stats)
	}
}

func TestWhitespaceOnlyEdit(t *testing.T) {
	l := newTestLang(t)
	d := l.doc("x = 1; y = 2;")
	parseAndCommit(t, l, d)
	d.Replace(6, 0, "   ")
	root, stats := parseAndCommit(t, l, d)
	checkAgainstBatch(t, l, d, root)
	// The whole previous tree is reusable: one subtree shift plus EOF.
	if stats.SubtreeShifts < 1 || stats.TerminalShifts > 1 {
		t.Fatalf("whitespace edit should reuse everything: %+v", stats)
	}
}

func TestCommentEdit(t *testing.T) {
	l := newTestLang(t)
	d := l.doc("x = 1; // note\ny = 2;")
	parseAndCommit(t, l, d)
	d.Replace(10, 4, "remark")
	root, _ := parseAndCommit(t, l, d)
	checkAgainstBatch(t, l, d, root)
}

func TestInsertionIntoWhitespace(t *testing.T) {
	l := newTestLang(t)
	d := l.doc("x = 1;   y = 2;")
	parseAndCommit(t, l, d)
	// Insert a whole statement into the gap.
	d.Replace(7, 0, "q = 9; ")
	root, _ := parseAndCommit(t, l, d)
	checkAgainstBatch(t, l, d, root)
	if !strings.Contains(root.Yield(), "q=9;") {
		t.Fatalf("inserted statement missing: %q", root.Yield())
	}
}

func TestDeleteStatement(t *testing.T) {
	l := newTestLang(t)
	d := l.doc("a = 1; b = 2; c = 3;")
	parseAndCommit(t, l, d)
	d.Replace(7, 7, "")
	root, _ := parseAndCommit(t, l, d)
	checkAgainstBatch(t, l, d, root)
	if root.Yield() != "a=1;c=3;" {
		t.Fatalf("yield = %q", root.Yield())
	}
}

func TestAppendAtEnd(t *testing.T) {
	l := newTestLang(t)
	d := l.doc("a = 1;")
	parseAndCommit(t, l, d)
	d.Replace(6, 0, " b = 2;")
	root, _ := parseAndCommit(t, l, d)
	checkAgainstBatch(t, l, d, root)
}

func TestEditAtStart(t *testing.T) {
	l := newTestLang(t)
	d := l.doc("a = 1; b = 2;")
	parseAndCommit(t, l, d)
	d.Replace(0, 0, "q = 7; ")
	root, _ := parseAndCommit(t, l, d)
	checkAgainstBatch(t, l, d, root)
}

func TestSyntaxErrorThenFix(t *testing.T) {
	l := newTestLang(t)
	d := l.doc("a = 1; b = 2;")
	parseAndCommit(t, l, d)
	oldRoot := d.Root()

	// Delete the '=' of the second statement: syntax error.
	d.Replace(9, 1, "")
	p := iglr.New(l.tbl)
	if _, err := p.Parse(d.Stream()); err == nil {
		t.Fatalf("expected syntax error for %q", d.Text())
	}
	if d.Root() != oldRoot {
		t.Fatalf("failed parse must not replace the committed tree")
	}

	// Fix it.
	d.Replace(9, 0, "=")
	root, _ := parseAndCommit(t, l, d)
	checkAgainstBatch(t, l, d, root)
}

func TestLexicalError(t *testing.T) {
	l := newTestLang(t)
	d := l.doc("a = 1; @ b = 2;")
	if d.LexErrorCount != 1 {
		t.Fatalf("LexErrorCount = %d", d.LexErrorCount)
	}
	p := iglr.New(l.tbl)
	if _, err := p.Parse(d.Stream()); err == nil {
		t.Fatal("expected parse failure at lexical error token")
	}
	// Removing the bad character makes it parse.
	d.Replace(7, 2, "")
	if d.LexErrorCount != 0 {
		t.Fatalf("LexErrorCount = %d after fix", d.LexErrorCount)
	}
	root, _ := parseAndCommit(t, l, d)
	checkAgainstBatch(t, l, d, root)
}

func TestMultipleEditsBetweenParses(t *testing.T) {
	l := newTestLang(t)
	d := l.doc("a = 1; b = 2; c = 3; d = 4;")
	parseAndCommit(t, l, d)
	d.Replace(4, 1, "10")  // a = 10
	d.Replace(12, 1, "20") // b = 20
	d.Replace(0, 1, "aa")  // rename a
	root, _ := parseAndCommit(t, l, d)
	checkAgainstBatch(t, l, d, root)
	if !strings.HasPrefix(root.Yield(), "aa=10;") {
		t.Fatalf("yield = %q", root.Yield())
	}
}

func TestReuseEfficiencyLargeProgram(t *testing.T) {
	l := newTestLang(t)
	var sb strings.Builder
	n := 500
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "v%d = %d + x%d; ", i, i, i)
	}
	d := l.doc(sb.String())
	_, first := parseAndCommit(t, l, d)
	if first.TerminalShifts < 4*n {
		t.Fatalf("first parse stats look wrong: %+v", first)
	}

	// Single-token edit in the middle.
	off := strings.Index(d.Text(), "v250 =")
	d.Replace(off+len("v250 = "), 3, "999")
	root, stats := parseAndCommit(t, l, d)
	checkAgainstBatch(t, l, d, root)
	if stats.TerminalShifts > 10 {
		t.Fatalf("incremental parse relexed too much: %+v", stats)
	}
	// The prefix must arrive as one chain shift; the suffix of a
	// left-recursive sequence is shifted one statement at a time (the
	// linear-tail behavior §3.4's balanced sequences address), so the
	// subtree-shift count is about half the statement count.
	if stats.SubtreeShifts > n/2+10 {
		t.Fatalf("subtree shifts %d exceed the expected ~n/2 for n=%d", stats.SubtreeShifts, n)
	}
	if stats.Rounds > n {
		t.Fatalf("rounds %d should be well below token count", stats.Rounds)
	}
}

func TestRandomizedIncrementalEqualsBatch(t *testing.T) {
	l := newTestLang(t)
	rng := rand.New(rand.NewSource(123))
	src := "alpha = 1; beta = alpha + 2; gamma = (beta + 3) + 4;"
	d := l.doc(src)
	parseAndCommit(t, l, d)

	pieces := []string{"x", "7", " ", ";", "=", "+", "(", ")", "q = 5; ", "// c\n"}
	parses, reverts := 0, 0
	for step := 0; step < 400; step++ {
		txt := d.Text()
		off := rng.Intn(len(txt) + 1)
		rem := 0
		if off < len(txt) {
			rem = rng.Intn(minInt(len(txt)-off, 5))
		}
		ins := ""
		if rng.Intn(3) > 0 {
			ins = pieces[rng.Intn(len(pieces))]
		}
		removedText := txt[off : off+rem]
		d.Replace(off, rem, ins)

		p := iglr.New(l.tbl)
		root, err := p.Parse(d.Stream())
		refDoc := l.doc(d.Text())
		pRef := iglr.New(l.tbl)
		want, wantErr := pRef.Parse(refDoc.Stream())
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("step %d: incremental err=%v batch err=%v text=%q", step, err, wantErr, d.Text())
		}
		if err == nil {
			d.Commit(root)
			refDoc.Commit(want)
			if !equalStructure(d.Root(), refDoc.Root()) {
				t.Fatalf("step %d: structure mismatch for %q:\nincremental:\n%sbatch:\n%s",
					step, d.Text(), dag.Format(l.g, d.Root()), dag.Format(l.g, refDoc.Root()))
			}
			parses++
			continue
		}
		// Syntax error: revert (a self-cancelling modification, §5) and
		// check the reverted document still parses and matches batch.
		d.Replace(off, len(ins), removedText)
		reverts++
		p2 := iglr.New(l.tbl)
		root2, err2 := p2.Parse(d.Stream())
		if err2 != nil {
			t.Fatalf("step %d: reverted text %q fails to parse: %v", step, d.Text(), err2)
		}
		d.Commit(root2)
		want2 := batchParse(t, l, d.Text())
		if !equalStructure(d.Root(), want2) {
			t.Fatalf("step %d: reverted structure mismatch for %q", step, d.Text())
		}
	}
	if parses < 30 || reverts < 30 {
		t.Fatalf("unbalanced coverage: %d parses, %d reverts", parses, reverts)
	}
}

func TestTerminalsMatchTokens(t *testing.T) {
	l := newTestLang(t)
	d := l.doc("a = 1; b = 2;")
	terms := d.Terminals()
	if len(terms) != 8 {
		t.Fatalf("terminals = %d, want 8", len(terms))
	}
	d.Replace(0, 1, "zz")
	terms = d.Terminals()
	if terms[0].Text != "zz" {
		t.Fatalf("first terminal = %q", terms[0].Text)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
