package javasub_test

import (
	"fmt"
	"strings"
	"testing"

	"iglr/internal/dag"
	"iglr/internal/iglr"
	"iglr/internal/langs/javasub"
)

func parse(t testing.TB, src string) (*dag.Node, iglr.Stats) {
	t.Helper()
	l := javasub.Lang()
	p := iglr.New(l.Table)
	d := l.NewDocument(src)
	root, err := p.Parse(d.Stream())
	if err != nil {
		t.Fatalf("parse failed: %v\nsource:\n%s", err, src)
	}
	return root, p.Stats
}

func TestTableShape(t *testing.T) {
	l := javasub.Lang()
	// Exactly one conflict survives the static filters: the reduce/reduce
	// on '[' between the type reading and the expression reading of a
	// leading identifier (the `T[] x;` vs `a[i]=v;` prefix).
	if got := len(l.Table.Conflicts()); got != 1 {
		t.Fatalf("conflicts = %d, want exactly 1:\n%s", got, l.Table.DescribeConflicts())
	}
	c := l.Table.Conflicts()[0]
	if l.Grammar.Name(c.Term) != "'['" {
		t.Fatalf("conflict should be on '[', got %s", l.Grammar.Name(c.Term))
	}
	// The dangling else and the expression grammar resolve statically.
	if len(l.Table.Resolutions()) < 100 {
		t.Fatalf("expected many static resolutions, got %d", len(l.Table.Resolutions()))
	}
}

func TestValidPrograms(t *testing.T) {
	programs := []string{
		`class A { }`,
		`public class A { int x; }`,
		`class A { int x = 1 + 2 * 3; }`,
		`class A { void m() { } }`,
		`class A { static int f(int a, int b) { return a + b; } }`,
		`class A { void m() { int x = 1; x = x + 1; } }`,
		`class A { void m() { if (x > 0) y = 1; else y = 2; } }`,
		`class A { void m() { while (i < n) i = i + 1; } }`,
		`class A { void m() { for (int i = 0; i < 10; i = i + 1) sum = sum + i; } }`,
		`class A { void m() { for (;;) break; } }`,
		`class A { boolean flag = true; String s = "hi"; }`,
		`class A { void m() { obj.field.method(1, 2).other(); } }`,
		`class A { void m() { int[] z; z[0] = 1; } }`,
		`class A { void m() { int[][] grid; grid[i][j] = grid[j][i]; } }`,
		`class A { void m() { x = new Point(1, 2); a = new int[10]; } }`,
		`class A { void m() { if (a && b || !c) return; } }`,
		`class A { void m() { return x == y != z; } }`,
		`class A { void m() { ; ; ; } }`,
		`class A { } class B { } class C { }`,
		`class A { void m() { this.x = null; } }`,
		"class A { // comment\n /* block */ int x; }",
	}
	for _, src := range programs {
		root, _ := parse(t, src)
		if root.Ambiguous() {
			t.Fatalf("unexpected ambiguity for:\n%s\n%s", src, dag.Format(javasub.Lang().Grammar, root))
		}
		if iglr.CountParses(root) != 1 {
			t.Fatalf("parses != 1 for:\n%s", src)
		}
	}
}

func TestInvalidPrograms(t *testing.T) {
	l := javasub.Lang()
	for _, src := range []string{
		`class { }`,
		`class A {`,
		`class A { int; }`,
		`class A { void m() { if } }`,
		`class A { void m() { x = ; } }`,
		`class A { void m() { return return; } }`,
		`int x;`,
	} {
		p := iglr.New(l.Table)
		d := l.NewDocument(src)
		if _, err := p.Parse(d.Stream()); err == nil {
			t.Fatalf("accepted invalid program:\n%s", src)
		}
	}
}

func TestArrayDeclVsIndexForking(t *testing.T) {
	// Both readings share the `ID [` prefix; the parser must fork and the
	// survivor depends on the next token.
	root, stats := parse(t, `class A { void m() { Foo[] x; } }`)
	if stats.MaxActiveParsers < 2 {
		t.Fatalf("array-type declaration should fork: %+v", stats)
	}
	hasDecl := false
	root.Walk(func(n *dag.Node) {
		if n.Kind == dag.KindProduction && javasub.Lang().Grammar.Name(n.Sym) == "LocalDecl" {
			hasDecl = true
		}
	})
	if !hasDecl {
		t.Fatal("should resolve to a local declaration")
	}

	root2, stats2 := parse(t, `class A { void m() { foo[1] = 2; } }`)
	if stats2.MaxActiveParsers < 2 {
		t.Fatalf("array index should fork too: %+v", stats2)
	}
	hasAssign := false
	root2.Walk(func(n *dag.Node) {
		if n.Kind == dag.KindProduction && javasub.Lang().Grammar.Name(n.Sym) == "Postfix" && len(n.Kids) == 4 {
			hasAssign = true
		}
	})
	if !hasAssign {
		t.Fatal("should resolve to an index expression")
	}
}

func TestDanglingElseBindsToNearest(t *testing.T) {
	root, _ := parse(t, `class A { void m() { if (a) if (b) x = 1; else x = 2; } }`)
	// Prefer-shift: the else belongs to the inner if, so exactly one Stmt
	// node has the 7-child IF/ELSE shape and it contains both assignments.
	l := javasub.Lang()
	var ifElse *dag.Node
	root.Walk(func(n *dag.Node) {
		if n.Kind == dag.KindProduction && l.Grammar.Name(n.Sym) == "Stmt" && len(n.Kids) == 7 {
			ifElse = n
		}
	})
	if ifElse == nil {
		t.Fatal("no if/else statement found")
	}
	if y := ifElse.Yield(); !strings.HasPrefix(y, "if(b)") {
		t.Fatalf("else bound to the wrong if: %q", y)
	}
}

func TestOperatorPrecedenceShape(t *testing.T) {
	root, _ := parse(t, `class A { int v = a + b * c == d && e || f; } `)
	// The top of the initializer must be ||, then &&, then ==, then +.
	l := javasub.Lang()
	var field *dag.Node
	root.Walk(func(n *dag.Node) {
		if n.Kind == dag.KindProduction && l.Grammar.Name(n.Sym) == "FieldDecl" {
			field = n
		}
	})
	if field == nil {
		t.Fatal("no field")
	}
	expr := field.Kids[4]
	for _, wantOp := range []string{"OROR", "ANDAND", "EQEQ", "'+'"} {
		if len(expr.Kids) != 3 {
			t.Fatalf("expected binary node for %s, got %s", wantOp, l.Grammar.Name(expr.Sym))
		}
		if got := l.Grammar.Name(expr.Kids[1].Sym); got != wantOp {
			t.Fatalf("operator order: got %s, want %s", got, wantOp)
		}
		expr = expr.Kids[0]
	}
}

// bigClass generates a realistic multi-method class.
func bigClass(methods int) string {
	var sb strings.Builder
	sb.WriteString("public class Big {\n")
	sb.WriteString("  static int total;\n")
	for i := 0; i < methods; i++ {
		fmt.Fprintf(&sb, `  int method%d(int a, int b) {
    int result = 0;
    for (int i = 0; i < a; i = i + 1) {
      if (i %% 2 == 0) { result = result + i * b; }
      else { result = result - i; }
    }
    return result;
  }
`, i)
	}
	sb.WriteString("}\n")
	return sb.String()
}

func TestIncrementalEditingOnJava(t *testing.T) {
	l := javasub.Lang()
	src := bigClass(120)
	d := l.NewDocument(src)
	p := iglr.New(l.Table)
	root, err := p.Parse(d.Stream())
	if err != nil {
		t.Fatal(err)
	}
	d.Commit(root)
	full := p.Stats.TerminalShifts

	// Rename a literal deep inside one method.
	off := strings.Index(src, "method60")
	off = strings.Index(src[off:], "result + i") + off
	d.Replace(off+len("result + i"), 0, " + 7")
	root2, err := p.Parse(d.Stream())
	if err != nil {
		t.Fatal(err)
	}
	d.Commit(root2)
	if p.Stats.TerminalShifts > 60 {
		t.Fatalf("incremental Java reparse shifted %d terminals (full parse: %d)",
			p.Stats.TerminalShifts, full)
	}
	if !strings.Contains(root2.Yield(), "result+i+7") {
		t.Fatal("edit missing from tree")
	}

	// Structure matches a batch parse of the edited text.
	dRef := l.NewDocument(d.Text())
	want, err := iglr.New(l.Table).Parse(dRef.Stream())
	if err != nil {
		t.Fatal(err)
	}
	dRef.Commit(want)
	if dag.Measure(root2).DagNodes != dag.Measure(dRef.Root()).DagNodes {
		t.Fatal("incremental structure diverges from batch")
	}
}

func TestErrorRecoveryOnJava(t *testing.T) {
	l := javasub.Lang()
	d := l.NewDocument(`class A { void m() { x = 1; } }`)
	p := iglr.New(l.Table)
	root, err := p.Parse(d.Stream())
	if err != nil {
		t.Fatal(err)
	}
	d.Commit(root)
	// Breaking edit keeps the committed tree.
	d.Replace(21, 1, "(")
	if _, err := p.Parse(d.Stream()); err == nil {
		t.Fatal("expected parse error")
	}
	if d.Root() != root {
		t.Fatal("committed tree lost")
	}
}
