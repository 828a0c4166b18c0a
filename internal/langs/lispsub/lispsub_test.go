package lispsub_test

import (
	"fmt"
	"strings"
	"testing"

	"iglr/internal/dag"
	"iglr/internal/iglr"
	"iglr/internal/langs/lispsub"
)

func TestBasicForms(t *testing.T) {
	l := lispsub.Lang()
	if !l.Table.Deterministic() {
		t.Fatalf("lisp grammar should be deterministic:\n%s", l.Table.DescribeConflicts())
	}
	p := iglr.New(l.Table)
	for _, src := range []string{
		`42`,
		`(+ 1 2)`,
		`(define (square x) (* x x))`,
		`'(a b c)`,
		`''nested-quote`,
		`(let ((x 1) (y 2)) (+ x y)) ; comment`,
		`"a string" (another form)`,
		`()`,
		`(- -1 -2.5)`,
	} {
		d := l.NewDocument(src)
		if _, err := p.Parse(d.Stream()); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
	}
	for _, bad := range []string{`(`, `)`, `(a (b)`, `'`, `(])`} {
		d := l.NewDocument(bad)
		if _, err := p.Parse(d.Stream()); err == nil {
			t.Fatalf("%q should be rejected", bad)
		}
	}
}

func TestDeepNesting(t *testing.T) {
	l := lispsub.Lang()
	p := iglr.New(l.Table)
	depth := 300
	src := strings.Repeat("(a ", depth) + "x" + strings.Repeat(")", depth)
	d := l.NewDocument(src)
	root, err := p.Parse(d.Stream())
	if err != nil {
		t.Fatal(err)
	}
	if root.Yield() != strings.ReplaceAll(src, " ", "") {
		t.Fatal("yield mismatch")
	}
}

func TestLongListIncrementalEdit(t *testing.T) {
	l := lispsub.Lang()
	p := iglr.New(l.Table)
	var sb strings.Builder
	sb.WriteString("(list")
	for i := 0; i < 800; i++ {
		fmt.Fprintf(&sb, " item%d", i)
	}
	sb.WriteString(")")
	src := sb.String()
	d := l.NewDocument(src)
	root, err := p.Parse(d.Stream())
	if err != nil {
		t.Fatal(err)
	}
	d.Commit(root)

	off := strings.Index(src, "item400")
	d.Replace(off, len("item400"), "replaced")
	root2, err := p.Parse(d.Stream())
	if err != nil {
		t.Fatal(err)
	}
	d.Commit(root2)
	if p.Stats.TerminalShifts > 6 {
		t.Fatalf("edit in a long list relexed %d tokens", p.Stats.TerminalShifts)
	}
	if !strings.Contains(root2.Yield(), "replaced") {
		t.Fatal("edit missing")
	}

	// The element sequence is associative: the commit stores it balanced.
	var maxLen int
	d.Root().Walk(func(n *dag.Node) {
		if n.Kind == dag.KindSeq {
			if sl := int(n.SeqCount); sl > maxLen {
				maxLen = sl
			}
		}
	})
	if maxLen < 800 {
		t.Fatalf("expected an 800+-element balanced sequence, got %d", maxLen)
	}
}

func TestQuoteSugarStructure(t *testing.T) {
	l := lispsub.Lang()
	p := iglr.New(l.Table)
	d := l.NewDocument(`'(f x)`)
	root, err := p.Parse(d.Stream())
	if err != nil {
		t.Fatal(err)
	}
	// Form → QUOTE Form with the list inside.
	var quoted *dag.Node
	root.Walk(func(n *dag.Node) {
		if n.Kind == dag.KindProduction && l.Grammar.Name(n.Sym) == "Form" && len(n.Kids) == 2 {
			quoted = n
		}
	})
	if quoted == nil {
		t.Fatal("quote form not found")
	}
	if quoted.Kids[0].Text != "'" {
		t.Fatalf("quote terminal = %q", quoted.Kids[0].Text)
	}
}
