package scannerless_test

import (
	"strings"
	"testing"

	"iglr/internal/dag"
	"iglr/internal/iglr"
	"iglr/internal/langs/scannerless"
)

func TestScannerlessBasics(t *testing.T) {
	l := scannerless.Lang()
	if l.Table.Deterministic() {
		t.Fatal("the keyword/identifier prefix problem should leave conflicts")
	}
	p := iglr.New(l.Table)
	for _, src := range []string{
		"x=1;",
		"abc=12+34;",
		"if(x)y=2;",
		"{x=1;y=2;}",
		"if(1)if(2)x=3;",
		"ifx=1;",    // identifier starting with the keyword letters
		"iffy=ifa;", // both sides
	} {
		d := l.NewDocument(src)
		root, err := p.Parse(d.Stream())
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if root.Yield() != src {
			t.Fatalf("%q: yield %q", src, root.Yield())
		}
		if root.Ambiguous() {
			t.Fatalf("%q: should be unambiguous after context resolution", src)
		}
	}
	for _, bad := range []string{"=1;", "if(x)", "x=;", "1x=2;", "x = 1;"} {
		d := l.NewDocument(bad)
		if _, err := p.Parse(d.Stream()); err == nil {
			t.Fatalf("%q: should be rejected", bad)
		}
	}
}

func TestKeywordPrefixNeedsForking(t *testing.T) {
	l := scannerless.Lang()
	p := iglr.New(l.Table)
	// "if(a)x=1;" — while reading "if(", the parser cannot know whether it
	// is a keyword or an identifier being assigned; GLR forks.
	d := l.NewDocument("if(a)x=1;")
	if _, err := p.Parse(d.Stream()); err != nil {
		t.Fatal(err)
	}
	if p.Stats.MaxActiveParsers < 2 {
		t.Fatalf("expected forking on the keyword prefix, stats %+v", p.Stats)
	}
}

func TestScannerlessIncremental(t *testing.T) {
	l := scannerless.Lang()
	p := iglr.New(l.Table)
	// A long program; identifiers/numbers are character sequences.
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		sb.WriteString("abcdefgh=12345678;")
	}
	src := sb.String()
	d := l.NewDocument(src)
	root, err := p.Parse(d.Stream())
	if err != nil {
		t.Fatal(err)
	}
	d.Commit(root)

	// Edit one digit in the middle.
	off := len(src) / 2
	for src[off] < '0' || src[off] > '9' {
		off++
	}
	d.Replace(off, 1, "9")
	root2, err := p.Parse(d.Stream())
	if err != nil {
		t.Fatal(err)
	}
	d.Commit(root2)
	if p.Stats.TerminalShifts > 25 {
		t.Fatalf("scannerless incremental reparse touched %d characters", p.Stats.TerminalShifts)
	}
	if p.Stats.SubtreeShifts == 0 {
		t.Fatal("expected subtree reuse")
	}
	// Verify against a fresh parse.
	dRef := l.NewDocument(d.Text())
	want, err := iglr.New(l.Table).Parse(dRef.Stream())
	if err != nil {
		t.Fatal(err)
	}
	if root2.Yield() != want.Yield() {
		t.Fatal("incremental result diverges from batch")
	}
}

func TestCharacterSequencesAreAssociative(t *testing.T) {
	l := scannerless.Lang()
	p := iglr.New(l.Table)
	d := l.NewDocument("abcdefghij=1;")
	root, err := p.Parse(d.Stream())
	if err != nil {
		t.Fatal(err)
	}
	// Ident uses Letter+: the commit stores the character chain balanced.
	d.Commit(root)
	found := false
	d.Root().Walk(func(n *dag.Node) {
		if n.Kind == dag.KindSeq && n.SeqCount == 10 {
			found = true
		}
	})
	if !found {
		t.Fatal("expected a balanced 10-letter identifier sequence")
	}
}
