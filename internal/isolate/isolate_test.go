package isolate_test

import (
	"errors"
	"strings"
	"testing"

	"iglr/internal/dag"
	"iglr/internal/document"
	"iglr/internal/guard"
	"iglr/internal/iglr"
	"iglr/internal/isolate"
	"iglr/internal/langs/csub"
)

// commit parses the document from scratch and commits the result, giving
// isolation a committed tree to lean on.
func commit(t *testing.T, d *document.Document, p *iglr.Parser) {
	t.Helper()
	root, err := p.Parse(d.Stream())
	if err != nil {
		t.Fatalf("baseline parse: %v", err)
	}
	d.Commit(root)
}

func TestIsolateMiddleStatement(t *testing.T) {
	l := csub.Lang()
	d := l.NewDocument("int a; int b; int c;")
	p := iglr.New(l.Table)
	commit(t, d, p)

	d.Replace(11, 1, "(") // int b; -> int (;
	if _, err := p.Parse(d.Stream()); err == nil {
		t.Fatal("the broken text must not parse")
	}

	res, err := isolate.Reparse(nil, d, p)
	if err != nil {
		t.Fatalf("Reparse: %v", err)
	}
	if len(res.Errors) != 1 {
		t.Fatalf("error nodes = %d, want 1", len(res.Errors))
	}
	if got := dag.CollectErrors(res.Root); len(got) != 1 || got[0] != res.Errors[0] {
		t.Fatalf("CollectErrors disagrees with Result.Errors: %v vs %v", got, res.Errors)
	}
	if d.Text() != "int a; int (; int c;" {
		t.Fatalf("isolation modified the text: %q", d.Text())
	}
	// The quarantined tokens are kept verbatim under the error node.
	e := res.Errors[0]
	var toks []string
	for _, k := range e.Kids {
		toks = append(toks, k.Text)
	}
	if got := strings.Join(toks, " "); got != "int ( ;" {
		t.Fatalf("quarantined tokens = %q, want %q", got, "int ( ;")
	}
	if e.Err == nil || len(e.Err.Expected) == 0 {
		t.Fatalf("error detail missing expected-token set: %+v", e.Err)
	}
	if e.Err.Region < 0 {
		t.Fatalf("error detail missing isolating region: %+v", e.Err)
	}
	d.Commit(res.Root)

	// Repairing the statement converges to the batch parse, byte for byte.
	d.Replace(11, 1, "b")
	root, err := p.Parse(d.Stream())
	if err != nil {
		t.Fatalf("repaired parse: %v", err)
	}
	d.Commit(root)
	batch := l.NewDocument(d.Text())
	fresh, err := iglr.New(l.Table).Parse(batch.Stream())
	if err != nil {
		t.Fatalf("batch parse: %v", err)
	}
	batch.Commit(fresh)
	if got, want := dag.Format(l.Grammar, d.Root()), dag.Format(l.Grammar, batch.Root()); got != want {
		t.Fatalf("repaired tree differs from batch parse:\n-- incremental --\n%s\n-- batch --\n%s", got, want)
	}
}

func TestIsolateNestedBlockStatement(t *testing.T) {
	l := csub.Lang()
	d := l.NewDocument("int a; { int b; } int c;")
	p := iglr.New(l.Table)
	commit(t, d, p)

	d.Replace(13, 1, ")") // inner: int b; -> int );
	res, err := isolate.Reparse(nil, d, p)
	if err != nil {
		t.Fatalf("Reparse: %v", err)
	}
	if len(res.Errors) != 1 {
		t.Fatalf("error nodes = %d, want 1", len(res.Errors))
	}
	if d.Text() != "int a; { int ); } int c;" {
		t.Fatalf("text = %q", d.Text())
	}
	// Damage confined inside the block: the braces and both outer
	// statements survive outside the quarantine.
	if tc := int(res.Errors[0].TermCount); tc > 3 {
		t.Fatalf("quarantine spans %d tokens; the inner statement has 3", tc)
	}
	d.Commit(res.Root)

	d.Replace(13, 1, "b")
	root, err := p.Parse(d.Stream())
	if err != nil {
		t.Fatalf("repaired parse: %v", err)
	}
	fresh, err := iglr.New(l.Table).Parse(l.NewDocument(d.Text()).Stream())
	if err != nil {
		t.Fatal(err)
	}
	if dag.Format(l.Grammar, root) != dag.Format(l.Grammar, fresh) {
		t.Fatal("repaired tree differs from batch parse")
	}
}

func TestIsolateWithoutCommittedTree(t *testing.T) {
	// Batch case: no committed structure to name elements, so isolation
	// falls back to token regions plus the panic-mode leftward creep.
	l := csub.Lang()
	d := l.NewDocument("int a; int (; int c;")
	p := iglr.New(l.Table)

	res, err := isolate.Reparse(nil, d, p)
	if err != nil {
		t.Fatalf("Reparse: %v", err)
	}
	if len(res.Errors) == 0 {
		t.Fatal("no error nodes")
	}
	if d.Text() != "int a; int (; int c;" {
		t.Fatalf("text = %q", d.Text())
	}
	// The undamaged statements survive outside the quarantine.
	total := 0
	for _, r := range res.Regions {
		total += r.Len()
	}
	if total >= len(d.Terminals()) {
		t.Fatalf("quarantine swallowed all %d terminals", total)
	}
}

func TestIsolateWholeFileGarbageUnbounded(t *testing.T) {
	l := csub.Lang()
	d := l.NewDocument("int a;")
	p := iglr.New(l.Table)
	commit(t, d, p)

	d.Replace(0, 6, ") ) ) )")
	_, err := isolate.Reparse(nil, d, p)
	if !errors.Is(err, isolate.ErrUnbounded) {
		t.Fatalf("err = %v, want ErrUnbounded", err)
	}
	if d.Text() != ") ) ) )" {
		t.Fatalf("isolation must not touch the text even when it gives up: %q", d.Text())
	}
}

func TestBudgetErrorPropagates(t *testing.T) {
	l := csub.Lang()
	d := l.NewDocument("int a; int b; int c;")
	p := iglr.New(l.Table)
	commit(t, d, p)

	d.Replace(11, 1, "(")
	p.Budget = guard.Budget{MaxArenaNodes: 1}
	_, err := isolate.Reparse(nil, d, p)
	if !errors.Is(err, guard.ErrBudget) {
		t.Fatalf("err = %v, want a budget error", err)
	}
	if errors.Is(err, isolate.ErrUnbounded) {
		t.Fatal("a budget trip must not be classified as unbounded damage")
	}
}

func TestMultipleRegions(t *testing.T) {
	l := csub.Lang()
	var sb strings.Builder
	for i := 0; i < 8; i++ {
		sb.WriteString("int v; ")
	}
	d := l.NewDocument(sb.String())
	p := iglr.New(l.Table)
	commit(t, d, p)

	// Break statements 2 and 5 independently.
	d.Replace(2*7+4, 1, "(")
	d.Replace(5*7+4, 1, ")")
	res, err := isolate.Reparse(nil, d, p)
	if err != nil {
		t.Fatalf("Reparse: %v", err)
	}
	if len(res.Errors) != 2 {
		t.Fatalf("error nodes = %d, want 2", len(res.Errors))
	}
	if strings.Count(dag.Format(l.Grammar, res.Root), "ERROR") != 2 {
		t.Fatalf("format does not show both quarantines:\n%s", dag.Format(l.Grammar, res.Root))
	}
}
