package javasub_test

import (
	"math/rand"
	"strings"
	"testing"

	"iglr/internal/dag"
	"iglr/internal/iglr"
	"iglr/internal/langs/javasub"
)

// TestFuzzIncrementalEqualsBatch hammers the full pipeline on Java source:
// random edits, incremental reparse, structural comparison against a fresh
// batch parse. Failing edits are reverted (and the revert must parse).
func TestFuzzIncrementalEqualsBatch(t *testing.T) {
	l := javasub.Lang()
	rng := rand.New(rand.NewSource(31337))
	d := l.NewDocument(bigClass(8))
	p := iglr.New(l.Table)
	root, err := p.Parse(d.Stream())
	if err != nil {
		t.Fatal(err)
	}
	d.Commit(root)

	pieces := []string{
		"x", "42", " ", ";", "=", "+", "(", ")", "{", "}", "[", "]",
		"int q; ", "if (x) y = 1; ", "m(a, b)", "\"str\"", "// c\n", "new T(1)",
	}
	parses, reverts := 0, 0
	for step := 0; step < 250; step++ {
		txt := d.Text()
		off := rng.Intn(len(txt) + 1)
		rem := 0
		if off < len(txt) {
			rem = rng.Intn(minI(len(txt)-off, 6))
		}
		removed := txt[off : off+rem]
		ins := ""
		if rng.Intn(4) > 0 {
			ins = pieces[rng.Intn(len(pieces))]
		}
		d.Replace(off, rem, ins)

		root, err := p.Parse(d.Stream())
		if err != nil {
			d.Replace(off, len(ins), removed)
			root2, err2 := p.Parse(d.Stream())
			if err2 != nil {
				t.Fatalf("step %d: revert does not parse: %v", step, err2)
			}
			d.Commit(root2)
			reverts++
			continue
		}
		// Compare against batch.
		dRef := l.NewDocument(d.Text())
		want, errRef := iglr.New(l.Table).Parse(dRef.Stream())
		if errRef != nil {
			t.Fatalf("step %d: incremental accepted what batch rejects: %v", step, errRef)
		}
		d.Commit(root)
		dRef.Commit(want)
		if !structEqual(d.Root(), dRef.Root()) {
			t.Fatalf("step %d: structure mismatch for:\n%s", step, d.Text())
		}
		parses++
	}
	if parses < 40 || reverts < 40 {
		t.Fatalf("coverage too thin: %d parses, %d reverts", parses, reverts)
	}
}

func structEqual(a, b *dag.Node) bool {
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
		if !structEqual(a.Kids[i], b.Kids[i]) {
			return false
		}
	}
	return true
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestUnicodeInStringsAndComments(t *testing.T) {
	l := javasub.Lang()
	p := iglr.New(l.Table)
	src := "class A { String s = \"héllo wörld → ok\"; /* コメント */ int x; }"
	d := l.NewDocument(src)
	root, err := p.Parse(d.Stream())
	if err != nil {
		t.Fatal(err)
	}
	d.Commit(root)
	if !strings.Contains(root.Yield(), "héllo") {
		t.Fatal("unicode string lost")
	}
	// Edit inside the unicode string (byte-aligned to the rune).
	off := strings.Index(d.Text(), "wörld")
	d.Replace(off, len("wörld"), "мир")
	root2, err := p.Parse(d.Stream())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(root2.Yield(), "мир") {
		t.Fatal("unicode edit lost")
	}
}

func TestRuneSplittingEditRecovers(t *testing.T) {
	// An edit that splits a multi-byte rune leaves invalid UTF-8; the
	// lexer must produce error tokens (not panic) and a follow-up edit
	// restoring valid text must parse again.
	l := javasub.Lang()
	p := iglr.New(l.Table)
	src := `class A { String s = "héllo"; }`
	d := l.NewDocument(src)
	root, err := p.Parse(d.Stream())
	if err != nil {
		t.Fatal(err)
	}
	d.Commit(root)

	off := strings.IndexRune(src, 'é')
	d.Replace(off, 1, "") // removes only the first byte of é
	// The document survives; parse may fail or succeed depending on how
	// the broken byte lexes, but must not panic.
	if r, err := p.Parse(d.Stream()); err == nil {
		d.Commit(r)
	}
	// Restore a clean string.
	end := strings.Index(d.Text(), `"h`)
	quote2 := strings.Index(d.Text()[end+1:], `"`) + end + 1
	d.Replace(end, quote2-end+1, `"hello"`)
	r, err := p.Parse(d.Stream())
	if err != nil {
		t.Fatalf("restored text should parse: %v (text %q)", err, d.Text())
	}
	d.Commit(r)
}
