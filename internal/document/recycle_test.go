package document

import (
	"strings"
	"testing"
)

// TestReleaseBuffersRoundTrip: buffers released from one document seed the
// next with zero divergence in tokens/terminals, storage actually reused,
// and no stale pointers retained.
func TestReleaseBuffersRoundTrip(t *testing.T) {
	l := newTestLang(t)

	srcA := strings.Repeat("alpha = 12 + beta;\n", 50)
	srcB := strings.Repeat("gamma = 9;\n", 30)

	d1 := New(l.spec, l.g, l.mapper, srcA)
	nToks := len(d1.Tokens())
	toks, terms := d1.ReleaseBuffers()
	if len(toks) != 0 || len(terms) != 0 {
		t.Fatal("released buffers not length-reset")
	}
	if cap(toks) < nToks {
		t.Fatalf("released token capacity %d < %d", cap(toks), nToks)
	}
	for _, n := range terms[:cap(terms)] {
		if n != nil {
			t.Fatal("released terminal storage still pins a dag node")
		}
	}
	for _, tok := range toks[:cap(toks)] {
		if tok.Text != "" {
			t.Fatal("released token storage still pins the old text")
		}
	}

	d2 := NewOpts(l.spec, l.g, l.mapper, srcB, Options{Toks: toks, Terms: terms})
	fresh := New(l.spec, l.g, l.mapper, srcB)
	gotToks, wantToks := d2.Tokens(), fresh.Tokens()
	if len(gotToks) != len(wantToks) {
		t.Fatalf("recycled doc: %d tokens, fresh %d", len(gotToks), len(wantToks))
	}
	for i := range wantToks {
		if gotToks[i] != wantToks[i] {
			t.Fatalf("token %d: recycled %+v, fresh %+v", i, gotToks[i], wantToks[i])
		}
	}
	if len(d2.Terminals()) != len(fresh.Terminals()) {
		t.Fatal("terminal count diverges")
	}
	if &d2.Terminals()[0] != &terms[:1][0] {
		t.Fatal("donated terminal storage was not reused")
	}

	// The recycled document must still edit correctly, and release the
	// donated token storage again.
	d2.Replace(0, 5, "delta")
	if got := d2.Text(); !strings.HasPrefix(got, "delta = 9;") {
		t.Fatalf("edit on recycled doc: %q", got[:12])
	}
	if again, _ := d2.ReleaseBuffers(); &again[:1][0] != &toks[:1][0] {
		t.Fatal("donated token storage was not reused")
	}
}
