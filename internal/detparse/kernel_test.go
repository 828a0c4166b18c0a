package detparse

import (
	"fmt"
	"strings"
	"testing"

	"iglr/internal/dag"
)

// TestKernelMatchesStreamParse pins the kernel's contract: over a cold
// document, ParseBatch and ParseContext build identical structure and
// identical stats.
func TestKernelMatchesStreamParse(t *testing.T) {
	l := newLang(t)
	var sb strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&sb, "v%d = v%d + %d; ", i, i, i)
	}
	src := sb.String()

	dStream, dBatch := l.doc(src), l.doc(src)
	ps, pb := MustNew(l.tbl), MustNew(l.tbl)

	rootS, err := ps.Parse(dStream.Stream())
	if err != nil {
		t.Fatal(err)
	}
	rootB, err := pb.ParseBatch(nil, dBatch.Terminals(), dBatch.EOFNode(), dBatch.Arena())
	if err != nil {
		t.Fatal(err)
	}
	if !equalStructure(rootS, rootB) {
		t.Fatal("kernel structure differs from stream parse")
	}
	if ps.Stats != pb.Stats {
		t.Fatalf("stats differ: stream %+v, kernel %+v", ps.Stats, pb.Stats)
	}
	// The committed batch tree must serve incremental reparses like any
	// other: edit and reparse through the normal stream path.
	dBatch.Commit(rootB)
	dBatch.Replace(5, 2, "7")
	root2, err := pb.Parse(dBatch.Stream())
	if err != nil {
		t.Fatal(err)
	}
	if pb.Stats.SubtreeShifts == 0 {
		t.Fatalf("no subtree reuse after batch commit: %+v", pb.Stats)
	}
	if !strings.Contains(root2.Yield(), "v0=7+0") {
		t.Fatalf("yield = %q", root2.Yield()[:40])
	}
}

// TestKernelSyntaxError checks error parity with the stream path.
func TestKernelSyntaxError(t *testing.T) {
	l := newLang(t)
	for _, src := range []string{"x = ;", "x = 1", "= 1;", ""} {
		dStream, dBatch := l.doc(src), l.doc(src)
		ps, pb := MustNew(l.tbl), MustNew(l.tbl)
		_, errS := ps.Parse(dStream.Stream())
		_, errB := pb.ParseBatch(nil, dBatch.Terminals(), dBatch.EOFNode(), dBatch.Arena())
		if (errS == nil) != (errB == nil) {
			t.Fatalf("%q: stream err %v, kernel err %v", src, errS, errB)
		}
		if errS != nil && errS.Error() != errB.Error() {
			t.Fatalf("%q: error text differs:\n  stream: %v\n  kernel: %v", src, errS, errB)
		}
	}
}

// TestKernelAllocs guards the satellite fix: reductions draw kid slices from
// the arena's bump allocator, so a cold batch parse allocates O(nodes/chunk)
// slices, not one per reduction.
func TestKernelAllocs(t *testing.T) {
	l := newLang(t)
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "v%d = v%d + %d; ", i, i, i)
	}
	d := l.doc(sb.String())
	terms := d.Terminals()
	eof := d.EOFNode()
	p := MustNew(l.tbl)

	allocs := testing.AllocsPerRun(10, func() {
		arena := dag.NewArena()
		if _, err := p.ParseBatch(nil, terms, eof, arena); err != nil {
			t.Fatal(err)
		}
	})
	// ~1400 nodes and ~2000 kid pointers per parse: chunked allocation puts
	// the per-parse count in the tens. 80 leaves headroom for chunk-size
	// tuning while still failing loudly on any per-reduction allocation
	// (which would cost ~1000 here).
	if allocs > 80 {
		t.Fatalf("cold batch parse allocates too much: %.0f allocs/run", allocs)
	}
}
