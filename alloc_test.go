// Allocation guards for the flattened hot path: the arenas, epoch scratch
// tables, and persistent parser/document buffers are all reused across
// incremental rounds, so a steady-state reparse must not allocate beyond
// the structure it actually rebuilds. These tests pin that property so a
// regression shows up as a test failure, not a benchmark drift.
package incremental_test

import (
	"context"
	"runtime"
	"strings"
	"testing"

	incremental "iglr"
	"iglr/internal/corpus"
)

// TestDeterministicReparseAllocFree pins the strongest form: a clean
// reparse on the deterministic path (no pending edits — the committed root
// is offered, state-matched, and shifted whole) allocates nothing. Every
// structure it touches is persistent: the document's terminal buffer and
// stream, the parser's stack, and the committed tree itself.
func TestDeterministicReparseAllocFree(t *testing.T) {
	s := incremental.NewSession(incremental.Modula2Subset(),
		"MODULE M;\nVAR x : INTEGER;\nBEGIN\n  x := 1\nEND M.\n")
	if err := s.UseDeterministic(); err != nil {
		t.Fatal(err)
	}
	if out := s.Do(nil); out.Err != nil {
		t.Fatal(out.Err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if out := s.Do(nil); out.Err != nil {
			t.Fatal(out.Err)
		}
	})
	if allocs != 0 {
		t.Fatalf("clean deterministic reparse allocated %.1f objects/run, want 0", allocs)
	}
}

// TestDeterministicEditReparseAllocsBounded pins the edit case on the
// deterministic path: a one-token edit rebuilds only the damaged spine, so
// a reparse allocates O(damage) — fresh terminals, the handful of
// productions above them, and at most an arena chunk — never O(tree).
func TestDeterministicEditReparseAllocsBounded(t *testing.T) {
	src := "MODULE M;\nVAR x : INTEGER;\nBEGIN\n  x := 1\nEND M.\n"
	s := incremental.NewSession(incremental.Modula2Subset(), src)
	if err := s.UseDeterministic(); err != nil {
		t.Fatal(err)
	}
	if out := s.Do(nil); out.Err != nil {
		t.Fatal(out.Err)
	}
	off := strings.Index(src, "1")
	flip := false
	allocs := testing.AllocsPerRun(100, func() {
		flip = !flip
		repl := "1"
		if flip {
			repl = "2"
		}
		s.Edit(off, 1, repl)
		if out := s.Do(nil); out.Err != nil {
			t.Fatal(out.Err)
		}
	})
	t.Logf("deterministic one-token reparse: %.1f allocs/run", allocs)
	const maxAllocs = 40
	if allocs > maxAllocs {
		t.Fatalf("one-token deterministic reparse allocated %.1f objects/run, want ≤ %d", allocs, maxAllocs)
	}
}

// TestIGLRReparseAllocsBounded pins the GLR path: the GSS arenas, sharer
// maps, and reduction scratch persist inside the parser, so a one-token
// incremental reparse is bounded by the damage region even though the
// parser must run its full fork/merge machinery.
func TestIGLRReparseAllocsBounded(t *testing.T) {
	src := "int x; int y; T * a; x = y + 1; a = x * y;"
	s := incremental.NewSession(incremental.CSubset(), src)
	if out := s.Do(nil); out.Err != nil {
		t.Fatal(out.Err)
	}
	off := strings.Index(src, "y")
	flip := false
	allocs := testing.AllocsPerRun(100, func() {
		flip = !flip
		repl := "y"
		if flip {
			repl = "z"
		}
		s.Edit(off, 1, repl)
		if out := s.Do(nil); out.Err != nil {
			t.Fatal(out.Err)
		}
	})
	t.Logf("IGLR one-token reparse: %.1f allocs/run", allocs)
	const maxAllocs = 120
	if allocs > maxAllocs {
		t.Fatalf("one-token IGLR reparse allocated %.1f objects/run, want ≤ %d", allocs, maxAllocs)
	}
}

// TestEditBytesIndependentOfFileSize pins the edit path in work and bytes,
// not time: Session.Edit rewrites only the run of the document's token
// stream that the damage touches and moves the sums of the run headers
// after it, copying only the fresh lexemes. So for three edit shapes — the
// benchmark's same-length identifier overwrite, a one-byte insert and its
// delete, and a comment inserted and removed before an identifier, which
// changes the token count — the splice work of one edit (the document's
// LastSpliceWork: token and terminal slots written, plus run headers
// visited) at 16,000 lines stays within 2× of its value at 1,000 lines,
// where a whole-tail shift would grow 16×. The benchmark's shape also
// allocates at most 4 KB per edit at both sizes: an object count cannot
// see a whole-stream copy, which is a single object. Each edit is measured
// alone; the Do that commits it runs outside the count.
func TestEditBytesIndependentOfFileSize(t *testing.T) {
	const (
		pairs       = 60 // 120 measured edits
		maxPerEdit  = 4 << 10
		warmupPairs = 10
	)
	shapes := []struct {
		name string
		pair func(p corpus.Edit) [2]corpus.Edit // from the overwrite pair's first edit
	}{
		{"identifier overwrite", nil},
		{"one-byte insert", func(p corpus.Edit) [2]corpus.Edit {
			return [2]corpus.Edit{{Offset: p.Offset, Inserted: "q"}, {Offset: p.Offset, Removed: 1}}
		}},
		{"comment insert", func(p corpus.Edit) [2]corpus.Edit {
			return [2]corpus.Edit{{Offset: p.Offset, Inserted: "/**/"}, {Offset: p.Offset, Removed: 4}}
		}},
	}
	type cost struct{ work, bytes float64 }
	srcs := map[int]string{}
	for _, lines := range []int{1000, 16000} {
		srcs[lines], _ = corpus.Generate(corpus.Spec{Name: "edit", Lines: lines, Lang: "c", Seed: 1})
	}
	measure := func(lines int, shape int) cost {
		src := srcs[lines]
		s := incremental.NewSession(incremental.CSubset(), src)
		if out := s.Do(context.Background()); !out.Clean {
			t.Fatalf("%d lines: initial parse: %v", lines, out.Err)
		}
		script := corpus.SelfCancellingEdits(src, warmupPairs+pairs, 2)
		var before, after runtime.MemStats
		var bytes uint64
		work, edits := 0, 0
		for i, pair := range script {
			if f := shapes[shape].pair; f != nil {
				pair = f(pair[0])
			}
			for _, e := range pair {
				runtime.ReadMemStats(&before)
				s.Edit(e.Offset, e.Removed, e.Inserted)
				runtime.ReadMemStats(&after)
				if i >= warmupPairs {
					bytes += after.TotalAlloc - before.TotalAlloc
					work += incremental.SpliceWork(s)
					edits++
				}
				if out := s.Do(context.Background()); !out.Clean {
					t.Fatalf("%d lines: reparse after %+v: %v", lines, e, out.Err)
				}
			}
		}
		c := cost{work: float64(work) / float64(edits), bytes: float64(bytes) / float64(edits)}
		t.Logf("%s, %d lines (%d bytes): Session.Edit does %.0f splice work and allocates %.0f B per edit over %d edits",
			shapes[shape].name, lines, len(src), c.work, c.bytes, edits)
		return c
	}
	for i, shape := range shapes {
		small, large := measure(1000, i), measure(16000, i)
		if large.work > 2*small.work {
			t.Errorf("%s: splice work per edit grows with the file: %.0f at 16,000 lines vs %.0f at 1,000", shape.name, large.work, small.work)
		}
		if i == 0 && max(small.bytes, large.bytes) > maxPerEdit {
			t.Errorf("%s: Session.Edit allocates %.0f / %.0f B per edit at 1,000 / 16,000 lines, want <= %d", shape.name, small.bytes, large.bytes, maxPerEdit)
		}
	}
}

// TestEditWorkIndependentOfFileSize pins what balanced sequences buy (§3.4)
// in work counters rather than time: with every sequence committed as a
// balanced tree and clean pieces consumed whole, a one-token edit costs the
// parser O(lg n) stream steps and the commit O(lg n) new nodes, so the
// shifts and reductions of a Do, and the bytes it allocates, barely move
// from a 1,000-line file to a 16,000-line one (35 vs 40 shifts+reductions,
// 3.7 vs 5.3 KB). Left-recursive sequences re-shift the list suffix
// instead: 994 shifts+reductions and 92 KB per Do at 16,000 lines against
// 92 and 8 KB at 1,000.
func TestEditWorkIndependentOfFileSize(t *testing.T) {
	const (
		pairs       = 60 // 120 measured reparses
		warmupPairs = 10
	)
	type work struct{ steps, bytes float64 }
	measure := func(lines int) work {
		src, _ := corpus.Generate(corpus.Spec{Name: "edit", Lines: lines, Lang: "c", Seed: 1})
		s := incremental.NewSession(incremental.CSubset(), src)
		if out := s.Do(context.Background()); !out.Clean {
			t.Fatalf("%d lines: initial parse: %v", lines, out.Err)
		}
		script := corpus.SelfCancellingEdits(src, warmupPairs+pairs, 2)
		var before, after runtime.MemStats
		var steps int
		var bytes uint64
		dos := 0
		for i, pair := range script {
			for _, e := range pair {
				s.Edit(e.Offset, e.Removed, e.Inserted)
				runtime.ReadMemStats(&before)
				out := s.Do(context.Background())
				runtime.ReadMemStats(&after)
				if !out.Clean {
					t.Fatalf("%d lines: reparse after %+v: %v", lines, e, out.Err)
				}
				if i >= warmupPairs {
					steps += out.Stats.Shifts + out.Stats.Reductions
					bytes += after.TotalAlloc - before.TotalAlloc
					dos++
				}
			}
		}
		w := work{steps: float64(steps) / float64(dos), bytes: float64(bytes) / float64(dos)}
		t.Logf("%d lines: %.1f shifts+reductions, %.0f B allocated per Do over %d reparses", lines, w.steps, w.bytes, dos)
		return w
	}
	small, large := measure(1000), measure(16000)
	if large.steps > 2*small.steps {
		t.Fatalf("shifts+reductions per Do grow with the file: %.1f at 16,000 lines vs %.1f at 1,000", large.steps, small.steps)
	}
	if large.bytes > 2*small.bytes {
		t.Fatalf("bytes per Do grow with the file: %.0f at 16,000 lines vs %.0f at 1,000", large.bytes, small.bytes)
	}
}
