// Allocation guards for the flattened hot path: the arenas, epoch scratch
// tables, and persistent parser/document buffers are all reused across
// incremental rounds, so a steady-state reparse must not allocate beyond
// the structure it actually rebuilds. These tests pin that property so a
// regression shows up as a test failure, not a benchmark drift.
package incremental_test

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"strings"
	"testing"

	incremental "iglr"
	"iglr/internal/corpus"
)

// TestReparseAllocFree pins the strongest form: a clean reparse (no
// pending edits — the committed root is offered, state-matched, and
// shifted whole) allocates nothing, on a conflict-free language and on one
// whose table has conflicts. Every structure it touches is persistent: the
// document's terminal buffer and stream, the parser's GSS arenas and
// scratch, and the committed tree itself.
func TestReparseAllocFree(t *testing.T) {
	for _, c := range []struct {
		name string
		lang *incremental.Language
		src  string
	}{
		{"modula2", incremental.Modula2Subset(), "MODULE M;\nVAR x : INTEGER;\nBEGIN\n  x := 1\nEND M.\n"},
		{"c", incremental.CSubset(), "int x; int y; T * a; x = y + 1; a = x * y;"},
	} {
		s := incremental.NewSession(c.lang, c.src)
		if out := s.Do(nil); out.Err != nil {
			t.Fatalf("%s: %v", c.name, out.Err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if out := s.Do(nil); out.Err != nil {
				t.Fatal(out.Err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: clean reparse allocated %.1f objects/run, want 0", c.name, allocs)
		}
	}
}

// TestModula2EditReparseAllocsBounded pins the edit case on a conflict-free
// language: a one-token edit rebuilds only the damaged spine, so a reparse
// allocates O(damage) — fresh terminals, the handful of productions above
// them, and at most an arena chunk — never O(tree).
func TestModula2EditReparseAllocsBounded(t *testing.T) {
	src := "MODULE M;\nVAR x : INTEGER;\nBEGIN\n  x := 1\nEND M.\n"
	s := incremental.NewSession(incremental.Modula2Subset(), src)
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
	t.Logf("Modula-2 one-token reparse: %.1f allocs/run", allocs)
	const maxAllocs = 40
	if allocs > maxAllocs {
		t.Fatalf("one-token Modula-2 reparse allocated %.1f objects/run, want ≤ %d", allocs, maxAllocs)
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

// TestTolerantReparseAllocs: Do(Tolerant()) after a one-token edit that
// parses allocates at most one object more than Do() — the option's
// config. The tolerant path keeps no copy of the pending edits.
func TestTolerantReparseAllocs(t *testing.T) {
	src := "MODULE M;\nVAR x : INTEGER;\nBEGIN\n  x := 1\nEND M.\n"
	off := strings.Index(src, "1")
	measure := func(do func(s *incremental.Session) incremental.Outcome) float64 {
		s := incremental.NewSession(incremental.Modula2Subset(), src)
		if out := s.Do(nil); out.Err != nil {
			t.Fatal(out.Err)
		}
		flip := false
		return testing.AllocsPerRun(200, func() {
			flip = !flip
			repl := "1"
			if flip {
				repl = "2"
			}
			s.Edit(off, 1, repl)
			if out := do(s); out.Err != nil || !out.Clean {
				t.Fatalf("reparse: %+v", out)
			}
		})
	}
	plain := measure(func(s *incremental.Session) incremental.Outcome { return s.Do(nil) })
	tolerant := measure(func(s *incremental.Session) incremental.Outcome { return s.Do(nil, incremental.Tolerant()) })
	t.Logf("one-token reparse: Do() %.1f, Do(Tolerant()) %.1f allocs/run", plain, tolerant)
	if tolerant > plain+1 {
		t.Fatalf("Do(Tolerant()) allocated %.1f objects/run, Do() %.1f: want at most one more", tolerant, plain)
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

// TestTolerantWorkIndependentOfFileSize pins what a syntax error costs in
// work counters, not time: isolation reads terminals through the token
// runs, locates committed nodes from the tree and the pending edits, and
// splices each host sequence from its pieces, so a Do(Tolerant()) that
// isolates an error builds, allocates and handles the same amount whatever
// the file size. Two shapes, at 1,000 and 16,000 lines: a "= ;" break
// before an identifier and its repair, and a clean identifier edit in the
// file's second half while one break near its top persists, which every
// such Do isolates again. Per Do, the arena nodes built, the bytes
// allocated and the isolation's own work (tree nodes and terminals read
// plus sequence parts handled) stay within 2× between the sizes; indexing
// every terminal and rebuilding each host sequence from all its elements
// grew them 3–3.5×, 5–12× and 16×.
func TestTolerantWorkIndependentOfFileSize(t *testing.T) {
	const (
		pairs       = 60
		warmupPairs = 10
		brk         = "= ;"
	)
	type work struct{ nodes, bytes, isolate float64 }
	shapes := []string{"break and repair", "clean edit while a break persists"}
	measure := func(lines, shape int) work {
		src, _ := corpus.Generate(corpus.Spec{Name: "edit", Lines: lines, Lang: "c", Seed: 1})
		s := incremental.NewSession(incremental.CSubset(), src)
		if out := s.Do(context.Background()); !out.Clean {
			t.Fatalf("%d lines: initial parse: %v", lines, out.Err)
		}
		var (
			w             work
			dos           int
			before, after runtime.MemStats
			tolerant      = incremental.Tolerant()
			measured      bool
		)
		do := func(what string, wantRegions int) {
			nodes := incremental.ArenaNodes(s)
			runtime.ReadMemStats(&before)
			out := s.Do(context.Background(), tolerant)
			runtime.ReadMemStats(&after)
			if out.Err != nil || out.ErrorRegions != wantRegions || out.Clean != (wantRegions == 0) {
				t.Fatalf("%d lines, %s: want %d regions, got %+v", lines, what, wantRegions, out)
			}
			if measured {
				w.nodes += float64(incremental.ArenaNodes(s) - nodes)
				w.bytes += float64(after.TotalAlloc - before.TotalAlloc)
				w.isolate += float64(incremental.IsolateWork(s))
				dos++
			}
		}
		script := corpus.SelfCancellingEdits(src, 4*(warmupPairs+pairs), 2)
		switch shape {
		case 0:
			for i, pair := range script[:warmupPairs+pairs] {
				measured = i >= warmupPairs
				off := pair[0].Offset
				s.Edit(off, 0, brk)
				do("break", 1)
				s.Edit(off, len(brk), "")
				do("repair", 0)
			}
		case 1:
			top := len(src) / 20
			top += strings.IndexByte(src[top:], '\n') + 1
			top += strings.IndexFunc(src[top:], func(r rune) bool { return r != ' ' })
			s.Edit(top, 0, brk)
			do("break near the top", 1)
			k := 0
			for _, pair := range script {
				if pair[0].Offset < len(src)/2 {
					continue
				}
				if k == warmupPairs+pairs {
					break
				}
				measured = k >= warmupPairs
				k++
				for _, e := range pair {
					s.Edit(e.Offset+len(brk), e.Removed, e.Inserted)
					do("clean edit", 1)
				}
			}
			if k < warmupPairs+pairs {
				t.Fatalf("%d lines: %d identifier pairs in the second half, want %d", lines, k, warmupPairs+pairs)
			}
		}
		w.nodes /= float64(dos)
		w.bytes /= float64(dos)
		w.isolate /= float64(dos)
		t.Logf("%s, %d lines: %.0f nodes built, %.0f B allocated, %.0f isolation work per Do(Tolerant()) over %d",
			shapes[shape], lines, w.nodes, w.bytes, w.isolate, dos)
		return w
	}
	for i, shape := range shapes {
		small, large := measure(1000, i), measure(16000, i)
		for _, c := range []struct {
			what         string
			small, large float64
		}{
			{"arena nodes built", small.nodes, large.nodes},
			{"bytes allocated", small.bytes, large.bytes},
			{"isolation work", small.isolate, large.isolate},
		} {
			if c.large > 2*c.small {
				t.Errorf("%s: %s per Do(Tolerant()) grows with the file: %.0f at 16,000 lines vs %.0f at 1,000", shape, c.what, c.large, c.small)
			}
		}
	}
}

// TestReadWorkIndependentOfFileSize pins what locating nodes from the tree
// buys: a cursor read — Subtree at an identifier, then NodeSpan on the
// node it returns — and a clean Diagnostics do work (the session's
// ReadWork: tree nodes visited plus tokens scanned) that stays within 2×
// from a 1,000-line file to a 16,000-line one. Subtree used to locate each
// kid it tried by scanning every token, and Diagnostics walked the whole
// tree, so both grew 16× between the sizes.
func TestReadWorkIndependentOfFileSize(t *testing.T) {
	const reads = 64
	type work struct{ subtree, span, diags float64 }
	measure := func(lines int) work {
		src, _ := corpus.Generate(corpus.Spec{Name: "reads", Lines: lines, Lang: "c", Seed: 1})
		s := incremental.NewSession(incremental.CSubset(), src)
		if out := s.Do(context.Background()); !out.Clean {
			t.Fatalf("%d lines: initial parse: %v", lines, out.Err)
		}
		var w work
		for _, pair := range corpus.SelfCancellingEdits(src, reads, 3) {
			off := pair[0].Offset // an identifier's first byte
			n := s.Subtree(off, 1)
			w.subtree += float64(incremental.ReadWork(s))
			if start, size, ok := s.NodeSpan(n); !ok || start > off || start+size <= off {
				t.Fatalf("%d lines: Subtree(%d, 1) = %v spans [%d,+%d) ok=%v", lines, off, n, start, size, ok)
			}
			w.span += float64(incremental.ReadWork(s))
		}
		w.subtree /= reads
		w.span /= reads
		if ds := s.Diagnostics(); len(ds) != 0 {
			t.Fatalf("%d lines: a clean parse reports %v", lines, ds)
		}
		w.diags = float64(incremental.ReadWork(s))
		t.Logf("%d lines: read work %.0f per Subtree, %.0f per NodeSpan, %.0f per clean Diagnostics", lines, w.subtree, w.span, w.diags)
		return w
	}
	small, large := measure(1000), measure(16000)
	for _, c := range []struct {
		read         string
		small, large float64
	}{
		{"Subtree at an identifier", small.subtree, large.subtree},
		{"NodeSpan of its node", small.span, large.span},
		{"a clean Diagnostics", small.diags, large.diags},
	} {
		if c.large > 2*c.small {
			t.Errorf("%s: read work grows with the file: %.0f at 16,000 lines vs %.0f at 1,000", c.read, c.large, c.small)
		}
	}
}

// TestFirstDiagnosticsAllocBounded: Diagnostics' error walk keeps a
// visited set of only the nodes it enters, so even the first call after
// the garbage collector has emptied every pool allocates in proportion to
// the walk, not to the arena. On a 16,000-line tolerant session with one
// region that call allocated 2.3 MB while its tables grew to the largest
// node ID; the guard is 64 KB.
func TestFirstDiagnosticsAllocBounded(t *testing.T) {
	src, _ := corpus.Generate(corpus.Spec{Name: "diags", Lines: 16000, Lang: "c", Seed: 1})
	s := incremental.NewSession(incremental.CSubset(), src)
	if out := s.Do(context.Background()); !out.Clean {
		t.Fatalf("initial parse: %v", out.Err)
	}
	mid := len(src) / 2
	s.Edit(mid+strings.IndexByte(src[mid:], ';')+1, 0, " @#! ")
	if out := s.Do(context.Background(), incremental.Tolerant()); !out.Isolated || out.ErrorRegions != 1 {
		t.Fatalf("want one isolated region, got isolated=%v regions=%d err=%v", out.Isolated, out.ErrorRegions, out.Err)
	}
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	diags := s.Diagnostics()
	runtime.ReadMemStats(&after)
	if len(diags) != 1 {
		t.Fatalf("want one diagnostic, got %v", diags)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Errorf("the first Diagnostics after two GCs allocated %d bytes at 16,000 lines, want under 64 KB", n)
	} else {
		t.Logf("the first Diagnostics after two GCs allocated %d bytes at 16,000 lines", n)
	}
}

// TestSnapshotCostsTheText: a snapshot holds the text, not the tree. A
// clean 2,000-line C session's artifact is at most the text plus 1 KiB
// (it was 277,626 bytes, 9.4× the text, while it held the token stream
// and the node table), and taking it allocates at most 4× the text.
func TestSnapshotCostsTheText(t *testing.T) {
	src, _ := corpus.Generate(corpus.Spec{Name: "restore", Lines: 2000, Lang: "c", Seed: 1})
	s := incremental.NewSession(incremental.CSubset(), src)
	if out := s.Do(context.Background()); !out.Clean {
		t.Fatalf("initial parse: %v", out.Err)
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > len(src)+1<<10 {
		t.Errorf("snapshot of %d text bytes is %d bytes, want at most the text plus 1 KiB", len(src), buf.Len())
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := s.Snapshot(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	if per > uint64(4*len(src)) {
		t.Errorf("Snapshot allocated %d bytes per call for %d text bytes, want at most 4×", per, len(src))
	}
	t.Logf("snapshot: %d bytes for %d text bytes, %d bytes allocated per call", buf.Len(), len(src), per)
}

// TestColdSessionBytesPerTextByte bounds what a cold session costs per
// byte of generated C, at 1,000 and 16,000 lines: what NewSession — the
// lex and the document build, one terminal node per significant token —
// allocates, and what the session keeps live once a cold Do has committed
// its tree and a collection has run. With 48-byte tokens that held a
// string, 104-byte nodes in chunks that wasted a size class's tail, and a
// scan estimate of 4 bytes per token (generated C averages 2.07), a
// NewSession allocated 119 and 109 bytes per text byte; the allocation
// bounds are half of those. With 96-byte nodes that carried an
// error-detail pointer and their first terminal's ID, a committed session
// kept 105–108 and 92.8; 80-byte nodes keep about 95 and 80, under the
// bounds of 100 and 86.
func TestColdSessionBytesPerTextByte(t *testing.T) {
	lang := incremental.CSubset()
	for _, tc := range []struct {
		lines       int
		alloc, kept float64
	}{{1000, 59, 100}, {16000, 54, 86}} {
		src, _ := corpus.Generate(corpus.Spec{Name: "cold", Lines: tc.lines, Lang: "c", Seed: 1})
		const runs = 3
		sessions := make([]*incremental.Session, runs)
		var before, made, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range sessions {
			sessions[i] = incremental.NewSession(lang, src)
		}
		runtime.ReadMemStats(&made)
		for _, s := range sessions {
			if out := s.Do(context.Background()); !out.Clean {
				t.Fatalf("%d lines: cold parse not clean: %v", tc.lines, out.Err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(sessions)
		per := float64(made.TotalAlloc-before.TotalAlloc) / runs / float64(len(src))
		kept := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / runs / float64(len(src))
		t.Logf("%d lines (%d bytes): a cold NewSession allocates %.1f bytes per text byte; a committed session keeps %.1f",
			tc.lines, len(src), per, kept)
		if per > tc.alloc {
			t.Errorf("%d lines: a cold NewSession allocates %.1f bytes per text byte, want at most %.0f", tc.lines, per, tc.alloc)
		}
		if kept > tc.kept {
			t.Errorf("%d lines: a committed session keeps %.1f bytes per text byte, want at most %.0f", tc.lines, kept, tc.kept)
		}
	}
}
