package incremental_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	incremental "iglr"
	"iglr/internal/corpus"
	"iglr/internal/dag"
)

// The read oracle. NodeSpan locates a node of the committed tree from its
// left siblings' terminal counts along its parent chain, the pending
// edits' terminal damage and the token runs' headers; Subtree descends by terminal indices; Diagnostics and
// ErrorNodes walk only subtrees whose HasError summary is set. Each read
// must answer exactly what the scan it replaced answers — ScanSpan (every
// token searched for the node's terminals), SubtreeScan (the descent that
// locates every kid with ScanSpan) and a full Walk for the error nodes —
// after random edit scripts: edits that change a sequence's element count,
// Tolerant break/repair with an error kept across an unrelated clean edit,
// semantic filtering of ambiguous readings and a syntactic filter that
// rewrites the tree in place, reads while edits are pending,
// nodes kept from older trees, and snapshot-restored twins.

// readLanguages are the oracle's languages: C and C++ generated at 30
// ambiguous constructs per thousand lines (choice nodes whose readings
// share one yield), lisp's nested sequences and Modula-2.
func readLanguages() []seqLang {
	var out []seqLang
	for _, l := range seqLanguages() {
		switch l.name {
		case "c", "c++":
			lang := l.name // corpus.Spec's Lang: "c" or "c++"
			l.program = func(rng *rand.Rand, n int) string {
				src, _ := corpus.Generate(corpus.Spec{Name: "reads", Lines: 4 * n, Lang: lang, AmbiguousPerKLoC: 30, Seed: rng.Int63()})
				return src
			}
			out = append(out, l)
		case "lisp", "modula-2":
			out = append(out, l)
		}
	}
	return out
}

// readStats counts what a script exercised.
type readStats struct {
	fast, choices, errors, survived, pending, old, twins, filtered int
}

// checkReads compares every read of s with the scan. With no edit pending
// it checks NodeSpan on every node reachable from the tree, every reading
// of every choice included; while edits are pending, when each scan costs
// the whole text, a sample. old holds nodes of earlier trees.
func checkReads(t *testing.T, s *incremental.Session, rng *rand.Rand, old []*incremental.Node, st *readStats, when string) {
	t.Helper()
	span := func(n *incremental.Node) {
		t.Helper()
		off, ln, ok := s.NodeSpan(n)
		wOff, wLn, wOK := incremental.ScanSpan(s, n)
		if off != wOff || ln != wLn || ok != wOK {
			t.Fatalf("%s: NodeSpan(%v) = [%d,+%d) %v, the scan [%d,+%d) %v\n%s", when, n, off, ln, ok, wOff, wLn, wOK, s.Text())
		}
	}
	root := s.Tree()
	if root != nil {
		var nodes []*incremental.Node
		root.Walk(func(n *incremental.Node) { nodes = append(nodes, n) })
		stride := 1
		if incremental.Pending(s) {
			stride = max(1, len(nodes)/40)
			st.pending++
		} else {
			st.fast++
		}
		for i := 0; i < len(nodes); i += stride {
			span(nodes[i])
			if nodes[i].Kind == dag.KindChoice {
				st.choices++
			}
		}
	}
	for _, n := range old {
		span(n)
	}
	st.old += len(old)

	// Subtree on random ranges: empty ones, ones in whitespace, ones that
	// reach past either end, and the whole text.
	text := s.Text()
	var blanks []int
	for i := 0; i < len(text); i++ {
		if text[i] == ' ' || text[i] == '\n' {
			blanks = append(blanks, i)
		}
	}
	for i := 0; i < 24; i++ {
		var off, ln int
		switch i % 6 {
		case 0:
			off, ln = rng.Intn(len(text)+1), 0
		case 1:
			if len(blanks) > 0 {
				off, ln = blanks[rng.Intn(len(blanks))], rng.Intn(2)
			}
		case 2:
			off, ln = len(text)-rng.Intn(4), rng.Intn(8)
		case 3:
			off, ln = -rng.Intn(3), rng.Intn(12)
		case 4:
			off, ln = 0, len(text)
		default:
			off = rng.Intn(len(text) + 1)
			ln = rng.Intn(min(60, len(text)-off) + 1)
		}
		got, want := s.Subtree(off, ln), incremental.SubtreeScan(s, off, ln)
		if got != want {
			t.Fatalf("%s: Subtree(%d, %d) = %v, the scan descent %v\n%s", when, off, ln, got, want, text)
		}
	}

	// The pruned error walk against a full one, and each diagnostic's span
	// against the scan of its region.
	var errs []*incremental.Node
	if root != nil {
		root.Walk(func(n *incremental.Node) {
			if n.Kind == dag.KindError {
				errs = append(errs, n)
			}
		})
	}
	got := s.ErrorNodes()
	if len(got) != len(errs) {
		t.Fatalf("%s: ErrorNodes finds %d error nodes, a full walk %d", when, len(got), len(errs))
	}
	for i := range errs {
		if got[i] != errs[i] {
			t.Fatalf("%s: error node %d is %v, a full walk's %v", when, i, got[i], errs[i])
		}
	}
	diags := s.Diagnostics()
	j := 0
	for _, n := range errs {
		off, ln, ok := incremental.ScanSpan(s, n)
		if !ok {
			continue
		}
		if j >= len(diags) || diags[j].Offset != off || diags[j].Length != ln {
			t.Fatalf("%s: diagnostic %d is %v, the scan of its region [%d,+%d)", when, j, diags, off, ln)
		}
		j++
	}
	if j != len(diags) {
		t.Fatalf("%s: %d diagnostics, %d regions the scan locates", when, len(diags), j)
	}
	st.errors += len(errs)
}

// letterFar returns an identifier letter at least 40 bytes from every
// offset in avoid, or -1.
func letterFar(rng *rand.Rand, l seqLang, text string, avoid []int) int {
	for try := 0; try < 40; try++ {
		i := rng.Intn(len(text))
		if !l.letter(text, i) || text[i] == 'q' {
			continue
		}
		far := true
		for _, a := range avoid {
			far = far && (i < a-40 || i > a+40)
		}
		if far {
			return i
		}
	}
	return -1
}

// runReadScript runs steps random steps over l's base program, checking
// the read oracle while edits are pending and after every Do.
func runReadScript(t *testing.T, l seqLang, seed int64, steps int, st *readStats) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	tolerant := []incremental.ParseOption{incremental.Tolerant()}
	s := incremental.NewSession(l.lang, l.program(rng, 12))
	if out := s.Do(ctx); !out.Clean {
		t.Fatalf("%s: base program does not parse: %v", l.name, out.Err)
	}
	var old []*incremental.Node
	// rewritten is set once ApplyFilter has rewritten the committed tree,
	// which no parse rebuilds: a restore then reports ErrSnapshotDiverged
	// and hands back the unfiltered parse, whose reads are checked alike.
	rewritten := false
	keep := func() {
		s.Tree().Walk(func(n *incremental.Node) {
			if rng.Intn(40) == 0 {
				old = append(old, n)
			}
		})
		if len(old) > 120 {
			old = old[len(old)-120:]
		}
	}
	edit := func(done *[]seqEdit, e seqEdit) {
		text := s.Text()
		*done = append(*done, seqEdit{off: e.off, rem: len(e.ins), ins: text[e.off : e.off+e.rem]})
		s.Edit(e.off, e.rem, e.ins)
	}
	undo := func(done []seqEdit) {
		for i := len(done) - 1; i >= 0; i-- {
			s.Edit(done[i].off, done[i].rem, done[i].ins)
		}
	}
	for step := 0; step < steps; step++ {
		keep()
		var done []seqEdit
		for i := rng.Intn(3); i >= 0 && s.Len() > 0; i-- {
			e, _ := nextEdit(rng, l, s.Text())
			edit(&done, e)
		}
		checkReads(t, s, rng, old, st, "pending edits")
		var opts []incremental.ParseOption
		if rng.Intn(2) == 0 {
			opts = tolerant
		}
		out := s.Do(ctx, opts...)
		switch {
		case out.Err != nil && opts == nil:
			undo(done)
			s.Do(ctx, tolerant...)
		case out.Isolated:
			checkReads(t, s, rng, old, st, "isolated error")
			// An unrelated clean edit far from the break keeps the error;
			// then both are undone and the region repaired.
			var avoid []int
			for _, e := range done {
				avoid = append(avoid, e.off)
			}
			if i := letterFar(rng, l, s.Text(), avoid); i >= 0 {
				var far []seqEdit
				keep()
				edit(&far, seqEdit{off: i, rem: 1, ins: "q"})
				if out := s.Do(ctx, tolerant...); out.Isolated && len(s.Diagnostics()) > 0 {
					st.survived++
				}
				checkReads(t, s, rng, old, st, "error kept across a clean edit")
				undo(far)
				s.Do(ctx, tolerant...)
			}
			keep()
			undo(done)
			s.Do(ctx, tolerant...)
		}
		switch rng.Intn(6) {
		case 0, 1:
			s.Resolve()
		case 2:
			// The prefer-declaration rule as a syntactic filter rewrites
			// the committed tree in place: a choice collapses into the
			// reading it keeps, whose parent pointer still names the
			// choice.
			keep()
			if _, n := incremental.ApplyFilter(s.Tree(), incremental.Prefer(func(n *incremental.Node) bool {
				return len(n.Kids) > 0 && l.lang.SymName(n.Kids[0].Sym) == "Decl"
			})); n > 0 {
				st.filtered++
				rewritten = true
			}
		}
		checkReads(t, s, rng, old, st, "committed")
		if rng.Intn(6) == 0 {
			// A snapshot-restored twin, sometimes with an edit pending.
			if rng.Intn(2) == 0 && s.Len() > 0 {
				e, _ := nextEdit(rng, l, s.Text())
				var done []seqEdit
				edit(&done, e)
			}
			var buf bytes.Buffer
			if err := s.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			twin, err := incremental.RestoreSession(&buf, l.lang)
			if err != nil && !(rewritten && errors.Is(err, incremental.ErrSnapshotDiverged)) {
				t.Fatal(err)
			}
			checkReads(t, twin, rng, nil, st, "restored twin")
			st.twins++
		}
	}
}

func TestReadsEqualScan(t *testing.T) {
	var total readStats
	for _, l := range readLanguages() {
		t.Run(l.name, func(t *testing.T) {
			var st readStats
			for seed := int64(1); seed <= 2; seed++ {
				runReadScript(t, l, seed, 16, &st)
			}
			t.Logf("%+v", st)
			if st.fast == 0 || st.pending == 0 || st.old == 0 || st.twins == 0 {
				t.Fatalf("the scripts missed a read path: %+v", st)
			}
			total.choices += st.choices
			total.errors += st.errors
			total.survived += st.survived
			total.filtered += st.filtered
		})
	}
	if total.choices == 0 || total.errors == 0 || total.survived == 0 || total.filtered == 0 {
		t.Fatalf("no choice node, error node, error kept across a clean edit or filtered tree was read: %+v", total)
	}
}

// FuzzReadsEqualScan runs the read oracle's scripts from fuzzed seeds.
func FuzzReadsEqualScan(f *testing.F) {
	for i := 0; i < 4; i++ {
		f.Add(uint8(i), int64(i+1))
	}
	langs := readLanguages()
	f.Fuzz(func(t *testing.T, lang uint8, seed int64) {
		runReadScript(t, langs[int(lang)%len(langs)], seed, 8, &readStats{})
	})
}
