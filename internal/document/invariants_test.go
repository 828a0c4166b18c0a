package document

import (
	"math/rand"
	"strings"
	"testing"

	"iglr/internal/dag"
	"iglr/internal/iglr"
)

// Structural invariants of the self-versioning document, checked across
// random editing sessions:
//
//  1. the significant terminals concatenate to the text minus skip tokens;
//  2. after a commit, every terminal's parent chain reaches the root;
//  3. every committed node's terminal cover (LastTerm/TermCount, and the
//     node FirstTerminal finds) is consistent with its subtree;
//  4. no change bits remain set after a commit.

func checkInvariants(t *testing.T, l *testLang, d *Document) {
	t.Helper()

	// (1) terminals tile the significant text.
	var sb strings.Builder
	text := d.Text()
	for _, tok := range d.Tokens() {
		if !tok.Skip && tok.Type >= 0 {
			sb.WriteString(tok.Lexeme(text))
		}
	}
	var tb strings.Builder
	for _, n := range d.Terminals() {
		tb.WriteString(n.Text)
	}
	if sb.String() != tb.String() {
		t.Fatalf("terminal nodes diverge from tokens:\n%q\nvs\n%q", tb.String(), sb.String())
	}

	root := d.Root()
	if root == nil {
		return
	}

	// (2) parent chains reach the root.
	for _, term := range d.Terminals() {
		seen := 0
		n := term
		for n != root {
			if n.Parent == nil {
				t.Fatalf("terminal %q: parent chain broken at %v", term.Text, n)
			}
			n = n.Parent
			if seen++; seen > 10000 {
				t.Fatalf("terminal %q: parent cycle", term.Text)
			}
		}
	}

	// (3) cover consistency and (4) clean bits.
	root.Walk(func(n *dag.Node) {
		if n.NestedChange() || n.Changed() {
			t.Fatalf("change bit set after commit: %v", n)
		}
		terms := n.Terminals(nil)
		if int(n.TermCount) != len(terms) {
			t.Fatalf("TermCount %d != %d for %v", n.TermCount, len(terms), n)
		}
		if len(terms) == 0 {
			if n.LastTerm != -1 || n.FirstTerminal() != nil {
				t.Fatalf("null-yield node with cover: %v (last %d)", n, n.LastTerm)
			}
			return
		}
		first, last := terms[0], terms[len(terms)-1]
		if n.LastTerm != last.ID {
			t.Fatalf("LastTerm %d of %v, yield ends at %d", n.LastTerm, n, last.ID)
		}
		if got := n.FirstTerminal(); got != first {
			t.Fatalf("FirstTerminal of %v is %v, yield starts at %v", n, got, first)
		}
	})
	if len(d.rightChanged) != 0 {
		t.Fatalf("%d right-context marks left after commit", len(d.rightChanged))
	}
}

func TestInvariantsUnderRandomEditing(t *testing.T) {
	l := newTestLang(t)
	rng := rand.New(rand.NewSource(2024))
	d := l.doc("start = 1; finish = start + 2;")
	parseAndCommit(t, l, d)
	checkInvariants(t, l, d)

	pieces := []string{"x", "12", " ", "; ", "= 0", "+ y", "(z)", "w = 3; "}
	for step := 0; step < 250; step++ {
		txt := d.Text()
		off := rng.Intn(len(txt) + 1)
		rem := 0
		if off < len(txt) {
			rem = rng.Intn(minInt(len(txt)-off, 4))
		}
		removed := txt[off : off+rem]
		ins := pieces[rng.Intn(len(pieces))]
		d.Replace(off, rem, ins)

		p := iglr.New(l.tbl)
		root, err := p.Parse(d.Stream())
		if err != nil {
			// Revert to stay parseable; invariants hold for the committed
			// tree regardless.
			d.Replace(off, len(ins), removed)
			root2, err2 := p.Parse(d.Stream())
			if err2 != nil {
				t.Fatalf("step %d: revert failed: %v (text %q)", step, err2, d.Text())
			}
			d.Commit(root2)
		} else {
			d.Commit(root)
		}
		checkInvariants(t, l, d)
	}
}

func TestPendingEditsLifecycle(t *testing.T) {
	l := newTestLang(t)
	d := l.doc("a = 1; b = 2; c = 3;")
	parseAndCommit(t, l, d)
	if len(d.PendingEdits()) != 0 {
		t.Fatal("no pending edits expected after commit")
	}
	d.Replace(4, 1, "9")
	d.Replace(0, 1, "q")
	pend := d.PendingEdits()
	if len(pend) != 2 || pend[0].Removed != "1" || pend[1].Inserted != "q" {
		t.Fatalf("pending = %+v", pend)
	}
	// Undo both edits, newest first, by their inverses: they are recorded
	// too, and the log still inverts to the committed text.
	d.Replace(pend[1].Offset, len(pend[1].Inserted), pend[1].Removed)
	d.Replace(pend[0].Offset, len(pend[0].Inserted), pend[0].Removed)
	if d.Text() != "a = 1; b = 2; c = 3;" {
		t.Fatalf("undo: %q", d.Text())
	}
	if pend = d.PendingEdits(); len(pend) != 4 || pend[2].Inserted != "a" || pend[3].Removed != "9" {
		t.Fatalf("pending after undo = %+v", pend)
	}
	if committed, _, err := d.CommittedState(); err != nil || committed != d.Text() {
		t.Fatalf("committed state = %q, %v", committed, err)
	}
	// The tree is reusable again: the touched tokens are relexed (an undo
	// does not resurrect their old terminal nodes) but the untouched
	// statements come back as whole subtrees.
	p := iglr.New(l.tbl)
	root, err := p.Parse(d.Stream())
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats.SubtreeShifts == 0 {
		t.Fatalf("expected subtree reuse after the undo: %+v", p.Stats)
	}
	if p.Stats.TerminalShifts > 6 {
		t.Fatalf("the undo should keep the damage local: %+v", p.Stats)
	}
	d.Commit(root)
	checkInvariants(t, l, d)
}

func TestWholeTreeReuseAfterNoop(t *testing.T) {
	l := newTestLang(t)
	d := l.doc("a = 1; b = 2;")
	parseAndCommit(t, l, d)
	// No edits at all: the stream offers the root and EOF.
	p := iglr.New(l.tbl)
	root, err := p.Parse(d.Stream())
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats.SubtreeShifts != 1 || p.Stats.TerminalShifts != 0 {
		t.Fatalf("no-op reparse should shift exactly the root: %+v", p.Stats)
	}
	if root != d.Root() {
		// The root may be re-wrapped by reductions above the reused
		// subtree; both shapes are acceptable as long as structure holds.
		if root.Yield() != d.Root().Yield() {
			t.Fatal("no-op reparse changed the yield")
		}
	}
}

func TestStreamSubtreeOffers(t *testing.T) {
	l := newTestLang(t)
	d := l.doc("a = 1; b = 2; c = 3;")
	parseAndCommit(t, l, d)
	d.Replace(11, 1, "9") // edit inside the middle statement
	s := d.Stream()
	offers := 0
	for {
		n := s.La()
		if n == nil {
			break
		}
		offers++
		s.Pop()
	}
	if s.SubtreeOffers == 0 {
		t.Fatal("expected maximal-subtree offers")
	}
	if offers > 12 {
		t.Fatalf("stream offered %d items for a one-token edit", offers)
	}
}
