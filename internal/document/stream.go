package document

import (
	"slices"

	"iglr/internal/dag"
)

// Stream is the incremental parser's input (conceptually the subtree reuse
// stack of §3.2, Figure 6): a left-to-right traversal of the current token
// sequence in which maximal unmodified subtrees of the previous tree stand
// in for their terminal runs. It implements the iglr parser's Stream
// interface structurally.
//
// A subtree A is offered at cursor position k when
//   - A belongs to the committed tree and its leftmost terminal is the
//     clean terminal at k (so A's yield starts exactly here),
//   - A contains no nested changes (its terminal run is intact), and
//   - no edit changed the right context of A's rightmost terminal (the
//     token following A is the same one A's construction saw, §3.2).
//
// Fresh terminals at modification sites are yielded directly. Breakdown
// exposes the children of the current subtree (left_breakdown); null-yield
// children are dropped — the parser rebuilds ε structure, which keeps
// ε-reuse from leaking stale right context.
//
// Error isolation parses through a mask (Document.MaskedStream): the
// terminals of each quarantine region are skipped, and an offered subtree
// ends before the terminal that precedes the next region, so it neither
// contains a masked terminal nor is followed, in the masked sequence, by a
// token other than the one its construction saw. Near the regions, state
// matching and the parser's bottom-up node retention rebuild what is left.
type Stream struct {
	d       *Document
	cur     cursor   // the next uncovered terminal
	regions []Region // the mask: sorted by Lo, disjoint
	ri      int      // first region not yet passed
	pending []*dag.Node
	eof     *dag.Node
	eofSent bool

	// SubtreeOffers counts maximal-subtree offerings (diagnostics).
	SubtreeOffers int
}

// Region is a half-open range [Lo, Hi) of significant-terminal indices —
// the unit in which the error-isolation layer quarantines damage.
type Region struct{ Lo, Hi int }

// reset rewinds the stream for a fresh traversal of d's current state
// with the given regions masked out. The pending stack keeps its capacity,
// the cursor reads the document's runs and the EOF node is shared, so
// rewinding allocates nothing.
func (s *Stream) reset(d *Document, regions []Region) {
	slices.Sort(d.rightChanged) // for maximalSubtree's binary search
	s.d = d
	s.cur.reset(d)
	s.regions, s.ri = regions, 0
	s.pending = s.pending[:0]
	s.eof = d.eof
	s.eofSent = false
	s.SubtreeOffers = 0
}

// Arena returns the document's node arena (the iglr / detparse Stream
// interfaces' arena hook).
func (s *Stream) Arena() *dag.Arena { return s.d.arena }

// La returns the current lookahead subtree (computing it lazily).
func (s *Stream) La() *dag.Node {
	if len(s.pending) > 0 {
		return s.pending[len(s.pending)-1]
	}
	s.skip()
	t := s.cur.term()
	if t == nil {
		if s.eofSent {
			return nil
		}
		s.pending = append(s.pending, s.eof)
		return s.eof
	}
	end := s.cur.n
	if s.ri < len(s.regions) {
		end = s.regions[s.ri].Lo - 1
	}
	best := maximalSubtree(t, end-s.cur.k, s.d.rightChanged)
	if best != t {
		s.SubtreeOffers++
	}
	s.pending = append(s.pending, best)
	return best
}

// skip advances the cursor past any masked region it has entered.
func (s *Stream) skip() {
	for s.ri < len(s.regions) {
		r := s.regions[s.ri]
		if s.cur.k < r.Lo {
			return
		}
		if s.cur.k < r.Hi {
			s.cur.advance(r.Hi - s.cur.k)
		}
		s.ri++
	}
}

// maximalSubtree returns the largest committed subtree of at most maxTerms
// terminals that the stream may offer at the clean terminal t: its yield
// starts with t, it contains no nested change, and its last terminal is
// not among rightChanged, the sorted IDs of the terminals whose right
// context an edit changed. It returns t itself when there is none.
func maximalSubtree(t *dag.Node, maxTerms int, rightChanged []int32) *dag.Node {
	best := t
	if !t.Committed() || t.Changed() {
		return best
	}
	for c, a := t, t.Parent; a != nil && a.Committed() && !a.NestedChange() && int(a.TermCount) <= maxTerms && startsWith(a, c, t); c, a = a, a.Parent {
		if _, changed := slices.BinarySearch(rightChanged, a.LastTerm); changed || a.LastTerm < 0 {
			break
		}
		best = a
	}
	return best
}

// startsWith reports whether the yield of a, the Parent of c, starts with
// the terminal t, given that c's yield does. That holds by position when c
// is a's first kid with a yield, or any reading of a choice (the readings
// share one yield), and fails when a kid with a yield precedes c. A child
// can be missing from its parent's kids: disambig.Apply collapses a choice
// into its surviving reading, which keeps the choice as its Parent. Only
// then is a's first terminal found by descent.
func startsWith(a, c, t *dag.Node) bool {
	earlier := false // a kid with a yield precedes c
	for _, k := range a.Kids {
		if k == c {
			return !earlier || a.Kind == dag.KindChoice
		}
		earlier = earlier || k.TermCount > 0
	}
	return a.FirstTerminal() == t
}

// Pop advances past the current subtree.
func (s *Stream) Pop() {
	n := s.La()
	if n == nil {
		return
	}
	s.pending = s.pending[:len(s.pending)-1]
	if n == s.eof {
		s.eofSent = true
		return
	}
	s.cur.advance(int(n.TermCount))
}

// Breakdown replaces the current subtree by its children. Children with a
// null yield are dropped (the parser re-derives ε structure); for a choice
// node the first live interpretation is exposed.
func (s *Stream) Breakdown() {
	n := s.La()
	if n == nil {
		return
	}
	if n.IsTerminal() {
		panic("document: breakdown of a terminal")
	}
	s.pending = breakdown(s.pending)
}

// breakdown replaces the subtree on top of pending by its children, last
// child deepest, dropping null-yield ones; a choice node gives way to its
// first live interpretation.
func breakdown(pending []*dag.Node) []*dag.Node {
	n := pending[len(pending)-1]
	pending = pending[:len(pending)-1]
	if n.IsChoice() {
		alt := n.Kids[0]
		for _, k := range n.Kids {
			if !k.Filtered {
				alt = k
				break
			}
		}
		if alt.TermCount > 0 {
			pending = append(pending, alt)
		}
		return pending
	}
	for i := len(n.Kids) - 1; i >= 0; i-- {
		if k := n.Kids[i]; k.TermCount > 0 {
			pending = append(pending, k)
		}
	}
	return pending
}
