package document

import (
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
//   - the right-context bit of A's rightmost terminal is clear (the token
//     following A is the same one A's construction saw, §3.2).
//
// Fresh terminals at modification sites are yielded directly. Breakdown
// exposes the children of the current subtree (left_breakdown); null-yield
// children are dropped — the parser rebuilds ε structure, which keeps
// ε-reuse from leaking stale right context.
type Stream struct {
	d       *Document
	cur     cursor // the next uncovered terminal
	pending []*dag.Node
	eof     *dag.Node
	eofSent bool

	// SubtreeOffers counts maximal-subtree offerings (diagnostics).
	SubtreeOffers int
}

// reset rewinds the stream for a fresh traversal of d's current state.
// The pending stack keeps its capacity, the cursor reads the document's
// runs and the EOF node is shared, so rewinding allocates nothing.
func (s *Stream) reset(d *Document) {
	s.d = d
	s.cur.reset(d)
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
	t := s.cur.term()
	if t == nil {
		if s.eofSent {
			return nil
		}
		s.pending = append(s.pending, s.eof)
		return s.eof
	}
	best := maximalSubtree(t, s.cur.n-s.cur.k)
	if best != t {
		s.SubtreeOffers++
	}
	s.pending = append(s.pending, best)
	return best
}

// maximalSubtree returns the largest committed subtree of at most maxTerms
// terminals that the stream may offer at the clean terminal t: its yield
// starts with t, it contains no nested change, and the right-context bit of
// its last terminal is clear. It returns t itself when there is none.
func maximalSubtree(t *dag.Node, maxTerms int) *dag.Node {
	best := t
	if !t.Committed || t.Changed {
		return best
	}
	for a := t.Parent; a != nil && a.Committed && a.LeftmostTerm == t && !a.NestedChange && int(a.TermCount) <= maxTerms; a = a.Parent {
		r := a.RightmostTerm
		if r == nil || r.RightChanged {
			break
		}
		best = a
	}
	return best
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
