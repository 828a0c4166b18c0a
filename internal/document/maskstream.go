package document

import (
	"iglr/internal/dag"
)

// Region is a half-open range [Lo, Hi) of significant-terminal indices —
// the unit in which the error-isolation layer quarantines damage.
type Region struct{ Lo, Hi int }

// Len returns the number of terminals the region covers.
func (r Region) Len() int { return r.Hi - r.Lo }

// Contains reports whether terminal index i falls inside the region.
func (r Region) Contains(i int) bool { return i >= r.Lo && i < r.Hi }

// MaskedStream is the parser input of error isolation: the document's
// significant terminals with every index covered by a quarantine region
// skipped. Away from the regions it offers reusable subtrees exactly as the
// ordinary Stream does, with one more condition: an offered subtree ends
// strictly before the next region, so it neither contains a masked
// terminal nor is followed, in the masked sequence, by a token other than
// the one its construction saw. Near the regions, state matching and the
// parser's bottom-up node retention rebuild what is left.
type MaskedStream struct {
	d       *Document
	cur     cursor   // the next uncovered terminal
	regions []Region // sorted by Lo, disjoint
	ri      int      // first region not yet passed
	pending []*dag.Node
	eofSent bool
}

// MaskedStream returns a parser input over the document's current terminals
// with the given regions (sorted, disjoint, in terminal indices) masked
// out. The stream is freshly allocated — isolation runs are off the
// zero-alloc hot path by construction.
func (d *Document) MaskedStream(regions []Region) *MaskedStream {
	s := &MaskedStream{d: d, regions: regions}
	s.cur.reset(d)
	return s
}

// Arena returns the document's node arena.
func (s *MaskedStream) Arena() *dag.Arena { return s.d.arena }

// skip advances k past any masked region it has entered.
func (s *MaskedStream) skip() {
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

// La returns the current lookahead: a terminal or a reusable subtree, then
// the EOF node, then nil.
func (s *MaskedStream) La() *dag.Node {
	if len(s.pending) > 0 {
		return s.pending[len(s.pending)-1]
	}
	s.skip()
	t := s.cur.term()
	if t == nil {
		if s.eofSent {
			return nil
		}
		return s.d.eof
	}
	end := s.cur.n
	if s.ri < len(s.regions) {
		end = s.regions[s.ri].Lo - 1
	}
	best := maximalSubtree(t, end-s.cur.k)
	s.pending = append(s.pending, best)
	return best
}

// Pop advances past the current lookahead.
func (s *MaskedStream) Pop() {
	n := s.La()
	if n == nil {
		return
	}
	if n == s.d.eof {
		s.eofSent = true
		return
	}
	s.pending = s.pending[:len(s.pending)-1]
	s.cur.advance(int(n.TermCount))
}

// Breakdown replaces the current subtree by its children, as the ordinary
// Stream does.
func (s *MaskedStream) Breakdown() {
	n := s.La()
	if n == nil {
		return
	}
	if n.IsTerminal() {
		panic("document: breakdown of a terminal")
	}
	s.pending = breakdown(s.pending)
}

// CurIndex returns the document-terminal index of the current lookahead's
// first terminal (the terminal count at EOF) — how a parse failure on the
// masked stream is mapped back to document coordinates.
func (s *MaskedStream) CurIndex() int {
	if len(s.pending) == 0 {
		s.skip()
	}
	return s.cur.k
}
