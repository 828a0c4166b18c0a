package incremental

import (
	"fmt"
	"strings"

	"iglr/internal/dag"
	"iglr/internal/grammar"
)

// Diagnostic describes one quarantined syntax-error region in the
// committed tree: where it is (current byte coordinates — positions are
// remapped automatically as later edits move the region), what the parser
// would have accepted at the point of failure, and which sequence
// production isolated the damage.
type Diagnostic struct {
	// Offset and Length delimit the quarantined bytes in the current text.
	Offset, Length int
	// Line and Col locate Offset (both 1-based).
	Line, Col int
	// Expected lists, by name and sorted, the terminals the parser could
	// have accepted where it failed.
	Expected []string
	// Region names the associative-sequence nonterminal whose element
	// structure confined the damage ("" when unrecorded).
	Region string
}

// String renders the diagnostic the way an editor status line would.
func (d Diagnostic) String() string {
	msg := fmt.Sprintf("%d:%d: syntax error (%d byte(s) quarantined", d.Line, d.Col, d.Length)
	if d.Region != "" {
		msg += " in " + d.Region
	}
	msg += ")"
	if len(d.Expected) > 0 {
		max := len(d.Expected)
		ell := ""
		if max > 4 {
			max, ell = 4, ", …"
		}
		msg += ", expected " + strings.Join(d.Expected[:max], ", ") + ell
	}
	return msg
}

// Diagnostics reports the syntax-error regions quarantined in the
// committed tree, leftmost first. The list is computed from the tree
// itself, so it clears automatically when a repairing edit lets the
// region reparse cleanly, and offsets track the current text even while
// edits are pending. It is empty when the last committed tree is a clean
// parse (or before the first parse).
//
// Cost: the walk descends only into subtrees whose HasError summary is
// set, so a clean tree costs one node visit and k regions O(k·depth)
// visits; each region is then located as NodeSpan locates a node — from
// the tree, the pending edits' terminal damage and the run headers — and
// its line is the count of the newlines before it.
func (s *Session) Diagnostics() []Diagnostic {
	var out []Diagnostic
	errs, work := dag.CollectErrors(s.doc.Root())
	s.readWork = work
	for _, n := range errs {
		off, length, ok := s.doc.NodeSpan(n)
		s.readWork += s.doc.LastReadWork
		if !ok {
			// Every quarantined token has been edited away; the region will
			// be re-judged (and this entry dropped or replaced) on the next
			// parse.
			continue
		}
		line, col := s.doc.Position(off)
		d := Diagnostic{Offset: off, Length: length, Line: line, Col: col}
		if det := s.doc.Arena().ErrorDetail(n); det != nil {
			d.Expected = det.Expected
			if det.Region != grammar.InvalidSym {
				d.Region = s.lang.def.Grammar.Name(det.Region)
			}
		}
		out = append(out, d)
	}
	return out
}

// ErrorNodes returns the error nodes in the committed tree, leftmost
// first — the structural counterpart of Diagnostics, at the cost of its
// walk. The returned nodes are owned by the session's tree and must not be
// mutated.
func (s *Session) ErrorNodes() []*Node {
	var errs []*Node
	errs, s.readWork = dag.CollectErrors(s.doc.Root())
	return errs
}
