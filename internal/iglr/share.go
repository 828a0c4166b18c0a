package iglr

import (
	"iglr/internal/dag"
	"iglr/internal/grammar"
)

// Sharing (§3.5). Production-node instances are hash-consed per input
// position: identical (rule, kids) requests return the same node, which is
// what makes the representation a dag (subtree sharing). Context sharing —
// multiple interpretations of one yield — merges nodes with the same symbol
// and cover into a choice node. Both tables are cleared at each shift, as
// in Appendix A: all reductions between two shifts occur at a single input
// position, so covers are comparable.

// nodeKey identifies a production instance: the rule plus the arena IDs of
// the children. Node IDs are stable and dense, so no per-parse interning
// table is needed.
type nodeKey struct {
	rule int32
	kids string // concatenated child IDs, 4 bytes little-endian each
}

// coverKey identifies a yield region (cover, Appendix A) by its terminal
// count and the ID of its last terminal instance. Within one parse a
// terminal instance sits at one input position, so the two name the span
// the first and last terminal would. Null-yield nodes have neither (0,
// -1); within one shift round they all sit at the same input position, so
// merging them by symbol alone is sound.
type coverKey struct {
	sym   grammar.Sym
	terms int32
	last  int32
}

// share holds the per-round sharing state. The maps persist across rounds
// and across parses (only their entries are cleared, keeping the buckets
// warm); deterministic rounds never touch them at all.
type share struct {
	nodes   map[nodeKey]*dag.Node
	symbols map[coverKey]*dag.Node
	keyBuf  []byte
	dirty   bool
}

func newShare() *share {
	return &share{
		nodes:   map[nodeKey]*dag.Node{},
		symbols: map[coverKey]*dag.Node{},
	}
}

// reset clears the per-round tables (called at every shift).
func (s *share) reset() {
	if !s.dirty {
		return
	}
	clear(s.nodes)
	clear(s.symbols)
	s.dirty = false
}

// getNode returns the (shared) production-instance node for rule over kids
// (Appendix A get_node). state is the goto target the creating parser will
// enter; nodes built while several parsers are active are stamped with the
// MultiState equivalence class instead (§3.3). kids may be a transient
// buffer — it is copied only when a new node is built.
func (s *share) getNode(a *dag.Arena, g *grammar.Grammar, rule int, kids []*dag.Node, state int, multi bool) *dag.Node {
	s.dirty = true
	key := nodeKey{rule: int32(rule), kids: s.kidsKey(kids)}
	if n, ok := s.nodes[key]; ok {
		if multi || n.State != int32(state) {
			n.State = dag.MultiState
		}
		return n
	}
	st := state
	if multi {
		st = dag.MultiState
	}
	n := a.Reduction(g, rule, st, kids)
	s.nodes[key] = n
	return n
}

func (s *share) kidsKey(kids []*dag.Node) string {
	b := s.keyBuf[:0]
	for _, k := range kids {
		id := uint32(k.ID)
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	s.keyBuf = b
	return string(b)
}

// mergeInterpretation implements get_symbolnode/add_choice: if another node
// with the same symbol and cover exists this round, the new interpretation
// is merged into a choice node (created lazily by promoting the existing
// node in place, preserving every outstanding reference to it — the paper's
// proxy-replacement, footnote 10). It returns the node to link into the GSS.
func (s *share) mergeInterpretation(a *dag.Arena, n *dag.Node) *dag.Node {
	s.dirty = true
	key := coverKey{sym: n.Sym, terms: n.TermCount, last: n.LastTerm}
	existing, ok := s.symbols[key]
	if !ok {
		s.symbols[key] = n
		return n
	}
	if existing == n {
		return existing
	}
	merged := addInterpretation(a, existing, n)
	s.symbols[key] = merged
	return merged
}

// addInterpretation merges alt into target, promoting target to a choice
// node in place if necessary. Returns the choice node (== target).
func addInterpretation(a *dag.Arena, target, alt *dag.Node) *dag.Node {
	if target == alt {
		return target
	}
	if target.IsChoice() {
		for _, k := range target.Kids {
			if k == alt {
				return target
			}
		}
		target.AddChoice(alt)
		return target
	}
	// Promote in place: copy the current contents to a fresh node, then
	// rewrite target as a choice over {copy, alt}. References held by GSS
	// links or already-built parents stay valid — they now see the choice,
	// whose error summary covers both readings.
	first := a.Clone(target)
	target.Kind = dag.KindChoice
	target.Prod = -1
	target.State = dag.MultiState
	target.Text = ""
	target.Kids = []*dag.Node{first, alt}
	target.SetHasError(first.HasError() || alt.HasError())
	return target
}
