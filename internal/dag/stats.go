package dag

import "fmt"

// Stats summarizes the space consumption of an abstract parse dag, the
// measurement behind Table 1 and Figure 4 of the paper: the dag's size is
// compared against the fully disambiguated parse tree a batch compiler
// would build (one interpretation per ambiguous region, no choice nodes).
type Stats struct {
	// DagNodes is the number of unique nodes reachable from the root,
	// including every interpretation and all choice nodes.
	DagNodes int
	// TreeNodes is the size of the embedded parse tree: one interpretation
	// selected at each choice node, choice nodes themselves not counted.
	TreeNodes int
	// ChoiceNodes is the number of symbol (choice) nodes.
	ChoiceNodes int
	// AmbiguousRegions is the number of choice nodes with >1 unfiltered
	// interpretation.
	AmbiguousRegions int
	// MaxAlternatives is the widest choice node.
	MaxAlternatives int
	// Terminals counts token leaves.
	Terminals int
	// BudgetPruned counts choice nodes whose alternatives were pruned by
	// the ambiguity budget — regions where the dag no longer encodes the
	// full forest (see dag.Node.BudgetPruned).
	BudgetPruned int
	// ErrorNodes counts isolated syntax-error regions (KindError) — spans
	// of quarantined tokens held verbatim with no grammatical
	// interpretation.
	ErrorNodes int
}

// SpaceOverheadPercent returns the percentage increase of the dag over the
// disambiguated tree — the paper's headline space metric (≈0.0–0.5% for
// real programs).
func (s Stats) SpaceOverheadPercent() float64 {
	if s.TreeNodes == 0 {
		return 0
	}
	return 100 * float64(s.DagNodes-s.TreeNodes) / float64(s.TreeNodes)
}

func (s Stats) String() string {
	return fmt.Sprintf("dag=%d tree=%d choices=%d ambiguous=%d overhead=%.3f%%",
		s.DagNodes, s.TreeNodes, s.ChoiceNodes, s.AmbiguousRegions, s.SpaceOverheadPercent())
}

// Measure computes Stats for the dag rooted at root.
func Measure(root *Node) Stats {
	var s Stats
	root.Walk(func(n *Node) {
		s.DagNodes++
		switch n.Kind {
		case KindTerminal:
			s.Terminals++
		case KindChoice:
			s.ChoiceNodes++
			alive := 0
			for _, k := range n.Kids {
				if !k.Filtered {
					alive++
				}
			}
			if alive > 1 {
				s.AmbiguousRegions++
			}
			if len(n.Kids) > s.MaxAlternatives {
				s.MaxAlternatives = len(n.Kids)
			}
		case KindError:
			s.ErrorNodes++
		}
		if n.BudgetPruned() {
			s.BudgetPruned++
		}
	})
	memo := AcquireScratch()
	s.TreeNodes = treeSize(root, memo)
	ReleaseScratch(memo)
	return s
}

// treeSize counts the embedded-tree nodes under n: at choice nodes only the
// preferred interpretation is followed and the choice node itself is free
// (it is "logically identified with its single remaining child", §4.2).
// Shared subtrees are counted each time they appear, as they would in a
// real tree.
func treeSize(n *Node, memo *Scratch) int {
	if sz, ok := memo.Value(n); ok {
		return sz
	}
	var sz int
	switch n.Kind {
	case KindChoice:
		pick := n.Kids[0]
		for _, k := range n.Kids {
			if !k.Filtered {
				pick = k
				break
			}
		}
		sz = treeSize(pick, memo)
	default:
		sz = 1
		for _, k := range n.Kids {
			sz += treeSize(k, memo)
		}
	}
	memo.SetValue(n, sz)
	return sz
}
