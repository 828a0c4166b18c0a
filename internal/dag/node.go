// Package dag implements the abstract parse dag of Wagner & Graham (PLDI
// 1997, §2): a parse-tree-like representation in which a region may have
// multiple interpretations. Deterministic regions are conventional
// production nodes; ambiguity introduces symbol (choice) nodes whose
// children are the alternative interpretations of a common yield. The
// package also provides the balanced representation of associative
// sequences (§3.4), the epsilon-unsharing post-pass (§3.5), and the space
// accounting used by the paper's evaluation (Table 1, Figure 4).
package dag

import (
	"fmt"
	"strings"

	"iglr/internal/grammar"
)

// Parse states recorded in nodes (§3.3).
const (
	// NoState marks nodes that have not been assigned a parse state —
	// terminals before shifting, choice nodes (multi-state by definition),
	// and freshly built structure.
	NoState = -1
	// MultiState is the equivalence class representing "constructed while
	// multiple parsers were active": dynamic lookahead was consumed, so the
	// incremental parser must decompose rather than reuse (§3.3).
	MultiState = -2
)

// Kind discriminates dag node varieties.
type Kind uint8

// Node kinds.
const (
	// KindTerminal is a token leaf.
	KindTerminal Kind = iota
	// KindProduction is an instance of a grammar production (a "rule
	// node"): Sym is the LHS phylum, Prod the production.
	KindProduction
	// KindChoice is a symbol node representing only a phylum; its children
	// are the alternative interpretations of their common yield.
	KindChoice
	// KindSeq is an internal node of a balanced associative sequence: Sym
	// is the X+ sequence nonterminal; its children are elements (a leaf)
	// or two KindSeq nodes. Built in canonical shape by SeqBuilder when a
	// tree is committed, never by the parser; State records the sequence's
	// continuation state (see seq.go).
	KindSeq
	// KindError is an isolated syntax-error region: its children are the
	// quarantined terminals, kept verbatim so the document's text is never
	// reverted by error handling. Error nodes are created by the tier-1
	// isolating reparse (internal/isolate), never by the parser itself; like
	// BudgetPruned regions they mark structure that is usable but carries no
	// grammatical interpretation. Their state is NoState, so incremental
	// reparses always break them down and re-offer the quarantined tokens —
	// which is how a region converges back to ordinary structure once the
	// text is repaired.
	KindError
)

// Node is one abstract-parse-dag node. Nodes are compared by pointer
// identity; structural sharing is what makes the representation a dag.
// Nodes are created through an Arena, which assigns the ID.
//
// Field order is deliberate: the one-byte kind and flags pack into a single
// word, the int32s fill the next two, and the pointer-bearing fields close
// the struct — 104 bytes total. Node memory is the dominant allocation of a
// cold batch parse (roughly one node per input byte on C-like corpora), so
// every field byte is zeroed, written, and GC-scanned millions of times per
// corpus file; keep the struct tight when adding fields.
type Node struct {
	Kind Kind
	// Filtered marks an interpretation rejected by a semantic filter. The
	// node is retained (semantic filtering is reversible, §4.2) but
	// ignored by pipeline stages that read the embedded tree.
	Filtered bool
	// Changed marks terminals removed or modified since the last parse;
	// the document layer maintains it.
	Changed bool
	// NestedChange marks interior nodes whose yield contains an edit since
	// the last parse.
	NestedChange bool
	// RightChanged marks a terminal whose following token was edited — the
	// right-context invalidation of §3.2.
	RightChanged bool
	// Committed marks nodes that belong to a committed (parsed) tree;
	// used to distinguish reused structure from freshly built structure.
	Committed bool
	// BudgetPruned marks a choice node whose interpretations were cut to
	// the statically preferred one because the region exceeded the
	// ambiguity budget (guard.Budget.MaxAlternatives). The tree is usable
	// but no longer encodes the full forest for this region — analyses
	// that rely on the §5 bounded-ambiguity claims should treat the region
	// as disambiguated by policy, not by evidence.
	BudgetPruned bool
	// ID is the dense per-arena node number, assigned at allocation. It
	// never changes and is unique within the node's arena; Scratch tables
	// index by it.
	ID int32
	// Sym is the symbol this node represents: the terminal for leaves, the
	// production LHS for production nodes, the phylum for choice nodes.
	Sym grammar.Sym
	// Prod is the production instance for KindProduction nodes; -1
	// otherwise.
	Prod int32
	// State is the deterministic parse state recorded when the node was
	// shifted (state-matching, §3.2), or NoState / MultiState.
	State int32

	// Incremental bookkeeping (§3.2–3.3). The paper notes that recording
	// the leftmost terminal descendant in every node trades space for the
	// ability to locate reuse candidates without traversal; we also record
	// the rightmost terminal (for the right-context check) and the
	// terminal count (to advance the input cursor past a shifted subtree).

	// TermCount is the number of terminal leaves in the subtree.
	TermCount int32
	// SeqCount is the number of sequence elements under a KindSeq node
	// (1 for any other node); it makes balanced-sequence indexing O(1)
	// per level.
	SeqCount int32
	// Kids are the children: RHS instances for production nodes,
	// alternatives for choice nodes, elements/subsequences for KindSeq.
	Kids []*Node
	// Text is the lexeme (terminals only).
	Text string
	// Parent is the node's parent in the last committed tree. Shared nodes
	// (ambiguous regions) record one representative parent; any parent
	// chain reaches the root, which is all change propagation needs.
	Parent *Node
	// LeftmostTerm/RightmostTerm delimit the node's terminal yield; nil
	// for null-yield subtrees.
	LeftmostTerm, RightmostTerm *Node
	// Err carries the failure detail of a KindError node (nil otherwise).
	Err *ErrorDetail
}

// ErrorDetail records why a KindError region failed to parse — the raw
// material of the session's Diagnostics API. Positions are not stored: they
// are recomputed from the error node's terminal cover on demand, which is
// what keeps diagnostics correctly remapped across later edits.
type ErrorDetail struct {
	// Expected lists, by grammar name (sorted), the terminals the parser
	// could have accepted at the failure point.
	Expected []string
	// Region is the sequence nonterminal whose element structure isolated
	// the damage, or grammar.InvalidSym when the region was bounded without
	// a sequence host (e.g. a batch panic-mode quarantine).
	Region grammar.Sym
}

// computeCover fills the terminal-yield bookkeeping from the children.
func (n *Node) computeCover() {
	n.TermCount = 0
	n.LeftmostTerm, n.RightmostTerm = nil, nil
	kids := n.Kids
	if n.Kind == KindChoice && len(kids) > 0 {
		kids = kids[:1] // all interpretations share one yield
	}
	for _, k := range kids {
		n.TermCount += k.TermCount
		if n.LeftmostTerm == nil {
			n.LeftmostTerm = k.LeftmostTerm
		}
		if k.RightmostTerm != nil {
			n.RightmostTerm = k.RightmostTerm
		}
	}
}

// PropagateChange sets NestedChange on every ancestor of n (stopping at the
// first already-marked ancestor, which makes repeated marking cheap).
func (n *Node) PropagateChange() {
	for a := n.Parent; a != nil && !a.NestedChange; a = a.Parent {
		a.NestedChange = true
	}
}

func seqCountOf(n *Node) int32 {
	if n.Kind == KindSeq {
		return n.SeqCount
	}
	return 1
}

// IsTerminal reports whether n is a token leaf.
func (n *Node) IsTerminal() bool { return n.Kind == KindTerminal }

// IsChoice reports whether n is a symbol (choice) node.
func (n *Node) IsChoice() bool { return n.Kind == KindChoice }

// Arity returns the child count.
func (n *Node) Arity() int { return len(n.Kids) }

// AddChoice appends an interpretation to a choice node.
func (n *Node) AddChoice(alt *Node) {
	if n.Kind != KindChoice {
		panic("dag: AddChoice on non-choice node")
	}
	n.Kids = append(n.Kids, alt)
}

// Selected returns the surviving interpretation of a choice node: the
// unique unfiltered child, or nil if zero or several remain. For non-choice
// nodes it returns n itself.
func (n *Node) Selected() *Node {
	if n.Kind != KindChoice {
		return n
	}
	var sel *Node
	for _, k := range n.Kids {
		if k.Filtered {
			continue
		}
		if sel != nil {
			return nil
		}
		sel = k
	}
	return sel
}

// Ambiguous reports whether the subtree rooted at n contains a choice node
// with more than one unfiltered interpretation.
func (n *Node) Ambiguous() bool {
	s := AcquireScratch()
	defer ReleaseScratch(s)
	found := false
	n.walk(s, func(m *Node) bool {
		if m.Kind == KindChoice {
			alive := 0
			for _, k := range m.Kids {
				if !k.Filtered {
					alive++
				}
			}
			if alive > 1 {
				found = true
				return false
			}
		}
		return !found
	})
	return found
}

// walk visits every node reachable from n once (it is a dag), aborting when
// f returns false.
func (n *Node) walk(seen *Scratch, f func(*Node) bool) bool {
	if !seen.Visit(n) {
		return true
	}
	if !f(n) {
		return false
	}
	for _, k := range n.Kids {
		if !k.walk(seen, f) {
			return false
		}
	}
	return true
}

// Walk visits every node reachable from n exactly once, in preorder.
func (n *Node) Walk(f func(*Node)) {
	s := AcquireScratch()
	defer ReleaseScratch(s)
	n.walk(s, func(m *Node) bool { f(m); return true })
}

// Yield returns the concatenated terminal text of the subtree, following
// the first unfiltered interpretation at each choice node.
func (n *Node) Yield() string {
	var b strings.Builder
	n.yield(&b)
	return b.String()
}

func (n *Node) yield(b *strings.Builder) {
	switch n.Kind {
	case KindTerminal:
		b.WriteString(n.Text)
	case KindChoice:
		for _, k := range n.Kids {
			if !k.Filtered {
				k.yield(b)
				return
			}
		}
		if len(n.Kids) > 0 {
			n.Kids[0].yield(b)
		}
	default:
		for _, k := range n.Kids {
			k.yield(b)
		}
	}
}

// Terminals appends the terminal leaves of n (first interpretation at
// choices) to out and returns it.
func (n *Node) Terminals(out []*Node) []*Node {
	switch n.Kind {
	case KindTerminal:
		return append(out, n)
	case KindChoice:
		for _, k := range n.Kids {
			if !k.Filtered {
				return k.Terminals(out)
			}
		}
		if len(n.Kids) > 0 {
			return n.Kids[0].Terminals(out)
		}
		return out
	default:
		for _, k := range n.Kids {
			out = k.Terminals(out)
		}
		return out
	}
}

// String renders a compact one-line description.
func (n *Node) String() string {
	switch n.Kind {
	case KindTerminal:
		return fmt.Sprintf("t(%d,%q)", n.Sym, n.Text)
	case KindChoice:
		return fmt.Sprintf("choice(%d,×%d)", n.Sym, len(n.Kids))
	case KindSeq:
		return fmt.Sprintf("seq(%d,×%d)", n.Sym, len(n.Kids))
	case KindError:
		return fmt.Sprintf("error(×%d)", len(n.Kids))
	default:
		return fmt.Sprintf("p%d(%d)", n.Prod, n.Sym)
	}
}

// IsError reports whether n is an isolated syntax-error region.
func (n *Node) IsError() bool { return n.Kind == KindError }

// CollectErrors returns the KindError nodes reachable from root, leftmost
// first (preorder). A nil root yields nil.
func CollectErrors(root *Node) []*Node {
	if root == nil {
		return nil
	}
	var out []*Node
	root.Walk(func(n *Node) {
		if n.Kind == KindError {
			out = append(out, n)
		}
	})
	return out
}

// Format renders the subtree as an indented outline using grammar names.
func Format(g *grammar.Grammar, n *Node) string {
	var b strings.Builder
	format(g, n, 0, &b)
	return b.String()
}

func format(g *grammar.Grammar, n *Node, depth int, b *strings.Builder) {
	b.WriteString(strings.Repeat("  ", depth))
	switch n.Kind {
	case KindTerminal:
		fmt.Fprintf(b, "%s %q", g.Name(n.Sym), n.Text)
	case KindChoice:
		fmt.Fprintf(b, "%s «choice of %d»", g.Name(n.Sym), len(n.Kids))
	case KindSeq:
		fmt.Fprintf(b, "%s «seq %d»", g.Name(n.Sym), len(n.Kids))
	case KindError:
		fmt.Fprintf(b, "ERROR «%d token(s)»", n.TermCount)
	default:
		fmt.Fprintf(b, "%s := %s", g.Name(n.Sym), g.ProductionString(g.Production(int(n.Prod))))
	}
	if n.Filtered {
		b.WriteString("  [filtered]")
	}
	b.WriteByte('\n')
	for _, k := range n.Kids {
		format(g, k, depth+1, b)
	}
}
