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
	"io"
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
	// reverted by error handling. Error nodes are created by the isolating
	// reparse (internal/isolate), never by the parser itself; like
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
// Field order is deliberate: the kind, Filtered and the flags byte share
// one word with the ID, the int32s fill the next three, and the
// pointer-bearing fields close the struct — 80 bytes and three pointer
// words (Kids, Text, Parent), which TestNodeSize pins. What only some
// nodes need lives beside the tree: an error node's detail in its arena's
// table (Arena.ErrorDetail), and a node's first terminal is found by
// position (FirstTerminal) rather than recorded. Node memory is the
// dominant allocation of a cold batch parse (roughly one node per input
// byte on C-like corpora), and the collector's cost follows a node's
// bytes, so every field byte is zeroed, written and scanned millions of
// times per corpus file; keep the struct tight, and its pointers few, when
// adding fields.
type Node struct {
	Kind Kind
	// Filtered marks an interpretation rejected by a semantic filter. The
	// node is retained (semantic filtering is reversible, §4.2) but
	// ignored by pipeline stages that read the embedded tree.
	Filtered bool
	// flags holds the five bookkeeping bits (flagChanged …), read and set
	// through the methods of the same names.
	flags uint8
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

	// Incremental bookkeeping (§3.2–3.3). The paper records the leftmost
	// terminal descendant in every node to locate reuse candidates without
	// traversal; here a subtree starts at a terminal exactly when the climb
	// from that terminal passes only through first kids (document.Stream's
	// maximalSubtree), so the record is the position, not a field. The
	// rightmost terminal is recorded (for the right-context check) as a
	// node ID, which the collector never follows, and so is the terminal
	// count (to advance the input cursor past a shifted subtree).

	// TermCount is the number of terminal leaves in the subtree; 0 for a
	// null yield.
	TermCount int32
	// SeqCount is the number of sequence elements under a KindSeq node
	// (1 for any other node); it makes balanced-sequence indexing O(1)
	// per level.
	SeqCount int32
	// LastTerm is the ID of the last terminal of the node's yield; -1 for
	// a null-yield subtree. FirstTerminal finds the first terminal's node.
	LastTerm int32
	// Kids are the children: RHS instances for production nodes,
	// alternatives for choice nodes, elements/subsequences for KindSeq.
	Kids []*Node
	// Text is the lexeme (terminals only).
	Text string
	// Parent is the node's parent in the last committed tree. Shared nodes
	// (ambiguous regions) record one representative parent; any parent
	// chain reaches the root, which is all change propagation needs.
	Parent *Node
}

// The bits of Node.flags.
const (
	flagChanged uint8 = 1 << iota
	flagNestedChange
	flagCommitted
	flagBudgetPruned
	flagHasError
)

func (n *Node) set(bit uint8, on bool) {
	if on {
		n.flags |= bit
	} else {
		n.flags &^= bit
	}
}

// Changed marks terminals removed or modified since the last parse; the
// document layer maintains it.
func (n *Node) Changed() bool { return n.flags&flagChanged != 0 }

// SetChanged sets or clears Changed.
func (n *Node) SetChanged(on bool) { n.set(flagChanged, on) }

// NestedChange marks interior nodes whose yield contains an edit since the
// last parse.
func (n *Node) NestedChange() bool { return n.flags&flagNestedChange != 0 }

// SetNestedChange sets or clears NestedChange.
func (n *Node) SetNestedChange(on bool) { n.set(flagNestedChange, on) }

// Committed marks nodes that belong to a committed (parsed) tree; used to
// distinguish reused structure from freshly built structure.
func (n *Node) Committed() bool { return n.flags&flagCommitted != 0 }

// SetCommitted sets or clears Committed.
func (n *Node) SetCommitted(on bool) { n.set(flagCommitted, on) }

// BudgetPruned marks a choice node whose interpretations were cut to the
// statically preferred one because the region exceeded the ambiguity
// budget (guard.Budget.MaxAlternatives). The tree is usable but no longer
// encodes the full forest for this region — analyses that rely on the §5
// bounded-ambiguity claims should treat the region as disambiguated by
// policy, not by evidence.
func (n *Node) BudgetPruned() bool { return n.flags&flagBudgetPruned != 0 }

// SetBudgetPruned sets or clears BudgetPruned.
func (n *Node) SetBudgetPruned(on bool) { n.set(flagBudgetPruned, on) }

// HasError summarizes the subtree: it is set when a KindError node is
// reachable from this one through any kid, every choice alternative
// included. The constructors compute it from the kids, and AddChoice and
// the parser's in-place choice promotion keep it, so CollectErrors skips
// every subtree without it. Filters that drop alternatives leave it set,
// which only makes that walk look further.
func (n *Node) HasError() bool { return n.flags&flagHasError != 0 }

// SetHasError sets or clears HasError.
func (n *Node) SetHasError(on bool) { n.set(flagHasError, on) }

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

// computeCover fills the terminal-yield bookkeeping and the HasError
// summary from the children, folding them in locals so that each field is
// written once.
func (n *Node) computeCover() {
	var count int32
	last := int32(-1)
	hasErr := n.Kind == KindError
	for i, k := range n.Kids {
		hasErr = hasErr || k.HasError()
		if n.Kind == KindChoice && i > 0 {
			continue // all interpretations share one yield
		}
		count += k.TermCount
		if k.LastTerm >= 0 {
			last = k.LastTerm
		}
	}
	n.TermCount, n.LastTerm = count, last
	n.SetHasError(hasErr)
}

// FirstTerminal returns the first terminal of n's yield, or nil for a null
// yield. It descends through the first kid with a yield at each level (at
// a choice, the first interpretation, since all of them share one yield),
// so it costs the depth.
func (n *Node) FirstTerminal() *Node {
	for n != nil && n.Kind != KindTerminal {
		kids := n.Kids
		n = nil
		for _, k := range kids {
			if k.TermCount > 0 {
				n = k
				break
			}
		}
	}
	return n
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
	if alt.HasError() {
		n.SetHasError(true)
	}
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

// CollectErrors returns the KindError nodes reachable from root, leftmost
// first (preorder), and the number of nodes it visited. It descends only
// into subtrees whose HasError summary is set, so a clean tree costs one
// visit and k error nodes cost O(k·depth). Its visited set holds only the
// nodes it enters, so its memory follows the walk, not the arena's size. A
// nil root yields nil.
func CollectErrors(root *Node) (errs []*Node, visited int) {
	if root == nil {
		return nil, 0
	}
	if !root.HasError() {
		return nil, 1
	}
	seen := make(map[*Node]bool)
	var collect func(n *Node)
	collect = func(n *Node) {
		visited++
		if !n.HasError() || seen[n] {
			return
		}
		seen[n] = true
		if n.Kind == KindError {
			errs = append(errs, n)
		}
		for _, k := range n.Kids {
			collect(k)
		}
	}
	collect(root)
	return errs, visited
}

// Format renders the subtree as an indented outline using grammar names.
func Format(g *grammar.Grammar, n *Node) string {
	var b strings.Builder
	FormatTo(&b, g, n)
	return b.String()
}

// FormatTo writes Format's outline to w, one line per Write, and stops at
// the first write error, which it returns: a writer that refuses the bytes
// past a cap ends the render there.
func FormatTo(w io.Writer, g *grammar.Grammar, n *Node) error {
	var line []byte
	return formatTo(w, g, n, 0, &line)
}

func formatTo(w io.Writer, g *grammar.Grammar, n *Node, depth int, line *[]byte) error {
	b := (*line)[:0]
	for range depth {
		b = append(b, "  "...)
	}
	switch n.Kind {
	case KindTerminal:
		b = fmt.Appendf(b, "%s %q", g.Name(n.Sym), n.Text)
	case KindChoice:
		b = fmt.Appendf(b, "%s «choice of %d»", g.Name(n.Sym), len(n.Kids))
	case KindSeq:
		b = fmt.Appendf(b, "%s «seq %d»", g.Name(n.Sym), len(n.Kids))
	case KindError:
		b = fmt.Appendf(b, "ERROR «%d token(s)»", n.TermCount)
	default:
		b = fmt.Appendf(b, "%s := %s", g.Name(n.Sym), g.ProductionString(g.Production(int(n.Prod))))
	}
	if n.Filtered {
		b = append(b, "  [filtered]"...)
	}
	b = append(b, '\n')
	*line = b
	if _, err := w.Write(b); err != nil {
		return err
	}
	for _, k := range n.Kids {
		if err := formatTo(w, g, k, depth+1, line); err != nil {
			return err
		}
	}
	return nil
}
