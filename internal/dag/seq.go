package dag

import (
	"sort"

	"iglr/internal/grammar"
)

// Associative sequences (§3.4): grammars express repetition with generated
// left-recursive productions (X+ → X | X+ X), which parse deterministically
// but produce linked-list-shaped trees — incremental algorithms over them
// degenerate to linear time. Because sequence productions are marked
// associative, the committed dag stores every X+ as a balanced tree of
// KindSeq nodes instead, restoring the O(lg N) node-access bound.
//
// The balanced form has one canonical shape, which depends only on the
// element count: a run of at most seqLeafLimit elements is one leaf node,
// a longer run splits at its midpoint. Every subtree of a canonical tree is
// therefore the canonical tree of its own run, which is what lets a rebuild
// keep each old piece that still sits at its canonical position, and what
// makes a cold parse and any incremental history commit identical trees for
// the same text.
//
// KindSeq nodes carry the X+ symbol, and their State records the
// sequence's continuation state — the parse state after X+, in which every
// element but the first was appended. That makes a piece a state-matched
// subtree: the parsers shift it as X+ at the start of a sequence when
// Goto(state, X+) equals it, and append it to the X+ on top of the stack
// when the current state equals it (the consume rule). The State is
// MultiState instead when some element boundary under the node was crossed
// by several active parsers — the sequence reduction was followed by a
// shift into more than one parser — or when an element cannot be reused at
// all (an error region); the parsers never take such a piece whole, they
// break it down so the elements involved are parsed again.

// seqLeafLimit is the largest element count of a canonical leaf.
const seqLeafLimit = 8

// IsSeqChain reports whether n is an instance of a left-recursive sequence
// production (see grammar.IsSeqChain): the parse structure that
// Document.Commit rebuilds into the canonical balanced shape.
func IsSeqChain(g *grammar.Grammar, n *Node) bool {
	return n.Kind == KindProduction && g.IsSeqChain(int(n.Prod))
}

// SeqJoin returns the parse-time node for appending n — a balanced piece,
// or an element its leaf vouches for (SeqRecord) — to the sequence prefix
// top in parse state state: an X+ → X+ X instance whose second child is n.
// The node is transient — Document.Commit rebuilds every such structure
// into canonical shape.
func SeqJoin(a *Arena, g *grammar.Grammar, top, n *Node, state int) *Node {
	for _, p := range g.ProductionsFor(top.Sym) {
		if len(p.RHS) == 2 {
			kids := a.Kids(2)
			kids[0], kids[1] = top, n
			return a.Production(top.Sym, p.ID, state, kids)
		}
	}
	panic("dag: sequence symbol without a left-recursive production")
}

// SeqRecord returns the node that records the continuation state for the
// subtree n offered to a parser: n itself for a balanced piece, the leaf
// holding n for a committed element, nil otherwise. An element's leaf
// records a clean continuation only when every boundary in it was clean,
// so an element offered alone — even an ambiguous one, whose own state is
// MultiState — can be appended whole.
func SeqRecord(n *Node) *Node {
	switch {
	case n.Kind == KindSeq:
		return n
	case n.Committed && n.Parent != nil && n.Parent.Kind == KindSeq:
		return n.Parent
	}
	return nil
}

// SeqDepth returns the height of balanced sequence structure (diagnostic).
func SeqDepth(n *Node) int {
	if n.Kind != KindSeq {
		return 0
	}
	max := 0
	for _, k := range n.Kids {
		if d := SeqDepth(k); d > max {
			max = d
		}
	}
	return max + 1
}

// SeqPart is one run of a sequence handed to SeqBuilder.Build: an element,
// or a piece — a KindSeq subtree standing for its elements in order.
type SeqPart struct {
	Node *Node
	// State is the continuation state recorded by the sequence reduction
	// that appended the element, or MultiState when several parsers stayed
	// active across it. Pieces carry their own in Node.State.
	State int32
}

// SeqBuilder is the one constructor of KindSeq nodes: it builds canonical
// balanced sequences from parts, reusing every piece (or piece subtree)
// that sits at a canonical position. Its scratch buffers are reused across
// calls, so a steady-state rebuild allocates only the new nodes. A builder
// is single-goroutine.
type SeqBuilder struct {
	a *Arena
	g *grammar.Grammar

	buf []SeqPart // flattening scratch

	// The build in progress.
	sym    grammar.Sym
	parts  []SeqPart
	starts []int // starts[i]: element index where parts[i] begins; one extra entry holds the total
	pieces bool  // some part is a piece
}

// NewSeqBuilder returns a builder allocating from a.
func NewSeqBuilder(a *Arena, g *grammar.Grammar) *SeqBuilder {
	return &SeqBuilder{a: a, g: g}
}

// Canonical rebuilds the sequence structure rooted at the chain node n (see
// IsSeqChain) — left-recursive chains, parse-time joins and the pieces they
// hold — into canonical shape, and returns the new root.
func (b *SeqBuilder) Canonical(n *Node) *Node {
	parts := b.flatten(n, b.buf[:0])
	root := b.Build(n.Sym, parts)
	clear(parts)
	b.buf = parts
	return root
}

// Elements returns the elements of the X+ structure n (a chain, a join or
// a balanced tree) in order, each with the state Build expects. The slice
// is the caller's.
func (b *SeqBuilder) Elements(n *Node) []SeqPart {
	var out []SeqPart
	parts := b.flatten(n, b.buf[:0])
	for _, p := range parts {
		if p.Node.Kind == KindSeq {
			out = appendElements(out, p.Node)
		} else {
			out = append(out, p)
		}
	}
	clear(parts)
	b.buf = parts
	return out
}

func appendElements(out []SeqPart, n *Node) []SeqPart {
	for _, k := range n.Kids {
		if k.Kind == KindSeq {
			out = appendElements(out, k)
		} else {
			out = append(out, SeqPart{Node: k, State: n.State})
		}
	}
	return out
}

// flatten appends to parts the runs of the X+ structure n in order: the
// element each chain node appended, with the chain node's state, and each
// piece a join holds. The walk is iterative because a cold parse's chain is
// as long as the sequence.
func (b *SeqBuilder) flatten(n *Node, parts []SeqPart) []SeqPart {
	start := len(parts)
	for {
		if !IsSeqChain(b.g, n) {
			// The prefix bottoms out in a piece, or in an X+ node that is
			// not a chain (an ambiguous prefix), which stays one element.
			parts = append(parts, SeqPart{Node: n, State: MultiState})
			break
		}
		parts = append(parts, SeqPart{Node: n.Kids[len(n.Kids)-1], State: n.State})
		if len(n.Kids) == 1 {
			break
		}
		n = n.Kids[0]
	}
	for i, j := start, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return parts
}

// Build returns the canonical balanced sequence of the X+ symbol sym over
// parts, which must hold at least one element. Nodes of pieces that sit at
// canonical positions are reused; everything else is built fresh.
func (b *SeqBuilder) Build(sym grammar.Sym, parts []SeqPart) *Node {
	b.sym, b.parts, b.pieces = sym, parts, false
	starts := b.starts[:0]
	n := 0
	for _, p := range parts {
		starts = append(starts, n)
		if p.Node.Kind == KindSeq {
			b.pieces = true
			n += int(p.Node.SeqCount)
		} else {
			n++
		}
	}
	b.starts = append(starts, n)
	if n == 0 {
		panic("dag: empty sequence")
	}
	root := b.build(0, n)
	b.parts = nil
	return root
}

// build returns the canonical tree over elements [lo, hi).
func (b *SeqBuilder) build(lo, hi int) *Node {
	if b.pieces {
		if old := b.exact(lo, hi); old != nil {
			return old
		}
	}
	if hi-lo <= seqLeafLimit {
		kids := b.a.Kids(hi - lo)
		return b.node(kids, b.collect(kids, lo, hi))
	}
	mid := lo + (hi-lo)/2
	l, r := b.build(lo, mid), b.build(mid, hi)
	kids := b.a.Kids(2)
	kids[0], kids[1] = l, r
	return b.node(kids, meet(l.State, r.State))
}

func (b *SeqBuilder) node(kids []*Node, state int32) *Node {
	n := b.a.Seq(b.sym, kids)
	n.State = state
	return n
}

// meet combines the recorded states of two runs: their common continuation
// state, or MultiState when they disagree or either is not reusable.
func meet(a, b int32) int32 {
	if a != b || a < 0 {
		return MultiState
	}
	return a
}

// partAt returns the index of the part holding element i.
func (b *SeqBuilder) partAt(i int) int {
	if !b.pieces {
		return i
	}
	return sort.Search(len(b.parts), func(j int) bool { return b.starts[j+1] > i })
}

// exact returns a piece node covering exactly elements [lo, hi), or nil.
func (b *SeqBuilder) exact(lo, hi int) *Node {
	j := b.partAt(lo)
	n, a := b.parts[j].Node, b.starts[j]
	for n.Kind == KindSeq {
		end := a + int(n.SeqCount)
		if a == lo && end == hi {
			return n
		}
		if end < hi {
			return nil
		}
		for _, k := range n.Kids {
			if c := int(seqCountOf(k)); lo < a+c {
				n = k
				break
			} else {
				a += c
			}
		}
	}
	return nil
}

// collect fills kids with elements [lo, hi) and returns the meet of their
// recorded states: an element part's own, the old leaf's for an element
// taken from a piece, and MultiState for an element that records no parse
// state at all (an error region).
func (b *SeqBuilder) collect(kids []*Node, lo, hi int) int32 {
	state := int32(NoState)
	i := 0
	for j := b.partAt(lo); i < hi-lo; j++ {
		p := b.parts[j]
		if p.Node.Kind != KindSeq {
			kids[i] = p.Node
			state = meetElem(state, i, p.Node, p.State)
			i++
			continue
		}
		i, state = collectPiece(kids, i, p.Node, b.starts[j], lo+i, hi, state)
	}
	return state
}

// meetElem folds element k (the i-th of a new leaf), recorded under state
// st, into the leaf's state so far.
func meetElem(state int32, i int, k *Node, st int32) int32 {
	if k.State == NoState {
		st = MultiState
	}
	if i == 0 {
		return st
	}
	return meet(state, st)
}

// collectPiece appends to kids[i:] the elements of piece n (whose first
// element has index a) that fall in [pos, hi).
func collectPiece(kids []*Node, i int, n *Node, a, pos, hi int, state int32) (int, int32) {
	for _, k := range n.Kids {
		c := int(seqCountOf(k))
		if a+c > pos && a < hi {
			if k.Kind == KindSeq {
				i, state = collectPiece(kids, i, k, a, pos, hi, state)
			} else {
				kids[i] = k
				state = meetElem(state, i, k, n.State)
				i++
			}
		}
		a += c
	}
	return i, state
}
