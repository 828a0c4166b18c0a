package dag

import (
	"iglr/internal/faultinject"
	"iglr/internal/grammar"
	"iglr/internal/guard"
)

// Arena is the per-document node allocator. Nodes are bump-allocated from
// chunks, which batches what used to be one heap allocation per node into
// one per arenaChunk nodes, and every node receives a dense int32 ID at
// creation. The IDs are what make Scratch possible: traversals index
// slice-backed scratch tables by ID instead of hashing pointers.
//
// An arena only grows — nodes escape into the committed tree, so memory is
// never recycled; the GC reclaims whole chunks once no node in them is
// reachable. All nodes reachable from one dag must come from a single arena
// (IDs from different arenas collide in Scratch), which is why every
// operation that creates nodes takes the arena owning its input.
//
// An Arena is not safe for concurrent use; documents are single-writer.
type Arena struct {
	cur []Node
	n   int32
	// limit, when positive, is the exclusive allocation cap: alloc panics
	// with a *guard.BudgetError once n reaches it. The parsers arm it for
	// the duration of one parse (start count + budget) and disarm it on
	// exit, so document maintenance outside a parse is never capped.
	limit int32
	// kidsBuf is the current chunk of the kid-slice bump allocator (Kids):
	// production nodes own a capacity-capped subslice of it, so one heap
	// allocation per kidsChunk pointers replaces one per reduction.
	kidsBuf []*Node
}

// arenaChunk is the nodes-per-chunk batch size: large enough to amortize
// allocation to noise, small enough that a nearly-empty tail chunk wastes
// little memory (~28KB at current Node size).
const arenaChunk = 256

// NewArena creates an empty arena.
func NewArena() *Arena { return &Arena{} }

// kidsChunk is the pointer count per kid-slice chunk: big enough to make
// the amortized per-reduction allocation cost vanish, small enough that a
// mostly-unused tail chunk is noise.
const kidsChunk = 4096

// Kids bump-allocates an n-pointer kid slice for a node under construction.
// The result has capacity exactly n (a full slice expression), so a later
// append on the node's Kids copies out instead of scribbling over the
// neighboring node's children. Like node storage, a chunk is reclaimed by
// the GC once every node holding a piece of it is unreachable.
func (a *Arena) Kids(n int) []*Node {
	if cap(a.kidsBuf)-len(a.kidsBuf) < n {
		c := kidsChunk
		if n > c {
			c = n
		}
		a.kidsBuf = make([]*Node, 0, c)
	}
	i := len(a.kidsBuf)
	a.kidsBuf = a.kidsBuf[:i+n]
	return a.kidsBuf[i : i+n : i+n]
}

// NumNodes returns the number of nodes ever allocated — also the exclusive
// upper bound of the IDs in use, which Scratch uses to size its tables.
func (a *Arena) NumNodes() int { return int(a.n) }

// SetLimit arms (or, with max <= 0, disarms) the allocation cap. The cap
// is absolute: callers arm it as NumNodes() + perParseBudget.
func (a *Arena) SetLimit(max int) {
	if max <= 0 {
		a.limit = 0
		return
	}
	a.limit = int32(max)
}

func (a *Arena) alloc() *Node {
	if a.limit > 0 && a.n >= a.limit {
		panic(&guard.BudgetError{Resource: guard.ResArenaNodes, Limit: int64(a.limit), Used: int64(a.n) + 1})
	}
	if faultinject.Enabled() && faultinject.Fire(faultinject.ArenaAlloc, "") == faultinject.ActBudget {
		panic(&guard.BudgetError{Resource: guard.ResArenaNodes, Limit: int64(a.n), Used: int64(a.n) + 1})
	}
	if len(a.cur) == cap(a.cur) {
		a.cur = make([]Node, 0, arenaChunk)
	}
	// Reslice instead of append(a.cur, Node{}): the chunk is already zeroed
	// by make, so materializing and copying a zero Node would be pure waste.
	a.cur = a.cur[:len(a.cur)+1]
	n := &a.cur[len(a.cur)-1]
	n.ID = a.n
	a.n++
	return n
}

// Terminal creates a token leaf.
func (a *Arena) Terminal(sym grammar.Sym, text string) *Node {
	n := a.alloc()
	n.Kind, n.Sym, n.Prod, n.State, n.Text = KindTerminal, sym, -1, NoState, text
	n.LeftmostTerm, n.RightmostTerm, n.TermCount = n, n, 1
	return n
}

// Production creates a production-instance node. The node takes ownership
// of kids.
func (a *Arena) Production(sym grammar.Sym, prod int, state int, kids []*Node) *Node {
	n := a.alloc()
	n.Kind, n.Sym, n.Prod, n.State, n.Kids = KindProduction, sym, int32(prod), int32(state), kids
	n.computeCover()
	return n
}

// Choice creates a symbol node whose interpretations are alts. Choice nodes
// are multi-state by definition (§3.3).
func (a *Arena) Choice(sym grammar.Sym, alts ...*Node) *Node {
	n := a.alloc()
	n.Kind, n.Sym, n.Prod, n.State, n.Kids = KindChoice, sym, -1, MultiState, alts
	n.computeCover()
	return n
}

// Seq creates a balanced-sequence internal node (§3.4).
func (a *Arena) Seq(sym grammar.Sym, kids []*Node) *Node {
	n := a.alloc()
	n.Kind, n.Sym, n.Prod, n.State, n.Kids = KindSeq, sym, -1, NoState, kids
	n.computeCover()
	for _, k := range kids {
		n.SeqCount += seqCountOf(k)
	}
	return n
}

// Error creates an isolated syntax-error region over the quarantined
// terminal nodes kids (kept verbatim, in text order). The node carries
// NoState so incremental reparses break it down instead of reusing it.
func (a *Arena) Error(kids []*Node, det *ErrorDetail) *Node {
	n := a.alloc()
	n.Kind, n.Sym, n.Prod, n.State, n.Kids = KindError, grammar.ErrorSym, -1, NoState, kids
	n.Err = det
	n.computeCover()
	return n
}

// Clone allocates a shallow copy of n with a fresh identity (new ID). The
// Kids slice is shared with the original; callers that rewire children must
// replace it.
func (a *Arena) Clone(n *Node) *Node {
	c := a.alloc()
	id := c.ID
	*c = *n
	c.ID = id
	return c
}
