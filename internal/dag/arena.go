package dag

import (
	"unsafe"

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
// reachable. The parse-time nodes of sequence chains, which a commit
// replaces, therefore come from chunks of their own (Reduction), so that a
// committed tree's chunks hold only nodes it can reach. All nodes
// reachable from one dag must come from a single arena (IDs from different
// arenas collide in Scratch), which is why every operation that creates
// nodes takes the arena owning its input.
//
// An Arena is not safe for concurrent use; documents are single-writer.
type Arena struct {
	// cur and chains are the current node chunks: chains for sequence
	// chain nodes, cur for every other node.
	cur, chains []Node
	n           int32
	// limit, when positive, is the exclusive allocation cap: alloc panics
	// with a *guard.BudgetError once n reaches it. The parsers arm it for
	// the duration of one parse (start count + budget) and disarm it on
	// exit, so document maintenance outside a parse is never capped.
	limit int32
	// kidsBuf is the current chunk of the kid-slice bump allocator (Kids):
	// production nodes own a capacity-capped subslice of it, so one heap
	// allocation per kidsChunk pointers replaces one per reduction.
	// chainKids is the same for sequence chain nodes.
	kidsBuf, chainKids []*Node
	// errs is the error-detail table: the detail of each KindError node,
	// keyed by its ID. Only error nodes enter it, so a node carries no
	// pointer word for a detail that only error nodes use. Entries stay
	// for the arena's life, as the nodes do.
	errs map[int32]*ErrorDetail
}

// arenaChunk is the nodes-per-chunk batch size: as many nodes as fill the
// allocator's largest small size class, 32 KiB (409 nodes of 80 bytes, 48
// bytes to spare), so a chunk wastes less than one node to rounding. That
// is large enough to amortize allocation to noise, and a nearly-empty tail
// chunk costs at most 32 KiB.
const arenaChunk = 32 << 10 / int(unsafe.Sizeof(Node{}))

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
func (a *Arena) Kids(n int) []*Node { return bumpKids(&a.kidsBuf, n) }

// bumpKids carves an n-pointer slice of capacity n from the chunk *buf,
// starting a new chunk when it has no room.
func bumpKids(buf *[]*Node, n int) []*Node {
	if cap(*buf)-len(*buf) < n {
		*buf = make([]*Node, 0, max(n, kidsChunk))
	}
	i := len(*buf)
	*buf = (*buf)[:i+n]
	return (*buf)[i : i+n : i+n]
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

func (a *Arena) alloc() *Node { return a.allocIn(&a.cur) }

// allocIn allocates a node from the chunk *chunk, starting a new chunk
// when it is full.
func (a *Arena) allocIn(chunk *[]Node) *Node {
	if a.limit > 0 && a.n >= a.limit {
		panic(&guard.BudgetError{Resource: guard.ResArenaNodes, Limit: int64(a.limit), Used: int64(a.n) + 1})
	}
	if faultinject.Enabled() && faultinject.Fire(faultinject.ArenaAlloc, "") == faultinject.ActBudget {
		panic(&guard.BudgetError{Resource: guard.ResArenaNodes, Limit: int64(a.n), Used: int64(a.n) + 1})
	}
	if len(*chunk) == cap(*chunk) {
		*chunk = make([]Node, 0, arenaChunk)
	}
	// Reslice instead of append(*chunk, Node{}): the chunk is already
	// zeroed by make, so materializing and copying a zero Node would be
	// pure waste.
	c := (*chunk)[:len(*chunk)+1]
	*chunk = c
	n := &c[len(c)-1]
	n.ID = a.n
	a.n++
	return n
}

// Terminal creates a token leaf.
func (a *Arena) Terminal(sym grammar.Sym, text string) *Node {
	n := a.alloc()
	n.Kind, n.Sym, n.Prod, n.State, n.Text = KindTerminal, sym, -1, NoState, text
	n.LastTerm, n.TermCount = n.ID, 1
	return n
}

// Production creates a production-instance node. The node takes ownership
// of kids.
func (a *Arena) Production(sym grammar.Sym, prod int, state int, kids []*Node) *Node {
	return a.production(&a.cur, sym, prod, state, kids)
}

func (a *Arena) production(chunk *[]Node, sym grammar.Sym, prod, state int, kids []*Node) *Node {
	n := a.allocIn(chunk)
	n.Kind, n.Sym, n.Prod, n.State, n.Kids = KindProduction, sym, int32(prod), int32(state), kids
	n.computeCover()
	return n
}

// Reduction creates the node of a reduction by rule of g over a copy of
// kids, which may be a transient buffer, in parse state state. An
// instance of a left-recursive sequence production (grammar.IsSeqChain)
// is allocated, with its kid slice, apart from every other node:
// Document.Commit replaces such chains by canonical balanced sequences
// (§3.4), so their chunks turn to garbage once no parse holds them, rather
// than staying reachable, and scanned by the collector, beside the
// committed tree's nodes.
func (a *Arena) Reduction(g *grammar.Grammar, rule, state int, kids []*Node) *Node {
	chunk, buf := &a.cur, &a.kidsBuf
	if g.IsSeqChain(rule) {
		chunk, buf = &a.chains, &a.chainKids
	}
	owned := bumpKids(buf, len(kids))
	copy(owned, kids)
	return a.production(chunk, g.Production(rule).LHS, rule, state, owned)
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
// terminal nodes kids (kept verbatim, in text order) and records det, when
// it is not nil, as the node's ErrorDetail. The node carries NoState so
// incremental reparses break it down instead of reusing it.
func (a *Arena) Error(kids []*Node, det *ErrorDetail) *Node {
	n := a.alloc()
	n.Kind, n.Sym, n.Prod, n.State, n.Kids = KindError, grammar.ErrorSym, -1, NoState, kids
	n.computeCover()
	a.setErrorDetail(n.ID, det)
	return n
}

func (a *Arena) setErrorDetail(id int32, det *ErrorDetail) {
	if det == nil {
		return
	}
	if a.errs == nil {
		a.errs = make(map[int32]*ErrorDetail)
	}
	a.errs[id] = det
}

// ErrorDetail returns the failure detail recorded for the error node n of
// this arena, or nil when n is not an error node or none was recorded.
func (a *Arena) ErrorDetail(n *Node) *ErrorDetail {
	if n.Kind != KindError {
		return nil
	}
	return a.errs[n.ID]
}

// Clone allocates a shallow copy of n with a fresh identity (new ID), an
// error node's detail included. The Kids slice is shared with the
// original; callers that rewire children must replace it.
func (a *Arena) Clone(n *Node) *Node {
	c := a.alloc()
	id := c.ID
	*c = *n
	c.ID = id
	a.setErrorDetail(id, a.ErrorDetail(n))
	return c
}
