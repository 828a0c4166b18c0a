package lr

import "iglr/internal/grammar"

// Reduction fusion, precomputed at seal time for the batch parse kernel.
//
// In a deterministic region a single lookahead terminal frequently triggers
// a cascade of reductions before anything shifts: a unit reduce exposes a
// state whose only action on the same terminal is another reduce, and so on
// (ε-instantiations of X* sequences and unit chains like Primary → Expr are
// the common cases). Each step of that cascade normally costs an action
// lookup plus a goto lookup. The cascade, however, is a pure function of
// (state, terminal) for as long as every pop stays within the states the
// cascade itself has made known: an ε reduce pops nothing, and a k-ary
// reduce is statically resolvable while k reaches at most back to the
// entry state. seal walks each unique-reduce cell forward under exactly
// that rule and records the whole chain, so the kernel replays it as node
// builds only — one table hit for the entire cascade.
//
// The chains are derived data: Decode regenerates them by sealing, so the
// .cclang artifact format is unchanged and round-trips bit-identically.

// FuseStep is one fused reduction: the production to apply and the goto
// state entered after it. Arity and LHS come from the grammar production.
type FuseStep struct {
	Rule int32
	Goto int32
}

// maxFuseLen bounds a chain's length; cascades longer than this are
// vanishingly rare and the tail still runs through the normal loop.
const maxFuseLen = 8

// FusedChain returns the precomputed reduction cascade for (state, term),
// or nil when none applies (the cell is not a unique reduce, or the chain
// would not be statically resolvable for at least two steps). The kernel
// checks fusedState[state] first, so the map lookup is off the common path.
func (t *Table) FusedChain(state int, term grammar.Sym) []FuseStep {
	if !t.fusedState[state] {
		return nil
	}
	return t.fused[fuseKey(state, term)]
}

func fuseKey(state int, term grammar.Sym) uint32 {
	return uint32(state)<<16 | uint32(uint16(term))
}

// precomputeFusedChains fills the fusion tables. Called from seal, after
// the dense cells exist (the simulation reads them through OneAction).
func (tb *tableBuilder) precomputeFusedChains() {
	t := tb.t
	g := tb.g
	t.fusedState = make([]bool, t.numStates)
	t.fused = map[uint32][]FuseStep{}
	// vstack simulates the known suffix of the parse stack: vstack[0] is the
	// entry state, everything above was pushed by the chain itself.
	var vstack []int32
	for state := 0; state < t.numStates; state++ {
		for _, term := range g.Terminals() {
			var chain []FuseStep
			vstack = append(vstack[:0], int32(state))
			for len(chain) < maxFuseLen {
				act, n := t.OneAction(int(vstack[len(vstack)-1]), term)
				if n != 1 || act.Kind != Reduce {
					break
				}
				prod := g.Production(int(act.Target))
				k := prod.Arity()
				if k > len(vstack)-1 {
					// The pop would reach below the entry state: the goto
					// context is unknown statically, so the chain ends here.
					break
				}
				vstack = vstack[:len(vstack)-k]
				gt := t.Goto(int(vstack[len(vstack)-1]), prod.LHS)
				if gt < 0 {
					break
				}
				chain = append(chain, FuseStep{Rule: act.Target, Goto: int32(gt)})
				vstack = append(vstack, int32(gt))
			}
			// A single-step "chain" is exactly what the normal loop already
			// does in one hit; only genuine cascades earn a table entry.
			if len(chain) >= 2 {
				t.fused[fuseKey(state, term)] = chain
				t.fusedState[state] = true
			}
		}
	}
}
