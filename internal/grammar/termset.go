package grammar

import (
	"strings"

	"iglr/internal/bitset"
)

// TermSet is a set of terminal symbols, backed by a bit set indexed by Sym.
type TermSet struct {
	bits bitset.Set
}

// NewTermSet returns an empty terminal set sized for a grammar with n
// symbols.
func NewTermSet(n int) TermSet { return TermSet{bits: bitset.New(n)} }

// Add inserts terminal t.
func (s TermSet) Add(t Sym) { s.bits.Add(int(t)) }

// Has reports whether terminal t is in the set.
func (s TermSet) Has(t Sym) bool { return s.bits.Has(int(t)) }

// Len returns the number of terminals in the set.
func (s TermSet) Len() int { return s.bits.Len() }

// Empty reports whether the set is empty.
func (s TermSet) Empty() bool { return s.bits.Empty() }

// Clone returns an independent copy.
func (s TermSet) Clone() TermSet { return TermSet{bits: s.bits.Clone()} }

// Equal reports element-wise equality.
func (s TermSet) Equal(t TermSet) bool { return s.bits.Equal(t.bits) }

// Elems returns the terminals in ascending order.
func (s TermSet) Elems() []Sym {
	ints := s.bits.Elems()
	out := make([]Sym, len(ints))
	for i, v := range ints {
		out[i] = Sym(v)
	}
	return out
}

// ForEach calls f for each terminal in ascending order.
func (s TermSet) ForEach(f func(Sym)) {
	s.bits.ForEach(func(i int) { f(Sym(i)) })
}

func (s TermSet) union(t TermSet) bool { return s.bits.Union(t.bits) }

// UnionWith adds every element of t to s, reporting whether s changed.
func (s TermSet) UnionWith(t TermSet) bool { return s.union(t) }

// Format renders the set with symbol names from g.
func (s TermSet) Format(g *Grammar) string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(t Sym) {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		b.WriteString(g.Name(t))
	})
	b.WriteByte('}')
	return b.String()
}

// computeAnalyses fills in nullable, FIRST and FOLLOW for g, and marks the
// sequence chain productions.
func (g *Grammar) computeAnalyses() {
	g.seqChain = make([]bool, len(g.prods))
	plus := make([]bool, len(g.symbols))
	for i, p := range g.prods {
		g.seqChain[i] = p.Seq && (len(p.RHS) == 2 || len(p.RHS) == 1 && p.RHS[0] == g.symbols[p.LHS].SeqElem)
		plus[p.LHS] = plus[p.LHS] || g.seqChain[i]
	}
	g.seqHost = make([]bool, len(g.prods))
	for i, p := range g.prods {
		for _, s := range p.RHS {
			g.seqHost[i] = g.seqHost[i] || plus[s]
		}
	}
	n := len(g.symbols)
	g.nullable = make([]bool, n)
	g.first = make([]TermSet, n)
	g.follow = make([]TermSet, n)
	for i := range g.first {
		g.first[i] = NewTermSet(n)
		g.follow[i] = NewTermSet(n)
		if g.symbols[i].Terminal {
			g.first[i].Add(Sym(i))
		}
	}
	// Nullable: fixed point.
	for changed := true; changed; {
		changed = false
		for _, p := range g.prods {
			if g.nullable[p.LHS] {
				continue
			}
			if g.NullableSeq(p.RHS) {
				g.nullable[p.LHS] = true
				changed = true
			}
		}
	}
	// FIRST: fixed point.
	for changed := true; changed; {
		changed = false
		for _, p := range g.prods {
			f := g.first[p.LHS]
			for _, s := range p.RHS {
				if f.union(g.first[s]) {
					changed = true
				}
				if !g.nullable[s] {
					break
				}
			}
		}
	}
	// FOLLOW: EOF follows the start symbol; fixed point.
	g.follow[g.start].Add(EOF)
	g.follow[AugStart].Add(EOF)
	for changed := true; changed; {
		changed = false
		for _, p := range g.prods {
			for i, s := range p.RHS {
				if g.symbols[s].Terminal {
					continue
				}
				rest := p.RHS[i+1:]
				fs := g.follow[s]
				nullableRest := true
				for _, r := range rest {
					if fs.union(g.first[r]) {
						changed = true
					}
					if !g.nullable[r] {
						nullableRest = false
						break
					}
				}
				if nullableRest {
					if fs.union(g.follow[p.LHS]) {
						changed = true
					}
				}
			}
		}
	}
}
