package grammar

import (
	"fmt"
	"strings"
)

// Production is a single grammar rule LHS → RHS. Production 0 is always the
// augmented rule AugStart → start.
type Production struct {
	ID  int
	LHS Sym
	RHS []Sym
	// Prec/Assoc control static shift/reduce disambiguation: by default they
	// come from the rightmost terminal in RHS, overridable with %prec.
	Prec  int
	Assoc Assoc
	// Seq marks productions generated by sequence expansion; their parse
	// structure is associative and is committed as a balanced sequence.
	Seq bool
	// Label is an optional user-facing name for the production.
	Label string

	// precSym is the %prec symbol recorded by the Builder before precedence
	// levels are final; resolved during Build.
	precSym Sym
}

// Arity returns the number of right-hand-side symbols.
func (p *Production) Arity() int { return len(p.RHS) }

// Grammar is an immutable context-free grammar produced by a Builder or by
// parsing a grammar description. All analyses are precomputed by Build.
type Grammar struct {
	symbols []Symbol
	prods   []*Production
	start   Sym // the user start symbol (AugStart → start)

	byName     map[string]Sym
	prodsByLHS [][]*Production

	nullable []bool
	first    []TermSet // indexed by Sym
	follow   []TermSet // indexed by Sym (nonterminals meaningful)
	seqChain []bool    // indexed by production; see IsSeqChain
	seqHost  []bool    // indexed by production; see IsSeqHost

	numTerminals int
}

// NumSymbols returns the total number of symbols (terminals + nonterminals).
func (g *Grammar) NumSymbols() int { return len(g.symbols) }

// NumTerminals returns the number of terminal symbols.
func (g *Grammar) NumTerminals() int { return g.numTerminals }

// NumProductions returns the number of productions, including the augmented
// start production 0.
func (g *Grammar) NumProductions() int { return len(g.prods) }

// Start returns the user-declared start symbol.
func (g *Grammar) Start() Sym { return g.start }

// Symbol returns the symbol-table entry for s.
func (g *Grammar) Symbol(s Sym) Symbol { return g.symbols[s] }

// IsTerminal reports whether s is a terminal.
func (g *Grammar) IsTerminal(s Sym) bool { return g.symbols[s].Terminal }

// Name returns the display name of s.
func (g *Grammar) Name(s Sym) string {
	if s < 0 || int(s) >= len(g.symbols) {
		return fmt.Sprintf("sym(%d)", s)
	}
	return g.symbols[s].Name
}

// Lookup returns the symbol with the given name, or InvalidSym.
func (g *Grammar) Lookup(name string) Sym {
	if s, ok := g.byName[name]; ok {
		return s
	}
	return InvalidSym
}

// Production returns production number id.
func (g *Grammar) Production(id int) *Production { return g.prods[id] }

// ProductionsFor returns the productions whose left-hand side is s.
func (g *Grammar) ProductionsFor(s Sym) []*Production { return g.prodsByLHS[s] }

// Productions returns all productions in declaration order.
func (g *Grammar) Productions() []*Production { return g.prods }

// IsSeqChain reports whether production id is a generated left-recursive
// sequence production, X+ → X or X+ → X+ X: the chain structure the dag
// stores as a balanced sequence.
func (g *Grammar) IsSeqChain(id int) bool { return g.seqChain[id] }

// IsSeqHost reports whether production id has an X+ sequence symbol on its
// right-hand side, so that its instances may hold chain structure.
func (g *Grammar) IsSeqHost(id int) bool { return g.seqHost[id] }

// Nullable reports whether s derives the empty string.
func (g *Grammar) Nullable(s Sym) bool { return g.nullable[s] }

// NullableSeq reports whether every symbol of rhs is nullable.
func (g *Grammar) NullableSeq(rhs []Sym) bool {
	for _, s := range rhs {
		if !g.nullable[s] {
			return false
		}
	}
	return true
}

// First returns FIRST(s) as a terminal set. The set is shared; callers must
// not mutate it.
func (g *Grammar) First(s Sym) TermSet { return g.first[s] }

// Follow returns FOLLOW(s) for a nonterminal s.
func (g *Grammar) Follow(s Sym) TermSet { return g.follow[s] }

// FirstOfSeq computes FIRST of a sentential form, adding the result to out.
// It reports whether the whole sequence is nullable.
func (g *Grammar) FirstOfSeq(rhs []Sym, out TermSet) bool {
	for _, s := range rhs {
		out.union(g.first[s])
		if !g.nullable[s] {
			return false
		}
	}
	return true
}

// Terminals returns all terminal symbols in symbol-table order.
func (g *Grammar) Terminals() []Sym {
	out := make([]Sym, 0, g.numTerminals)
	for i, s := range g.symbols {
		if s.Terminal {
			out = append(out, Sym(i))
		}
	}
	return out
}

// Nonterminals returns all nonterminal symbols in symbol-table order.
func (g *Grammar) Nonterminals() []Sym {
	out := make([]Sym, 0, len(g.symbols)-g.numTerminals)
	for i, s := range g.symbols {
		if !s.Terminal {
			out = append(out, Sym(i))
		}
	}
	return out
}

// ProductionString renders a production as "Expr → Expr '+' Expr".
func (g *Grammar) ProductionString(p *Production) string {
	var b strings.Builder
	b.WriteString(g.Name(p.LHS))
	b.WriteString(" →")
	if len(p.RHS) == 0 {
		b.WriteString(" ε")
	}
	for _, s := range p.RHS {
		b.WriteByte(' ')
		b.WriteString(g.Name(s))
	}
	return b.String()
}

// String renders the whole grammar, one production per line.
func (g *Grammar) String() string {
	var b strings.Builder
	for _, p := range g.prods {
		fmt.Fprintf(&b, "%3d: %s\n", p.ID, g.ProductionString(p))
	}
	return b.String()
}

// Validate checks structural sanity: every nonterminal is productive
// (derives some terminal string) and reachable from the start symbol.
// It returns a non-nil error describing the first problem found.
func (g *Grammar) Validate() error {
	// Productivity: fixed point over productions.
	productive := make([]bool, len(g.symbols))
	for i, s := range g.symbols {
		if s.Terminal {
			productive[i] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, p := range g.prods {
			if productive[p.LHS] {
				continue
			}
			all := true
			for _, s := range p.RHS {
				if !productive[s] {
					all = false
					break
				}
			}
			if all {
				productive[p.LHS] = true
				changed = true
			}
		}
	}
	for i, s := range g.symbols {
		if !s.Terminal && !productive[i] && Sym(i) != AugStart {
			return &Error{Symbol: s.Name, Msg: fmt.Sprintf("nonterminal %s is unproductive", s.Name)}
		}
	}
	// Reachability from AugStart.
	reach := make([]bool, len(g.symbols))
	reach[AugStart] = true
	var visit func(s Sym)
	visit = func(s Sym) {
		for _, p := range g.prodsByLHS[s] {
			for _, r := range p.RHS {
				if !reach[r] {
					reach[r] = true
					if !g.symbols[r].Terminal {
						visit(r)
					}
				}
			}
		}
	}
	visit(AugStart)
	// Terminals may legitimately be declared only for %prec, so only
	// nonterminals are required to be reachable.
	for i, s := range g.symbols {
		if !s.Terminal && !reach[i] && Sym(i) != AugStart {
			return &Error{Symbol: s.Name, Msg: fmt.Sprintf("symbol %s is unreachable", s.Name)}
		}
	}
	return nil
}
