package grammar

import "fmt"

// Builder assembles a Grammar incrementally. Symbols may be referenced by
// name before they are classified; Build resolves everything, synthesizes
// sequence nonterminals, and runs the grammar analyses.
type Builder struct {
	symbols []Symbol
	byName  map[string]Sym
	prods   []*Production

	precLevel int
	start     string
	seqCache  map[seqKey]Sym
	errs      []error
}

type seqKey struct {
	elem     Sym
	sep      Sym // InvalidSym when no separator
	allowNil bool
}

// NewBuilder returns an empty Builder with the reserved symbols installed.
func NewBuilder() *Builder {
	b := &Builder{
		byName:   make(map[string]Sym),
		seqCache: make(map[seqKey]Sym),
	}
	b.symbols = append(b.symbols,
		Symbol{Name: "$", Terminal: true, SeqElem: InvalidSym},
		Symbol{Name: "S'", Terminal: false, SeqElem: InvalidSym},
		Symbol{Name: "#error", Terminal: true, SeqElem: InvalidSym},
	)
	b.byName["$"] = EOF
	b.byName["S'"] = AugStart
	b.byName["#error"] = ErrorSym
	return b
}

func (b *Builder) errf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
}

// intern returns the Sym for name, creating an unclassified entry when the
// name is new. Newly created symbols default to nonterminal; Terminal and
// the precedence declarations reclassify them.
func (b *Builder) intern(name string) Sym {
	if s, ok := b.byName[name]; ok {
		return s
	}
	s := Sym(len(b.symbols))
	b.symbols = append(b.symbols, Symbol{Name: name, SeqElem: InvalidSym})
	b.byName[name] = s
	return s
}

// Terminal declares name as a terminal symbol and returns it.
func (b *Builder) Terminal(name string) Sym {
	s := b.intern(name)
	b.symbols[s].Terminal = true
	return s
}

// Terminals declares several terminal symbols.
func (b *Builder) Terminals(names ...string) {
	for _, n := range names {
		b.Terminal(n)
	}
}

// declPrec declares a new precedence level for the given terminals.
func (b *Builder) declPrec(assoc Assoc, names []string) {
	b.precLevel++
	for _, n := range names {
		s := b.Terminal(n)
		b.symbols[s].Prec = b.precLevel
		b.symbols[s].Assoc = assoc
	}
}

// Left declares a left-associative precedence level (like yacc %left).
// Later calls bind tighter.
func (b *Builder) Left(names ...string) { b.declPrec(AssocLeft, names) }

// Right declares a right-associative precedence level (%right).
func (b *Builder) Right(names ...string) { b.declPrec(AssocRight, names) }

// Nonassoc declares a non-associative precedence level (%nonassoc).
func (b *Builder) Nonassoc(names ...string) { b.declPrec(AssocNonassoc, names) }

// Rule adds a production lhs → rhs and returns its production ID.
// RHS element names of the form "X*" and "X+" denote associative sequences
// (zero-or-more / one-or-more of X) and synthesize a sequence nonterminal.
func (b *Builder) Rule(lhs string, rhs ...string) int {
	return b.RuleWithPrec(lhs, "", rhs...)
}

// RuleWithPrec adds a production with an explicit %prec terminal. An empty
// precName means "derive precedence from the rightmost terminal".
func (b *Builder) RuleWithPrec(lhs, precName string, rhs ...string) int {
	l := b.intern(lhs)
	rs := make([]Sym, 0, len(rhs))
	for _, name := range rhs {
		rs = append(rs, b.rhsSymbol(name))
	}
	p := &Production{ID: len(b.prods), LHS: l, RHS: rs, precSym: InvalidSym}
	if precName != "" {
		p.precSym = b.intern(precName)
	}
	b.prods = append(b.prods, p)
	return p.ID
}

// rhsSymbol resolves one RHS name, handling sequence suffixes. Quoted names
// ('+' or "while") are implicitly terminals.
func (b *Builder) rhsSymbol(name string) Sym {
	if n := len(name); n > 1 && name[0] != '\'' && name[0] != '"' {
		switch name[n-1] {
		case '*':
			return b.Sequence(name[:n-1], true)
		case '+':
			return b.Sequence(name[:n-1], false)
		}
	}
	if name != "" && (name[0] == '\'' || name[0] == '"') {
		return b.Terminal(name)
	}
	return b.intern(name)
}

// Sequence returns (creating if needed) the associative sequence nonterminal
// for elem. When allowEmpty is true the sequence may be empty (X*),
// otherwise it requires at least one element (X+). The generated productions
// are left-recursive for parsing; the dag layer stores their yields in
// balanced form because the productions are marked Seq.
func (b *Builder) Sequence(elem string, allowEmpty bool) Sym {
	e := b.intern(elem)
	key := seqKey{elem: e, sep: InvalidSym, allowNil: allowEmpty}
	if s, ok := b.seqCache[key]; ok {
		return s
	}
	suffix := "+"
	if allowEmpty {
		suffix = "*"
	}
	name := elem + suffix
	s := b.intern(name)
	b.symbols[s].SeqElem = e
	b.symbols[s].Generated = true
	b.seqCache[key] = s
	if allowEmpty {
		// X* → ε | X+  keeps the expansion unambiguous (X* → ε | X | X* X
		// would derive a single X two ways).
		plus := b.Sequence(elem, false)
		b.addSeqProd(s, nil)
		b.addSeqProd(s, []Sym{plus})
	} else {
		b.addSeqProd(s, []Sym{e})    // X+ → X
		b.addSeqProd(s, []Sym{s, e}) // X+ → X+ X
	}
	return s
}

func (b *Builder) addSeqProd(lhs Sym, rhs []Sym) {
	b.prods = append(b.prods, &Production{ID: len(b.prods), LHS: lhs, RHS: rhs, Seq: true})
}

// Start declares the start symbol by name.
func (b *Builder) Start(name string) { b.start = name }

// Build finalizes the grammar: installs the augmented production, resolves
// precedences, computes analyses, and validates structure.
func (b *Builder) Build() (*Grammar, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	if b.start == "" {
		return nil, &Error{Msg: "no start symbol declared"}
	}
	start, ok := b.byName[b.start]
	if !ok {
		return nil, &Error{Symbol: b.start, Msg: fmt.Sprintf("start symbol %q not defined", b.start)}
	}
	// Classify: anything that appears as a LHS is a nonterminal; everything
	// else referenced only on RHS must have been declared terminal.
	isLHS := make(map[Sym]bool)
	for _, p := range b.prods {
		isLHS[p.LHS] = true
	}
	for _, p := range b.prods {
		if b.symbols[p.LHS].Terminal {
			return nil, &Error{
				Symbol:     b.symbols[p.LHS].Name,
				Production: b.renderProduction(p),
				Msg:        fmt.Sprintf("terminal %s used as a production left-hand side", b.symbols[p.LHS].Name),
			}
		}
		for _, s := range p.RHS {
			if !b.symbols[s].Terminal && !isLHS[s] {
				return nil, &Error{
					Symbol:     b.symbols[s].Name,
					Production: b.renderProduction(p),
					Msg:        fmt.Sprintf("symbol %s is used but never defined (declare it %%token or give it a production)", b.symbols[s].Name),
				}
			}
		}
	}
	if b.symbols[start].Terminal {
		return nil, &Error{Symbol: b.start, Msg: fmt.Sprintf("start symbol %s is a terminal", b.start)}
	}

	g := &Grammar{
		symbols: make([]Symbol, len(b.symbols)),
		byName:  make(map[string]Sym, len(b.byName)),
		start:   start,
	}
	copy(g.symbols, b.symbols)
	for k, v := range b.byName {
		g.byName[k] = v
	}

	// Production 0: AugStart → start.
	aug := &Production{ID: 0, LHS: AugStart, RHS: []Sym{start}}
	g.prods = append(g.prods, aug)
	for _, p := range b.prods {
		q := &Production{
			ID:    len(g.prods),
			LHS:   p.LHS,
			RHS:   append([]Sym(nil), p.RHS...),
			Seq:   p.Seq,
			Label: p.Label,
		}
		// Precedence: explicit %prec wins, else rightmost terminal.
		if p.precSym > 0 {
			ps := g.symbols[p.precSym]
			q.Prec, q.Assoc = ps.Prec, ps.Assoc
		} else {
			for i := len(q.RHS) - 1; i >= 0; i-- {
				if sym := g.symbols[q.RHS[i]]; sym.Terminal {
					q.Prec, q.Assoc = sym.Prec, sym.Assoc
					break
				}
			}
		}
		g.prods = append(g.prods, q)
	}

	g.prodsByLHS = make([][]*Production, len(g.symbols))
	for _, p := range g.prods {
		g.prodsByLHS[p.LHS] = append(g.prodsByLHS[p.LHS], p)
	}
	for i, s := range g.symbols {
		if s.Terminal {
			g.numTerminals++
		} else if len(g.prodsByLHS[i]) == 0 && Sym(i) != AugStart {
			return nil, &Error{Symbol: s.Name, Msg: fmt.Sprintf("nonterminal %s has no productions", s.Name)}
		}
	}
	g.computeAnalyses()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
