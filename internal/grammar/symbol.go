// Package grammar models context-free grammars extended with associative
// sequence notation (regular right parts), as used by the incremental GLR
// parser of Wagner & Graham (PLDI 1997). It provides a programmatic builder,
// a yacc-like textual grammar language, and the standard grammar analyses
// (nullable, FIRST, FOLLOW) required for LR table construction.
package grammar

import "fmt"

// Sym identifies a grammar symbol. Symbols are dense small integers indexing
// the grammar's symbol table. The first symbols are reserved:
//
//	EOF      — the end-of-input terminal ("$")
//	AugStart — the augmented start nonterminal (S' → start EOF)
type Sym int32

// Reserved symbols present in every grammar.
const (
	// EOF is the end-of-input terminal.
	EOF Sym = 0
	// AugStart is the augmented start symbol; production 0 is always
	// AugStart → start.
	AugStart Sym = 1
	// ErrorSym is a terminal reserved for lexically invalid tokens. No
	// production may use it, so the parser reports a syntax error when one
	// is reached — the paper's "errors are detected in the usual fashion".
	ErrorSym Sym = 2
	// NumReserved is the count of reserved symbols.
	NumReserved = 3
)

// InvalidSym is returned by lookups that fail.
const InvalidSym Sym = -1

// Assoc is the associativity of a terminal or production, used for static
// disambiguation of shift/reduce conflicts (the yacc-style filters of §4.1).
type Assoc uint8

// Associativity values.
const (
	AssocNone Assoc = iota // no declared associativity
	AssocLeft
	AssocRight
	AssocNonassoc
)

func (a Assoc) String() string {
	switch a {
	case AssocLeft:
		return "left"
	case AssocRight:
		return "right"
	case AssocNonassoc:
		return "nonassoc"
	default:
		return "none"
	}
}

// Symbol is an entry in the grammar's symbol table.
type Symbol struct {
	Name     string
	Terminal bool
	// Prec is the precedence level (>0 if declared; higher binds tighter).
	Prec int
	// Assoc is the declared associativity (terminals only).
	Assoc Assoc
	// SeqElem is the element symbol if this nonterminal was generated for a
	// sequence form (X* or X+); InvalidSym otherwise. Sequence nonterminals
	// are associative: the committed dag stores their structure balanced.
	SeqElem Sym
	// Generated reports whether the symbol was synthesized by the builder
	// (sequence expansion) rather than written by the user.
	Generated bool
}

func (s Symbol) String() string { return s.Name }

// IsSequence reports whether the symbol is a generated associative-sequence
// nonterminal.
func (s Symbol) IsSequence() bool { return s.SeqElem != InvalidSym }

func fmtSym(g *Grammar, s Sym) string {
	if g == nil {
		return fmt.Sprintf("sym(%d)", s)
	}
	return g.Name(s)
}
