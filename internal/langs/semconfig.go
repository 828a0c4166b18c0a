package langs

import (
	"iglr/internal/dag"
	"iglr/internal/grammar"
	"iglr/internal/semantics"
)

// CStyleSemantics builds the semantic-disambiguation configuration shared
// by the C and C++ subset languages: blocks open scopes, `typedef T name;`
// binds a type name, other declarations bind the ordinary name found in
// their declarator, and the declaration reading of an ambiguous Item is the
// child whose first constituent is a Decl.
func CStyleSemantics(l *Language) semantics.Config {
	var (
		declSym    = l.Sym("Decl")
		itemSym    = l.Sym("Item")
		blockSym   = l.Sym("Block")
		typedefKw  = l.Sym("TYPEDEF")
		declIdSym  = l.Sym("DeclId")
		production = dag.KindProduction
	)
	isTypedef := func(n *dag.Node) bool {
		return n.Kind == production && n.Sym == declSym &&
			len(n.Kids) > 0 && n.Kids[0].Sym == typedefKw
	}
	return semantics.Config{
		IsScope: func(n *dag.Node) bool {
			return n.Kind == production && n.Sym == blockSym
		},
		TypedefName: func(n *dag.Node) (string, bool) {
			if !isTypedef(n) || len(n.Kids) != 3 {
				return "", false
			}
			return n.Kids[2].Text, true
		},
		DeclaredName: func(n *dag.Node) (string, bool) {
			if n.Kind != production || n.Sym != declSym || isTypedef(n) {
				return "", false
			}
			if id := findFirst(n, declIdSym); id != nil && id.TermCount > 0 {
				return id.FirstTerminal().Text, true
			}
			return "", false
		},
		IsDeclInterpretation: func(n *dag.Node) bool {
			return n.Kind == production && n.Sym == itemSym &&
				len(n.Kids) > 0 && n.Kids[0].Sym == declSym
		},
	}
}

// findFirst locates the first node with the given symbol in document order.
func findFirst(n *dag.Node, sym grammar.Sym) *dag.Node {
	if n.Sym == sym && n.Kind != dag.KindTerminal {
		return n
	}
	for _, k := range n.Kids {
		if f := findFirst(k, sym); f != nil {
			return f
		}
	}
	return nil
}
