// Package semantics implements the semantic-disambiguation stage of the
// paper (§4.2, Figure 8): typedef declarations are gathered into binding
// contours per scope, the binding information selects the namespace of the
// leading identifier of each ambiguous region, and boolean filter
// attributes mark the losing interpretations. Filtered interpretations are
// retained — semantic filtering uses non-local information that later edits
// can change, so the decision must be reversible (the filter attributes are
// simply recomputed). Ambiguities whose leading identifier is undeclared
// (program errors, §4.3) remain unresolved indefinitely.
package semantics

import (
	"iglr/internal/dag"
	"iglr/internal/faultinject"
)

// Config adapts the generic resolution engine to a language. All hooks
// operate on parse-dag nodes.
type Config struct {
	// IsScope reports whether n opens a nested scope (e.g. a block).
	IsScope func(n *dag.Node) bool
	// TypedefName returns the type name n introduces, if n is a typedef
	// declaration.
	TypedefName func(n *dag.Node) (string, bool)
	// DeclaredName returns the ordinary (variable/function) name n
	// introduces, if n is a declaration.
	DeclaredName func(n *dag.Node) (string, bool)
	// IsDeclInterpretation reports whether a choice-node child is the
	// "declaration" reading of the ambiguous region.
	IsDeclInterpretation func(n *dag.Node) bool
}

// Scope is one binding contour.
type Scope struct {
	parent   *Scope
	types    map[string]bool
	ordinary map[string]bool
}

// NewScope creates a scope nested in parent (nil for the global scope).
func NewScope(parent *Scope) *Scope {
	return &Scope{parent: parent, types: map[string]bool{}, ordinary: map[string]bool{}}
}

// BindType records a type name.
func (s *Scope) BindType(name string) { s.types[name] = true }

// BindOrdinary records a variable/function name.
func (s *Scope) BindOrdinary(name string) { s.ordinary[name] = true }

// IsType reports whether name is a type in this scope or an enclosing one.
// Inner ordinary bindings shadow outer type bindings and vice versa.
func (s *Scope) IsType(name string) bool {
	for c := s; c != nil; c = c.parent {
		if c.types[name] {
			return true
		}
		if c.ordinary[name] {
			return false
		}
	}
	return false
}

// IsOrdinary reports whether name is an ordinary binding.
func (s *Scope) IsOrdinary(name string) bool {
	for c := s; c != nil; c = c.parent {
		if c.ordinary[name] {
			return true
		}
		if c.types[name] {
			return false
		}
	}
	return false
}

// Result summarizes one resolution pass.
type Result struct {
	// ResolvedDecl/ResolvedStmt count ambiguous regions resolved to the
	// declaration or statement reading.
	ResolvedDecl, ResolvedStmt int
	// Unresolved counts regions whose leading identifier is undeclared;
	// their interpretations are all retained (§4.3).
	Unresolved int
	// TypeBindings/OrdinaryBindings count contour entries.
	TypeBindings, OrdinaryBindings int
}

// Resolved returns the number of regions resolved either way.
func (r Result) Resolved() int { return r.ResolvedDecl + r.ResolvedStmt }

// Resolve runs the disambiguation passes over the dag in document order:
// binding gathering and filtering are interleaved exactly as C requires
// (declarations bind from their point of declaration onward). Previous
// filter attributes are cleared first, so Resolve is idempotent and
// reversible across edits.
func Resolve(root *dag.Node, cfg Config) Result {
	if faultinject.Enabled() &&
		faultinject.Fire(faultinject.Resolve, "") == faultinject.ActPanic {
		panic(&faultinject.Panic{Point: faultinject.Resolve})
	}
	var res Result
	global := NewScope(nil)
	var walk func(n *dag.Node, sc *Scope)
	walk = func(n *dag.Node, sc *Scope) {
		if n.Kind == dag.KindChoice {
			res.resolveChoice(n, sc, cfg, walk)
			return
		}
		if name, ok := cfg.TypedefName(n); ok {
			sc.BindType(name)
			res.TypeBindings++
		} else if name, ok := cfg.DeclaredName(n); ok {
			sc.BindOrdinary(name)
			res.OrdinaryBindings++
		}
		if cfg.IsScope(n) {
			inner := NewScope(sc)
			for _, k := range n.Kids {
				walk(k, inner)
			}
			return
		}
		for _, k := range n.Kids {
			walk(k, sc)
		}
	}
	walk(root, global)
	return res
}

// resolveChoice decides one ambiguous region.
func (res *Result) resolveChoice(n *dag.Node, sc *Scope, cfg Config, walk func(*dag.Node, *Scope)) {
	// Clear previous decisions: resolution is recomputed from current
	// bindings every pass.
	for _, k := range n.Kids {
		k.Filtered = false
	}
	var declKids, stmtKids []*dag.Node
	for _, k := range n.Kids {
		if cfg.IsDeclInterpretation(k) {
			declKids = append(declKids, k)
		} else {
			stmtKids = append(stmtKids, k)
		}
	}
	lead := n.FirstTerminal()
	if lead == nil || len(declKids) == 0 || len(stmtKids) == 0 {
		// Not a declaration/statement ambiguity; leave for other filters.
		res.Unresolved++
		return
	}
	name := lead.Text
	switch {
	case sc.IsType(name):
		for _, k := range stmtKids {
			k.Filtered = true
		}
		res.ResolvedDecl++
		for _, k := range declKids {
			walk(k, sc)
		}
	case sc.IsOrdinary(name):
		for _, k := range declKids {
			k.Filtered = true
		}
		res.ResolvedStmt++
		for _, k := range stmtKids {
			walk(k, sc)
		}
	default:
		// Undeclared: a program error — every interpretation is retained
		// and no bindings are taken from the region (§4.3).
		res.Unresolved++
	}
}
