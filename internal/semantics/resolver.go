package semantics

import (
	"fmt"

	"iglr/internal/dag"
)

// Resolver wraps Resolve with the bookkeeping §4.2 describes: "binding
// information stored in semantic attributes allows the former uses of the
// declaration to be efficiently located". After each pass the resolver
// indexes every ambiguous region by the identifier whose namespace decided
// it, so when a declaration changes, the affected use sites are found
// without a tree search.
type Resolver struct {
	cfg Config
	// useSites maps the deciding identifier to its ambiguous regions
	// (choice nodes) as of the last pass.
	useSites map[string][]*dag.Node
	// decisions records the last outcome per ambiguous region, keyed by
	// the deciding identifier and its occurrence index — stable across
	// reparses that rebuild the region's nodes.
	decisions map[string]Decision
	last      Result
}

// Decision is the recorded outcome for one ambiguous region.
type Decision uint8

// Decision values.
const (
	DecidedNone Decision = iota // unresolved (retained interpretations)
	DecidedDecl
	DecidedStmt
)

// NewResolver creates a resolver for a language configuration.
func NewResolver(cfg Config) *Resolver {
	return &Resolver{
		cfg:       cfg,
		useSites:  map[string][]*dag.Node{},
		decisions: map[string]Decision{},
	}
}

// Resolve runs a pass and refreshes the use-site index. It also reports
// which identifiers' regions changed their interpretation since the
// previous pass — the §4.2 re-interpretation set.
func (r *Resolver) Resolve(root *dag.Node) (Result, []ReinterpretedRegion) {
	prev := r.decisions
	r.useSites = map[string][]*dag.Node{}
	r.decisions = map[string]Decision{}

	res := Resolve(root, r.cfg)
	r.last = res

	var flips []ReinterpretedRegion
	occ := map[string]int{}
	root.Walk(func(n *dag.Node) {
		if n.Kind != dag.KindChoice || n.TermCount == 0 {
			return
		}
		name := n.FirstTerminal().Text
		r.useSites[name] = append(r.useSites[name], n)
		key := fmt.Sprintf("%s#%d", name, occ[name])
		occ[name]++
		d := r.decisionOf(n)
		r.decisions[key] = d
		if old, ok := prev[key]; ok && old != d {
			flips = append(flips, ReinterpretedRegion{Name: name, Region: n, From: old, To: d})
		}
	})
	return res, flips
}

// ReinterpretedRegion records a region whose interpretation flipped
// between passes (e.g. after a typedef was removed).
type ReinterpretedRegion struct {
	Name     string
	Region   *dag.Node
	From, To Decision
}

// UseSites returns the ambiguous regions whose resolution depends on name,
// as of the last pass.
func (r *Resolver) UseSites(name string) []*dag.Node {
	return r.useSites[name]
}

// Last returns the most recent pass result.
func (r *Resolver) Last() Result { return r.last }

// decisionOf derives the current decision from the filter attributes.
func (r *Resolver) decisionOf(choice *dag.Node) Decision {
	sel := choice.Selected()
	if sel == nil {
		return DecidedNone
	}
	if r.cfg.IsDeclInterpretation(sel) {
		return DecidedDecl
	}
	return DecidedStmt
}
