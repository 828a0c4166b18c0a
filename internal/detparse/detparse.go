// Package detparse implements a deterministic incremental parser based on
// state-matching (Jalili & Gallier [8]; paper §3.2) — the baseline against
// which §5 compares the IGLR parser. It requires a conflict-free LR table
// and uses a single linear parse stack instead of a GSS, but shares the
// same input-stream abstraction (reused subtrees plus fresh terminals) and
// the same state-matching reuse discipline.
//
// It is a reference, not a session parser: Session always runs the IGLR
// parser, which makes the same shifts and reductions on a conflict-free
// table. The §5 experiments, the cross-parser differential and the
// sequence-edit oracle drive this parser directly.
package detparse

import (
	"fmt"
	"slices"

	"iglr/internal/dag"
	"iglr/internal/grammar"
	"iglr/internal/lr"
)

// Stream is the parser input; document.Stream satisfies it. Arena returns
// the arena owning the stream's nodes; the parser allocates the structure
// it builds from it.
type Stream interface {
	La() *dag.Node
	Pop()
	Breakdown()
	Arena() *dag.Arena
}

// Stats counts parser work for the §5 comparisons.
type Stats struct {
	Shifts         int
	SubtreeShifts  int
	TerminalShifts int
	Reductions     int
	Breakdowns     int
	SeqPieces      int // balanced sequence pieces consumed whole (§3.4); each is also a subtree shift
}

// Parser is a deterministic incremental LR parser. It may be reused across
// parses — the parse stack persists and is rewound, so a steady-state
// incremental reparse allocates nothing — but is not safe for concurrent
// use.
type Parser struct {
	table *lr.Table
	g     *grammar.Grammar
	Stats Stats

	arena  *dag.Arena
	stack  []entry
	tokens int
}

// expected renders the acceptable-terminal set of a state by name, sorted.
// Only error paths call it, so the allocations here never touch the hot loop.
func (p *Parser) expected(state int) []string {
	syms := p.table.ExpectedTerminals(state)
	out := make([]string, len(syms))
	for i, s := range syms {
		out[i] = p.g.Name(s)
	}
	slices.Sort(out)
	return out
}

// New creates a parser; the table must be deterministic.
func New(table *lr.Table) (*Parser, error) {
	if !table.Deterministic() {
		return nil, fmt.Errorf("detparse: table has %d conflicts; a deterministic parser cannot use it", len(table.Conflicts()))
	}
	return &Parser{table: table, g: table.Grammar()}, nil
}

// MustNew is New but panics on error.
func MustNew(table *lr.Table) *Parser {
	p, err := New(table)
	if err != nil {
		panic(err)
	}
	return p
}

// SyntaxError reports a failed parse, with the same positional and
// expected-token detail as the IGLR parser's error.
type SyntaxError struct {
	Sym     grammar.Sym
	SymName string
	Text    string
	// TokenIndex is the number of terminals consumed before the error.
	TokenIndex int
	// Expected lists the terminals acceptable in the failure state, by
	// name, sorted.
	Expected []string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("syntax error at %s %q (token %d)", e.SymName, e.Text, e.TokenIndex)
}

type entry struct {
	state int
	node  *dag.Node
}

// Parse consumes the stream and returns the parse-tree root.
func (p *Parser) Parse(stream Stream) (*dag.Node, error) {
	p.Stats = Stats{}
	p.arena = stream.Arena()
	p.stack = append(p.stack[:0], entry{state: p.table.StartState()})
	p.tokens = 0

	for {
		la := stream.La()
		top := p.stack[len(p.stack)-1].state
		if la == nil {
			return nil, &SyntaxError{Sym: grammar.EOF, SymName: "$",
				TokenIndex: p.tokens, Expected: p.expected(top)}
		}

		if !la.IsTerminal() {
			// Subtree lookahead: state-matching reuse, precomputed
			// nonterminal reductions, or breakdown (§3.2). A balanced
			// sequence piece records its sequence's continuation state: it
			// is shifted as X+ at the start of a sequence; later in it, the
			// piece — or an element its leaf vouches for — is appended to
			// the X+ on top of the stack (§3.4).
			if p.appendSeq(top, la) {
				stream.Pop()
				continue
			}
			if !la.Changed() && !la.IsChoice() && la.State >= 0 {
				if gt := p.table.Goto(top, la.Sym); gt >= 0 && gt == int(la.State) {
					p.stack = append(p.stack, entry{state: gt, node: la})
					p.Stats.Shifts++
					p.Stats.SubtreeShifts++
					if la.Kind == dag.KindSeq {
						p.Stats.SeqPieces++
					}
					p.tokens += int(la.TermCount)
					stream.Pop()
					continue
				}
				if act, n := p.table.OneNontermAction(top, la.Sym); n == 1 && act.Kind == lr.Reduce {
					p.reduce(int(act.Target))
					continue
				}
			}
			p.Stats.Breakdowns++
			stream.Breakdown()
			continue
		}

		act, n := p.table.OneAction(top, la.Sym)
		if n == 0 {
			return nil, &SyntaxError{Sym: la.Sym, SymName: p.g.Name(la.Sym), Text: la.Text,
				TokenIndex: p.tokens, Expected: p.expected(top)}
		}
		switch act.Kind {
		case lr.Shift:
			la.State = int32(act.Target)
			la.SetChanged(false)
			p.stack = append(p.stack, entry{state: int(act.Target), node: la})
			p.Stats.Shifts++
			p.Stats.TerminalShifts++
			if la.Sym != grammar.EOF {
				p.tokens++
			}
			stream.Pop()
		case lr.Reduce:
			p.reduce(int(act.Target))
		case lr.Accept:
			if la.Sym != grammar.EOF {
				return nil, &SyntaxError{Sym: la.Sym, SymName: p.g.Name(la.Sym), Text: la.Text,
					TokenIndex: p.tokens, Expected: p.expected(top)}
			}
			return p.stack[len(p.stack)-1].node, nil
		}
	}
}

// appendSeq applies the continuation half of the sequence consume rule,
// exactly as the IGLR parser does: when the stack top is the X+ that the
// offered subtree la continues — the current state is la's recorded
// continuation state (see dag.SeqRecord) — la is appended to it in one
// step.
func (p *Parser) appendSeq(state int, la *dag.Node) bool {
	rec := dag.SeqRecord(la)
	top := &p.stack[len(p.stack)-1]
	if rec == nil || state != int(rec.State) || len(p.stack) == 1 || top.node.Sym != rec.Sym {
		return false
	}
	top.node = dag.SeqJoin(p.arena, p.g, top.node, la, state)
	p.Stats.Shifts++
	p.Stats.SubtreeShifts++
	p.Stats.SeqPieces++
	p.tokens += int(la.TermCount)
	return true
}

// reduce pops the handle and pushes the new nonterminal node, recording the
// goto state in it for future state-matching reuse.
func (p *Parser) reduce(rule int) {
	p.Stats.Reductions++
	prod := p.g.Production(rule)
	n := prod.Arity()
	kids := p.arena.Kids(n)
	for i := 0; i < n; i++ {
		kids[i] = p.stack[len(p.stack)-n+i].node
	}
	p.stack = p.stack[:len(p.stack)-n]
	top := p.stack[len(p.stack)-1].state
	gt := p.table.Goto(top, prod.LHS)
	node := p.arena.Production(prod.LHS, rule, gt, kids)
	p.stack = append(p.stack, entry{state: gt, node: node})
}
