package lr

import (
	"fmt"
	"strings"

	"iglr/internal/grammar"
)

// Method selects the table-construction algorithm.
type Method uint8

// Table construction methods.
const (
	// LALR builds LALR(1) tables — the paper's default: smaller than LR(1),
	// faster in non-deterministic regions, and better incremental reuse due
	// to merged cores (§3.3).
	LALR Method = iota
	// SLR builds SLR(1) tables (reduce on FOLLOW).
	SLR
	// LR1 builds canonical LR(1) tables.
	LR1
)

func (m Method) String() string {
	switch m {
	case LALR:
		return "LALR(1)"
	case SLR:
		return "SLR(1)"
	case LR1:
		return "LR(1)"
	default:
		return fmt.Sprintf("Method(%d)", m)
	}
}

// Kind discriminates parse actions.
type Kind uint8

// Parse action kinds.
const (
	Shift Kind = iota
	Reduce
	Accept
)

// Action is one parse action. For Shift, Target is the successor state; for
// Reduce, the production number.
type Action struct {
	Kind   Kind
	Target int32
}

func (a Action) String() string {
	switch a.Kind {
	case Shift:
		return fmt.Sprintf("s%d", a.Target)
	case Reduce:
		return fmt.Sprintf("r%d", a.Target)
	case Accept:
		return "acc"
	default:
		return "?"
	}
}

// Conflict is a multiply-defined table cell that survived static filtering.
// GLR parsers fork on these; deterministic parsers must reject the grammar.
type Conflict struct {
	State   int
	Term    grammar.Sym
	Actions []Action
}

// Resolution records a conflict removed by a static syntactic filter
// (precedence/associativity or prefer-shift), for diagnostics.
type Resolution struct {
	State   int
	Term    grammar.Sym
	Kept    Action
	Dropped []Action
	Rule    string // "precedence", "associativity", "nonassoc", "prefer-shift", "prefer-reduce"
}

// Options configure table construction.
type Options struct {
	Method Method
	// NoPrecedence disables yacc-style precedence/associativity resolution.
	NoPrecedence bool
	// PreferShift resolves any remaining shift/reduce conflicts in favor of
	// shifting (a static filter, §4.1).
	PreferShift bool
	// PreferEarlierRule resolves remaining reduce/reduce conflicts in favor
	// of the production declared first (yacc behavior).
	PreferEarlierRule bool
}

// Dense cell encoding. Each (state, symbol) action cell is a single 64-bit
// word:
//
//	bits  0..7   count — number of actions in the cell (0 = empty)
//	bits  8..39  offset — index of the cell's first action in the
//	             row-major spill array actSpill
//	bits 40..41  kind   — inline copy of the action (valid iff count == 1)
//	bits 42..63  target
//
// The spill array holds every cell's actions contiguously in row order, so
// Actions is a subslice (no per-lookup allocation), while the deterministic
// fast path (count == 1, the overwhelmingly common case) decodes the action
// from the cell word alone without touching a second cache line.
const (
	cellCountBits = 8
	cellOffBits   = 32
	cellOffShift  = cellCountBits
	cellKindShift = cellCountBits + cellOffBits
	cellTargShift = cellKindShift + 2

	cellCountMask = 1<<cellCountBits - 1
	cellOffMask   = 1<<cellOffBits - 1
)

func packCell(off, count int, inline Action) uint64 {
	cell := uint64(count)&cellCountMask | uint64(off)<<cellOffShift
	if count == 1 {
		cell |= uint64(inline.Kind)<<cellKindShift | uint64(inline.Target)<<cellTargShift
	}
	return cell
}

func cellInline(cell uint64) Action {
	return Action{Kind: Kind(cell >> cellKindShift & 0x3), Target: int32(cell >> cellTargShift)}
}

// Table is an LR parse table with possibly multiply-defined entries, stored
// in the dense packed encoding described above.
type Table struct {
	g         *grammar.Grammar
	method    Method
	numStates int
	nSyms     int

	// actCells[state*nSyms+term] is the packed action cell.
	actCells []uint64
	// actSpill holds all actions, contiguous in (state, term) row order.
	actSpill []Action
	// gotos[state*nSyms+sym]: successor state or -1. Defined for both
	// nonterminals (GOTO) and terminals (shift target, duplicated for
	// convenience of subtree shifting).
	gotos []int32

	conflicts   []Conflict
	resolutions []Resolution

	// ntCells caches the paper's precomputed nonterminal reductions (§3.2)
	// in the same packed encoding: ntCells[state*nSyms+nonterm] is the cell
	// of a terminal in FIRST(nonterm) when every such terminal agrees on
	// the same actions, or 0 when the structure must be traversed instead.
	ntCells []uint64
	// conflictState[state] reports whether any cell of the state is
	// multiply defined (used to track the non-deterministic state
	// equivalence class during incremental parsing).
	conflictState []bool
}

// Build constructs a parse table for g.
func Build(g *grammar.Grammar, opts Options) (*Table, error) {
	switch opts.Method {
	case LALR, SLR:
		return buildFromLR0(g, opts)
	case LR1:
		return buildLR1Table(g, opts)
	default:
		return nil, fmt.Errorf("lr: unknown method %v", opts.Method)
	}
}

// Grammar returns the grammar the table was built from.
func (t *Table) Grammar() *grammar.Grammar { return t.g }

// Method returns the construction method.
func (t *Table) Method() Method { return t.method }

// NumStates returns the number of automaton states.
func (t *Table) NumStates() int { return t.numStates }

// StartState is the initial parse state.
func (t *Table) StartState() int { return 0 }

// Actions returns the parse actions for (state, terminal). Multiple actions
// indicate a conflict (GLR fork point). The returned slice aliases the
// table's spill storage and must not be modified.
func (t *Table) Actions(state int, term grammar.Sym) []Action {
	cell := t.actCells[state*t.nSyms+int(term)]
	n := cell & cellCountMask
	if n == 0 {
		return nil
	}
	off := cell >> cellOffShift & cellOffMask
	return t.actSpill[off : off+n]
}

// OneAction is the deterministic fast path: it decodes the (state, term)
// cell in a single word, returning its action count and — when the count is
// exactly 1 — the action itself. Callers fall back to Actions for
// multiply-defined cells.
func (t *Table) OneAction(state int, term grammar.Sym) (Action, int) {
	cell := t.actCells[state*t.nSyms+int(term)]
	return cellInline(cell), int(cell & cellCountMask)
}

// Goto returns the successor state on symbol s (terminal or nonterminal),
// or -1 when undefined.
func (t *Table) Goto(state int, s grammar.Sym) int {
	return int(t.gotos[state*t.nSyms+int(s)])
}

// ExpectedTerminals returns the terminals with at least one defined action
// in state, in symbol order — the "expected one of" set a parser stopped in
// that state can report. The reserved error terminal is excluded (no
// production may use it, so it is never acceptable).
func (t *Table) ExpectedTerminals(state int) []grammar.Sym {
	var out []grammar.Sym
	row := state * t.nSyms
	for _, term := range t.g.Terminals() {
		if term == grammar.ErrorSym {
			continue
		}
		if t.actCells[row+int(term)]&cellCountMask != 0 {
			out = append(out, term)
		}
	}
	return out
}

// Conflicts returns the unresolved conflicts in the table.
func (t *Table) Conflicts() []Conflict { return t.conflicts }

// Resolutions returns the statically filtered (resolved) conflicts.
func (t *Table) Resolutions() []Resolution { return t.resolutions }

// Deterministic reports whether every cell holds at most one action.
func (t *Table) Deterministic() bool { return len(t.conflicts) == 0 }

// HasConflict reports whether any cell of state is multiply defined.
func (t *Table) HasConflict(state int) bool { return t.conflictState[state] }

// NontermActions implements the paper's precomputed nonterminal reductions
// (§3.2): when the incremental parser's lookahead is a subtree with root nt,
// the parser may act without locating the next terminal iff every terminal
// in FIRST(nt) yields the same action in this state and nt does not derive
// ε. Returns nil when the structure must be traversed instead.
func (t *Table) NontermActions(state int, nt grammar.Sym) []Action {
	cell := t.ntCells[state*t.nSyms+int(nt)]
	n := cell & cellCountMask
	if n == 0 {
		return nil
	}
	off := cell >> cellOffShift & cellOffMask
	return t.actSpill[off : off+n]
}

// OneNontermAction is the single-word fast path over NontermActions,
// mirroring OneAction.
func (t *Table) OneNontermAction(state int, nt grammar.Sym) (Action, int) {
	cell := t.ntCells[state*t.nSyms+int(nt)]
	return cellInline(cell), int(cell & cellCountMask)
}

// TableSize returns the number of occupied action and goto cells of the
// dense encoding: actionCells is the spill length (every stored action,
// conflicts included — exactly what ships in memory), gotoCells the number
// of defined goto entries.
func (t *Table) TableSize() (actionCells, gotoCells int) {
	actionCells = len(t.actSpill)
	for _, gt := range t.gotos {
		if gt >= 0 {
			gotoCells++
		}
	}
	return
}

// Footprint returns the dense encoding's resident size in bytes: packed
// action cells, spill storage, goto array, and the nonterminal-reduction
// cache. This is the number the §3.3 table-size ablation should compare,
// since it is what a loaded language actually costs.
func (t *Table) Footprint() int {
	const actionBytes = 8 // struct{uint8; int32} rounds to 8
	return len(t.actCells)*8 + len(t.actSpill)*actionBytes +
		len(t.gotos)*4 + len(t.ntCells)*8 + len(t.conflictState)
}

// String renders a compact summary.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v table: %d states, %d conflicts (%d statically resolved)\n",
		t.method, t.numStates, len(t.conflicts), len(t.resolutions))
	return b.String()
}

// DescribeConflicts renders each conflict with symbol names.
func (t *Table) DescribeConflicts() string {
	var b strings.Builder
	for _, c := range t.conflicts {
		fmt.Fprintf(&b, "state %d on %s:", c.State, t.g.Name(c.Term))
		for _, a := range c.Actions {
			fmt.Fprintf(&b, " %v", a)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// testRawCapture, when non-nil, receives the sparse pre-pack encoding at
// seal time. The differential test uses it to prove the dense encoding is
// cell-for-cell identical to the legacy layout.
var testRawCapture func(raw [][]Action)

// tableBuilder accumulates actions during construction in the legacy
// sparse encoding (a slice per cell); seal packs it into the dense form.
type tableBuilder struct {
	g     *grammar.Grammar
	nSyms int
	t     *Table
	opts  Options

	// actions[state*nSyms+term]: nil, or 1+ actions (pre-pack).
	actions [][]Action
}

func newTableBuilder(g *grammar.Grammar, numStates int, method Method, opts Options) *tableBuilder {
	n := g.NumSymbols()
	t := &Table{
		g:             g,
		method:        method,
		numStates:     numStates,
		nSyms:         n,
		gotos:         make([]int32, numStates*n),
		conflictState: make([]bool, numStates),
	}
	for i := range t.gotos {
		t.gotos[i] = -1
	}
	return &tableBuilder{
		g: g, nSyms: n, t: t, opts: opts,
		actions: make([][]Action, numStates*n),
	}
}

func (tb *tableBuilder) setGoto(state int, s grammar.Sym, to int) {
	tb.t.gotos[state*tb.nSyms+int(s)] = int32(to)
}

func (tb *tableBuilder) addAction(state int, term grammar.Sym, a Action) {
	idx := state*tb.nSyms + int(term)
	for _, old := range tb.actions[idx] {
		if old == a {
			return
		}
	}
	tb.actions[idx] = append(tb.actions[idx], a)
}

// finish applies static filters, then packs and finalizes the table.
func (tb *tableBuilder) finish() *Table {
	g := tb.g
	for state := 0; state < tb.t.numStates; state++ {
		for term := 0; term < tb.nSyms; term++ {
			if !g.IsTerminal(grammar.Sym(term)) {
				continue
			}
			idx := state*tb.nSyms + term
			if acts := tb.actions[idx]; len(acts) > 1 {
				tb.actions[idx] = tb.resolve(state, grammar.Sym(term), acts)
			}
		}
	}
	return tb.seal()
}

// seal packs the sparse action encoding into the dense cell/spill layout,
// collects the surviving conflicts, and precomputes the nonterminal
// reductions. Decode calls it directly (its filters were applied before
// serialization).
func (tb *tableBuilder) seal() *Table {
	if testRawCapture != nil {
		testRawCapture(tb.actions)
	}
	t := tb.t
	total := 0
	for _, acts := range tb.actions {
		total += len(acts)
	}
	t.actCells = make([]uint64, t.numStates*tb.nSyms)
	t.actSpill = make([]Action, 0, total)
	for state := 0; state < t.numStates; state++ {
		row := state * tb.nSyms
		for sym := 0; sym < tb.nSyms; sym++ {
			acts := tb.actions[row+sym]
			if len(acts) == 0 {
				continue
			}
			off := len(t.actSpill)
			t.actSpill = append(t.actSpill, acts...)
			t.actCells[row+sym] = packCell(off, len(acts), acts[0])
			if len(acts) > 1 {
				t.conflicts = append(t.conflicts, Conflict{
					State: state, Term: grammar.Sym(sym),
					Actions: t.actSpill[off : off+len(acts)],
				})
				t.conflictState[state] = true
			}
		}
	}
	tb.actions = nil
	tb.precomputeNontermActions()
	return t
}

// resolve applies precedence/associativity and the optional prefer-shift /
// prefer-earlier-rule filters to a conflicted cell.
func (tb *tableBuilder) resolve(state int, term grammar.Sym, acts []Action) []Action {
	g := tb.g
	if !tb.opts.NoPrecedence {
		termPrec := g.Symbol(term).Prec
		termAssoc := g.Symbol(term).Assoc
		hasShift := false
		for _, a := range acts {
			if a.Kind == Shift {
				hasShift = true
			}
		}
		// Yacc-style resolution applies only to shift/reduce pairs where
		// both sides carry a declared precedence.
		if hasShift && termPrec > 0 {
			drop := make([]bool, len(acts))
			dropShift := false
			rule := ""
			for i, a := range acts {
				if a.Kind != Reduce {
					continue
				}
				p := g.Production(int(a.Target))
				if p.Prec == 0 {
					continue
				}
				switch {
				case p.Prec > termPrec:
					dropShift = true
					rule = "precedence"
				case p.Prec < termPrec:
					drop[i] = true
					rule = "precedence"
				default:
					switch termAssoc {
					case grammar.AssocLeft:
						dropShift = true
						rule = "associativity"
					case grammar.AssocRight:
						drop[i] = true
						rule = "associativity"
					case grammar.AssocNonassoc:
						drop[i] = true
						dropShift = true
						rule = "nonassoc"
					}
				}
			}
			if rule != "" {
				var kept, dropped []Action
				for i, a := range acts {
					if drop[i] || (dropShift && a.Kind == Shift) {
						dropped = append(dropped, a)
					} else {
						kept = append(kept, a)
					}
				}
				if len(dropped) > 0 {
					keptAct := Action{}
					if len(kept) > 0 {
						keptAct = kept[0]
					}
					tb.t.resolutions = append(tb.t.resolutions, Resolution{
						State: state, Term: term, Kept: keptAct, Dropped: dropped, Rule: rule,
					})
					acts = kept
				}
			}
		}
	}
	if len(acts) > 1 && tb.opts.PreferShift {
		var shift *Action
		for i := range acts {
			if acts[i].Kind == Shift {
				shift = &acts[i]
				break
			}
		}
		if shift != nil {
			dropped := make([]Action, 0, len(acts)-1)
			for _, a := range acts {
				if a != *shift {
					dropped = append(dropped, a)
				}
			}
			tb.t.resolutions = append(tb.t.resolutions, Resolution{
				State: state, Term: term, Kept: *shift, Dropped: dropped, Rule: "prefer-shift",
			})
			acts = []Action{*shift}
		}
	}
	if len(acts) > 1 && tb.opts.PreferEarlierRule {
		reduces := 0
		best := -1
		for _, a := range acts {
			if a.Kind == Reduce {
				reduces++
				if best < 0 || int(a.Target) < best {
					best = int(a.Target)
				}
			}
		}
		if reduces > 1 {
			var kept []Action
			var dropped []Action
			for _, a := range acts {
				if a.Kind == Reduce && int(a.Target) != best {
					dropped = append(dropped, a)
				} else {
					kept = append(kept, a)
				}
			}
			tb.t.resolutions = append(tb.t.resolutions, Resolution{
				State: state, Term: term, Kept: Action{Kind: Reduce, Target: int32(best)},
				Dropped: dropped, Rule: "prefer-reduce",
			})
			acts = kept
		}
	}
	return acts
}

// precomputeNontermActions fills ntCells per the paper's optimization: when
// every terminal in FIRST(nt) has the identical cell in a state, that cell
// word (offset, count, inline action) is copied verbatim — the nonterminal
// lookup then shares the spill storage of its witnessing terminal.
func (tb *tableBuilder) precomputeNontermActions() {
	t := tb.t
	g := tb.g
	t.ntCells = make([]uint64, t.numStates*tb.nSyms)
	for state := 0; state < t.numStates; state++ {
		row := state * tb.nSyms
		for _, nt := range g.Nonterminals() {
			if g.Nullable(nt) {
				continue // ε-deriving nonterminals are excluded (§3.2)
			}
			first := g.First(nt)
			var common []Action
			var commonCell uint64
			ok := true
			firstIter := true
			first.ForEach(func(term grammar.Sym) {
				if !ok {
					return
				}
				acts := t.Actions(state, term)
				if firstIter {
					common = acts
					commonCell = t.actCells[row+int(term)]
					firstIter = false
					return
				}
				if !sameActions(common, acts) {
					ok = false
				}
			})
			if ok && !firstIter && len(common) > 0 {
				t.ntCells[row+int(nt)] = commonCell
			}
		}
	}
}

func sameActions(a, b []Action) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
