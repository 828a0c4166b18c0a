package iglr

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"iglr/internal/dag"
	"iglr/internal/faultinject"
	"iglr/internal/grammar"
	"iglr/internal/guard"
	"iglr/internal/lr"
)

// SyntaxError reports a failed parse: no active parser could act on the
// lookahead.
type SyntaxError struct {
	// Sym and Text describe the offending lookahead.
	Sym  grammar.Sym
	Text string
	// SymName is the grammar name of Sym.
	SymName string
	// TokenIndex is the number of terminals consumed before the error.
	TokenIndex int
	// Expected lists the terminals any active parser could have accepted
	// instead, by name, sorted.
	Expected []string
}

func (e *SyntaxError) Error() string {
	msg := fmt.Sprintf("syntax error at %s %q (token %d)", e.SymName, e.Text, e.TokenIndex)
	if len(e.Expected) > 0 {
		max := len(e.Expected)
		ell := ""
		if max > 6 {
			max, ell = 6, ", …"
		}
		msg += ", expected " + strings.Join(e.Expected[:max], ", ") + ell
	}
	return msg
}

// Stats counts parser work, used by the §5 and §3.4 experiments.
type Stats struct {
	Shifts           int // shift operations (terminals and subtrees)
	SubtreeShifts    int // whole-subtree shifts via state matching
	TerminalShifts   int // terminal shifts
	Reductions       int
	Breakdowns       int // left_breakdown invocations
	Splits           int // rounds in which >1 parser was active
	MaxActiveParsers int
	Rounds           int // parse_next_symbol invocations
	RetainedNodes    int // old nodes reused by bottom-up node retention [25]
	BudgetPruned     int // ambiguous regions pruned by the ambiguity budget
}

// retained implements bottom-up node reuse: if every child was reused from
// the committed tree and they still share their old parent, which applied
// the same production over exactly these children, that parent node is the
// reduction's result. Node identity (and with it any annotations or
// semantic attributes) survives the reparse.
func retained(rule int, kids []*dag.Node) *dag.Node {
	if len(kids) == 0 {
		return nil // ε instances are always rebuilt (§3.5)
	}
	old := kids[0].Parent
	if old == nil || !old.Committed || old.Kind != dag.KindProduction ||
		int(old.Prod) != rule || len(old.Kids) != len(kids) {
		return nil
	}
	for i, k := range kids {
		if old.Kids[i] != k {
			return nil
		}
	}
	return old
}

// Parser is an incremental GLR parser for a fixed table. A Parser may be
// reused across parses; it is not safe for concurrent use.
type Parser struct {
	table *lr.Table
	g     *grammar.Grammar

	// Trace, when non-nil, receives a line per parser action — the
	// Appendix B trace facility.
	Trace func(format string, args ...any)

	// Stats accumulates counters for the most recent parse.
	Stats Stats

	// Budget bounds the resources one parse may consume (see guard.Budget).
	// The zero value is unlimited. Tripping any budget except the ambiguity
	// cap aborts the parse with a *guard.BudgetError, leaving the document's
	// committed tree intact; exceeding MaxAlternatives degrades instead,
	// pruning the region to its statically preferred interpretation and
	// marking the node BudgetPruned.
	Budget guard.Budget

	ctx        context.Context // nil outside ParseContext
	stream     Stream
	arena      *dag.Arena // the current stream's arena
	active     []*gssNode
	forActor   []*gssNode
	forShifter []shiftPair
	multiple   bool
	anyNondet  bool // any round used non-deterministic machinery
	sawNullKid bool // any fresh node gained a null-yield child or alternative
	accepting  *gssNode
	sh         *share
	tokens     int

	// NoBurst disables the linear-stack fast path (burst.go), forcing every
	// symbol through the round engine. The two paths are byte-identical by
	// contract; the flag exists so differential tests can hold the round
	// engine up as the oracle.
	NoBurst bool

	// Recycled storage: the GSS node/link arenas rewind at each Parse and
	// the reduction-kids buffer is reused across rounds, so a steady-state
	// incremental round allocates nothing.
	gssNodes gssNodeArena
	gssLinks gssLinkArena
	kidsBuf  []*dag.Node

	// Burst-mode scratch (burst.go), reused across parses.
	bStates []int32
	bNodes  []*dag.Node
	bSteps  []burstStep
	bSim    []int32

	// gauge meters the current parse against Budget.
	gauge guard.Gauge
}

func (p *Parser) newGSSNode(state int) *gssNode {
	p.gauge.AddGSSNode()
	return p.gssNodes.get(state)
}

// addLink appends a link from n back to head, spanning node. The first
// link sits inline in n; overflow links come from the recycled link arena.
func (p *Parser) addLink(n, head *gssNode, node *dag.Node) *gssLink {
	p.gauge.AddGSSLink()
	if n.nlinks == 0 {
		n.link0 = gssLink{head: head, node: node}
		n.nlinks = 1
		return &n.link0
	}
	l := p.gssLinks.get(head, node)
	n.extra = append(n.extra, l)
	n.nlinks++
	return l
}

type shiftPair struct {
	from   *gssNode
	target int
}

// New creates a parser over the given table.
func New(table *lr.Table) *Parser {
	return &Parser{table: table, g: table.Grammar(), sh: newShare()}
}

// Grammar returns the parser's grammar.
func (p *Parser) Grammar() *grammar.Grammar { return p.g }

// Table returns the parse table.
func (p *Parser) Table() *lr.Table { return p.table }

func (p *Parser) tracef(format string, args ...any) {
	if p.Trace != nil {
		p.Trace(format, args...)
	}
}

// Parse consumes the stream and returns the abstract parse dag root (the
// node for the user start symbol). The stream must end with an EOF
// terminal. On error the previous tree (if the stream reuses one) remains
// intact.
func (p *Parser) Parse(stream Stream) (*dag.Node, error) {
	return p.ParseContext(nil, stream)
}

// checkEvery is how many parse rounds pass between context checks: frequent
// enough that cancellation latency stays far below any human-visible delay,
// sparse enough that the check never shows up in a profile.
const checkEvery = 64

// ParseContext is Parse with cooperative cancellation: the main loop polls
// ctx every checkEvery rounds and abandons the parse with ctx.Err() once
// the context is done. The parser is left reusable; the document's
// committed tree is untouched (only Commit publishes a root). A nil ctx
// disables the checks.
//
// The parser's Budget is enforced for the duration of the call: a tripped
// resource budget aborts the parse with a *guard.BudgetError (again leaving
// the committed tree intact), while a tripped ambiguity budget degrades the
// offending region in place (Stats.BudgetPruned counts the prunes).
func (p *Parser) ParseContext(ctx context.Context, stream Stream) (root *dag.Node, err error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	p.ctx = ctx
	p.stream = stream
	p.arena = stream.Arena()
	p.gauge.Reset(p.Budget)
	if p.Budget.MaxArenaNodes > 0 {
		p.arena.SetLimit(p.arena.NumNodes() + p.Budget.MaxArenaNodes)
	}
	defer func() {
		p.arena.SetLimit(0)
		if r := recover(); r != nil {
			// A budget trip unwinds from an allocation path as a typed
			// panic; surface it as the parse error. Anything else is a
			// real bug (or an injected fault) and keeps propagating.
			root, err = nil, guard.Recovered(r)
		}
	}()
	p.Stats = Stats{}
	p.sh.reset()
	p.gssNodes.reset()
	p.gssLinks.reset()
	p.active = append(p.active[:0], p.newGSSNode(p.table.StartState()))
	p.accepting = nil
	p.multiple = false
	p.anyNondet = false
	p.sawNullKid = false
	p.tokens = 0

	for p.accepting == nil {
		la := p.stream.La()
		if la == nil {
			return nil, &SyntaxError{Sym: grammar.EOF, SymName: "$", Text: "", TokenIndex: p.tokens}
		}
		if p.burstEligible(la) {
			// The fast path consumes the degenerate prefix, then exits on a
			// lookahead it committed nothing for; the round below handles
			// that lookahead, which also guarantees progress.
			if err := p.burst(); err != nil {
				return nil, err
			}
			if p.stream.La() == nil {
				return nil, &SyntaxError{Sym: grammar.EOF, SymName: "$", Text: "", TokenIndex: p.tokens}
			}
		}
		if err := p.parseNextSymbol(); err != nil {
			return nil, err
		}
	}

	root = p.acceptedRoot()
	// Epsilon over-sharing can only arise from the sharing tables, which
	// deterministic rounds bypass entirely (§3.5) — and only when some
	// fresh node took a null-yield child or alternative (duplicating a
	// null subtree requires a second parent edge to it, and every such
	// edge trips sawNullKid where it is created). Grammars whose ε
	// productions never fire skip the whole-tree walk.
	if p.anyNondet && p.sawNullKid {
		dag.UnshareEpsilon(p.arena, root)
	}
	return root, nil
}

// noteNullKids flags the parse as needing the §3.5 ε-unshare pass when any
// child being attached to a fresh node has a null yield. Every parent edge
// a node ever gains passes through here (reducer, burst commit) or through
// the explicit alternative-merge checks, so a parse that never trips the
// flag provably has no multiply-parented null subtree.
func (p *Parser) noteNullKids(kids []*dag.Node) {
	if p.sawNullKid {
		return
	}
	for _, k := range kids {
		if k.TermCount == 0 && !k.IsTerminal() {
			p.sawNullKid = true
			return
		}
	}
}

// acceptedRoot extracts the start-symbol node from the accepting parser.
func (p *Parser) acceptedRoot() *dag.Node {
	acc := p.accepting
	root := acc.linkAt(0).node
	// Multiple top-level interpretations that never converged in the GSS
	// are merged explicitly.
	for i := 1; i < acc.numLinks(); i++ {
		alt := acc.linkAt(i).node
		if alt.TermCount == 0 {
			p.sawNullKid = true // null subtree becomes an alternative edge
		}
		root = p.enforceAltCap(addInterpretation(p.arena, root, alt))
	}
	return root
}

// enforceAltCap applies the ambiguity budget to a freshly merged region:
// when a choice node exceeds Budget.MaxAlternatives interpretations, the
// region is pruned to the single statically preferred alternative and
// marked BudgetPruned — graceful degradation instead of failure, so
// adversarial input yields a usable, flagged tree. The node keeps its
// identity (GSS links and parents still see it), it simply stops
// accumulating alternatives; because parse counts multiply through nested
// regions, cutting the fan-out here is what stops super-linear forest
// growth upstream.
func (p *Parser) enforceAltCap(n *dag.Node) *dag.Node {
	max := p.Budget.MaxAlternatives
	if max <= 0 || !n.IsChoice() || len(n.Kids) <= max {
		return n
	}
	best := n.Kids[0]
	for _, k := range n.Kids[1:] {
		if p.preferAlt(k, best) {
			best = k
		}
	}
	n.Kids = append(n.Kids[:0], best)
	n.BudgetPruned = true
	p.Stats.BudgetPruned++
	if p.Trace != nil {
		p.tracef("P: ambiguity budget pruned %s to 1 alternative", p.g.Name(n.Sym))
	}
	return n
}

// preferAlt reports whether alternative a is statically preferred over b,
// reusing the order of the §4.1 static filters: higher declared production
// precedence wins (precedence/associativity resolution), then the earlier
// declared production (yacc's prefer-earlier-rule, which is also what
// prefer-shift converges to for the idioms it targets). Non-production
// alternatives never displace a production.
func (p *Parser) preferAlt(a, b *dag.Node) bool {
	if a.Kind != dag.KindProduction {
		return false
	}
	if b.Kind != dag.KindProduction {
		return true
	}
	pa, pb := p.g.Production(int(a.Prod)), p.g.Production(int(b.Prod))
	if pa.Prec != pb.Prec {
		return pa.Prec > pb.Prec
	}
	return a.Prod < b.Prod
}

// parseNextSymbol performs one reduce/shift round (Appendix A).
func (p *Parser) parseNextSymbol() error {
	p.Stats.Rounds++
	if p.Stats.Rounds%checkEvery == 0 {
		if p.ctx != nil {
			if err := p.ctx.Err(); err != nil {
				return err
			}
		}
		p.gauge.CheckDeadline()
	}
	if faultinject.Enabled() {
		if err := p.injectRound(); err != nil {
			return err
		}
	}
	p.forActor = append(p.forActor[:0], p.active...)
	p.forShifter = p.forShifter[:0]
	for _, a := range p.active {
		a.processed = false
	}
	p.sh.reset()

	if n := len(p.active); n > p.Stats.MaxActiveParsers {
		p.Stats.MaxActiveParsers = n
	}
	if len(p.active) > 1 {
		p.Stats.Splits++
	}

	// The worklist loop is the round's inner engine: with massive local
	// ambiguity a single lookahead can queue unbounded reduction work, so
	// cancellation and the deadline are also polled here — otherwise one
	// pathological token could stall cancellation for the whole region.
	for steps := 0; len(p.forActor) > 0; steps++ {
		if steps%checkEvery == checkEvery-1 {
			if p.ctx != nil {
				if err := p.ctx.Err(); err != nil {
					return err
				}
			}
			p.gauge.CheckDeadline()
		}
		a := p.forActor[len(p.forActor)-1]
		p.forActor = p.forActor[:len(p.forActor)-1]
		a.processed = true
		p.actor(a)
	}

	if p.accepting != nil {
		return nil
	}
	if len(p.forShifter) == 0 {
		la := p.stream.La()
		return &SyntaxError{
			Sym: la.Sym, SymName: p.g.Name(la.Sym), Text: laText(la), TokenIndex: p.tokens,
			Expected: p.expectedTerminals(),
		}
	}
	p.shifter()
	p.stream.Pop()
	return nil
}

// injectRound consults the fault-injection plan at the top of a parse
// round (Point ParseRound). Only called when a plan is active.
func (p *Parser) injectRound() error {
	detail := ""
	if la := p.stream.La(); la != nil {
		detail = laText(la)
	}
	switch act, sleep := faultinject.FireTimed(faultinject.ParseRound, detail); act {
	case faultinject.ActCancel:
		return context.Canceled
	case faultinject.ActPanic:
		panic(&faultinject.Panic{Point: faultinject.ParseRound, Detail: detail})
	case faultinject.ActDelay:
		// A stalled parse round: sleep in context-sized slices so the
		// watchdog's cancellation still unwedges the shard mid-stall.
		deadline := time.Now().Add(sleep)
		for time.Now().Before(deadline) {
			if p.ctx != nil && p.ctx.Err() != nil {
				return p.ctx.Err()
			}
			rest := time.Until(deadline)
			if rest > time.Millisecond {
				rest = time.Millisecond
			}
			time.Sleep(rest)
		}
	}
	return nil
}

// injectReduce consults the fault-injection plan mid-reduction (Point
// Reduce). Only called when a plan is active.
func (p *Parser) injectReduce() {
	detail := ""
	if la := p.stream.La(); la != nil {
		detail = laText(la)
	}
	if faultinject.Fire(faultinject.Reduce, detail) == faultinject.ActPanic {
		panic(&faultinject.Panic{Point: faultinject.Reduce, Detail: detail})
	}
}

// expectedTerminals collects, over the parsers active when the error was
// detected, every terminal with a defined action — the "expected one of"
// set for diagnostics (the per-state sets come from the table's
// ExpectedTerminals extraction).
func (p *Parser) expectedTerminals() []string {
	seen := map[grammar.Sym]bool{}
	for _, a := range p.active {
		for _, term := range p.table.ExpectedTerminals(a.state) {
			seen[term] = true
		}
	}
	out := make([]string, 0, len(seen))
	for term := range seen {
		out = append(out, p.g.Name(term))
	}
	sort.Strings(out)
	return out
}

func laText(n *dag.Node) string {
	if n.IsTerminal() {
		return n.Text
	}
	y := n.Yield()
	if len(y) > 24 {
		y = y[:24] + "…"
	}
	return y
}

// actor processes one parser (Appendix A actor): it normalizes the
// lookahead (breaking down subtrees the parser cannot act upon), attempts a
// whole-subtree shift via state matching, and otherwise executes the table
// actions for the lookahead.
func (p *Parser) actor(a *gssNode) {
	for {
		la := p.stream.La()
		if la == nil {
			return
		}
		if !la.IsTerminal() {
			// Whole-subtree shift (state matching, §3.2/§3.3): valid only
			// for a lone parser in a conflict-free state, with a clean
			// deterministically-built subtree whose recorded state equals
			// today's goto target.
			if p.soleParser(a) && p.reusable(la) {
				if gt := p.table.Goto(a.state, la.Sym); gt >= 0 && gt == int(la.State) && !p.table.HasConflict(a.state) {
					p.tracef("S: %s (subtree, %d tokens) -> state %d", p.g.Name(la.Sym), countTerms(la), gt)
					p.forShifter = append(p.forShifter, shiftPair{from: a, target: gt})
					return
				}
				// Precomputed nonterminal reductions (§3.2): act without
				// locating the next terminal when every terminal in
				// FIRST(la) agrees on a single reduction. The single-word
				// fast path reads one dense table cell.
				if act, n := p.table.OneNontermAction(a.state, la.Sym); n == 1 && act.Kind == lr.Reduce {
					if p.Trace != nil {
						p.tracef("R: %s (via FIRST(%s))", p.prodName(int(act.Target)), p.g.Name(la.Sym))
					}
					p.doReductions(a, int(act.Target))
					return
				}
			}
			// Otherwise the subtree cannot participate directly: expose
			// its constituents (left_breakdown) and retry.
			p.Stats.Breakdowns++
			p.stream.Breakdown()
			continue
		}

		// Deterministic fast path: the packed cell resolves a unique action
		// in a single table word.
		if act, n := p.table.OneAction(a.state, la.Sym); n == 1 {
			p.applyAction(a, act, la)
			return
		} else if n == 0 {
			return
		}
		p.multiple = true
		for _, act := range p.table.Actions(a.state, la.Sym) {
			p.applyAction(a, act, la)
		}
		return
	}
}

// applyAction executes one table action for parser a on lookahead la.
func (p *Parser) applyAction(a *gssNode, act lr.Action, la *dag.Node) {
	switch act.Kind {
	case lr.Accept:
		if la.Sym == grammar.EOF {
			p.tracef("A: accept")
			p.accepting = a
		}
	case lr.Reduce:
		if p.Trace != nil {
			p.tracef("R: %s", p.prodName(int(act.Target)))
		}
		p.doReductions(a, int(act.Target))
	case lr.Shift:
		p.forShifter = append(p.forShifter, shiftPair{from: a, target: int(act.Target)})
	}
}

func (p *Parser) prodName(rule int) string {
	return p.g.ProductionString(p.g.Production(rule))
}

// soleParser reports whether a is the only parser that can still act this
// round: nothing else is queued for the actor or the shifter and no
// conflict has been seen. Parsers that already finished their reductions
// remain in the GSS (active list) but are inert, so they do not count —
// this is what lets a chain of reductions keep shifting whole subtrees.
func (p *Parser) soleParser(a *gssNode) bool {
	return len(p.forActor) == 0 && len(p.forShifter) == 0 && !p.multiple
}

// reusable reports whether a subtree may be considered for state-matching
// reuse: structurally clean and built in a deterministic state. MultiState
// subtrees consumed dynamic lookahead and must be reconstructed (§3.3);
// choice nodes are multi-state by definition.
func (p *Parser) reusable(n *dag.Node) bool {
	return !n.Changed && !n.IsChoice() && n.State >= 0
}

func countTerms(n *dag.Node) int { return int(n.TermCount) }

// doReductions enumerates reduction paths from a (Appendix A
// do_reductions). The common deterministic case — a unique path — avoids
// the general enumerator's copies.
func (p *Parser) doReductions(a *gssNode, rule int) {
	arity := p.g.Production(rule).Arity()
	cur := a
	// kids is a reusable buffer: reducer only reads it, copying into a
	// fresh slice iff it builds a new node. No other doReductions frame can
	// be live here (reducer re-enters only through doLimitedReductions,
	// whose paths carry their own slices).
	if cap(p.kidsBuf) < arity {
		p.kidsBuf = make([]*dag.Node, arity)
	}
	kids := p.kidsBuf[:arity]
	for i := arity - 1; i >= 0; i-- {
		if cur.numLinks() != 1 {
			paths(a, arity, nil, func(path gssPath) {
				p.reducer(path.tail, rule, path.kids())
			})
			return
		}
		l := &cur.link0
		kids[i] = l.node
		cur = l.head
	}
	p.reducer(cur, rule, kids)
}

// doLimitedReductions re-runs reductions for an already-processed parser,
// restricted to paths through the freshly added link (Appendix A
// do_limited_reductions).
func (p *Parser) doLimitedReductions(a *gssNode, rule int, via *gssLink) {
	arity := p.g.Production(rule).Arity()
	paths(a, arity, via, func(path gssPath) {
		p.reducer(path.tail, rule, path.kids())
	})
}

// reducer performs one reduction (Appendix A reducer): builds (or shares)
// the dag node, merges interpretations, and extends the GSS.
func (p *Parser) reducer(q *gssNode, rule int, kids []*dag.Node) {
	p.Stats.Reductions++
	if faultinject.Enabled() {
		p.injectReduce()
	}
	lhs := p.g.Production(rule).LHS
	state := p.table.Goto(q.state, lhs)
	if state < 0 {
		// No goto: this reduction path is invalid in context (possible in
		// non-deterministic regions); the would-be parser dies.
		return
	}
	p.noteNullKids(kids)
	// The multipleStates flag (§3.3) — set on conflicted table cells and
	// maintained by the shifter — decides whether this node is stamped
	// with a deterministic state or the MultiState equivalence class. In
	// deterministic rounds no two derivations can coincide, so the
	// sharing tables are bypassed and the node is built directly — or,
	// better, *retained*: when the previous tree contains the identical
	// production instance (same rule over the same children), that node is
	// reused, preserving its identity for annotations and semantic
	// attributes (bottom-up node reuse, the paper's reference [25]).
	var node *dag.Node
	if p.multiple {
		p.anyNondet = true
		node = p.sh.getNode(p.arena, p.g, rule, kids, state, true)
	} else if old := retained(rule, kids); old != nil {
		old.State = int32(state)
		node = old
		p.Stats.RetainedNodes++
	} else {
		// kids may be the shared reduction buffer; the node needs its own,
		// bump-allocated so a reduce-heavy parse is one allocation per
		// kidsChunk pointers rather than one per reduction.
		owned := p.arena.Kids(len(kids))
		copy(owned, kids)
		node = p.arena.Production(p.g.Production(rule).LHS, rule, state, owned)
	}

	if existing := p.findActive(state); existing != nil {
		if l := existing.directLink(q); l != nil {
			// Second interpretation of the same region: merge into the
			// link's node (ambiguity packing).
			if p.Trace != nil {
				p.tracef("M: merge interpretation for %s", p.g.Name(lhs))
			}
			if node.TermCount == 0 {
				p.sawNullKid = true // null subtree becomes an alternative edge
			}
			l.node = p.enforceAltCap(addInterpretation(p.arena, l.node, node))
			return
		}
		n := node
		if p.multiple {
			n = p.enforceAltCap(p.sh.mergeInterpretation(p.arena, node))
		}
		l := p.addLink(existing, q, n)
		// Parsers already processed this round may now have new reduction
		// paths through l.
		for _, m := range p.active {
			if !m.processed {
				continue // still in forActor; its own actor call sees l
			}
			for _, act := range p.reduceActions(m.state) {
				p.doLimitedReductions(m, int(act.Target), l)
			}
		}
		return
	}

	n := node
	if p.multiple {
		if node.TermCount == 0 {
			p.sawNullKid = true // symbol-table merge may alias the null subtree
		}
		n = p.enforceAltCap(p.sh.mergeInterpretation(p.arena, node))
	}
	np := p.newGSSNode(state)
	p.addLink(np, q, n)
	p.active = append(p.active, np)
	p.forActor = append(p.forActor, np)
}

// reduceActions returns the reduce actions available to a parser in state
// for the current lookahead. Only terminal lookaheads participate — by the
// time several parsers interact, the round's lookahead has been broken down
// to a terminal (§3.3: only terminals are read while multiple parsers are
// active).
func (p *Parser) reduceActions(state int) []lr.Action {
	la := p.stream.La()
	if la == nil || !la.IsTerminal() {
		return nil
	}
	var out []lr.Action
	for _, act := range p.table.Actions(state, la.Sym) {
		if act.Kind == lr.Reduce {
			out = append(out, act)
		}
	}
	return out
}

func (p *Parser) findActive(state int) *gssNode {
	for _, a := range p.active {
		if a.state == state {
			return a
		}
	}
	return nil
}

// shifter shifts the lookahead into every parser that requested it
// (Appendix A shifter). All parsers shift the same node — in ambiguous
// regions the terminals are thereby shared among interpretations.
func (p *Parser) shifter() {
	la := p.stream.La()
	p.active = p.active[:0]
	p.multiple = len(p.forShifter) > 1
	p.Stats.Shifts++
	if la.IsTerminal() {
		p.Stats.TerminalShifts++
		p.tokens++
	} else {
		p.Stats.SubtreeShifts++
		p.tokens += countTerms(la)
	}

	// Record the parse state in the shifted node (state matching): the
	// deterministic target when one parser shifts, the non-deterministic
	// equivalence class otherwise.
	if p.multiple {
		la.State = dag.MultiState
	} else {
		la.State = int32(p.forShifter[0].target)
	}
	la.Changed = false

	for _, sp := range p.forShifter {
		if q := p.findActive(sp.target); q != nil {
			p.addLink(q, sp.from, la)
		} else {
			n := p.newGSSNode(sp.target)
			p.addLink(n, sp.from, la)
			p.active = append(p.active, n)
		}
	}
	if p.Trace != nil && la.IsTerminal() {
		p.tracef("S: %s %q (%d parser(s))", p.g.Name(la.Sym), la.Text, len(p.forShifter))
	}
}
