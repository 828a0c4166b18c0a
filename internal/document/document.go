// Package document implements the self-versioning document that hosts
// incremental analysis (Wagner & Graham [26]): an editable text buffer, an
// incrementally maintained token stream whose terminals are parse-dag
// leaves, and the previously committed parse tree. Edits mark the affected
// structure (terminal modification, nested-change and right-context bits);
// the document then produces the incremental parser's input stream — the
// paper's Figure 6 decomposition of the old tree into reusable subtrees and
// fresh terminals.
package document

import (
	"bytes"
	"fmt"

	"iglr/internal/dag"
	"iglr/internal/faultinject"
	"iglr/internal/grammar"
	"iglr/internal/lexer"
	"iglr/internal/text"
)

// TokenMapper converts a lexer rule match into a grammar terminal.
type TokenMapper func(rule int, text string) grammar.Sym

// Document couples text, tokens and tree.
type Document struct {
	spec   *lexer.Spec
	g      *grammar.Grammar
	mapTok TokenMapper

	buf *text.Buffer
	// runs is the token stream in bounded runs (runs.go), each with its
	// tokens and their significant terminals.
	runs []run
	// toks and terms are the arrays the scan filled, with the runs as
	// their capacity-capped windows: Terminals returns terms while the
	// runs still window it in order, and ReleaseBuffers donates both.
	toks  []lexer.Token
	terms []*dag.Node

	// maxLook bounds every token's Lookahead — how far back from an edit
	// the relex must look for affected tokens. Set at scan, raised by
	// fresh tokens, never lowered.
	maxLook int

	root *dag.Node // last committed parse root; nil before first parse

	// arena allocates every dag node of this document — terminals, parser
	// structure, balanced sequences. One arena per document keeps node
	// IDs unique across the whole tree, which the slice-backed traversal
	// scratch tables depend on.
	arena *dag.Arena

	// Persistent parse-input state, reused across reparses so a keystroke
	// edit allocates O(damage): the one EOF terminal, the Stream object
	// itself, replace()'s scratch for the fresh tokens and their terminal
	// nodes, and the flat buffers that Tokens and Terminals return and a
	// splice gathers runs into (each use overwrites the last).
	eof          *dag.Node
	stream       Stream
	fresh        []lexer.Token
	freshNodes   []*dag.Node
	scratchToks  []lexer.Token
	scratchTerms []*dag.Node
	scratchRuns  []run

	// marked collects nodes whose change bits must be cleared at commit.
	marked []*dag.Node
	// rightChanged holds the IDs of the committed terminals whose
	// following token an edit changed since the last commit — the
	// right-context invalidation of §3.2. A subtree whose last terminal is
	// among them is not offered for reuse.
	rightChanged []int32

	// edited records that the token stream changed since the last commit:
	// the committed tree's terminal counts then describe another stream,
	// and reads fall back to the scan.
	edited bool

	// seq rebuilds the sequences a parse produced into canonical balanced
	// shape at commit; created on the first commit that needs it.
	seq *dag.SeqBuilder

	// pending records the edits applied since the last commit, with the
	// removed text captured so that CommittedState can invert them.
	pending []AppliedEdit
	// damage records the terminal damage of the same edits, oldest first:
	// PresentSpan moves committed terminal indices through it.
	damage []termDamage

	// LastRelexed is the token count rescanned by the latest edit.
	LastRelexed int
	// LastSpliceWork is the work the latest edit's splice did: the token
	// and terminal slots it wrote (copied, moved or re-offset) plus the run
	// headers it visited. The binary searches that locate runs, O(lg runs)
	// header reads each, are not counted.
	LastSpliceWork int
	// LastReadWork is the work the latest read (NodeSpan, TermWindow,
	// SignificantTokenOffset) did: tree nodes visited plus tokens scanned.
	// The binary searches over the run headers are not counted.
	LastReadWork int
	// LexErrorCount tracks current error tokens.
	LexErrorCount int
}

// Options tunes document construction for the batch path. The zero value
// allocates fresh storage.
type Options struct {
	// Toks and Terms donate storage from a retired document (see
	// ReleaseBuffers) so a batch run over many files stops paying the
	// token and terminal array allocations per file.
	Toks  []lexer.Token
	Terms []*dag.Node
}

// New creates a document over the initial text, lexing it in full.
func New(spec *lexer.Spec, g *grammar.Grammar, mapTok TokenMapper, initial string) *Document {
	return NewOpts(spec, g, mapTok, initial, Options{})
}

// NewOpts is New with batch options: donated buffer storage.
func NewOpts(spec *lexer.Spec, g *grammar.Grammar, mapTok TokenMapper, initial string, opts Options) *Document {
	d := &Document{spec: spec, g: g, mapTok: mapTok, buf: text.NewBuffer(initial), arena: dag.NewArena()}
	d.eof = d.arena.Terminal(grammar.EOF, "")
	d.adopt(initial, spec.ScanInto(initial, opts.Toks), opts.Terms)
	return d
}

// ReleaseBuffers strips the document's large reusable arrays — the token
// and terminal arrays it was scanned into — for donation to a future
// document via Options. The terminal array is cleared first so recycled
// storage pins no retired dag node; tokens hold no pointer, so theirs is
// handed over as it is. The document must not be used afterwards.
func (d *Document) ReleaseBuffers() (toks []lexer.Token, terms []*dag.Node) {
	toks, terms = d.toks, d.terms
	d.toks, d.terms, d.runs = nil, nil, nil
	clear(terms[:cap(terms)])
	return toks[:0], terms[:0]
}

// newTerminal builds a fresh (uncommitted, changed) terminal node for the
// significant token tok, whose lexeme is text.
func (d *Document) newTerminal(tok lexer.Token, text string) *dag.Node {
	var sym grammar.Sym
	if tok.Type == lexer.ErrorType {
		sym = grammar.ErrorSym
	} else {
		sym = d.mapTok(int(tok.Type), text)
	}
	if faultinject.Enabled() {
		switch faultinject.Fire(faultinject.LexTerminal, text) {
		case faultinject.ActError:
			// Injected lexical fault: the token comes out as an error
			// terminal, exactly as if the DFA had rejected it.
			sym = grammar.ErrorSym
		case faultinject.ActPanic:
			panic(&faultinject.Panic{Point: faultinject.LexTerminal, Detail: text})
		}
	}
	n := d.arena.Terminal(sym, text)
	n.SetChanged(true)
	return n
}

// Arena returns the arena owning every node of this document's dag. Passes
// that create nodes over the tree (balanced sequences, error splices) must
// allocate from it.
func (d *Document) Arena() *dag.Arena { return d.arena }

// Text returns the current text.
func (d *Document) Text() string { return d.buf.String() }

// Len returns the text length in bytes.
func (d *Document) Len() int { return d.buf.Len() }

// Root returns the last committed parse root (nil before the first parse).
func (d *Document) Root() *dag.Node { return d.root }

// Grammar returns the document's grammar.
func (d *Document) Grammar() *grammar.Grammar { return d.g }

// Tokens returns the current full token stream (including skip tokens)
// with absolute offsets, flattened from the runs: a linear pass for tests
// that compare streams, never on the edit path. The slice is owned by the
// document and overwritten by the next edit or Tokens call, so callers
// that need it longer must copy.
func (d *Document) Tokens() []lexer.Token {
	d.scratchToks = d.appendToks(d.scratchToks[:0], 0, d.numToks(), 0, 0)
	return d.scratchToks
}

// Terminals returns the significant terminal nodes in order. While the
// runs are still, in order, windows of the array the document was scanned
// into — no edit has resized, moved or replaced one — that array is the
// answer, with no copy; otherwise the runs are flattened into a document-
// owned buffer. Either way the next edit overwrites the slice, so callers
// that need it across edits must copy.
func (d *Document) Terminals() []*dag.Node {
	n := 0
	for i := range d.runs {
		r := d.runs[i].terms
		if len(r) > 0 && (n+len(r) > len(d.terms) || &d.terms[n] != &r[0]) {
			d.scratchTerms = d.AppendTerms(d.scratchTerms[:0], 0, d.NumTerms())
			return d.scratchTerms
		}
		n += len(r)
	}
	return d.terms[:n]
}

// termDamage is one edit's terminal damage: the terminals [lo, hi) of the
// stream as it stood gave way to add fresh ones.
type termDamage struct{ lo, hi, add int }

// AppliedEdit is one recorded edit with enough information to invert it.
type AppliedEdit struct {
	Offset   int
	Removed  string
	Inserted string
}

// PendingEdits returns the edits applied since the last commit, oldest
// first.
func (d *Document) PendingEdits() []AppliedEdit {
	return append([]AppliedEdit(nil), d.pending...)
}

// Replace applies a text edit: the buffer is updated, the affected region
// is relexed incrementally, and the previous tree is marked — modified
// terminals and their ancestor spines (nested changes), plus the
// right-context bit on the terminal preceding the damage (§3.2).
func (d *Document) Replace(offset, removed int, inserted string) {
	// Overflow-safe: a huge removed count must not wrap offset+removed
	// negative and slip past the check into a buffer panic with a
	// misleading message.
	if offset < 0 || removed < 0 || offset > d.buf.Len() || removed > d.buf.Len()-offset {
		panic(fmt.Sprintf("document: edit @%d -%d out of range (len %d)", offset, removed, d.buf.Len()))
	}
	d.edited = true
	rem := d.buf.Slice(offset, offset+removed)
	d.pending = append(d.pending, AppliedEdit{Offset: offset, Removed: rem, Inserted: inserted})
	d.buf.Replace(offset, removed, inserted)

	// The relex reads the buffer in place, and the old tokens through the
	// runs, and copies out only the rescanned span, from which the fresh
	// tokens that replace the damaged ones [first, resume) read their
	// lexemes.
	e := lexer.Edit{Offset: offset, Removed: removed, Inserted: inserted}
	text := d.buf.View()
	first, resume, fresh, span := d.spec.Damage((*tokenView)(d), text, e, d.maxLook, d.fresh)
	d.fresh = fresh
	d.LastRelexed = len(fresh)
	var base uint32
	if len(fresh) > 0 {
		base = fresh[0].Offset
	}
	lexeme := func(t lexer.Token) string { t.Offset -= base; return t.Lexeme(span) }

	// Token re-alignment: relexing invalidates neighbors whose lookahead
	// windows touch the edit even when they rescan to identical tokens
	// (and pure-whitespace edits rescan only skip tokens). Matching
	// prefix/suffix tokens of the rescanned region keep their old terminal
	// nodes, which is what lets the parser reuse the surrounding structure.
	// A fresh token matches an old one of the same rule and lexeme; the
	// old lexeme is read from the text before the edit, which is the
	// buffer with the removed bytes put back.
	sameTok := func(a, b lexer.Token) bool {
		return a.Type == b.Type && a.Skip == b.Skip && a.Len == b.Len &&
			oldTextHas(text, e, rem, int(b.Offset), lexeme(a))
	}
	p := 0
	for p < len(fresh) && first+p < resume && sameTok(fresh[p], d.tokAt(first+p)) {
		p++
	}
	s := 0
	for s < len(fresh)-p && s < resume-first-p &&
		sameTok(fresh[len(fresh)-1-s], d.tokAt(resume-1-s)) {
		s++
	}
	// The terminal damage: the terminals [tlo, thi) of the old tokens
	// [first+p, resume-s) give way to fresh terminals for fresh[p:len-s].
	tlo, thi := d.termIndex(first+p), d.termIndex(resume-s)
	add := d.freshNodes[:0]
	for _, t := range fresh[p : len(fresh)-s] {
		if !t.Skip {
			add = append(add, d.newTerminal(t, lexeme(t)))
		}
	}
	d.freshNodes = add
	// Pure-whitespace/comment edits change no terminal: the previous tree
	// is untouched and fully reusable.
	if thi > tlo || len(add) > 0 {
		d.markDamage(tlo, thi)
		d.damage = append(d.damage, termDamage{tlo, thi, len(add)})
	}

	// Matched tokens equal to the old ones field for field (after the
	// edit's delta, past it) need not be rewritten: the runs take only the
	// rest, which keeps a damage that merely rescans a neighbour across a
	// run boundary inside one run.
	delta := e.Delta()
	for p > 0 && fresh[0] == d.tokAt(first) {
		fresh, p, first = fresh[1:], p-1, first+1
	}
	for s > 0 {
		old := d.tokAt(resume - 1)
		old.Offset += uint32(delta)
		if fresh[len(fresh)-1] != old {
			break
		}
		fresh, s, resume = fresh[:len(fresh)-1], s-1, resume-1
	}

	// The error count and the lookahead bound follow by delta; the runs
	// take the damage.
	for i := first; i < resume; i++ {
		if d.tokAt(i).Type == lexer.ErrorType {
			d.LexErrorCount--
		}
	}
	for _, t := range fresh {
		if t.Type == lexer.ErrorType {
			d.LexErrorCount++
		}
		d.maxLook = max(d.maxLook, int(t.Lookahead))
	}
	d.LastSpliceWork = d.splice(first, resume, fresh, tlo, thi, add, delta)
	clear(add)
}

// oldTextHas reports whether the text before edit e held s at byte o. text
// is the text after the edit and rem the bytes it removed: the old text is
// text[:e.Offset] + rem + text[e.Offset+len(e.Inserted):].
func oldTextHas(text string, e lexer.Edit, rem string, o int, s string) bool {
	hi := e.Offset + len(rem)
	for len(s) > 0 {
		var old string
		switch {
		case o < e.Offset:
			old = text[o:e.Offset]
		case o < hi:
			old = rem[o-e.Offset:]
		default:
			old = text[o+e.Delta():]
		}
		n := min(len(old), len(s))
		if old[:n] != s[:n] {
			return false
		}
		s, o = s[n:], o+n
	}
	return true
}

// markDamage marks the committed tree for the removal of the terminals
// [lo, hi): the removed terminals and their spines, and the right context
// of the last significant terminal before the damage (§3.2). The
// neighbouring terminals may sit in other runs.
func (d *Document) markDamage(lo, hi int) {
	// Mark removed terminals and their spines in the old tree.
	for i := lo; i < hi; i++ {
		if n := d.TermAt(i); n.Committed() {
			n.SetChanged(true)
			d.marked = append(d.marked, n)
			d.propagate(n)
		}
	}
	// Record the right-context change of the last significant terminal
	// before the damage — subtrees ending there saw a different following
	// token — and propagate a nested change from it so that subtrees
	// spanning the modification point are invalidated even when no
	// significant terminal was removed (e.g. an identifier typed into
	// whitespace).
	if lo > 0 {
		if n := d.TermAt(lo - 1); n.Committed() {
			d.rightChanged = append(d.rightChanged, n.ID)
			d.propagate(n)
			return
		}
	}
	// Damage at the very start: invalidate via the following significant
	// old terminal instead.
	if hi < d.NumTerms() {
		if n := d.TermAt(hi); n.Committed() {
			d.propagate(n)
		}
	}
}

// propagate sets NestedChange up the parent spine, recording what was
// marked so Commit can clear it.
func (d *Document) propagate(n *dag.Node) {
	for a := n.Parent; a != nil && !a.NestedChange(); a = a.Parent {
		a.SetNestedChange(true)
		d.marked = append(d.marked, a)
	}
}

// Commit installs a freshly parsed root: every sequence the parse built is
// rebuilt into the canonical balanced shape (§3.4, dag.SeqBuilder), parent
// pointers are set for new structure (reused subtrees keep theirs), change
// bits are cleared, and the document's terminals become the committed
// tree's leaves.
func (d *Document) Commit(root *dag.Node) {
	for _, n := range d.marked {
		n.SetChanged(false)
		n.SetNestedChange(false)
	}
	d.marked = d.marked[:0]
	d.rightChanged = d.rightChanged[:0]

	root.Parent = nil
	d.commitWalk(root)
	d.root = root
	d.pending = d.pending[:0]
	d.damage = d.damage[:0]
	d.edited = false
}

// commitWalk descends through freshly built structure, rebuilding the
// sequence chains under it into canonical shape and setting parent pointers
// and the committed bit. Interiors of reused (already committed) subtrees
// are untouched — their parents are still correct — which keeps the commit
// proportional to the amount of new structure.
func (d *Document) commitWalk(n *dag.Node) {
	fresh := !n.Committed()
	n.SetCommitted(true)
	n.SetChanged(false)
	n.SetNestedChange(false)
	if !fresh {
		return
	}
	// Only a production with an X+ operand, or a choice between such
	// readings, can hold a chain.
	host := n.Kind != dag.KindProduction || d.g.IsSeqHost(int(n.Prod))
	for i, k := range n.Kids {
		if host && !k.Committed() && dag.IsSeqChain(d.g, k) {
			if d.seq == nil {
				d.seq = dag.NewSeqBuilder(d.arena, d.g)
			}
			k = d.seq.Canonical(k)
			n.Kids[i] = k
		}
		k.Parent = n
		d.commitWalk(k)
	}
}

// Stream returns the incremental parser input for the current document
// state: fresh terminals at modification sites and maximal reusable
// subtrees of the previous tree elsewhere. The Stream object is owned by
// the document and rewound on every call — at most one may be in use at a
// time (documents are single-writer anyway).
func (d *Document) Stream() *Stream {
	d.stream.reset(d, nil)
	return &d.stream
}

// MaskedStream is Stream with the given regions (sorted, disjoint, in
// terminal indices) masked out: error isolation's parser input. It rewinds
// and returns the same document-owned stream.
func (d *Document) MaskedStream(regions []Region) *Stream {
	d.stream.reset(d, regions)
	return &d.stream
}

// SignificantTokenOffset returns the byte offset of the i-th significant
// (non-skip) token, or the text length when i is past the last token —
// used to map the parser's token-indexed errors to text positions.
func (d *Document) SignificantTokenOffset(i int) int {
	if i < 0 || i >= d.NumTerms() {
		return d.buf.Len()
	}
	d.LastReadWork = 0
	off, _ := d.termBytes(i)
	return off
}

// NodeSpan returns the byte span [off, off+length) covering the part of
// n's terminal yield still present in the current token stream. It reports
// ok=false when none of n's terminals remain (the node is fully stale) or
// n has no terminal yield.
//
// The node's present terminals are located by PresentSpan, and their bytes
// read from the run headers (termBytes): for a node of the committed tree,
// O(depth·fanout + removed terminals + pending edits + lg runs + maxRun),
// whatever the file size. n must come from the document's arena.
func (d *Document) NodeSpan(n *dag.Node) (off, length int, ok bool) {
	lo, hi, ok := d.PresentSpan(n)
	if !ok {
		return 0, 0, false
	}
	off, _ = d.termBytes(lo)
	_, end := d.termBytes(hi - 1)
	return off, end - off, true
}

// TreeIndex returns the index of n's first terminal in the committed
// tree's yield, read off the tree: the terminal counts of the kids left of
// the node at each step of n's parent chain, summed (a choice parent adds
// 0: its alternatives share one yield). Edits mark the committed tree but
// never reshape it, so the index holds while edits are pending — as an
// index into the committed stream. ok is false when the chain does not
// reach the committed root through parents that each hold the node below
// them as a kid — a node of an older tree, or a shared node whose recorded
// parent has left the tree.
func (d *Document) TreeIndex(n *dag.Node) (i int, ok bool) {
	if d.root == nil {
		return 0, false
	}
	for c := n; c != d.root; c = c.Parent {
		p := c.Parent
		if p == nil {
			return 0, false
		}
		held := false
		for _, k := range p.Kids {
			d.LastReadWork++
			if k == c {
				held = true
				break
			}
			if p.Kind != dag.KindChoice {
				i += int(k.TermCount)
			}
		}
		if !held {
			return 0, false
		}
	}
	return i, true
}

// PresentSpan returns the current terminal indices [lo, hi) of the part of
// n's yield that the pending edits left in the stream. TreeIndex places a
// node of the committed tree in the committed stream; a descent from each
// end of n skips the terminals the edits removed (markDamage set their
// Changed bits), following the first unfiltered reading at choices as
// dag.Node.Terminals does; and the edits' terminal damage moves the first
// and last present terminals to their current indices. That costs
// O(depth·fanout + removed terminals + pending edits + lg runs), whatever
// the file size. A node the tree cannot place — its parent chain does not
// reach the committed root, or the terminals found are not where the
// damage puts them — is found by scanning every run's terminals for its
// marked yield; n must then come from the document's arena. ok is false
// when no terminal of n is left. LastReadWork counts the nodes visited and
// the terminals read.
func (d *Document) PresentSpan(n *dag.Node) (lo, hi int, ok bool) {
	d.LastReadWork = 0
	if i, held := d.TreeIndex(n); held {
		a, first := d.edgePresent(n, i, false)
		if first == nil {
			return 0, 0, false
		}
		b, last := d.edgePresent(n, i, true)
		lo, hi = d.moved(a), d.moved(b)+1
		d.LastReadWork += 2
		if hi <= d.NumTerms() && d.TermAt(lo) == first && d.TermAt(hi-1) == last {
			return lo, hi, true
		}
	}
	return d.scanTerms(n)
}

// scanTerms is PresentSpan's fallback: it marks n's terminals (the first
// unfiltered reading at choices) and scans every run's terminals for them.
func (d *Document) scanTerms(n *dag.Node) (lo, hi int, ok bool) {
	want := dag.AcquireScratch()
	defer dag.ReleaseScratch(want)
	yield := n.Terminals(nil)
	for _, t := range yield {
		want.Visit(t)
	}
	d.LastReadWork += len(yield)
	lo, hi = -1, -1
	for i := range d.runs {
		r := &d.runs[i]
		d.LastReadWork += len(r.terms)
		for j, t := range r.terms {
			if want.Seen(t) {
				if lo < 0 {
					lo = r.term + j
				}
				hi = r.term + j + 1
			}
		}
	}
	return lo, hi, lo >= 0
}

// edgePresent returns the committed index and node of the first terminal
// of n's yield that no pending edit removed — the last one when fromEnd —
// or a nil node when the edits removed them all; n's yield starts at
// committed index i.
func (d *Document) edgePresent(n *dag.Node, i int, fromEnd bool) (int, *dag.Node) {
	if n.TermCount == 0 {
		return 0, nil
	}
	d.LastReadWork++
	switch n.Kind {
	case dag.KindTerminal:
		if n.Changed() {
			return 0, nil
		}
		return i, n
	case dag.KindChoice:
		for _, alt := range n.Kids {
			if !alt.Filtered {
				return d.edgePresent(alt, i, fromEnd)
			}
		}
		return d.edgePresent(n.Kids[0], i, fromEnd)
	}
	if !fromEnd {
		for _, k := range n.Kids {
			if j, t := d.edgePresent(k, i, false); t != nil {
				return j, t
			}
			i += int(k.TermCount)
		}
		return 0, nil
	}
	i += int(n.TermCount)
	for x := len(n.Kids) - 1; x >= 0; x-- {
		k := n.Kids[x]
		i -= int(k.TermCount)
		if j, t := d.edgePresent(k, i, true); t != nil {
			return j, t
		}
	}
	return 0, nil
}

// moved returns the current index of the present terminal at committed
// index i: past each pending edit's damage it moves by that edit's
// terminal delta.
func (d *Document) moved(i int) int {
	for _, e := range d.damage {
		if i >= e.hi {
			i += e.add - (e.hi - e.lo)
		}
	}
	return i
}

// termBytes returns the byte span of significant terminal i, for
// 0 ≤ i < NumTerms: a binary search over the run headers, then a scan of
// the one run that holds it.
func (d *Document) termBytes(i int) (start, end int) {
	r := &d.runs[d.runOfTerm(i)]
	k := r.term
	for _, t := range r.toks {
		d.LastReadWork++
		if t.Skip {
			continue
		}
		if k == i {
			return r.start + int(t.Offset), r.start + t.End()
		}
		k++
	}
	panic("document: run terminal count disagrees with its tokens")
}

// ScanSpan is the reference the read oracle holds NodeSpan to, and
// Subtree's fallback while edits are pending: it marks n's terminals (the
// first unfiltered reading at choices) and scans every token of the
// document for them, so it tracks pending edits and needs no parent chain.
func (d *Document) ScanSpan(n *dag.Node) (off, length int, ok bool) {
	d.LastReadWork = 0
	want := dag.AcquireScratch()
	defer dag.ReleaseScratch(want)
	yield := n.Terminals(nil)
	if len(yield) == 0 {
		return 0, 0, false
	}
	for _, t := range yield {
		want.Visit(t)
	}
	d.LastReadWork += len(yield)
	start, end := -1, -1
	for i := range d.runs {
		r := &d.runs[i]
		d.LastReadWork += len(r.toks)
		k := 0
		for j := range r.toks {
			t := &r.toks[j]
			if t.Skip {
				continue
			}
			if want.Seen(r.terms[k]) {
				if start < 0 {
					start = r.start + int(t.Offset)
				}
				end = r.start + t.End()
			}
			k++
		}
	}
	if start < 0 {
		return 0, 0, false
	}
	return start, end - start, true
}

// TermWindow maps the byte range [lo, hi) to terminal indices for a
// descent over the committed tree: a is the index of the last significant
// terminal that starts at or before lo (-1 when none does), and b the
// number of significant terminals that end before hi. A node whose
// terminals are [i, i+c), c > 0, spans the range exactly when i ≤ a and
// i+c-1 ≥ b. Each bound costs a binary search over the run headers and a
// scan of one run. ok is false while edits are pending: the tree's
// terminal counts then describe the committed stream, not the current one,
// and callers locate nodes with ScanSpan instead.
func (d *Document) TermWindow(lo, hi int) (a, b int, ok bool) {
	d.LastReadWork = 0
	if d.edited || d.root == nil {
		return 0, 0, false
	}
	return d.termsStartingBy(lo) - 1, d.termsEndingBefore(hi), true
}

// termsStartingBy returns the number of significant terminals that start
// at or before byte x. The last run starting at or before x holds the last
// of them; the earlier runs' terminals all start before it.
func (d *Document) termsStartingBy(x int) int {
	lo, hi := 0, len(d.runs)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if d.runs[h].start <= x {
			lo = h + 1
		} else {
			hi = h
		}
	}
	if lo == 0 {
		return 0
	}
	r := &d.runs[lo-1]
	k := r.term
	for _, t := range r.toks {
		if r.start+int(t.Offset) > x {
			break
		}
		d.LastReadWork++
		if !t.Skip {
			k++
		}
	}
	return k
}

// termsEndingBefore returns the number of significant terminals that end
// before byte y. The last run starting before y holds the last of them;
// the earlier runs' terminals all end at or before its start.
func (d *Document) termsEndingBefore(y int) int {
	lo, hi := 0, len(d.runs)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if d.runs[h].start < y {
			lo = h + 1
		} else {
			hi = h
		}
	}
	if lo == 0 {
		return 0
	}
	r := &d.runs[lo-1]
	k := r.term
	for _, t := range r.toks {
		if r.start+t.End() >= y {
			break
		}
		d.LastReadWork++
		if !t.Skip {
			k++
		}
	}
	return k
}

// Position converts a byte offset to a 1-based (line, column) pair.
// Columns count bytes within the line.
func (d *Document) Position(offset int) (line, col int) {
	text := d.buf.Bytes()
	head := text[:min(max(offset, 0), len(text))]
	line = 1 + bytes.Count(head, []byte{'\n'})
	col = len(head) - bytes.LastIndexByte(head, '\n')
	return line, col
}
