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
	// toks and terms are the arrays the scan (or a restore) filled, with
	// the runs as their capacity-capped windows: Terminals returns terms
	// while the runs still window it in order, and ReleaseBuffers donates
	// both.
	toks  []lexer.Token
	terms []*dag.Node

	// maxLook bounds every token's Lookahead — how far back from an edit
	// the relex must look for affected tokens. Set at scan and restore,
	// raised by fresh tokens, never lowered.
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

	// seq rebuilds the sequences a parse produced into canonical balanced
	// shape at commit; created on the first commit that needs it.
	seq *dag.SeqBuilder

	// pending records the edits applied since the last commit, with the
	// removed text captured so they can be reverted — the history that
	// §4.3's non-correcting error recovery replays.
	pending []AppliedEdit

	// LastRelexed is the token count rescanned by the latest edit.
	LastRelexed int
	// LastSpliceWork is the work the latest edit's splice did: the token
	// and terminal slots it wrote (copied, moved or re-offset) plus the run
	// headers it visited. The binary searches that locate runs, O(lg runs)
	// header reads each, are not counted.
	LastSpliceWork int
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
	return NewInArena(dag.NewArena(), spec, g, mapTok, initial)
}

// NewInArena is New but allocates the document's nodes from an existing
// arena. Several documents may share one arena when their trees are
// composed into a single dag (e.g. statements reparsed in scratch
// documents and spliced into a host sequence) — node IDs stay unique
// across the combined structure.
func NewInArena(a *dag.Arena, spec *lexer.Spec, g *grammar.Grammar, mapTok TokenMapper, initial string) *Document {
	return NewInArenaOpts(a, spec, g, mapTok, initial, Options{})
}

// NewOpts is New with batch options.
func NewOpts(spec *lexer.Spec, g *grammar.Grammar, mapTok TokenMapper, initial string, opts Options) *Document {
	return NewInArenaOpts(dag.NewArena(), spec, g, mapTok, initial, opts)
}

// NewInArenaOpts is NewInArena with batch options: donated buffer storage.
func NewInArenaOpts(a *dag.Arena, spec *lexer.Spec, g *grammar.Grammar, mapTok TokenMapper, initial string, opts Options) *Document {
	d := &Document{spec: spec, g: g, mapTok: mapTok, buf: text.NewBuffer(initial), arena: a}
	d.eof = d.arena.Terminal(grammar.EOF, "")
	d.adopt(spec.ScanInto(initial, opts.Toks), opts.Terms, true)
	return d
}

// ReleaseBuffers strips the document's large reusable arrays — the token
// and terminal arrays it was scanned into — for donation to a future
// document via Options. Every element is cleared first so recycled storage
// pins neither retired dag nodes nor the old text. The document must not
// be used afterwards.
func (d *Document) ReleaseBuffers() (toks []lexer.Token, terms []*dag.Node) {
	toks, terms = d.toks, d.terms
	d.toks, d.terms, d.runs = nil, nil, nil
	clear(toks[:cap(toks)])
	clear(terms[:cap(terms)])
	return toks[:0], terms[:0]
}

// newTerminal builds a fresh (uncommitted, changed) terminal node for tok,
// or nil for skip tokens.
func (d *Document) newTerminal(tok lexer.Token) *dag.Node {
	if tok.Skip {
		return nil
	}
	var sym grammar.Sym
	if tok.Type == lexer.ErrorType {
		sym = grammar.ErrorSym
	} else {
		sym = d.mapTok(tok.Type, tok.Text)
	}
	if faultinject.Enabled() {
		switch faultinject.Fire(faultinject.LexTerminal, tok.Text) {
		case faultinject.ActError:
			// Injected lexical fault: the token comes out as an error
			// terminal, exactly as if the DFA had rejected it.
			sym = grammar.ErrorSym
		case faultinject.ActPanic:
			panic(&faultinject.Panic{Point: faultinject.LexTerminal, Detail: tok.Text})
		}
	}
	n := d.arena.Terminal(sym, tok.Text)
	n.Changed = true
	return n
}

// Arena returns the arena owning every node of this document's dag. Passes
// that create nodes over the tree (balanced sequences, error splices) must
// allocate from it.
func (d *Document) Arena() *dag.Arena { return d.arena }

// EOFNode returns the document's EOF sentinel terminal — the node the
// stream yields after the last significant terminal. Batch parse paths
// that bypass the stream (the deterministic kernel) need it to mirror the
// stream's token sequence exactly.
func (d *Document) EOFNode() *dag.Node { return d.eof }

// Text returns the current text.
func (d *Document) Text() string { return d.buf.String() }

// Len returns the text length in bytes.
func (d *Document) Len() int { return d.buf.Len() }

// Root returns the last committed parse root (nil before the first parse).
func (d *Document) Root() *dag.Node { return d.root }

// Grammar returns the document's grammar.
func (d *Document) Grammar() *grammar.Grammar { return d.g }

// Tokens returns the current full token stream (including skip tokens)
// with absolute offsets, flattened from the runs: a linear pass for batch
// consumers (snapshots, tests), never on the edit path. The slice is owned
// by the document and overwritten by the next edit or Tokens call, so
// callers that need it longer must copy.
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
			d.scratchTerms = d.appendTerms(d.scratchTerms[:0], 0, d.numTerms())
			return d.scratchTerms
		}
		n += len(r)
	}
	return d.terms[:n]
}

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

// RevertPending undoes every edit since the last commit (newest first),
// restoring the text of the committed tree.
func (d *Document) RevertPending() {
	for len(d.pending) > 0 {
		e := d.pending[len(d.pending)-1]
		d.replace(e.Offset, len(e.Inserted), e.Removed, false)
		d.pending = d.pending[:len(d.pending)-1]
	}
}

// Replace applies a text edit: the buffer is updated, the affected region
// is relexed incrementally, and the previous tree is marked — modified
// terminals and their ancestor spines (nested changes), plus the
// right-context bit on the terminal preceding the damage (§3.2).
func (d *Document) Replace(offset, removed int, inserted string) {
	d.replace(offset, removed, inserted, true)
}

func (d *Document) replace(offset, removed int, inserted string, record bool) {
	// Overflow-safe: a huge removed count must not wrap offset+removed
	// negative and slip past the check into a buffer panic with a
	// misleading message.
	if offset < 0 || removed < 0 || offset > d.buf.Len() || removed > d.buf.Len()-offset {
		panic(fmt.Sprintf("document: edit @%d -%d out of range (len %d)", offset, removed, d.buf.Len()))
	}
	if record {
		d.pending = append(d.pending, AppliedEdit{
			Offset:   offset,
			Removed:  d.buf.Slice(offset, offset+removed),
			Inserted: inserted,
		})
	}
	d.buf.Replace(offset, removed, inserted)

	// The relex reads the buffer in place, and the old tokens through the
	// runs, and copies out only the fresh lexemes, which replace the
	// damaged tokens [first, resume).
	e := lexer.Edit{Offset: offset, Removed: removed, Inserted: inserted}
	first, resume, fresh := d.spec.Damage((*tokenView)(d), d.buf.View(), e, d.maxLook, d.fresh)
	d.fresh = fresh
	d.LastRelexed = len(fresh)

	// Token re-alignment: relexing invalidates neighbors whose lookahead
	// windows touch the edit even when they rescan to identical tokens
	// (and pure-whitespace edits rescan only skip tokens). Matching
	// prefix/suffix tokens of the rescanned region keep their old terminal
	// nodes, which is what lets the parser reuse the surrounding structure.
	sameTok := func(a, b lexer.Token) bool {
		return a.Type == b.Type && a.Text == b.Text && a.Skip == b.Skip
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
		if n := d.newTerminal(t); n != nil {
			add = append(add, n)
		}
	}
	d.freshNodes = add
	// Pure-whitespace/comment edits change no terminal: the previous tree
	// is untouched and fully reusable.
	if thi > tlo || len(add) > 0 {
		d.markDamage(tlo, thi)
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
		old.Offset += delta
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
		d.maxLook = max(d.maxLook, t.Lookahead)
	}
	d.LastSpliceWork = d.splice(first, resume, fresh, tlo, thi, add, delta)
	clear(add)
	clear(d.fresh)
}

// markDamage marks the committed tree for the removal of the terminals
// [lo, hi): the removed terminals and their spines, and the right context
// of the last significant terminal before the damage (§3.2). The
// neighbouring terminals may sit in other runs.
func (d *Document) markDamage(lo, hi int) {
	// Mark removed terminals and their spines in the old tree.
	for i := lo; i < hi; i++ {
		if n := d.termAt(i); n.Committed {
			n.Changed = true
			d.marked = append(d.marked, n)
			d.propagate(n)
		}
	}
	// Mark the right-context bit on the last significant terminal before
	// the damage — subtrees ending there saw a different following token —
	// and propagate a nested change from it so that subtrees spanning the
	// modification point are invalidated even when no significant terminal
	// was removed (e.g. an identifier typed into whitespace).
	if lo > 0 {
		if n := d.termAt(lo - 1); n.Committed {
			n.RightChanged = true
			d.marked = append(d.marked, n)
			d.propagate(n)
			return
		}
	}
	// Damage at the very start: invalidate via the following significant
	// old terminal instead.
	if hi < d.numTerms() {
		if n := d.termAt(hi); n.Committed {
			d.propagate(n)
		}
	}
}

// propagate sets NestedChange up the parent spine, recording what was
// marked so Commit can clear it.
func (d *Document) propagate(n *dag.Node) {
	for a := n.Parent; a != nil && !a.NestedChange; a = a.Parent {
		a.NestedChange = true
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
		n.Changed = false
		n.NestedChange = false
		n.RightChanged = false
	}
	d.marked = d.marked[:0]

	root.Parent = nil
	d.commitWalk(root)
	d.root = root
	d.pending = d.pending[:0]
}

// commitWalk descends through freshly built structure, rebuilding the
// sequence chains under it into canonical shape and setting parent pointers
// and the committed bit. Interiors of reused (already committed) subtrees
// are untouched — their parents are still correct — which keeps the commit
// proportional to the amount of new structure.
func (d *Document) commitWalk(n *dag.Node) {
	fresh := !n.Committed
	n.Committed = true
	n.Changed = false
	n.NestedChange = false
	n.RightChanged = false
	if !fresh {
		return
	}
	// Only a production with an X+ operand, or a choice between such
	// readings, can hold a chain.
	host := n.Kind != dag.KindProduction || d.g.IsSeqHost(int(n.Prod))
	for i, k := range n.Kids {
		if host && !k.Committed && dag.IsSeqChain(d.g, k) {
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
	d.stream.reset(d)
	return &d.stream
}

// SignificantTokenOffset returns the byte offset of the i-th significant
// (non-skip) token, or the text length when i is past the last token —
// used to map the parser's token-indexed errors to text positions.
func (d *Document) SignificantTokenOffset(i int) int {
	if i < 0 || i >= d.numTerms() {
		return d.buf.Len()
	}
	r := &d.runs[d.runOfTerm(i)]
	k := r.term
	for _, t := range r.toks {
		if t.Skip {
			continue
		}
		if k == i {
			return r.start + t.Offset
		}
		k++
	}
	panic("document: run terminal count disagrees with its tokens")
}

// NodeSpan returns the byte span [off, off+length) covering the part of
// n's terminal yield still present in the current token stream. It reports
// ok=false when none of n's terminals remain (the node is fully stale).
// Because the span is recomputed from the live token stream on every call,
// it automatically tracks edits elsewhere in the document. n must come
// from the document's arena: the yield is marked in a node-ID table.
func (d *Document) NodeSpan(n *dag.Node) (off, length int, ok bool) {
	want := dag.AcquireScratch()
	defer dag.ReleaseScratch(want)
	yield := n.Terminals(nil)
	if len(yield) == 0 {
		return 0, 0, false
	}
	for _, t := range yield {
		want.Visit(t)
	}
	start, end := -1, -1
	for i := range d.runs {
		r := &d.runs[i]
		k := 0
		for j := range r.toks {
			t := &r.toks[j]
			if t.Skip {
				continue
			}
			if want.Seen(r.terms[k]) {
				if start < 0 {
					start = r.start + t.Offset
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

// Position converts a byte offset to a 1-based (line, column) pair.
// Columns count bytes within the line.
func (d *Document) Position(offset int) (line, col int) {
	text := d.buf.Bytes()
	head := text[:min(max(offset, 0), len(text))]
	line = 1 + bytes.Count(head, []byte{'\n'})
	col = len(head) - bytes.LastIndexByte(head, '\n')
	return line, col
}
