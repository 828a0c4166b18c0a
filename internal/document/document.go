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

	buf   *text.Buffer
	toks  []lexer.Token
	nodes []*dag.Node // parallel to toks; nil for skip tokens

	root *dag.Node // last committed parse root; nil before first parse

	// arena allocates every dag node of this document — terminals, parser
	// structure, rebalanced sequences. One arena per document keeps node
	// IDs unique across the whole tree, which the slice-backed traversal
	// scratch tables depend on.
	arena *dag.Arena

	// Persistent parse-input state, reused across reparses so a keystroke
	// edit allocates O(damage): the one EOF terminal, the significant-
	// terminal buffer behind Terminals, the Stream object itself, and the
	// spare node buffer replace() ping-pongs with.
	eof        *dag.Node
	terms      []*dag.Node
	termsValid bool
	stream     Stream
	spareNodes []*dag.Node

	// marked collects nodes whose change bits must be cleared at commit.
	marked []*dag.Node

	// pending records the edits applied since the last commit, with the
	// removed text captured so they can be reverted — the history that
	// §4.3's non-correcting error recovery replays.
	pending []AppliedEdit

	// LastRelexed is the token count rescanned by the latest edit.
	LastRelexed int
	// LexErrorCount tracks current error tokens.
	LexErrorCount int
}

// Options tunes document construction for the batch path. The zero value
// allocates fresh storage.
type Options struct {
	// Toks, Nodes, Spare and Terms donate storage from a retired document
	// (see ReleaseBuffers) so a batch run over many files stops paying the
	// token/node array allocations per file.
	Toks  []lexer.Token
	Nodes []*dag.Node
	Spare []*dag.Node
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
	d := &Document{
		spec: spec, g: g, mapTok: mapTok, buf: text.NewBuffer(initial), arena: a,
		spareNodes: opts.Spare[:0], terms: opts.Terms[:0],
	}
	d.eof = d.arena.Terminal(grammar.EOF, "")
	d.toks = spec.ScanInto(initial, opts.Toks)
	nodes := opts.Nodes[:0]
	for _, t := range d.toks {
		nodes = append(nodes, d.newTerminal(t))
	}
	d.nodes = nodes
	d.recountErrors()
	return d
}

// ReleaseBuffers strips the document's large reusable arrays — token
// stream, node array, spare and terminal buffers — for donation to a
// future document via Options. Every element is cleared first so recycled
// storage pins neither retired dag nodes nor the old text. The document
// must not be used afterwards.
func (d *Document) ReleaseBuffers() (toks []lexer.Token, nodes, spare, terms []*dag.Node) {
	toks, nodes, spare, terms = d.toks, d.nodes, d.spareNodes, d.terms
	d.toks, d.nodes, d.spareNodes, d.terms = nil, nil, nil, nil
	clear(toks[:cap(toks)])
	clear(nodes[:cap(nodes)])
	clear(spare[:cap(spare)])
	clear(terms[:cap(terms)])
	return toks[:0], nodes[:0], spare[:0], terms[:0]
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
// that create nodes over the tree (rebalancing, sequence edits) must
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

// Version returns the text version.
func (d *Document) Version() int { return d.buf.Version() }

// Root returns the last committed parse root (nil before the first parse).
func (d *Document) Root() *dag.Node { return d.root }

// Grammar returns the document's grammar.
func (d *Document) Grammar() *grammar.Grammar { return d.g }

// Tokens returns the current full token stream (including skip tokens).
func (d *Document) Tokens() []lexer.Token { return d.toks }

// Terminals returns the significant terminal nodes in order. The slice is
// owned by the document and valid until the next edit; callers that need
// it across edits must copy.
func (d *Document) Terminals() []*dag.Node {
	if !d.termsValid {
		d.terms = d.terms[:0]
		for _, n := range d.nodes {
			if n != nil {
				d.terms = append(d.terms, n)
			}
		}
		d.termsValid = true
	}
	return d.terms
}

func (d *Document) recountErrors() {
	d.LexErrorCount = 0
	for _, t := range d.toks {
		if t.Type == lexer.ErrorType {
			d.LexErrorCount++
		}
	}
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
	newText := d.buf.String()

	oldToks := d.toks
	oldNodes := d.nodes
	e := lexer.Edit{Offset: offset, Removed: removed, Inserted: inserted}
	newToks, first, relexed := d.spec.Relex(oldToks, newText, e)
	d.LastRelexed = relexed

	tailLen := len(newToks) - first - relexed
	oldResync := len(oldToks) - tailLen

	// Token re-alignment: relexing invalidates neighbors whose lookahead
	// windows touch the edit even when they rescan to identical tokens
	// (and pure-whitespace edits rescan only skip tokens). Matching
	// prefix/suffix tokens of the rescanned region keep their old terminal
	// nodes, which is what lets the parser reuse the surrounding structure.
	sameTok := func(a, b lexer.Token) bool {
		return a.Type == b.Type && a.Text == b.Text && a.Skip == b.Skip
	}
	newLen, oldLen := relexed, oldResync-first
	p := 0
	for p < newLen && p < oldLen && sameTok(newToks[first+p], oldToks[first+p]) {
		p++
	}
	s := 0
	for s < newLen-p && s < oldLen-p &&
		sameTok(newToks[first+newLen-1-s], oldToks[first+oldLen-1-s]) {
		s++
	}
	first += p
	relexed = newLen - p - s
	oldResync -= s

	// Splice the node array in step with the token array, building into the
	// spare buffer (the buffers ping-pong between edits, so a steady-state
	// edit reallocates neither).
	nodes := d.spareNodes[:0]
	nodes = append(nodes, oldNodes[:first]...)
	for i := first; i < first+relexed; i++ {
		nodes = append(nodes, d.newTerminal(newToks[i]))
	}
	nodes = append(nodes, oldNodes[oldResync:oldResync+s]...)
	nodes = append(nodes, oldNodes[oldResync+s:]...)
	d.spareNodes = oldNodes

	// Pure-whitespace/comment edits change no terminal: the previous tree
	// is untouched and fully reusable.
	significantRemoved := false
	for i := first; i < oldResync; i++ {
		if oldNodes[i] != nil {
			significantRemoved = true
			break
		}
	}
	significantInserted := false
	for i := first; i < first+relexed; i++ {
		if nodes[i] != nil {
			significantInserted = true
			break
		}
	}

	if significantRemoved || significantInserted {
		// Mark removed terminals and their spines in the old tree.
		for i := first; i < oldResync; i++ {
			if n := oldNodes[i]; n != nil && n.Committed {
				n.Changed = true
				d.marked = append(d.marked, n)
				d.propagate(n)
			}
		}
		// Mark the right-context bit on the last significant terminal
		// before the damage — subtrees ending there saw a different
		// following token — and propagate a nested change from it so that
		// subtrees spanning the modification point are invalidated even
		// when no significant terminal was removed (e.g. an identifier
		// typed into whitespace).
		markedNeighbor := false
		for i := first - 1; i >= 0; i-- {
			if n := oldNodes[i]; n != nil {
				if n.Committed {
					n.RightChanged = true
					d.marked = append(d.marked, n)
					d.propagate(n)
					markedNeighbor = true
				}
				break
			}
		}
		if !markedNeighbor {
			// Damage at the very start: invalidate via the following
			// significant old terminal instead.
			for i := oldResync; i < len(oldToks); i++ {
				if n := oldNodes[i]; n != nil {
					if n.Committed {
						d.propagate(n)
					}
					break
				}
			}
		}
	}

	d.toks = newToks
	d.nodes = nodes
	d.termsValid = false
	d.recountErrors()
}

// propagate sets NestedChange up the parent spine, recording what was
// marked so Commit can clear it.
func (d *Document) propagate(n *dag.Node) {
	for a := n.Parent; a != nil && !a.NestedChange; a = a.Parent {
		a.NestedChange = true
		d.marked = append(d.marked, a)
	}
}

// Commit installs a freshly parsed root: parent pointers are set for new
// structure (reused subtrees keep theirs), change bits are cleared, and the
// document's terminals become the committed tree's leaves.
func (d *Document) Commit(root *dag.Node) {
	for _, n := range d.marked {
		n.Changed = false
		n.NestedChange = false
		n.RightChanged = false
	}
	d.marked = d.marked[:0]

	root.Parent = nil
	commitWalk(root)
	d.root = root
	d.pending = d.pending[:0]
}

// commitWalk descends through freshly built structure, setting parent
// pointers and the committed bit. Interiors of reused (already committed)
// subtrees are untouched — their parents are still correct — which keeps
// the commit proportional to the amount of new structure.
func commitWalk(n *dag.Node) {
	fresh := !n.Committed
	n.Committed = true
	n.Changed = false
	n.NestedChange = false
	n.RightChanged = false
	if !fresh {
		return
	}
	for _, k := range n.Kids {
		k.Parent = n
		commitWalk(k)
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
	n := 0
	for ti, tok := range d.toks {
		if d.nodes[ti] == nil {
			continue
		}
		if n == i {
			return tok.Offset
		}
		n++
	}
	return d.buf.Len()
}

// NodeSpan returns the byte span [off, off+length) covering the part of
// n's terminal yield still present in the current token stream. It reports
// ok=false when none of n's terminals remain (the node is fully stale).
// Because the span is recomputed from the live token stream on every call,
// it automatically tracks edits elsewhere in the document.
func (d *Document) NodeSpan(n *dag.Node) (off, length int, ok bool) {
	want := make(map[*dag.Node]bool)
	for _, t := range n.Terminals(nil) {
		want[t] = true
	}
	if len(want) == 0 {
		return 0, 0, false
	}
	start, end := -1, -1
	for ti, node := range d.nodes {
		if node == nil || !want[node] {
			continue
		}
		if start < 0 || d.toks[ti].Offset < start {
			start = d.toks[ti].Offset
		}
		if e := d.toks[ti].Offset + len(d.toks[ti].Text); e > end {
			end = e
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
	if offset > d.buf.Len() {
		offset = d.buf.Len()
	}
	line, col = 1, 1
	for i := 0; i < offset; i++ {
		if d.buf.ByteAt(i) == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return line, col
}
