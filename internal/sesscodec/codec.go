// Package sesscodec serializes live editing sessions as versioned,
// checksummed binary artifacts (.ccsess files), extending the langcodec
// artifact approach from languages to documents. A snapshot carries the
// committed document state — text, token stream, and the committed parse
// dag flattened to arena-relative node IDs — plus the edits still pending
// against it, so a daemon can restart, migrate, or evict-and-restore a
// session without reparsing.
//
// Layout:
//
//	magic "CCSS" | uvarint format version | 32-byte language definition
//	hash | uvarint journal tag | flags | committed text |
//	[token stream | node table | root ID]   (committed-tree sessions) |
//	pending edit log |
//	32-byte SHA-256 checksum over every preceding byte
//
// The language hash binds the artifact to the exact language definition it
// was parsed under — restoring against any other language is refused, since
// node symbols, production IDs, and parse states are all meaningless
// outside their table. The trailing checksum is verified before any section
// decoder runs, mirroring langcodec; the format version invalidates
// artifacts written by an incompatible codec. Consumers treat every decode
// failure as "artifact absent" and reparse from source.
//
// The node table is a postorder flattening of the dag: children precede
// parents, shared nodes (ambiguous regions) are emitted once and referenced
// by ID, and terminals reference their token by significant-token index so
// decoding re-ties tree leaves to the token stream by position. Decoding
// rebuilds the dag through the ordinary arena constructors, then replays
// the pending edits through the document's normal Replace path — the
// restored twin goes through the same state transitions as the original,
// which is what makes it byte-identical (the convergence oracle of the
// paper's §5 methodology, applied to persistence).
package sesscodec

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"iglr/internal/dag"
	"iglr/internal/document"
	"iglr/internal/grammar"
	"iglr/internal/langs"
	"iglr/internal/lexer"
	"iglr/internal/wire"
)

// Magic identifies session snapshot artifact files.
const Magic = "CCSS"

// FormatVersion is bumped whenever the artifact layout changes; older
// snapshots then silently fall back to reparse. Version 2: committed
// sequences are balanced KindSeq trees in canonical shape, whose states
// record the sequence's continuation state (version 1 stored the parser's
// left-recursive chains).
const FormatVersion = 2

// FileExt is the conventional snapshot file extension.
const FileExt = ".ccsess"

// Sentinel decode failures. All of them mean "reparse from source"; they
// are distinguished so callers (daemon metrics, tests) can report why.
var (
	// ErrCorrupt reports a truncated, bit-flipped, or non-artifact file.
	ErrCorrupt = errors.New("sesscodec: corrupt session snapshot")
	// ErrVersion reports a snapshot written by an incompatible format
	// version.
	ErrVersion = errors.New("sesscodec: snapshot format version mismatch")
	// ErrLanguageMismatch reports a snapshot taken under a different
	// language definition than the one offered for restore.
	ErrLanguageMismatch = errors.New("sesscodec: snapshot language definition mismatch")
)

// State is the persistable extract of a session, as assembled by
// Session.Snapshot: the committed document state plus the journal tag.
type State struct {
	// Lang is the language the session parses under; its hash binds the
	// artifact and its tables validate symbol/production/state ranges.
	Lang *langs.Language
	// Text is the committed text (document.CommittedState).
	Text string
	// Toks is the committed token stream, tiling Text exactly. Ignored
	// when Root is nil.
	Toks []lexer.Token
	// Root is the committed parse root; nil when the session has no
	// committed tree (never parsed, or first parse failed).
	Root *dag.Node
	// Pending are the edits applied since the last commit, oldest first.
	Pending []document.AppliedEdit
	// Tag is an opaque sequence tag stored verbatim — the daemon uses it
	// to mark which journal records a snapshot already includes.
	Tag uint64
}

// Node flag bits.
const (
	nodeFiltered     = 1 << 0
	nodeBudgetPruned = 1 << 1
	nodeHasErr       = 1 << 2
)

// Header flag bits. Decode refuses any other bit.
const flagHasRoot = 1 << 0

// Token flag bits.
const (
	tokSkip = 1 << 0
	tokOpen = 1 << 1
)

// Encode serializes st as a session snapshot artifact. It fails (rather
// than writing a lying artifact) if the state is internally inconsistent —
// tokens that do not tile the text, or a tree whose leaves do not match the
// token stream; callers treat an encode failure as "session not
// persistable" and keep the session live.
func Encode(st State) ([]byte, error) {
	buf := make([]byte, 0, 1024+len(st.Text)*2)
	buf = append(buf, Magic...)
	buf = binary.AppendUvarint(buf, FormatVersion)
	buf = append(buf, st.Lang.Hash[:]...)
	buf = binary.AppendUvarint(buf, st.Tag)
	var flags byte
	if st.Root != nil {
		flags |= flagHasRoot
	}
	buf = append(buf, flags)
	buf = wire.AppendString(buf, st.Text)

	if st.Root != nil {
		var err error
		buf, err = appendTokens(buf, st.Text, st.Toks)
		if err != nil {
			return nil, err
		}
		buf, err = appendNodes(buf, st.Root, st.Toks)
		if err != nil {
			return nil, err
		}
	}

	buf = binary.AppendUvarint(buf, uint64(len(st.Pending)))
	for _, e := range st.Pending {
		buf = binary.AppendUvarint(buf, uint64(e.Offset))
		buf = wire.AppendString(buf, e.Removed)
		buf = wire.AppendString(buf, e.Inserted)
	}

	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...), nil
}

// appendTokens writes the committed token stream, verifying it tiles the
// committed text exactly (offsets are implicit — cumulative — in the
// artifact).
func appendTokens(buf []byte, text string, toks []lexer.Token) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(toks)))
	off := 0
	for i, t := range toks {
		if t.Offset != off {
			return nil, fmt.Errorf("sesscodec: token %d at offset %d, expected %d (stream does not tile text)", i, t.Offset, off)
		}
		off += len(t.Text)
		buf = binary.AppendVarint(buf, int64(t.Type))
		buf = binary.AppendUvarint(buf, uint64(len(t.Text)))
		buf = binary.AppendUvarint(buf, uint64(t.Lookahead))
		var f byte
		if t.Skip {
			f |= tokSkip
		}
		if t.Open {
			f |= tokOpen
		}
		buf = append(buf, f)
	}
	if off != len(text) {
		return nil, fmt.Errorf("sesscodec: token stream covers %d of %d text bytes", off, len(text))
	}
	return buf, nil
}

// appendNodes flattens the dag rooted at root in postorder (children before
// parents, shared nodes once) and writes the node table. Terminals are
// written as significant-token indices; their identity with the stream's
// leaves is validated against toks.
func appendNodes(buf []byte, root *dag.Node, toks []lexer.Token) ([]byte, error) {
	// The committed tree's leaves, left to right, correspond 1:1 to the
	// significant (non-skip) tokens of the committed stream — alternative
	// interpretations at choice nodes share their terminals, so the
	// first-interpretation walk visits every leaf exactly once.
	leaves := root.Terminals(nil)
	sigIdx := make(map[*dag.Node]uint32, len(leaves))
	nSig := 0
	for _, t := range toks {
		if t.Skip {
			continue
		}
		if nSig == len(leaves) {
			return nil, fmt.Errorf("sesscodec: committed tree has %d leaves but stream has more significant tokens", len(leaves))
		}
		l := leaves[nSig]
		if l.Text != t.Text {
			return nil, fmt.Errorf("sesscodec: leaf %d text %q does not match token %q", nSig, l.Text, t.Text)
		}
		sigIdx[l] = uint32(nSig)
		nSig++
	}
	if nSig != len(leaves) {
		return nil, fmt.Errorf("sesscodec: committed tree has %d leaves but stream has %d significant tokens", len(leaves), nSig)
	}

	// Iterative postorder with deduplication: shared subtrees (ambiguous
	// regions reference their alternatives' common structure) are emitted
	// on first completion and skipped thereafter, so every kid reference
	// points backwards in the table.
	ids := make(map[*dag.Node]uint32, len(leaves)*2)
	var body []byte
	var emitted uint32
	type frame struct {
		n    *dag.Node
		next int
	}
	stack := []frame{{n: root}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if _, done := ids[f.n]; done {
			stack = stack[:len(stack)-1]
			continue
		}
		if f.n.Kind != dag.KindTerminal && f.next < len(f.n.Kids) {
			k := f.n.Kids[f.next]
			f.next++
			if _, done := ids[k]; !done {
				stack = append(stack, frame{n: k})
			}
			continue
		}
		var err error
		body, err = appendNode(body, f.n, ids, sigIdx)
		if err != nil {
			return nil, err
		}
		ids[f.n] = emitted
		emitted++
		stack = stack[:len(stack)-1]
	}

	buf = binary.AppendUvarint(buf, uint64(emitted))
	buf = append(buf, body...)
	return binary.AppendUvarint(buf, uint64(ids[root])), nil
}

func appendNode(buf []byte, n *dag.Node, ids map[*dag.Node]uint32, sigIdx map[*dag.Node]uint32) ([]byte, error) {
	buf = append(buf, byte(n.Kind))
	buf = binary.AppendVarint(buf, int64(n.Sym))
	var f byte
	if n.Filtered {
		f |= nodeFiltered
	}
	if n.BudgetPruned {
		f |= nodeBudgetPruned
	}
	if n.Err != nil {
		f |= nodeHasErr
	}
	buf = append(buf, f)
	buf = binary.AppendVarint(buf, int64(n.State))

	if n.Kind == dag.KindTerminal {
		si, ok := sigIdx[n]
		if !ok {
			return nil, fmt.Errorf("sesscodec: terminal %q in dag is not a leaf of the committed stream", n.Text)
		}
		return binary.AppendUvarint(buf, uint64(si)), nil
	}

	if n.Kind == dag.KindProduction {
		buf = binary.AppendVarint(buf, int64(n.Prod))
	}
	buf = binary.AppendUvarint(buf, uint64(len(n.Kids)))
	for _, k := range n.Kids {
		id, ok := ids[k]
		if !ok {
			return nil, fmt.Errorf("sesscodec: kid emitted after parent (cycle in dag?)")
		}
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	if n.Err != nil {
		buf = binary.AppendUvarint(buf, uint64(len(n.Err.Expected)))
		for _, e := range n.Err.Expected {
			buf = wire.AppendString(buf, e)
		}
		buf = binary.AppendVarint(buf, int64(n.Err.Region))
	}
	return buf, nil
}

// Restored is the result of decoding a snapshot: a document in exactly the
// state the snapshotted session's document was in (committed tree installed,
// pending edits re-applied), plus the journal tag.
type Restored struct {
	Doc *document.Document
	Tag uint64
}

// Decode reconstructs a session document from an artifact produced by
// Encode, restoring it against l — which must be the same language
// definition (by content hash) the snapshot was taken under. The checksum
// is verified before anything else, so no section decoder ever sees
// corrupted bytes; the decoder nevertheless validates every structural
// invariant (token tiling, node references, symbol/production/state
// ranges, leaf↔token identity, pending-edit applicability), so even a
// correctly-checksummed adversarial artifact yields ErrCorrupt, never a
// panic or a wrong tree.
func Decode(data []byte, l *langs.Language) (*Restored, error) {
	if len(data) < len(Magic)+sha256.Size+1 {
		return nil, ErrCorrupt
	}
	body, trailer := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sum := sha256.Sum256(body); string(sum[:]) != string(trailer) {
		return nil, ErrCorrupt
	}
	if string(body[:len(Magic)]) != Magic {
		return nil, ErrCorrupt
	}
	r := wire.NewReader(body[len(Magic):])
	if v := r.Uvarint(); r.Bad() {
		return nil, ErrCorrupt
	} else if v != FormatVersion {
		return nil, ErrVersion
	}
	hash := r.Bytes(sha256.Size)
	if r.Bad() {
		return nil, ErrCorrupt
	}
	if string(hash) != string(l.Hash[:]) {
		return nil, ErrLanguageMismatch
	}
	tag := r.Uvarint()
	flags := r.Byte()
	text := r.Str()
	if r.Bad() || flags&^flagHasRoot != 0 {
		return nil, ErrCorrupt
	}

	var doc *document.Document
	if flags&flagHasRoot != 0 {
		toks, err := decodeTokens(r, text, l)
		if err != nil {
			return nil, err
		}
		arena := dag.NewArena()
		terms, root, err := decodeNodes(r, arena, toks, l)
		if err != nil {
			return nil, err
		}
		doc = document.Restore(l.Spec, l.Grammar, l.Map, arena, text, toks, terms)
		doc.Commit(root)
	} else {
		// No committed tree: the snapshot is text + pending edits. A
		// fresh document (full lex) is the committed state.
		doc = l.NewDocument(text)
	}

	nPending := r.Count()
	if r.Bad() {
		return nil, ErrCorrupt
	}
	for i := 0; i < nPending; i++ {
		off := r.Uvarint()
		removed := r.Str()
		inserted := r.Str()
		if r.Bad() || off > uint64(doc.Len()) {
			return nil, ErrCorrupt
		}
		if err := doc.ReplayEdit(document.AppliedEdit{Offset: int(off), Removed: removed, Inserted: inserted}); err != nil {
			return nil, fmt.Errorf("%w: pending edit %d: %v", ErrCorrupt, i, err)
		}
	}
	if len(r.Rest()) != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(r.Rest()))
	}
	return &Restored{Doc: doc, Tag: tag}, nil
}

// decodeTokens rebuilds the committed token stream over text, validating
// that the tokens tile the text exactly and reference valid lexer rules.
func decodeTokens(r *wire.Reader, text string, l *langs.Language) ([]lexer.Token, error) {
	n := r.Count()
	if r.Bad() {
		return nil, ErrCorrupt
	}
	toks := make([]lexer.Token, 0, n)
	off := 0
	for i := 0; i < n; i++ {
		typ := r.Varint()
		tl := r.Uvarint()
		la := r.Uvarint()
		f := r.Byte()
		if r.Bad() ||
			(typ != lexer.ErrorType && (typ < 0 || typ >= int64(l.Spec.NumRules()))) ||
			tl > uint64(len(text)-off) ||
			la > uint64(len(text)) ||
			f&^(tokSkip|tokOpen) != 0 {
			return nil, fmt.Errorf("%w: token %d malformed", ErrCorrupt, i)
		}
		toks = append(toks, lexer.Token{
			Type:      int(typ),
			Offset:    off,
			Text:      text[off : off+int(tl)],
			Lookahead: int(la),
			Skip:      f&tokSkip != 0,
			Open:      f&tokOpen != 0,
		})
		off += int(tl)
	}
	if off != len(text) {
		return nil, fmt.Errorf("%w: token stream covers %d of %d text bytes", ErrCorrupt, off, len(text))
	}
	return toks, nil
}

// decodeNodes rebuilds the dag from the node table through the arena
// constructors, returning the terminals of toks' significant tokens, in
// order, and the root. Every reference is validated: kids
// point backwards, terminals claim each significant token exactly once,
// symbols/productions/states are in range for l.
func decodeNodes(r *wire.Reader, arena *dag.Arena, toks []lexer.Token, l *langs.Language) ([]*dag.Node, *dag.Node, error) {
	fail := func(i int, what string) ([]*dag.Node, *dag.Node, error) {
		return nil, nil, fmt.Errorf("%w: node %d: %s", ErrCorrupt, i, what)
	}
	// Significant-token index → token index.
	sigTok := make([]int, 0, len(toks))
	for ti, t := range toks {
		if !t.Skip {
			sigTok = append(sigTok, ti)
		}
	}
	terms := make([]*dag.Node, len(sigTok))

	count := r.Count()
	if r.Bad() {
		return nil, nil, ErrCorrupt
	}
	table := make([]*dag.Node, 0, count)
	nSyms := int64(l.Grammar.NumSymbols())
	nProds := int64(l.Grammar.NumProductions())
	nStates := int64(l.Table.NumStates())
	for i := 0; i < count; i++ {
		kind := dag.Kind(r.Byte())
		sym := r.Varint()
		f := r.Byte()
		state := r.Varint()
		if r.Bad() || kind > dag.KindError || sym < 0 || sym >= nSyms ||
			f&^(nodeFiltered|nodeBudgetPruned|nodeHasErr) != 0 ||
			(state != dag.NoState && state != dag.MultiState && (state < 0 || state >= nStates)) {
			return fail(i, "malformed header")
		}
		var n *dag.Node
		if kind == dag.KindTerminal {
			si := r.Uvarint()
			if r.Bad() || si >= uint64(len(sigTok)) {
				return fail(i, "significant-token index out of range")
			}
			ti := sigTok[si]
			if terms[si] != nil {
				return fail(i, "token claimed by two terminals")
			}
			if f&nodeHasErr != 0 {
				return fail(i, "error detail on terminal")
			}
			// The terminal symbol is a pure function of its token (the
			// document's newTerminal mapping); a stored symbol that
			// disagrees is corruption, not data.
			want := grammar.ErrorSym
			if toks[ti].Type != lexer.ErrorType {
				want = l.Map(toks[ti].Type, toks[ti].Text)
			}
			if grammar.Sym(sym) != want {
				return fail(i, "terminal symbol does not match token")
			}
			n = arena.Terminal(grammar.Sym(sym), toks[ti].Text)
			terms[si] = n
		} else {
			prod := int64(-1)
			if kind == dag.KindProduction {
				prod = r.Varint()
				if r.Bad() || prod < 0 || prod >= nProds || l.Grammar.Production(int(prod)).LHS != grammar.Sym(sym) {
					return fail(i, "production out of range")
				}
			}
			nKids := r.Count()
			if r.Bad() {
				return fail(i, "kid count")
			}
			kids := make([]*dag.Node, nKids)
			for k := 0; k < nKids; k++ {
				id := r.Uvarint()
				if r.Bad() || id >= uint64(len(table)) {
					return fail(i, "kid reference not yet emitted")
				}
				kids[k] = table[id]
			}
			var det *dag.ErrorDetail
			if f&nodeHasErr != 0 {
				if kind != dag.KindError {
					return fail(i, "error detail on non-error node")
				}
				nExp := r.Count()
				if r.Bad() {
					return fail(i, "expected-set count")
				}
				exp := make([]string, nExp)
				for e := 0; e < nExp; e++ {
					exp[e] = r.Str()
				}
				region := r.Varint()
				if r.Bad() || (region != int64(grammar.InvalidSym) && (region < 0 || region >= nSyms)) {
					return fail(i, "error region symbol")
				}
				det = &dag.ErrorDetail{Expected: exp, Region: grammar.Sym(region)}
			}
			switch kind {
			case dag.KindProduction:
				n = arena.Production(grammar.Sym(sym), int(prod), int(state), kids)
			case dag.KindChoice:
				n = arena.Choice(grammar.Sym(sym), kids...)
			case dag.KindSeq:
				n = arena.Seq(grammar.Sym(sym), kids)
			case dag.KindError:
				n = arena.Error(kids, det)
				n.Sym = grammar.Sym(sym)
			}
		}
		// The constructors compute cover bookkeeping and default states;
		// the recorded state (and flags) override — they are part of the
		// committed tree's identity (state-matching, §3.2).
		n.State = int32(state)
		n.Filtered = f&nodeFiltered != 0
		n.BudgetPruned = f&nodeBudgetPruned != 0
		table = append(table, n)
	}
	rootID := r.Uvarint()
	if r.Bad() || rootID >= uint64(len(table)) {
		return nil, nil, fmt.Errorf("%w: root reference", ErrCorrupt)
	}
	root := table[rootID]
	// Every significant token must be a leaf of the restored tree —
	// document invariant: one terminal per non-skip token.
	for si, n := range terms {
		if n == nil {
			return nil, nil, fmt.Errorf("%w: significant token %d has no terminal node", ErrCorrupt, sigTok[si])
		}
	}
	// And the tree's leaves, left to right, must be exactly those
	// terminals in stream order — a correctly-checksummed artifact whose
	// structure disagrees with its own token stream is rejected, never
	// restored as a wrong document.
	if err := validateLeaves(root, terms, count); err != nil {
		return nil, nil, err
	}
	return terms, root, nil
}

// validateLeaves checks that root's terminal yield (first unfiltered
// interpretation at choices — the same policy Encode serialized under)
// visits the stream's significant terminals exactly, in order. The walk is
// iterative with a visit budget: a genuine tree visits at most one node
// per table entry, so an artifact whose sharing structure would make the
// walk superlinear (an adversarial blow-up, impossible to produce by
// Encode) is rejected rather than traversed.
func validateLeaves(root *dag.Node, terms []*dag.Node, tableLen int) error {
	budget := 4*tableLen + 8
	next := 0
	stack := []*dag.Node{root}
	for len(stack) > 0 {
		budget--
		if budget < 0 {
			return fmt.Errorf("%w: leaf walk exceeds node table (adversarial sharing)", ErrCorrupt)
		}
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		switch n.Kind {
		case dag.KindTerminal:
			if next >= len(terms) || terms[next] != n {
				return fmt.Errorf("%w: tree leaves out of stream order", ErrCorrupt)
			}
			next++
		case dag.KindChoice:
			pick := -1
			for i, k := range n.Kids {
				if !k.Filtered {
					pick = i
					break
				}
			}
			if pick < 0 && len(n.Kids) > 0 {
				pick = 0
			}
			if pick >= 0 {
				stack = append(stack, n.Kids[pick])
			}
		default:
			for i := len(n.Kids) - 1; i >= 0; i-- {
				stack = append(stack, n.Kids[i])
			}
		}
	}
	if next != len(terms) {
		return fmt.Errorf("%w: tree covers %d of %d significant tokens", ErrCorrupt, next, len(terms))
	}
	return nil
}
