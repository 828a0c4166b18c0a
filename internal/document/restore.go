package document

import (
	"fmt"

	"iglr/internal/dag"
	"iglr/internal/grammar"
	"iglr/internal/lexer"
	"iglr/internal/text"
)

// CommittedState extracts the persistable state of the document: the text
// and token stream as of the last commit, plus the edits applied since. The
// committed view is what a snapshot stores — pending edits are re-applied
// through Replace on restore, which regenerates the change marks (and the
// fresh uncommitted terminals) exactly as the live document produced them.
//
// With no pending edits the returned token slice is the document's
// flattened stream (Tokens), which the next edit overwrites; callers must
// consume it before then. With pending edits the committed text is reconstructed
// by inverting the edit log (newest first) on a copy — the document itself
// is never mutated — and the committed token stream is recovered by a
// batch scan of that text, which equals the incrementally maintained
// stream the document held at commit time (relex ≡ batch scan is a tested
// invariant).
func (d *Document) CommittedState() (committed string, toks []lexer.Token, pending []AppliedEdit, err error) {
	pending = d.PendingEdits()
	if len(pending) == 0 {
		return d.buf.String(), d.Tokens(), pending, nil
	}
	cur := []byte(d.buf.String())
	for i := len(pending) - 1; i >= 0; i-- {
		e := pending[i]
		if e.Offset < 0 || e.Offset > len(cur) || len(e.Inserted) > len(cur)-e.Offset {
			return "", nil, nil, fmt.Errorf("document: pending edit %d out of range inverting to committed text", i)
		}
		next := make([]byte, 0, len(cur)-len(e.Inserted)+len(e.Removed))
		next = append(next, cur[:e.Offset]...)
		next = append(next, e.Removed...)
		next = append(next, cur[e.Offset+len(e.Inserted):]...)
		cur = next
	}
	committed = string(cur)
	return committed, d.spec.Scan(committed), pending, nil
}

// Restore rebuilds a document around decoded snapshot state: the committed
// text, its token stream (absolute offsets), and the terminal nodes of its
// significant tokens, in order, already allocated in arena by the snapshot
// decoder. The document takes ownership of both arrays. The caller is
// expected to follow with Commit(root) for the decoded tree and
// ReplayEdit for each recorded pending edit, in order — that sequence takes
// the document through the same state transitions the original lived
// through, so the restored twin is byte-identical.
func Restore(spec *lexer.Spec, g *grammar.Grammar, mapTok TokenMapper, arena *dag.Arena, committed string, toks []lexer.Token, terms []*dag.Node) *Document {
	d := &Document{spec: spec, g: g, mapTok: mapTok, buf: text.NewBuffer(committed), arena: arena}
	d.eof = d.arena.Terminal(grammar.EOF, "")
	d.adopt(toks, terms, false)
	return d
}

// ReplayEdit re-applies a recorded edit to the document, verifying first
// that the text it claims to remove is actually there — the content check
// that turns a corrupted or misordered edit log into an error instead of a
// silently divergent document.
func (d *Document) ReplayEdit(e AppliedEdit) error {
	if e.Offset < 0 || e.Offset > d.buf.Len() || len(e.Removed) > d.buf.Len()-e.Offset {
		return fmt.Errorf("document: replayed edit @%d out of range (len %d)", e.Offset, d.buf.Len())
	}
	if got := d.buf.Slice(e.Offset, e.Offset+len(e.Removed)); got != e.Removed {
		return fmt.Errorf("document: replayed edit @%d removes %q but text has %q", e.Offset, e.Removed, got)
	}
	d.Replace(e.Offset, len(e.Removed), e.Inserted)
	return nil
}
