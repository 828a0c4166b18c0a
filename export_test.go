package incremental

import (
	"iglr/internal/detparse"
	"iglr/internal/document"
)

// SpliceWork returns the splice work of the session's latest edit (the
// document's LastSpliceWork) to the external tests.
func SpliceWork(s *Session) int { return s.doc.LastSpliceWork }

// DetTwin is a document of its own driven by the §5 reference parser
// (detparse), which the sequence oracle edits alongside a Session.
type DetTwin struct {
	doc *document.Document
	p   *detparse.Parser
}

// NewDetTwin lexes src for l's conflict-free table; it fails if the table
// has conflicts.
func NewDetTwin(l *Language, src string) (*DetTwin, error) {
	p, err := detparse.New(l.def.Table)
	if err != nil {
		return nil, err
	}
	return &DetTwin{doc: l.def.NewDocument(src), p: p}, nil
}

// Edit applies a text modification, as Session.Edit does.
func (t *DetTwin) Edit(offset, removed int, inserted string) {
	t.doc.Replace(offset, removed, inserted)
}

// Do parses the twin incrementally and commits on success, as a plain
// Session.Do does.
func (t *DetTwin) Do() (*Node, detparse.Stats, error) {
	root, err := t.p.Parse(t.doc.Stream())
	if err == nil {
		t.doc.Commit(root)
	}
	return root, t.p.Stats, err
}
