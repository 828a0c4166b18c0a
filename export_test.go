package incremental

import (
	"iglr/internal/detparse"
	"iglr/internal/document"
)

// SpliceWork returns the splice work of the session's latest edit (the
// document's LastSpliceWork) to the external tests.
func SpliceWork(s *Session) int { return s.doc.LastSpliceWork }

// ScanSpan is NodeSpan's fallback, the document's scan of every token for
// n's terminals: the reference of the read oracle.
func ScanSpan(s *Session, n *Node) (offset, length int, ok bool) { return s.doc.ScanSpan(n) }

// SubtreeScan is Subtree's fallback descent, which locates the root and
// every kid it tries with ScanSpan.
func SubtreeScan(s *Session, offset, length int) *Node {
	if root := s.doc.Root(); root != nil {
		return s.subtreeScan(root, offset, length)
	}
	return nil
}

// RunStarts returns the byte offset where each of the document's token
// runs begins.
func RunStarts(s *Session) []int { return s.doc.RunStarts(nil) }

// Pending reports whether the session holds edits its committed tree has
// not seen.
func Pending(s *Session) bool { return len(s.doc.PendingEdits()) > 0 }

// ReadWork returns the work of the session's latest read (NodeSpan,
// Subtree, Diagnostics, ErrorNodes): tree nodes visited plus tokens
// scanned.
func ReadWork(s *Session) int { return s.readWork }

// IsolateWork returns the work of the session's latest Do(Tolerant())
// outside its parses (isolate.Result.Work, 0 for a clean parse): the tree
// nodes and terminals isolation read plus the sequence parts it handled.
func IsolateWork(s *Session) int { return s.isolateWork }

// ArenaNodes returns the number of nodes the session's arena has built.
func ArenaNodes(s *Session) int { return s.doc.Arena().NumNodes() }

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
