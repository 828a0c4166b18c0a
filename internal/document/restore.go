package document

import (
	"fmt"
)

// CommittedState extracts the persistable state of the document: the text
// as of the last commit, plus the edits applied since. The committed text
// is what a snapshot stores; a restore parses it and re-applies the pending
// edits through ReplayEdit, which regenerates the change marks (and the
// fresh uncommitted terminals) exactly as the live document produced them.
// With pending edits the committed text is reconstructed by inverting the
// edit log (newest first) on a copy — the document itself is never
// mutated.
func (d *Document) CommittedState() (committed string, pending []AppliedEdit, err error) {
	pending = d.PendingEdits()
	if len(pending) == 0 {
		return d.buf.String(), pending, nil
	}
	cur := []byte(d.buf.String())
	for i := len(pending) - 1; i >= 0; i-- {
		e := pending[i]
		if e.Offset < 0 || e.Offset > len(cur) || len(e.Inserted) > len(cur)-e.Offset {
			return "", nil, fmt.Errorf("document: pending edit %d out of range inverting to committed text", i)
		}
		next := make([]byte, 0, len(cur)-len(e.Inserted)+len(e.Removed))
		next = append(next, cur[:e.Offset]...)
		next = append(next, e.Removed...)
		next = append(next, cur[e.Offset+len(e.Inserted):]...)
		cur = next
	}
	return string(cur), pending, nil
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
