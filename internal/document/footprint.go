package document

import (
	"unsafe"

	"iglr/internal/lexer"
)

// Footprint estimates the document's resident bytes: text buffer, token
// stream, the per-token node map and terminal caches, the node arena, and
// the pending-edit history with its captured text. The figure feeds the
// daemon's memory governor, so it errs toward counting everything the
// document keeps reachable rather than toward precision.
func (d *Document) Footprint() int64 {
	n := d.buf.Footprint()
	n += int64(cap(d.toks)+cap(d.fresh)) * int64(unsafe.Sizeof(lexer.Token{}))
	n += int64(cap(d.nodes)+cap(d.terms)+cap(d.freshNodes)+cap(d.marked)) * 8
	n += d.arena.Footprint()
	for i := range d.pending {
		n += int64(len(d.pending[i].Removed) + len(d.pending[i].Inserted))
	}
	return n
}
