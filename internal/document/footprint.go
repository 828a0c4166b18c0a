package document

import (
	"unsafe"

	"iglr/internal/lexer"
)

// Footprint estimates the document's resident bytes: text buffer, the
// scanned token and terminal arrays with the storage of runs that outgrew
// them, the run headers and scratch buffers, the node arena, and the
// pending-edit history with its captured text. The figure feeds the
// daemon's memory governor, so it errs toward counting everything the
// document keeps reachable rather than toward precision.
func (d *Document) Footprint() int64 {
	const tok, ptr = int64(unsafe.Sizeof(lexer.Token{})), 8
	n := d.buf.Footprint()
	n += int64(cap(d.toks)+cap(d.fresh)+cap(d.scratchToks)) * tok
	n += int64(cap(d.terms)+cap(d.freshNodes)+cap(d.scratchTerms)+cap(d.marked)) * ptr
	n += int64(cap(d.runs)+cap(d.scratchRuns)) * int64(unsafe.Sizeof(run{}))
	for i := range d.runs {
		if r := &d.runs[i]; r.own {
			n += int64(cap(r.toks))*tok + int64(cap(r.terms))*ptr
		}
	}
	n += d.arena.Footprint()
	for i := range d.pending {
		n += int64(len(d.pending[i].Removed) + len(d.pending[i].Inserted))
	}
	return n
}
