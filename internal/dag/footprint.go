package dag

import "unsafe"

// nodeFootprint is the estimated resident cost of one arena node: the Node
// struct itself plus one amortized kid-slice pointer slot (terminals own
// none, productions a few; one slot per node matches observed averages).
const nodeFootprint = int64(unsafe.Sizeof(Node{})) + 8

// Footprint estimates the arena's resident bytes. It is intentionally an
// ever-allocated figure (IDs are never recycled and committed nodes keep
// their chunks reachable), which makes it the right input for the memory
// governor: it moves monotonically with parse work and never under-counts
// what the GC could still be holding.
func (a *Arena) Footprint() int64 {
	return int64(a.n)*nodeFootprint + int64(cap(a.kidsBuf)+cap(a.chainKids))*8
}
