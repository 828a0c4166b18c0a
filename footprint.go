package incremental

// sessionOverhead is a flat per-session estimate covering the Session,
// Document, and parser structs themselves plus small fixed allocations the
// per-field accounting below does not itemize.
const sessionOverhead = 4 << 10

// MemoryFootprint estimates the session's resident bytes: document text,
// token stream, dag arena, and the warm parser scratch retained between
// edits. The daemon's memory governor (internal/govern) accounts this
// figure per shard and globally against its watermarks, so it is an
// intentionally inclusive estimate — everything the session keeps
// reachable — rather than an exact heap measurement.
func (s *Session) MemoryFootprint() int64 {
	n := int64(sessionOverhead)
	if s.doc != nil {
		n += s.doc.Footprint()
	}
	if s.parser != nil {
		n += s.parser.Footprint()
	}
	return n
}
