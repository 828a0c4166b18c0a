package incremental

// SpliceWork returns the splice work of the session's latest edit (the
// document's LastSpliceWork) to the external tests.
func SpliceWork(s *Session) int { return s.doc.LastSpliceWork }
