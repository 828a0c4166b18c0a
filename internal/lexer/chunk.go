package lexer

// Batch-lexing fast path. Profiling the end-to-end cold path showed the
// DFA itself is ~10% of Scan's time; the rest is token-slice growth and the
// GC traffic it induces. ScanInto removes that by lexing into a pre-sized,
// reusable buffer.

// estBytesPerToken sizes token buffers from text length: program text
// with its whitespace skip tokens averages about two bytes per token
// (generated C: 2.07), so a scan fits the first array for typical inputs.
// A larger estimate grows the array, with a copy, for every long file: at
// 4, a 16,000-line scan grew it three times.
const estBytesPerToken = 2

// ScanInto lexes the whole text into buf's storage (length is reset, the
// array reused), growing it at most once for typical inputs via a
// size estimate. It returns the token stream, which aliases buf's array
// when capacity sufficed. ScanInto(text, nil) pre-sizes a fresh buffer.
func (s *Spec) ScanInto(text string, buf []Token) []Token {
	out := buf[:0]
	if cap(out) == 0 && len(text) > 0 {
		out = make([]Token, 0, len(text)/estBytesPerToken+8)
	}
	// The token is built here rather than by freshToken: the call per token
	// would halve the scan's throughput.
	pos := 0
	for pos < len(text) {
		length, rule, examined, open := s.scanOne(text, pos)
		tok := Token{
			Type:      int16(rule),
			Offset:    uint32(pos),
			Len:       uint32(length),
			Lookahead: uint32(examined - length),
			Open:      open,
		}
		if rule >= 0 {
			tok.Skip = s.rules[rule].Skip
		}
		out = append(out, tok)
		pos += length
	}
	return out
}
