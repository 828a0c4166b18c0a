package lexer

// Batch-lexing fast path. Profiling the end-to-end cold path showed the
// DFA itself is ~10% of Scan's time; the rest is token-slice growth and the
// GC traffic it induces. ScanInto removes that by lexing into a pre-sized,
// reusable buffer.

// estBytesPerToken sizes token buffers from text length: program text with
// whitespace skip tokens averages a handful of bytes per token.
const estBytesPerToken = 4

// ScanInto lexes the whole text into buf's storage (length is reset, the
// array reused), growing it at most once for typical inputs via a
// size estimate. It returns the token stream, which aliases buf's array
// when capacity sufficed. ScanInto(text, nil) pre-sizes a fresh buffer.
func (s *Spec) ScanInto(text string, buf []Token) []Token {
	out := buf[:0]
	if cap(out) == 0 && len(text) > 0 {
		out = make([]Token, 0, len(text)/estBytesPerToken+8)
	}
	pos := 0
	for pos < len(text) {
		length, rule, examined, open := s.scanOne(text, pos)
		tok := Token{
			Type:      rule,
			Offset:    pos,
			Text:      text[pos : pos+length],
			Lookahead: examined - length,
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
