package langreg_test

import (
	"strings"
	"testing"

	"iglr/internal/langreg"
)

// TestChunkedLexTilesText: the batch lexer's stream must tile the input
// exactly (no gaps, no overlaps) and alias it, for every bundled language.
func TestChunkedLexTilesText(t *testing.T) {
	for _, e := range langreg.All() {
		var sb strings.Builder
		for sb.Len() < 96<<10 {
			sb.WriteString(strings.Join(e.Samples, "\n"))
			sb.WriteByte('\n')
		}
		text := sb.String()
		toks := e.Lang().Spec.ScanInto(text, nil)
		if len(toks) == 0 {
			t.Fatalf("%s: corpus lexed to zero tokens", e.Name)
		}
		pos := 0
		for i, tok := range toks {
			if tok.Offset != pos {
				t.Fatalf("%s: token %d starts at %d, want %d", e.Name, i, tok.Offset, pos)
			}
			if tok.Text != text[tok.Offset:tok.End()] {
				t.Fatalf("%s: token %d text does not alias input", e.Name, i)
			}
			pos = tok.End()
		}
		if pos != len(text) {
			t.Fatalf("%s: stream ends at %d, text length %d", e.Name, pos, len(text))
		}
	}
}
