package langreg_test

import (
	"strings"
	"testing"

	"iglr/internal/langreg"
)

// TestChunkedLexTilesText: the batch lexer's stream must tile the input
// exactly (no gaps, no overlaps), for every bundled language.
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
			if int(tok.Offset) != pos || tok.Len == 0 {
				t.Fatalf("%s: token %d spans [%d, %d), want to start at %d", e.Name, i, tok.Offset, tok.End(), pos)
			}
			pos = tok.End()
		}
		if pos != len(text) {
			t.Fatalf("%s: stream ends at %d, text length %d", e.Name, pos, len(text))
		}
	}
}
