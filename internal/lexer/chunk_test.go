package lexer

import (
	"strings"
	"testing"
)

// tokensEqual compares two streams field-for-field.
func tokensEqual(t *testing.T, ctx string, got, want []Token) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tokens, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: token %d = %+v, want %+v", ctx, i, got[i], want[i])
		}
	}
}

// TestScanIntoReuse: ScanInto reuses the provided buffer and matches Scan.
func TestScanIntoReuse(t *testing.T) {
	s := MustSpec(cRules())
	text := strings.Repeat("if (x == 1) { y = 2; } /* c */\n", 100)
	want := s.Scan(text)

	buf := make([]Token, 0, len(want))
	got := s.ScanInto(text, buf)
	tokensEqual(t, "ScanInto", got, want)
	if &got[0] != &buf[:1][0] {
		t.Fatal("ScanInto did not reuse the provided buffer")
	}
	// Reuse with stale contents from a different text.
	got2 := s.ScanInto("int z = 3;", got)
	tokensEqual(t, "ScanInto reuse", got2, s.Scan("int z = 3;"))

	allocs := testing.AllocsPerRun(20, func() {
		got = s.ScanInto(text, got)
	})
	if allocs != 0 {
		t.Fatalf("ScanInto with sufficient capacity allocates: %v allocs/op", allocs)
	}
}
