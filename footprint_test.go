package incremental_test

import (
	"strings"
	"testing"

	incremental "iglr"
)

// TestMemoryFootprint pins the governor's input signal: positive for any
// live session, monotone in document size, and growing when edits extend
// the text.
func TestMemoryFootprint(t *testing.T) {
	lang := incremental.ExprLanguage()

	small := incremental.NewSession(lang, "a+b")
	if out := small.Do(nil); out.Err != nil {
		t.Fatal(out.Err)
	}
	big := incremental.NewSession(lang, strings.Repeat("a+b", 2000))
	if out := big.Do(nil); out.Err != nil {
		t.Fatal(out.Err)
	}

	fs, fb := small.MemoryFootprint(), big.MemoryFootprint()
	if fs <= 0 || fb <= 0 {
		t.Fatalf("footprints must be positive: small=%d big=%d", fs, fb)
	}
	if fb <= fs {
		t.Fatalf("500x larger document did not grow the footprint: small=%d big=%d", fs, fb)
	}

	before := small.MemoryFootprint()
	small.Edit(0, 0, strings.Repeat("x+", 1000))
	if out := small.Do(nil); out.Err != nil {
		t.Fatal(out.Err)
	}
	after := small.MemoryFootprint()
	if after <= before {
		t.Fatalf("2KB insert did not grow the footprint: before=%d after=%d", before, after)
	}
}
