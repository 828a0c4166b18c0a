package incremental_test

import (
	"testing"

	incremental "iglr"
)

// FuzzErrorIsolationConverges drives the tentpole convergence contract with
// arbitrary edits: whenever tier-1 isolation engages, the user's text is
// preserved byte for byte and diagnostics point at real damage; undoing the
// edit must then reparse cleanly into a tree byte-identical to a
// from-scratch batch parse of the same text. When isolation cannot engage,
// the tier-2 contract holds instead: the bad edit is reverted.
func FuzzErrorIsolationConverges(f *testing.F) {
	f.Add("int a; int b; int c;", 11, 1, "(")
	f.Add("int a; { int b; } int c;", 13, 1, ")")
	f.Add("int a; int b;", 4, 1, "))")
	f.Add("int x;", 0, 0, "( ")
	f.Add("int a; a = 1; int b;", 9, 2, ")) ((")
	lang := incremental.CSubset()
	f.Fuzz(func(t *testing.T, src string, off, rem int, ins string) {
		if len(src) > 200 || len(ins) > 50 {
			t.Skip()
		}
		for _, r := range src + ins {
			if r > 0x7f {
				t.Skip() // the csub lexer is ASCII
			}
		}
		s := incremental.NewSession(lang, src)
		if out := s.Do(nil); out.Err != nil {
			t.Skip() // only valid baselines exercise isolation
		}

		// Clamp the edit into range (Edit panics out of range by contract).
		if off < 0 {
			off = -off
		}
		off %= len(src) + 1
		if rem < 0 {
			rem = -rem
		}
		rem %= len(src) - off + 1
		removed := src[off : off+rem]
		broken := src[:off] + ins + src[off+rem:]

		s.Edit(off, rem, ins)
		out := s.Do(nil, incremental.Tolerant())
		if out.Err != nil {
			t.Fatalf("recovery errored with a committed baseline: %v", out.Err)
		}
		if out.Clean {
			t.Skip() // the edit did not actually break the text
		}
		if !out.Isolated {
			// Tier-2 replay: the bad edit must have been reverted.
			if s.Text() != src {
				t.Fatalf("tier-2 left text %q, want baseline %q", s.Text(), src)
			}
			return
		}

		// Tier-1 isolation: text preserved, damage quarantined and reported.
		if s.Text() != broken {
			t.Fatalf("isolation changed the text: %q, want %q", s.Text(), broken)
		}
		if out.ErrorRegions < 1 || len(s.ErrorNodes()) < 1 {
			t.Fatalf("isolated without error nodes: %+v", out)
		}
		if len(s.Diagnostics()) < 1 {
			t.Fatal("isolated without diagnostics")
		}

		// Convergence: undoing the edit reparses to the batch-parse tree.
		s.Edit(off, len(ins), removed)
		repaired := s.Do(nil)
		if repaired.Err != nil {
			t.Fatalf("repaired text %q does not reparse: %v", src, repaired.Err)
		}
		if s.Text() != src {
			t.Fatalf("repaired text = %q, want %q", s.Text(), src)
		}
		if len(s.Diagnostics()) != 0 || len(s.ErrorNodes()) != 0 {
			t.Fatalf("quarantine survived the repair: %v", s.Diagnostics())
		}
		fresh := incremental.NewSession(lang, src).Do(nil)
		if fresh.Err != nil {
			t.Fatal(fresh.Err)
		}
		if got, want := incremental.FormatDag(lang, repaired.Root), incremental.FormatDag(lang, fresh.Root); got != want {
			t.Fatalf("repaired tree differs from batch parse:\n-- incremental --\n%s\n-- batch --\n%s", got, want)
		}
	})
}
