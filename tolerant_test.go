package incremental_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	incremental "iglr"
)

// brokenEdit replaces rem bytes at off with ins.
type brokenEdit struct {
	off, rem int
	ins      string
}

// tolerantCase is one bundled language plus a valid program and the edits
// that break it, applied in order at ascending offsets; each edit breaks
// one statement.
type tolerantCase struct {
	name  string
	lang  *incremental.Language
	src   string
	edits []brokenEdit
}

// The sequence-structured bundled languages: tier-1 isolation must bound
// the damage in every one of them.
func seqCases() []tolerantCase {
	return []tolerantCase{
		{"csub", incremental.CSubset(), "int a; int b; int c;", []brokenEdit{{11, 1, "("}}},
		{"cppsub", incremental.CPPSubset(), "int a; if (a) x = 1; int b;", []brokenEdit{{14, 1, "+"}}},
		{"javasub", incremental.JavaSubset(),
			"class A { int[] xs; void m() { xs[0] = 1; } }", []brokenEdit{{31, 2, ")("}}},
		{"lispsub", incremental.LispSubset(), "(define (f x) (* x x)) (f 3)", []brokenEdit{{26, 1, ")"}}},
		{"mod2sub", incremental.Modula2Subset(),
			"MODULE M;\nVAR x : INTEGER;\nBEGIN\n  x := 1\nEND M.\n", []brokenEdit{{14, 1, ";"}}},
		{"scannerless", incremental.ScannerlessLanguage(), "if(cond)x=1;x=2;", []brokenEdit{{14, 1, "+"}}},
	}
}

// densityCases seed 1, 5 and 20 broken statements, spread evenly, into a
// 200-statement C file. Each edit turns an identifier's first byte into
// '(', so every offset stays put.
func densityCases() []tolerantCase {
	const stmts = 200
	var sb strings.Builder
	offsets := make([]int, stmts) // offset of each statement's identifier
	for i := range offsets {
		offsets[i] = sb.Len() + len("int ")
		fmt.Fprintf(&sb, "int v%d; ", i)
	}
	var cases []tolerantCase
	for _, n := range []int{1, 5, 20} {
		tc := tolerantCase{name: fmt.Sprintf("csub-%d-errors", n), lang: incremental.CSubset(), src: sb.String()}
		for i := 0; i < n; i++ {
			tc.edits = append(tc.edits, brokenEdit{offsets[i*stmts/n+stmts/(2*n)], 1, "("})
		}
		cases = append(cases, tc)
	}
	return cases
}

// TestIsolationNeverRevertsText is the tentpole acceptance criterion: on
// every sequence-structured bundled language, and on a C file with 1, 5 or
// 20 broken statements, edits that introduce syntax errors keep the user's
// text byte-for-byte, commit a tree with error nodes, and report exactly
// one diagnostic per broken statement, whose span covers that damage;
// repairing edits then converge to a tree identical to a from-scratch
// batch parse.
func TestIsolationNeverRevertsText(t *testing.T) {
	for _, tc := range append(seqCases(), densityCases()...) {
		t.Run(tc.name, func(t *testing.T) {
			s := incremental.NewSession(tc.lang, tc.src)
			if out := s.Do(nil); out.Err != nil {
				t.Fatalf("baseline %q does not parse: %v", tc.src, out.Err)
			}
			broken := tc.src
			removed := make([]string, len(tc.edits))
			for i, e := range tc.edits {
				removed[i] = broken[e.off : e.off+e.rem]
				s.Edit(e.off, e.rem, e.ins)
				broken = broken[:e.off] + e.ins + broken[e.off+e.rem:]
			}
			if out := incremental.NewSession(tc.lang, broken).Do(nil); out.Err == nil {
				t.Fatalf("edits do not actually break %q", broken)
			}

			out := s.Do(nil, incremental.Tolerant())
			if out.Err != nil {
				t.Fatalf("recovery errored: %v", out.Err)
			}
			if !out.Isolated {
				t.Fatalf("tier-1 isolation did not engage: %+v", out)
			}
			if s.Text() != broken {
				t.Fatalf("text reverted under tier-1: %q, want %q", s.Text(), broken)
			}
			if out.ErrorRegions < 1 || len(s.ErrorNodes()) < 1 {
				t.Fatalf("no error nodes committed: regions=%d nodes=%d",
					out.ErrorRegions, len(s.ErrorNodes()))
			}
			ds := s.Diagnostics()
			if len(ds) != len(tc.edits) {
				t.Fatalf("%d diagnostics for %d broken statements: %v", len(ds), len(tc.edits), ds)
			}
			for i, d := range ds {
				if d.Offset < 0 || d.Offset+d.Length > len(broken) || d.Length <= 0 {
					t.Fatalf("diagnostic span out of range: %+v", d)
				}
				if e := tc.edits[i]; d.Offset > e.off || d.Offset+d.Length < e.off+len(e.ins) {
					t.Fatalf("diagnostic %q does not cover the damage %q at %d",
						broken[d.Offset:d.Offset+d.Length], e.ins, e.off)
				}
			}

			// Repair: inverse edits, then full convergence to the batch parse.
			for i := len(tc.edits) - 1; i >= 0; i-- {
				s.Edit(tc.edits[i].off, len(tc.edits[i].ins), removed[i])
			}
			repaired := s.Do(nil)
			if repaired.Err != nil {
				t.Fatalf("repaired parse: %v", repaired.Err)
			}
			if s.Text() != tc.src {
				t.Fatalf("repaired text = %q, want %q", s.Text(), tc.src)
			}
			if len(s.Diagnostics()) != 0 || len(s.ErrorNodes()) != 0 {
				t.Fatalf("quarantine not cleared after repair: %v", s.Diagnostics())
			}
			fresh := incremental.NewSession(tc.lang, tc.src).Do(nil)
			if fresh.Err != nil {
				t.Fatal(fresh.Err)
			}
			if got, want := incremental.FormatDag(tc.lang, repaired.Root), incremental.FormatDag(tc.lang, fresh.Root); got != want {
				t.Fatalf("repaired tree differs from batch parse:\n-- incremental --\n%s\n-- batch --\n%s", got, want)
			}
		})
	}
}

// TestTier2WhenIsolationCannotBound: languages without associative
// sequences offer no isolation boundary, so recovery falls back to the
// paper's history-sensitive replay — the bad edit is reverted and reported
// as unincorporated, preserving the pre-existing Outcome contract.
func TestTier2WhenIsolationCannotBound(t *testing.T) {
	cases := []tolerantCase{
		{"expr", incremental.ExprLanguage(), "a + b", []brokenEdit{{2, 1, ")"}}},
		{"lr2", incremental.LR2Language(), "x z c", []brokenEdit{{4, 1, "x x"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := incremental.NewSession(tc.lang, tc.src)
			if out := s.Do(nil); out.Err != nil {
				t.Fatalf("baseline: %v", out.Err)
			}
			e := tc.edits[0]
			s.Edit(e.off, e.rem, e.ins)
			out := s.Do(nil, incremental.Tolerant())
			if out.Isolated {
				t.Fatalf("isolation cannot bound damage in %s, yet Isolated=true", tc.name)
			}
			if out.Err != nil {
				t.Fatalf("tier-2 errored: %v", out.Err)
			}
			if len(out.Unincorporated) != 1 {
				t.Fatalf("unincorporated = %d, want 1", len(out.Unincorporated))
			}
			if s.Text() != tc.src {
				t.Fatalf("tier-2 must revert the bad edit: %q, want %q", s.Text(), tc.src)
			}
		})
	}
}

// TestDiagnosticsPositionMapping tracks one diagnostic across several
// committed edits before, inside, and after its region (satellite: ≥3
// consecutive commits).
func TestDiagnosticsPositionMapping(t *testing.T) {
	lang := incremental.CSubset()
	s := incremental.NewSession(lang, "int a; int b; int c;")
	if out := s.Do(nil); out.Err != nil {
		t.Fatal(out.Err)
	}
	s.Edit(11, 1, "(") // break the middle statement
	if out := s.Do(nil, incremental.Tolerant()); !out.Isolated {
		t.Fatalf("expected isolation: %+v", out)
	}

	// The diagnostic must keep covering the broken token as the text
	// shifts around (and within) it.
	check := func(step string) incremental.Diagnostic {
		t.Helper()
		ds := s.Diagnostics()
		if len(ds) != 1 {
			t.Fatalf("%s: diagnostics = %v, want exactly 1", step, ds)
		}
		d := ds[0]
		txt := s.Text()
		if d.Offset < 0 || d.Offset+d.Length > len(txt) {
			t.Fatalf("%s: span %d+%d out of range of %q", step, d.Offset, d.Length, txt)
		}
		if !strings.Contains(txt[d.Offset:d.Offset+d.Length], "(") {
			t.Fatalf("%s: span %q lost the damage in %q", step, txt[d.Offset:d.Offset+d.Length], txt)
		}
		return d
	}
	before := check("after isolation")

	// Commit 1: insertion before the region shifts it right.
	s.Edit(0, 0, "int p; ")
	if out := s.Do(nil, incremental.Tolerant()); out.Err != nil || !out.Isolated {
		t.Fatalf("commit 1: %+v", out)
	}
	d1 := check("insert before")
	if d1.Offset != before.Offset+len("int p; ") {
		t.Fatalf("offset did not shift with the insertion: %d, want %d",
			d1.Offset, before.Offset+len("int p; "))
	}

	// Commit 2: insertion inside the region grows it in place.
	s.Edit(d1.Offset+d1.Length-1, 0, " NUM NUM")
	if out := s.Do(nil, incremental.Tolerant()); out.Err != nil || !out.Isolated {
		t.Fatalf("commit 2: %+v", out)
	}
	d2 := check("insert inside")
	if d2.Offset != d1.Offset {
		t.Fatalf("offset moved on an in-region edit: %d, want %d", d2.Offset, d1.Offset)
	}

	// Commit 3: deletion after the region leaves it untouched.
	txt := s.Text()
	tail := strings.LastIndex(txt, "int c;")
	s.Edit(tail, len("int c;"), "int cc;")
	if out := s.Do(nil, incremental.Tolerant()); out.Err != nil || !out.Isolated {
		t.Fatalf("commit 3: %+v", out)
	}
	d3 := check("edit after")
	if d3.Offset != d2.Offset {
		t.Fatalf("offset moved on an after-region edit: %d, want %d", d3.Offset, d2.Offset)
	}

	// Even between Edit and Do the positions track live.
	s.Edit(0, 0, "int q; ")
	dLive := check("pending edit")
	if dLive.Offset != d3.Offset+len("int q; ") {
		t.Fatalf("pending-edit remap: %d, want %d", dLive.Offset, d3.Offset+len("int q; "))
	}
}

// TestBudgetTripLeavesEditsPending (satellite): an infrastructure failure
// during recovery must not trigger replay or isolation — the edit stays
// pending, the text keeps the user's bytes, and the error surfaces as
// ErrBudget. Raising the budget then succeeds on the same pending edit.
func TestBudgetTripLeavesEditsPending(t *testing.T) {
	lang := incremental.CSubset()
	s := incremental.NewSession(lang, "int a; int b; int c;")
	if out := s.Do(nil); out.Err != nil {
		t.Fatal(out.Err)
	}
	s.SetBudget(incremental.Budget{MaxArenaNodes: 1})
	s.Edit(11, 1, "(")
	out := s.Do(nil, incremental.Tolerant())
	if !errors.Is(out.Err, incremental.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", out.Err)
	}
	if out.Isolated || len(out.Unincorporated) != 0 || len(out.Incorporated) != 0 {
		t.Fatalf("budget trip triggered recovery machinery: %+v", out)
	}
	if s.Text() != "int a; int (; int c;" {
		t.Fatalf("budget trip disturbed the text: %q", s.Text())
	}

	// The pending edit survives: with the budget lifted, the same session
	// isolates it.
	s.SetBudget(incremental.Budget{})
	out = s.Do(nil, incremental.Tolerant())
	if out.Err != nil || !out.Isolated {
		t.Fatalf("after lifting the budget: %+v", out)
	}
	if s.Text() != "int a; int (; int c;" {
		t.Fatalf("text = %q", s.Text())
	}
}
