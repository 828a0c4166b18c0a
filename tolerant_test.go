package incremental_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	incremental "iglr"
	"iglr/internal/corpus"
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

// The sequence-structured bundled languages: isolation must bound the
// damage in every one of them.
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
				t.Fatalf("isolation did not engage: %+v", out)
			}
			if s.Text() != broken {
				t.Fatalf("text reverted under isolation: %q, want %q", s.Text(), broken)
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

// lastResortCases break text that no sequence structure can confine:
// expr and lr2 have no sequences, scannerless `if`→`iffy` leaves no
// statement reading, `) ) ) )` is garbage from the first parse on (its one
// edit stands for the whole text, and repair replaces it), and 40 breaks
// in one Do of a 4,000-line C file run isolation out of attempts.
func lastResortCases() []tolerantCase {
	src, _ := corpus.Generate(corpus.Spec{Name: "last-resort", Lines: 4000, Lang: "c", Seed: 1})
	many := tolerantCase{name: "csub-40-breaks", lang: incremental.CSubset(), src: src}
	for i, at, shift := 0, 0, 0; i < 40; i++ {
		at += len(src) / 41
		semi := at + strings.IndexByte(src[at:], ';') + 1
		many.edits = append(many.edits, brokenEdit{semi + shift, 0, " @#! "})
		shift += len(" @#! ")
	}
	return []tolerantCase{
		{"expr", incremental.ExprLanguage(), "a + b", []brokenEdit{{2, 1, ")"}}},
		{"lr2", incremental.LR2Language(), "x z c", []brokenEdit{{4, 1, "x x"}}},
		{"scannerless", incremental.ScannerlessLanguage(), "if(cond)x=1;", []brokenEdit{{2, 0, "fy"}}},
		{"csub-first-parse", incremental.CSubset(), "", []brokenEdit{{0, 0, ") ) ) )"}}},
		many,
	}
}

// TestIsolationLastResortKeepsText: where isolation cannot bound the
// damage, one error node owns the whole text. The edits stay, one
// diagnostic covers all of them, a read of the whole text answers, a
// snapshot restores the same tree, and repairing the text converges to
// the cold parse.
func TestIsolationLastResortKeepsText(t *testing.T) {
	for _, tc := range lastResortCases() {
		t.Run(tc.name, func(t *testing.T) {
			broken := tc.src
			for _, e := range tc.edits {
				broken = broken[:e.off] + e.ins + broken[e.off+e.rem:]
			}
			first := tc.src == ""
			var s *incremental.Session
			if first {
				s = incremental.NewSession(tc.lang, broken)
			} else {
				s = incremental.NewSession(tc.lang, tc.src)
				if out := s.Do(nil); out.Err != nil {
					t.Fatalf("baseline: %v", out.Err)
				}
				for _, e := range tc.edits {
					s.Edit(e.off, e.rem, e.ins)
				}
			}
			out := s.Do(nil, incremental.Tolerant())
			if out.Err != nil || !out.Isolated || out.ErrorRegions != 1 {
				t.Fatalf("want the whole file isolated: %+v", out)
			}
			if s.Text() != broken {
				t.Fatalf("text changed under isolation: %q, want %q", s.Text(), broken)
			}
			ds := s.Diagnostics()
			if len(ds) != 1 {
				t.Fatalf("want one diagnostic, got %v", ds)
			}
			for _, e := range tc.edits {
				if d := ds[0]; d.Offset > e.off || d.Offset+d.Length < e.off+len(e.ins) {
					t.Fatalf("diagnostic [%d,%d) does not cover the edit %q at %d", d.Offset, d.Offset+d.Length, e.ins, e.off)
				}
			}
			if n := s.Subtree(0, s.Len()); n == nil || n != s.Tree() {
				t.Fatalf("a read of the whole text answered %v, want the root", n)
			}

			var buf bytes.Buffer
			if err := s.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			twin, err := incremental.RestoreSession(&buf, tc.lang)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if got, want := incremental.FormatDag(tc.lang, twin.Tree()), incremental.FormatDag(tc.lang, s.Tree()); got != want {
				t.Fatalf("restored tree differs:\n%s\nwant\n%s", got, want)
			}
			if got := twin.Diagnostics(); fmt.Sprint(got) != fmt.Sprint(ds) {
				t.Fatalf("restored diagnostics %v, want %v", got, ds)
			}

			repaired := tc.src
			if first {
				repaired = "int a;"
				s.Edit(0, s.Len(), repaired)
			} else {
				for i := len(tc.edits) - 1; i >= 0; i-- {
					e := tc.edits[i]
					s.Edit(e.off, len(e.ins), tc.src[e.off:e.off+e.rem])
				}
			}
			rep := s.Do(nil)
			if rep.Err != nil || s.Text() != repaired || len(s.Diagnostics()) != 0 {
				t.Fatalf("repair: %v, text %q, diagnostics %v", rep.Err, s.Text(), s.Diagnostics())
			}
			cold := incremental.NewSession(tc.lang, repaired).Do(nil)
			if got, want := incremental.FormatDag(tc.lang, rep.Root), incremental.FormatDag(tc.lang, cold.Root); got != want {
				t.Fatalf("repaired tree differs from the cold parse:\n%s\nwant\n%s", got, want)
			}
		})
	}
}

// TestTolerantTextWithNoToken: a text with no token leaves an error node
// nothing to hold, so Do(Tolerant()) fails as the plain Do does, with a
// located *ParseError, and commits nothing.
func TestTolerantTextWithNoToken(t *testing.T) {
	s := incremental.NewSession(incremental.ExprLanguage(), "  ")
	out := s.Do(nil, incremental.Tolerant())
	var pe *incremental.ParseError
	if !errors.As(out.Err, &pe) || out.Root != nil || out.Isolated || s.Tree() != nil {
		t.Fatalf("want a located syntax error and no tree, got %+v", out)
	}
}

// TestExpectedSetIndependentOfHistory: a syntax error's expected set
// names what the parsers stopped on the failing token could accept, not
// what the parsers that reduced on it could, so it is the same for a cold
// parse of a broken text and for a clean session edited into it. In both
// texts only ')' can follow the declarator before the failing ';'. The
// plain Do reports the set, and isolation, which starts from the plain
// parse's failure, reports it on the first diagnostic.
func TestExpectedSetIndependentOfHistory(t *testing.T) {
	type edit struct {
		off, removed int
		text         string
	}
	for _, tc := range []struct {
		clean, broken string
		edits         []edit
	}{
		{"int a; int b; int c;", "int a; int( b; int c;", []edit{{10, 0, "("}}},
		{"int a; int t; int b; int xc;", "int( a; in(}t intb; ;int xc;", []edit{{3, 0, "("}, {8, 14, "in(}t intb; ;"}}},
	} {
		opens := map[string]func() *incremental.Session{
			"cold": func() *incremental.Session { return incremental.NewSession(incremental.CSubset(), tc.broken) },
			"edited": func() *incremental.Session {
				s := incremental.NewSession(incremental.CSubset(), tc.clean)
				if out := s.Do(nil); !out.Clean {
					t.Fatal(out.Err)
				}
				for _, e := range tc.edits {
					s.Edit(e.off, e.removed, e.text)
				}
				if s.Text() != tc.broken {
					t.Fatalf("edits gave %q, want %q", s.Text(), tc.broken)
				}
				return s
			},
		}
		want := []string{"')'"}
		for name, open := range opens {
			var pe *incremental.ParseError
			if out := open().Do(nil); !errors.As(out.Err, &pe) || !slices.Equal(pe.Expected, want) {
				t.Errorf("%s %q: plain Do: want a failure expecting ')', got %v", name, tc.broken, out.Err)
			}
			s := open()
			if out := s.Do(nil, incremental.Tolerant()); out.Err != nil || !out.Isolated {
				t.Fatalf("%s %q: want an isolated tree, got %+v", name, tc.broken, out)
			}
			if ds := s.Diagnostics(); len(ds) == 0 || !slices.Equal(ds[0].Expected, want) {
				t.Errorf("%s %q: diagnostics %v, want the first expecting ')'", name, tc.broken, ds)
			}
		}
	}
}

// TestIsolationKeepsAccumulatedErrors: a 2,000-line C file takes 50
// breaks, one Do(Tolerant()) after each. Each Do keeps the text and holds
// one region per break so far; no count of regions sends the file to a
// mechanism that reverts edits.
func TestIsolationKeepsAccumulatedErrors(t *testing.T) {
	const breaks = 50
	src, _ := corpus.Generate(corpus.Spec{Name: "accumulate", Lines: 2000, Lang: "c", Seed: 1})
	s := incremental.NewSession(incremental.CSubset(), src)
	if out := s.Do(nil); out.Err != nil {
		t.Fatal(out.Err)
	}
	// Break statements from the end of the file toward its start, so each
	// offset holds in the text the earlier breaks left.
	text := src
	for k := 1; k <= breaks; k++ {
		at := len(src) * (breaks - k + 1) / (breaks + 1)
		off := at + strings.IndexByte(src[at:], ';') + 1
		s.Edit(off, 0, " @#! ")
		text = text[:off] + " @#! " + text[off:]
		out := s.Do(nil, incremental.Tolerant())
		if out.Err != nil || !out.Isolated || out.ErrorRegions != k {
			t.Fatalf("break %d: want %d isolated regions, got %+v", k, k, out)
		}
		if s.Text() != text {
			t.Fatalf("break %d changed the text", k)
		}
	}
}

// TestIsolationAcrossRuns: isolation reads terminals through the
// document's token runs, not a flat array, and locates committed nodes from
// the tree. A 2,500-line C file spans at least 40 runs; a "= ;" break goes
// before an identifier that is a run's first terminal, before one that is
// a run's last terminal, and into a statement that straddles a run
// boundary, whose region then spans the two runs. Each break, and a clean
// identifier edit in another run while it persists, isolates exactly one
// region whose diagnostic covers the break; every error node's NodeSpan is
// its ScanSpan; and deleting the break commits the cold parse's tree.
func TestIsolationAcrossRuns(t *testing.T) {
	const brk = "= ;"
	lang := incremental.CSubset()
	src, _ := corpus.Generate(corpus.Spec{Name: "runs", Lines: 2500, Lang: "c", Seed: 1})
	cold := incremental.NewSession(lang, src)
	if out := cold.Do(nil); !out.Clean {
		t.Fatalf("cold parse: %v", out.Err)
	}
	want := incremental.FormatDag(lang, cold.Tree())
	s := incremental.NewSession(lang, src)
	if out := s.Do(nil); !out.Clean {
		t.Fatal(out.Err)
	}
	starts := incremental.RunStarts(s)
	if len(starts) < 40 {
		t.Fatalf("%d runs, want at least 40", len(starts))
	}

	isSpace := func(c byte) bool { return c == ' ' || c == '\n' || c == '\t' }
	isWord := func(c byte) bool { return c == '_' || c >= 'a' && c <= 'z' || c >= '0' && c <= '9' }
	// ident reports whether a variable name (v12, w3) starts at off.
	ident := func(off int) bool {
		return (src[off] == 'v' || src[off] == 'w') && (off == 0 || !isWord(src[off-1]))
	}
	// The break sites, each found in the runs after the previous one's.
	type site struct {
		name     string
		off, run int // where the break goes, and the run that holds it
	}
	var cases []site
	k := 4
	for ; k < len(starts)-1; k++ { // a run's first terminal
		off := starts[k]
		for isSpace(src[off]) {
			off++
		}
		if ident(off) {
			cases = append(cases, site{"first terminal of a run", off, k})
			break
		}
	}
	for k += 4; k < len(starts)-1; k++ { // a run's last terminal
		off := starts[k+1]
		for isSpace(src[off-1]) {
			off--
		}
		for isWord(src[off-1]) {
			off--
		}
		if ident(off) {
			cases = append(cases, site{"last terminal of a run", off, k})
			break
		}
	}
	for k += 4; k < len(starts)-1; k++ { // "vA = vB + n;" with the boundary after vA
		b := starts[k]
		line := strings.LastIndexByte(src[:b], '\n') + 1
		end := line + strings.IndexByte(src[line:], ';')
		stmt := strings.TrimLeft(src[line:end], " ")
		first := end - len(stmt)
		eq := strings.Index(stmt, " = ")
		if eq < 0 || !ident(first) || strings.HasPrefix(stmt, "int") {
			continue
		}
		if off := first + eq + len(" = "); first < b && b < end && ident(off) {
			cases = append(cases, site{"statement across two runs", off, k})
			break
		}
	}
	if len(cases) != 3 {
		t.Fatalf("found %d of the 3 break sites", len(cases))
	}

	spansMatch := func(step string) {
		t.Helper()
		for _, n := range s.ErrorNodes() {
			off, length, ok := s.NodeSpan(n)
			soff, slength, sok := incremental.ScanSpan(s, n)
			if off != soff || length != slength || ok != sok {
				t.Fatalf("%s: error node's NodeSpan [%d,+%d) %v, ScanSpan [%d,+%d) %v", step, off, length, ok, soff, slength, sok)
			}
		}
	}
	isolated := func(step string, off int) incremental.Diagnostic {
		t.Helper()
		if out := s.Do(nil, incremental.Tolerant()); out.Err != nil || !out.Isolated || out.ErrorRegions != 1 {
			t.Fatalf("%s: want one isolated region, got %+v", step, out)
		}
		ds := s.Diagnostics()
		if len(ds) != 1 || ds[0].Offset > off || ds[0].Offset+ds[0].Length < off+len(brk) {
			t.Fatalf("%s: diagnostics %v do not cover the break at %d", step, ds, off)
		}
		spansMatch(step)
		return ds[0]
	}
	edits := corpus.SelfCancellingEdits(src, 64, 3)
	for _, c := range cases {
		s.Edit(c.off, 0, brk)
		d := isolated(c.name, c.off)
		t.Logf("%s: break at byte %d in run %d, region %q", c.name, c.off, c.run, s.Text()[d.Offset:d.Offset+d.Length])
		if c.name == "statement across two runs" {
			inside := false
			for _, b := range incremental.RunStarts(s) {
				inside = inside || d.Offset < b && b < d.Offset+d.Length
			}
			if !inside {
				t.Fatalf("%s: the region [%d,+%d) lies within one run", c.name, d.Offset, d.Length)
			}
		}
		// A clean edit in another run while the break persists.
		var far [2]corpus.Edit
		for _, pair := range edits {
			if r := sort.SearchInts(starts, pair[0].Offset+1) - 1; r < c.run-2 || r > c.run+2 {
				far = pair
				break
			}
		}
		if far[0].Inserted == "" {
			t.Fatalf("%s: no identifier edit outside runs %d±2", c.name, c.run)
		}
		for _, e := range far {
			o := e.Offset
			if o > c.off {
				o += len(brk)
			}
			s.Edit(o, e.Removed, e.Inserted)
			isolated(c.name+", clean edit elsewhere", c.off)
		}
		s.Edit(c.off, len(brk), "")
		if out := s.Do(nil, incremental.Tolerant()); !out.Clean {
			t.Fatalf("%s: deleting the break: %+v", c.name, out)
		}
		if got := incremental.FormatDag(lang, s.Tree()); got != want {
			t.Fatalf("%s: deleting the break does not commit the cold parse's tree", c.name)
		}
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
	if out.Isolated || out.Clean || out.Root != nil {
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
