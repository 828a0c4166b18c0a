package incremental

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"iglr/internal/document"
	"iglr/internal/isolate"
	"iglr/internal/sesscodec"
)

// snapshotSource returns a source that parses cleanly under each bundled
// language (pooledSource's expr string uses unary minus, which the raw
// ambiguous grammar rejects).
func snapshotSource(name string) string {
	if name == "expr-ambiguous" {
		return "a + b * (c - 42) / d"
	}
	return pooledSource(name)
}

// snapshotBytes captures s as a .ccsess artifact.
func snapshotBytes(t *testing.T, s *Session, tag uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.SnapshotTagged(&buf, tag); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return buf.Bytes()
}

// restoredTwin snapshots s and restores it, failing the test on any error.
func restoredTwin(t *testing.T, s *Session, lang *Language) *Session {
	t.Helper()
	r, err := RestoreSession(bytes.NewReader(snapshotBytes(t, s, 0)), lang)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	return r
}

// compareSessions asserts the two sessions present identical state through
// every public observation: text, committed tree rendering, diagnostics.
func compareSessions(t *testing.T, lang *Language, want, got *Session, when string) {
	t.Helper()
	if want.Text() != got.Text() {
		t.Fatalf("%s: text diverged:\n  live %q\n  twin %q", when, want.Text(), got.Text())
	}
	wr, gr := want.Tree(), got.Tree()
	if (wr == nil) != (gr == nil) {
		t.Fatalf("%s: committed root presence diverged: live %v twin %v", when, wr != nil, gr != nil)
	}
	if wr != nil {
		if w, g := FormatDag(lang, wr), FormatDag(lang, gr); w != g {
			t.Fatalf("%s: committed tree diverged:\nlive:\n%s\ntwin:\n%s", when, w, g)
		}
	}
	if w, g := fmt.Sprint(want.Diagnostics()), fmt.Sprint(got.Diagnostics()); w != g {
		t.Fatalf("%s: diagnostics diverged:\n  live %s\n  twin %s", when, w, g)
	}
	if w, g := want.LexErrors(), got.LexErrors(); w != g {
		t.Fatalf("%s: lex error count diverged: live %d twin %d", when, w, g)
	}
}

// compareOutcomes asserts two parse outcomes are observably identical.
func compareOutcomes(t *testing.T, lang *Language, want, got Outcome, when string) {
	t.Helper()
	if (want.Err == nil) != (got.Err == nil) || (want.Err != nil && want.Err.Error() != got.Err.Error()) {
		t.Fatalf("%s: outcome error diverged: live %v twin %v", when, want.Err, got.Err)
	}
	if want.Clean != got.Clean || want.Isolated != got.Isolated || want.ErrorRegions != got.ErrorRegions {
		t.Fatalf("%s: outcome flags diverged: live clean=%v iso=%v regions=%d, twin clean=%v iso=%v regions=%d",
			when, want.Clean, want.Isolated, want.ErrorRegions, got.Clean, got.Isolated, got.ErrorRegions)
	}
	if (want.Root == nil) != (got.Root == nil) {
		t.Fatalf("%s: outcome root presence diverged", when)
	}
	if want.Root != nil {
		if w, g := FormatDag(lang, want.Root), FormatDag(lang, got.Root); w != g {
			t.Fatalf("%s: outcome tree diverged:\nlive:\n%s\ntwin:\n%s", when, w, g)
		}
	}
}

// TestSnapshotRestoreTwin: for every bundled language, a snapshotted and
// restored session is byte-identical in behavior to the never-persisted
// original — same committed tree, diagnostics, and outcomes for the same
// subsequent edits (the persistence convergence oracle).
func TestSnapshotRestoreTwin(t *testing.T) {
	for name, lang := range pooledLangs() {
		t.Run(name, func(t *testing.T) {
			src := snapshotSource(name)
			live := NewSession(lang, src)
			if out := live.Do(nil); out.Err != nil {
				t.Fatalf("seed parse: %v", out.Err)
			}
			twin := restoredTwin(t, live, lang)
			compareSessions(t, lang, live, twin, "after restore")

			// Same edit script against both; every parse must agree.
			edits := []struct {
				off, rem int
				ins      string
			}{
				{0, 0, " "},
				{len(src) / 2, 1, ""},
				{live.Len(), 0, " "},
			}
			for i, e := range edits {
				live.Edit(e.off, e.rem, e.ins)
				twin.Edit(e.off, e.rem, e.ins)
				compareOutcomes(t, lang, live.Do(nil), twin.Do(nil), fmt.Sprintf("edit %d", i))
				compareSessions(t, lang, live, twin, fmt.Sprintf("after edit %d", i))
			}
		})
	}
}

// TestSnapshotRestoreBalancedTwin: a restored session holds the committed
// sequences as the same balanced trees, so its parser consumes their clean
// pieces exactly as the live session's does — the same committed tree and
// the same work after the same edits.
func TestSnapshotRestoreBalancedTwin(t *testing.T) {
	lang := CSubset()
	var b strings.Builder
	b.WriteString("typedef int t;\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, "int v%d = %d; { t(w%d); v%d = v%d + 1; }\n", i, i, i, i, i)
	}
	src := b.String()
	live := NewSession(lang, src)
	if out := live.Do(nil); out.Err != nil {
		t.Fatalf("seed parse: %v", out.Err)
	}
	twin := restoredTwin(t, live, lang)
	compareSessions(t, lang, live, twin, "after restore")
	for i, name := range []string{"v20 =", "w7", "v39 + 1"} {
		off := strings.Index(live.Text(), name)
		live.Edit(off, 1, "q")
		twin.Edit(off, 1, "q")
		lo, to := live.Do(nil), twin.Do(nil)
		compareOutcomes(t, lang, lo, to, fmt.Sprintf("edit %d", i))
		compareSessions(t, lang, live, twin, fmt.Sprintf("after edit %d", i))
		if to.Stats.SeqPieces == 0 || to.Stats != lo.Stats {
			t.Fatalf("edit %d: restored twin's work %+v, live %+v", i, to.Stats, lo.Stats)
		}
	}
}

// TestSnapshotPendingEdits: edits applied but not yet parsed survive the
// round trip — the twin holds the same text, the same committed (stale)
// tree, and parses to the same result.
func TestSnapshotPendingEdits(t *testing.T) {
	for name, lang := range pooledLangs() {
		t.Run(name, func(t *testing.T) {
			src := snapshotSource(name)
			live := NewSession(lang, src)
			if out := live.Do(nil); out.Err != nil {
				t.Fatalf("seed parse: %v", out.Err)
			}
			live.Edit(0, 0, " ")
			live.Edit(live.Len()/2, 1, "")
			live.Edit(live.Len(), 0, " ")

			twin := restoredTwin(t, live, lang)
			compareSessions(t, lang, live, twin, "after restore with pending")
			if w, g := live.doc.PendingEdits(), twin.doc.PendingEdits(); fmt.Sprint(w) != fmt.Sprint(g) {
				t.Fatalf("pending edits diverged:\n  live %v\n  twin %v", w, g)
			}
			compareOutcomes(t, lang, live.Do(nil), twin.Do(nil), "parse of pending")
			compareSessions(t, lang, live, twin, "after parsing pending")
		})
	}
}

// TestSnapshotTolerantErrorNodes: a committed tree holding quarantined
// error regions (error isolation) round-trips with its diagnostics, and
// both sessions converge identically when the text is repaired.
func TestSnapshotTolerantErrorNodes(t *testing.T) {
	lang := CSubset()
	src := "typedef int T; T x; x = f(x, 1) + 2; return x + 1;"
	live := NewSession(lang, src)
	if out := live.Do(nil, Tolerant()); out.Err != nil {
		t.Fatalf("seed parse: %v", out.Err)
	}
	at := strings.Index(src, "x = f")
	live.Edit(at, 0, "@#! ")
	if out := live.Do(nil, Tolerant()); out.Err != nil || out.Clean {
		t.Fatalf("want isolated error outcome, got clean=%v err=%v", out.Clean, out.Err)
	}
	if len(live.Diagnostics()) == 0 {
		t.Fatal("seed session has no diagnostics to persist")
	}

	twin := restoredTwin(t, live, lang)
	compareSessions(t, lang, live, twin, "after restore with error nodes")

	// Repair: both sessions must converge back to the clean parse.
	live.Edit(at, 4, "")
	twin.Edit(at, 4, "")
	compareOutcomes(t, lang, live.Do(nil, Tolerant()), twin.Do(nil, Tolerant()), "repair")
	compareSessions(t, lang, live, twin, "after repair")
	if d := twin.Diagnostics(); len(d) != 0 {
		t.Fatalf("diagnostics survived repair: %v", d)
	}
}

// TestSnapshotBeforeFirstParse: a session that has never parsed (text and
// pending edits only) still round-trips; both twins then parse identically.
func TestSnapshotBeforeFirstParse(t *testing.T) {
	lang := ExprLanguage()
	live := NewSession(lang, "a + b")
	live.Edit(5, 0, " * c")
	twin := restoredTwin(t, live, lang)
	if twin.Tree() != nil {
		t.Fatal("restored never-parsed session has a committed tree")
	}
	compareSessions(t, lang, live, twin, "after restore")
	compareOutcomes(t, lang, live.Do(nil), twin.Do(nil), "first parse")
	compareSessions(t, lang, live, twin, "after first parse")
}

// TestSnapshotTag: the opaque journal tag rides along.
func TestSnapshotTag(t *testing.T) {
	lang := ExprLanguage()
	s := NewSession(lang, "a + b")
	s.Do(nil)
	data := snapshotBytes(t, s, 0xdeadbeefcafe)
	_, tag, err := RestoreSessionTagged(bytes.NewReader(data), lang)
	if err != nil {
		t.Fatal(err)
	}
	if tag != 0xdeadbeefcafe {
		t.Fatalf("tag round trip: got %#x", tag)
	}
}

// TestRestoreForeignLanguage: an artifact restores only against the exact
// language definition it was taken under. The definition hash binds the
// two: building an equal definition again, or attaching semantics, keeps
// it; any change to the grammar does not.
func TestRestoreForeignLanguage(t *testing.T) {
	def := LanguageDef{
		Name:    "restore-lists",
		Grammar: "%token x ';'\n%start L\nL : Item* ;\nItem : x ';' ;",
		Lexer: []LexRule{
			{Name: "WS", Pattern: `[ \t\n]+`, Skip: true},
			{Name: "X", Pattern: `x`},
			{Name: "SEMI", Pattern: `;`},
		},
		TokenSyms: map[string]string{"X": "x", "SEMI": "';'"},
	}
	define := func(d LanguageDef) *Language {
		t.Helper()
		l, err := DefineLanguage(d)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	lists := define(def)
	plus := def
	plus.Grammar = strings.Replace(def.Grammar, "Item*", "Item+", 1)
	withSem := define(def).WithSemantics(SemanticsConfig{
		IsScope: func(*Node) bool { return false },
	})

	cases := []struct {
		name    string
		taken   *Language
		src     string
		offered *Language
		foreign bool // restore must fail with ErrSnapshotLanguage
	}{
		{"other bundled language", ExprLanguage(), "a + b", CSubset(), true},
		{"same bundled language", ExprLanguage(), "a + b", ExprLanguage(), false},
		{"grammar one token apart", lists, "x; x;", define(plus), true},
		{"same definition plus semantics", lists, "x; x;", withSem, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSession(tc.taken, tc.src)
			if out := s.Do(nil); out.Err != nil {
				t.Fatal(out.Err)
			}
			_, err := RestoreSession(bytes.NewReader(snapshotBytes(t, s, 0)), tc.offered)
			if tc.foreign && err != ErrSnapshotLanguage {
				t.Fatalf("want ErrSnapshotLanguage, got %v", err)
			}
			if !tc.foreign && err != nil {
				t.Fatalf("restore against equal definition failed: %v", err)
			}
		})
	}

	// Semantics are not part of the compiled language: both spell the same
	// artifact.
	var a, b bytes.Buffer
	if err := lists.SaveCompiled(&a); err != nil {
		t.Fatal(err)
	}
	if err := withSem.SaveCompiled(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WithSemantics changed the compiled artifact")
	}
}

// TestSnapshotBudgetOption: options apply to the restored session.
func TestSnapshotBudgetOption(t *testing.T) {
	lang := ExprLanguage()
	s := NewSession(lang, "a + b * c")
	s.Do(nil)
	b := Budget{MaxArenaNodes: 123456}
	r, err := RestoreSession(bytes.NewReader(snapshotBytes(t, s, 0)), lang, WithBudget(b))
	if err != nil {
		t.Fatal(err)
	}
	if r.BudgetLimits() != b {
		t.Fatalf("budget option not applied: %+v", r.BudgetLimits())
	}
	if out := r.Do(nil); out.Err != nil {
		t.Fatalf("budgeted restored session parse: %v", out.Err)
	}
}

// TestRestoreIgnoresAbortLimits: a restore's parse runs under its budget's
// MaxAlternatives alone. A session grown by edits under an arena cap that
// a cold parse of its text exceeds (each incremental parse was charged
// only for its growth) restores exactly under that cap, and under a
// deadline no parse meets, and keeps the budget for its later parses.
func TestRestoreIgnoresAbortLimits(t *testing.T) {
	lang := CSubset()
	live := NewSession(lang, "int a0;\n", WithBudget(Budget{MaxArenaNodes: 400}))
	if out := live.Do(nil); out.Err != nil {
		t.Fatalf("seed parse: %v", out.Err)
	}
	for i := 0; i < 40; i++ {
		live.Edit(live.Len(), 0, "int b;\nint c;\nint d;\n")
		if out := live.Do(nil); out.Err != nil {
			t.Fatalf("edit %d: %v", i, out.Err)
		}
	}
	for _, b := range []Budget{{MaxArenaNodes: 400}, {MaxDuration: time.Nanosecond}} {
		if out := NewSession(lang, live.Text(), WithBudget(b)).Do(nil); !errors.Is(out.Err, ErrBudget) {
			t.Fatalf("budget %+v: a cold parse of the grown text gave %v, want a budget trip", b, out.Err)
		}
		twin, err := RestoreSession(bytes.NewReader(snapshotBytes(t, live, 0)), lang, WithBudget(b))
		if err != nil {
			t.Fatalf("budget %+v: restore: %v", b, err)
		}
		compareSessions(t, lang, live, twin, fmt.Sprintf("budget %+v", b))
		if twin.BudgetLimits() != b {
			t.Fatalf("restored budget %+v, want %+v", twin.BudgetLimits(), b)
		}
	}
}

// TestRestoreDivergedKeepsText: an intact snapshot whose committed tree
// no parse of its text reproduces — here a tree recorded over text a cold
// parse rejects, which an incremental parse in an ambiguous region can
// leave — restores with ErrSnapshotDiverged into a session over the same
// text and pending edits whose tree is what a new session's first Do
// commits: tolerant when the snapshot recorded error regions.
func TestRestoreDivergedKeepsText(t *testing.T) {
	lang := CSubset()
	const text = "int a; int (; int c;"
	for _, regions := range [][]isolate.Region{nil, {{Lo: 3, Hi: 5}}} {
		data := sesscodec.Encode(sesscodec.State{
			Lang: lang.def, Text: text, HasTree: true, Regions: regions,
			Pending: []document.AppliedEdit{{Offset: 0, Inserted: "int z; "}},
		})
		twin, err := RestoreSession(bytes.NewReader(data), lang)
		if !errors.Is(err, ErrSnapshotDiverged) || twin == nil {
			t.Fatalf("regions %v: restore: %v, want ErrSnapshotDiverged and a session", regions, err)
		}
		cold := NewSession(lang, text)
		if regions == nil {
			cold.Do(nil)
		} else if out := cold.Do(nil, Tolerant()); !out.Isolated {
			t.Fatalf("the tolerant cold parse did not isolate: %+v", out)
		}
		cold.Edit(0, 0, "int z; ")
		compareSessions(t, lang, cold, twin, fmt.Sprintf("regions %v", regions))
		if w, g := fmt.Sprint(cold.doc.PendingEdits()), fmt.Sprint(twin.doc.PendingEdits()); w != g {
			t.Fatalf("pending edits: %s, want %s", g, w)
		}
	}
}

// TestSnapshotAfterApplyFilter pins the ApplyFilter contract: the filter
// rewrites the committed dag in place, outside the session's parses, so no
// parse of the text rebuilds it. The restore says so (ErrSnapshotDiverged)
// and its twin holds the unfiltered parse; the same filter applied to the
// twin gives the live session's filtered outline.
func TestSnapshotAfterApplyFilter(t *testing.T) {
	lang := AmbiguousExprLanguage()
	filter := Operators{Prec: map[string]int{"+": 1, "-": 1, "*": 2, "/": 2}}.Filter()
	live := NewSession(lang, "a + b * c - d / e + f")
	if out := live.Do(nil); out.Err != nil {
		t.Fatalf("seed parse: %v", out.Err)
	}
	unfiltered := FormatDag(lang, live.Tree())
	filtered, n := ApplyFilter(live.Tree(), filter)
	if n == 0 {
		t.Fatal("the filter discarded no interpretation")
	}
	twin, err := RestoreSession(bytes.NewReader(snapshotBytes(t, live, 0)), lang)
	if !errors.Is(err, ErrSnapshotDiverged) || twin == nil {
		t.Fatalf("restore of a filtered session: %v, want ErrSnapshotDiverged and a session", err)
	}
	if got := FormatDag(lang, twin.Tree()); got != unfiltered {
		t.Fatalf("restored twin is not the unfiltered parse:\n%s\nwant:\n%s", got, unfiltered)
	}
	twinFiltered, m := ApplyFilter(twin.Tree(), filter)
	if w, g := FormatDag(lang, filtered), FormatDag(lang, twinFiltered); w != g || m != n {
		t.Fatalf("the filter on the twin discarded %d (live %d) and gives:\n%s\nlive:\n%s", m, n, g, w)
	}
}
