package incremental

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"iglr/internal/corpus"
	"iglr/internal/sesscodec"
)

// The restored ≡ live oracle. A restore reparses the snapshot's text,
// re-applies the residue of the tree's history — isolated error regions
// and filter marks — and checks the fingerprint that covers its budget
// prunes, so a twin must match the live session in every observation, and
// keep matching it as both take the same edits. The scripts run over
// every pooled language: clean edits, including ones that change a
// sequence's element count; Tolerant break/repair with an error kept
// across a clean edit; Resolve on C and C++ generated at 30 ambiguous
// constructs per thousand lines; a MaxAlternatives budget of 2 on the
// ambiguous expression grammar; and snapshots taken with edits pending.
// Where a live parse commits a tree that is not the cold parse of its
// text (a fault outside the restore, see ROADMAP), the script snapshots
// it once more: that restore must report ErrSnapshotDiverged and hand
// back the cold parse.

// restoreLang is one language of the oracle and its script material.
type restoreLang struct {
	name   string
	lang   *Language
	budget Budget
	source func(rng *rand.Rand) string
	// elems are whole sequence elements, inserted after a separator.
	elems   []string
	resolve bool
}

func restoreLanguages() []restoreLang {
	repeat := func(forms ...string) func(*rand.Rand) string {
		return func(rng *rand.Rand) string {
			var b strings.Builder
			for i := 0; i < 12; i++ {
				fmt.Fprintf(&b, forms[rng.Intn(len(forms))], i)
				b.WriteByte('\n')
			}
			return b.String()
		}
	}
	generated := func(lang string) func(*rand.Rand) string {
		return func(rng *rand.Rand) string {
			src, _ := corpus.Generate(corpus.Spec{Name: "restore", Lines: 80, Lang: lang, AmbiguousPerKLoC: 30, Seed: rng.Int63()})
			return src
		}
	}
	expression := func(ops string) func(*rand.Rand) string {
		return func(rng *rand.Rand) string {
			var b strings.Builder
			for i := 0; i < 16; i++ {
				if i > 0 {
					b.WriteString(string(ops[rng.Intn(len(ops))]))
				}
				fmt.Fprintf(&b, "%c", 'a'+rng.Intn(6))
			}
			return b.String()
		}
	}
	out := []restoreLang{
		{name: "expr", source: expression("+-*/")},
		{name: "expr-ambiguous", source: expression("+-*/"), budget: Budget{MaxAlternatives: 2}},
		{name: "c-subset", source: generated("c"), elems: []string{"int q;", "t(u);", "x = 1;"}, resolve: true},
		{name: "cpp-subset", source: generated("c++"), elems: []string{"int q;", "t(u);", "x = 1;"}, resolve: true},
		{
			name: "java-subset",
			source: func(rng *rand.Rand) string {
				return "class C {\n" + repeat("  int f%d = 1;", "  void m%d() { x = 1; }")(rng) + "}\n"
			},
			elems: []string{"int q = 2;", "void n() { }"},
		},
		{name: "lisp-subset", source: repeat("(ab%d cd)", "(ef (gh%d ij) kl)", "'op%d"), elems: []string{"(qq rr)", "ss"}},
		{
			name: "modula2-subset",
			source: func(rng *rand.Rand) string {
				return "MODULE M;\n" + repeat("VAR va%d : INTEGER;", "CONST ka%d = 1;")(rng) + "BEGIN x := 1 END M.\n"
			},
			elems: []string{"VAR qa : INTEGER;", "CONST qb = 2;"},
		},
		{name: "lr2-figure7", source: func(*rand.Rand) string { return pooledSource("lr2-figure7") }},
		{
			name: "scannerless",
			source: func(rng *rand.Rand) string {
				return strings.ReplaceAll(repeat("ab=%d;", "{cd=%d;}", "if(ab)gh=%d;")(rng), "\n", "")
			},
			elems: []string{"xy=1;", "{z=2;}"},
		},
	}
	for i := range out {
		out[i].lang = pooledLangs()[out[i].name]
	}
	return out
}

// restoreStats counts what the scripts exercised: twins restored, the
// residue kinds their snapshots held and the budget prunes of the trees
// snapshotted, errors kept across a clean edit, and
// scripts cut short by a live fault outside the restore or by a diverged
// restore.
type restoreStats struct {
	twins, regions, marks, prunes, pending, kept, stale, diverged int
}

// restoreEdit draws one edit: an identifier letter replaced, a whole
// element inserted after a separator or deleted up to the next one, or a
// random insertion or deletion (which may break the text).
func restoreEdit(rng *rand.Rand, l restoreLang, text string) (off, rem int, ins string) {
	if len(text) == 0 {
		return 0, 0, "a"
	}
	var seps []int
	for i := 0; i < len(text); i++ {
		if strings.IndexByte(";)}\n", text[i]) >= 0 {
			seps = append(seps, i+1)
		}
	}
	switch rng.Intn(4) {
	case 0:
		for try := 0; try < 20; try++ {
			if i := rng.Intn(len(text)); midIdent(text, i) {
				return i, 1, "q"
			}
		}
	case 1:
		if len(l.elems) > 0 && len(seps) > 0 {
			return seps[rng.Intn(len(seps))], 0, " " + l.elems[rng.Intn(len(l.elems))]
		}
	case 2:
		if len(seps) > 1 {
			i := rng.Intn(len(seps) - 1)
			return seps[i], seps[i+1] - seps[i], ""
		}
	}
	off = rng.Intn(len(text) + 1)
	if off < len(text) && rng.Intn(2) == 0 {
		return off, 1 + rng.Intn(min(3, len(text)-off)), ""
	}
	return off, 0, []string{";", "(", ")", "{", "}", "x", "1", " + ", "@"}[rng.Intn(9)]
}

// midIdent accepts a lower-case letter that follows another one: inside a
// name, never its first character.
func midIdent(text string, i int) bool {
	lower := func(c byte) bool { return c >= 'a' && c <= 'z' }
	return i > 0 && lower(text[i]) && lower(text[i-1])
}

// checkDiverged holds a diverged restore to its contract (see the oracle's
// restore step); res is the decoded snapshot.
func checkDiverged(t *testing.T, l restoreLang, live, twin *Session, res *sesscodec.State, when string) {
	t.Helper()
	cold := NewSession(l.lang, res.Text, WithBudget(l.budget))
	var opts []ParseOption
	if len(res.Regions) > 0 {
		opts = append(opts, Tolerant())
	}
	cold.Do(nil, opts...)
	for _, e := range res.Pending {
		cold.Edit(e.Offset, len(e.Removed), e.Inserted)
	}
	compareSessions(t, l.lang, cold, twin, l.name+": "+when)
	if len(res.Regions) > 0 {
		return
	}
	lr, cr := live.Tree(), cold.Tree()
	if cr == nil {
		return // the cold parse rejects what the live tree accepted
	}
	unmarked := func(n *Node) string { return strings.ReplaceAll(FormatDag(l.lang, n), "  [filtered]", "") }
	pruned := func(n *Node) (keys []sesscodec.ChoiceKey) {
		sites, _ := choiceSites(n)
		for _, c := range sites {
			if c.n.BudgetPruned() {
				keys = append(keys, c.key)
			}
		}
		return keys
	}
	if !cyclic(lr) && unmarked(lr) == unmarked(cr) && slices.Equal(pruned(lr), pruned(cr)) {
		t.Fatalf("%s: %s: the restore diverged, but the live tree is the cold parse of its text", l.name, when)
	}
}

// cyclic reports whether the dag under n reaches one of its own nodes, a
// live fault (see ROADMAP) that FormatDag cannot render.
func cyclic(n *Node) bool {
	state := make(map[*Node]int) // 1 while on the path, 2 once done
	var visit func(n *Node) bool
	visit = func(n *Node) bool {
		switch state[n] {
		case 1:
			return true
		case 2:
			return false
		}
		state[n] = 1
		for _, k := range n.Kids {
			if visit(k) {
				return true
			}
		}
		state[n] = 2
		return false
	}
	return visit(n)
}

// agreesWithCold reports whether the outcome of an incremental parse of
// s is what a cold parse of its text under budget gives: the same error,
// or the same acyclic tree up to filter marks. An isolated outcome, whose
// regions depend on history, is only held to its own text: the tree's
// yield must be the document's terminals, in every reading.
func agreesWithCold(s *Session, out Outcome, budget Budget) bool {
	if out.Root != nil && cyclic(out.Root) {
		return false
	}
	if out.Isolated {
		terms := s.doc.Terminals()
		if !slices.Equal(s.Tree().Terminals(nil), terms) {
			return false
		}
		current := make(map[*Node]bool, len(terms))
		for _, t := range terms {
			current[t] = true
		}
		stale := false
		s.Tree().Walk(func(n *Node) {
			stale = stale || n.IsTerminal() && !current[n]
		})
		return !stale
	}
	cold := NewSession(s.lang, s.Text(), WithBudget(budget))
	got := cold.Do(nil)
	if out.Err != nil || got.Err != nil {
		return out.Err != nil && got.Err != nil && out.Err.Error() == got.Err.Error()
	}
	unmarked := func(n *Node) string { return strings.ReplaceAll(FormatDag(s.lang, n), "  [filtered]", "") }
	return unmarked(out.Root) == unmarked(got.Root)
}

// runRestoreScript runs steps random steps over l, restoring a twin of the
// live session at random points and holding the two to each other.
func runRestoreScript(t *testing.T, l restoreLang, seed int64, steps int, st *restoreStats) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	// Where no sequence bounds the damage (expr, lr2), a tolerant parse
	// quarantines the whole file, and that tree must restore too.
	tolerant := []ParseOption{Tolerant()}
	live := NewSession(l.lang, l.source(rng), WithBudget(l.budget))
	if out := live.Do(nil); out.Err != nil {
		t.Fatalf("%s: base program: %v", l.name, out.Err)
	}
	var twin *Session
	// restore replaces the twin with one restored from a snapshot of the
	// live session. It reports false, and the script stops, when the
	// restore diverged: then the twin must be what the restore promises —
	// the snapshot's text and pending edits over the tree a new session's
	// first Do commits — and, when no error region was recorded, that
	// parse must differ from the live tree (its rendering or its prunes),
	// or the restore refused a tree it should have reproduced.
	restore := func(when string) bool {
		t.Helper()
		var buf bytes.Buffer
		if err := live.Snapshot(&buf); err != nil {
			t.Fatalf("%s: %s: snapshot: %v", l.name, when, err)
		}
		res, err := sesscodec.Decode(buf.Bytes(), l.lang.def)
		if err != nil {
			t.Fatalf("%s: %s: decode: %v", l.name, when, err)
		}
		twin, err = RestoreSession(&buf, l.lang, WithBudget(l.budget))
		if errors.Is(err, ErrSnapshotDiverged) {
			st.diverged++
			checkDiverged(t, l, live, twin, res, when+": "+err.Error())
			return false
		}
		if err != nil {
			committed, _, _ := live.doc.CommittedState()
			t.Fatalf("%s: %s: restore: %v\ncommitted %q", l.name, when, err, committed)
		}
		st.twins++
		st.regions += len(res.Regions)
		for _, c := range res.Choices {
			st.marks += len(c.Filtered)
		}
		if root := live.Tree(); root != nil {
			sites, _ := choiceSites(root)
			for _, c := range sites {
				if c.n.BudgetPruned() {
					st.prunes++
				}
			}
		}
		st.pending += len(res.Pending)
		compareSessions(t, l.lang, live, twin, l.name+": "+when)
		if w, g := fmt.Sprint(live.doc.PendingEdits()), fmt.Sprint(twin.doc.PendingEdits()); w != g {
			t.Fatalf("%s: %s: pending edits diverged:\n  live %s\n  twin %s", l.name, when, w, g)
		}
		return true
	}
	edit := func(off, rem int, ins string) {
		live.Edit(off, rem, ins)
		if twin != nil {
			twin.Edit(off, rem, ins)
		}
	}
	// do parses both sessions and compares them. It reports false, and
	// the script stops, at a fault outside the restore (see CHANGES.md):
	// an incremental parse of either session disagreed with a cold parse
	// of the same text (under an ambiguity budget that includes prunes
	// that depend on which subtrees the session's history let the parser
	// reuse).
	do := func(when string, opts ...ParseOption) (Outcome, bool) {
		t.Helper()
		out := live.Do(nil, opts...)
		if !agreesWithCold(live, out, l.budget) {
			st.stale++
			// The live session committed a tree that is not the cold
			// parse of its text, so the restore must say it diverged.
			if out.Err == nil && !out.Isolated && restore(when+", stale") {
				t.Fatalf("%s: %s: a live tree that is not the cold parse of its text restored as a twin", l.name, when)
			}
			return out, false
		}
		if twin != nil {
			got := twin.Do(nil, opts...)
			if !agreesWithCold(twin, got, l.budget) {
				st.stale++
				return out, false
			}
			compareOutcomes(t, l.lang, out, got, l.name+": "+when)
			compareSessions(t, l.lang, live, twin, l.name+": after "+when)
		}
		return out, true
	}
	for step := 0; step < steps; step++ {
		type undo struct {
			off, rem int
			ins      string
		}
		var done []undo
		for i := rng.Intn(3); i >= 0; i-- {
			text := live.Text()
			off, rem, ins := restoreEdit(rng, l, text)
			done = append(done, undo{off, len(ins), text[off : off+rem]})
			edit(off, rem, ins)
		}
		if rng.Intn(4) == 0 && !restore(fmt.Sprintf("step %d, edits pending", step)) {
			return
		}
		var opts []ParseOption
		if rng.Intn(2) == 0 {
			opts = tolerant
		}
		out, ok := do(fmt.Sprintf("step %d", step), opts...)
		if ok && out.Err != nil && !out.Isolated {
			for i := len(done) - 1; i >= 0; i-- {
				edit(done[i].off, done[i].rem, done[i].ins)
			}
			out, ok = do(fmt.Sprintf("step %d, undone", step), tolerant...)
		}
		if !ok {
			return
		}
		if out.Isolated {
			if !restore(fmt.Sprintf("step %d, isolated", step)) {
				return
			}
			// A clean edit away from every region keeps the errors.
			text, diags := live.Text(), live.Diagnostics()
			for try := 0; try < 20; try++ {
				i := rng.Intn(len(text))
				far := midIdent(text, i)
				for _, d := range diags {
					far = far && (i < d.Offset-20 || i > d.Offset+d.Length+20)
				}
				if far {
					edit(i, 1, "q")
					if out, ok := do(fmt.Sprintf("step %d, error kept", step), tolerant...); !ok {
						return
					} else if out.Isolated {
						st.kept++
					}
					break
				}
			}
		}
		if l.resolve && rng.Intn(2) == 0 {
			live.Resolve()
			if twin != nil {
				twin.Resolve()
				compareSessions(t, l.lang, live, twin, fmt.Sprintf("%s: step %d, resolved", l.name, step))
			}
		}
		if rng.Intn(3) == 0 && !restore(fmt.Sprintf("step %d", step)) {
			return
		}
	}
}

func TestRestoreEqualsLive(t *testing.T) {
	var total restoreStats
	langs := restoreLanguages()
	if len(langs) != len(pooledLangs()) {
		t.Fatalf("the oracle covers %d languages of the %d pooled", len(langs), len(pooledLangs()))
	}
	for _, l := range langs {
		t.Run(l.name, func(t *testing.T) {
			var st restoreStats
			for seed := int64(1); seed <= 5; seed++ {
				runRestoreScript(t, l, seed, 12, &st)
			}
			t.Logf("%+v", st)
			if st.twins == 0 {
				t.Fatal("the scripts restored no twin")
			}
			total.regions += st.regions
			total.marks += st.marks
			total.prunes += st.prunes
			total.pending += st.pending
			total.kept += st.kept
		})
	}
	if total.regions == 0 || total.marks == 0 || total.prunes == 0 || total.pending == 0 || total.kept == 0 {
		t.Fatalf("a residue kind was never snapshotted, or no error was kept across a clean edit: %+v", total)
	}
}

// FuzzRestoreEqualsLive runs the oracle's scripts from fuzzed seeds.
func FuzzRestoreEqualsLive(f *testing.F) {
	for i := 0; i < 4; i++ {
		f.Add(uint8(i), int64(i+1))
	}
	langs := restoreLanguages()
	f.Fuzz(func(t *testing.T, lang uint8, seed int64) {
		runRestoreScript(t, langs[int(lang)%len(langs)], seed, 8, &restoreStats{})
	})
}
