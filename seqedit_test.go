package incremental_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	incremental "iglr"
	"iglr/internal/dag"
)

// The sequence-edit oracle: random edit scripts over every bundled language
// with X* / X+ sequences, aimed at the places where balanced sequences can
// go wrong — inside one element, at element boundaries (typing or deleting
// ';', '{' and '}'), splitting and merging elements, nested blocks,
// typedef-ambiguous elements, the first and the last element, and several
// edits batched before one Do. After every clean Do the committed tree must
// equal a fresh session's cold parse of the same text, byte for byte. In the
// deterministic mode a twin document driven by the §5 reference parser
// (detparse) takes the same edits, and its committed tree must equal the
// session's too.

// seqLang is one language and the material its scripts are made of.
type seqLang struct {
	name string
	lang *incremental.Language
	// program returns a base text of n elements in the outermost sequence.
	program func(rng *rand.Rand, n int) string
	// snips are inserted text: whole elements, separators, names.
	snips []string
	// letter reports whether an identifier character at this byte may be
	// replaced by 'q' and still spell an identifier.
	letter func(text string, i int) bool
}

func pick(rng *rand.Rand, xs []string) string { return xs[rng.Intn(len(xs))] }

// midIdent accepts a lower-case letter that follows another one: inside a
// name, never its first character.
func midIdent(text string, i int) bool {
	lower := func(c byte) bool { return c >= 'a' && c <= 'z' }
	return i > 0 && lower(text[i]) && lower(text[i-1])
}

func seqLanguages() []seqLang {
	cItems := []string{"int a%d = %d;", "a%d = b + %d;", "t(x%d); a = %d;", "{ int c%d; c = %d; }", "return a%d + %d;", "{ t(y%d); { z = %d; } }"}
	cppItems := []string{"int a%d = %d;", "a%d = b + %d;", "t(x%d); a = %d;", "if (a%d) { b = %d; }", "while (c%d) d = %d;", "{ int e%d; e = %d; }"}
	items := func(forms []string) func(*rand.Rand, int) string {
		return func(rng *rand.Rand, n int) string {
			var b strings.Builder
			b.WriteString("typedef int t;\n")
			for i := 0; i < n; i++ {
				fmt.Fprintf(&b, pick(rng, forms)+"\n", i, rng.Intn(100))
			}
			return b.String()
		}
	}
	return []seqLang{
		{
			name: "c", lang: incremental.CSubset(), program: items(cItems),
			snips:  []string{";", "{", "}", "; ", "int q;", "t(u);", "{ w = 2; }", "x", "7", " "},
			letter: midIdent,
		},
		{
			name: "c++", lang: incremental.CPPSubset(), program: items(cppItems),
			snips:  []string{";", "{", "}", "; ", "int q;", "t(u);", "if (x) y = 1;", "x", "7", " "},
			letter: midIdent,
		},
		{
			name: "java", lang: incremental.JavaSubset(),
			program: func(rng *rand.Rand, n int) string {
				var b strings.Builder
				for c := 0; c < 2; c++ {
					fmt.Fprintf(&b, "class C%d {\n", c)
					for i := 0; i < n; i++ {
						if rng.Intn(2) == 0 {
							fmt.Fprintf(&b, "  int f%d = %d;\n", i, rng.Intn(100))
						} else {
							fmt.Fprintf(&b, "  void m%d() { x = %d; y = x + 1; { z = 2; } }\n", i, rng.Intn(100))
						}
					}
					b.WriteString("}\n")
				}
				return b.String()
			},
			snips:  []string{";", "{", "}", "int q; ", "x = 1; ", "void n() { } ", "z", "3", " "},
			letter: midIdent,
		},
		{
			name: "lisp", lang: incremental.LispSubset(),
			program: func(rng *rand.Rand, n int) string {
				forms := []string{"(ab%d cd)", "(ef (gh%d ij) kl)", "mn%d", "'op%d", "(qr %d)"}
				var b strings.Builder
				for i := 0; i < n; i++ {
					fmt.Fprintf(&b, pick(rng, forms)+"\n", i)
				}
				return b.String()
			},
			snips:  []string{"(", ")", "xy", " ", "(yz zz)", "'qq", "9"},
			letter: midIdent,
		},
		{
			name: "modula-2", lang: incremental.Modula2Subset(),
			program: func(rng *rand.Rand, n int) string {
				var b strings.Builder
				b.WriteString("MODULE Demo;\n")
				for i := 0; i < n; i++ {
					switch rng.Intn(3) {
					case 0:
						fmt.Fprintf(&b, "VAR va%d, vb%d : INTEGER; vc%d : BOOLEAN;\n", i, i, i)
					case 1:
						fmt.Fprintf(&b, "CONST ka%d = %d; kb%d = %d;\n", i, rng.Intn(100), i, rng.Intn(100))
					default:
						fmt.Fprintf(&b, "PROCEDURE Pa%d(x : INTEGER); BEGIN IF x > 1 THEN x := 1 ELSIF x = 0 THEN x := 2 END END Pa%d;\n", i, i)
					}
				}
				b.WriteString("BEGIN sum := 0 END Demo.\n")
				return b.String()
			},
			snips:  []string{";", "VAR qa : INTEGER; ", "CONST qb = 1; ", "x", "7", " ", "ELSIF x THEN x := 3 "},
			letter: midIdent,
		},
		{
			name: "scannerless", lang: incremental.ScannerlessLanguage(),
			program: func(rng *rand.Rand, n int) string {
				forms := []string{"ab=%d;", "cd=ab+%d;", "{ef=%d;}", "if(ab)gh=%d;", "iff=%d;"}
				var b strings.Builder
				for i := 0; i < n; i++ {
					b.WriteString(strings.ReplaceAll(fmt.Sprintf(pick(rng, forms), rng.Intn(100)), " ", ""))
				}
				return b.String()
			},
			snips: []string{";", "{", "}", "a", "1", "=", "if(a)", "xy=1;"},
			letter: func(text string, i int) bool {
				return text[i] >= 'a' && text[i] <= 'z' && text[i] != 'i' && text[i] != 'f'
			},
		},
	}
}

// Modes a script runs its Do calls under: plain Do, Do(Tolerant()), and
// plain Do with a detparse twin.
const (
	modePlain = iota
	modeTolerant
	modeDeterministic
	numModes
)

type seqEdit struct {
	off, rem int
	ins      string
}

// nextEdit draws one edit of the script. single reports an edit inside one
// element that keeps every token's kind (an identifier letter replaced).
func nextEdit(rng *rand.Rand, l seqLang, text string) (e seqEdit, single bool) {
	switch kind := rng.Intn(6); kind {
	case 0: // inside an element
		for try := 0; try < 20; try++ {
			if i := rng.Intn(len(text)); l.letter(text, i) && text[i] != 'q' {
				return seqEdit{off: i, rem: 1, ins: "q"}, true
			}
		}
	case 1: // ';', '{' or '}' typed or deleted at an element boundary
		var bounds []int
		for i := 0; i < len(text); i++ {
			if strings.IndexByte(";}\n)", text[i]) >= 0 {
				bounds = append(bounds, i+1)
			}
		}
		if len(bounds) > 0 {
			at := bounds[rng.Intn(len(bounds))]
			if at < len(text) && strings.IndexByte(";{}", text[at]) >= 0 && rng.Intn(2) == 0 {
				return seqEdit{off: at, rem: 1}, false
			}
			return seqEdit{off: at, ins: pick(rng, []string{";", "{", "}"})}, false
		}
	case 2: // split an element, or merge two by deleting a separator
		if rng.Intn(2) == 0 {
			return seqEdit{off: rng.Intn(len(text) + 1), ins: "; "}, false
		}
		from := rng.Intn(len(text))
		if i := strings.IndexByte(text[from:], ';'); i >= 0 {
			return seqEdit{off: from + i, rem: 1}, false
		}
	case 3: // the first element
		if rng.Intn(2) == 0 {
			return seqEdit{ins: pick(rng, l.snips)}, false
		}
		return seqEdit{rem: min(len(text), 1+rng.Intn(4))}, false
	case 4: // the last element
		end := strings.TrimRight(text, "\n")
		if rng.Intn(2) == 0 {
			return seqEdit{off: len(end), ins: pick(rng, l.snips)}, false
		}
		n := min(len(end), 1+rng.Intn(4))
		return seqEdit{off: len(end) - n, rem: n}, false
	}
	off := rng.Intn(len(text) + 1)
	rem := 0
	if off < len(text) && rng.Intn(2) == 0 {
		rem = rng.Intn(min(len(text)-off, 6))
	}
	return seqEdit{off: off, rem: rem, ins: pick(rng, l.snips)}, false
}

// inLongSequence reports whether byte off lies inside a committed sequence
// that holds more than two leaves' worth of elements and records a clean
// continuation state: an edit there leaves a clean piece on one side at
// least.
func inLongSequence(s *incremental.Session, off int) bool {
	in := false
	s.Tree().Walk(func(n *incremental.Node) {
		if in || n.Kind != dag.KindSeq || n.SeqCount <= 16 || n.State < 0 {
			return
		}
		start, size, ok := s.NodeSpan(n)
		in = ok && start <= off && off < start+size
	})
	return in
}

// runSequenceScript runs steps random steps of edits over l's base program
// under one mode, checking the oracle after every clean Do.
func runSequenceScript(t *testing.T, l seqLang, mode int, seed int64, steps int) (clean, pieces int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	var opts []incremental.ParseOption
	switch mode {
	case modeTolerant:
		opts = []incremental.ParseOption{incremental.Tolerant()}
	case modeDeterministic:
		if !l.lang.Deterministic() {
			return 0, 0
		}
	}
	base := l.program(rng, 24)
	s := incremental.NewSession(l.lang, base)
	if out := s.Do(ctx, opts...); out.Err != nil || !out.Clean {
		t.Fatalf("%s: base program does not parse: %v", l.name, out.Err)
	}
	// twin is the detparse document of the deterministic mode; twinDo parses
	// it after the session's Do and checks that both agree on success.
	var twin *incremental.DetTwin
	var twinRoot *incremental.Node
	twinShifts, twinPieces := 0, 0
	twinDo := func(sessionErr error, step int) {
		if twin == nil {
			return
		}
		root, st, err := twin.Do()
		if (err == nil) != (sessionErr == nil) {
			t.Fatalf("%s step %d: detparse err %v, session err %v\n%s", l.name, step, err, sessionErr, s.Text())
		}
		twinRoot, twinShifts, twinPieces = root, st.Shifts, st.SeqPieces
	}
	if mode == modeDeterministic {
		var err error
		if twin, err = incremental.NewDetTwin(l.lang, base); err != nil {
			t.Fatal(err)
		}
		twinDo(nil, -1)
	}
	for step := 0; step < steps; step++ {
		batch := 1
		if rng.Intn(4) == 0 {
			batch = 2 + rng.Intn(2)
		}
		var done []seqEdit
		single := batch == 1
		for i := 0; i < batch; i++ {
			text := s.Text()
			if len(text) == 0 {
				break
			}
			e, inElem := nextEdit(rng, l, text)
			single = single && inElem && inLongSequence(s, e.off)
			removed := text[e.off : e.off+e.rem]
			s.Edit(e.off, e.rem, e.ins)
			if twin != nil {
				twin.Edit(e.off, e.rem, e.ins)
			}
			done = append(done, seqEdit{off: e.off, rem: len(e.ins), ins: removed})
		}
		out := s.Do(ctx, opts...)
		twinDo(out.Err, step)
		undo := func(why string) {
			for i := len(done) - 1; i >= 0; i-- {
				s.Edit(done[i].off, done[i].rem, done[i].ins)
				if twin != nil {
					twin.Edit(done[i].off, done[i].rem, done[i].ins)
				}
			}
			if out = s.Do(ctx, opts...); out.Err != nil || !out.Clean {
				t.Fatalf("%s mode %d step %d: %s: the undone edits do not reparse cleanly: %v\n%s", l.name, mode, step, why, out.Err, s.Text())
			}
			twinDo(out.Err, step)
			single = false
		}
		switch {
		case out.Err != nil && mode != modeTolerant:
			// Plain sessions and the twin keep the pending edits on a
			// syntax error.
			undo("syntax error")
		case out.Isolated:
			// The break stays in the text under error nodes; repairing it
			// must converge to the cold parse.
			undo("isolated break")
		}
		clean++
		// A single-element edit inside a long clean sequence that reached
		// the parser (the tree was not reused whole, as after an edit in a
		// comment) must take some piece of it whole: the session's IGLR
		// parser in plain mode, the twin's detparse in deterministic mode.
		shifts, consumed := out.Stats.Shifts, out.Stats.SeqPieces
		if twin != nil {
			shifts, consumed = twinShifts, twinPieces
		}
		if mode != modeTolerant && single && shifts > 1 {
			if consumed == 0 {
				t.Fatalf("%s mode %d step %d: a clean single-element edit consumed no sequence piece (%d shifts)", l.name, mode, step, shifts)
			}
			pieces += consumed
		}
		if twin != nil {
			if got, want := incremental.FormatDag(l.lang, twinRoot), incremental.FormatDag(l.lang, s.Tree()); got != want {
				t.Fatalf("%s step %d: detparse twin's committed tree differs from the session's for\n%s\n-- detparse --\n%s\n-- session --\n%s",
					l.name, step, s.Text(), got, want)
			}
		}
		fresh := incremental.NewSession(l.lang, s.Text())
		if cold := fresh.Do(ctx, opts...); cold.Err != nil || !cold.Clean {
			t.Fatalf("%s mode %d step %d: incremental parse is clean, cold parse is not: %v\n%s", l.name, mode, step, cold.Err, s.Text())
		}
		if got, want := incremental.FormatDag(l.lang, s.Tree()), incremental.FormatDag(l.lang, fresh.Tree()); got != want {
			t.Fatalf("%s mode %d step %d: committed tree differs from a cold parse of\n%s\n-- incremental --\n%s\n-- cold --\n%s",
				l.name, mode, step, s.Text(), got, want)
		}
	}
	return clean, pieces
}

func TestSequenceEditsEqualBatch(t *testing.T) {
	for _, l := range seqLanguages() {
		for mode := 0; mode < numModes; mode++ {
			t.Run(fmt.Sprintf("%s/%d", l.name, mode), func(t *testing.T) {
				clean, pieces := 0, 0
				for seed := int64(1); seed <= 3; seed++ {
					c, p := runSequenceScript(t, l, mode, seed, 40)
					clean, pieces = clean+c, pieces+p
				}
				if mode != modeDeterministic || l.lang.Deterministic() {
					if clean < 40 {
						t.Fatalf("only %d clean reparses: the scripts break the text too often", clean)
					}
				}
				t.Logf("%d clean reparses, %d pieces consumed by single-element edits", clean, pieces)
			})
		}
	}
}

// FuzzSequenceEditsEqualBatch runs the oracle's scripts from fuzzed seeds.
func FuzzSequenceEditsEqualBatch(f *testing.F) {
	f.Add(uint8(0), uint8(0), int64(1))
	f.Add(uint8(1), uint8(1), int64(2))
	f.Add(uint8(2), uint8(2), int64(3))
	f.Add(uint8(3), uint8(0), int64(4))
	f.Add(uint8(4), uint8(2), int64(5))
	f.Add(uint8(5), uint8(1), int64(6))
	langs := seqLanguages()
	f.Fuzz(func(t *testing.T, lang, mode uint8, seed int64) {
		runSequenceScript(t, langs[int(lang)%len(langs)], int(mode)%numModes, seed, 20)
	})
}
