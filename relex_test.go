package incremental

import (
	"context"
	"math/rand"
	"testing"

	"iglr/internal/corpus"
	"iglr/internal/dag"
	"iglr/internal/grammar"
	"iglr/internal/lexer"
)

// The document-level relex ≡ batch-scan oracle. An edit relexes only the
// damaged tokens and splices them, with their terminals, into the runs the
// damage touches; after any sequence of edits and commits the result must
// be exactly what a batch scan of the current text gives, and the runs
// must keep their invariants. The oracle lives in the root package because
// internal/document's tests cannot import the bundled languages.

// relexFragments are the insertions edit scripts draw from: comment
// openers and closers, quotes and other bytes no csub rule matches (error
// tokens), and ordinary tokens and whitespace.
var relexFragments = []string{
	"/*", "*/", "//", `"`, "'", "@", "$", "\n", " ", "v1", "x", "42",
	";", "int ", "(", ")", "{", "}", "= ", "*", "/",
}

// checkRelexOracle checks the document's run invariants and compares the
// document with a batch scan of its text: the token stream field for
// field, the lexical error count, and the significant terminals, which
// must be the non-skip tokens' nodes in order. NodeSpan, a scan of the
// whole stream per call, is checked on a sample of the terminals.
func checkRelexOracle(t *testing.T, s *Session, step string) {
	t.Helper()
	d := s.doc
	if err := d.CheckRuns(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	toks := d.Tokens()
	want := s.lang.def.Spec.Scan(d.Text())
	if len(toks) != len(want) {
		t.Fatalf("%s: %d tokens, batch scan has %d", step, len(toks), len(want))
	}
	errs := 0
	for i := range want {
		if toks[i] != want[i] {
			t.Fatalf("%s: token %d = %+v, batch scan %+v", step, i, toks[i], want[i])
		}
		if want[i].Type == lexer.ErrorType {
			errs++
		}
	}
	if d.LexErrorCount != errs {
		t.Fatalf("%s: LexErrorCount %d, recount %d", step, d.LexErrorCount, errs)
	}

	terms := d.Terminals()
	seen := make(map[*dag.Node]bool, len(terms))
	stride := max(1, len(terms)/8)
	k := 0
	for _, tok := range toks {
		if tok.Skip {
			continue
		}
		if k >= len(terms) {
			t.Fatalf("%s: %d terminals, fewer than the significant tokens", step, len(terms))
		}
		n := terms[k]
		sym := grammar.ErrorSym
		if tok.Type != lexer.ErrorType {
			sym = s.lang.def.Map(tok.Type, tok.Text)
		}
		if !n.IsTerminal() || n.Text != tok.Text || n.Sym != sym || seen[n] {
			t.Fatalf("%s: terminal %d is %v %q (sym %d, repeated %v), token %+v (sym %d)",
				step, k, n.Kind, n.Text, n.Sym, seen[n], tok, sym)
		}
		seen[n] = true
		// The node is the token's own: NodeSpan locates a terminal by
		// identity in the document's runs.
		if k%stride != 0 && k != len(terms)-1 {
			k++
			continue
		}
		if off, length, ok := d.NodeSpan(n); !ok || off != tok.Offset || length != len(tok.Text) {
			t.Fatalf("%s: terminal %d %q spans [%d,+%d) ok=%v, its token [%d,+%d)",
				step, k, n.Text, off, length, ok, tok.Offset, len(tok.Text))
		}
		k++
	}
	if k != len(terms) {
		t.Fatalf("%s: %d terminals, %d significant tokens", step, len(terms), k)
	}
}

// runRelexScript interprets script as edits to s, four bytes per step,
// checking the oracle after each: an opcode, two offset bytes and an
// argument. Steps insert fragments anywhere or at EOF, delete runs that
// cross token boundaries, replace, and commit with Do(Tolerant()), which
// may itself revert edits.
func runRelexScript(t *testing.T, s *Session, script []byte) {
	t.Helper()
	for len(script) >= 4 {
		op, arg := script[0], int(script[3])
		n := s.Len()
		off := (int(script[1])<<8 | int(script[2])) % (n + 1)
		script = script[4:]
		frag := relexFragments[arg%len(relexFragments)]
		var desc string
		switch op % 6 {
		case 0, 1:
			s.Edit(off, 0, frag)
			desc = "insert"
		case 2:
			rem := min(arg%24+1, n-off)
			s.Edit(off, rem, "")
			desc = "delete"
		case 3:
			rem := min(arg%4, n-off)
			s.Edit(off, rem, frag)
			desc = "replace"
		case 4:
			s.Edit(n, 0, frag)
			desc = "append"
		case 5:
			s.Do(context.Background(), Tolerant())
			desc = "commit"
		}
		checkRelexOracle(t, s, desc)
	}
}

// relexSource is a generated C file of the given length.
func relexSource(seed int64, lines int) string {
	src, _ := corpus.Generate(corpus.Spec{Name: "relex", Lines: lines, Lang: "c", AmbiguousPerKLoC: 25, Seed: seed})
	return src
}

// relexLongLines is long enough for a source spanning more than ten runs
// of the document's token stream.
const relexLongLines = 800

// TestRelexMatchesBatchScan runs random edit scripts over generated C
// files, starting both before and after the first commit: 40-line files
// that fit in one run, and a longer one that spans many, through the edits
// that reshape runs — edits at run boundaries and at both ends of the
// text, a paste longer than a run, a deletion across several runs, and a
// comment opened near the start that swallows most runs and is closed
// again.
func TestRelexMatchesBatchScan(t *testing.T) {
	lang := CSubset()
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 4*500)
		rng.Read(script)
		s := NewSession(lang, relexSource(seed, 40))
		checkRelexOracle(t, s, "scan")
		if seed%2 == 0 {
			if out := s.Do(context.Background()); out.Err != nil {
				t.Fatalf("seed %d: initial parse: %v", seed, out.Err)
			}
		}
		runRelexScript(t, s, script)
	}

	src := relexSource(1, relexLongLines)
	for _, parsed := range []bool{false, true} {
		s := NewSession(lang, src)
		checkRelexOracle(t, s, "scan")
		starts := s.doc.RunStarts(nil)
		if len(starts) < 10 {
			t.Fatalf("%d-line source spans %d runs, want at least 10", relexLongLines, len(starts))
		}
		if parsed {
			if out := s.Do(context.Background()); out.Err != nil {
				t.Fatalf("initial parse: %v", out.Err)
			}
		}
		step := func(desc string, off, rem int, ins string) {
			t.Helper()
			s.Edit(off, rem, ins)
			checkRelexOracle(t, s, desc)
			if parsed {
				// A plain Do commits what parses and leaves a syntax
				// error's edits pending, marked on the committed tree.
				s.Do(context.Background())
				checkRelexOracle(t, s, desc+", parsed")
			}
		}
		for _, b := range starts[1:4] {
			step("insert at a run boundary", b, 0, "(")
			step("delete across a run boundary", b-2, 4, "")
			step("replace at a run boundary", b, 1, "v1 ")
		}
		step("insert at offset 0", 0, 0, "int z; ")
		step("delete at offset 0", 0, 3, "")
		step("append at EOF", s.Len(), 0, "\nint q;")
		step("delete at EOF", s.Len()-3, 3, "")
		step("paste a block longer than a run", s.Len()/2, 0, src[:len(src)/2])
		step("delete across several runs", s.Len()/5, s.Len()/2, "")
		closer := 2 * s.Len() / 3
		step("comment closer far down", closer, 0, "*/")
		step("open a comment near the start", 10, 0, "/*")
		step("close it again", 10, 2, "")
		step("remove the closer", closer, 2, "")

		rng := rand.New(rand.NewSource(9))
		script := make([]byte, 4*40)
		rng.Read(script)
		runRelexScript(t, s, script)
	}
}

// FuzzRelexMatchesScan is the oracle as a fuzz target over the edit
// script, on the source that spans many runs.
func FuzzRelexMatchesScan(f *testing.F) {
	f.Add([]byte{0, 0, 10, 0, 5, 0, 0, 0, 2, 0, 3, 30})
	f.Add([]byte{0, 0, 20, 0, 5, 0, 0, 0, 4, 0, 0, 1, 5, 0, 0, 0})
	f.Add([]byte{3, 1, 0, 3, 1, 0, 40, 16, 5, 0, 0, 0, 2, 0, 0, 200})
	// "(" inserted into the first run, which the scan left full: it splits.
	f.Add([]byte{0, 1, 0, 14, 2, 1, 0, 1})
	lang := CSubset()
	src := relexSource(1, relexLongLines)
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4*200 {
			t.Skip()
		}
		runRelexScript(t, NewSession(lang, src), script)
	})
}
