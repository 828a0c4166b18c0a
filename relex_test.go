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
// damaged run of the token stream and splices it, with the matching node
// and terminal runs, into the document's arrays in place; after any
// sequence of edits and commits the result must be exactly what a batch
// scan of the current text gives. The oracle lives in the root package
// because internal/document's tests cannot import the bundled languages.

// relexFragments are the insertions edit scripts draw from: comment
// openers and closers, quotes and other bytes no csub rule matches (error
// tokens), and ordinary tokens and whitespace.
var relexFragments = []string{
	"/*", "*/", "//", `"`, "'", "@", "$", "\n", " ", "v1", "x", "42",
	";", "int ", "(", ")", "{", "}", "= ", "*", "/",
}

// checkRelexOracle compares the session's document with a batch scan of
// its text: the token stream field for field, the lexical error count,
// and the significant terminals, which must be the non-skip tokens' nodes
// in order.
func checkRelexOracle(t *testing.T, s *Session, step string) {
	t.Helper()
	d := s.doc
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
		// identity in the document's node array.
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

// relexSource is a generated C file, small enough that the oracle's
// per-terminal NodeSpan check stays cheap.
func relexSource(seed int64) string {
	src, _ := corpus.Generate(corpus.Spec{Name: "relex", Lines: 40, Lang: "c", AmbiguousPerKLoC: 25, Seed: seed})
	return src
}

// TestRelexMatchesBatchScan runs random edit scripts over generated C
// files, starting both before and after the first commit.
func TestRelexMatchesBatchScan(t *testing.T) {
	lang := CSubset()
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 4*500)
		rng.Read(script)
		s := NewSession(lang, relexSource(seed))
		checkRelexOracle(t, s, "scan")
		if seed%2 == 0 {
			if out := s.Do(context.Background()); out.Err != nil {
				t.Fatalf("seed %d: initial parse: %v", seed, out.Err)
			}
		}
		runRelexScript(t, s, script)
	}
}

// FuzzRelexMatchesScan is the oracle as a fuzz target over the edit
// script.
func FuzzRelexMatchesScan(f *testing.F) {
	f.Add([]byte{0, 0, 10, 0, 5, 0, 0, 0, 2, 0, 3, 30})
	f.Add([]byte{0, 0, 20, 0, 5, 0, 0, 0, 4, 0, 0, 1, 5, 0, 0, 0})
	f.Add([]byte{3, 1, 0, 3, 1, 0, 40, 16, 5, 0, 0, 0, 2, 0, 0, 200})
	lang := CSubset()
	src := relexSource(1)
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4*200 {
			t.Skip()
		}
		runRelexScript(t, NewSession(lang, src), script)
	})
}
