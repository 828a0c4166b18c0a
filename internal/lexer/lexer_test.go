package lexer

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// cRules is a C-like token specification used across the tests.
func cRules() []Rule {
	return []Rule{
		{Name: "WS", Pattern: `[ \t\r\n]+`, Skip: true},
		{Name: "COMMENT", Pattern: `/\*([^*]|\*+[^*/])*\*+/`, Skip: true},
		{Name: "LINECOMMENT", Pattern: `//[^\n]*`, Skip: true},
		{Name: "IF", Pattern: `if`},
		{Name: "ELSE", Pattern: `else`},
		{Name: "INT", Pattern: `int`},
		{Name: "ID", Pattern: `[A-Za-z_][A-Za-z0-9_]*`},
		{Name: "NUM", Pattern: `[0-9]+`},
		{Name: "STR", Pattern: `"([^"\\\n]|\\.)*"`},
		{Name: "EQEQ", Pattern: `==`},
		{Name: "EQ", Pattern: `=`},
		{Name: "SEMI", Pattern: `;`},
		{Name: "LP", Pattern: `\(`},
		{Name: "RP", Pattern: `\)`},
		{Name: "LB", Pattern: `\{`},
		{Name: "RB", Pattern: `\}`},
		{Name: "PLUS", Pattern: `\+`},
		{Name: "STAR", Pattern: `\*`},
		{Name: "COMMA", Pattern: `,`},
	}
}

func names(s *Spec, toks []Token) []string {
	var out []string
	for _, t := range toks {
		if t.Skip {
			continue
		}
		if t.Type == ErrorType {
			out = append(out, "ERROR")
			continue
		}
		out = append(out, s.Rule(int(t.Type)).Name)
	}
	return out
}

func TestScanBasics(t *testing.T) {
	s := MustSpec(cRules())
	toks := s.Scan(`int x = 42; // set x`)
	got := strings.Join(names(s, toks), " ")
	want := "INT ID EQ NUM SEMI"
	if got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestTokensTileText(t *testing.T) {
	s := MustSpec(cRules())
	text := "if (x == 42) { y = x + 1; } /* done */ else z = 0;"
	toks := s.Scan(text)
	pos := 0
	for _, tok := range toks {
		if int(tok.Offset) != pos {
			t.Fatalf("gap at %d: token %q starts at %d", pos, tok.Lexeme(text), tok.Offset)
		}
		pos = tok.End()
	}
	if pos != len(text) {
		t.Fatalf("tokens end at %d, text length %d", pos, len(text))
	}
}

func TestKeywordPriority(t *testing.T) {
	s := MustSpec(cRules())
	toks := s.Scan("if iffy int integer")
	want := []string{"IF", "ID", "INT", "ID"}
	got := names(s, toks)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestErrorTokens(t *testing.T) {
	s := MustSpec(cRules())
	text := "x @ y"
	toks := s.Scan(text)
	var errs int
	for _, tok := range toks {
		if tok.Type == ErrorType {
			errs++
			if tok.Lexeme(text) != "@" {
				t.Fatalf("error token text %q", tok.Lexeme(text))
			}
		}
	}
	if errs != 1 {
		t.Fatalf("error tokens = %d, want 1", errs)
	}
}

func TestLookaheadRecorded(t *testing.T) {
	s := MustSpec(cRules())
	// "==" requires looking at the char after a single "=" to decide;
	// after scanning "=" the DFA keeps going and dies at 'x'.
	toks := s.Scan("= x")
	if toks[0].Lexeme("= x") != "=" {
		t.Fatalf("first token %q", toks[0].Lexeme("= x"))
	}
	if toks[0].Lookahead < 1 {
		t.Fatalf("'=' should record lookahead >= 1, got %d", toks[0].Lookahead)
	}
	// A token at end of input examines nothing beyond itself.
	toks = s.Scan("abc")
	if toks[0].Lookahead != 0 {
		t.Fatalf("EOF token lookahead = %d, want 0", toks[0].Lookahead)
	}
}

// flat is a token slice read as the Tokens view Damage takes.
type flat []Token

func (f flat) Len() int       { return len(f) }
func (f flat) At(i int) Token { return f[i] }

func applyEdit(text string, e Edit) string {
	return text[:e.Offset] + e.Inserted + text[e.Offset+e.Removed:]
}

// splice applies a Damage result to old the way a document does:
// old[first:resume] becomes fresh and the tail moves by delta.
func splice(old []Token, first, resume int, fresh []Token, delta int) []Token {
	out := append(append([]Token(nil), old[:first]...), fresh...)
	for _, t := range old[resume:] {
		t.Offset += uint32(delta)
		out = append(out, t)
	}
	return out
}

func maxLookahead(toks []Token) int {
	m := 0
	for _, t := range toks {
		m = max(m, int(t.Lookahead))
	}
	return m
}

// checkIncremental relexes text for e, splices the damage into the old
// stream and compares the result with a batch scan of the new text, field
// for field. It runs twice: with the stream's own lookahead bound, and
// with a bound past the text length (the linear-scan degenerate case),
// which must give the same damage. The new text is handed over as a view
// of a byte array that is overwritten afterwards, as a gap buffer's next
// edit would, so a span that aliases it shows up as a mismatch.
func checkIncremental(t *testing.T, s *Spec, text string, e Edit) (relexed int) {
	t.Helper()
	old := s.Scan(text)
	before := append([]Token(nil), old...)
	newText := applyEdit(text, e)
	want := s.Scan(newText)
	var firstSeen, resumeSeen int
	for run, bound := range []int{maxLookahead(old), len(text) + 1} {
		b := []byte(newText)
		view := string(b)
		if len(b) > 0 {
			view = unsafe.String(&b[0], len(b))
		}
		first, resume, fresh, span := s.Damage(flat(old), view, e, bound, nil)
		clear(b)
		if !reflect.DeepEqual(old, before) {
			t.Fatalf("edit %+v on %q: Damage modified the old stream", e, text)
		}
		if len(fresh) > 0 && span != newText[fresh[0].Offset:fresh[len(fresh)-1].End()] {
			t.Fatalf("edit %+v on %q: span %q is not the rescanned text", e, text, span)
		}
		got := splice(old, first, resume, fresh, e.Delta())
		if len(got) != len(want) {
			t.Fatalf("edit %+v on %q (bound %d):\n got %d tokens\nwant %d tokens", e, text, bound, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("edit %+v on %q (bound %d): token %d differs:\n got %+v\nwant %+v", e, text, bound, i, got[i], want[i])
			}
		}
		if run == 0 {
			firstSeen, resumeSeen, relexed = first, resume, len(fresh)
		} else if first != firstSeen || resume != resumeSeen || len(fresh) != relexed {
			t.Fatalf("edit %+v on %q: bound %d gives damage [%d,%d)+%d, the stream's bound [%d,%d)+%d",
				e, text, bound, first, resume, len(fresh), firstSeen, resumeSeen, relexed)
		}
	}
	return relexed
}

func TestRelexSimpleEdits(t *testing.T) {
	s := MustSpec(cRules())
	text := "int foo = bar + 42; if (foo == 7) { bar = 0; }"
	cases := []Edit{
		{Offset: 4, Removed: 3, Inserted: "quux"},  // rename identifier
		{Offset: 0, Removed: 3, Inserted: "float"}, // replace keyword (float is an ID here)
		{Offset: 16, Removed: 2, Inserted: "137"},  // replace number
		{Offset: 18, Removed: 0, Inserted: "9"},    // extend number
		{Offset: len(text), Removed: 0, Inserted: " x = 1;"},
		{Offset: 0, Removed: 0, Inserted: "int q; "},
		{Offset: 10, Removed: 0, Inserted: ""}, // no-op
		{Offset: 5, Removed: 0, Inserted: " "}, // split identifier
		{Offset: 22, Removed: 1, Inserted: ""}, // delete char
		{Offset: 0, Removed: len(text), Inserted: "x"},
	}
	for _, e := range cases {
		checkIncremental(t, s, text, e)
	}
}

func TestRelexTouchesFewTokens(t *testing.T) {
	s := MustSpec(cRules())
	// A large program: editing one token should relex O(1) tokens.
	var sb strings.Builder
	for i := 0; i < 2000; i++ {
		sb.WriteString("int v = 1 + 2; ")
	}
	text := sb.String()
	relexed := checkIncremental(t, s, text, Edit{Offset: len(text) / 2, Removed: 1, Inserted: "x"})
	if relexed > 8 {
		t.Fatalf("relexed %d tokens for a single-character edit, want <= 8", relexed)
	}
}

func TestRelexCommentGrowth(t *testing.T) {
	s := MustSpec(cRules())
	// Deleting the '*' of a comment opener swallows following text; the
	// incremental result must match the batch rescan.
	text := "a /* c */ b = 2;"
	checkIncremental(t, s, text, Edit{Offset: 3, Removed: 1, Inserted: ""})
	// Closing an unterminated comment.
	text2 := "a /* c  b = 2;"
	checkIncremental(t, s, text2, Edit{Offset: 8, Removed: 0, Inserted: "*/"})
	// Closing it by an append at EOF: the opener's window ends exactly
	// at the edit, open-ended, at the lookahead bound.
	checkIncremental(t, s, "x /*", Edit{Offset: 4, Inserted: "*/"})
}

func TestRelexRandomized(t *testing.T) {
	s := MustSpec(cRules())
	rng := rand.New(rand.NewSource(42))
	alphabet := "abx01 =+;(){}/*\"\\\n\t"
	text := "int a = 1; if (a == 1) { a = a + 2; } /* c */ \"str\" x;"
	for iter := 0; iter < 500; iter++ {
		// Random edit.
		off := rng.Intn(len(text) + 1)
		maxRem := len(text) - off
		rem := 0
		if maxRem > 0 {
			rem = rng.Intn(min(maxRem, 6))
		}
		var ins strings.Builder
		for n := rng.Intn(6); n > 0; n-- {
			ins.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		e := Edit{Offset: off, Removed: rem, Inserted: ins.String()}
		checkIncremental(t, s, text, e)
		text = applyEdit(text, e)
		if len(text) > 4000 {
			text = text[:2000]
		}
		if len(text) == 0 {
			text = "int a = 1;"
		}
	}
}

func TestSpecErrors(t *testing.T) {
	if _, err := NewSpec(nil); err == nil {
		t.Fatal("empty spec should fail")
	}
	if _, err := NewSpec([]Rule{{Name: "BAD", Pattern: "("}}); err == nil {
		t.Fatal("bad pattern should fail")
	}
	if _, err := NewSpec([]Rule{{Name: "EMPTY", Pattern: "a*"}}); err == nil {
		t.Fatal("empty-string-matching rule should fail")
	}
}

func TestRuleIndex(t *testing.T) {
	s := MustSpec(cRules())
	if i := s.RuleIndex("ID"); i < 0 || s.Rule(i).Name != "ID" {
		t.Fatalf("RuleIndex(ID) = %d", i)
	}
	if s.RuleIndex("NOPE") != -1 {
		t.Fatal("RuleIndex(NOPE) should be -1")
	}
}
