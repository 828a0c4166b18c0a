package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	incremental "iglr"
	"iglr/internal/dag"
)

// §3.4: incremental behavior requires logarithmic node access. Repetitive
// structure expressed left-recursively makes parse trees linked lists, so
// incremental algorithms over them degenerate to linear time. Storing
// associative sequences as balanced binary trees restores O(t + s·lg N).
//
// The experiment measures both representations on the live editing path —
// Session.Edit + Session.Do — over a flat program of N statements, with
// each edit inside a single statement:
//
//   - list: the statements are a hand-written left recursion
//     (Prog : Prog Stmt | Stmt), which the dag stores as written; every
//     reparse re-shifts the statements after the edit and re-runs their
//     list reductions — Θ(N).
//   - balanced: the statements are a generated sequence (Prog : Stmt*),
//     committed as a balanced tree; the parser consumes each clean piece
//     around the edit in one step and the commit rebuilds only the spine
//     above the edit — O(lg N).

// stmtGrammar is the statement syntax shared by both programs.
const stmtGrammar = `
Stmt : ID '=' Expr ';' ;
Expr : Expr '+' Term | Term ;
Term : ID | NUM | '(' Expr ')' ;
`

var stmtLexer = []incremental.LexRule{
	{Name: "WS", Pattern: `[ \t\n\r]+`, Skip: true},
	{Name: "ID", Pattern: `[a-zA-Z_][a-zA-Z0-9_]*`},
	{Name: "NUM", Pattern: `[0-9]+`},
	{Name: "EQ", Pattern: `=`},
	{Name: "SEMI", Pattern: `;`},
	{Name: "PLUS", Pattern: `\+`},
	{Name: "LP", Pattern: `\(`},
	{Name: "RP", Pattern: `\)`},
}

var stmtTokens = map[string]string{
	"ID": "ID", "NUM": "NUM", "EQ": "'='", "SEMI": "';'", "PLUS": "'+'",
	"LP": "'('", "RP": "')'",
}

func stmtLanguage(name, prog string) (*incremental.Language, error) {
	return incremental.DefineLanguage(incremental.LanguageDef{
		Name:      name,
		Grammar:   "%token ID NUM '=' ';' '+' '(' ')'\n%start Prog\n" + prog + stmtGrammar,
		Lexer:     stmtLexer,
		TokenSyms: stmtTokens,
	}, incremental.WithoutCompiledCache())
}

// seqLanguage is the balanced column's language: a generated statement
// sequence, Prog : Stmt*.
func seqLanguage() (*incremental.Language, error) {
	return stmtLanguage("stmt-sequence", "Prog : Stmt* ;\n")
}

// listLanguage is the list column's language: the same statements under a
// hand-written left recursion, Prog : Prog Stmt | Stmt.
func listLanguage() (*incremental.Language, error) {
	return stmtLanguage("stmt-list", "Prog : Prog Stmt | Stmt ;\n")
}

func seqProgram(n int) string {
	var b strings.Builder
	b.Grow(n * 16)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "v%d = v%d + %d;\n", i, i, i%97)
	}
	return b.String()
}

// literalOffsets returns the byte offset of each statement's numeric
// literal in seqProgram(n).
func literalOffsets(n int) []int {
	out := make([]int, n)
	off := 0
	for i := 0; i < n; i++ {
		prefix := fmt.Sprintf("v%d = v%d + ", i, i)
		out[i] = off + len(prefix)
		off += len(prefix) + len(fmt.Sprint(i%97)) + len(";\n")
	}
	return out
}

// seqRoot returns the balanced sequence under a committed tree (nil when
// there is none).
func seqRoot(root *incremental.Node) *incremental.Node {
	var seq *incremental.Node
	root.Walk(func(n *dag.Node) {
		if n.Kind == dag.KindSeq && seq == nil {
			seq = n
		}
	})
	return seq
}

// AsymptoticsPoint is one measured size in the §3.4 experiment.
type AsymptoticsPoint struct {
	Statements int
	// List representation: hand-written left recursion.
	ListNsPerEdit     float64
	ListShiftsPerEdit float64
	// Balanced representation: generated sequence, balanced at commit.
	BalancedNsPerEdit     float64
	BalancedShiftsPerEdit float64
	BalancedDepth         int
}

// editSession runs editsPer self-cancelling literal edits (each an edit and
// its inverse, one Do after each) over seqProgram(n) in a session of lang,
// returning the mean time and shifts per Do and the session.
func editSession(lang *incremental.Language, n, editsPer int, seed int64) (ns, shifts float64, s *incremental.Session, err error) {
	src := seqProgram(n)
	offs := literalOffsets(n)
	s = incremental.NewSession(lang, src)
	ctx := context.Background()
	if out := s.Do(ctx); out.Err != nil {
		return 0, 0, nil, out.Err
	}
	rng := rand.New(rand.NewSource(seed))
	total := 0
	var el time.Duration
	for e := 0; e < editsPer; e++ {
		off := offs[rng.Intn(n)]
		for _, text := range []string{"8", src[off : off+1]} {
			start := time.Now()
			s.Edit(off, 1, text)
			out := s.Do(ctx)
			el += time.Since(start)
			if out.Err != nil {
				return 0, 0, nil, out.Err
			}
			total += out.Stats.Shifts
		}
	}
	dos := float64(2 * editsPer)
	return float64(el.Nanoseconds()) / dos, float64(total) / dos, s, nil
}

// RunAsymptotics measures both representations across sizes.
func RunAsymptotics(sizes []int, editsPer int) ([]AsymptoticsPoint, error) {
	listLang, err := listLanguage()
	if err != nil {
		return nil, err
	}
	seqLang, err := seqLanguage()
	if err != nil {
		return nil, err
	}
	var out []AsymptoticsPoint
	for _, n := range sizes {
		pt := AsymptoticsPoint{Statements: n}
		if pt.ListNsPerEdit, pt.ListShiftsPerEdit, _, err = editSession(listLang, n, editsPer, int64(n)); err != nil {
			return nil, err
		}
		var s *incremental.Session
		if pt.BalancedNsPerEdit, pt.BalancedShiftsPerEdit, s, err = editSession(seqLang, n, editsPer, int64(n)); err != nil {
			return nil, err
		}
		seq := seqRoot(s.Tree())
		if seq == nil {
			return nil, fmt.Errorf("no balanced sequence in the committed tree")
		}
		pt.BalancedDepth = dag.SeqDepth(seq)
		out = append(out, pt)
	}
	return out, nil
}

// FormatAsymptotics renders the series.
func FormatAsymptotics(pts []AsymptoticsPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %14s %12s %14s %12s %6s\n",
		"stmts", "list ns/edit", "list shifts", "bal ns/edit", "bal shifts", "depth")
	for _, p := range pts {
		fmt.Fprintf(&b, "%10d %14.0f %12.1f %14.0f %12.1f %6d\n",
			p.Statements, p.ListNsPerEdit, p.ListShiftsPerEdit,
			p.BalancedNsPerEdit, p.BalancedShiftsPerEdit, p.BalancedDepth)
	}
	return b.String()
}
