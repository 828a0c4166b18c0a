package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"iglr/internal/corpus"
	"iglr/internal/dag"
	"iglr/internal/detparse"
	"iglr/internal/document"
	"iglr/internal/iglr"
	"iglr/internal/langs"
	"iglr/internal/lexer"
	"iglr/internal/lr"
)

// detLang is a deterministic statement language used for the §5
// comparisons (the paper removed the typedef ambiguity artificially to
// compare the parsers on identical deterministic input).
var detLang = &langs.Builder{
	Name: "det-statements",
	GramSrc: `
%token ID NUM '=' ';' '+' '(' ')' '{' '}' INT
%start Prog
Prog : Item* ;
Item : Stmt | Block | Decl ;
Block : '{' Item* '}' ;
Decl : INT ID ';' | INT ID '=' Expr ';' ;
Stmt : ID '=' Expr ';' ;
Expr : Expr '+' Term | Term ;
Term : ID | NUM | '(' Expr ')' ;
`,
	LexRules: []lexer.Rule{
		{Name: "WS", Pattern: `[ \t\n\r]+`, Skip: true},
		{Name: "COMMENT", Pattern: `//[^\n]*`, Skip: true},
		{Name: "ID", Pattern: `[a-zA-Z_][a-zA-Z0-9_]*`},
		{Name: "NUM", Pattern: `[0-9]+`},
		{Name: "EQ", Pattern: `=`},
		{Name: "SEMI", Pattern: `;`},
		{Name: "PLUS", Pattern: `\+`},
		{Name: "LP", Pattern: `\(`},
		{Name: "RP", Pattern: `\)`},
		{Name: "LB", Pattern: `\{`},
		{Name: "RB", Pattern: `\}`},
	},
	IdentRule: "ID",
	Keywords:  map[string]string{"int": "INT"},
	TokenSyms: map[string]string{
		"ID": "ID", "NUM": "NUM", "EQ": "'='", "SEMI": "';'", "PLUS": "'+'",
		"LP": "'('", "RP": "')'", "LB": "'{'", "RB": "'}'",
	},
	Options: lr.Options{Method: lr.LALR},
}

// DetLang exposes the deterministic comparison language.
func DetLang() *langs.Language { return detLang.Lang() }

// detProgram emits a deterministic block-structured program with about n
// statements. Block structure matters for the incremental comparisons:
// like real C code, an edit inside one block leaves the other blocks
// reusable whole.
func detProgram(n int) string {
	var b strings.Builder
	b.Grow(n * 20)
	b.WriteString("int v0 = 0;\n")
	const blockLen = 12
	for i := 1; i < n; i++ {
		if i%blockLen == 1 {
			b.WriteString("{\n")
		}
		switch i % 4 {
		case 0:
			fmt.Fprintf(&b, "int v%d = %d;\n", i, i)
		case 1:
			fmt.Fprintf(&b, "v%d = v%d + %d;\n", i-1, i-1, i)
		case 2:
			fmt.Fprintf(&b, "v%d = (v%d + v%d) + %d;\n", i-1, i-1, i-1, i)
		default:
			fmt.Fprintf(&b, "int w%d;\n", i)
		}
		if i%blockLen == 0 || i == n-1 {
			b.WriteString("}\n")
		}
	}
	return b.String()
}

// Section5Batch compares batch parse cost of the deterministic
// state-matching parser and the IGLR parser on identical deterministic
// input. The paper reports 12% vs 15% of total analysis time spent in
// parsing per se; the reproducible observable is the per-token cost ratio
// IGLR/deterministic, expected a little above 1. The work counters sit
// next to the times: on this conflict-free program both parsers make the
// same shifts and reductions, and the IGLR parser never splits.
type Section5Batch struct {
	Tokens        int
	DetNsPerTok   float64
	IGLRNsPerTok  float64
	Ratio         float64
	LexNsPerTok   float64 // the non-parsing share of the pipeline
	DetShare      float64 // parse share of (lex+parse), deterministic
	IGLRShare     float64 // parse share of (lex+parse), IGLR
	PaperDetShare float64
	PaperGLRShare float64

	DetShifts, DetReductions   int
	IGLRShifts, IGLRReductions int
	IGLRSplits                 int // rounds with more than one active parser
	IGLRMaxActiveParsers       int
}

// RunSection5Batch measures the batch comparison over a program with n
// statements, repeating reps times and keeping the best (least-noise) run.
func RunSection5Batch(n, reps int) (Section5Batch, error) {
	l := DetLang()
	src := detProgram(n)

	var out Section5Batch
	out.PaperDetShare, out.PaperGLRShare = 0.12, 0.15

	lexBest := time.Duration(1 << 62)
	for r := 0; r < reps; r++ {
		start := time.Now()
		toks := l.Spec.Scan(src)
		el := time.Since(start)
		if el < lexBest {
			lexBest = el
		}
		out.Tokens = len(toks)
	}

	detBest := time.Duration(1 << 62)
	for r := 0; r < reps; r++ {
		d := l.NewDocument(src)
		p, err := detparse.New(l.Table)
		if err != nil {
			return out, err
		}
		start := time.Now()
		if _, err := p.Parse(d.Stream()); err != nil {
			return out, err
		}
		if el := time.Since(start); el < detBest {
			detBest = el
		}
		out.DetShifts, out.DetReductions = p.Stats.Shifts, p.Stats.Reductions
	}

	iglrBest := time.Duration(1 << 62)
	for r := 0; r < reps; r++ {
		d := l.NewDocument(src)
		p := iglr.New(l.Table)
		start := time.Now()
		if _, err := p.Parse(d.Stream()); err != nil {
			return out, err
		}
		if el := time.Since(start); el < iglrBest {
			iglrBest = el
		}
		out.IGLRShifts, out.IGLRReductions = p.Stats.Shifts, p.Stats.Reductions
		out.IGLRSplits, out.IGLRMaxActiveParsers = p.Stats.Splits, p.Stats.MaxActiveParsers
	}

	tokens := float64(out.Tokens)
	out.LexNsPerTok = float64(lexBest.Nanoseconds()) / tokens
	out.DetNsPerTok = float64(detBest.Nanoseconds()) / tokens
	out.IGLRNsPerTok = float64(iglrBest.Nanoseconds()) / tokens
	out.Ratio = out.IGLRNsPerTok / out.DetNsPerTok
	out.DetShare = out.DetNsPerTok / (out.DetNsPerTok + out.LexNsPerTok)
	out.IGLRShare = out.IGLRNsPerTok / (out.IGLRNsPerTok + out.LexNsPerTok)
	return out, nil
}

// Section5Incremental compares incremental reparse cost after
// self-cancelling single-token modifications — the paper's incremental
// test, where "the difference in running times for the two parsers was
// undetectable". The work counters, summed over the reparses, sit next
// to the times: on this conflict-free program both parsers make the same
// shifts and reductions, and the IGLR parser keeps one stack.
type Section5Incremental struct {
	Statements  int
	Edits       int
	DetNsPerRe  float64
	IGLRNsPerRe float64
	Ratio       float64
	// IGLRShiftsPerRe is the average shift count per reparse — the
	// sublinear work measure.
	IGLRShiftsPerRe float64

	DetShifts, DetReductions   int
	IGLRShifts, IGLRReductions int
	IGLRMaxActiveParsers       int
}

// RunSection5Incremental runs nEdits self-cancelling edit pairs over a
// program with n statements under both parsers.
func RunSection5Incremental(n, nEdits int) (Section5Incremental, error) {
	l := DetLang()
	src := detProgram(n)
	pairs := corpus.SelfCancellingEdits(src, nEdits, 7)
	out := Section5Incremental{Statements: n, Edits: len(pairs) * 2}

	run := func(parse func(d *document.Document) error, d *document.Document) (time.Duration, error) {
		var total time.Duration
		for _, pair := range pairs {
			for _, e := range pair {
				d.Replace(e.Offset, e.Removed, e.Inserted)
				start := time.Now()
				if err := parse(d); err != nil {
					return 0, err
				}
				total += time.Since(start)
			}
		}
		return total, nil
	}

	// Deterministic parser.
	dDet := l.NewDocument(src)
	det, err := detparse.New(l.Table)
	if err != nil {
		return out, err
	}
	commitDet := func(d *document.Document) error {
		root, err := det.Parse(d.Stream())
		if err != nil {
			return err
		}
		out.DetShifts += det.Stats.Shifts
		out.DetReductions += det.Stats.Reductions
		d.Commit(root)
		return nil
	}
	if err := commitDet(dDet); err != nil {
		return out, err
	}
	out.DetShifts, out.DetReductions = 0, 0
	detTotal, err := run(commitDet, dDet)
	if err != nil {
		return out, err
	}

	// IGLR parser.
	dGLR := l.NewDocument(src)
	glr := iglr.New(l.Table)
	commitGLR := func(d *document.Document) error {
		root, err := glr.Parse(d.Stream())
		if err != nil {
			return err
		}
		out.IGLRShifts += glr.Stats.Shifts
		out.IGLRReductions += glr.Stats.Reductions
		out.IGLRMaxActiveParsers = max(out.IGLRMaxActiveParsers, glr.Stats.MaxActiveParsers)
		d.Commit(root)
		return nil
	}
	if err := commitGLR(dGLR); err != nil {
		return out, err
	}
	out.IGLRShifts, out.IGLRReductions, out.IGLRMaxActiveParsers = 0, 0, 0
	glrTotal, err := run(commitGLR, dGLR)
	if err != nil {
		return out, err
	}

	re := float64(out.Edits)
	out.DetNsPerRe = float64(detTotal.Nanoseconds()) / re
	out.IGLRNsPerRe = float64(glrTotal.Nanoseconds()) / re
	out.Ratio = out.IGLRNsPerRe / out.DetNsPerRe
	out.IGLRShiftsPerRe = float64(out.IGLRShifts) / re
	return out, nil
}

// Section5Space reports the per-node storage comparison: the paper
// measures ~5% extra space for the explicit parse states that
// state-matching requires, relative to a sentential-form parser's nodes.
type Section5Space struct {
	NodeBytes      uintptr
	StateBytes     uintptr
	StatePct       float64
	PaperPct       float64
	DagNodes       int
	DetNodes       int
	NodeCountRatio float64
}

// RunSection5Space measures node-count parity between the parsers on
// deterministic input and the state-field share of node storage.
func RunSection5Space(n int) (Section5Space, error) {
	l := DetLang()
	src := detProgram(n)

	d1 := l.NewDocument(src)
	p1 := iglr.New(l.Table)
	root1, err := p1.Parse(d1.Stream())
	if err != nil {
		return Section5Space{}, err
	}
	d2 := l.NewDocument(src)
	p2, err := detparse.New(l.Table)
	if err != nil {
		return Section5Space{}, err
	}
	root2, err := p2.Parse(d2.Stream())
	if err != nil {
		return Section5Space{}, err
	}

	nodeT := reflect.TypeOf(dag.Node{})
	stateF, _ := nodeT.FieldByName("State")
	out := Section5Space{
		NodeBytes:  nodeT.Size(),
		StateBytes: stateF.Type.Size(),
		PaperPct:   5.0,
		DagNodes:   dag.Measure(root1).DagNodes,
		DetNodes:   dag.Measure(root2).DagNodes,
	}
	out.StatePct = 100 * float64(out.StateBytes) / float64(out.NodeBytes)
	out.NodeCountRatio = float64(out.DagNodes) / float64(out.DetNodes)
	return out, nil
}

// Section5Ambiguity measures the incremental cost of carrying ambiguous
// regions: identical edit scripts over a program with ambiguous constructs
// and the same program with none. The paper reports well under 1% extra
// reconstruction time.
type Section5Ambiguity struct {
	Lines        int
	Ambiguous    int
	PlainNsPerRe float64
	AmbNsPerRe   float64
	OverheadPct  float64
	// Work counters (shifts+reductions+breakdowns per reparse) — the
	// deterministic observable, free of timer noise.
	PlainWorkPerRe  float64
	AmbWorkPerRe    float64
	WorkOverheadPct float64
}

// RunSection5Ambiguity runs the comparison at the given size with nEdits
// self-cancelling pairs applied outside the ambiguous regions.
func RunSection5Ambiguity(lines, nEdits int) (Section5Ambiguity, error) {
	run := func(density float64, seed int64) (ns, work float64, amb int, err error) {
		spec := corpus.Spec{Name: "amb", Lines: lines, Lang: "c",
			AmbiguousPerKLoC: density, Seed: seed}
		src, amb := corpus.Generate(spec)
		l := LangFor(spec)
		d := l.NewDocument(src)
		p := iglr.New(l.Table)
		root, err := p.Parse(d.Stream())
		if err != nil {
			return 0, 0, 0, err
		}
		d.Commit(root)
		pairs := corpus.SelfCancellingEdits(src, nEdits, 11)
		start := time.Now()
		count, totalWork := 0, 0
		for _, pair := range pairs {
			for _, e := range pair {
				d.Replace(e.Offset, e.Removed, e.Inserted)
				root, err := p.Parse(d.Stream())
				if err != nil {
					return 0, 0, 0, err
				}
				totalWork += p.Stats.Shifts + p.Stats.Reductions + p.Stats.Breakdowns
				d.Commit(root)
				count++
			}
		}
		ns = float64(time.Since(start).Nanoseconds()) / float64(count)
		work = float64(totalWork) / float64(count)
		return ns, work, amb, nil
	}

	// Same seed: identical programs except the ambiguous constructs.
	plainNs, plainWork, _, err := run(0, 21)
	if err != nil {
		return Section5Ambiguity{}, err
	}
	ambNs, ambWork, amb, err := run(20, 21)
	if err != nil {
		return Section5Ambiguity{}, err
	}
	return Section5Ambiguity{
		Lines:           lines,
		Ambiguous:       amb,
		PlainNsPerRe:    plainNs,
		AmbNsPerRe:      ambNs,
		OverheadPct:     100 * (ambNs - plainNs) / plainNs,
		PlainWorkPerRe:  plainWork,
		AmbWorkPerRe:    ambWork,
		WorkOverheadPct: 100 * (ambWork - plainWork) / plainWork,
	}, nil
}
