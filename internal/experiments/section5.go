package experiments

import (
	"fmt"
	"reflect"
	"slices"
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
	Tokens int
	// DetNsPerTok and IGLRNsPerTok are each parser's median parse time per
	// token, and Ratio the IGLR one over the deterministic one.
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
// statements: reps parses under each parser, alternated parse by parse
// with each parser going first in every other pair, so that a change in
// the machine's speed during the run falls on both alike. It reports the
// median of each parser's parse times and of reps scans.
func RunSection5Batch(n, reps int) (Section5Batch, error) {
	l := DetLang()
	src := detProgram(n)
	out := Section5Batch{PaperDetShare: 0.12, PaperGLRShare: 0.15}

	// parse[0] is the deterministic parser, parse[1] IGLR; each runs a
	// fresh parser over a fresh document, and only the parse is timed.
	parse := [2]func() (time.Duration, error){
		func() (time.Duration, error) {
			d := l.NewDocument(src)
			p, err := detparse.New(l.Table)
			if err != nil {
				return 0, err
			}
			start := time.Now()
			_, err = p.Parse(d.Stream())
			el := time.Since(start)
			out.DetShifts, out.DetReductions = p.Stats.Shifts, p.Stats.Reductions
			return el, err
		},
		func() (time.Duration, error) {
			d := l.NewDocument(src)
			p := iglr.New(l.Table)
			start := time.Now()
			_, err := p.Parse(d.Stream())
			el := time.Since(start)
			out.IGLRShifts, out.IGLRReductions = p.Stats.Shifts, p.Stats.Reductions
			out.IGLRSplits, out.IGLRMaxActiveParsers = p.Stats.Splits, p.Stats.MaxActiveParsers
			return el, err
		},
	}
	var lexNs []float64
	var parseNs [2][]float64
	for r := 0; r < reps; r++ {
		start := time.Now()
		out.Tokens = len(l.Spec.Scan(src))
		lexNs = append(lexNs, float64(time.Since(start).Nanoseconds()))
		for k := range parse {
			side := (r + k) % 2
			el, err := parse[side]()
			if err != nil {
				return out, err
			}
			parseNs[side] = append(parseNs[side], float64(el.Nanoseconds()))
		}
	}

	tokens := float64(out.Tokens)
	out.LexNsPerTok = median(lexNs) / tokens
	out.DetNsPerTok = median(parseNs[0]) / tokens
	out.IGLRNsPerTok = median(parseNs[1]) / tokens
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
	Statements int
	Edits      int
	// DetNsPerRe and IGLRNsPerRe are the median times of one reparse (the
	// edit, the parse and the commit) under each parser, and Ratio the
	// IGLR median over the deterministic one.
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
// program with n statements under both parsers, alternated by
// timeReparses.
func RunSection5Incremental(n, nEdits int) (Section5Incremental, error) {
	l := DetLang()
	src := detProgram(n)
	pairs := corpus.SelfCancellingEdits(src, nEdits, 7)
	out := Section5Incremental{Statements: n, Edits: len(pairs) * 2}

	det, err := detparse.New(l.Table)
	if err != nil {
		return out, err
	}
	detSide := &reparser{d: l.NewDocument(src), pairs: pairs, parse: func(d *document.Document) (*dag.Node, error) {
		root, err := det.Parse(d.Stream())
		out.DetShifts += det.Stats.Shifts
		out.DetReductions += det.Stats.Reductions
		return root, err
	}}
	glr := iglr.New(l.Table)
	glrSide := &reparser{d: l.NewDocument(src), pairs: pairs, parse: func(d *document.Document) (*dag.Node, error) {
		root, err := glr.Parse(d.Stream())
		out.IGLRShifts += glr.Stats.Shifts
		out.IGLRReductions += glr.Stats.Reductions
		out.IGLRMaxActiveParsers = max(out.IGLRMaxActiveParsers, glr.Stats.MaxActiveParsers)
		return root, err
	}}
	for _, s := range []*reparser{detSide, glrSide} {
		if err := s.commit(); err != nil {
			return out, err
		}
	}
	out.DetShifts, out.DetReductions = 0, 0
	out.IGLRShifts, out.IGLRReductions, out.IGLRMaxActiveParsers = 0, 0, 0
	if err := timeReparses(detSide, glrSide); err != nil {
		return out, err
	}
	out.DetNsPerRe, out.IGLRNsPerRe = median(detSide.ns), median(glrSide.ns)
	out.Ratio = out.IGLRNsPerRe / out.DetNsPerRe
	out.IGLRShiftsPerRe = float64(out.IGLRShifts) / float64(out.Edits)
	return out, nil
}

// reparser is one side of a paired timing: a document, the parse that
// reparses it, the edit pairs it takes and the time of each reparse.
type reparser struct {
	d     *document.Document
	parse func(*document.Document) (*dag.Node, error)
	pairs [][2]corpus.Edit
	ns    []float64
}

// commit parses the document and commits the tree.
func (s *reparser) commit() error {
	root, err := s.parse(s.d)
	if err != nil {
		return err
	}
	s.d.Commit(root)
	return nil
}

// timeReparses applies both sides' edit pairs, pair by pair, each side
// going first on every other pair, so that a change in the machine's
// speed during the run falls on both alike. Each reparse, the edit, the
// parse and the commit, is timed on its own. Both documents must have
// been built and committed first.
func timeReparses(a, b *reparser) error {
	for i := range a.pairs {
		order := [2]*reparser{a, b}
		if i%2 == 1 {
			order = [2]*reparser{b, a}
		}
		for _, s := range order {
			for _, e := range s.pairs[i] {
				start := time.Now()
				s.d.Replace(e.Offset, e.Removed, e.Inserted)
				if err := s.commit(); err != nil {
					return err
				}
				s.ns = append(s.ns, float64(time.Since(start).Nanoseconds()))
			}
		}
	}
	return nil
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
// regions: one edit script over a program with none and over the same
// program with ambiguous constructs inserted, each edit shifted past the
// inserted bytes. The paper reports well under 1% extra reconstruction
// time.
type Section5Ambiguity struct {
	Lines     int
	Ambiguous int
	// PlainNsPerRe and AmbNsPerRe are the median times of one reparse (the
	// edit, the parse and the commit) of each program, and OverheadPct the
	// ambiguous median's excess over the plain one.
	PlainNsPerRe float64
	AmbNsPerRe   float64
	OverheadPct  float64
	// DiffNs holds the first quartile, the median and the third quartile
	// of the per-pair difference, ambiguous minus plain: each reparse of
	// one program against the reparse of the same edit in the other,
	// timed next to it. A median inside a wide quartile range is noise.
	DiffNs [3]float64
	// Work counters (shifts+reductions+breakdowns per reparse) — the
	// deterministic observable, free of timer noise.
	PlainWorkPerRe  float64
	AmbWorkPerRe    float64
	WorkOverheadPct float64
}

// RunSection5Ambiguity runs the comparison at the given size with nEdits
// self-cancelling pairs applied outside the ambiguous regions, which sit
// at 20 per thousand lines; the two programs are alternated by
// timeReparses.
func RunSection5Ambiguity(lines, nEdits int) (Section5Ambiguity, error) {
	spec := corpus.Spec{Name: "amb", Lines: lines, Lang: "c", Seed: 21}
	l := LangFor(spec)
	src, _ := corpus.Generate(spec)
	pairs := corpus.SelfCancellingEdits(src, nEdits, 11)
	ambSrc, nAmb, shift := withAmbiguity(src, lines*20/1000)
	ambPairs := make([][2]corpus.Edit, len(pairs))
	for i, pair := range pairs {
		for j, e := range pair {
			e.Offset = shift(e.Offset)
			ambPairs[i][j] = e
		}
	}
	side := func(src string, pairs [][2]corpus.Edit, work *int) (*reparser, error) {
		p := iglr.New(l.Table)
		s := &reparser{d: l.NewDocument(src), pairs: pairs, parse: func(d *document.Document) (*dag.Node, error) {
			root, err := p.Parse(d.Stream())
			*work += p.Stats.Shifts + p.Stats.Reductions + p.Stats.Breakdowns
			return root, err
		}}
		err := s.commit()
		*work = 0
		return s, err
	}
	var plainWork, ambWork int
	plain, err := side(src, pairs, &plainWork)
	if err != nil {
		return Section5Ambiguity{}, err
	}
	amb, err := side(ambSrc, ambPairs, &ambWork)
	if err != nil {
		return Section5Ambiguity{}, err
	}
	if err := timeReparses(plain, amb); err != nil {
		return Section5Ambiguity{}, err
	}
	diffs := make([]float64, len(plain.ns))
	for i := range diffs {
		diffs[i] = amb.ns[i] - plain.ns[i]
	}
	plainNs, ambNs := median(plain.ns), median(amb.ns)
	perRe := func(work int) float64 { return float64(work) / float64(len(plain.ns)) }
	return Section5Ambiguity{
		Lines:           lines,
		Ambiguous:       nAmb,
		PlainNsPerRe:    plainNs,
		AmbNsPerRe:      ambNs,
		OverheadPct:     100 * (ambNs - plainNs) / plainNs,
		DiffNs:          quartiles(diffs),
		PlainWorkPerRe:  perRe(plainWork),
		AmbWorkPerRe:    perRe(ambWork),
		WorkOverheadPct: 100 * float64(ambWork-plainWork) / float64(plainWork),
	}, nil
}

// withAmbiguity inserts up to n ambiguous constructs `tN(ambK);`, the kind
// corpus.Generate emits, into src, a program it generated with none: one
// in the middle of each of n evenly spaced blocks, as Generate places
// them. It returns the program, the number of constructs inserted, and
// shift, which maps an offset of src to the same byte of the program. Two
// programs Generate makes with different densities share no edit script,
// since its random stream diverges at the first construct; an edit of src
// moved by shift is the same edit of this one.
func withAmbiguity(src string, n int) (string, int, func(int) int) {
	const middle = 8 // lines from a block's '{' to its middle statement
	var mids []int   // offset of each block's middle statement
	brace := -1      // line of the last '{'
	for off, line := 0, 0; off < len(src); line++ {
		end := len(src)
		if i := strings.IndexByte(src[off:], '\n'); i >= 0 {
			end = off + i + 1
		}
		switch {
		case src[off:end] == "{\n":
			brace = line
		case brace >= 0 && line == brace+middle:
			mids = append(mids, off)
		}
		off = end
	}
	type insertion struct{ at, size int }
	var ins []insertion
	var b strings.Builder
	last := 0
	for i := 0; n > 0 && i < len(mids) && len(ins) < n; i += max(len(mids)/n, 1) {
		stmt := fmt.Sprintf("  t%d(amb%d);\n", len(ins)%8, len(ins))
		b.WriteString(src[last:mids[i]])
		b.WriteString(stmt)
		ins = append(ins, insertion{mids[i], len(stmt)})
		last = mids[i]
	}
	b.WriteString(src[last:])
	shift := func(off int) int {
		moved := off
		for _, in := range ins {
			if in.at > off {
				break
			}
			moved += in.size
		}
		return moved
	}
	return b.String(), len(ins), shift
}

// quartiles returns the first quartile, the median and the third quartile
// of xs, which it sorts: the medians of its lower half, of all of it and
// of its upper half.
func quartiles(xs []float64) [3]float64 {
	m := median(xs)
	n := len(xs)
	return [3]float64{median(xs[:n/2]), m, median(xs[(n+1)/2:])}
}

// median returns the median of xs, which it sorts, or 0 when xs is empty.
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
