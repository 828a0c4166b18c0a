package dag

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"iglr/internal/grammar"
)

// testArena allocates every test's nodes; one arena keeps IDs unique
// across helpers without threading it through each call.
var testArena = NewArena()

func term(text string) *Node { return testArena.Terminal(5, text) }

func TestChoiceBasics(t *testing.T) {
	a := testArena.Production(2, 1, 7, []*Node{term("x")})
	b := testArena.Production(2, 2, 7, []*Node{term("x")})
	c := testArena.Choice(2, a)
	c.AddChoice(b)
	if !c.IsChoice() || c.Arity() != 2 {
		t.Fatalf("choice node malformed: %v", c)
	}
	if c.State != MultiState {
		t.Fatalf("choice node state = %d, want MultiState", c.State)
	}
	if c.Selected() != nil {
		t.Fatalf("ambiguous choice should have no selection")
	}
	b.Filtered = true
	if c.Selected() != a {
		t.Fatalf("filtering should select the surviving alternative")
	}
	if c.Ambiguous() {
		t.Fatalf("filtered choice should not count as ambiguous")
	}
	b.Filtered = false
	if !c.Ambiguous() {
		t.Fatalf("unfiltered choice should be ambiguous")
	}
}

func TestYieldAndTerminals(t *testing.T) {
	x, y := term("foo"), term("bar")
	p := testArena.Production(3, 1, NoState, []*Node{x, y})
	if p.Yield() != "foobar" {
		t.Fatalf("yield = %q", p.Yield())
	}
	alt := testArena.Production(3, 2, NoState, []*Node{x, y})
	ch := testArena.Choice(3, p, alt)
	if ch.Yield() != "foobar" {
		t.Fatalf("choice yield = %q", ch.Yield())
	}
	terms := ch.Terminals(nil)
	if len(terms) != 2 || terms[0] != x || terms[1] != y {
		t.Fatalf("terminals = %v", terms)
	}
}

func TestMeasure(t *testing.T) {
	// Two interpretations sharing their terminals (the paper's Figure 3
	// shape): dag = choice + 2 productions + shared terminals.
	x, y := term("a"), term("b")
	declInterp := testArena.Production(2, 1, NoState, []*Node{x, y})
	callInterp := testArena.Production(2, 2, NoState, []*Node{x, y})
	ch := testArena.Choice(2, declInterp, callInterp)
	root := testArena.Production(1, 0, NoState, []*Node{ch})

	s := Measure(root)
	// Unique nodes: root, choice, 2 interps, 2 terminals = 6.
	if s.DagNodes != 6 {
		t.Fatalf("DagNodes = %d, want 6", s.DagNodes)
	}
	// Embedded tree: root, one interp, 2 terminals = 4.
	if s.TreeNodes != 4 {
		t.Fatalf("TreeNodes = %d, want 4", s.TreeNodes)
	}
	if s.ChoiceNodes != 1 || s.AmbiguousRegions != 1 || s.MaxAlternatives != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.SpaceOverheadPercent() <= 0 {
		t.Fatalf("overhead should be positive: %v", s.SpaceOverheadPercent())
	}
	if s.Terminals != 2 {
		t.Fatalf("terminals = %d", s.Terminals)
	}
}

func TestUnshareEpsilon(t *testing.T) {
	// A shared null-yield subtree under two parents must be duplicated.
	eps := testArena.Production(4, 9, NoState, nil) // ε production instance
	p1 := testArena.Production(2, 1, NoState, []*Node{term("a"), eps})
	p2 := testArena.Production(2, 2, NoState, []*Node{term("b"), eps})
	root := testArena.Production(1, 0, NoState, []*Node{p1, p2})

	shared := SharedNullYields(root)
	if len(shared) != 1 || shared[0] != eps {
		t.Fatalf("SharedNullYields = %v, want [eps]", shared)
	}
	dups := UnshareEpsilon(testArena, root)
	if dups != 1 {
		t.Fatalf("dups = %d, want 1", dups)
	}
	if p1.Kids[1] == p2.Kids[1] {
		t.Fatalf("epsilon structure still shared after unsharing")
	}
	if len(SharedNullYields(root)) != 0 {
		t.Fatalf("sharing should be gone")
	}
	// Non-null sharing must be left intact.
	sharedTerm := term("x")
	q1 := testArena.Production(2, 1, NoState, []*Node{sharedTerm})
	q2 := testArena.Production(2, 2, NoState, []*Node{sharedTerm})
	root2 := testArena.Choice(2, q1, q2)
	UnshareEpsilon(testArena, root2)
	if q1.Kids[0] != q2.Kids[0] {
		t.Fatalf("non-null sharing should be preserved")
	}
}

func seqGrammar(t testing.TB) *grammar.Grammar {
	g, err := grammar.Parse(`
%token x ';'
%start Block
Block : Stmt* ;
Stmt : x ';' ;
`)
	if err != nil {
		t.Fatalf("grammar: %v", err)
	}
	return g
}

// Recorded states of the test chains: chain nodes enter the continuation
// state seqCont, elements their own goto state.
const (
	seqCont = 4
	seqElem = 3
)

// chainOf builds the left-recursive parse structure the parser produces for
// n statements.
func chainOf(t testing.TB, g *grammar.Grammar, n int) *Node {
	return chainOver(t, g, stmts(g, 0, n))
}

func stmts(g *grammar.Grammar, from, to int) []*Node {
	stmtSym := g.Lookup("Stmt")
	var out []*Node
	for i := from; i < to; i++ {
		out = append(out, testArena.Production(stmtSym, g.ProductionsFor(stmtSym)[0].ID, seqElem,
			[]*Node{testArena.Terminal(g.Lookup("x"), fmt.Sprintf("x%d", i)), testArena.Terminal(g.Lookup("';'"), ";")}))
	}
	return out
}

func chainOver(t testing.TB, g *grammar.Grammar, elems []*Node) *Node {
	plus := g.Lookup("Stmt+")
	var single, rec *grammar.Production
	for _, p := range g.ProductionsFor(plus) {
		if len(p.RHS) == 1 {
			single = p
		} else {
			rec = p
		}
	}
	if single == nil || rec == nil {
		t.Fatalf("expected X and X+ X productions for Stmt+")
	}
	root := testArena.Production(plus, single.ID, seqCont, []*Node{elems[0]})
	for _, e := range elems[1:] {
		root = testArena.Production(plus, rec.ID, seqCont, []*Node{root, e})
	}
	return root
}

// seqElems flattens balanced sequence structure into its elements.
func seqElems(n *Node) []*Node {
	if n.Kind != KindSeq {
		return []*Node{n}
	}
	var out []*Node
	for _, k := range n.Kids {
		out = append(out, seqElems(k)...)
	}
	return out
}

// checkCanonical verifies the canonical shape: leaves of at most
// seqLeafLimit elements, longer runs split at the midpoint.
func checkCanonical(t *testing.T, n *Node) {
	t.Helper()
	c := int(n.SeqCount)
	if c <= seqLeafLimit {
		if len(n.Kids) != c {
			t.Fatalf("run of %d is not one leaf (%d kids)", c, len(n.Kids))
		}
		for _, k := range n.Kids {
			if k.Kind == KindSeq {
				t.Fatalf("leaf holds a sequence node")
			}
		}
		return
	}
	if len(n.Kids) != 2 || int(n.Kids[0].SeqCount) != c/2 {
		t.Fatalf("run of %d not split at the midpoint", c)
	}
	checkCanonical(t, n.Kids[0])
	checkCanonical(t, n.Kids[1])
}

func TestSeqBuilderCanonical(t *testing.T) {
	g := seqGrammar(t)
	n := 1000
	bal := NewSeqBuilder(testArena, g).Canonical(chainOf(t, g, n))
	if got := int(bal.SeqCount); got != n {
		t.Fatalf("SeqCount = %d, want %d", got, n)
	}
	if d := SeqDepth(bal); d > 14 {
		t.Fatalf("depth %d too large for %d elements", d, n)
	}
	checkCanonical(t, bal)
	if bal.State != seqCont {
		t.Fatalf("root state %d, want the continuation state %d", bal.State, seqCont)
	}
	elems := seqElems(bal)
	if len(elems) != n {
		t.Fatalf("elements = %d", len(elems))
	}
	// Order preserved.
	for i, e := range elems {
		want := fmt.Sprintf("x%d;", i)
		if e.Yield() != want {
			t.Fatalf("element %d yield = %q, want %q", i, e.Yield(), want)
		}
	}
}

// within appends the maximal subtrees of n (whose first element has index
// a) that lie inside elements [from, to) — the pieces the document stream
// offers around an edit.
func within(n *Node, a, from, to int, out []SeqPart) []SeqPart {
	c := int(seqCountOf(n))
	if a >= to || a+c <= from {
		return out
	}
	if a >= from && a+c <= to {
		return append(out, SeqPart{Node: n, State: seqCont})
	}
	for _, k := range n.Kids {
		out = within(k, a, from, to, out)
		a += int(seqCountOf(k))
	}
	return out
}

// sameShape reports whether two balanced trees have one shape over the
// same elements.
func sameShape(a, b *Node) bool {
	if a.Kind != KindSeq || b.Kind != KindSeq {
		return a == b
	}
	if len(a.Kids) != len(b.Kids) || a.SeqCount != b.SeqCount {
		return false
	}
	for i := range a.Kids {
		if !sameShape(a.Kids[i], b.Kids[i]) {
			return false
		}
	}
	return true
}

func TestSeqBuilderRandomAgainstSlice(t *testing.T) {
	g := seqGrammar(t)
	sym := g.Lookup("Stmt+")
	b := NewSeqBuilder(testArena, g)
	rng := rand.New(rand.NewSource(7))

	model := stmts(g, 0, 50)
	root := b.Canonical(chainOver(t, g, model))
	for step := 0; step < 1500; step++ {
		i := rng.Intn(len(model))
		removed, repl := 1, stmts(g, 1000+step, 1001+step)
		switch op := rng.Intn(3); {
		case op == 0 || len(model) == 1: // insert
			removed = 0
			i = rng.Intn(len(model) + 1)
		case op == 1: // delete
			repl = nil
		}
		parts := within(root, 0, 0, i, nil)
		for _, e := range repl {
			parts = append(parts, SeqPart{Node: e, State: seqCont})
		}
		parts = within(root, 0, i+removed, len(model), parts)
		model = append(model[:i:i], append(repl, model[i+removed:]...)...)

		before := testArena.NumNodes()
		next := b.Build(sym, parts)
		built := testArena.NumNodes() - before
		if removed == 1 && len(repl) == 1 && built > SeqDepth(root) {
			t.Fatalf("step %d: replacing one element built %d nodes at depth %d", step, built, SeqDepth(root))
		}
		root = next

		elems := seqElems(root)
		if len(elems) != len(model) || int(root.SeqCount) != len(model) {
			t.Fatalf("step %d: len %d, model %d", step, len(elems), len(model))
		}
		for k, e := range elems {
			if e != model[k] {
				t.Fatalf("step %d: element %d = %q, want %q", step, k, e.Yield(), model[k].Yield())
			}
		}
		var fresh []SeqPart
		for _, e := range model {
			fresh = append(fresh, SeqPart{Node: e, State: seqCont})
		}
		if !sameShape(root, b.Build(sym, fresh)) {
			t.Fatalf("step %d: reused pieces gave a non-canonical shape", step)
		}
		if root.State != seqCont {
			t.Fatalf("step %d: clean sequence recorded state %d", step, root.State)
		}
	}
}

func TestSeqBuilderMarksMultiParserBoundaries(t *testing.T) {
	g := seqGrammar(t)
	chain := chainOf(t, g, 40)
	// The reduction appending element 29 (the chain's 11th node from the
	// top) ran while several parsers stayed active.
	n := chain
	for i := 0; i < 10; i++ {
		n = n.Kids[0]
	}
	n.State = MultiState
	b := NewSeqBuilder(testArena, g)
	root := b.Canonical(chain)
	// A record says MultiState exactly when the node's run holds element 29.
	var check func(n *Node, a int)
	check = func(n *Node, a int) {
		if n.Kind != KindSeq {
			return
		}
		holds := a <= 29 && 29 < a+int(n.SeqCount)
		if (n.State == MultiState) != holds {
			t.Fatalf("run [%d,%d): state %d", a, a+int(n.SeqCount), n.State)
		}
		for _, k := range n.Kids {
			check(k, a)
			a += int(seqCountOf(k))
		}
	}
	check(root, 0)

	// An element that records no parse state (an error region) marks its
	// leaf too.
	errNode := testArena.Error([]*Node{term("junk")}, nil)
	leaf := b.Build(g.Lookup("Stmt+"), []SeqPart{{Node: stmts(g, 0, 1)[0], State: seqCont}, {Node: errNode, State: seqCont}})
	if leaf.State != MultiState {
		t.Fatalf("leaf over an error region records state %d", leaf.State)
	}
}

func log2(n int) int {
	d := 0
	for n > 1 {
		n /= 2
		d++
	}
	return d
}

func TestSeqDepthLogarithmicProperty(t *testing.T) {
	g := seqGrammar(t)
	b := NewSeqBuilder(testArena, g)
	f := func(k uint8) bool {
		n := int(k)%2000 + 1
		bal := b.Canonical(chainOf(t, g, n))
		return SeqDepth(bal) <= 2*log2(n)+4 && int(bal.SeqCount) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFormat(t *testing.T) {
	g := seqGrammar(t)
	root := NewSeqBuilder(testArena, g).Canonical(chainOf(t, g, 3))
	s := Format(g, root)
	if s == "" {
		t.Fatal("empty format")
	}
}

func TestWalkVisitsSharedOnce(t *testing.T) {
	shared := term("s")
	p1 := testArena.Production(2, 1, NoState, []*Node{shared})
	p2 := testArena.Production(2, 2, NoState, []*Node{shared})
	root := testArena.Choice(2, p1, p2)
	count := 0
	root.Walk(func(n *Node) { count++ })
	if count != 4 {
		t.Fatalf("walk visited %d nodes, want 4", count)
	}
}

// TestNodeSize pins the layout the Node comment describes: the kind,
// Filtered and the flags byte share one word with the ID, a node is 80
// bytes, and the collector scans exactly three pointer words in it: Kids,
// Text and Parent. The last terminal is a node ID, not a pointer, and an
// error node's detail lives in its arena's table.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got != 80 {
		t.Fatalf("dag.Node is %d bytes, want 80", got)
	}
	var ptrs []string
	typ := reflect.TypeOf(Node{})
	for i := range typ.NumField() {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.String, reflect.Map, reflect.Chan, reflect.Func, reflect.UnsafePointer:
			ptrs = append(ptrs, f.Name)
		case reflect.Interface, reflect.Struct, reflect.Array:
			t.Fatalf("field %s (%s): count its pointer words before adding it", f.Name, f.Type)
		}
	}
	if want := []string{"Kids", "Text", "Parent"}; !slices.Equal(ptrs, want) {
		t.Fatalf("dag.Node's pointer words are %v, want %v", ptrs, want)
	}
}

// TestErrorDetailBesideTheTree: an error node's detail is kept in its
// arena's table, not in the node; a clone of the node carries it, and no
// other node has one.
func TestErrorDetailBesideTheTree(t *testing.T) {
	a := NewArena()
	det := &ErrorDetail{Expected: []string{"';'"}, Region: 3}
	x := a.Terminal(1, "x")
	e := a.Error([]*Node{x}, det)
	if got := a.ErrorDetail(e); got != det {
		t.Fatalf("ErrorDetail of the error node = %v, want %v", got, det)
	}
	if got := a.ErrorDetail(a.Clone(e)); got != det {
		t.Fatalf("ErrorDetail of a clone = %v, want %v", got, det)
	}
	if got := a.ErrorDetail(x); got != nil {
		t.Fatalf("ErrorDetail of a terminal = %v, want nil", got)
	}
	if got := a.ErrorDetail(a.Error([]*Node{a.Terminal(1, "y")}, nil)); got != nil {
		t.Fatalf("ErrorDetail of an error node built without one = %v, want nil", got)
	}
}

// TestArenaChunkFillsSizeClass: a node chunk is rounded up to an allocator
// size class, and the rounding wastes less than one node. append sizes a
// slice it grows to its whole size class, so a grown copy of a chunk has
// room for a further node exactly when a chunk wastes one.
func TestArenaChunkFillsSizeClass(t *testing.T) {
	node := int(unsafe.Sizeof(Node{}))
	grown := append([]Node(nil), make([]Node, arenaChunk)...)
	if c := cap(grown); c != arenaChunk {
		t.Fatalf("a chunk of %d nodes (%d bytes) sits in a size class of %d nodes or more: %d bytes wasted",
			arenaChunk, arenaChunk*node, c, (c-arenaChunk)*node)
	}
}

// TestReductionKeepsChainsApart: the sequence chain nodes a reduction
// builds, which a commit replaces, come from chunks of their own, so the
// nodes a committed tree keeps sit next to each other, and so do the
// chains.
func TestReductionKeepsChainsApart(t *testing.T) {
	g := seqGrammar(t)
	a := NewArena()
	stmt := g.ProductionsFor(g.Lookup("Stmt"))[0].ID
	var single, rec int
	for _, p := range g.ProductionsFor(g.Lookup("Stmt+")) {
		if len(p.RHS) == 1 {
			single = p.ID
		} else {
			rec = p.ID
		}
	}
	var kept, chains []*Node
	for i := range 100 {
		x, semi := a.Terminal(g.Lookup("x"), "x"), a.Terminal(g.Lookup("';'"), ";")
		s := a.Reduction(g, stmt, seqElem, []*Node{x, semi})
		kept = append(kept, x, semi, s)
		if i == 0 {
			chains = append(chains, a.Reduction(g, single, seqCont, []*Node{s}))
		} else {
			chains = append(chains, a.Reduction(g, rec, seqCont, []*Node{chains[i-1], s}))
		}
	}
	for _, run := range [][]*Node{kept, chains} {
		for i := 1; i < len(run); i++ {
			if d := uintptr(unsafe.Pointer(run[i])) - uintptr(unsafe.Pointer(run[i-1])); d != unsafe.Sizeof(Node{}) {
				t.Fatalf("%v is %d bytes past %v, not the next node of its chunk", run[i], d, run[i-1])
			}
		}
	}
}

// TestHasErrorSummary: the summary is set on every ancestor of an error
// node, through any alternative of a choice (a later one too, and one
// added by AddChoice), and CollectErrors finds the error nodes in preorder
// while visiting one node of a clean tree.
func TestHasErrorSummary(t *testing.T) {
	clean := testArena.Production(2, 1, NoState, []*Node{term("a"), term("b")})
	if clean.HasError() {
		t.Fatal("clean production carries HasError")
	}
	if errs, visited := CollectErrors(clean); len(errs) != 0 || visited != 1 {
		t.Fatalf("clean tree: %d errors after %d visits, want 0 after 1", len(errs), visited)
	}
	e1 := testArena.Error([]*Node{term("@")}, nil)
	bad := testArena.Production(2, 2, NoState, []*Node{e1})
	choice := testArena.Choice(2, testArena.Production(2, 3, NoState, []*Node{term("c")}), bad)
	if !e1.HasError() || !bad.HasError() || !choice.HasError() {
		t.Fatalf("HasError: error %v, parent %v, choice over it %v", e1.HasError(), bad.HasError(), choice.HasError())
	}
	e2 := testArena.Error([]*Node{term("$")}, nil)
	later := testArena.Choice(2, testArena.Production(2, 4, NoState, []*Node{term("d")}))
	later.AddChoice(testArena.Production(2, 5, NoState, []*Node{e2}))
	if !later.HasError() {
		t.Fatal("AddChoice of an alternative with an error left HasError unset")
	}
	root := testArena.Production(2, 6, NoState, []*Node{clean, choice, later})
	errs, _ := CollectErrors(root)
	if len(errs) != 2 || errs[0] != e1 || errs[1] != e2 {
		t.Fatalf("CollectErrors = %v, want [%v %v]", errs, e1, e2)
	}
}
