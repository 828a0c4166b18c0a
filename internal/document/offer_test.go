package document

import (
	"math/rand"
	"slices"
	"testing"

	"iglr/internal/dag"
	"iglr/internal/disambig"
	"iglr/internal/iglr"
)

// referenceSubtree is maximalSubtree with the first-terminal check made
// by descent: an ancestor's yield starts at t when its FirstTerminal is t.
// maximalSubtree decides the same by position, from the child it climbed
// from.
func referenceSubtree(t *dag.Node, maxTerms int, rightChanged []int32) *dag.Node {
	best := t
	if !t.Committed() || t.Changed() {
		return best
	}
	for a := t.Parent; a != nil && a.Committed() && a.FirstTerminal() == t && !a.NestedChange() && int(a.TermCount) <= maxTerms; a = a.Parent {
		if _, changed := slices.BinarySearch(rightChanged, a.LastTerm); changed || a.LastTerm < 0 {
			break
		}
		best = a
	}
	return best
}

// checkOffers holds the subtree maximalSubtree offers at every clean
// terminal of d, with d's edits pending, to referenceSubtree's. It returns
// how many terminals are offered a subtree larger than themselves, how
// many climbs passed from a reading to its choice, and how many passed a
// child missing from its parent's kids, where the positional check falls
// back to the descent.
func checkOffers(t *testing.T, d *Document, step int) (offers, choices, missing int) {
	t.Helper()
	d.Stream() // sorts the right-context marks, as every parse does
	n := d.NumTerms()
	for k := range n {
		term := d.TermAt(k)
		if !term.Committed() || term.Changed() {
			continue
		}
		got := maximalSubtree(term, n-k, d.rightChanged)
		if want := referenceSubtree(term, n-k, d.rightChanged); got != want {
			t.Fatalf("step %d, terminal %d %q of %q: offered %v, the descent offers %v", step, k, term.Text, d.Text(), got, want)
		}
		if got != term {
			offers++
		}
		for c := term; c != got; c = c.Parent {
			switch {
			case !slices.Contains(c.Parent.Kids, c):
				missing++
			case c.Parent.IsChoice():
				choices++
			}
		}
	}
	return offers, choices, missing
}

// TestOffersMatchDescent is the offer oracle: random edit scripts, each
// edit checked while it is still pending, over the deterministic
// assignment language and over an ambiguous one whose `+` chains commit
// choice nodes and whose statements start with a null-yield kid. The
// second script over it collapses every choice into one reading with
// disambig.Apply after each parse, which leaves a reading's Parent on a
// choice its parent no longer holds.
func TestOffersMatchDescent(t *testing.T) {
	ambiguous := buildTestLang(t, `
%token ID NUM '=' ';' '+' '(' ')'
%start Prog
Prog : Stmt* ;
Stmt : Pre ID '=' Expr ';' ;
Pre : ;
Expr : Expr '+' Expr | ID | NUM | '(' Expr ')' ;
`)
	first := func(c *dag.Node) []*dag.Node { return c.Kids[:1] }
	for _, sc := range []struct {
		name     string
		l        *testLang
		collapse bool
	}{
		{"deterministic", newTestLang(t), false},
		{"ambiguous", ambiguous, false},
		{"collapsed", ambiguous, true},
	} {
		t.Run(sc.name, func(t *testing.T) {
			const initial = "a = b + c + d; e = (f + 1) + g + h; i = j; k = l + m + n + o;"
			rng := rand.New(rand.NewSource(26))
			d := sc.l.doc(initial)
			p := iglr.New(sc.l.tbl)
			commit := func() bool {
				root, err := p.Parse(d.Stream())
				if err != nil {
					return false
				}
				d.Commit(root)
				if sc.collapse {
					if r, _ := disambig.Apply(d.Root(), first); r != d.Root() {
						t.Fatal("disambig.Apply replaced the root")
					}
				}
				return true
			}
			if !commit() {
				t.Fatal("initial parse failed")
			}
			pieces := []string{"x", "7", " ", "; ", "+ y", "(z)", "w = 3; ", "+ u + v"}
			var offers, choices, missing, restarts int
			for step := range 300 {
				txt := d.Text()
				off := rng.Intn(len(txt) + 1)
				rem := 0
				if off < len(txt) {
					rem = rng.Intn(minInt(len(txt)-off, 4))
				}
				removed, ins := txt[off:off+rem], pieces[rng.Intn(len(pieces))]
				d.Replace(off, rem, ins)
				o, c, m := checkOffers(t, d, step)
				offers, choices, missing = offers+o, choices+c, missing+m
				if commit() {
					continue
				}
				d.Replace(off, len(ins), removed)
				if !commit() {
					// An incremental parse of the ambiguous grammar can
					// reject text a cold parse accepts: start over cold.
					restarts++
					if d = sc.l.doc(d.Text()); !commit() {
						d = sc.l.doc(initial)
						commit()
					}
				}
			}
			t.Logf("%d offers; climbs passed %d choices and %d missing children; %d restarts", offers, choices, missing, restarts)
			if offers == 0 || sc.l == ambiguous && choices == 0 || sc.collapse && missing == 0 {
				t.Fatalf("the script offered %d subtrees and passed %d choices and %d missing children", offers, choices, missing)
			}
		})
	}
}
