// editsession simulates an interactive editing session over a generated
// C-like program: a sequence of keystroke-level edits, each followed by an
// incremental reparse. It prints the work each reparse performed —
// demonstrating that reconstruction effort tracks the edit, not the
// program size — and finishes with an error/recovery episode.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	incremental "iglr"
	"iglr/internal/corpus"
)

func main() {
	spec := corpus.Spec{
		Name:             "session-demo",
		Lines:            4000,
		Lang:             "c",
		AmbiguousPerKLoC: 5,
		Seed:             42,
	}
	src, nAmb := corpus.Generate(spec)
	lang := incremental.CSubset()
	ctx := context.Background()
	s := incremental.NewSession(lang, src)

	first0 := s.Do(ctx)
	if first0.Err != nil {
		log.Fatal(first0.Err)
	}
	st := incremental.Measure(first0.Root)
	fmt.Printf("program: %d lines, %d tokens, %d dag nodes, %d ambiguous constructs\n",
		spec.Lines, st.Terminals, st.DagNodes, nAmb)
	first := s.Stats()
	fmt.Printf("initial parse: %d terminal shifts, %d reductions\n\n",
		first.TerminalShifts, first.Reductions)

	// Simulated session: rename a variable occurrence, extend a literal,
	// insert a statement, delete one — at scattered positions.
	type step struct {
		desc string
		find string
		rem  int
		ins  string
	}
	steps := []step{
		{"rename a variable use", "v4 =", 2, "vv"},
		{"widen a literal", "= 1;", 1, "1000"},
		{"insert a statement", "}\n{", 0, " int fresh = 7; "},
		{"touch a distant block", "v9 =", 2, "zz"},
	}
	for _, stp := range steps {
		text := s.Text()
		off := strings.Index(text, stp.find)
		if off < 0 {
			continue
		}
		off++ // inside the match
		s.Edit(off, stp.rem, stp.ins)
		if out := s.Do(ctx); out.Err != nil {
			log.Fatalf("%s: %v", stp.desc, out.Err)
		}
		ps := s.Stats()
		fmt.Printf("%-26s relexed %3d token(s); reparse: %3d terminals, %3d subtrees, %4d reductions\n",
			stp.desc+":", s.Relexed(), ps.TerminalShifts, ps.SubtreeShifts, ps.Reductions)
	}

	fmt.Printf("\n(each reparse touched a handful of tokens out of %d — the rest was reused)\n", st.Terminals)

	// Error episode: two edits, one of which breaks the parse. Error
	// isolation keeps BOTH — the user's text is never reverted; the broken
	// span is quarantined under an error node and reported as a diagnostic
	// while the rest of the program stays incrementally parsed (§1, §4.3).
	fmt.Println("\nerror episode: one good edit, one that breaks the syntax")
	good := strings.Index(s.Text(), "int w")
	s.Edit(good+4, 1, "renamed_w")
	bad := strings.LastIndex(s.Text(), "= ")
	s.Edit(bad, 2, ")) ")
	brokenLen := len(s.Text())
	out := s.Do(ctx, incremental.Tolerant())
	if out.Err != nil {
		log.Fatal(out.Err)
	}
	fmt.Printf("recovery: isolated=%v, %d quarantined region(s)\n", out.Isolated, out.ErrorRegions)
	if len(s.Text()) == brokenLen && strings.Contains(s.Text(), "renamed_w") {
		fmt.Println("both edits kept: the text was not rolled back")
	}
	for _, d := range s.Diagnostics() {
		fmt.Printf("diagnostic: %s\n", d)
	}

	// Repairing the broken span clears the quarantine: the next parse has
	// no error nodes and the tree converges to a from-scratch parse.
	s.Edit(bad, 3, "= ") // isolation kept the text, so the offset still holds
	if repaired := s.Do(ctx); repaired.Err != nil {
		log.Fatal(repaired.Err)
	}
	fmt.Printf("after repair: %d diagnostic(s), %d error node(s) — converged\n",
		len(s.Diagnostics()), len(s.ErrorNodes()))
}
