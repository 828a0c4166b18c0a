// Command iglrc is the grammar compiler: it reads a yacc-like grammar
// description, builds LR parse tables with conflicts retained (the
// "modified bison" of the paper's §5), and reports automaton size,
// conflicts, and static-filter resolutions. It writes no artifact: a
// compiled language (grammar, tables and lexer) is a .cclang file written
// by langc or Language.SaveCompiled.
//
// Usage:
//
//	iglrc [-method lalr|slr|lr1] [-prefer-shift] [-no-prec] [-v] grammar.y
package main

import (
	"flag"
	"fmt"
	"os"

	"iglr/internal/grammar"
	"iglr/internal/lr"
)

func main() {
	method := flag.String("method", "lalr", "table construction method: lalr, slr, lr1")
	preferShift := flag.Bool("prefer-shift", false, "resolve remaining shift/reduce conflicts by shifting")
	noPrec := flag.Bool("no-prec", false, "ignore precedence/associativity declarations")
	verbose := flag.Bool("v", false, "print the grammar and every resolution")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: iglrc [flags] grammar.y")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	g, err := grammar.Parse(string(src))
	if err != nil {
		fatal(err)
	}

	var m lr.Method
	switch *method {
	case "lalr":
		m = lr.LALR
	case "slr":
		m = lr.SLR
	case "lr1":
		m = lr.LR1
	default:
		fatal(fmt.Errorf("unknown method %q", *method))
	}

	tbl, err := lr.Build(g, lr.Options{
		Method:       m,
		PreferShift:  *preferShift,
		NoPrecedence: *noPrec,
	})
	if err != nil {
		fatal(err)
	}

	if *verbose {
		fmt.Print(g.String())
		fmt.Println()
	}
	fmt.Printf("grammar: %d terminals, %d nonterminals, %d productions\n",
		g.NumTerminals(), g.NumSymbols()-g.NumTerminals(), g.NumProductions())
	actions, gotos := tbl.TableSize()
	fmt.Printf("%v: %d states, %d action entries, %d gotos\n",
		tbl.Method(), tbl.NumStates(), actions, gotos)

	if n := len(tbl.Resolutions()); n > 0 {
		fmt.Printf("%d conflict(s) statically resolved", n)
		if *verbose {
			fmt.Println(":")
			for _, r := range tbl.Resolutions() {
				fmt.Printf("  state %d on %s: kept %v, dropped %v (%s)\n",
					r.State, g.Name(r.Term), r.Kept, r.Dropped, r.Rule)
			}
		} else {
			fmt.Println(" (use -v to list)")
		}
	}
	if tbl.Deterministic() {
		fmt.Println("table is deterministic: usable by both the deterministic and the GLR parser")
		return
	}
	fmt.Printf("%d conflict(s) retained for generalized LR parsing:\n", len(tbl.Conflicts()))
	fmt.Print(tbl.DescribeConflicts())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "iglrc:", err)
	os.Exit(1)
}
