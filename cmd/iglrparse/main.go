// Command iglrparse parses a source file with one of the bundled languages
// and reports on the resulting abstract parse dag. It can print the dag,
// trace parser actions (the Appendix B facility), run semantic
// disambiguation, and replay edit scripts incrementally.
//
// Usage:
//
//	iglrparse -lang cpp [-dag] [-trace] [-resolve] [-edit off:rem:text]... file
//	iglrparse -lang expr -text '1+2*3' -dag
//
// Each -edit is applied after the initial parse, followed by an
// incremental reparse whose statistics are printed. An edit outside the
// text exits 1. Under -recover, a syntax error an edit introduces is
// quarantined and each quarantined region is printed as a diagnostic.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	incremental "iglr"
)

type editFlag []string

func (e *editFlag) String() string     { return strings.Join(*e, ",") }
func (e *editFlag) Set(s string) error { *e = append(*e, s); return nil }

func main() {
	langName := flag.String("lang", "c", "language: expr, exprdyn, c, cpp, java, lisp, mod2, lr2, scannerless")
	text := flag.String("text", "", "parse this text instead of a file")
	showDag := flag.Bool("dag", false, "print the abstract parse dag")
	trace := flag.Bool("trace", false, "trace parser actions")
	resolve := flag.Bool("resolve", false, "run semantic disambiguation after parsing")
	recover := flag.Bool("recover", false, "reparse edits with error recovery (Do(Tolerant()))")
	var edits editFlag
	flag.Var(&edits, "edit", "apply edit offset:removed:text and reparse (repeatable)")
	flag.Parse()

	var lang *incremental.Language
	switch *langName {
	case "expr":
		lang = incremental.ExprLanguage()
	case "exprdyn":
		lang = incremental.AmbiguousExprLanguage()
	case "c":
		lang = incremental.CSubset()
	case "cpp":
		lang = incremental.CPPSubset()
	case "lr2":
		lang = incremental.LR2Language()
	case "java":
		lang = incremental.JavaSubset()
	case "lisp":
		lang = incremental.LispSubset()
	case "mod2":
		lang = incremental.Modula2Subset()
	case "scannerless":
		lang = incremental.ScannerlessLanguage()
	default:
		fatal(fmt.Errorf("unknown language %q", *langName))
	}

	src := *text
	if src == "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: iglrparse [flags] file   (or -text '...')")
			os.Exit(2)
		}
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		src = string(data)
	}

	s := incremental.NewSession(lang, src)
	if *trace {
		s.Trace(func(f string, args ...any) { fmt.Printf("  "+f+"\n", args...) })
	}

	ctx := context.Background()
	out := s.Do(ctx)
	if out.Err != nil {
		fatal(out.Err)
	}
	tree := out.Root
	report(s, tree, *showDag, *resolve, lang)

	for _, espec := range edits {
		off, rem, ins, err := parseEdit(espec)
		if err != nil {
			fatal(err)
		}
		if off < 0 || rem < 0 || off+rem > s.Len() {
			fatal(fmt.Errorf("edit %q: bytes [%d, %d) lie outside the %d-byte text", espec, off, off+rem, s.Len()))
		}
		fmt.Printf("\n== edit @%d -%d +%q ==\n", off, rem, ins)
		s.Edit(off, rem, ins)
		if *recover {
			out = s.Do(ctx, incremental.Tolerant())
		} else {
			out = s.Do(ctx)
		}
		if out.Err != nil {
			fatal(out.Err)
		}
		tree = out.Root
		fmt.Printf("relexed %d token(s)\n", s.Relexed())
		if out.Isolated {
			fmt.Printf("isolated %d error region(s):\n", out.ErrorRegions)
			for _, d := range s.Diagnostics() {
				fmt.Printf("  %s\n", d)
			}
		}
		report(s, tree, *showDag, *resolve, lang)
	}
}

func report(s *incremental.Session, tree *incremental.Node, showDag, resolve bool, lang *incremental.Language) {
	st := incremental.Measure(tree)
	ps := s.Stats()
	fmt.Printf("parse ok: %d dag nodes, %d in embedded tree, %d ambiguous region(s), overhead %.3f%%\n",
		st.DagNodes, st.TreeNodes, st.AmbiguousRegions, st.SpaceOverheadPercent())
	fmt.Printf("parser: %d terminal shift(s), %d subtree shift(s), %d reduction(s), %d breakdown(s), max %d parser(s)\n",
		ps.TerminalShifts, ps.SubtreeShifts, ps.Reductions, ps.Breakdowns, ps.MaxActiveParsers)
	if resolve {
		r := s.Resolve()
		fmt.Printf("semantics: %d→declaration, %d→statement, %d unresolved; %d type / %d ordinary binding(s)\n",
			r.ResolvedDecl, r.ResolvedStmt, r.Unresolved, r.TypeBindings, r.OrdinaryBindings)
	}
	if showDag {
		fmt.Print(incremental.FormatDag(lang, tree))
	}
}

func parseEdit(spec string) (off, rem int, ins string, err error) {
	parts := strings.SplitN(spec, ":", 3)
	if len(parts) != 3 {
		return 0, 0, "", fmt.Errorf("edit %q: want offset:removed:text", spec)
	}
	off, err = strconv.Atoi(parts[0])
	if err == nil {
		rem, err = strconv.Atoi(parts[1])
	}
	if err != nil {
		return 0, 0, "", fmt.Errorf("edit %q: %v", spec, err)
	}
	return off, rem, parts[2], nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "iglrparse:", err)
	os.Exit(1)
}
