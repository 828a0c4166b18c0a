// Quickstart: define a small language, parse a document, edit it, and
// reparse incrementally. Demonstrates the core public API — language
// definition from a yacc-like grammar with regex tokens, sessions, and the
// reuse statistics that show incrementality at work.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	incremental "iglr"
)

func main() {
	// A tiny configuration language: "key = value;" entries. The Entry*
	// form declares an associative sequence (committed as a balanced tree).
	lang, err := incremental.DefineLanguage(incremental.LanguageDef{
		Name: "config",
		Grammar: `
%token KEY NUM STR '=' ';'
%start File
File  : Entry* ;
Entry : KEY '=' Value ';' ;
Value : NUM | STR ;
`,
		Lexer: []incremental.LexRule{
			{Name: "WS", Pattern: `[ \t\n]+`, Skip: true},
			{Name: "COMMENT", Pattern: `#[^\n]*`, Skip: true},
			{Name: "KEY", Pattern: `[a-z][a-z0-9_.]*`},
			{Name: "NUM", Pattern: `[0-9]+`},
			{Name: "STR", Pattern: `"([^"\\]|\\.)*"`},
			{Name: "EQ", Pattern: `=`},
			{Name: "SEMI", Pattern: `;`},
		},
		TokenSyms: map[string]string{
			"KEY": "KEY", "NUM": "NUM", "STR": "STR", "EQ": "'='", "SEMI": "';'",
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	src := `# server configuration
port = 8080;
host = "example.org";
retries = 3;
timeout = 30;
`
	ctx := context.Background()
	s := incremental.NewSession(lang, src)
	out := s.Do(ctx)
	if out.Err != nil {
		log.Fatal(out.Err)
	}
	tree := out.Root
	fmt.Printf("initial parse: %d entries, %d dag nodes\n",
		countEntries(lang, tree), incremental.Measure(tree).DagNodes)
	fmt.Printf("  %d terminal shifts (everything lexed fresh)\n\n", s.Stats().TerminalShifts)

	// Edit: change the port number. Only the affected tokens are relexed
	// and only the affected structure is reparsed; everything else is
	// reused by shifting whole subtrees.
	fmt.Println(`editing "8080" -> "9090" ...`)
	off := 30 // offset of 8080
	s.Edit(off, 4, "9090")
	out = s.Do(ctx)
	if out.Err != nil {
		log.Fatal(out.Err)
	}
	st := s.Stats()
	fmt.Printf("incremental reparse: relexed %d token(s), shifted %d terminal(s) and %d whole subtree(s)\n",
		s.Relexed(), st.TerminalShifts, st.SubtreeShifts)

	// A syntax error keeps the previous tree; a tolerant reparse keeps the
	// text and quarantines the broken span under an error node (at worst
	// one that owns the whole text), reported as a diagnostic.
	fmt.Println("\nbreaking the file (deleting the first '='), then recovering ...")
	eq := strings.Index(s.Text(), "=")
	s.Edit(eq, 1, "")
	if failed := s.Do(ctx); failed.Err != nil {
		fmt.Println("  parse failed as expected:", failed.Err)
	}
	rec := s.Do(ctx, incremental.Tolerant())
	fmt.Printf("  recovery: isolated=%v, %d diagnostic(s), document consistent again: %v\n",
		rec.Isolated, len(s.Diagnostics()), rec.Err == nil)
}

func countEntries(lang *incremental.Language, tree *incremental.Node) int {
	entry := lang.Sym("Entry")
	n := 0
	tree.Walk(func(node *incremental.Node) {
		if node.Sym == entry && !node.IsTerminal() && node.Prod >= 0 {
			n++
		}
	})
	return n
}
