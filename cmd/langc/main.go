// Command langc compiles bundled languages into .cclang artifacts — the
// off-line half of the compiled-language pipeline. Deployments run `langc
// compile -all -o dir` at build time, ship the directory, and load it with
// engine.LoadLanguages, incremental.LoadCompiledFile or iglrd's
// language_dirs, so serving processes never pay LR construction or lexer
// subset construction.
//
// Usage:
//
//	langc list
//	langc compile [-o dir] [-method lalr|slr|lr1] (-all | name...)
//	langc info file.cclang...
//	langc verify file.cclang...
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"iglr/internal/langcodec"
	"iglr/internal/langreg"
	"iglr/internal/langs"
	"iglr/internal/lr"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "list":
		for _, e := range langreg.All() {
			fmt.Println(e.Name)
		}
	case "compile":
		compile(os.Args[2:])
	case "info":
		forEachArtifact(os.Args[2:], info)
	case "verify":
		forEachArtifact(os.Args[2:], verify)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  langc list
  langc compile [-o dir] [-method lalr|slr|lr1] (-all | name...)
  langc info file.cclang...
  langc verify file.cclang...`)
	os.Exit(2)
}

func compile(args []string) {
	fs := flag.NewFlagSet("compile", flag.ExitOnError)
	out := fs.String("o", ".", "output directory for .cclang artifacts")
	method := fs.String("method", "", "override table method: lalr, slr, lr1 (default: each language's own)")
	all := fs.Bool("all", false, "compile every bundled language")
	fs.Parse(args)

	var entries []langreg.Entry
	if *all {
		entries = langreg.All()
	} else {
		if fs.NArg() == 0 {
			fatal(fmt.Errorf("no languages named (or use -all)"))
		}
		for _, name := range fs.Args() {
			e, ok := langreg.Find(name)
			if !ok {
				fatal(fmt.Errorf("unknown language %q (see langc list)", name))
			}
			entries = append(entries, e)
		}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	for _, e := range entries {
		b := e.Fresh()
		if *method != "" {
			m, err := parseMethod(*method)
			if err != nil {
				fatal(err)
			}
			b.Options.Method = m
		}
		l, err := b.Build()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.Name, err))
		}
		data := langcodec.Encode(l)
		path := filepath.Join(*out, e.Name+langcodec.FileExt)
		if err := writeFileAtomic(path, data); err != nil {
			fatal(err)
		}
		fmt.Printf("%s: %d bytes (%v, %d states)\n",
			path, len(data), l.Table.Method(), l.Table.NumStates())
	}
}

// writeFileAtomic replaces path via temp-file-plus-rename, so a serving
// process loading the artifact directory (engine.LoadLanguages, an iglrd
// reload) can never observe a partially written artifact.
func writeFileAtomic(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".tmp-*"+langcodec.FileExt)
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

func parseMethod(s string) (lr.Method, error) {
	switch s {
	case "lalr":
		return lr.LALR, nil
	case "slr":
		return lr.SLR, nil
	case "lr1":
		return lr.LR1, nil
	}
	return 0, fmt.Errorf("unknown method %q", s)
}

func forEachArtifact(paths []string, fn func(path string, data []byte, l *langs.Language) error) {
	if len(paths) == 0 {
		usage()
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		l, err := langcodec.Decode(data)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		if err := fn(path, data, l); err != nil {
			fatal(err)
		}
	}
}

func info(path string, data []byte, l *langs.Language) error {
	g := l.Grammar
	actions, gotos := l.Table.TableSize()
	fmt.Printf("%s: language %q (def hash %x)\n", path, l.Name, l.Hash[:8])
	fmt.Printf("  %d bytes on disk, table footprint %d bytes in memory\n", len(data), l.Table.Footprint())
	fmt.Printf("  grammar: %d terminals, %d nonterminals, %d productions\n",
		g.NumTerminals(), g.NumSymbols()-g.NumTerminals(), g.NumProductions())
	fmt.Printf("  %v: %d states, %d action entries, %d gotos, %d conflicts\n",
		l.Table.Method(), l.Table.NumStates(), actions, gotos, len(l.Table.Conflicts()))
	fmt.Printf("  lexer: %d rules, %d DFA states, %d byte classes\n",
		l.Spec.NumRules(), l.Spec.NumStates(), l.Spec.NumClasses())
	return nil
}

func verify(path string, data []byte, l *langs.Language) error {
	if enc := langcodec.Encode(l); !bytes.Equal(enc, data) {
		return fmt.Errorf("%s: decode→encode is not byte-identical (%d vs %d bytes)", path, len(enc), len(data))
	}
	fmt.Printf("%s: ok (%q, %d bytes, canonical)\n", path, l.Name, len(data))
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "langc:", err)
	os.Exit(1)
}
