package incremental

import (
	"fmt"
	"io"
	"os"
	"sort"

	"iglr/internal/langcodec"
	"iglr/internal/langreg"
)

// Compiled language artifacts: the public face of internal/langcodec.
// SaveCompiled/LoadCompiled let deployments ship languages as .cclang files
// (produced by cmd/langc or programmatically) and start parsing without
// paying LR construction or lexer subset construction. An artifact is the
// one way to skip the build that DefineLanguage runs on every call.

// CompiledExt is the conventional artifact file extension.
const CompiledExt = langcodec.FileExt

// SaveCompiled writes the language as a compiled artifact to w. Semantic
// configurations are code, not data — they are not serialized; reattach one
// with WithSemantics after loading.
func (l *Language) SaveCompiled(w io.Writer) error {
	_, err := w.Write(langcodec.Encode(l.def))
	return err
}

// SaveCompiledFile writes the language as a compiled artifact file.
func (l *Language) SaveCompiledFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := l.SaveCompiled(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadCompiled reconstructs a ready-to-parse language from artifact bytes.
// An artifact that is corrupt or version-mismatched is an error: there is
// no source definition to fall back to.
func LoadCompiled(data []byte) (*Language, error) {
	def, err := langcodec.Decode(data)
	if err != nil {
		return nil, err
	}
	return &Language{def: def}, nil
}

// LoadCompiledFile is LoadCompiled over a file.
func LoadCompiledFile(path string) (*Language, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	l, err := LoadCompiled(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return l, nil
}

// BundledLanguageNames lists the names accepted by BundledLanguage, sorted.
func BundledLanguageNames() []string {
	entries := langreg.All()
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name
	}
	sort.Strings(names)
	return names
}

// BundledLanguage returns the bundled language with the given name (see
// BundledLanguageNames), or false. Languages with preconfigured semantics
// ("c-subset", "cpp-subset") come with them attached, exactly as their
// dedicated constructors return them.
func BundledLanguage(name string) (*Language, bool) {
	switch name {
	case "c-subset":
		return CSubset(), true
	case "cpp-subset":
		return CPPSubset(), true
	}
	e, ok := langreg.Find(name)
	if !ok {
		return nil, false
	}
	return &Language{def: e.Lang()}, true
}
