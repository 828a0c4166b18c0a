package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	incremental "iglr"
)

// LoadLanguages loads every compiled language artifact (*.cclang) in dir,
// keyed by language name — the deployment-side counterpart of `langc
// compile`: a service points at a directory of precompiled artifacts and
// starts serving without paying table construction for any of them.
//
// Artifacts are a deployment input: a corrupt or version-mismatched file is
// an error (there is no source definition to recompile from), as are two
// artifacts claiming the same language name.
func LoadLanguages(dir string) (map[string]*incremental.Language, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string]*incremental.Language{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), incremental.CompiledExt) {
			continue
		}
		path := filepath.Join(dir, e.Name())
		l, err := incremental.LoadCompiledFile(path)
		if err != nil {
			return nil, err
		}
		if _, dup := out[l.Name()]; dup {
			return nil, fmt.Errorf("%s: duplicate artifact for language %q", path, l.Name())
		}
		out[l.Name()] = l
	}
	return out, nil
}
