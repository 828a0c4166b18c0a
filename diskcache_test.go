// The cache invalidation matrix for the compiled-artifact disk layer:
// every way an artifact can be wrong — format-version bump, grammar edit,
// truncation, bit flips — must fall back to clean recompilation, while
// semantics changes (copy-on-write, not part of the compiled tables) must
// keep sharing one cache entry.
package incremental_test

import (
	"crypto/sha256"
	"os"
	"path/filepath"
	"strings"
	"testing"

	incremental "iglr"
	"iglr/internal/langcodec"
)

func testDef(name string) incremental.LanguageDef {
	return incremental.LanguageDef{
		Name:    name,
		Grammar: "%token x ';'\n%start L\nL : Item* ;\nItem : x ';' ;",
		Lexer: []incremental.LexRule{
			{Name: "WS", Pattern: `[ \t\n]+`, Skip: true},
			{Name: "X", Pattern: `x`},
			{Name: "SEMI", Pattern: `;`},
		},
		TokenSyms: map[string]string{"X": "x", "SEMI": "';'"},
	}
}

func artifactFiles(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*"+incremental.CompiledExt))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

func parseX(t *testing.T, l *incremental.Language) {
	t.Helper()
	s := incremental.NewSession(l, "x; x;")
	if out := s.Do(nil); out.Err != nil {
		t.Fatal(out.Err)
	}
}

// TestDiskCacheHit: a second process (simulated by dropping the memory
// layer) loads the artifact instead of recompiling, and the loaded language
// parses identically.
func TestDiskCacheHit(t *testing.T) {
	dir := t.TempDir()
	incremental.ResetLanguageCache()
	def := testDef("disk-hit")

	l, err := incremental.DefineLanguage(def, incremental.WithCompiledCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	parseX(t, l)
	st := incremental.LanguageCacheStats()
	if st.DiskMisses != 1 || st.DiskHits != 0 {
		t.Fatalf("after cold compile: disk hits/misses = %d/%d, want 0/1", st.DiskHits, st.DiskMisses)
	}
	if files := artifactFiles(t, dir); len(files) != 1 {
		t.Fatalf("artifact files = %v, want exactly one", files)
	}

	incremental.ResetLanguageCache() // simulate a fresh process
	l2, err := incremental.DefineLanguage(def, incremental.WithCompiledCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	parseX(t, l2)
	st = incremental.LanguageCacheStats()
	if st.DiskHits != 1 || st.DiskMisses != 0 {
		t.Fatalf("after warm start: disk hits/misses = %d/%d, want 1/0", st.DiskHits, st.DiskMisses)
	}
	// Same process, same def again: served by memory, disk untouched.
	if _, err := incremental.DefineLanguage(def, incremental.WithCompiledCache(dir)); err != nil {
		t.Fatal(err)
	}
	if st := incremental.LanguageCacheStats(); st.DiskHits != 1 || st.Hits != 1 {
		t.Fatalf("memory layer must serve repeats: %+v", st)
	}
}

// TestDiskCacheGrammarEdit: any definition edit changes the content hash,
// so the stale artifact is never even looked up.
func TestDiskCacheGrammarEdit(t *testing.T) {
	dir := t.TempDir()
	incremental.ResetLanguageCache()
	def := testDef("disk-edit")
	if _, err := incremental.DefineLanguage(def, incremental.WithCompiledCache(dir)); err != nil {
		t.Fatal(err)
	}

	edited := def
	edited.Grammar = strings.Replace(def.Grammar, "Item* ", "Item+ ", 1)
	incremental.ResetLanguageCache()
	l, err := incremental.DefineLanguage(edited, incremental.WithCompiledCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	parseX(t, l)
	st := incremental.LanguageCacheStats()
	if st.DiskHits != 0 || st.DiskMisses != 1 {
		t.Fatalf("edited grammar must recompile: disk hits/misses = %d/%d", st.DiskHits, st.DiskMisses)
	}
	if files := artifactFiles(t, dir); len(files) != 2 {
		t.Fatalf("artifact files = %v, want two (old + edited)", files)
	}
}

// TestDiskCacheCorruptArtifacts: truncated and bit-flipped artifact files
// recompile cleanly and are removed from the cache directory.
func TestDiskCacheCorruptArtifacts(t *testing.T) {
	corrupt := func(t *testing.T, name string, mangle func([]byte) []byte) {
		dir := t.TempDir()
		incremental.ResetLanguageCache()
		def := testDef(name)
		if _, err := incremental.DefineLanguage(def, incremental.WithCompiledCache(dir)); err != nil {
			t.Fatal(err)
		}
		files := artifactFiles(t, dir)
		if len(files) != 1 {
			t.Fatalf("artifact files = %v", files)
		}
		data, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(files[0], mangle(data), 0o644); err != nil {
			t.Fatal(err)
		}

		incremental.ResetLanguageCache()
		l, err := incremental.DefineLanguage(def, incremental.WithCompiledCache(dir))
		if err != nil {
			t.Fatal(err)
		}
		parseX(t, l)
		st := incremental.LanguageCacheStats()
		if st.DiskHits != 0 || st.DiskMisses != 1 {
			t.Fatalf("corrupt artifact must recompile: disk hits/misses = %d/%d", st.DiskHits, st.DiskMisses)
		}
		// The unusable file was dropped and the recompile rewrote it.
		data2, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatalf("recompile must restore the artifact: %v", err)
		}
		if _, err := langcodec.Decode(data2); err != nil {
			t.Fatalf("restored artifact must decode: %v", err)
		}
	}
	t.Run("truncated", func(t *testing.T) {
		corrupt(t, "disk-trunc", func(b []byte) []byte { return b[:len(b)/2] })
	})
	t.Run("bitflip", func(t *testing.T) {
		corrupt(t, "disk-flip", func(b []byte) []byte {
			b[len(b)/3] ^= 0x10
			return b
		})
	})
}

// TestDiskCacheVersionMismatch: an artifact from a future (or past) format
// version — intact per its checksum — recompiles silently.
func TestDiskCacheVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	incremental.ResetLanguageCache()
	def := testDef("disk-ver")
	if _, err := incremental.DefineLanguage(def, incremental.WithCompiledCache(dir)); err != nil {
		t.Fatal(err)
	}
	files := artifactFiles(t, dir)
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	// Bump the format version byte and re-seal the checksum so only the
	// version check can reject it.
	data[len(langcodec.Magic)] = langcodec.FormatVersion + 1
	body := data[:len(data)-sha256.Size]
	sum := sha256.Sum256(body)
	copy(data[len(data)-sha256.Size:], sum[:])
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	incremental.ResetLanguageCache()
	l, err := incremental.DefineLanguage(def, incremental.WithCompiledCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	parseX(t, l)
	if st := incremental.LanguageCacheStats(); st.DiskHits != 0 || st.DiskMisses != 1 {
		t.Fatalf("version mismatch must recompile: %+v", st)
	}
}

// TestDiskCacheSemanticsShareEntry: WithSemantics is copy-on-write over the
// compiled tables, so definitions differing only in semantics share one
// cache entry (memory and disk).
func TestDiskCacheSemanticsShareEntry(t *testing.T) {
	dir := t.TempDir()
	incremental.ResetLanguageCache()
	def := testDef("disk-sem")
	if _, err := incremental.DefineLanguage(def, incremental.WithCompiledCache(dir)); err != nil {
		t.Fatal(err)
	}
	cfg := incremental.SemanticsConfig{
		IsScope: func(n *incremental.Node) bool { return false },
	}
	l, err := incremental.DefineLanguage(def,
		incremental.WithCompiledCache(dir), incremental.WithSemantics(cfg))
	if err != nil {
		t.Fatal(err)
	}
	parseX(t, l)
	st := incremental.LanguageCacheStats()
	if st.Entries != 1 || st.Hits != 1 {
		t.Fatalf("semantics change must share the compiled entry: %+v", st)
	}
	if files := artifactFiles(t, dir); len(files) != 1 {
		t.Fatalf("artifact files = %v, want one", files)
	}
}

// TestWithoutCompiledCache: the disk layer can be disabled independently of
// the memory layer.
func TestWithoutCompiledCache(t *testing.T) {
	dir := t.TempDir()
	incremental.ResetLanguageCache()
	def := testDef("disk-off")
	def.Name = "disk-off"
	if _, err := incremental.DefineLanguage(def,
		incremental.WithCompiledCache(dir), incremental.WithoutCompiledCache()); err != nil {
		t.Fatal(err)
	}
	if files := artifactFiles(t, dir); len(files) != 0 {
		t.Fatalf("disk layer disabled but wrote %v", files)
	}
	st := incremental.LanguageCacheStats()
	if st.Entries != 1 || st.DiskHits != 0 || st.DiskMisses != 0 {
		t.Fatalf("memory-only stats: %+v", st)
	}
}
