package langcodec

import (
	"strings"
	"testing"

	"iglr/internal/langreg"
)

// BenchmarkLanguageLoadCold measures full language construction — grammar
// parsing, LR table construction, lexer subset construction + minimization —
// per bundled language. This is the startup cost the compiled-artifact path
// exists to avoid.
func BenchmarkLanguageLoadCold(b *testing.B) {
	for _, e := range langreg.All() {
		b.Run(e.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.Fresh().Build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLanguageLoadCached measures decoding a compiled artifact back
// into a ready-to-parse language — the warm-start path.
func BenchmarkLanguageLoadCached(b *testing.B) {
	for _, e := range langreg.All() {
		b.Run(e.Name, func(b *testing.B) {
			data := Encode(e.Lang())
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncode measures producing an artifact (the `langc compile`
// side).
func BenchmarkEncode(b *testing.B) {
	for _, e := range langreg.All() {
		b.Run(e.Name, func(b *testing.B) {
			l := e.Lang()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Encode(l)
			}
		})
	}
}

// BenchmarkLexerThroughput measures the scan hot loop in MB/s over realistic
// program text using each bundled language's compiled lexer.
func BenchmarkLexerThroughput(b *testing.B) {
	for _, e := range langreg.All() {
		if len(e.Samples) == 0 {
			continue
		}
		b.Run(e.Name, func(b *testing.B) {
			l := e.Lang()
			src := strings.Repeat(strings.Join(e.Samples, "\n")+"\n", 256)
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Spec.Scan(src)
			}
		})
	}
}
