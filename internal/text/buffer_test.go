package text

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestBasicEditing(t *testing.T) {
	b := NewBuffer("hello world")
	if b.Len() != 11 || b.String() != "hello world" {
		t.Fatalf("initial: %q len %d", b.String(), b.Len())
	}
	b.Replace(0, 5, "goodbye")
	if b.String() != "goodbye world" {
		t.Fatalf("after replace: %q", b.String())
	}
	b.Insert(7, ",")
	if b.String() != "goodbye, world" {
		t.Fatalf("after insert: %q", b.String())
	}
	b.Delete(7, 1)
	if b.String() != "goodbye world" {
		t.Fatalf("after delete: %q", b.String())
	}
}

func TestSliceAndByteAt(t *testing.T) {
	b := NewBuffer("0123456789")
	b.Replace(5, 0, "abc") // 01234abc56789
	want := "01234abc56789"
	if b.String() != want {
		t.Fatalf("String = %q", b.String())
	}
	for i := 0; i < len(want); i++ {
		if b.ByteAt(i) != want[i] {
			t.Fatalf("ByteAt(%d) = %c, want %c", i, b.ByteAt(i), want[i])
		}
	}
	if got := b.Slice(3, 9); got != want[3:9] {
		t.Fatalf("Slice = %q, want %q", got, want[3:9])
	}
	if got := b.Slice(0, 0); got != "" {
		t.Fatalf("empty slice = %q", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	b := NewBuffer("abc")
	for _, f := range []func(){
		func() { b.Replace(4, 0, "x") },
		func() { b.Replace(0, 4, "") },
		func() { b.Slice(-1, 2) },
		func() { b.Slice(1, 9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestRandomizedAgainstString(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	b := NewBuffer("")
	model := ""
	for i := 0; i < 3000; i++ {
		off := 0
		if len(model) > 0 {
			off = rng.Intn(len(model) + 1)
		}
		rem := 0
		if off < len(model) {
			rem = rng.Intn(len(model) - off + 1)
			if rem > 5 {
				rem = 5
			}
		}
		ins := strings.Repeat(string(rune('a'+rng.Intn(26))), rng.Intn(4))
		b.Replace(off, rem, ins)
		model = model[:off] + ins + model[off+rem:]
		if b.Len() != len(model) {
			t.Fatalf("step %d: len %d vs %d", i, b.Len(), len(model))
		}
		if i%50 == 0 && b.String() != model {
			t.Fatalf("step %d: %q vs %q", i, b.String(), model)
		}
	}
	if b.String() != model {
		t.Fatalf("final mismatch")
	}
}

func TestQuickInsertDelete(t *testing.T) {
	// Property: insert then delete of the same span is the identity.
	f := func(prefix, ins, suffix string) bool {
		base := prefix + suffix
		b := NewBuffer(base)
		b.Insert(len(prefix), ins)
		b.Delete(len(prefix), len(ins))
		return b.String() == base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestApplyOverflowPanicsCleanly: adversarial Offset/Removed values whose
// sum wraps negative must still hit the range check, not a confusing slice
// panic deeper in.
func TestApplyOverflowPanicsCleanly(t *testing.T) {
	for _, e := range []Edit{
		{Offset: 1, Removed: int(^uint(0) >> 1)},
		{Offset: int(^uint(0) >> 1), Removed: 2},
		{Offset: 0, Removed: -1},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "out of range") {
					t.Errorf("Apply(%+v): want out-of-range panic, got %v", e, r)
				}
			}()
			NewBuffer("abc").Apply(e)
		}()
	}
}
