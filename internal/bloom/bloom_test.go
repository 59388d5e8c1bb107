package bloom

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestNoFalseNegatives(t *testing.T) {
	f := New(256, 4, 1)
	items := make([][]byte, 50)
	for i := range items {
		items[i] = []byte(fmt.Sprintf("url-%d.example.com", i))
		f.Add(items[i])
	}
	for _, it := range items {
		for _, p := range f.Positions(it) {
			if !f.Bits().Get(p) {
				t.Fatalf("false negative for %s", it)
			}
		}
	}
}

func TestEncodeMatchesPositions(t *testing.T) {
	f := New(128, 3, 42)
	item := []byte("hello")
	v := f.Encode(item)
	for _, p := range f.Positions(item) {
		if !v.Get(p) {
			t.Fatalf("encoded vector missing position %d", p)
		}
	}
	if v.Count() > 3 {
		t.Fatalf("encoded vector has %d bits set, k=3", v.Count())
	}
	// Encode must not mutate the filter.
	if f.Bits().Count() != 0 {
		t.Fatal("Encode mutated the filter")
	}
}

func TestPositionsDeterministicProperty(t *testing.T) {
	f := New(512, 4, 99)
	fn := func(item []byte) bool {
		a := f.Positions(item)
		b := f.Positions(item)
		for i := range a {
			if a[i] != b[i] || a[i] < 0 || a[i] >= 512 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestSameSeedSameEncoding(t *testing.T) {
	// RAPPOR requires the server to reproduce client encodings exactly.
	client := New(64, 2, 1234)
	server := New(64, 2, 1234)
	other := New(64, 2, 9999)
	item := []byte("www.news.example")
	cv := client.Encode(item)
	sv := server.Encode(item)
	ov := other.Encode(item)
	if cv.String() != sv.String() {
		t.Error("same seed must produce identical encodings")
	}
	if cv.String() == ov.String() {
		t.Error("different seeds should produce different encodings (overwhelmingly)")
	}
}

func TestNewPanicsOnBadParams(t *testing.T) {
	for _, fn := range []func(){
		func() { New(0, 1, 0) },
		func() { New(10, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestAccessors(t *testing.T) {
	f := New(100, 3, 77)
	if f.Seed() != 77 {
		t.Fatalf("Seed() = %d, want 77", f.Seed())
	}
}
