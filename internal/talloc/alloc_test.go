package talloc

import (
	"math/rand"
	"testing"

	"nestedenclave/internal/isa"
)

// TestFreeAllocs requires Free to work in place: freeing a block between two
// free extents merges all three, and the cycle below returns the heap to its
// starting shape ([a0] free, a1 live, [a2..) free) without allocating.
func TestFreeAllocs(t *testing.T) {
	h := New(0x1000, 0x1000)
	a0, _ := h.Alloc(64)
	a1, _ := h.Alloc(64)
	if err := h.Free(a0); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := h.Free(a1); err != nil { // merges with both neighbours
			t.Fatal(err)
		}
		if len(h.free) != 1 {
			t.Fatalf("free list %v after a both-sided merge, want one extent", h.free)
		}
		p, _ := h.Alloc(64) // a0
		q, _ := h.Alloc(64) // a1
		if p != a0 || q != a1 {
			t.Fatalf("re-allocated %#x, %#x; want %#x, %#x", uint64(p), uint64(q), uint64(a0), uint64(a1))
		}
		if err := h.Free(p); err != nil { // no neighbour: inserted in front
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Free allocates %v/op, want 0", n)
	}
}

// BenchmarkHeapMallocFree frees and re-allocates random blocks of a heap
// holding 512 live blocks of 8–520 bytes with a fragmented free list (one
// op = one Free plus one Alloc).
func BenchmarkHeapMallocFree(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	h := New(0x10000, 1<<20)
	live := make([]isa.VAddr, 0, 1024)
	for i := 0; i < 1024; i++ {
		a, err := h.Alloc(8 + rng.Intn(513))
		if err != nil {
			b.Fatal(err)
		}
		live = append(live, a)
	}
	kept := live[:0]
	for i, a := range live { // free every other block
		if i%2 == 0 {
			kept = append(kept, a)
		} else if err := h.Free(a); err != nil {
			b.Fatal(err)
		}
	}
	live = kept
	sizes := make([]int, 4096)
	for i := range sizes {
		sizes[i] = 8 + rng.Intn(513)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(live)
		if err := h.Free(live[k]); err != nil {
			b.Fatal(err)
		}
		a, err := h.Alloc(sizes[i%len(sizes)])
		if err != nil {
			b.Fatal(err)
		}
		live[k] = a
	}
}
