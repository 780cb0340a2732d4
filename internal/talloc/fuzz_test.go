package talloc

import (
	"math/rand"
	"testing"

	"nestedenclave/internal/isa"
)

// Reference model for FuzzHeapOps: one state byte per address of a window
// that covers the initial heap and every range an Extend op can name.
const (
	modelBase   = 0x1000
	modelSize   = 0x800 // initial heap
	modelWindow = modelSize + 255*64 + 255*8 + 8
)

const (
	byteOutside = iota // not donated to the heap
	byteFree
	byteLive
)

type heapModel struct {
	state [modelWindow]uint8
	live  map[isa.VAddr]uint64
}

func newHeapModel() *heapModel {
	m := &heapModel{live: map[isa.VAddr]uint64{}}
	for i := 0; i < modelSize; i++ {
		m.state[i] = byteFree
	}
	return m
}

func (m *heapModel) set(addr isa.VAddr, n uint64, s uint8) {
	for i := uint64(0); i < n; i++ {
		m.state[uint64(addr)-modelBase+i] = s
	}
}

// alloc is first fit over maximal runs of free bytes: with a fully
// coalesced free list those runs are exactly the extents.
func (m *heapModel) alloc(n int) (isa.VAddr, bool) {
	if n <= 0 {
		return 0, false
	}
	need := (uint64(n) + 7) &^ 7
	for i := 0; i < modelWindow; {
		if m.state[i] != byteFree {
			i++
			continue
		}
		j := i
		for j < modelWindow && m.state[j] == byteFree {
			j++
		}
		if uint64(j-i) >= need {
			addr := isa.VAddr(modelBase + i)
			m.set(addr, need, byteLive)
			m.live[addr] = need
			return addr, true
		}
		i = j
	}
	return 0, false
}

func (m *heapModel) free(addr isa.VAddr) bool {
	n, ok := m.live[addr]
	if !ok {
		return false
	}
	delete(m.live, addr)
	m.set(addr, n, byteFree)
	return true
}

func (m *heapModel) extend(addr isa.VAddr, n uint64) bool {
	if n == 0 {
		return false
	}
	for i := uint64(0); i < n; i++ {
		if m.state[uint64(addr)-modelBase+i] != byteOutside {
			return false
		}
	}
	m.set(addr, n, byteFree)
	return true
}

// FuzzHeapOps drives random Alloc/Free/Extend sequences against the
// per-byte model. Each op is three bytes: an opcode and two arguments.
// Alloc asks for 2a+b%2 bytes (0 must fail); Free picks either a previously
// returned address (so double frees happen) or an arbitrary 8-aligned one;
// Extend donates 8b bytes (0 must fail) at 64a bytes past the initial heap.
// After every op the heap must agree with the model on the op's outcome and
// on every byte, and its free list must be sorted, non-overlapping and fully
// coalesced.
func FuzzHeapOps(f *testing.F) {
	f.Add([]byte{0, 10, 0, 0, 20, 1, 1, 0, 0, 1, 0, 0}) // alloc, alloc, free, double free
	f.Add([]byte{0, 8, 0, 0, 8, 0, 0, 8, 0, 1, 0, 0, 1, 2, 0, 1, 1, 0})
	f.Add([]byte{2, 0, 4, 2, 1, 4, 2, 0, 8, 0, 255, 1, 1, 7, 1}) // extensions, overlap, alloc across them
	f.Add([]byte{0, 0, 0, 2, 3, 0, 1, 9, 1})                     // zero-byte alloc and extension, stray free
	rng := rand.New(rand.NewSource(1))
	long := make([]byte, 3*200)
	rng.Read(long)
	f.Add(long)
	f.Fuzz(func(t *testing.T, ops []byte) {
		h := New(modelBase, modelSize)
		m := newHeapModel()
		var returned []isa.VAddr
		for k := 0; k+2 < len(ops); k += 3 {
			op, a, b := ops[k]%3, ops[k+1], ops[k+2]
			switch op {
			case 0:
				n := 2*int(a) + int(b%2)
				got, err := h.Alloc(n)
				want, ok := m.alloc(n)
				if (err == nil) != ok || got != want {
					t.Fatalf("op %d: Alloc(%d) = %#x, %v; model %#x, %v", k/3, n, uint64(got), err, uint64(want), ok)
				}
				if ok {
					returned = append(returned, got)
				}
			case 1:
				addr := isa.VAddr(modelBase + 8*int(a))
				if b%2 == 0 && len(returned) > 0 {
					addr = returned[int(a)%len(returned)]
				}
				err := h.Free(addr)
				if ok := m.free(addr); (err == nil) != ok {
					t.Fatalf("op %d: Free(%#x) = %v; model ok=%v", k/3, uint64(addr), err, ok)
				}
			case 2:
				addr, n := isa.VAddr(modelBase+modelSize+64*int(a)), 8*uint64(b)
				err := h.Extend(addr, n)
				if ok := m.extend(addr, n); (err == nil) != ok {
					t.Fatalf("op %d: Extend(%#x, %d) = %v; model ok=%v", k/3, uint64(addr), n, err, ok)
				}
			}
			checkAgainstModel(t, k/3, h, m)
		}
	})
}

func checkAgainstModel(t *testing.T, op int, h *Heap, m *heapModel) {
	t.Helper()
	var got [modelWindow]uint8
	for i, e := range h.free {
		if e.len == 0 {
			t.Fatalf("op %d: empty free extent at %#x", op, uint64(e.addr))
		}
		if i > 0 {
			prev := h.free[i-1]
			if end := prev.addr + isa.VAddr(prev.len); end >= e.addr {
				t.Fatalf("op %d: free extents %#x+%d and %#x+%d are unsorted, overlapping or uncoalesced",
					op, uint64(prev.addr), prev.len, uint64(e.addr), e.len)
			}
		}
		for j := uint64(0); j < e.len; j++ {
			got[uint64(e.addr)-modelBase+j] = byteFree
		}
	}
	for a, n := range h.live {
		for j := uint64(0); j < n; j++ {
			got[uint64(a)-modelBase+j] = byteLive
		}
	}
	if got != m.state {
		for i := range got {
			if got[i] != m.state[i] {
				t.Fatalf("op %d: byte %#x is %d in the heap, %d in the model", op, modelBase+i, got[i], m.state[i])
			}
		}
	}
	if len(h.live) != len(m.live) {
		t.Fatalf("op %d: %d live allocations, model %d", op, len(h.live), len(m.live))
	}
	for a, n := range m.live {
		if h.live[a] != n {
			t.Fatalf("op %d: allocation %#x is %d bytes, model %d", op, uint64(a), h.live[a], n)
		}
	}
	if h.FreeBytes()+h.LiveBytes() != h.Size() {
		t.Fatalf("op %d: free %d + live %d != size %d", op, h.FreeBytes(), h.LiveBytes(), h.Size())
	}
}
