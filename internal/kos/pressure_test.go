package kos_test

import (
	"bytes"
	"fmt"
	"testing"

	"nestedenclave/internal/cache"
	"nestedenclave/internal/isa"
	"nestedenclave/internal/kos"
	"nestedenclave/internal/measure"
	"nestedenclave/internal/phys"
	"nestedenclave/internal/sgx"
)

// tinyEPCMachine has room for only a few dozen EPC pages, forcing the
// paging daemon to work.
func tinyEPCMachine() *sgx.Machine {
	return sgx.MustNew(sgx.Config{
		Cores: 2,
		Phys: phys.Layout{
			DRAMSize: 8 << 20,
			PRMBase:  2 << 20,
			PRMSize:  256 * isa.PageSize, // 256 EPC pages
		},
		LLC: cache.Config{SizeBytes: 256 << 10, Ways: 8},
	})
}

// buildEnclaveN constructs an enclave with n RW data pages holding a
// per-page fill pattern, returning the SECS.
func buildEnclaveN(t *testing.T, k *kos.Kernel, p *kos.Process, base isa.VAddr, n int) *sgx.SECS {
	t.Helper()
	size := uint64(n+1) * isa.PageSize
	s, err := k.Driver.CreateEnclave(base, size, 0)
	if err != nil {
		t.Fatalf("ECREATE: %v", err)
	}
	b := measure.NewBuilder()
	b.ECreate(size, 0)
	for i := 0; i < n; i++ {
		v := base + isa.VAddr(i)*isa.PageSize
		content := bytes.Repeat([]byte{byte(i + 1)}, isa.PageSize)
		if err := k.Driver.AddPage(p, s, sgx.AddPageArgs{
			Vaddr: v, Type: isa.PTReg, Perms: isa.PermRW, Content: content, Measure: true,
		}); err != nil {
			t.Fatalf("EADD %d: %v", i, err)
		}
		b.EAdd(uint64(v-base), isa.PTReg, isa.PermRW)
		for ch := 0; ch < isa.PageSize; ch += isa.ExtendChunk {
			b.EExtend(uint64(v-base)+uint64(ch), content[ch:ch+isa.ExtendChunk])
		}
	}
	tcsV := base + isa.VAddr(n)*isa.PageSize
	if err := k.Driver.AddPage(p, s, sgx.AddPageArgs{Vaddr: tcsV, Type: isa.PTTCS}); err != nil {
		t.Fatalf("EADD tcs: %v", err)
	}
	b.EAdd(uint64(tcsV-base), isa.PTTCS, 0)
	author := measure.MustNewAuthor()
	if err := k.Driver.InitEnclave(s, author.Sign(b.Finalize(), nil, nil)); err != nil {
		t.Fatalf("EINIT: %v", err)
	}
	return s
}

// TestPagingDaemonOversubscription builds enclaves whose combined footprint
// exceeds the EPC; the paging daemon must evict victims transparently, and
// every page's content must survive the round trips through untrusted swap.
func TestPagingDaemonOversubscription(t *testing.T) {
	m := tinyEPCMachine()
	k := kos.New(m)
	p := k.NewProcess()
	c := m.Core(0)
	if err := k.Schedule(c, p); err != nil {
		t.Fatal(err)
	}

	// 256 EPC pages total; build 3 enclaves of 100 data pages each
	// (~306 pages + SECS/TCS overhead) — well oversubscribed.
	const perEnclave = 100
	var encls []*sgx.SECS
	for i := 0; i < 3; i++ {
		base := isa.VAddr(0x1000_0000 * (i + 1))
		encls = append(encls, buildEnclaveN(t, k, p, base, perEnclave))
	}
	if k.Driver.EvictedCount() == 0 {
		t.Fatal("oversubscription produced no evictions")
	}

	// Every page of every enclave still reads its fill pattern (reloaded on
	// demand through the fault handler).
	for i, s := range encls {
		base := isa.VAddr(0x1000_0000 * (i + 1))
		tcsV := base + perEnclave*isa.PageSize
		tcs, err := s.FindTCS(tcsV)
		if err != nil {
			t.Fatal(err)
		}
		_ = tcs
		if err := m.EEnter(c, s, tcsV, false); err != nil {
			t.Fatalf("enter enclave %d: %v", i, err)
		}
		for pg := 0; pg < perEnclave; pg += 7 {
			got, err := c.Read(base+isa.VAddr(pg)*isa.PageSize+100, 4)
			if err != nil {
				t.Fatalf("enclave %d page %d: %v", i, pg, err)
			}
			want := byte(pg + 1)
			for _, x := range got {
				if x != want {
					t.Fatalf("enclave %d page %d: content %v, want %#x", i, pg, got, want)
				}
			}
		}
		if err := m.EExit(c, true); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPagingDaemonThrashing alternates accesses between two enclaves that
// cannot both be resident, exercising evict-reload-evict cycles.
func TestPagingDaemonThrashing(t *testing.T) {
	m := tinyEPCMachine()
	k := kos.New(m)
	p := k.NewProcess()
	c := m.Core(0)
	if err := k.Schedule(c, p); err != nil {
		t.Fatal(err)
	}
	const perEnclave = 110 // 2x110 data pages + overhead > 256 EPC pages
	a := buildEnclaveN(t, k, p, 0x1000_0000, perEnclave)
	b := buildEnclaveN(t, k, p, 0x2000_0000, perEnclave)

	read := func(s *sgx.SECS, base isa.VAddr, pg int) error {
		tcsV := base + perEnclave*isa.PageSize
		if err := m.EEnter(c, s, tcsV, false); err != nil {
			return err
		}
		got, err := c.Read(base+isa.VAddr(pg)*isa.PageSize, 2)
		if err != nil {
			_ = m.EExit(c, true)
			return err
		}
		if got[0] != byte(pg+1) {
			_ = m.EExit(c, true)
			return fmt.Errorf("page %d content %v", pg, got)
		}
		return m.EExit(c, true)
	}
	for round := 0; round < 4; round++ {
		for pg := 0; pg < perEnclave; pg += 13 {
			if err := read(a, 0x1000_0000, pg); err != nil {
				t.Fatalf("round %d enclave a page %d: %v", round, pg, err)
			}
			if err := read(b, 0x2000_0000, pg); err != nil {
				t.Fatalf("round %d enclave b page %d: %v", round, pg, err)
			}
		}
	}
	if bad := m.AuditTLBs(); len(bad) != 0 {
		t.Fatalf("stale translations after thrash: %v", bad)
	}
}

// TestCreateEnclaveUnderPressure fills the EPC exactly with one enclave's
// evictable pages and then loads a second enclave: ECREATE's SECS page must
// page a victim out like EADD does, not fail with an exhausted EPC.
func TestCreateEnclaveUnderPressure(t *testing.T) {
	m := tinyEPCMachine()
	k := kos.New(m)
	p := k.NewProcess()
	c := m.Core(0)
	if err := k.Schedule(c, p); err != nil {
		t.Fatal(err)
	}
	fill := m.FreeEPCPages() - 2 // all but the SECS and TCS pages
	buildEnclaveN(t, k, p, 0x1000_0000, fill)
	if free := m.FreeEPCPages(); free != 0 {
		t.Fatalf("EPC not full after the first enclave: %d free pages", free)
	}
	if k.Driver.EvictedCount() != 0 {
		t.Fatalf("first enclave already paged: %d evicted", k.Driver.EvictedCount())
	}

	const n = 8
	base := isa.VAddr(0x2000_0000)
	s := buildEnclaveN(t, k, p, base, n)
	if k.Driver.EvictedCount() == 0 {
		t.Fatal("second enclave loaded into a full EPC without evictions")
	}
	if err := m.EEnter(c, s, base+n*isa.PageSize, false); err != nil {
		t.Fatalf("enter second enclave: %v", err)
	}
	defer func() { _ = m.EExit(c, true) }()
	for pg := 0; pg < n; pg++ {
		got, err := c.Read(base+isa.VAddr(pg)*isa.PageSize+100, 4)
		if err != nil {
			t.Fatalf("page %d: %v", pg, err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(pg + 1)}, 4)) {
			t.Fatalf("page %d: content %v, want %#x", pg, got, pg+1)
		}
	}
}
