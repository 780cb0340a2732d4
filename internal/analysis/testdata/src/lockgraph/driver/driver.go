// Fixture: the declared lock ranks. Acquiring a machine-level (rank 0) lock
// while the page-table (rank 1) lock is held inverts the hierarchy and is a
// finding at every site, including one that acquires it only through a
// callee; the documented order and sequential (non-overlapping) use are
// clean. Good and the inversions together also close a machine/page-table
// cycle, reported once at the first inverting edge.
package driver

import (
	"fix/internal/kos"
	"fix/internal/pt"
	"fix/internal/sgx"
)

// Documented order: machine before page table. Clean.
func Good(m *sgx.Machine, t *pt.Table) {
	m.Mu.Lock()
	t.Mu.Lock()
	t.Mu.Unlock()
	m.Mu.Unlock()
}

func Inverted(m *sgx.Machine, t *pt.Table) {
	t.Mu.Lock()
	m.Mu.Lock() // want "lockgraph/rank: driver.Inverted acquires the rank-0 sgx.Machine.Mu while holding the rank-1 pt.Table.Mu" // want "lockgraph/cycle: lock-acquisition cycle: pt.Table.Mu -> sgx.Machine.Mu \(driver.Inverted at .*\) -> pt.Table.Mu \(driver.Good at "
	m.Mu.Unlock()
	t.Mu.Unlock()
}

// Deferred releases hold to function exit, so the machine acquisition below
// still happens under the page-table lock.
func DeferredRelease(m *sgx.Machine, t *pt.Table) {
	t.Mu.Lock()
	defer t.Mu.Unlock()
	m.Mu.Lock() // want "lockgraph/rank: driver.DeferredRelease acquires the rank-0 sgx.Machine.Mu while holding the rank-1 pt.Table.Mu"
	defer m.Mu.Unlock()
}

// Sequential use never overlaps: clean.
func SequentialOK(m *sgx.Machine, t *pt.Table) {
	t.Mu.Lock()
	t.Mu.Unlock()
	m.Mu.Lock()
	m.Mu.Unlock()
}

// Read locks participate in the hierarchy like write locks.
func ReadInversion(k *kos.Kernel, t *pt.Table) {
	t.Mu.RLock()
	k.Mu.Lock() // want "lockgraph/rank: driver.ReadInversion acquires the rank-0 kos.Kernel.Mu while holding the rank-1 pt.Table.Mu"
	k.Mu.Unlock()
	t.Mu.RUnlock()
}

func lockMachine(m *sgx.Machine) {
	m.Mu.RLock()
	m.Mu.RUnlock()
}

// No single function holds both locks here: the inversion happens only
// through the callee.
func ThroughCallee(m *sgx.Machine, t *pt.Table) {
	t.Mu.Lock()
	lockMachine(m) // want "lockgraph/rank: driver.ThroughCallee acquires the rank-0 sgx.Machine.Mu via driver.lockMachine while holding the rank-1 pt.Table.Mu"
	t.Mu.Unlock()
}
