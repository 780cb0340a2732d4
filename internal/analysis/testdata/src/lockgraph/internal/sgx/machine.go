// Fixture stand-in: the machine-level lock (rank 0, acquired first).
package sgx

import "sync"

type Machine struct {
	Mu sync.RWMutex
}
