// Fixture stand-in: the kernel lock is machine-level too (rank 0).
package kos

import "sync"

type Kernel struct {
	Mu sync.Mutex
}
