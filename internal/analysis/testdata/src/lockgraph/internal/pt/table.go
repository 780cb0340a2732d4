// Fixture stand-in: the page-table lock (rank 1, taken under a machine
// lock). A read-write lock here so a shared hold can invert the order too.
package pt

import "sync"

type Table struct {
	Mu sync.RWMutex
}
