//go:build unix

package mem

import (
	"math"
	"sync/atomic"
	"syscall"
)

// liveMappings counts mappings made and not yet unmapped: the tests hold
// the finalizer to returning it to its baseline.
var liveMappings atomic.Int64

// mapAnon maps size bytes of anonymous private memory, which the kernel
// zero-fills page by page on first touch.
func mapAnon(size uint64) ([]byte, error) {
	if size > math.MaxInt {
		return nil, syscall.ENOMEM
	}
	b, err := syscall.Mmap(-1, 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	liveMappings.Add(1)
	return b, nil
}

// unmap releases a mapAnon mapping. A failed munmap leaks address range
// and stays counted.
func unmap(b []byte) {
	if syscall.Munmap(b) == nil {
		liveMappings.Add(-1)
	}
}
