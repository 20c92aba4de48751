//go:build !unix

package mem

import "errors"

// mapAnon has no portable implementation here: New falls back to make.
func mapAnon(size uint64) ([]byte, error) { return nil, errors.ErrUnsupported }

func unmap([]byte) {}
