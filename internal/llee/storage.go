// Package llee is the Low-Level Execution Environment: the transparent
// execution manager of the paper's Section 4.1 and Figure 3. It
// orchestrates translation — "offline translation when possible, online
// translation whenever necessary" — through an OS-independent storage API
// that an operating system MAY implement: caching of translated native
// code and profile information is strictly optional and the system
// operates correctly in its absence.
package llee

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"

	"llva/internal/codegen"
)

// Storage is the V-ABI storage API (paper, Section 4.1): create, delete
// and query offline caches; read and write vectors of bytes tagged by a
// unique string name; and validate entries against a stamp recorded when
// they were written (the paper's timestamp check — content stamps keep
// the implementation hermetic and deterministic).
type Storage interface {
	// Write stores data under key with the given validation stamp.
	Write(key string, stamp string, data []byte) error
	// Read returns the data and stamp stored under key.
	Read(key string) (data []byte, stamp string, ok bool, err error)
	// Delete removes an entry (no-op when absent).
	Delete(key string) error
	// Keys lists stored keys (for cache inspection tools).
	Keys() ([]string, error)
}

// Stamp computes the validation stamp of a blob under this build's
// translator: the blob's hash, then codegen.Revision. It ties cached
// translations — and the guest profiles counted on them — to the exact
// virtual object code they were derived from and to the translator that
// derived them, so an entry either of the two has moved away from reads
// as a stamp mismatch.
func Stamp(data []byte) string {
	h := sha256.Sum256(data)
	var b [16 + len(stampRevision)]byte
	hex.Encode(b[:16], h[:8])
	copy(b[16:], stampRevision)
	return string(b[:])
}

// stampRevision is every stamp's suffix (a constant, so Stamp formats
// into a fixed array).
const stampRevision = "-t" + codegen.Revision

// MemStorage is an in-memory Storage, the default for tests and for
// systems whose OS has not registered a persistent implementation.
type MemStorage struct {
	mu sync.Mutex
	m  map[string]memEntry
}

type memEntry struct {
	stamp string
	data  []byte
}

// NewMemStorage creates an empty in-memory store.
func NewMemStorage() *MemStorage {
	return &MemStorage{m: make(map[string]memEntry)}
}

// Write implements Storage.
func (s *MemStorage) Write(key, stamp string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = memEntry{stamp: stamp, data: append([]byte(nil), data...)}
	return nil
}

// Read implements Storage.
func (s *MemStorage) Read(key string) ([]byte, string, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[key]
	if !ok {
		return nil, "", false, nil
	}
	return append([]byte(nil), e.data...), e.stamp, true, nil
}

// Delete implements Storage.
func (s *MemStorage) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, key)
	return nil
}

// Keys implements Storage.
func (s *MemStorage) Keys() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.m))
	for k := range s.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

// encodeKey maps a cache key to the token that ends its line of the CAS
// index, injectively: bytes outside [A-Za-z0-9._-] become %XX hex escapes
// ('%' and white space included), so distinct keys such as "a/b" and
// "a_b" can never collide and a key never splits a line.
func encodeKey(key string) string {
	var b strings.Builder
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	return b.String()
}

// decodeKey inverts encodeKey; malformed escapes are kept literally (a
// foreign line in the index, not one of ours).
func decodeKey(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		if name[i] == '%' && i+2 < len(name) {
			if hi, lo := unhex(name[i+1]), unhex(name[i+2]); hi >= 0 && lo >= 0 {
				b.WriteByte(byte(hi<<4 | lo))
				i += 2
				continue
			}
		}
		b.WriteByte(name[i])
	}
	return b.String()
}

func unhex(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	}
	return -1
}
