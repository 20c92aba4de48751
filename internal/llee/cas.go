package llee

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"llva/internal/telemetry"
)

// CASStorage is the content-addressed on-disk cache, the one persistent
// Storage: NewDirStorage returns it and nothing else writes to a cache
// directory.
//
// Entries are stored once per unique content: the object file name is
// the SHA-256 of the entry's stamp and payload, and a small index maps
// logical keys ("native:mod:target", a module's code, one record per
// function whatever tier produced it, and "guestprof:...") to content
// hashes. A fleet of machines translating the same module
// therefore shares one copy of the native code no matter how many
// logical keys point at it, and an entry rewritten with identical
// content costs one hash, not one file write.
//
// The index carries an LRU sequence per key; when a byte cap is set
// (SetMaxBytes, llva-run -cache-max-bytes) writes evict
// least-recently-used keys until the unique-object total fits, and a
// read hit rewrites the index to record its recency, so stores sharing
// the directory evict on each other's reads. Without a cap nothing is
// ever evicted and a hit writes nothing. Reads verify the object's hash
// before trusting it — a flipped bit is a recorded miss, never bad code.
//
// Layout under the cache directory:
//
//	objects/<sha256 hex>   stamp line + payload (self-describing)
//	index.llvaidx          "LLVAIDX 1" header, then "seq hash size key"
//
// Any other file in the directory is foreign: never read, listed or
// removed.
//
// Concurrency: one CASStorage serializes its operations with a mutex,
// and the index and every object are replaced atomically (temp file +
// rename + fsync), so concurrent stores sharing a directory never
// observe torn data. Two processes racing on the index settle
// last-writer-wins; that can momentarily drop the loser's index entry,
// but never its object — the entry reappears on the next write-back,
// which dedups against the still-present object.
type CASStorage struct {
	dir string

	mu       sync.Mutex
	maxBytes int64
	tele     *telemetry.Registry
	seq      uint64
}

// CAS metric families (recorded when SetTelemetry attached a registry).
const (
	MetricCASHits      = "llee.cas.hits"
	MetricCASMisses    = "llee.cas.misses"
	MetricCASDedups    = "llee.cas.dedup_hits"
	MetricCASEvictions = "llee.cas.evictions"
	MetricCASCorrupt   = "llee.cas.corrupt"
	MetricCASBytes     = "llee.cas.bytes"
)

// NewDirStorage opens (creating if needed) the content-addressed disk
// cache rooted at dir.
func NewDirStorage(dir string) (*CASStorage, error) {
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, err
	}
	return &CASStorage{dir: dir}, nil
}

// SetMaxBytes caps the unique-object bytes kept on disk; writes evict
// least-recently-used keys beyond it. Zero (the default) is unlimited.
func (s *CASStorage) SetMaxBytes(n int64) {
	s.mu.Lock()
	s.maxBytes = n
	s.mu.Unlock()
}

// SetTelemetry attaches a registry for the llee.cas.* counters.
func (s *CASStorage) SetTelemetry(reg *telemetry.Registry) {
	s.mu.Lock()
	s.tele = reg
	s.mu.Unlock()
}

func (s *CASStorage) count(metric string) {
	if s.tele != nil {
		s.tele.Counter(metric).Inc()
	}
}

// casEntry is one logical key's index record.
type casEntry struct {
	hash string
	size int64
	seq  uint64
}

const casIndexName = "index.llvaidx"
const casIndexMagic = "LLVAIDX 1"

func (s *CASStorage) objectPath(hash string) string {
	return filepath.Join(s.dir, "objects", hash)
}

// loadIndex reads the on-disk index fresh — disk is the authoritative
// copy, so stores sharing one directory see each other's writes.
// Malformed lines are skipped: they are foreign garbage, not ours.
func (s *CASStorage) loadIndex() map[string]casEntry {
	idx := make(map[string]casEntry)
	blob, err := os.ReadFile(filepath.Join(s.dir, casIndexName))
	if err != nil {
		return idx
	}
	lines := strings.Split(string(blob), "\n")
	if len(lines) == 0 || lines[0] != casIndexMagic {
		return idx
	}
	for _, ln := range lines[1:] {
		f := strings.Fields(ln)
		if len(f) != 4 {
			continue
		}
		seq, err1 := strconv.ParseUint(f[0], 10, 64)
		size, err2 := strconv.ParseInt(f[2], 10, 64)
		if err1 != nil || err2 != nil || len(f[1]) != sha256.Size*2 {
			continue
		}
		idx[decodeKey(f[3])] = casEntry{hash: f[1], size: size, seq: seq}
		if seq > s.seq {
			s.seq = seq
		}
	}
	return idx
}

// storeIndex atomically replaces the on-disk index and refreshes the
// bytes gauge.
func (s *CASStorage) storeIndex(idx map[string]casEntry) error {
	keys := make([]string, 0, len(idx))
	for k := range idx {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(casIndexMagic)
	b.WriteByte('\n')
	for _, k := range keys {
		e := idx[k]
		fmt.Fprintf(&b, "%d %s %d %s\n", e.seq, e.hash, e.size, encodeKey(k))
	}
	if err := atomicWriteFile(s.dir, filepath.Join(s.dir, casIndexName), []byte(b.String())); err != nil {
		return err
	}
	if s.tele != nil {
		s.tele.Gauge(MetricCASBytes).Set(uniqueBytes(idx))
	}
	return nil
}

// uniqueBytes is the deduplicated on-disk footprint of the index.
func uniqueBytes(idx map[string]casEntry) int64 {
	seen := make(map[string]int64, len(idx))
	for _, e := range idx {
		seen[e.hash] = e.size
	}
	var total int64
	for _, n := range seen {
		total += n
	}
	return total
}

// casHash is the content address: the stamp and payload hashed
// together, exactly as laid out in the object file, so verifying an
// object is rehashing its bytes. The target is part of the payload
// (cachedObject.TargetName), so translations for different processors
// never collide.
func casHash(stamp string, data []byte) string {
	h := sha256.New()
	h.Write([]byte(stamp))
	h.Write([]byte{'\n'})
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil))
}

// Write implements Storage. Identical content — same stamp, same
// payload, any logical key — is stored once: a second write of an
// existing object updates only the index (a dedup hit).
func (s *CASStorage) Write(key, stamp string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := s.loadIndex()
	hash := casHash(stamp, data)
	if _, err := os.Stat(s.objectPath(hash)); err == nil {
		s.count(MetricCASDedups)
	} else {
		blob := make([]byte, 0, len(stamp)+1+len(data))
		blob = append(blob, stamp...)
		blob = append(blob, '\n')
		blob = append(blob, data...)
		if err := atomicWriteFile(filepath.Join(s.dir, "objects"), s.objectPath(hash), blob); err != nil {
			return err
		}
	}
	s.seq++
	old := idx[key]
	idx[key] = casEntry{hash: hash, size: int64(len(stamp)) + 1 + int64(len(data)), seq: s.seq}
	s.evictLocked(idx, key)
	if err := s.storeIndex(idx); err != nil {
		return err
	}
	if old.hash != "" && old.hash != hash {
		s.gcObject(idx, old.hash)
	}
	return nil
}

// evictLocked drops least-recently-used keys until the unique-object
// total fits the byte cap. The just-written key is never evicted: a
// cap smaller than one entry must not turn writes into no-ops.
func (s *CASStorage) evictLocked(idx map[string]casEntry, justWritten string) {
	if s.maxBytes <= 0 {
		return
	}
	for uniqueBytes(idx) > s.maxBytes {
		victim := ""
		var vseq uint64
		for k, e := range idx {
			if k == justWritten {
				continue
			}
			if victim == "" || e.seq < vseq {
				victim, vseq = k, e.seq
			}
		}
		if victim == "" {
			return
		}
		hash := idx[victim].hash
		delete(idx, victim)
		s.gcObject(idx, hash)
		s.count(MetricCASEvictions)
		if s.tele != nil {
			s.tele.Events().Emit(telemetry.EvCacheEvicted, victim, 0)
		}
	}
}

// gcObject removes an object file once no index entry references it.
func (s *CASStorage) gcObject(idx map[string]casEntry, hash string) {
	for _, e := range idx {
		if e.hash == hash {
			return
		}
	}
	os.Remove(s.objectPath(hash))
}

// Read implements Storage. The object's bytes are rehashed before use;
// a mismatch (torn foreign write, bit rot) is a recorded miss, so the
// system falls back to translation instead of running bad code.
func (s *CASStorage) Read(key string) ([]byte, string, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := s.loadIndex()
	e, ok := idx[key]
	if !ok {
		s.count(MetricCASMisses)
		return nil, "", false, nil
	}
	blob, err := os.ReadFile(s.objectPath(e.hash))
	if err != nil {
		s.dropCorrupt(idx, key)
		return nil, "", false, nil
	}
	sum := sha256.Sum256(blob)
	if hex.EncodeToString(sum[:]) != e.hash {
		os.Remove(s.objectPath(e.hash))
		s.dropCorrupt(idx, key)
		return nil, "", false, nil
	}
	i := strings.IndexByte(string(blob), '\n')
	if i < 0 {
		s.dropCorrupt(idx, key)
		return nil, "", false, nil
	}
	if s.maxBytes > 0 {
		// Recency is recorded only where something can be evicted on it:
		// without a cap a hit writes nothing. The bump is best effort: on
		// a read-only or full cache directory (a pre-populated system
		// cache) the index cannot be rewritten, and data that just passed
		// its hash check is still a hit.
		s.seq++
		e.seq = s.seq
		idx[key] = e
		_ = s.storeIndex(idx)
	}
	s.count(MetricCASHits)
	return blob[i+1:], string(blob[:i]), true, nil
}

// dropCorrupt unlinks a key whose object went bad and records it.
func (s *CASStorage) dropCorrupt(idx map[string]casEntry, key string) {
	hash := idx[key].hash
	delete(idx, key)
	s.storeIndex(idx)
	s.gcObject(idx, hash)
	s.count(MetricCASCorrupt)
	s.count(MetricCASMisses)
}

// Delete implements Storage.
func (s *CASStorage) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := s.loadIndex()
	e, ok := idx[key]
	if !ok {
		return nil
	}
	delete(idx, key)
	if err := s.storeIndex(idx); err != nil {
		return err
	}
	s.gcObject(idx, e.hash)
	return nil
}

// Keys implements Storage: the indexed keys, sorted.
func (s *CASStorage) Keys() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := s.loadIndex()
	out := make([]string, 0, len(idx))
	for k := range idx {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

// atomicWriteFile writes data to path durably: temp file in dir,
// fsync, rename, fsync the directory — after it returns, a crash
// leaves either the old file or the complete new one, never a torn or
// vanished entry.
func atomicWriteFile(dir, path string, data []byte) error {
	tmp, err := os.CreateTemp(dir, ".llvacas-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
