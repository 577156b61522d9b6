package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// tmpSeq disambiguates concurrent temp files within one process; the PID
// disambiguates across processes sharing a store directory.
var tmpSeq atomic.Uint64

// FS is the filesystem driver: one file per entry named by its key,
// published by WriteFileAtomic on every Put, corrupt entries moved to a
// quarantine/ subdirectory. Multiple processes may share a
// directory: publishes are atomic renames from unique temp names, and the
// last writer of a key wins (entries are content-addressed, so concurrent
// writers of the same key carry identical payloads anyway).
type FS struct {
	root   string
	faults FaultInjector // nil = clean IO

	mu sync.Mutex // serializes fault decisions (injectors are not concurrent-safe)
}

// NewFS opens (creating if needed) a filesystem store rooted at dir. A
// non-nil FaultInjector perturbs subsequent physical IO — tests and chaos
// runs use it to force torn writes, ENOSPC and read errors.
func NewFS(dir string, faults FaultInjector) (*FS, error) {
	if dir == "" {
		return nil, errors.New("store: fs driver needs a directory (fs:<dir>)")
	}
	if err := os.MkdirAll(filepath.Join(dir, "quarantine"), 0o755); err != nil {
		return nil, fmt.Errorf("store: fs init: %w", err)
	}
	return &FS{root: dir, faults: faults}, nil
}

// Name implements Driver.
func (f *FS) Name() string { return "fs" }

func (f *FS) path(key string) string { return filepath.Join(f.root, key+".entry") }

// Put implements Driver: the fault injector may tear or refuse the write,
// then WriteFileAtomic publishes the (possibly torn) bytes under key.
func (f *FS) Put(key string, data []byte) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	keep := len(data)
	if f.faults != nil {
		f.mu.Lock()
		k, err := f.faults.WriteFault(len(data))
		f.mu.Unlock()
		if err != nil {
			return fmt.Errorf("store: fs write %s: %w: %w", key, ErrTransient, err)
		}
		keep = k
	}
	if err := WriteFileAtomic(f.path(key), data[:keep]); err != nil {
		return fmt.Errorf("store: fs write %s: %w: %w", key, ErrTransient, err)
	}
	return nil
}

// Get implements Driver.
func (f *FS) Get(key string) ([]byte, error) {
	if !validKey(key) {
		return nil, fmt.Errorf("store: invalid key %q", key)
	}
	if f.faults != nil {
		f.mu.Lock()
		err := f.faults.ReadFault()
		f.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("store: fs read %s: %w: %w", key, ErrTransient, err)
		}
	}
	data, err := os.ReadFile(f.path(key))
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return nil, ErrNotFound
	case err != nil:
		return nil, fmt.Errorf("store: fs read %s: %w: %w", key, ErrTransient, err)
	}
	return data, nil
}

// Has implements Driver with a stat: no read, no verification, no fault
// injection.
func (f *FS) Has(key string) bool {
	if !validKey(key) {
		return false
	}
	_, err := os.Stat(f.path(key))
	return err == nil
}

// Quarantine implements Driver: the corrupt entry moves to
// quarantine/<key>.entry.<seq>, so repeated corruption of the same key
// never overwrites earlier evidence.
func (f *FS) Quarantine(key string) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	dst := filepath.Join(f.root, "quarantine",
		fmt.Sprintf("%s.entry.%d-%d", key, os.Getpid(), tmpSeq.Add(1)))
	err := os.Rename(f.path(key), dst)
	if errors.Is(err, fs.ErrNotExist) {
		return nil // a concurrent reader already moved it
	}
	if err != nil {
		return fmt.Errorf("store: fs quarantine %s: %w", key, err)
	}
	return syncDir(f.root)
}

// Keys implements Driver.
func (f *FS) Keys() ([]string, error) {
	ents, err := os.ReadDir(f.root)
	if err != nil {
		return nil, fmt.Errorf("store: fs list: %w", err)
	}
	var keys []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".entry") {
			continue // quarantine/, temp files mid-publish
		}
		keys = append(keys, strings.TrimSuffix(name, ".entry"))
	}
	sort.Strings(keys)
	return keys, nil
}

// Flush implements Driver. Every Put already fsyncs its file and the
// directory, so the barrier only re-syncs the directory to cover renames
// performed by Quarantine.
func (f *FS) Flush() error { return syncDir(f.root) }

// Close implements Driver.
func (f *FS) Close() error { return nil }

// writeFileSync writes data to path and fsyncs it before closing — the
// first half of the atomic-publish protocol.
func writeFileSync(path string, data []byte) error {
	fh, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := fh.Write(data); err != nil {
		return errors.Join(err, fh.Close())
	}
	if err := fh.Sync(); err != nil {
		return errors.Join(err, fh.Close())
	}
	return fh.Close()
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss —
// rename alone only guarantees atomicity, not durability, until the parent
// directory's metadata reaches the journal.
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

// WriteFileAtomic publishes data under path: tmp + fsync + rename +
// parent-directory fsync. After it returns, the complete file is durable
// under path; a crash at any earlier point leaves the previous content (or
// nothing). The fs driver's Put and the experiments command's addr file
// use it.
func WriteFileAtomic(path string, data []byte) error {
	tmp := fmt.Sprintf("%s.tmp-%d-%d", path, os.Getpid(), tmpSeq.Add(1))
	if err := writeFileSync(tmp, data); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}
