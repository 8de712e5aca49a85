package agd

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// MemStore is an in-memory BlobStore, used by tests and as the backing for
// the simulated object store.
type MemStore struct {
	mu    sync.RWMutex
	blobs map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{blobs: make(map[string][]byte)}
}

// Put implements BlobStore.
func (s *MemStore) Put(name string, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	s.blobs[name] = cp
	s.mu.Unlock()
	return nil
}

// Get implements BlobStore.
func (s *MemStore) Get(name string) ([]byte, error) {
	s.mu.RLock()
	data, ok := s.blobs[name]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("get %q: %w", name, ErrNotFound)
	}
	return data, nil
}

// Delete implements BlobStore.
func (s *MemStore) Delete(name string) error {
	s.mu.Lock()
	delete(s.blobs, name)
	s.mu.Unlock()
	return nil
}

// List implements BlobStore.
func (s *MemStore) List(prefix string) ([]string, error) {
	s.mu.RLock()
	var names []string
	for name := range s.blobs {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	s.mu.RUnlock()
	sort.Strings(names)
	return names, nil
}

// Size returns the total bytes stored.
func (s *MemStore) Size() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, b := range s.blobs {
		n += int64(len(b))
	}
	return n
}

// DirStore is a BlobStore over a local directory; blob names map to file
// paths ('/' separators become directories). Puts are atomic: data lands in
// a temp file that is renamed over the final path, so a crash mid-Put can
// never leave a torn blob under a live name (it leaves at most an invisible
// temp file, which Get and List never surface).
type DirStore struct {
	root string
	// sem bounds concurrent async file reads (see GetAsync).
	sem chan struct{}
	// noSync skips the fsync calls of Put (NewDirStoreNoSync): atomicity
	// is kept (temp + rename) but durability is left to the OS — for
	// benchmarks and throwaway test dirs.
	noSync bool
}

// dirStoreParallelism is how many async file reads a DirStore keeps in
// flight: enough to fill a disk queue without exhausting file descriptors.
const dirStoreParallelism = 16

// tmpPattern marks in-flight Put temp files; List filters them out so a
// crashed Put's leftover is invisible rather than a phantom blob.
const (
	tmpPrefix = ".agd-put-"
	tmpSuffix = ".tmp"
)

// isTempName reports whether a path base names an in-flight Put temp file.
func isTempName(base string) bool {
	return strings.HasPrefix(base, tmpPrefix) && strings.HasSuffix(base, tmpSuffix)
}

// NewDirStore returns a store rooted at dir, creating it if needed.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DirStore{root: dir, sem: make(chan struct{}, dirStoreParallelism)}, nil
}

// NewDirStoreNoSync returns a store whose Puts stay atomic (temp + rename)
// but skip fsync — faster, with durability left to the OS's writeback.
func NewDirStoreNoSync(dir string) (*DirStore, error) {
	s, err := NewDirStore(dir)
	if err != nil {
		return nil, err
	}
	s.noSync = true
	return s, nil
}

func (s *DirStore) path(name string) string {
	return filepath.Join(s.root, filepath.FromSlash(name))
}

// Put implements BlobStore. The write is crash-safe: data goes to a temp
// file in the destination directory, is fsync'd, then renamed over the
// final path, and the directory is fsync'd so the rename itself is durable.
// A reader concurrent with Put (or a crash at any point) sees either the
// whole previous blob or the whole new one — never a prefix that would
// later fail the chunk checksum.
func (s *DirStore) Put(name string, data []byte) error {
	p := s.path(name)
	dir := filepath.Dir(p)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("put %q: %w", name, err)
	}
	tmp, err := os.CreateTemp(dir, tmpPrefix+"*"+tmpSuffix)
	if err != nil {
		return fmt.Errorf("put %q: %w", name, err)
	}
	tmpName := tmp.Name()
	// Any failure from here on removes the temp file; the final path is
	// untouched until the rename.
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("put %q: %w", name, err)
	}
	if _, err := tmp.Write(data); err != nil {
		return fail(err)
	}
	if !s.noSync {
		if err := tmp.Sync(); err != nil {
			return fail(err)
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("put %q: %w", name, err)
	}
	if err := os.Chmod(tmpName, 0o644); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("put %q: %w", name, err)
	}
	if err := os.Rename(tmpName, p); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("put %q: %w", name, err)
	}
	if !s.noSync {
		if err := syncDir(dir); err != nil {
			return fmt.Errorf("put %q: %w", name, err)
		}
	}
	return nil
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

// Get implements BlobStore.
func (s *DirStore) Get(name string) ([]byte, error) {
	data, err := os.ReadFile(s.path(name))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("get %q: %w", name, ErrNotFound)
	}
	if err != nil {
		return nil, fmt.Errorf("get %q: %w", name, err)
	}
	return data, nil
}

// Delete implements BlobStore.
func (s *DirStore) Delete(name string) error {
	err := os.Remove(s.path(name))
	if os.IsNotExist(err) || err == nil {
		return nil
	}
	return fmt.Errorf("delete %q: %w", name, err)
}

// List implements BlobStore. Only the deepest directory that prefix names is
// walked, and beneath it only the subtrees that can hold a match, so the cost
// follows what is listed, not what the store holds. A directory that does not
// exist lists as empty.
func (s *DirStore) List(prefix string) ([]string, error) {
	start := s.root
	if i := strings.LastIndexByte(prefix, '/'); i >= 0 {
		dir := filepath.FromSlash(prefix[:i])
		if !filepath.IsLocal(dir) {
			return nil, nil // blob names never leave the root, so nothing matches
		}
		start = filepath.Join(s.root, dir)
	}
	var names []string
	err := filepath.WalkDir(start, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if path == start && errors.Is(err, fs.ErrNotExist) {
				return filepath.SkipAll
			}
			return err
		}
		rel, err := filepath.Rel(s.root, path)
		if err != nil {
			return err
		}
		name := filepath.ToSlash(rel)
		switch {
		case d.IsDir():
			if path != start && !strings.HasPrefix(name+"/", prefix) {
				return filepath.SkipDir
			}
		case isTempName(d.Name()):
			// in-flight or crashed Put temp, not a blob
		case strings.HasPrefix(name, prefix):
			names = append(names, name)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("list %q: %w", prefix, err)
	}
	sort.Strings(names)
	return names, nil
}
