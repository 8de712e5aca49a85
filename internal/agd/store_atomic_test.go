package agd

// DirStore.Put crash-safety: a Put that dies mid-write must never leave a
// torn blob under a live name — at worst an invisible temp file. These tests
// simulate the crash states a torn write can leave behind and hammer the
// rename path with concurrent readers.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestDirStorePutTornWriteInvisible simulates a crash mid-Put — a partial
// temp file on disk, the rename never issued — and asserts the store never
// surfaces it: Get of the target name sees the old blob (or ErrNotFound),
// List omits the temp, and a later Put of the same name lands cleanly.
func TestDirStorePutTornWriteInvisible(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	// A checksummed chunk blob is the realistic payload: if a torn prefix of
	// it ever surfaced under the live name, decode would fail ErrChecksum.
	c := buildRawChunk(t, [][]byte{[]byte("acgtacgt"), []byte("ttttcccc")})
	blob, err := Codec{}.Encode(c, CompressGzip)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("ds/chunk-000000.bases", blob); err != nil {
		t.Fatal(err)
	}

	// Crash state: a torn temp write next to the blob (what a power cut
	// mid-Put leaves behind under the temp-then-rename discipline).
	torn := filepath.Join(dir, "ds", tmpPrefix+"12345"+tmpSuffix)
	if err := os.WriteFile(torn, blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	// And a torn temp for a name that was never fully Put.
	tornNew := filepath.Join(dir, "ds", tmpPrefix+"67890"+tmpSuffix)
	if err := os.WriteFile(tornNew, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := s.Get("ds/chunk-000000.bases")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatal("existing blob changed by a crashed Put")
	}
	if _, err := DecodeChunk(got); err != nil {
		t.Fatalf("blob no longer decodes after crashed Put: %v", err)
	}
	if _, err := s.Get("ds/chunk-000001.bases"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get of never-completed name = %v, want ErrNotFound", err)
	}
	names, err := s.List("ds/")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "ds/chunk-000000.bases" {
		t.Fatalf("List = %v, want only the completed blob", names)
	}

	// The crashed Put must not block a clean retry of the same name.
	if err := s.Put("ds/chunk-000001.bases", blob); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get("ds/chunk-000001.bases"); err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("retried Put round trip: %v", err)
	}
}

// TestDirStorePutAtomicUnderConcurrentReads: readers racing Puts of
// different payloads under the same name must only ever observe one payload
// in full — never a prefix or a mix (the failure a non-atomic WriteFile
// allows).
func TestDirStorePutAtomicUnderConcurrentReads(t *testing.T) {
	s, err := NewDirStoreNoSync(t.TempDir()) // atomicity is what's under test
	if err != nil {
		t.Fatal(err)
	}
	a := bytes.Repeat([]byte{'a'}, 64<<10)
	b := bytes.Repeat([]byte{'b'}, 96<<10)
	if err := s.Put("blob", a); err != nil {
		t.Fatal(err)
	}

	const writes = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	fail := make(chan string, 1)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := s.Get("blob")
				if err != nil {
					select {
					case fail <- "get failed mid-rename: " + err.Error():
					default:
					}
					return
				}
				if !bytes.Equal(got, a) && !bytes.Equal(got, b) {
					select {
					case fail <- "torn read: saw neither payload in full":
					default:
					}
					return
				}
			}
		}()
	}
	for i := 0; i < writes; i++ {
		p := a
		if i%2 == 1 {
			p = b
		}
		if err := s.Put("blob", p); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}

	// No temp-file debris after the churn.
	entries, err := os.ReadDir(s.root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if isTempName(e.Name()) {
			t.Fatalf("leaked Put temp file %q", e.Name())
		}
	}
}
