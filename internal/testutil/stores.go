package testutil

import (
	"testing"

	"persona/internal/agd"
)

// CopyStore returns a fresh MemStore holding every blob of src.
func CopyStore(t testing.TB, src agd.BlobStore) *agd.MemStore {
	t.Helper()
	dst := agd.NewMemStore()
	for name, blob := range Blobs(t, src, "") {
		if err := dst.Put(name, blob); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// Blobs returns name → contents of every blob under prefix.
func Blobs(t testing.TB, store agd.BlobStore, prefix string) map[string][]byte {
	t.Helper()
	names, err := store.List(prefix)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(names))
	for _, n := range names {
		blob, err := store.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		out[n] = blob
	}
	return out
}

// SameBlobs fails the test unless got and want hold the same names and bytes.
func SameBlobs(t testing.TB, what string, got, want map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d blobs, reference has %d", what, len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("%s: blob %q missing", what, name)
		}
		if string(g) != string(w) {
			t.Fatalf("%s: blob %q differs from the reference (%d vs %d bytes)", what, name, len(g), len(w))
		}
	}
}
