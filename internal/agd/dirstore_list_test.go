package agd

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestDirStoreListMatchesMemStore holds DirStore.List, which walks only the
// directory a prefix names, to MemStore.List's plain string-prefix semantics
// over every prefix of every stored name plus prefixes that match nothing.
func TestDirStoreListMatchesMemStore(t *testing.T) {
	names := []string{
		"top.json",
		"jobs/ab.json",
		"jobs/abc/x",
		"jobs/abc/deep/er/y",
		"jobs/abd/x",
		"jobs/b/x",
		"jobsx/z",
		".jobs/journal/0001",
		"ds/chunk-000000.bases",
		"ds/chunk-000001.bases",
		"ds/manifest.json",
	}
	root := t.TempDir()
	dir, err := NewDirStore(root)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemStore()
	for _, n := range names {
		for _, s := range []BlobStore{dir, mem} {
			if err := s.Put(n, []byte(n)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A crashed Put's temp file is not a blob, wherever the walk starts.
	for _, d := range []string{"", "jobs", "jobs/abc"} {
		tmp := filepath.Join(root, d, tmpPrefix+"123"+tmpSuffix)
		if err := os.WriteFile(tmp, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	prefixes := []string{"", "/", "nope", "nope/", "jobs/nope/x", "jobs/abc/x/under-a-file", "jobs//abc", "../", "jobs/../ds/"}
	for _, n := range names {
		for i := 1; i <= len(n); i++ {
			prefixes = append(prefixes, n[:i])
		}
		prefixes = append(prefixes, n+"/", n+"x")
	}
	matchedMidName := false
	for _, p := range prefixes {
		got, err := dir.List(p)
		if err != nil {
			t.Fatalf("DirStore.List(%q): %v", p, err)
		}
		want, err := mem.List(p)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("List(%q):\n dir %q\n mem %q", p, got, want)
		}
		if p == "jobs/ab" {
			matchedMidName = slices.Contains(got, "jobs/ab.json") && slices.Contains(got, "jobs/abc/x")
		}
	}
	if !matchedMidName {
		t.Error(`List("jobs/ab") must match both jobs/ab.json and jobs/abc/x`)
	}
}
