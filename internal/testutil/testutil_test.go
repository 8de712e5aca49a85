package testutil

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"persona/internal/agd"
)

// TestBuildEBlobIdentity pins every blob BuildE writes — chunks and manifest,
// unaligned and aligned, whole chunks and a short last one — by SHA-256 over
// each blob's name, size and bytes in name order.
func TestBuildEBlobIdentity(t *testing.T) {
	want := map[string]string{
		"unaligned": "ed8aecba88ce3f97e969ea75cd13df6f52ffe011e06763cffe9e6036f005df28",
		"aligned":   "78e27617d62fee52035e5f03947e1aefc4587dc392d2bb79febe0b152081d140",
	}
	for what, skip := range map[string]bool{"unaligned": true, "aligned": false} {
		store := agd.NewMemStore()
		if _, err := BuildE(store, "ds", Config{GenomeSize: 100_000, NumReads: 650, ChunkSize: 100, DupFrac: 0.12, Seed: 4242, SkipAlign: skip}); err != nil {
			t.Fatal(err)
		}
		blobs := Blobs(t, store, "")
		names := make([]string, 0, len(blobs))
		for name := range blobs {
			names = append(names, name)
		}
		slices.Sort(names)
		sum := sha256.New()
		for _, name := range names {
			fmt.Fprintf(sum, "%s %d\n", name, len(blobs[name]))
			sum.Write(blobs[name])
		}
		if got := hex.EncodeToString(sum.Sum(nil)); got != want[what] {
			t.Errorf("%s: %d blobs hash %s, want %s", what, len(names), got, want[what])
		}
	}
}
