package bgzf_test

import (
	"bytes"
	"context"
	"io"
	"testing"

	"persona"
	"persona/internal/agd"
	"persona/internal/formats/bgzf"
	"persona/internal/testutil"
)

// TestBAMStoredSize pins what the block encoder may cost in space on the
// payload it exists for: a BAM of the fixture is no more than 2 % larger
// than the same blocks from the encoder of earlier releases (compress/gzip
// at BestSpeed), and an earlier release's BAM reads back to the same bytes.
func TestBAMStoredSize(t *testing.T) {
	store := agd.NewMemStore()
	testutil.Build(t, store, "ds", testutil.Config{GenomeSize: 300_000, NumReads: 6000, ChunkSize: 2000, DupFrac: 0.12, Seed: 16})
	var out bytes.Buffer
	if _, err := persona.ExportBAM(context.Background(), store, "ds", &out); err != nil {
		t.Fatal(err)
	}
	written := out.Len()
	payload, err := io.ReadAll(bgzf.NewReader(&out))
	if err != nil {
		t.Fatal(err)
	}
	var earlier []byte
	for rest := payload; len(rest) > 0; {
		n := min(len(rest), bgzf.MaxBlockSize)
		earlier = append(earlier, bgzf.RefCompressBlock(rest[:n])...)
		rest = rest[n:]
	}
	earlier = append(earlier, bgzf.EOFMarker...)
	t.Logf("BAM of %d payload bytes: %d stored, earlier encoder %d (%.3f)", len(payload), written, len(earlier), float64(written)/float64(len(earlier)))
	if written > len(earlier)+len(earlier)/50 {
		t.Fatalf("BAM stores %d bytes, the earlier encoder %d: more than 2 %% over", written, len(earlier))
	}
	got, err := io.ReadAll(bgzf.NewReader(bytes.NewReader(earlier)))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("BAM of an earlier release reads back %d bytes, %v", len(got), err)
	}
}
