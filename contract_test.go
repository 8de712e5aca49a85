package persona

// The delivery contract every stage keeps: a group's chunks stay valid until
// its Release, however many further groups the consumer asks for first.

import (
	"bytes"
	"context"
	"slices"
	"testing"
	"time"

	"persona/internal/agd"
	"persona/internal/agdsort"
	"persona/internal/core"
	"persona/internal/dataflow"
	"persona/internal/filter"
	"persona/internal/formats/fastq"
	"persona/internal/formats/sam"
	"persona/internal/markdup"
)

// TestStageGroupHeldUntilRelease runs each stage stream at the serial window
// (≤ 1, one builder set): align, markdup, filter, the sort's merge, FASTQ
// import and the SAM import source. A second Next while the first group is
// held waits for its Release — on a 100 ms context it fails, and the first
// group's bytes are intact — and once the group is released, Next delivers
// the second group.
func TestStageGroupHeldUntilRelease(t *testing.T) {
	ctx := context.Background()
	store, g := pipelineFixture(t, "raw", "ds")
	idx, err := BuildIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Align(ctx, store, "ds", idx, AlignOptions{}); err != nil {
		t.Fatal(err)
	}
	var fq, samText bytes.Buffer
	if _, err := ExportFASTQ(ctx, store, "raw", &fq); err != nil {
		t.Fatal(err)
	}
	if _, err := ExportSAM(ctx, store, "ds", &samText); err != nil {
		t.Fatal(err)
	}
	exec := dataflow.NewExecutor(2, 4)
	defer exec.Close()
	groups := func(name string) *agd.GroupStream {
		ds, err := agd.Open(store, name)
		if err != nil {
			t.Fatal(err)
		}
		gs, err := ds.Groups(agd.StreamOptions{Codec: agd.Codec{Exec: exec}})
		if err != nil {
			t.Fatal(err)
		}
		return gs
	}

	for _, st := range []struct {
		name string
		open func() (*agd.GroupStream, error)
	}{
		{"align", func() (*agd.GroupStream, error) {
			out, _, err := core.AlignStream(core.AlignConfig{Index: idx}, exec, groups("raw"))
			return out, err
		}},
		{"markdup", func() (*agd.GroupStream, error) {
			out, _, err := markdup.MarkStream(groups("ds"), 0)
			return out, err
		}},
		{"filter", func() (*agd.GroupStream, error) {
			out, _, err := filter.RunStream(groups("ds"), filter.MappedOnly(), 0)
			return out, err
		}},
		{"sort-merge", func() (*agd.GroupStream, error) {
			return agdsort.SortStream(ctx, store, groups("ds"), agdsort.Options{By: agdsort.ByLocation})
		}},
		{"import-fastq", func() (*agd.GroupStream, error) {
			return fastq.ImportStream(bytes.NewReader(fq.Bytes()), fastq.ImportOptions{ChunkSize: 100}), nil
		}},
		{"import-sam", func() (*agd.GroupStream, error) {
			return sam.ImportStream(bytes.NewReader(samText.Bytes()), sam.ImportOptions{ChunkSize: 100})
		}},
	} {
		t.Run(st.name, func(t *testing.T) {
			s, err := st.open()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			first, err := s.Next(ctx)
			if err != nil {
				t.Fatal(err)
			}
			held := groupBytes(first)

			wait, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
			second, err := s.Next(wait)
			cancel()
			if err == nil {
				second.Release()
				t.Fatalf("Next delivered group %d while group %d was held", second.Index, first.Index)
			}
			if !slices.EqualFunc(groupBytes(first), held, bytes.Equal) {
				t.Fatal("the held group's bytes changed under a second Next")
			}

			first.Release()
			second, err = s.Next(ctx)
			if err != nil {
				t.Fatalf("Next after the Release: %v", err)
			}
			defer second.Release()
			if second.Index != 1 {
				t.Fatalf("Next after the Release delivered group %d, want 1", second.Index)
			}
		})
	}
}

// groupBytes copies the data of every chunk of g.
func groupBytes(g *agd.RowGroup) [][]byte {
	out := make([][]byte, len(g.Chunks))
	for i, c := range g.Chunks {
		out[i] = bytes.Clone(c.Data)
	}
	return out
}
