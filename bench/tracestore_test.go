package main

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"persona/internal/agd"
)

func TestTraceStoreKeepsFastPathsAndBytes(t *testing.T) {
	dir, err := agd.NewDirStoreNoSync(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stores := map[string]agd.BlobStore{"MemStore": agd.NewMemStore(), "DirStore": dir}
	for name, inner := range stores {
		t.Run(name, func(t *testing.T) {
			var names []string
			for i := 0; i < 12; i++ {
				blob := bytes.Repeat([]byte{byte('a' + i)}, 1000+137*i)
				names = append(names, fmt.Sprintf("ds/chunk-%06d.bases", i))
				if err := inner.Put(names[i], blob); err != nil {
					t.Fatal(err)
				}
			}
			tr := newTracer()
			var store agd.BlobStore = newTraceStore(inner, tr)
			// The program finds the async and range paths by type assertion;
			// the wrapper must still offer both.
			as, ok := store.(agd.AsyncBlobStore)
			if !ok {
				t.Fatal("traceStore is not an agd.AsyncBlobStore")
			}
			rs, ok := store.(agd.RangeBlobStore)
			if !ok {
				t.Fatal("traceStore is not an agd.RangeBlobStore")
			}
			if agd.AsyncOf(store) != as || agd.RangeOf(store) != rs {
				t.Error("agd.AsyncOf / agd.RangeOf wrapped the tracing store in an adapter")
			}

			root := tr.beginRep()
			ctx := context.Background()
			want := agd.AsyncOf(inner).GetBatch(names)
			for i, fut := range as.GetBatch(names) {
				got, err := fut.Wait(ctx)
				if err != nil {
					t.Fatal(err)
				}
				exp, _ := want[i].Wait(ctx)
				if !bytes.Equal(got, exp) {
					t.Errorf("GetBatch[%d] differs from the inner store's", i)
				}
			}
			got, err := as.GetAsync(names[3]).Wait(ctx)
			exp, _ := inner.Get(names[3])
			if err != nil || !bytes.Equal(got, exp) {
				t.Errorf("GetAsync differs from Get: %v", err)
			}
			ranges := []agd.ByteRange{{Off: 0, Len: 40}, {Off: 40, Len: 100}, {Off: 500, Len: 17}}
			gotR, err := rs.GetRanges(names[5], ranges)
			if err != nil {
				t.Fatal(err)
			}
			expR, err := agd.RangeOf(inner).GetRanges(names[5], ranges)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ranges {
				if !bytes.Equal(gotR[i], expR[i]) {
					t.Errorf("GetRanges[%d] differs from the inner store's", i)
				}
			}
			one, err := rs.GetRange(names[5], 500, 17)
			if err != nil || !bytes.Equal(one, expR[2]) {
				t.Errorf("GetRange differs from GetRanges: %v", err)
			}
			if err := store.Delete(names[0]); err != nil {
				t.Fatal(err)
			}
			if _, err := store.Get(names[0]); err == nil {
				t.Error("Get of a deleted blob succeeded")
			}
			if list, err := store.List("ds/"); err != nil || len(list) != 11 {
				t.Errorf("List = %d names, %v; want 11", len(list), err)
			}
			tr.end(root, 0, 0)

			// Every asynchronous span is closed once its future resolved,
			// carries the blob's size, and hangs off the rep's root.
			spans := tr.snapshot()
			tot := storeTotalsOf(spans, 1)
			if tot.gets != 12+1+1 || tot.ranges != 2 || tot.deletes != 1 || tot.puts != 0 {
				t.Errorf("store totals = %+v", tot)
			}
			var batchBytes int64
			for i := range names {
				batchBytes += int64(1000 + 137*i)
			}
			if want := batchBytes + int64(1000+137*3); tot.getBytes != want {
				t.Errorf("get bytes = %d, want %d", tot.getBytes, want)
			}
			if tot.rangeBytes != 40+100+17+17 {
				t.Errorf("range bytes = %d, want 174", tot.rangeBytes)
			}
			for _, s := range spans {
				if s.Layer != storeLayer {
					continue
				}
				if s.End < s.Start || s.Parent != root || !s.Leaf {
					t.Errorf("store span not closed under the root: %+v", s)
				}
			}
		})
	}
}
