package main

import (
	"context"

	"persona/internal/agd"
)

// storeLayer is the layer name of every blob-store span.
const storeLayer = "storage"

// traceStore records a span around every call into a blob store. It forwards
// the asynchronous and range read paths (through agd.AsyncOf / agd.RangeOf,
// exactly as the program resolves them), so wrapping a store disables none
// of its fast paths. The span of an asynchronous read ends when its future
// resolves, not when the issuing call returns.
type traceStore struct {
	inner  agd.BlobStore
	async  agd.AsyncBlobStore
	ranges agd.RangeBlobStore
	tr     *tracer
}

func newTraceStore(inner agd.BlobStore, tr *tracer) *traceStore {
	return &traceStore{inner: inner, async: agd.AsyncOf(inner), ranges: agd.RangeOf(inner), tr: tr}
}

func (s *traceStore) Put(name string, data []byte) error {
	id := s.tr.beginLeaf(storeLayer, "put", name)
	err := s.inner.Put(name, data)
	s.tr.end(id, 0, int64(len(data)))
	return err
}

func (s *traceStore) Get(name string) ([]byte, error) {
	id := s.tr.beginLeaf(storeLayer, "get", name)
	data, err := s.inner.Get(name)
	s.tr.end(id, 0, int64(len(data)))
	return data, err
}

func (s *traceStore) Delete(name string) error {
	id := s.tr.beginLeaf(storeLayer, "delete", name)
	err := s.inner.Delete(name)
	s.tr.end(id, 0, 0)
	return err
}

func (s *traceStore) List(prefix string) ([]string, error) {
	id := s.tr.beginLeaf(storeLayer, "list", prefix)
	names, err := s.inner.List(prefix)
	s.tr.end(id, int64(len(names)), 0)
	return names, err
}

// watch ends span id when fut resolves: at once for a store that answers
// synchronously, otherwise from a goroutine the tracer waits for before it
// reads its spans.
func (s *traceStore) watch(id int, fut *agd.Future) {
	finish := func() {
		data, _ := fut.Wait(context.Background())
		s.tr.end(id, 0, int64(len(data)))
	}
	select {
	case <-fut.Done():
		finish()
	default:
		s.tr.pending.Add(1)
		go func() {
			defer s.tr.pending.Done()
			finish()
		}()
	}
}

func (s *traceStore) GetAsync(name string) *agd.Future {
	id := s.tr.beginLeaf(storeLayer, "get", name)
	fut := s.async.GetAsync(name)
	s.watch(id, fut)
	return fut
}

func (s *traceStore) GetBatch(names []string) []*agd.Future {
	ids := make([]int, len(names))
	for i, name := range names {
		ids[i] = s.tr.beginLeaf(storeLayer, "get", name)
	}
	futs := s.async.GetBatch(names)
	for i, fut := range futs {
		s.watch(ids[i], fut)
	}
	return futs
}

func (s *traceStore) GetRange(name string, off int64, n int) ([]byte, error) {
	id := s.tr.beginLeaf(storeLayer, "range", name)
	data, err := s.ranges.GetRange(name, off, n)
	s.tr.end(id, 0, int64(len(data)))
	return data, err
}

func (s *traceStore) GetRanges(name string, ranges []agd.ByteRange) ([][]byte, error) {
	id := s.tr.beginLeaf(storeLayer, "range", name)
	bufs, err := s.ranges.GetRanges(name, ranges)
	var n int64
	for _, b := range bufs {
		n += int64(len(b))
	}
	s.tr.end(id, 0, n)
	return bufs, err
}

var (
	_ agd.AsyncBlobStore = (*traceStore)(nil)
	_ agd.RangeBlobStore = (*traceStore)(nil)
)

// storeTotals folds a rep's store spans into the storage layer's counters.
type storeTotals struct {
	gets, puts, ranges, deletes    int64
	getBytes, putBytes, rangeBytes int64
	getWaitNS, putBusyNS           int64
}

func storeTotalsOf(spans []span, rep int) storeTotals {
	var t storeTotals
	for _, s := range spans {
		if s.Rep != rep || s.Layer != storeLayer {
			continue
		}
		dur := max(s.End-s.Start, 0)
		switch s.Name {
		case "get":
			t.gets++
			t.getBytes += s.Bytes
			t.getWaitNS += dur
		case "put":
			t.puts++
			t.putBytes += s.Bytes
			t.putBusyNS += dur
		case "range":
			t.ranges++
			t.rangeBytes += s.Bytes
		case "delete":
			t.deletes++
		}
	}
	return t
}
