package agd

// Tests for the column sink: every group's chunk lands under its chunk's
// blob path, stores overlap, and every way out — a failing store, stream or
// hook, a misaligned group, a cancelled context — returns the cause with the
// stream closed and every group released.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// columnFixture writes a dataset of chunks×perChunk one-column rows and
// returns its manifest.
func columnFixture(t *testing.T, store BlobStore, chunks, perChunk int) *Manifest {
	t.Helper()
	w, err := NewWriter(store, "ds", []ColumnSpec{{Name: ColMetadata, Type: TypeRaw}}, WriterOptions{ChunkSize: perChunk})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < chunks*perChunk; i++ {
		if err := w.Append([]byte(fmt.Sprintf("read-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	m, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// tagStream delivers one owned group per chunk of m carrying a "tag" column
// (record r of chunk i is "tag-i-r"), counting closes and releases. fail,
// when non-nil, is consulted before each group.
type tagStream struct {
	*GroupStream
	delivered, released, closed atomic.Int32
}

func newTagStream(m *Manifest, fail func(chunk int) error) *tagStream {
	ts := &tagStream{}
	next := 0
	ts.GroupStream = NewGroupStream(StreamMeta{Columns: []string{"tag"}}, func(context.Context) (*RowGroup, error) {
		if next == len(m.Chunks) {
			return nil, io.EOF
		}
		if fail != nil {
			if err := fail(next); err != nil {
				return nil, err
			}
		}
		i := next
		next++
		entry := m.Chunks[i]
		b := NewChunkBuilder(TypeRaw, entry.First)
		for r := 0; r < int(entry.Records); r++ {
			b.Append([]byte(fmt.Sprintf("tag-%d-%d", i, r)))
		}
		ts.delivered.Add(1)
		return NewRowGroup(i, 0, []*Chunk{b.Chunk()}, func() { ts.released.Add(1) }), nil
	}, func() { ts.closed.Add(1) })
	ts.Owned = true
	return ts
}

// settled checks the sink's exit contract: stream closed once, every group
// it delivered released.
func (ts *tagStream) settled(t *testing.T) {
	t.Helper()
	if ts.closed.Load() != 1 {
		t.Errorf("stream closed %d times, want 1", ts.closed.Load())
	}
	if d, r := ts.delivered.Load(), ts.released.Load(); d != r {
		t.Errorf("%d groups delivered, %d released", d, r)
	}
}

func TestWriteColumnStoresEveryGroup(t *testing.T) {
	store := NewMemStore()
	m := columnFixture(t, store, 7, 3)
	ts := newTagStream(m, nil)
	var mu sync.Mutex
	landed := make(map[int]int)
	err := WriteColumn(context.Background(), ts.GroupStream, store, m, "tag", Codec{}, func(chunk int) error {
		// The hook runs after the blob is stored.
		if _, err := store.Get(m.ChunkBlobPath(chunk, "tag")); err != nil {
			return fmt.Errorf("landed(%d) before its blob: %w", chunk, err)
		}
		mu.Lock()
		landed[chunk]++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ts.settled(t)
	for i := range m.Chunks {
		if landed[i] != 1 {
			t.Errorf("landed(%d) ran %d times", i, landed[i])
		}
	}
	// The sink leaves the manifest alone; registering finds every blob.
	if m.HasColumn("tag") {
		t.Fatal("WriteColumn touched the manifest")
	}
	updated, err := RegisterColumn(store, m, "tag")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := OpenManifest(store, updated).ReadAllColumn("tag")
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if want := fmt.Sprintf("tag-%d-%d", i/3, i%3); string(rec) != want {
			t.Fatalf("record %d = %q, want %q", i, rec, want)
		}
	}
}

// meetStore holds every Put until another is in flight beside it (or the
// test gives up), recording whether two ever overlapped.
type meetStore struct {
	BlobStore
	mu      sync.Mutex
	waiting chan struct{}
	met     atomic.Bool
}

func (s *meetStore) Put(name string, data []byte) error {
	s.mu.Lock()
	if s.waiting != nil {
		close(s.waiting) // second of a pair: release the first
		s.waiting = nil
		s.met.Store(true)
		s.mu.Unlock()
	} else {
		mine := make(chan struct{})
		s.waiting = mine
		s.mu.Unlock()
		select {
		case <-mine:
		case <-time.After(5 * time.Second):
			return errors.New("a Put waited 5s with no other Put in flight")
		}
	}
	return s.BlobStore.Put(name, data)
}

// TestWriteColumnOverlapsPuts: with an even number of chunks, every Put can
// pair up with another — which only terminates if the sink keeps two in
// flight.
func TestWriteColumnOverlapsPuts(t *testing.T) {
	mem := NewMemStore()
	m := columnFixture(t, mem, 6, 2)
	store := &meetStore{BlobStore: mem}
	ts := newTagStream(m, nil)
	if err := WriteColumn(context.Background(), ts.GroupStream, store, m, "tag", Codec{}, nil); err != nil {
		t.Fatal(err)
	}
	ts.settled(t)
	if !store.met.Load() {
		t.Fatal("no two Puts overlapped")
	}
}

// failPutStore fails the Put of one blob.
type failPutStore struct {
	BlobStore
	name string
	err  error
}

func (s failPutStore) Put(name string, data []byte) error {
	if name == s.name {
		return s.err
	}
	return s.BlobStore.Put(name, data)
}

func TestWriteColumnFailures(t *testing.T) {
	boom := errors.New("boom")
	mem := NewMemStore()
	m := columnFixture(t, mem, 9, 2)
	short := *m
	short.Chunks = append([]ChunkEntry(nil), m.Chunks...)
	short.Chunks[4].Records++ // the stream's group 4 is now one record short

	cancelled, cancel := context.WithCancel(context.Background())
	for _, tc := range []struct {
		name   string
		ctx    context.Context
		store  BlobStore
		m      *Manifest
		col    string
		fail   func(chunk int) error
		landed func(chunk int) error
		want   error
	}{
		{name: "store", store: failPutStore{mem, m.ChunkBlobPath(3, "tag"), boom}, want: boom},
		{name: "stream", fail: func(chunk int) error {
			if chunk == 5 {
				return boom
			}
			return nil
		}, want: boom},
		{name: "hook", landed: func(chunk int) error {
			if chunk == 2 {
				return boom
			}
			return nil
		}, want: boom},
		{name: "misaligned group", m: &short, want: ErrRowGroup},
		{name: "cancelled mid-run", ctx: cancelled, fail: func(chunk int) error {
			if chunk == 4 {
				cancel()
			}
			return nil
		}, want: context.Canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, store, man := tc.ctx, tc.store, tc.m
			if ctx == nil {
				ctx = context.Background()
			}
			if store == nil {
				store = mem
			}
			if man == nil {
				man = m
			}
			ts := newTagStream(m, tc.fail)
			err := WriteColumn(ctx, ts.GroupStream, store, man, "tag", Codec{}, tc.landed)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			ts.settled(t)
			if int(ts.delivered.Load()) == len(m.Chunks) && tc.fail != nil {
				t.Error("the failing stream was drained to its end")
			}
		})
	}

	// A stream without the column is refused before anything is drawn.
	ts := newTagStream(m, nil)
	if err := WriteColumn(context.Background(), ts.GroupStream, mem, m, ColResults, Codec{}, nil); err == nil {
		t.Fatal("wrote a column the stream does not carry")
	}
	ts.settled(t)
	if ts.delivered.Load() != 0 {
		t.Fatalf("%d groups drawn from a refused stream", ts.delivered.Load())
	}
}
