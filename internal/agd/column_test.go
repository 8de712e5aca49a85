package agd

// Tests for the column sink: every group's chunk lands under its chunk's
// blob path, one Put at a time, and every way out — a failing store, stream or
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

	"persona/internal/dataflow"
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

// gateStore holds every Put at a gate until the test opens it, counting the
// Puts in flight.
type gateStore struct {
	BlobStore
	arrived  chan string
	gate     chan struct{}
	inFlight atomic.Int32
}

func (s *gateStore) Put(name string, data []byte) error {
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	s.arrived <- name
	<-s.gate
	return s.BlobStore.Put(name, data)
}

// TestSinksPutOneAtATime runs the three chunk sinks over a gated store: none
// may have two Puts in flight, and none may return before its last blob has
// landed.
func TestSinksPutOneAtATime(t *testing.T) {
	ctx := context.Background()
	m := columnFixture(t, NewMemStore(), 6, 2)
	for name, sink := range map[string]func(BlobStore, *GroupStream) error{
		"WriteColumn": func(s BlobStore, in *GroupStream) error {
			return WriteColumn(ctx, in, s, m, "tag", Codec{}, nil)
		},
		"WriteGroups": func(s BlobStore, in *GroupStream) error {
			defer in.Close() // the caller's, unlike WriteColumn's
			_, err := WriteGroups(ctx, in, s, "out", WriterOptions{})
			return err
		},
		"WriteChunks": func(s BlobStore, in *GroupStream) error {
			defer in.Close() // the caller's, unlike WriteColumn's
			_, err := WriteChunks(ctx, in, s, "out", WriterOptions{})
			return err
		},
	} {
		t.Run(name, func(t *testing.T) {
			mem := NewMemStore()
			store := &gateStore{BlobStore: mem, arrived: make(chan string), gate: make(chan struct{})}
			ts := newTagStream(m, nil)
			done := make(chan error, 1)
			go func() { done <- sink(store, ts.GroupStream) }()
			puts := 0
			for {
				select {
				case err := <-done:
					if err != nil {
						t.Fatal(err)
					}
					if left, _ := mem.List(""); len(left) != puts || puts < len(m.Chunks) {
						t.Fatalf("returned with %d blobs stored of %d Puts (%d chunks)", len(left), puts, len(m.Chunks))
					}
					ts.settled(t)
					return
				case blob := <-store.arrived:
					if puts == 0 {
						// Hold the first Put: a sink storing on a second
						// goroutine issues another meanwhile.
						select {
						case other := <-store.arrived:
							t.Fatalf("Put of %s while %s was in flight", other, blob)
						case <-time.After(50 * time.Millisecond):
						}
					}
					if n := store.inFlight.Load(); n != 1 {
						t.Fatalf("%d Puts in flight at %s", n, blob)
					}
					puts++
					store.gate <- struct{}{}
				}
			}
		})
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
	stopped, stop := context.WithCancel(context.Background())
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
		// A stage's pool or executor wait gave up on the dying context.
		{name: "stopped mid-run", ctx: stopped, fail: func(chunk int) error {
			if chunk == 4 {
				stop()
				return dataflow.ErrStopped
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
