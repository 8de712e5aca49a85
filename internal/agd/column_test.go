package agd

// Tests for the column sink: every group's chunk lands under its chunk's
// blob path, one Put at a time, and every way out — a failing store, stream or
// hook, a misaligned group, a cancelled context — returns the cause with the
// stream closed, every group released and, for a new column, no blob of it
// left.

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
	rows := make([][][]byte, chunks*perChunk)
	for i := range rows {
		rows[i] = [][]byte{[]byte(fmt.Sprintf("read-%04d", i))}
	}
	return writeRows(t, store, "ds", StreamMeta{Columns: []string{ColMetadata}, ChunkSize: perChunk}, rows)
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
	mem := NewMemStore()
	m := columnFixture(t, mem, 7, 3)
	ts := newTagStream(m, nil)
	puts := &countPuts{BlobStore: mem}
	if err := WriteColumn(context.Background(), ts.GroupStream, puts, m, "tag", Codec{}); err != nil {
		t.Fatal(err)
	}
	ts.settled(t)
	for i := range m.Chunks {
		if n := puts.n[m.ChunkBlobPath(i, "tag")]; n != 1 {
			t.Errorf("chunk %d stored %d times", i, n)
		}
	}
	// The sink leaves the manifest alone; registering finds every blob.
	if m.HasColumn("tag") {
		t.Fatal("WriteColumn touched the manifest")
	}
	updated, err := RegisterColumn(mem, m, "tag")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := OpenManifest(mem, updated).ReadAllColumn("tag")
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if want := fmt.Sprintf("tag-%d-%d", i/3, i%3); string(rec) != want {
			t.Fatalf("record %d = %q, want %q", i, rec, want)
		}
	}
}

// countPuts counts the Puts of every blob name.
type countPuts struct {
	BlobStore
	mu sync.Mutex
	n  map[string]int
}

func (s *countPuts) Put(name string, data []byte) error {
	s.mu.Lock()
	if s.n == nil {
		s.n = map[string]int{}
	}
	s.n[name]++
	s.mu.Unlock()
	return s.BlobStore.Put(name, data)
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
			return WriteColumn(ctx, in, s, m, "tag", Codec{})
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

// TestWriteColumnFailures fails a new column's write every way it can fail,
// inside the AddColumn that registers it: the cause is returned, the stream
// is closed with every group released, and no blob of the column is left.
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
		name  string
		ctx   context.Context
		store BlobStore
		m     *Manifest
		fail  func(chunk int) error
		after error // the AddColumn hook's failure once the column is stored
		want  error
	}{
		{name: "store", store: failPutStore{mem, m.ChunkBlobPath(3, "tag"), boom}, want: boom},
		{name: "stream", fail: func(chunk int) error {
			if chunk == 5 {
				return boom
			}
			return nil
		}, want: boom},
		{name: "hook", after: boom, want: boom},
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
			_, err := AddColumn(store, man, "tag", func() error {
				if err := WriteColumn(ctx, ts.GroupStream, store, man, "tag", Codec{}); err != nil {
					return err
				}
				return tc.after
			})
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			ts.settled(t)
			if int(ts.delivered.Load()) == len(m.Chunks) && tc.fail != nil {
				t.Error("the failing stream was drained to its end")
			}
			if left, _ := mem.List(""); len(left) != 1+len(m.Chunks) {
				t.Errorf("%d blobs left, want the dataset's %d", len(left), 1+len(m.Chunks))
			}
		})
	}

	// A stream without the column is refused before anything is drawn.
	ts := newTagStream(m, nil)
	if err := WriteColumn(context.Background(), ts.GroupStream, mem, m, ColResults, Codec{}); err == nil {
		t.Fatal("wrote a column the stream does not carry")
	}
	ts.settled(t)
	if ts.delivered.Load() != 0 {
		t.Fatalf("%d groups drawn from a refused stream", ts.delivered.Load())
	}
}
