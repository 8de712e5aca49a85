package storage

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"persona/internal/agd"
)

func TestObjectStoreGetAsyncMatchesGet(t *testing.T) {
	s, err := NewObjectStore(ObjectStoreConfig{OSDs: 5, Replication: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 40; i++ {
		if err := s.Put(fmt.Sprintf("b-%02d", i), []byte(fmt.Sprintf("v-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Async pass-through: the store has a native implementation.
	if agd.AsyncOf(s) != agd.AsyncBlobStore(s) {
		t.Fatal("ObjectStore not passed through agd.AsyncOf")
	}
	for i := 0; i < 40; i++ {
		got, err := s.GetAsync(fmt.Sprintf("b-%02d", i)).Wait(context.Background())
		if err != nil || string(got) != fmt.Sprintf("v-%02d", i) {
			t.Fatalf("GetAsync(b-%02d) = %q, %v", i, got, err)
		}
	}
	if _, err := s.GetAsync("missing").Wait(context.Background()); !errors.Is(err, agd.ErrNotFound) {
		t.Fatalf("missing async read err = %v", err)
	}

	names := make([]string, 40)
	for i := range names {
		names[i] = fmt.Sprintf("b-%02d", i)
	}
	futs := s.GetBatch(names)
	for i, fut := range futs {
		got, err := fut.Wait(context.Background())
		if err != nil || string(got) != fmt.Sprintf("v-%02d", i) {
			t.Fatalf("batch future %d = %q, %v", i, got, err)
		}
	}

	stats := s.Stats()
	if stats.AsyncGets != 81 { // 40 singles + 40 batched + 1 miss
		t.Fatalf("AsyncGets = %d", stats.AsyncGets)
	}
	if stats.Batches != 1 {
		t.Fatalf("Batches = %d", stats.Batches)
	}
	if stats.MaxInFlight < 1 {
		t.Fatalf("MaxInFlight = %d", stats.MaxInFlight)
	}
	if stats.Gets != 80 { // the miss is not a served read
		t.Fatalf("Gets = %d", stats.Gets)
	}
}

func TestObjectStoreCloseFailsPendingReads(t *testing.T) {
	s, err := NewObjectStore(ObjectStoreConfig{OSDs: 3, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.GetAsync("k").Wait(context.Background()); err == nil {
		t.Fatal("async read on closed store succeeded")
	}
	// Synchronous reads still work.
	if got, err := s.Get("k"); err != nil || string(got) != "v" {
		t.Fatalf("sync Get after Close = %q, %v", got, err)
	}
	s.Close() // idempotent
}

// TestObjectStoreStress interleaves Put/Get/GetAsync/GetBatch with OSD
// failure injection and recovery from many goroutines. The failer keeps at
// most 2 of 7 OSDs down at once (3-way replication tolerates that without
// write loss), so after every OSD recovers, every key must read back its
// last acknowledged write — no lost newest-version blobs. Run under -race
// this is the regression test for the RLock read path and the per-OSD
// queue workers.
func TestObjectStoreStress(t *testing.T) {
	const (
		osds          = 7
		writers       = 4
		keysPerWriter = 12
		versions      = 20
		readers       = 3
	)
	s, err := NewObjectStore(ObjectStoreConfig{OSDs: osds, Replication: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	key := func(w, k int) string { return fmt.Sprintf("w%d/key-%03d", w, k) }
	val := func(v int) []byte { return []byte(fmt.Sprintf("v%05d", v)) }

	// Seed every key so readers never race an absent blob.
	for w := 0; w < writers; w++ {
		for k := 0; k < keysPerWriter; k++ {
			if err := s.Put(key(w, k), val(0)); err != nil {
				t.Fatal(err)
			}
		}
	}

	stop := make(chan struct{})
	var chaos sync.WaitGroup

	// Failer: flap pairs of OSDs, never more than 2 down at once.
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		rng := rand.New(rand.NewSource(42))
		for {
			select {
			case <-stop:
				return
			default:
			}
			a := rng.Intn(osds)
			b := (a + 1 + rng.Intn(osds-1)) % osds
			_ = s.FailOSD(a)
			_ = s.FailOSD(b)
			_ = s.RecoverOSD(a)
			_ = s.RecoverOSD(b)
		}
	}()

	// Readers: random sync and async reads; values must always be one of
	// the writer's versions (never torn, never foreign).
	for r := 0; r < readers; r++ {
		chaos.Add(1)
		go func(seed int64) {
			defer chaos.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				w, k := rng.Intn(writers), rng.Intn(keysPerWriter)
				check := func(got []byte, err error) {
					if err != nil {
						t.Errorf("read %s: %v", key(w, k), err)
						return
					}
					if len(got) != 6 || got[0] != 'v' {
						t.Errorf("read %s = torn value %q", key(w, k), got)
					}
				}
				switch rng.Intn(3) {
				case 0:
					check(s.Get(key(w, k)))
				case 1:
					check(s.GetAsync(key(w, k)).Wait(context.Background()))
				default:
					names := []string{key(w, k), key((w+1)%writers, k)}
					for _, fut := range s.GetBatch(names) {
						got, err := fut.Wait(context.Background())
						if err != nil {
							t.Errorf("batch read: %v", err)
						} else if len(got) != 6 || got[0] != 'v' {
							t.Errorf("batch read = torn value %q", got)
						}
					}
				}
			}
		}(int64(100 + r))
	}

	// Writers: monotonically versioned overwrites of their own keys.
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := 1; v <= versions; v++ {
				for k := 0; k < keysPerWriter; k++ {
					if err := s.Put(key(w, k), val(v)); err != nil {
						t.Errorf("Put %s v%d: %v", key(w, k), v, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	chaos.Wait()
	if t.Failed() {
		return
	}

	// Recover everything and verify no newest-version blob was lost.
	for i := 0; i < osds; i++ {
		if err := s.RecoverOSD(i); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < writers; w++ {
		for k := 0; k < keysPerWriter; k++ {
			got, err := s.Get(key(w, k))
			if err != nil {
				t.Fatalf("%s lost after recovery: %v", key(w, k), err)
			}
			if string(got) != string(val(versions)) {
				t.Fatalf("%s = %q after recovery, want %q (newest version lost)",
					key(w, k), got, val(versions))
			}
		}
	}
	stats := s.Stats()
	if stats.AsyncGets == 0 || stats.Gets == 0 || stats.MaxInFlight == 0 {
		t.Fatalf("stress exercised no async reads: %+v", stats)
	}
}
