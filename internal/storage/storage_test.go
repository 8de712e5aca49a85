package storage

import (
	"fmt"
	"testing"

	"persona/internal/agd"
	"persona/internal/testutil"
)

func TestObjectStorePutGet(t *testing.T) {
	s, err := NewObjectStore(ObjectStoreConfig{OSDs: 5, Replication: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a/b", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("a/b")
	if err != nil || string(got) != "hello" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if _, err := s.Get("missing"); err == nil {
		t.Fatal("missing blob fetched")
	}
	stats := s.Stats()
	if stats.BytesIn != 5 || stats.ReplicatedBytesIn != 15 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestObjectStoreReplicationSurvivesFailures(t *testing.T) {
	s, err := NewObjectStore(ObjectStoreConfig{OSDs: 7, Replication: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := s.Put(fmt.Sprintf("blob-%d", i), []byte(fmt.Sprintf("data-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Any 2 OSDs may fail with 3-way replication.
	if err := s.FailOSD(0); err != nil {
		t.Fatal(err)
	}
	if err := s.FailOSD(3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		got, err := s.Get(fmt.Sprintf("blob-%d", i))
		if err != nil {
			t.Fatalf("blob-%d lost after 2 OSD failures: %v", i, err)
		}
		if string(got) != fmt.Sprintf("data-%d", i) {
			t.Fatalf("blob-%d corrupted", i)
		}
	}
	if s.Stats().DegradedReads == 0 {
		t.Fatal("expected some degraded reads with 2 OSDs down")
	}
}

func TestObjectStoreRecovery(t *testing.T) {
	s, err := NewObjectStore(ObjectStoreConfig{OSDs: 5, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := s.Put(fmt.Sprintf("b-%d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.FailOSD(1); err != nil {
		t.Fatal(err)
	}
	// Overwrites while down leave OSD 1 stale; recovery must re-replicate.
	for i := 0; i < 30; i++ {
		if err := s.Put(fmt.Sprintf("b-%d", i), []byte("y")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RecoverOSD(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		got, err := s.Get(fmt.Sprintf("b-%d", i))
		if err != nil || string(got) != "y" {
			t.Fatalf("b-%d after recovery = %q, %v", i, got, err)
		}
	}
}

func TestObjectStorePlacementBalance(t *testing.T) {
	s, err := NewObjectStore(ObjectStoreConfig{OSDs: 7, Replication: 3})
	if err != nil {
		t.Fatal(err)
	}
	blob := make([]byte, 100)
	for i := 0; i < 700; i++ {
		if err := s.Put(fmt.Sprintf("chunk-%06d", i), blob); err != nil {
			t.Fatal(err)
		}
	}
	bytes := s.OSDBytes()
	// 700 blobs × 3 replicas / 7 OSDs = 300 blobs ≈ 30000 B per OSD.
	for i, b := range bytes {
		if b < 15000 || b > 45000 {
			t.Fatalf("OSD %d holds %d bytes; placement badly skewed: %v", i, b, bytes)
		}
	}
}

func TestObjectStoreAsAGDBackend(t *testing.T) {
	s, err := NewObjectStore(ObjectStoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := testutil.WriteRows(s, "ds", readMeta(4), reads(10)); err != nil {
		t.Fatal(err)
	}
	ds, err := agd.Open(s, "ds")
	if err != nil {
		t.Fatal(err)
	}
	bases, err := ds.ReadAllBases()
	if err != nil {
		t.Fatal(err)
	}
	if len(bases) != 10 {
		t.Fatalf("bases = %d", len(bases))
	}
}

func TestObjectStoreValidation(t *testing.T) {
	if _, err := NewObjectStore(ObjectStoreConfig{OSDs: 2, Replication: 3}); err == nil {
		t.Fatal("replication > OSDs accepted")
	}
	s, _ := NewObjectStore(ObjectStoreConfig{})
	if err := s.FailOSD(99); err == nil {
		t.Fatal("failing unknown OSD succeeded")
	}
}
