package jobs

// Journal replay suite: a record is loaded only when recovery can route it,
// and no journal blob, however malformed, panics Load or Recover.

import (
	"encoding/json"
	"testing"

	"persona"
)

// recoverBlob stores data as the one journal blob named id on a fresh store
// and replays it through a new manager's Recover.
func recoverBlob(t testing.TB, sess *persona.Session, id string, data []byte) RecoveryReport {
	t.Helper()
	store := persona.NewMemStore()
	if err := store.Put(journalPrefix+id, data); err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Config{Store: store, Session: sess})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// journalRecord is a journal blob for rec.
func journalRecord(t testing.TB, rec Record) []byte {
	t.Helper()
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestJournalRecordNamedByItsBlob: a record loads only from the blob its own
// ID names. One at j00000012 that calls itself "2" merely ends with its ID;
// loaded, its next Put would land in a second blob, and the boot after that
// would load the job twice.
func TestJournalRecordNamedByItsBlob(t *testing.T) {
	sess := persona.NewSession(persona.NewMemStore(), persona.SessionOptions{})
	defer sess.Close()
	rec := Record{ID: "2", Tenant: "acme", State: StatePending, MaxAttempts: 3}
	if rep := recoverBlob(t, sess, "j00000012", journalRecord(t, rec)); rep.Corrupt != 1 || rep.Requeued != 0 {
		t.Fatalf("recovery = %+v, want the misnamed record counted corrupt", rep)
	}
	rec.ID = "j00000012"
	if rep := recoverBlob(t, sess, "j00000012", journalRecord(t, rec)); rep.Corrupt != 0 || rep.Requeued != 1 {
		t.Fatalf("recovery = %+v, want the record requeued", rep)
	}
}

// TestJournalRecordInKnownState: a record in no state recovery routes, or
// with negative attempts, is counted corrupt instead of sitting in a state
// no worker serves.
func TestJournalRecordInKnownState(t *testing.T) {
	sess := persona.NewSession(persona.NewMemStore(), persona.SessionOptions{})
	defer sess.Close()
	for _, rec := range []Record{
		{ID: "j00000001", State: "BOGUS", MaxAttempts: 3},
		{ID: "j00000001", State: "", MaxAttempts: 3},
		{ID: "j00000001", State: StatePending, Attempts: -1, MaxAttempts: 3},
	} {
		if rep := recoverBlob(t, sess, rec.ID, journalRecord(t, rec)); rep.Corrupt != 1 || rep.Requeued+rep.Finished != 0 {
			t.Errorf("state %q after %d attempts: recovery = %+v, want the record counted corrupt", rec.State, rec.Attempts, rep)
		}
	}
}

// FuzzJournalRecord: whatever bytes a journal blob holds, Load and Recover
// either count the record corrupt or route it — requeued or finished — and
// never panic.
func FuzzJournalRecord(f *testing.F) {
	for _, seed := range []string{
		`{"id":"j00000001","tenant":"acme","state":"PENDING","max_attempts":3}`,
		`{"id":"j00000001","state":"RUNNING","attempts":3,"max_attempts":3}`,
		`{"id":"j00000001","state":"RUNNING","attempts":1,"max_attempts":3}`,
		`{"id":"j00000001","state":"DONE","attempts":1,"max_attempts":3}`,
		`{"id":"j00000001","state":"BOGUS"}`,
		`{"id":"1","state":"PENDING"}`,
		`{"id":"j00000001","state":"FAILED","attempts":-4}`,
		`{"id":`,
		``,
	} {
		f.Add([]byte(seed))
	}
	sess := persona.NewSession(persona.NewMemStore(), persona.SessionOptions{})
	defer sess.Close()
	f.Fuzz(func(t *testing.T, data []byte) {
		rep := recoverBlob(t, sess, "j00000001", data)
		if routed := rep.Requeued + rep.Finished; rep.Corrupt+routed != 1 {
			t.Fatalf("recovery = %+v, want the one record counted corrupt or routed", rep)
		}
	})
}
