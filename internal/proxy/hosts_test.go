package proxy

import (
	"sync"
	"testing"

	"piggyback/internal/core"
	"piggyback/internal/httpwire"
)

const expHost = "www.site.com"

// TestHostTableConcurrentNoteAndTake: piggybacks noting volumes, hits and
// change lists race with the requests that drain them across three hosts;
// the table ends with at most one record per host, and -race sees no
// unsynchronised access.
func TestHostTableConcurrentNoteAndTake(t *testing.T) {
	// RPV entries outlive the run: each goroutine keeps its own clock, and
	// a take at a later time must not expire the note another goroutine
	// is about to check (TestHostTableReleasesExpiredRPV covers expiry).
	h := newHostTable(1000)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			host := "s" + string(rune('a'+i%3)) + ".test"
			for j := 0; j < 200; j++ {
				now := int64(j)
				h.noteVolume(host, core.VolumeID(j%10), now)
				h.add(host, "/hit")
				h.chain(host, []core.Element{{URL: "/x"}}, j%50 == 0)
				h.noteSince(host, "e.1", now)
				if rpv := h.take(host, now).rpv; len(rpv) == 0 {
					t.Errorf("%s at %d: empty RPV snapshot right after a note", host, now)
				}
			}
		}(i)
	}
	wg.Wait()
	records := 0
	for i := range h.stripes {
		records += len(h.stripes[i].m)
	}
	if records > 3 {
		t.Errorf("%d host records, want at most 3", records)
	}
}

// TestHostTableReleasesExpiredRPV: a record holding only an RPV entry lives
// while the entry does; the first take after it expires sends no rpv and
// releases the record.
func TestHostTableReleasesExpiredRPV(t *testing.T) {
	h := newHostTable(10)
	h.noteVolume(expHost, 1, 100)
	if rpv := h.take(expHost, 105).rpv; len(rpv) != 1 || rpv[0] != 1 {
		t.Fatalf("rpv %v at 105, want [1]", rpv)
	}
	if h.stripe(expHost).m[expHost] == nil {
		t.Fatal("record with a live RPV entry released")
	}
	if rpv := h.take(expHost, 500).rpv; rpv != nil {
		t.Fatalf("rpv %v at 500, want none", rpv)
	}
	if hr := h.stripe(expHost).m[expHost]; hr != nil {
		t.Errorf("record kept after its RPV entry expired: %+v", hr)
	}
}

// TestHostTokenOutlivesEmptyRecord: a host's change-list token stays when
// its record holds nothing else — take releases records that hold
// nothing — and take hands it out each time.
func TestHostTokenOutlivesEmptyRecord(t *testing.T) {
	h := newHostTable(60)
	if got := h.take(expHost, 100).since; got != httpwire.NoToken {
		t.Fatalf("since = %q before any token, want %q", got, httpwire.NoToken)
	}
	h.noteSince(expHost, "e.5", 0)
	for i := 0; i < 2; i++ {
		if got := h.take(expHost, 100).since; got != "e.5" {
			t.Fatalf("take %d: since = %q, want e.5", i, got)
		}
	}
}
