package core

import (
	"sync"
	"testing"
)

func TestRPVNoteAndSnapshot(t *testing.T) {
	l := NewRPVList(60)
	l.Note(1, 100)
	l.Note(2, 110)
	l.Note(3, 120)
	got := l.Snapshot(125)
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("Snapshot = %v", got)
	}
	if !l.Contains(2, 125) || l.Contains(9, 125) {
		t.Error("Contains wrong")
	}
}

func TestRPVTimeout(t *testing.T) {
	l := NewRPVList(60)
	l.Note(1, 100)
	l.Note(2, 130)
	if got := l.Snapshot(159); len(got) != 2 {
		t.Fatalf("before timeout: %v", got)
	}
	// Entry 1 expires at 160 (timeout inclusive at >= 60s).
	if got := l.Snapshot(160); len(got) != 1 || got[0] != 2 {
		t.Fatalf("after timeout: %v", got)
	}
	if got := l.Snapshot(300); got != nil {
		t.Fatalf("all expired: %v", got)
	}
}

func TestRPVMaxLenEvictsOldest(t *testing.T) {
	l := NewRPVList(0) // no timeout
	l.maxLen = 3
	for id := VolumeID(1); id <= 5; id++ {
		l.Note(id, int64(id))
	}
	got := l.Snapshot(10)
	if len(got) != 3 || got[0] != 3 || got[2] != 5 {
		t.Fatalf("Snapshot = %v, want [3 4 5]", got)
	}
}

func TestRPVRefreshMovesToBack(t *testing.T) {
	l := NewRPVList(0)
	l.maxLen = 3
	l.Note(1, 1)
	l.Note(2, 2)
	l.Note(3, 3)
	l.Note(1, 4) // refresh
	l.Note(4, 5) // evicts oldest, which is now 2
	got := l.Snapshot(6)
	if len(got) != 3 || got[0] != 3 || got[1] != 1 || got[2] != 4 {
		t.Fatalf("Snapshot = %v, want [3 1 4]", got)
	}
}

func TestRPVTimeoutMustNotExceedFreshness(t *testing.T) {
	// The timeout bounds how long refreshes are suppressed: a volume
	// noted at t is absent from snapshots at t+timeout, so the server
	// can piggyback again within any freshness interval >= timeout.
	const delta = 300 // freshness interval
	l := NewRPVList(delta)
	l.Note(7, 1000)
	if l.Contains(7, 1000+delta) {
		t.Error("entry must expire by the freshness interval")
	}
}

func TestRPVTableConcurrent(t *testing.T) {
	tbl := NewRPVTable(60)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			server := "s" + string(rune('a'+i%3))
			for j := 0; j < 200; j++ {
				tbl.Note(server, VolumeID(j%10), int64(j))
				tbl.Snapshot(server, int64(j))
			}
		}(i)
	}
	wg.Wait()
	if tbl.Servers() > 3 {
		t.Errorf("Servers = %d, want <= 3", tbl.Servers())
	}
}

func TestRPVTableDropsEmptyLists(t *testing.T) {
	tbl := NewRPVTable(10)
	tbl.Note("s1", 1, 100)
	if got := tbl.Snapshot("s1", 105); len(got) != 1 {
		t.Fatalf("Snapshot = %v", got)
	}
	if got := tbl.Snapshot("s1", 500); got != nil {
		t.Fatalf("expired Snapshot = %v", got)
	}
	if tbl.Servers() != 0 {
		t.Errorf("empty list should be dropped, Servers = %d", tbl.Servers())
	}
}

func TestRPVLenAndDefaults(t *testing.T) {
	l := NewRPVList(0)
	for id := VolumeID(0); id < 40; id++ {
		l.Note(id, int64(id))
	}
	if got := l.Len(100); got != 32 {
		t.Errorf("RPV list length: Len = %d, want 32", got)
	}
}
