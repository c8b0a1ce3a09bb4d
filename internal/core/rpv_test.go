package core

import (
	"slices"
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
	if !slices.Contains(got, 2) || slices.Contains(got, 9) {
		t.Errorf("Snapshot = %v, want 2 in it and 9 not", got)
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
	if slices.Contains(l.Snapshot(1000+delta), 7) {
		t.Error("entry must expire by the freshness interval")
	}
}

func TestRPVLenAndDefaults(t *testing.T) {
	l := NewRPVList(0)
	for id := VolumeID(0); id < 40; id++ {
		l.Note(id, int64(id))
	}
	if got := len(l.Snapshot(100)); got != 32 {
		t.Errorf("RPV list length: %d live entries, want 32", got)
	}
}
