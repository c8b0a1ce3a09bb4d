package core

// RPVList tracks recently piggybacked volumes for one server (§2.2): "the
// proxy stores a list of recently piggybacked volumes (RPVs) for each
// server... Each list element includes the volume identifier and the time
// the last piggyback message for that volume was received. The proxy can
// limit the RPV list based on a timeout or a maximum size basis."
//
// Entries expire after the list's timeout and the list holds at most
// rpvMaxLen entries (oldest evicted first, FIFO). An RPVList is not safe
// for concurrent use.
type RPVList struct {
	timeout int64
	maxLen  int

	entries []rpvEntry // FIFO: oldest first
}

// rpvMaxLen caps every RPV list.
const rpvMaxLen = 32 // §2.2: a short FIFO per server

type rpvEntry struct {
	id   VolumeID
	seen int64
}

// NewRPVList returns an RPV list whose entries live timeout seconds; zero
// means they never expire. The timeout must not exceed the cache's
// freshness interval Δ, "since this would preclude the server from sending
// refresh information for resources in this volume"; smaller values trade
// piggyback traffic for freshness.
func NewRPVList(timeout int64) *RPVList {
	return &RPVList{timeout: timeout, maxLen: rpvMaxLen}
}

// Note records that a piggyback for volume id arrived at time now. An
// existing entry for the same volume is refreshed (and moved to the back of
// the FIFO).
func (l *RPVList) Note(id VolumeID, now int64) {
	l.expire(now)
	for i := range l.entries {
		if l.entries[i].id == id {
			copy(l.entries[i:], l.entries[i+1:])
			l.entries[len(l.entries)-1] = rpvEntry{id: id, seen: now}
			return
		}
	}
	if len(l.entries) >= l.maxLen {
		copy(l.entries, l.entries[1:])
		l.entries = l.entries[:len(l.entries)-1]
	}
	l.entries = append(l.entries, rpvEntry{id: id, seen: now})
}

// Snapshot returns the live volume ids at time now, in FIFO order. The
// result is what the proxy places in the request filter's rpv attribute.
func (l *RPVList) Snapshot(now int64) []VolumeID {
	l.expire(now)
	if len(l.entries) == 0 {
		return nil
	}
	ids := make([]VolumeID, len(l.entries))
	for i, e := range l.entries {
		ids[i] = e.id
	}
	return ids
}

func (l *RPVList) expire(now int64) {
	if l.timeout <= 0 {
		return
	}
	cut := 0
	for cut < len(l.entries) && now-l.entries[cut].seen >= l.timeout {
		cut++
	}
	if cut > 0 {
		l.entries = append(l.entries[:0], l.entries[cut:]...)
	}
}
