package core

import (
	"math/rand"
	"strconv"
	"testing"
)

func listURLs(l *mtfList) []string {
	var out []string
	l.Walk(func(n *mtfNode) bool {
		out = append(out, n.elem.URL)
		return true
	})
	return out
}

func TestMTFTouchOrdering(t *testing.T) {
	l := newMTFList()
	l.Touch(Element{URL: "/a"}, "text/html", 1)
	l.Touch(Element{URL: "/b"}, "text/html", 2)
	l.Touch(Element{URL: "/c"}, "text/html", 3)
	got := listURLs(l)
	if got[0] != "/c" || got[1] != "/b" || got[2] != "/a" {
		t.Fatalf("order after inserts: %v", got)
	}
	l.Touch(Element{URL: "/a"}, "text/html", 4)
	got = listURLs(l)
	if got[0] != "/a" || got[1] != "/c" || got[2] != "/b" {
		t.Fatalf("order after re-touch: %v", got)
	}
	if n, _ := l.Get("/a"); n.accessCount != 2 {
		t.Errorf("accessCount = %d, want 2", n.accessCount)
	}
}

func TestMTFRemoveAndUpdate(t *testing.T) {
	l := newMTFList()
	l.Touch(Element{URL: "/a", Size: 1}, "text/html", 1)
	l.Touch(Element{URL: "/b", Size: 2}, "text/html", 2)
	if !l.Update(Element{URL: "/a", Size: 99, LastModified: 7}) {
		t.Fatal("Update existing failed")
	}
	if n, _ := l.Get("/a"); n.elem.Size != 99 || n.elem.LastModified != 7 {
		t.Errorf("Update did not refresh attributes: %+v", n.elem)
	}
	if l.Update(Element{URL: "/zzz"}) {
		t.Error("Update of missing element should return false")
	}
	if !l.Remove("/a") || l.Remove("/a") {
		t.Error("Remove semantics wrong")
	}
	if l.Len() != 1 {
		t.Errorf("Len = %d, want 1", l.Len())
	}
	// Removing the only element empties head and tail.
	l.Remove("/b")
	if l.head != nil || l.tail != nil || l.Len() != 0 {
		t.Error("empty list should have nil head/tail")
	}
}

// checkInvariants verifies the doubly-linked structure matches the index.
func checkInvariants(t *testing.T, l *mtfList) {
	t.Helper()
	seen := 0
	var prev *mtfNode
	for n := l.head; n != nil; n = n.next {
		seen++
		if n.prev != prev {
			t.Fatalf("node %q has wrong prev", n.elem.URL)
		}
		if got, ok := l.index[n.elem.URL]; !ok || got != n {
			t.Fatalf("node %q not indexed", n.elem.URL)
		}
		prev = n
		if seen > len(l.index)+1 {
			t.Fatal("list longer than index (cycle?)")
		}
	}
	if l.tail != prev {
		t.Fatal("tail pointer wrong")
	}
	if seen != len(l.index) {
		t.Fatalf("list has %d nodes, index has %d", seen, len(l.index))
	}
}

func TestMTFRandomOperationsKeepInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := newMTFList()
	for i := 0; i < 3000; i++ {
		url := "/r" + strconv.Itoa(rng.Intn(50))
		switch rng.Intn(10) {
		case 0:
			l.Remove(url)
		case 2:
			l.Update(Element{URL: url, Size: int64(i)})
		default:
			l.Touch(Element{URL: url, Size: int64(i)}, "text/html", int64(i))
		}
		if i%250 == 0 {
			checkInvariants(t, l)
		}
	}
	checkInvariants(t, l)
}

func TestMTFMostRecentFirstProperty(t *testing.T) {
	// After any Touch sequence, lastAccess is nonincreasing front to
	// back — the invariant that makes piggyback messages carry the most
	// recently accessed elements first.
	rng := rand.New(rand.NewSource(5))
	l := newMTFList()
	for i := 0; i < 2000; i++ {
		url := "/r" + strconv.Itoa(rng.Intn(40))
		l.Touch(Element{URL: url}, "text/html", int64(i))
	}
	last := int64(1 << 62)
	l.Walk(func(n *mtfNode) bool {
		if n.lastAccess > last {
			t.Fatalf("lastAccess not monotone: %d after %d", n.lastAccess, last)
		}
		last = n.lastAccess
		return true
	})
}
