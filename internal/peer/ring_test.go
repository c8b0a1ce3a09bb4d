package peer

import (
	"fmt"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("www.load.test/dir%d/resource%d.html", i%37, i)
	}
	return out
}

func peersN(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("127.0.0.1:%d", 9000+i)
	}
	return out
}

func countOwners(r *Ring, ks []string) map[string]int {
	out := make(map[string]int)
	for _, k := range ks {
		out[r.Owner(k)]++
	}
	return out
}

// Balance: with virtual nodes, every peer's share of 1k keys stays within
// ±20% of the even split, across several fleet sizes.
func TestRingBalance(t *testing.T) {
	ks := keys(1000)
	for _, n := range []int{2, 3, 5, 8} {
		r := NewRing(peersN(n))
		counts := countOwners(r, ks)
		even := float64(len(ks)) / float64(n)
		for _, p := range r.Peers() {
			got := float64(counts[p])
			if got < 0.8*even || got > 1.2*even {
				t.Errorf("n=%d peer %s owns %.0f keys, outside ±20%% of even %.1f",
					n, p, got, even)
			}
		}
	}
}

// Determinism: the ring is a pure function of the member set — order and
// duplicates don't matter, and every key has exactly one owner.
func TestRingDeterministic(t *testing.T) {
	ps := peersN(4)
	a := NewRing(ps)
	b := NewRing([]string{ps[2], ps[0], ps[3], ps[1], ps[0]})
	for _, k := range keys(200) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("owner of %q differs across construction orders: %q vs %q",
				k, a.Owner(k), b.Owner(k))
		}
	}
	if a.Size() != 4 || !a.Contains(ps[0]) || a.Contains("nope") {
		t.Fatalf("membership: size=%d", a.Size())
	}
}

// Join: adding a peer moves keys only TO the new peer, and roughly 1/(N+1)
// of them (within 2× of ideal — consistent hashing's minimal-remapping
// property).
func TestRingJoinMinimalRemapping(t *testing.T) {
	ks := keys(1000)
	ps := peersN(5)
	before := NewRing(ps)
	joined := "127.0.0.1:9990"
	after := NewRing(append(append([]string{}, ps...), joined))

	moved := 0
	for _, k := range ks {
		oldOwner, newOwner := before.Owner(k), after.Owner(k)
		if oldOwner == newOwner {
			continue
		}
		moved++
		if newOwner != joined {
			t.Fatalf("key %q moved %q -> %q, not to the joining peer", k, oldOwner, newOwner)
		}
	}
	ideal := float64(len(ks)) / float64(after.Size())
	if f := float64(moved); f == 0 || f > 2*ideal {
		t.Errorf("join moved %d keys; want (0, %.0f] (~1/N of %d)", moved, 2*ideal, len(ks))
	}
}

// Leave: removing a peer moves only the keys it owned; everyone else's
// keys keep their owner.
func TestRingLeaveMinimalRemapping(t *testing.T) {
	ks := keys(1000)
	ps := peersN(5)
	before := NewRing(ps)
	departed := ps[2]
	after := NewRing(append(append([]string{}, ps[:2]...), ps[3:]...))

	moved := 0
	for _, k := range ks {
		oldOwner, newOwner := before.Owner(k), after.Owner(k)
		if oldOwner == newOwner {
			continue
		}
		moved++
		if oldOwner != departed {
			t.Fatalf("key %q moved %q -> %q though its owner never left", k, oldOwner, newOwner)
		}
		if newOwner == departed {
			t.Fatalf("key %q assigned to the departed peer", k)
		}
	}
	ideal := float64(len(ks)) / float64(before.Size())
	if f := float64(moved); f == 0 || f > 2*ideal {
		t.Errorf("leave moved %d keys; want (0, %.0f] (~1/N of %d)", moved, 2*ideal, len(ks))
	}
}

// An empty ring owns nothing; a single-peer ring owns everything.
func TestRingDegenerate(t *testing.T) {
	if got := NewRing(nil).Owner("k"); got != "" {
		t.Fatalf("empty ring owner = %q, want \"\"", got)
	}
	one := NewRing([]string{"127.0.0.1:9000"})
	for _, k := range keys(50) {
		if one.Owner(k) != "127.0.0.1:9000" {
			t.Fatalf("single-peer ring misrouted %q", k)
		}
	}
}
