package proxy

import (
	"fmt"
	"sync"
	"testing"
)

func TestFreshnessDefaultUntilFirstChange(t *testing.T) {
	f := NewFreshnessEstimator(900, 60, 86400)
	if got := f.Delta("/a"); got != 900 {
		t.Errorf("untracked Delta = %d, want default 900", got)
	}
	// A single observation establishes a baseline Last-Modified but is not
	// a change yet.
	f.Observe("/a", 1000)
	if got := f.Delta("/a"); got != 900 {
		t.Errorf("Delta after first observation = %d, want default 900", got)
	}
	if f.tracked() != 1 || f.changeCount("/a") != 0 {
		t.Errorf("tracked/changes = %d/%d, want 1/0", f.tracked(), f.changeCount("/a"))
	}
}

func TestFreshnessFirstChangeSetsInterval(t *testing.T) {
	f := NewFreshnessEstimator(900, 0, 0)
	f.Observe("/a", 1000)
	f.Observe("/a", 3000) // changed after 2000s
	if got := f.changeCount("/a"); got != 1 {
		t.Fatalf("changes = %d, want 1", got)
	}
	// Default fraction 0.5: validate twice per expected change.
	if got := f.Delta("/a"); got != 1000 {
		t.Errorf("Delta = %d, want 2000*0.5 = 1000", got)
	}
}

func TestFreshnessEWMA(t *testing.T) {
	f := NewFreshnessEstimator(900, 0, 0)
	f.fraction = 1 // expose the mean directly
	f.Observe("/a", 1000)
	f.Observe("/a", 2000) // interval 1000 → ewma = 1000
	f.Observe("/a", 2500) // interval 500  → ewma = 0.3*500 + 0.7*1000 = 850
	if got := f.Delta("/a"); got != 850 {
		t.Errorf("Delta = %d, want EWMA 850", got)
	}
}

func TestFreshnessIgnoresStaleLastModified(t *testing.T) {
	f := NewFreshnessEstimator(900, 0, 0)
	f.Observe("/a", 5000)
	f.Observe("/a", 5000) // same version
	f.Observe("/a", 4000) // older version (e.g. stale piggyback)
	f.Observe("/a", 0)    // absent Last-Modified
	if got := f.changeCount("/a"); got != 0 {
		t.Errorf("changes = %d, want 0: non-increasing LM is not a change", got)
	}
	if got := f.Delta("/a"); got != 900 {
		t.Errorf("Delta = %d, want default 900", got)
	}
}

func TestFreshnessClamp(t *testing.T) {
	f := NewFreshnessEstimator(900, 600, 7200)
	f.Observe("/fast", 1000)
	f.Observe("/fast", 1010) // changes every 10s → raw Δ 5 → clamped up
	if got := f.Delta("/fast"); got != 600 {
		t.Errorf("fast-changing Delta = %d, want Min 600", got)
	}
	f.Observe("/slow", 0xF4240)
	f.Observe("/slow", 0xF4240+1000000) // ~11.6 days → raw Δ 500000 → clamped down
	if got := f.Delta("/slow"); got != 7200 {
		t.Errorf("slow-changing Delta = %d, want Max 7200", got)
	}
}

func TestFreshnessConcurrent(t *testing.T) {
	f := NewFreshnessEstimator(900, 60, 86400)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			url := fmt.Sprintf("/r%d", w%4)
			for i := int64(0); i < 200; i++ {
				f.Observe(url, 1000+i*100)
				f.Delta(url)
			}
		}(w)
	}
	wg.Wait()
	if f.tracked() != 4 {
		t.Errorf("tracked = %d, want 4", f.tracked())
	}
}
