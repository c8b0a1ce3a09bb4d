package proxy

import (
	"math/rand"
	"strconv"
	"sync"
	"testing"
)

func TestInformedQueueSmallestFirst(t *testing.T) {
	q := NewInformedQueue()
	q.Push(FetchItem{Host: "h", URL: "/big", Size: 5000})
	q.Push(FetchItem{Host: "h", URL: "/small", Size: 10})
	q.Push(FetchItem{Host: "h", URL: "/mid", Size: 500})
	want := []string{"/small", "/mid", "/big"}
	for _, w := range want {
		it, ok := q.Pop()
		if !ok || it.URL != w {
			t.Fatalf("Pop = %+v, want %s", it, w)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Error("Pop from empty queue")
	}
}

func TestInformedQueueDedup(t *testing.T) {
	q := NewInformedQueue()
	if !q.Push(FetchItem{Host: "h", URL: "/x", Size: 1}) {
		t.Fatal("first push rejected")
	}
	if q.Push(FetchItem{Host: "h", URL: "/x", Size: 1}) {
		t.Fatal("duplicate push accepted")
	}
	if q.Len() != 1 || !q.contains("h/x") {
		t.Errorf("len=%d", q.Len())
	}
	q.Pop()
	if !q.Push(FetchItem{Host: "h", URL: "/x", Size: 1}) {
		t.Error("re-push after pop rejected")
	}
}

func TestInformedQueueOverflowDropsLargest(t *testing.T) {
	q := NewInformedQueue()
	q.maxLen = 3
	q.Push(FetchItem{Host: "h", URL: "/a", Size: 100})
	q.Push(FetchItem{Host: "h", URL: "/b", Size: 300})
	q.Push(FetchItem{Host: "h", URL: "/c", Size: 200})
	// Queue full; a smaller item displaces the largest (/b).
	if !q.Push(FetchItem{Host: "h", URL: "/d", Size: 50}) {
		t.Fatal("small item rejected on overflow")
	}
	if q.contains("h/b") {
		t.Error("largest item not dropped")
	}
	// A larger-than-everything item is rejected.
	if q.Push(FetchItem{Host: "h", URL: "/e", Size: 999}) {
		t.Error("oversized item accepted on overflow")
	}
	if q.Len() != 3 {
		t.Errorf("len = %d, want 3", q.Len())
	}
}

func TestInformedQueueHeapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	q := NewInformedQueue()
	q.maxLen = 4096
	for i := 0; i < 1000; i++ {
		q.Push(FetchItem{Host: "h", URL: "/r" + strconv.Itoa(i), Size: int64(rng.Intn(10000))})
	}
	last := int64(-1)
	for {
		it, ok := q.Pop()
		if !ok {
			break
		}
		if it.Size < last {
			t.Fatalf("pop order not nondecreasing: %d after %d", it.Size, last)
		}
		last = it.Size
	}
}

func TestInformedQueueConcurrent(t *testing.T) {
	q := NewInformedQueue()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q.Push(FetchItem{Host: "h", URL: "/g" + strconv.Itoa(g) + "-" + strconv.Itoa(i), Size: int64(i)})
				if i%3 == 0 {
					q.Pop()
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestFreshnessEstimatorDefaults(t *testing.T) {
	f := NewFreshnessEstimator(600, 60, 86400)
	if d := f.Delta("/never-seen"); d != 600 {
		t.Errorf("Delta = %d, want default 600", d)
	}
	// One observation (no change yet): still default.
	f.Observe("/x", 1000)
	if d := f.Delta("/x"); d != 600 {
		t.Errorf("Delta after single obs = %d", d)
	}
}

func TestFreshnessEstimatorLearnsChangeRate(t *testing.T) {
	f := NewFreshnessEstimator(600, 10, 86400)
	f.Observe("/x", 1000)
	f.Observe("/x", 1200) // change interval 200
	if d := f.Delta("/x"); d != 100 {
		t.Errorf("Delta = %d, want 100 (half of 200)", d)
	}
	if f.changeCount("/x") != 1 {
		t.Errorf("changeCount = %d", f.changeCount("/x"))
	}
	// Stale or equal Last-Modified values are ignored.
	f.Observe("/x", 1100)
	f.Observe("/x", 1200)
	if f.changeCount("/x") != 1 {
		t.Error("non-increasing LM counted as change")
	}
}

func TestFreshnessEstimatorClamps(t *testing.T) {
	f := NewFreshnessEstimator(600, 100, 1000)
	f.Observe("/fast", 1000)
	f.Observe("/fast", 1010) // interval 10 => Δ=5, clamped up to 100
	if d := f.Delta("/fast"); d != 100 {
		t.Errorf("Delta = %d, want clamped 100", d)
	}
	f.Observe("/slow", 1000)
	f.Observe("/slow", 1000000) // huge interval, clamped down to 1000
	if d := f.Delta("/slow"); d != 1000 {
		t.Errorf("Delta = %d, want clamped 1000", d)
	}
	if f.tracked() != 2 {
		t.Errorf("tracked = %d", f.tracked())
	}
}

func TestFreshnessEstimatorEWMA(t *testing.T) {
	f := NewFreshnessEstimator(600, 1, 1<<40)
	f.Observe("/x", 1000)
	f.Observe("/x", 1100) // first change: ewma = 100
	f.Observe("/x", 1300) // interval 200: ewma = 0.3*200 + 0.7*100 = 130
	if d := f.Delta("/x"); d != 65 {
		t.Errorf("Delta = %d, want 65 (ewma 130 / 2)", d)
	}
}

func TestFreshnessEstimatorIgnoresZero(t *testing.T) {
	f := NewFreshnessEstimator(600, 1, 1<<40)
	f.Observe("/x", 0)
	if f.tracked() != 0 {
		t.Error("zero Last-Modified tracked")
	}
}
