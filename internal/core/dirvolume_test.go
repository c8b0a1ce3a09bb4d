package core

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
)

func obs(d *DirVolumes, src, url string, size int64, at int64) {
	d.Observe(Access{Source: src, Time: at, Element: Element{URL: url, Size: size, LastModified: at - 1000}})
}

func TestDirVolumesGrouping(t *testing.T) {
	d := NewDirVolumes(DirConfig{Level: 1, MTF: true})
	obs(d, "p1", "/a/b.html", 100, 1)
	obs(d, "p1", "/a/d/e.html", 100, 2)
	obs(d, "p1", "/f/g.html", 100, 3)

	ida, ok := d.VolumeOf("/a/b.html")
	if !ok {
		t.Fatal("volume missing")
	}
	idae, _ := d.VolumeOf("/a/d/e.html")
	idf, _ := d.VolumeOf("/f/g.html")
	// §3.2.1: one-level volumes put /a/b.html and /a/d/e.html together,
	// but /f/g.html in a different volume.
	if ida != idae {
		t.Errorf("/a/b.html and /a/d/e.html should share a volume: %d vs %d", ida, idae)
	}
	if ida == idf {
		t.Errorf("/f/g.html should be a different volume")
	}
	if d.NumVolumes() != 2 {
		t.Errorf("NumVolumes = %d, want 2", d.NumVolumes())
	}
}

func TestDirVolumesZeroLevelIsSiteWide(t *testing.T) {
	d := NewDirVolumes(DirConfig{Level: 0, MTF: true})
	obs(d, "p1", "/a/b.html", 100, 1)
	obs(d, "p1", "/f/g.html", 100, 2)
	if d.NumVolumes() != 1 {
		t.Fatalf("NumVolumes = %d, want 1 (site-wide)", d.NumVolumes())
	}
	m, ok := d.Piggyback("/a/b.html", 3, Filter{})
	if !ok || len(m.Elements) != 1 || m.Elements[0].URL != "/f/g.html" {
		t.Fatalf("Piggyback = %+v, %v", m, ok)
	}
}

func TestDirVolumesPiggybackExcludesRequested(t *testing.T) {
	d := NewDirVolumes(DirConfig{Level: 1, MTF: true})
	obs(d, "p1", "/a/x.html", 10, 1)
	obs(d, "p1", "/a/y.html", 10, 2)
	m, ok := d.Piggyback("/a/x.html", 3, Filter{})
	if !ok {
		t.Fatal("expected piggyback")
	}
	for _, e := range m.Elements {
		if e.URL == "/a/x.html" {
			t.Error("piggyback must not include the requested resource")
		}
	}
}

func TestDirVolumesMostRecentFirst(t *testing.T) {
	d := NewDirVolumes(DirConfig{Level: 1, MTF: true})
	obs(d, "p1", "/a/1.html", 10, 1)
	obs(d, "p1", "/a/2.html", 10, 2)
	obs(d, "p1", "/a/3.html", 10, 3)
	obs(d, "p1", "/a/1.html", 10, 4) // /a/1 back to front
	m, ok := d.Piggyback("/a/9.html", 5, Filter{MaxPiggy: 2})
	if !ok || len(m.Elements) != 2 {
		t.Fatalf("Piggyback = %+v, %v", m, ok)
	}
	if m.Elements[0].URL != "/a/1.html" || m.Elements[1].URL != "/a/3.html" {
		t.Errorf("elements not in recency order: %+v", m.Elements)
	}
}

func TestDirVolumesRPVSuppression(t *testing.T) {
	d := NewDirVolumes(DirConfig{Level: 1, MTF: true})
	obs(d, "p1", "/a/x.html", 10, 1)
	obs(d, "p1", "/a/y.html", 10, 2)
	id, _ := d.VolumeOf("/a/x.html")
	if _, ok := d.Piggyback("/a/x.html", 3, Filter{RPV: []VolumeID{id}}); ok {
		t.Error("piggyback should be suppressed for RPV-listed volume")
	}
	if _, ok := d.Piggyback("/a/x.html", 3, Filter{RPV: []VolumeID{id + 1}}); !ok {
		t.Error("unrelated RPV id must not suppress")
	}
}

func TestDirVolumesDisabledFilter(t *testing.T) {
	d := NewDirVolumes(DirConfig{Level: 1, MTF: true})
	obs(d, "p1", "/a/x.html", 10, 1)
	obs(d, "p1", "/a/y.html", 10, 2)
	if _, ok := d.Piggyback("/a/x.html", 3, Filter{Disabled: true}); ok {
		t.Error("disabled filter must suppress piggyback")
	}
}

func TestDirVolumesAccessFilter(t *testing.T) {
	d := NewDirVolumes(DirConfig{Level: 1, MTF: true})
	for i := 0; i < 5; i++ {
		obs(d, "p1", "/a/hot.html", 10, int64(i))
	}
	obs(d, "p1", "/a/cold.html", 10, 100)
	m, ok := d.Piggyback("/a/q.html", 101, Filter{MinAccess: 3})
	if !ok || len(m.Elements) != 1 || m.Elements[0].URL != "/a/hot.html" {
		t.Fatalf("access filter failed: %+v, %v", m, ok)
	}
	// Filter of 10 excludes everything: no piggyback at all.
	if _, ok := d.Piggyback("/a/q.html", 101, Filter{MinAccess: 10}); ok {
		t.Error("all-excluded filter should suppress the piggyback")
	}
}

func TestDirVolumesSizeAndTypeFilter(t *testing.T) {
	d := NewDirVolumes(DirConfig{Level: 1, PartitionByType: true, MTF: true})
	obs(d, "p1", "/a/big.html", 100000, 1)
	obs(d, "p1", "/a/img.gif", 500, 2)
	obs(d, "p1", "/a/small.html", 400, 3)

	m, ok := d.Piggyback("/a/q.html", 4, Filter{MaxSize: 1000, NoTypes: []string{"image"}})
	if !ok || len(m.Elements) != 1 || m.Elements[0].URL != "/a/small.html" {
		t.Fatalf("size/type filter failed: %+v, %v", m, ok)
	}
}

func TestDirVolumesMaxPiggyCaps(t *testing.T) {
	d := NewDirVolumes(DirConfig{Level: 0, ServerMaxPiggy: 5, MTF: true})
	for i := 0; i < 20; i++ {
		obs(d, "p1", "/a/r"+strconv.Itoa(i)+".html", 10, int64(i))
	}
	m, _ := d.Piggyback("/a/q.html", 30, Filter{})
	if len(m.Elements) != 5 {
		t.Errorf("server cap: got %d elements, want 5", len(m.Elements))
	}
	m, _ = d.Piggyback("/a/q.html", 30, Filter{MaxPiggy: 2})
	if len(m.Elements) != 2 {
		t.Errorf("filter cap: got %d elements, want 2", len(m.Elements))
	}
}

func TestDirVolumesTrim(t *testing.T) {
	d := NewDirVolumes(DirConfig{Level: 0, MaxVolumeElements: 8, MTF: true})
	for i := 0; i < 100; i++ {
		obs(d, "p1", "/a/r"+strconv.Itoa(i)+".html", 10, int64(i))
	}
	if n := d.NumElements(); n > 8 {
		t.Errorf("NumElements = %d, want <= 8", n)
	}
}

func TestDirVolumesUpdateAndRemove(t *testing.T) {
	d := NewDirVolumes(DirConfig{Level: 1, MTF: true})
	obs(d, "p1", "/a/x.html", 10, 1)
	obs(d, "p1", "/a/y.html", 10, 2)
	if !d.Update(Element{URL: "/a/x.html", Size: 999, LastModified: 555}) {
		t.Fatal("Update failed")
	}
	m, _ := d.Piggyback("/a/y.html", 3, Filter{})
	if len(m.Elements) != 1 || m.Elements[0].Size != 999 || m.Elements[0].LastModified != 555 {
		t.Fatalf("updated attributes not reflected: %+v", m.Elements)
	}
	if !d.Remove("/a/x.html") || d.Remove("/a/x.html") {
		t.Error("Remove semantics wrong")
	}
	if _, ok := d.Piggyback("/a/y.html", 4, Filter{}); ok {
		t.Error("empty volume should not piggyback")
	}
	if d.Update(Element{URL: "/zz/q.html"}) || d.Remove("/zz/q.html") {
		t.Error("unknown prefix should return false")
	}
}

func TestDirVolumesUnknownURL(t *testing.T) {
	d := NewDirVolumes(DirConfig{Level: 1, MTF: true})
	if _, ok := d.Piggyback("/nowhere/x.html", 1, Filter{}); ok {
		t.Error("unknown volume should not piggyback")
	}
	if _, ok := d.VolumeOf("/nowhere/x.html"); ok {
		t.Error("VolumeOf should report missing")
	}
}

func TestDirVolumesFIFOAblation(t *testing.T) {
	d := NewDirVolumes(DirConfig{Level: 0, MTF: false})
	obs(d, "p1", "/a/1.html", 10, 1)
	obs(d, "p1", "/a/2.html", 10, 2)
	obs(d, "p1", "/a/1.html", 10, 3) // re-access must NOT reorder
	m, _ := d.Piggyback("/a/q.html", 4, Filter{})
	if len(m.Elements) != 2 || m.Elements[0].URL != "/a/2.html" {
		t.Errorf("FIFO order violated: %+v", m.Elements)
	}
	// But access counts still accumulate.
	m, ok := d.Piggyback("/a/q.html", 4, Filter{MinAccess: 2})
	if !ok || len(m.Elements) != 1 || m.Elements[0].URL != "/a/1.html" {
		t.Errorf("FIFO access counting broken: %+v, %v", m, ok)
	}
}

func TestDirVolumesConcurrent(t *testing.T) {
	d := NewDirVolumes(DirConfig{Level: 1, MaxVolumeElements: 50, MTF: true, PartitionByType: true})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				url := "/d" + strconv.Itoa(i%5) + "/r" + strconv.Itoa(i%40) + ".html"
				obs(d, "p"+strconv.Itoa(g), url, int64(i), int64(i))
				d.Piggyback(url, int64(i), Filter{MaxPiggy: 10})
			}
		}(g)
	}
	wg.Wait()
	if d.NumVolumes() != 5 {
		t.Errorf("NumVolumes = %d, want 5", d.NumVolumes())
	}
}

func TestDirVolumesLevelAccessor(t *testing.T) {
	if lvl := NewDirVolumes(DirConfig{Level: 3}).Level(); lvl != 3 {
		t.Errorf("Level = %d", lvl)
	}
}

func BenchmarkDirVolumePiggyback(b *testing.B) {
	d := NewDirVolumes(DirConfig{Level: 1, MTF: true, ServerMaxPiggy: 10, PartitionByType: true})
	for i := 0; i < 200; i++ {
		d.Observe(Access{Source: "s", Time: int64(i),
			Element: Element{URL: fmt.Sprintf("/a/r%03d.html", i), Size: int64(i)}})
	}
	f := Filter{MaxPiggy: 10, MinAccess: 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Piggyback("/a/r000.html", int64(i), f)
	}
}
