package delta

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMakeApplyIdentity(t *testing.T) {
	body := bytes.Repeat([]byte("same old content "), 100)
	p := Make(body, body, 64)
	if len(p.Blocks) != 0 {
		t.Fatalf("identical bodies produced %d changed blocks", len(p.Blocks))
	}
	got, err := Apply(body, p)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("identity apply: %v", err)
	}
}

func TestMakeApplySmallChange(t *testing.T) {
	old := bytes.Repeat([]byte("x"), 4096)
	new := append([]byte(nil), old...)
	new[1000] = 'Y' // one byte in one block
	p := Make(old, new, 512)
	if len(p.Blocks) != 1 || p.Blocks[0].Index != 1 {
		t.Fatalf("changed blocks = %+v", p.Blocks)
	}
	got, err := Apply(old, p)
	if err != nil || !bytes.Equal(got, new) {
		t.Fatalf("apply: %v", err)
	}
	// The delta should be far smaller than the body (§4: "most changes
	// are small, relative to the size of the resource").
	if p.WireSize() >= len(new)/2 {
		t.Errorf("patch %d B not smaller than body %d B", p.WireSize(), len(new))
	}
}

func TestMakeApplyGrowShrink(t *testing.T) {
	old := bytes.Repeat([]byte("a"), 1000)
	grown := append(append([]byte(nil), old...), bytes.Repeat([]byte("b"), 700)...)
	p := Make(old, grown, 256)
	got, err := Apply(old, p)
	if err != nil || !bytes.Equal(got, grown) {
		t.Fatalf("grow: %v", err)
	}
	shrunk := old[:300]
	p = Make(old, shrunk, 256)
	got, err = Apply(old, p)
	if err != nil || !bytes.Equal(got, shrunk) {
		t.Fatalf("shrink: %v (len %d)", err, len(got))
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	old := bytes.Repeat([]byte("0123456789"), 300)
	new := append([]byte(nil), old...)
	new[5] = 'Z'
	new[2000] = 'Q'
	p := Make(old, new, 512)
	dec, err := Decode(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Apply(old, dec)
	if err != nil || !bytes.Equal(got, new) {
		t.Fatalf("after roundtrip: %v", err)
	}
	if got := p.WireSize(); got != len(p.Encode()) {
		t.Errorf("WireSize = %d, encoded = %d", got, len(p.Encode()))
	}
}

func TestApplyMakeProperty(t *testing.T) {
	// For arbitrary old/new byte strings: Apply(old, Make(old, new)) == new,
	// including through the wire encoding.
	f := func(oldSeed, newSeed int64, oldLen, newLen uint16, bs uint8) bool {
		blockSize := int(bs)%1000 + 1
		old := randBytes(oldSeed, int(oldLen)%5000)
		new := randBytes(newSeed, int(newLen)%5000)
		p := Make(old, new, blockSize)
		dec, err := Decode(p.Encode())
		if err != nil {
			return false
		}
		got, err := Apply(old, dec)
		return err == nil && bytes.Equal(got, new)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyMakePropertyCorrelated(t *testing.T) {
	// The realistic case: new is old with sparse point mutations.
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		old := randBytes(int64(i), rng.Intn(8000)+100)
		new := append([]byte(nil), old...)
		for m := rng.Intn(5); m >= 0; m-- {
			new[rng.Intn(len(new))] ^= 0xFF
		}
		p := Make(old, new, 512)
		got, err := Apply(old, p)
		if err != nil || !bytes.Equal(got, new) {
			t.Fatalf("case %d: %v", i, err)
		}
		// Sparse mutations on a large body must yield a small patch:
		// at most (changedBlocks * blockSize) + per-block framing.
		if budget := len(p.Blocks)*(512+24) + 64; p.WireSize() > budget {
			t.Errorf("case %d: patch %d B exceeds budget %d B", i, p.WireSize(), budget)
		}
	}
}

func randBytes(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestDecodeErrors(t *testing.T) {
	bad := [][]byte{
		nil,
		[]byte("not a patch\n"),
		[]byte("blockdiff 0 100 1\n"),
		[]byte("blockdiff 512 -1 0\n"),
		[]byte("blockdiff 512 100 999\n"),
		[]byte("blockdiff 512 1024 1\n5\n"),
		[]byte("blockdiff 512 1024 1\n0 9999\n"),
		[]byte("blockdiff 512 1024 1\n0 4\nab"),
		[]byte("blockdiff 512 1024 1\n0 2\nabX"),
	}
	for _, b := range bad {
		if _, err := Decode(b); err == nil {
			t.Errorf("Decode(%q) succeeded", b)
		}
	}
}

func TestApplyErrors(t *testing.T) {
	old := make([]byte, 100)
	cases := []Patch{
		{BlockSize: 0, NewLen: 10},
		{BlockSize: 10, NewLen: -1},
		{BlockSize: 10, NewLen: 20, Blocks: []Block{{Index: 5, Data: []byte("xxxxx")}}},
		{BlockSize: 10, NewLen: 20, Blocks: []Block{{Index: 1, Data: make([]byte, 15)}}},
		{BlockSize: 10, NewLen: 20, Blocks: []Block{{Index: -1, Data: []byte("x")}}},
	}
	for i, p := range cases {
		if _, err := Apply(old, p); err == nil {
			t.Errorf("case %d succeeded", i)
		}
	}
}

func BenchmarkExtDeltaEncoding(b *testing.B) {
	old := bytes.Repeat([]byte("the quick brown fox "), 1600) // 32 kB
	new := append([]byte(nil), old...)
	new[100] = 'X'
	new[20000] = 'Y'
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := Make(old, new, DefaultBlockSize)
		enc := p.Encode()
		dec, err := Decode(enc)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Apply(old, dec); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(enc)), "patchBytes")
	}
}
