package faultconn

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// pipePair returns a wrapped server-side conn and the client side.
func pipePair(t *testing.T, f Fault) (*Conn, net.Conn) {
	t.Helper()
	server, client := net.Pipe()
	return Wrap(server, f), client
}

func TestTransparentPassThrough(t *testing.T) {
	s, c := pipePair(t, Fault{})
	defer s.Close()
	defer c.Close()
	go s.Write([]byte("hello"))
	buf := make([]byte, 5)
	if _, err := io.ReadFull(c, buf); err != nil || string(buf) != "hello" {
		t.Fatalf("read %q, %v", buf, err)
	}
}

func TestTruncateAfter(t *testing.T) {
	s, c := pipePair(t, Fault{TruncateAfter: 4})
	defer c.Close()
	payload := []byte("0123456789")
	errc := make(chan error, 1)
	go func() {
		_, err := s.Write(payload)
		errc <- err
	}()
	got, _ := io.ReadAll(c)
	if !bytes.Equal(got, payload[:4]) {
		t.Fatalf("peer received %q, want first 4 bytes", got)
	}
	if err := <-errc; err == nil {
		t.Fatal("truncating write reported success")
	}
	// The connection is dead: further writes fail.
	if _, err := s.Write([]byte("x")); err == nil {
		t.Fatal("write after truncation succeeded")
	}
}

func TestBlackholeDropsWrites(t *testing.T) {
	s, c := pipePair(t, Fault{Blackhole: true})
	defer s.Close()
	defer c.Close()
	if n, err := s.Write([]byte("into the void")); err != nil || n != 13 {
		t.Fatalf("blackhole write: n=%d err=%v", n, err)
	}
	// Nothing arrives: a deadline-bounded read times out.
	c.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	buf := make([]byte, 1)
	if _, err := c.Read(buf); err == nil {
		t.Fatal("blackholed data was delivered")
	}
}

func TestResetOnFirstWrite(t *testing.T) {
	s, c := pipePair(t, Fault{Reset: true})
	defer c.Close()
	if _, err := s.Write([]byte("x")); err == nil {
		t.Fatal("reset write succeeded")
	}
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("peer read succeeded after reset")
	}
}

func TestLatencyDelaysFirstWrite(t *testing.T) {
	const lat = 60 * time.Millisecond
	s, c := pipePair(t, Fault{Latency: lat})
	defer s.Close()
	defer c.Close()
	start := time.Now()
	go func() {
		s.Write([]byte("a"))
		s.Write([]byte("b"))
	}()
	buf := make([]byte, 1)
	io.ReadFull(c, buf)
	if d := time.Since(start); d < lat {
		t.Fatalf("first byte arrived after %v, want >= %v", d, lat)
	}
	// Only the first write sleeps.
	start = time.Now()
	io.ReadFull(c, buf)
	if d := time.Since(start); d >= lat {
		t.Fatalf("second byte also delayed: %v", d)
	}
}

func TestProfileDrawPartition(t *testing.T) {
	pr := Profile{LatencyP: 0.25, Latency: time.Millisecond, TruncateP: 0.25,
		TruncateBytes: 10, BlackholeP: 0.25, ResetP: 0.25}
	cases := []struct {
		u    float64
		want Fault
	}{
		{0.10, Fault{Latency: time.Millisecond}},
		{0.30, Fault{TruncateAfter: 10}},
		{0.60, Fault{Blackhole: true}},
		{0.90, Fault{Reset: true}},
	}
	for _, tc := range cases {
		if got := pr.draw(tc.u); got != tc.want {
			t.Errorf("draw(%v) = %+v, want %+v", tc.u, got, tc.want)
		}
	}
	healthy := Profile{LatencyP: 0.1, Latency: time.Millisecond}
	if f := healthy.draw(0.5); f.active() {
		t.Errorf("draw above total probability returned active fault %+v", f)
	}
}

func TestListenerDeterministicSchedule(t *testing.T) {
	// Two listeners with the same seed assign identical fault sequences.
	schedule := func(seed int64) []Fault {
		inner, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer inner.Close()
		l := NewListener(inner, Brownout, seed)
		var faults []Fault
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 8; i++ {
				c, err := l.Accept()
				if err != nil {
					return
				}
				faults = append(faults, c.(*Conn).fault)
				c.Close()
			}
		}()
		for i := 0; i < 8; i++ {
			c, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			c.Close()
		}
		<-done
		return faults
	}
	a, b := schedule(42), schedule(42)
	if len(a) != 8 || len(b) != 8 {
		t.Fatalf("accepted %d/%d conns, want 8", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at conn %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestListenerOverrideAndAbort(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	l := NewListener(inner, Profile{}, 1)
	l.SetFault(&Fault{Blackhole: true})

	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	client, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	sc := <-accepted
	if !sc.(*Conn).fault.Blackhole {
		t.Fatal("override not applied")
	}
	if l.Accepted() != 1 {
		t.Fatalf("Accepted() = %d, want 1", l.Accepted())
	}

	// AbortConns cuts the live connection: the client read fails.
	l.AbortConns()
	client.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := client.Read(make([]byte, 1)); err == nil {
		t.Fatal("read succeeded after AbortConns")
	}

	l.SetFault(nil) // back to (empty) profile: next conn healthy
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c2, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	sc2 := <-accepted
	defer sc2.Close()
	if sc2.(*Conn).fault.active() {
		t.Fatalf("profile restored but conn got fault %+v", sc2.(*Conn).fault)
	}
}
