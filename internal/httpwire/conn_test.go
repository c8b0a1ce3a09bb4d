package httpwire

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"piggyback/internal/core"
)

// startServer runs a Server on a loopback listener and returns its address
// and a cleanup func.
func startServer(t *testing.T, h Handler) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Handler: h, IdleTimeout: 2 * time.Second}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String()
}

func echoHandler(_ context.Context, req *Request) *Response {
	resp := NewResponse(200)
	resp.Body = []byte("echo:" + req.Path)
	return resp
}

func TestClientServerBasic(t *testing.T) {
	addr := startServer(t, HandlerFunc(echoHandler))
	c := NewClient()
	defer c.Close()
	resp, err := c.DoContext(context.Background(), addr, NewRequest("GET", "/hello"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || string(resp.Body) != "echo:/hello" {
		t.Fatalf("got %d %q", resp.Status, resp.Body)
	}
}

func TestPersistentConnectionReuse(t *testing.T) {
	l := startTrackedServer(t, HandlerFunc(echoHandler))
	c := NewClient()
	defer c.Close()
	for i := 0; i < 10; i++ {
		resp, err := c.DoContext(context.Background(), l.Addr().String(), NewRequest("GET", fmt.Sprintf("/r%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != 200 {
			t.Fatalf("status = %d", resp.Status)
		}
	}
	if got := l.accepted(); got != 1 {
		t.Errorf("10 requests used %d connections, want 1 (persistent)", got)
	}
}

func TestConnectionCloseHonored(t *testing.T) {
	addr := startServer(t, HandlerFunc(echoHandler))
	c := NewClient()
	defer c.Close()
	req := NewRequest("GET", "/bye")
	req.Header.Set("Connection", "close")
	resp, err := c.DoContext(context.Background(), addr, req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Header.WantsClose() {
		t.Error("server should echo Connection: close")
	}
	// Next request must transparently redial.
	resp, err = c.DoContext(context.Background(), addr, NewRequest("GET", "/again"))
	if err != nil || resp.Status != 200 {
		t.Fatalf("redial failed: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	addr := startServer(t, HandlerFunc(echoHandler))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := NewClient()
			defer c.Close()
			for i := 0; i < 20; i++ {
				path := fmt.Sprintf("/g%d/r%d", g, i)
				resp, err := c.DoContext(context.Background(), addr, NewRequest("GET", path))
				if err != nil {
					t.Errorf("do: %v", err)
					return
				}
				if string(resp.Body) != "echo:"+path {
					t.Errorf("wrong body %q for %s", resp.Body, path)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestSharedClientConcurrent(t *testing.T) {
	// One client shared by many goroutines: each in-flight request owns
	// its pooled connection exclusively, so bodies never cross wires.
	addr := startServer(t, HandlerFunc(echoHandler))
	c := NewClient()
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				path := fmt.Sprintf("/s%d-%d", g, i)
				resp, err := c.DoContext(context.Background(), addr, NewRequest("GET", path))
				if err != nil || string(resp.Body) != "echo:"+path {
					t.Errorf("shared client: %v %q", err, resp)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestEndToEndPiggybackExchange(t *testing.T) {
	// A handler that applies the real filter/piggyback helpers over a
	// live TCP connection — the §2.3 exchange end to end.
	vols := core.NewDirVolumes(core.DirConfig{Level: 1, MTF: true})
	vols.Observe(core.Access{Source: "seed", Time: 1, Element: core.Element{URL: "/a/x.html", Size: 10, LastModified: 5}})
	vols.Observe(core.Access{Source: "seed", Time: 2, Element: core.Element{URL: "/a/y.html", Size: 20, LastModified: 6}})

	h := HandlerFunc(func(_ context.Context, req *Request) *Response {
		resp := NewResponse(200)
		resp.Body = []byte("content of " + req.Path)
		if f, ok := GetFilter(req); ok && req.AcceptsChunkedTrailer() {
			if m, ok := vols.Piggyback(req.Path, 3, f); ok {
				AttachPiggyback(resp, m)
			}
		}
		return resp
	})
	addr := startServer(t, h)
	c := NewClient()
	defer c.Close()

	req := NewRequest("GET", "/a/x.html")
	SetFilter(req, core.Filter{MaxPiggy: 10})
	resp, err := c.DoContext(context.Background(), addr, req)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "content of /a/x.html" {
		t.Fatalf("body = %q", resp.Body)
	}
	m, ok := ExtractPiggyback(resp)
	if !ok {
		t.Fatal("no piggyback in trailer")
	}
	if len(m.Elements) != 1 || m.Elements[0].URL != "/a/y.html" {
		t.Fatalf("piggyback = %+v", m)
	}

	// Second request listing the volume in the RPV filter: no piggyback.
	req2 := NewRequest("GET", "/a/x.html")
	SetFilter(req2, core.Filter{MaxPiggy: 10, RPV: []core.VolumeID{m.Volume}})
	resp2, err := c.DoContext(context.Background(), addr, req2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ExtractPiggyback(resp2); ok {
		t.Error("RPV-suppressed request still got a piggyback")
	}
}

func TestServerMalformedRequestGets400(t *testing.T) {
	addr := startServer(t, HandlerFunc(echoHandler))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("NONSENSE\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, _ := conn.Read(buf)
	if n == 0 {
		t.Fatal("no response to malformed request")
	}
	if got := string(buf[:n]); !contains(got, "400") {
		t.Errorf("expected 400, got %q", got)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestServerCloseUnblocksServe(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Handler: HandlerFunc(echoHandler)}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	time.Sleep(50 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
}
