package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/service"
)

// TestHalfSentHeaderIsClosed: the daemon's listener has a header timeout
// and no write timeout, and a client that sends half a request header and
// stalls has its connection closed once the timeout passes, while a
// complete request on the same listener is answered.
func TestHalfSentHeaderIsClosed(t *testing.T) {
	svc := service.NewServer(service.Config{})
	defer svc.Close()
	hs := newHTTPServer("127.0.0.1:0", svc.Handler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.WriteTimeout != 0 {
		t.Fatalf("ReadHeaderTimeout %v, WriteTimeout %v; want %v and none", hs.ReadHeaderTimeout, hs.WriteTimeout, readHeaderTimeout)
	}
	const timeout = 100 * time.Millisecond
	hs.ReadHeaderTimeout = timeout // the constant's effect, at test speed
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		if err := hs.Close(); err != nil {
			t.Error(err)
		}
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Error(err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: topomapd\r\nX-Half: "); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	n, err := conn.Read(make([]byte, 512))
	var ne net.Error
	switch {
	case errors.As(err, &ne) && ne.Timeout():
		t.Fatal("a half-sent header still holds its connection after 5 s")
	case err == nil:
		t.Fatalf("a half-sent header got %d bytes of reply, want the connection closed", n)
	}
	if elapsed := time.Since(start); elapsed < timeout {
		t.Errorf("connection closed after %v, before the %v header timeout", elapsed, timeout)
	}

	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("complete request: status %d", resp.StatusCode)
	}
}
