package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestSlowHeaderClientDisconnected pins the daemon's HTTP timeouts: a
// client that trickles its request headers one line at a time, never
// finishing them, is disconnected once readHeaderTimeout has passed
// instead of holding the connection forever.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {}))
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	// Trickle one header line every 250ms from another goroutine; the
	// writes start failing once the server hangs up.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if _, err := io.WriteString(conn, "X-Trickle: 1\r\n"); err != nil {
					return
				}
			}
		}
	}()

	deadline := readHeaderTimeout + 5*time.Second
	if err := conn.SetReadDeadline(time.Now().Add(deadline)); err != nil {
		t.Fatal(err)
	}
	_, err = bufio.NewReader(conn).ReadByte()
	elapsed := time.Since(start)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("trickling client still connected after %v", deadline)
	}
	if err == nil {
		t.Fatal("server answered a request whose headers never finished")
	}
	if elapsed < readHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the %v header timeout", elapsed, readHeaderTimeout)
	}
}
