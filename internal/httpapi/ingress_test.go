package httpapi

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// rawPost opens a connection to srvURL, sends the headers of a POST to
// path declaring contentLength body bytes, and hands the connection to body
// to stream them; it returns the server's response, or an error if none
// arrives within wait.
func rawPost(t *testing.T, srvURL, path string, contentLength int64, wait time.Duration,
	body func(conn net.Conn)) (*http.Response, error) {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(srvURL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: bb\r\nContent-Type: application/octet-stream\r\nContent-Length: %d\r\n\r\n",
		path, contentLength)
	go body(conn)
	if err := conn.SetReadDeadline(time.Now().Add(wait)); err != nil {
		t.Fatal(err)
	}
	return http.ReadResponse(bufio.NewReader(conn), nil)
}

// TestBBIngressLimits pins the BB's ingress bounds against an httptest
// replica: a 1 GiB submission is refused at the manifest-derived cap while
// it streams, not after it is buffered; a body trickling in at 1 byte/s is
// cut off at its transfer budget; and meanwhile concurrent GET /v1/result
// calls keep answering.
func TestBBIngressLimits(t *testing.T) {
	_, cluster, _, bbSrv := newTestCluster(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := cluster.RunPipeline(ctx); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Int64
	readErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := &http.Client{Timeout: 2 * time.Second}
		for {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
			resp, err := client.Get(bbSrv.URL + "/v1/result")
			if err == nil {
				_ = resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
			}
			if err != nil {
				select {
				case readErr <- err:
				default:
				}
				return
			}
			reads.Add(1)
		}
	}()

	// A streamed 1 GiB trustee post: the handler stops reading at the cap and
	// answers 413 while the client is still sending.
	const gib = 1 << 30
	var sent atomic.Int64
	resp, err := rawPost(t, bbSrv.URL, "/v1/submit/trusteepost", gib, 10*time.Second, func(conn net.Conn) {
		chunk := make([]byte, 64<<10)
		for sent.Load() < gib {
			n, err := conn.Write(chunk)
			sent.Add(int64(n))
			if err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatalf("no answer to a 1 GiB post: %v", err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("1 GiB post: status %d, want 413", resp.StatusCode)
	}
	if s := sent.Load(); s > 64<<20 {
		t.Fatalf("the server took %d bytes of a capped post before refusing it", s)
	}

	// A vote-set body at 1 byte/s: cut off at its transfer budget.
	start := time.Now()
	resp, err = rawPost(t, bbSrv.URL, "/v1/submit/voteset", 100, 10*time.Second, func(conn net.Conn) {
		for i := 0; i < 100; i++ {
			if _, err := conn.Write([]byte{0}); err != nil {
				return
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Second):
			}
		}
	})
	if err != nil {
		t.Fatalf("a 1 byte/s body was not cut off: %v", err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("1 byte/s body: status %d, want 400", resp.StatusCode)
	}
	if took := time.Since(start); took > transferGrace+3*time.Second {
		t.Fatalf("1 byte/s body held the handler for %v", took)
	}

	close(stop)
	wg.Wait()
	select {
	case err := <-readErr:
		t.Fatalf("GET /v1/result failed while hostile posts were in flight: %v", err)
	default:
	}
	if reads.Load() < 10 {
		t.Fatalf("only %d result reads completed alongside the hostile posts", reads.Load())
	}
}
