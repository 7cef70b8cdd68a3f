package main

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"maia/internal/maiad"
)

// The daemon boots on an ephemeral port, serves jobs from the seeded
// cache, and drains cleanly when its context is canceled.
func TestServeAndShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(ctx, []string{"-addr", "127.0.0.1:0"}, ready) }()

	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h maiad.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" || h.CacheEntries == 0 {
		t.Fatalf("healthz: %+v (want seeded cache)", h)
	}

	resp, err = http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiment":"table1"}`))
	if err != nil {
		t.Fatal(err)
	}
	var jr maiad.JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if jr.Cache != maiad.CacheHit || !jr.Seeded {
		t.Fatalf("default job: cache=%q seeded=%v, want seeded hit", jr.Cache, jr.Seeded)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not drain after cancel")
	}
}

// Bad flags fail fast.
func TestBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-addr", "not an address"}, nil); err == nil {
		t.Fatal("bad listen address accepted")
	}
}

// The server cuts off clients that stall their headers or idle on a
// keep-alive connection, but never times out a response: cold jobs may
// legitimately render for a long time.
func TestHTTPServerTimeouts(t *testing.T) {
	h := http.NewServeMux()
	hs := newHTTPServer(h)
	if hs.Handler != h {
		t.Errorf("handler not installed")
	}
	if hs.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", hs.ReadHeaderTimeout)
	}
	if hs.IdleTimeout != 120*time.Second {
		t.Errorf("IdleTimeout = %v, want 120s", hs.IdleTimeout)
	}
	if hs.WriteTimeout != 0 || hs.ReadTimeout != 0 {
		t.Errorf("WriteTimeout = %v, ReadTimeout = %v; want none", hs.WriteTimeout, hs.ReadTimeout)
	}
}
