// Command maiad serves the paper's experiments as a service: a
// long-running HTTP/JSON control plane over the same registry, engine,
// fault plans, and model that cmd/maiabench drives in batch. Clients
// POST typed JobSpecs to /v1/jobs (or batches to /v1/sweeps) and get
// the rendered experiment output back; results are content-addressed by
// the canonical spec hash, the committed golden snapshots pre-seed the
// cache, identical in-flight jobs coalesce onto one engine execution,
// every cold job (alone or one spec of a sweep) holds one of -workers
// engine slots, an experiment that fails or panics answers 500
// engine_error or engine_panic, and /metrics exposes per-endpoint
// latency histograms plus cache and coalescer counters.
//
// Usage:
//
//	maiad                      # listen on :8750, golden-seeded cache
//	maiad -addr 127.0.0.1:0    # ephemeral port (logged at startup)
//	maiad -workers 4           # bound concurrent engine executions
//
// SIGINT/SIGTERM drain in-flight requests and exit 0, logging a final
// traffic summary.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"maia/internal/harness"
	"maia/internal/maiad"
)

// Connection timeouts. A client that never finishes its request headers,
// or parks an idle keep-alive connection, is cut off instead of holding
// the connection forever. There is deliberately no write timeout: a
// cold job may legitimately render for a long time.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 120 * time.Second
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "maiad:", err)
		os.Exit(1)
	}
}

// run boots the server and serves until ctx is canceled. When ready is
// non-nil the bound address is sent on it once the listener is up (the
// hook tests use with -addr 127.0.0.1:0).
func run(ctx context.Context, args []string, ready chan<- string) error {
	flags := flag.NewFlagSet("maiad", flag.ContinueOnError)
	addr := flags.String("addr", ":8750", "listen address")
	workers := flags.Int("workers", runtime.NumCPU(), "max concurrent engine executions")
	goldenDir := flags.String("golden", harness.DefaultGoldenDir,
		"golden snapshot directory seeding the cache (falls back to the build-time copies)")
	if err := flags.Parse(args); err != nil {
		return err
	}

	srv, err := maiad.New(maiad.Config{
		Golden:  goldenSource(*goldenDir),
		Workers: *workers,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "maiad: listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	hs := newHTTPServer(srv.Handler())
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	select {
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			return err
		}
		<-done
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	}

	snap := srv.Metrics().Snapshot()
	fmt.Fprintf(os.Stderr,
		"maiad: shutdown clean: %d hits, %d misses, %d coalesced, %d engine runs, %d errors, %d cache entries\n",
		snap.CacheHits, snap.CacheMisses, snap.Coalesced, snap.EngineRuns,
		snap.JobErrors, srv.Cache().Len())
	return nil
}

// newHTTPServer wraps h in the daemon's HTTP server settings.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// goldenSource prefers the on-disk snapshot directory (freshest when
// run from the repository root) and falls back to the copies embedded
// at build time so seeding works from anywhere.
func goldenSource(dir string) fs.FS {
	if info, err := os.Stat(dir); err == nil && info.IsDir() {
		return os.DirFS(dir)
	}
	return harness.EmbeddedGolden()
}
