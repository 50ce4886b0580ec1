// Command topomapd serves topology-aware mapping jobs over HTTP/JSON: a
// long-running front end for the repository's strategy, metrics, and
// netsim kernels with cross-request caching, request coalescing, one
// worker pool behind bounded admission control, and live remapping
// sessions (see internal/service).
//
// Endpoints:
//
//	POST   /v1/map                  one job, synchronous
//	POST   /v1/batch                {"jobs":[...]}; results in job order
//	POST   /v1/jobs                 async submit -> {"id":...}
//	GET    /v1/jobs/{id}            poll / fetch (fetch consumes the result)
//	POST   /v1/sessions             register a live remapping session
//	GET    /v1/sessions/{id}        session snapshot
//	DELETE /v1/sessions/{id}        close a session
//	POST   /v1/sessions/{id}/deltas stream load/comm/churn deltas
//	GET    /v1/sessions/{id}/watch  long-poll for pushed remaps
//	GET    /stats                   service + session + cache counters
//	GET    /healthz                 liveness
//
// Example:
//
//	topomapd -addr :8723 &
//	curl -s localhost:8723/v1/map -d '{
//	  "graph":    {"pattern": "mesh2d:8,8"},
//	  "topology": "torus:8,8",
//	  "strategy": "topolb"
//	}'
//
// On SIGINT/SIGTERM the daemon shuts down gracefully: session watchers
// receive a terminal {"event":"shutdown"} JSON event, in-flight requests
// finish, then the listener closes.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

// readHeaderTimeout bounds how long a connection may take to send its
// request headers: a client that never finishes them would otherwise hold
// a connection goroutine forever. There is deliberately no WriteTimeout,
// which would also cut session watch long-polls, legitimately as long as
// -watch-timeout.
const readHeaderTimeout = 10 * time.Second

// newHTTPServer is the daemon's listener configuration.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

func main() {
	// Every default is the server's own (service.DefaultConfig), so -h
	// prints what the server will use; a zero still means "the default".
	cfg := service.DefaultConfig()
	addr := flag.String("addr", ":8723", "listen address")
	flag.IntVar(&cfg.Workers, "workers", cfg.Workers, "jobs computing at once (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.QueueDepth, "queue", cfg.QueueDepth, "admission bound: max queued+running computations (429 beyond)")
	flag.IntVar(&cfg.MaxTasks, "max-tasks", cfg.MaxTasks, "largest accepted task count per job or session")
	flag.IntVar(&cfg.MaxBatch, "max-batch", cfg.MaxBatch, "largest accepted batch")
	flag.IntVar(&cfg.CacheEntries, "cache-entries", cfg.CacheEntries, "result cache entry bound (-1 disables)")
	flag.Int64Var(&cfg.CacheBytes, "cache-bytes", cfg.CacheBytes, "result cache byte bound")
	flag.DurationVar(&cfg.RequestTimeout, "timeout", cfg.RequestTimeout, "per-request compute timeout")
	flag.IntVar(&cfg.MaxSessions, "max-sessions", cfg.MaxSessions, "live remapping session bound (LRU eviction beyond)")
	flag.DurationVar(&cfg.WatchTimeout, "watch-timeout", cfg.WatchTimeout, "session watch long-poll window")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown drain window")
	flag.Parse()

	srv := service.NewServer(cfg)

	httpSrv := newHTTPServer(*addr, srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Printf("topomapd: listening on %s\n", *addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "topomapd:", err)
		os.Exit(1)
	case sig := <-sigc:
		fmt.Printf("topomapd: %v, shutting down\n", sig)
	}

	// Stop the service first: active watch long-polls resolve with a
	// terminal {"event":"shutdown"} body, workers drain, new work gets
	// 503. Then close the listener, waiting for in-flight handlers.
	srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "topomapd: shutdown:", err)
		os.Exit(1)
	}
	fmt.Println("topomapd: bye")
}
