// Command iosimd is the what-if simulation daemon: a long-running HTTP
// service that answers concurrent simulation and advisor requests
// against the simulated Paragon XP/S, with content-addressed result
// caching, admission control, and Prometheus metrics.
//
// Usage:
//
//	iosimd [-addr :8080] [-timeout 5m] [-slots auto] [-queue N]
//	       [-cache-mb 64] [-spill DIR] [-sweep-points N]
//
// Endpoints: POST /v1/simulate, POST /v1/sweep, POST /v1/advise,
// GET /v1/experiments, GET /v1/results/{hash}, GET /healthz,
// GET /metrics. See docs/SERVICE.md for the API reference.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"paragonio/internal/cliflags"
	"paragonio/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "iosimd:", err)
		os.Exit(1)
	}
}

// run parses args, boots the daemon, and serves until SIGINT/SIGTERM.
// The listening address is printed to stdout once the socket is bound,
// so scripts that start with -addr :0 can read the real port.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("iosimd", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", ":8080", "listen address (host:port)")
		timeout = fs.String("timeout", "5m", "per-request simulation deadline")
		slots   = fs.String("slots", "auto", "admission slot pool (auto = GOMAXPROCS)")
		queue   = fs.Int("queue", 0, "admission queue bound (0 = 4x slots)")
		cacheMB = fs.Int64("cache-mb", 64, "in-memory result cache budget, MB")
		spill   = fs.String("spill", "", "write-through result artifacts to this directory (warm-start index on boot)")
		sweepPt = fs.Int("sweep-points", 0, "max grid points one /v1/sweep may expand to (0 = 256)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	listenAddr, err := cliflags.ParseAddr(*addr)
	if err != nil {
		return err
	}
	runTimeout, err := cliflags.ParseTimeout(*timeout)
	if err != nil {
		return err
	}
	nslots, err := cliflags.ParseJobs(*slots)
	if err != nil {
		return fmt.Errorf("invalid -slots %q (want a positive integer or auto)", *slots)
	}
	if *queue < 0 {
		return fmt.Errorf("invalid -queue %d (want a non-negative integer)", *queue)
	}
	if *cacheMB < 1 {
		return fmt.Errorf("invalid -cache-mb %d (want a positive integer)", *cacheMB)
	}
	if *sweepPt < 0 {
		return fmt.Errorf("invalid -sweep-points %d (want a non-negative integer)", *sweepPt)
	}

	s, err := server.New(server.Config{
		Timeout:        runTimeout,
		Slots:          nslots,
		MaxQueue:       *queue,
		CacheBytes:     *cacheMB << 20,
		SpillDir:       *spill,
		MaxSweepPoints: *sweepPt,
	})
	if err != nil {
		return err
	}
	if n := s.WarmEntries(); n > 0 {
		fmt.Fprintf(stdout, "iosimd: warm start: %d result artifacts indexed from %s\n", n, *spill)
	}

	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return err
	}
	// Install the handler before announcing the address: a supervisor
	// may send SIGTERM as soon as it reads the line, and the default
	// action would kill the daemon without draining.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	fmt.Fprintf(stdout, "iosimd: listening on %s\n", ln.Addr())

	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case got := <-sig:
		fmt.Fprintf(stdout, "iosimd: %s, draining\n", got)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return hs.Shutdown(ctx)
	}
}
