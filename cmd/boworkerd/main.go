// Command boworkerd is the remote-execution worker daemon for the
// experiment scheduler: it serves internal/distrib's worker protocol
// (advertise capacity on /v1/info, execute jobs on /v1/run) using the same
// simulation engine the coordinator runs locally, so
// `experiments -all -workers host:port,...` can fan a sweep out over
// several machines and still render byte-identical tables.
//
// Trace-replay jobs name their trace by content SHA-256; point -trace-dir
// at the director(ies) holding this machine's copies and the daemon
// resolves hashes against them. A job whose trace this worker lacks is
// refused with 412, and the coordinator retries it on another worker.
//
// SIGTERM triggers a graceful drain: /healthz and /v1/run answer 503 (the
// coordinator requeues elsewhere), in-flight jobs run to completion, then
// the daemon exits — a restart never loses work.
//
// Usage:
//
//	boworkerd -listen :9123
//	boworkerd -listen :9123 -capacity 8 -trace-dir /data/traces -v
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"bopsim/internal/distrib"
	"bopsim/internal/experiments"
)

func main() {
	var (
		listen    = flag.String("listen", ":9123", "address to serve the worker API on")
		capacity  = flag.Int("capacity", runtime.GOMAXPROCS(0), "simulations to execute concurrently (advertised to the coordinator)")
		traceDirs = flag.String("trace-dir", "", "comma-separated directories holding trace files, resolved by content hash")
		ckptDirs  = flag.String("checkpoint-dir", "", "comma-separated directories holding warmup snapshots, resolved by content hash (trace-dir files are indexed too)")
		drain     = flag.Duration("drain", 5*time.Minute, "maximum time to wait for in-flight jobs on SIGTERM before exiting anyway")
		verbose   = flag.Bool("v", false, "log every job")
	)
	flag.Parse()

	splitDirs := func(csv string) []string {
		var out []string
		for _, d := range strings.Split(csv, ",") {
			if d = strings.TrimSpace(d); d != "" {
				out = append(out, d)
			}
		}
		return out
	}
	dirs := splitDirs(*traceDirs)
	checkpointDirs := splitDirs(*ckptDirs)
	var logw io.Writer
	if *verbose {
		logw = os.Stderr
	}
	cap := *capacity
	if cap <= 0 {
		cap = runtime.GOMAXPROCS(0)
	}
	worker := &distrib.Server{Capacity: cap, TraceDirs: dirs, CheckpointDirs: checkpointDirs, Log: logw}
	if len(dirs)+len(checkpointDirs) > 0 {
		// Hash the corpus before serving so the first trace job doesn't
		// pay for the scan inside its request.
		fmt.Fprintf(os.Stderr, "boworkerd: indexed %d traces in %s\n",
			worker.WarmTraceIndex(), strings.Join(dirs, ","))
	}
	srv := &http.Server{Addr: *listen, Handler: worker.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGTERM drain: refuse new jobs (503 on /v1/run and /healthz, so the
	// coordinator requeues elsewhere), wait for accepted jobs to finish,
	// then shut the listener down. A second signal — NotifyContext
	// restores default handling after the first — kills the process the
	// hard way, which the coordinator's retry policy also survives.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		worker.StartDraining()
		fmt.Fprintf(os.Stderr, "boworkerd: draining (%d jobs in flight)\n", worker.InFlight())
		deadline := time.Now().Add(*drain)
		for worker.InFlight() > 0 && time.Now().Before(deadline) {
			time.Sleep(100 * time.Millisecond)
		}
		if n := worker.InFlight(); n > 0 {
			fmt.Fprintf(os.Stderr, "boworkerd: drain timeout with %d jobs in flight, exiting anyway\n", n)
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}()

	fmt.Fprintf(os.Stderr, "boworkerd: listening on %s (capacity %d, protocol v%d, cache schema v%d)\n",
		*listen, cap, distrib.ProtocolVersion, experiments.SchemaVersion())
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "boworkerd: %v\n", err)
		os.Exit(1)
	}
	stop() // unblock the shutdown goroutine when the listener failed on its own
	<-drained
}
