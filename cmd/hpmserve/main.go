// Command hpmserve is the online control plane daemon: it hosts many
// tenant clusters — each a full hierarchical-LLC controller with its own
// plant, forecasters, and learned state — sharded across worker
// goroutines, and drives them from live observations over an HTTP/JSON
// API instead of batch trace replays.
//
// Usage:
//
//	hpmserve -addr :8700
//	hpmserve -addr :8700 -journal fleet.log -journal-interval 30s
//
// Then:
//
//	curl -X POST localhost:8700/v1/tenants \
//	     -d '{"id":"web","moduleSize":4,"fast":true,"binSeconds":30}'
//	curl -X POST localhost:8700/v1/tenants/web/observe -d '{"count":900}'
//	curl localhost:8700/v1/tenants/web/state
//	curl localhost:8700/metrics
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// get 10 s to finish, the journal is flushed (when -journal is set)
// whether or not they did, and the fleet's shard workers stop.
//
// -journal is the daemon's one persistence mode: an incremental frame
// log — one base snapshot plus deltas for what changed since, compacted
// automatically — so large fleets persist at a cost proportional to new
// observations, and a crash mid-append recovers to the last durable
// write. A file written by Fleet.Snapshot is already a valid log: pass
// its path to -journal. Learned maps and trees are not in it: a restart
// learns them again, once per learning fingerprint, as creates do.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hierctl"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hpmserve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hpmserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8700", "HTTP listen address")
	shards := fs.Int("shards", 0, "worker shards hosting tenants (0 = one per CPU)")
	journal := fs.String("journal", "", "incremental snapshot journal: recovered on start when present, appended on shutdown and every -journal-interval")
	journalInterval := fs.Duration("journal-interval", 0, "periodic journal append cadence (0 = only on shutdown; needs -journal)")
	telemetryRecords := fs.Int("telemetry-records", 4096, "flight-recorder ring size per tenant: decisions retained for /v1/tenants/{id}/telemetry, about 8.25 bytes each allocated at tenant create (8 bytes of 2 KB pages and a 4-byte seek anchor every 16 records; a window of records longer than 8 bytes on average adds a page at a time, up to 74 bytes per record); /metrics does not read the ring (0 disables recording, at most 1048576)")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof on this separate address (empty = profiling off; keep it private)")
	journalVerify := fs.String("journal-verify", "", "verify the snapshot/journal log at this path read-only and exit: prints a frame/tenant report, reports a torn tail (recoverable) with exit 0, exits non-zero on corruption")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *journalVerify != "" {
		return verifyJournal(*journalVerify, stdout)
	}
	if *journalInterval < 0 {
		return fmt.Errorf("negative journal interval %v", *journalInterval)
	}
	if *journalInterval > 0 && *journal == "" {
		return fmt.Errorf("-journal-interval needs -journal")
	}
	// Checked here, not at the first tenant create: the value sizes every
	// tenant's ring.
	if err := hierctl.CheckTelemetryRecords(*telemetryRecords); err != nil {
		return fmt.Errorf("-telemetry-records: %w", err)
	}

	f := hierctl.NewFleet(hierctl.FleetConfig{Shards: *shards})
	defer f.Close()
	var jnl *hierctl.FleetJournal
	if *journal != "" {
		j, err := hierctl.OpenFleetJournal(f, *journal, hierctl.FleetJournalConfig{})
		if err != nil {
			return err
		}
		jnl = j
		defer jnl.Close()
		fmt.Fprintf(stdout, "hpmserve journal %s (%d tenants recovered)\n", *journal, f.Stats().Tenants)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	sv := newServer(f, *telemetryRecords)
	sv.journal = jnl
	// Recovery (journal replay) is done: the daemon can serve. /readyz
	// flips back to 503 the moment shutdown starts.
	sv.ready.Store(true)
	// Timeouts bound what one slow or stalled client can hold: a header
	// must arrive promptly, a whole request body within ReadTimeout (ample
	// for the bounded 8 MiB batch bodies), and idle keep-alive connections
	// are reaped. No WriteTimeout: /metrics and telemetry responses scale
	// with fleet size and a hard write deadline would truncate them.
	srv := &http.Server{
		Handler:           sv.routes(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	fmt.Fprintf(stdout, "hpmserve listening on %s (%d shards, %d tenants)\n",
		ln.Addr(), f.Stats().Shards, f.Stats().Tenants)

	// The pprof endpoints live on their own mux and listener: the API mux
	// never exposes them, so an operator can firewall the debug port
	// separately from the service port.
	var debugSrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return err
		}
		debugMux := http.NewServeMux()
		debugMux.HandleFunc("/debug/pprof/", pprof.Index)
		debugMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		debugMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		debugMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		debugMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		// ReadHeaderTimeout only: pprof profile/trace requests stream for
		// their ?seconds= duration, so request-body/write deadlines would
		// cut live profiles short.
		debugSrv = &http.Server{
			Handler:           debugMux,
			ReadHeaderTimeout: 5 * time.Second,
			IdleTimeout:       120 * time.Second,
		}
		fmt.Fprintf(stdout, "hpmserve pprof on %s/debug/pprof/\n", dln.Addr())
		go func() { _ = debugSrv.Serve(dln) }()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	persistDone := make(chan struct{})
	if *journalInterval > 0 {
		go func() {
			defer close(persistDone)
			ticker := time.NewTicker(*journalInterval)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					if err := jnl.Append(); err != nil {
						fmt.Fprintf(stdout, "hpmserve: periodic journal append: %v\n", err)
					}
				}
			}
		}()
	} else {
		close(persistDone)
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "hpmserve shutting down")
	// Fail readiness first so load balancers drain before Shutdown starts
	// refusing new connections.
	sv.ready.Store(false)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = drainAndFlush(shutdownCtx, srv, persistDone, jnl)
	if debugSrv != nil {
		_ = debugSrv.Close()
	}
	if err != nil {
		return err
	}
	if jnl != nil {
		fmt.Fprintf(stdout, "hpmserve journal flushed to %s\n", *journal)
	}
	return nil
}

// drainAndFlush is the graceful-stop tail: give in-flight requests until
// ctx expires, join the periodic persister (so a stale in-flight append
// can never land after the final one), then flush and close the journal.
// The flush runs whether or not the drain finished — one stalled client
// outliving the deadline must not cost every observation acknowledged
// since the last periodic append — and the first error is returned.
func drainAndFlush(ctx context.Context, srv *http.Server, persistDone <-chan struct{}, jnl *hierctl.FleetJournal) error {
	err := srv.Shutdown(ctx)
	<-persistDone
	if jnl == nil {
		return err
	}
	if aerr := jnl.Append(); err == nil {
		err = aerr
	}
	if cerr := jnl.Close(); err == nil {
		err = cerr
	}
	return err
}

// verifyJournal runs the read-only integrity scan behind -journal-verify.
// A torn tail is recoverable crash damage (reported, exit 0); corruption
// errors out, which main turns into a non-zero exit.
func verifyJournal(path string, stdout io.Writer) error {
	rep, err := hierctl.VerifyFleetJournal(path)
	if rep != nil {
		fmt.Fprintf(stdout, "hpmserve journal %s: %d frames (%d segment, %d base, %d delta, %d remove), %d tenants, %d observations, %d quarantined\n",
			path, rep.Frames, rep.Segments, rep.BaseFrames, rep.DeltaFrames, rep.RemoveFrames, rep.Tenants, rep.Observations, rep.Quarantined)
		if rep.TornTail {
			fmt.Fprintln(stdout, "hpmserve journal: torn final frame (crash mid-append); recovery will restore up to the last durable frame")
		}
	}
	if err != nil {
		return fmt.Errorf("verify %s: %w", path, err)
	}
	fmt.Fprintln(stdout, "hpmserve journal: ok")
	return nil
}
