// Command sunstoned is the sunstone scheduler service: a long-running HTTP
// daemon that accepts mapping jobs, runs them on a bounded worker pool over
// one shared compile-cache Engine, and protects itself from overload.
//
//	sunstoned -addr :7070
//	sunstoned -addr :7070 -tenant-rate 2 -tenant-burst 8 -queue-depth 64
//	sunstoned -addr 127.0.0.1:0 -debug-addr 127.0.0.1:0   # ephemeral ports
//	sunstoned -addr :7070 -data-dir /var/lib/sunstoned    # durable jobs
//
// With -data-dir set, every accepted submission is written to an
// append-only journal before the 202 is returned, running searches
// checkpoint their best-so-far mapping, and a restart (even after SIGKILL)
// replays the journal: finished jobs serve their recorded results,
// unfinished jobs are re-admitted and resume from their checkpoints.
//
// Job API (see DESIGN.md "Scheduler service & overload protection"):
//
//	POST   /v1/jobs             submit (202 + job; 429 shed; 503 draining)
//	GET    /v1/jobs             list jobs (?tenant= filters)
//	GET    /v1/jobs/{id}        poll status
//	GET    /v1/jobs/{id}/events SSE progress stream, terminal event last
//	DELETE /v1/jobs/{id}        cancel
//	GET    /healthz /readyz /statz
//
// On SIGTERM/SIGINT the daemon drains: admissions stop (submissions get
// 503, /readyz flips), in-flight and queued jobs get -drain-grace to finish
// before their searches are canceled down to best-so-far mappings, final
// statuses are served, then listeners close and the process exits 0. A
// second signal exits immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sunstone"
	"sunstone/internal/faults"
)

var (
	addr         = flag.String("addr", ":7070", "job API listen address (host:port; port 0 picks one)")
	debugAddr    = flag.String("debug-addr", "", "private diagnostics listen address for expvar + pprof (default off; never expose publicly)")
	workers      = flag.Int("workers", 0, "concurrent searches (0 = GOMAXPROCS capped at 8)")
	queueDepth   = flag.Int("queue-depth", 0, "admitted-but-not-running bound; a full queue sheds with 429 (0 = 64)")
	tenantRate   = flag.Float64("tenant-rate", 0, "per-tenant sustained admission rate, jobs/second (0 = no per-tenant shaping)")
	tenantBurst  = flag.Int("tenant-burst", 0, "per-tenant admission burst size (0 = 8)")
	defTimeout   = flag.Duration("default-timeout", 0, "end-to-end deadline for jobs that set no timeout_ms (0 = 30s)")
	maxTimeout   = flag.Duration("max-timeout", 0, "clamp on client-requested deadlines (0 = 5m)")
	stallTimeout = flag.Duration("stall-timeout", 0, "watchdog budget: cancel a search silent this long (0 = 30s, negative disables)")
	drainGrace   = flag.Duration("drain-grace", 0, "how long draining jobs may keep searching before best-so-far cancellation (0 = 5s)")
	drainBudget  = flag.Duration("drain-timeout", 30*time.Second, "hard bound on the whole drain at shutdown")
	engineCache  = flag.Int("engine-cache", 0, "compile-cache capacity in problem shapes (0 = default 256)")
	faultSpec    = flag.String("fault-spec", "", "arm deterministic fault injection for chaos testing, e.g. 'evaluate:panic:0.3,seed=42'")
	dataDir      = flag.String("data-dir", "", "write-ahead journal directory; enables durable jobs + crash recovery (default off: in-memory only)")
	fsyncPolicy  = flag.String("fsync", "", "journal fsync policy: always | interval | never (default interval; submits and results always sync)")
	fsyncEvery   = flag.Duration("fsync-every", 0, "background sync period under -fsync interval (0 = 100ms)")
	segmentBytes = flag.Int64("segment-bytes", 0, "journal segment rotation threshold (0 = 4MiB)")
	ckptEvery    = flag.Duration("checkpoint-every", 0, "min interval between best-so-far checkpoints per job (0 = 1s)")
)

func main() {
	flag.Parse()
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("sunstoned: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The handler goes in before anything else: a SIGTERM that lands while
	// the journal replays or the listeners come up waits in the channel and
	// drains the daemon the moment it is serving, instead of killing it.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	if *faultSpec != "" {
		inj, err := faults.ParseSpec(*faultSpec)
		if err != nil {
			return err
		}
		faults.Activate(inj)
		log.Printf("fault injection armed (%s)", *faultSpec)
	}

	var jr *sunstone.Journal
	if *dataDir != "" {
		var err error
		jr, err = sunstone.OpenJournal(sunstone.JournalOptions{
			Dir:          *dataDir,
			SegmentBytes: *segmentBytes,
			Fsync:        *fsyncPolicy,
			FsyncEvery:   *fsyncEvery,
		})
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		st := jr.Stats()
		log.Printf("journal open at %s (%d records replayed, %d truncated, %d quarantined)",
			*dataDir, st.Replayed, st.CorruptTruncated, st.CorruptQuarantined)
	}

	eng := sunstone.NewEngineSize(*engineCache)
	srv := eng.NewServer(sunstone.ServerConfig{
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		TenantRate:      *tenantRate,
		TenantBurst:     *tenantBurst,
		DefaultTimeout:  *defTimeout,
		MaxTimeout:      *maxTimeout,
		StallTimeout:    *stallTimeout,
		DrainGrace:      *drainGrace,
		Journal:         jr,
		CheckpointEvery: *ckptEvery,
	})
	if jr != nil {
		if n := srv.Stats().RecoveredJobs; n > 0 {
			log.Printf("recovered %d journaled jobs (unfinished ones re-admitted with warm starts)", n)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The resolved address line is load-bearing: harnesses that start
	// sunstoned on port 0 (e.g. make server-smoke) parse it.
	log.Printf("listening on %s", ln.Addr())

	httpSrv := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 2)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	var debugSrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		log.Printf("debug listening on %s (expvar, pprof)", dln.Addr())
		debugSrv = &http.Server{Handler: srv.DebugHandler(), ReadHeaderTimeout: 10 * time.Second}
		go func() { serveErr <- debugSrv.Serve(dln) }()
	}

	select {
	case s := <-sig:
		log.Printf("caught %s, draining (grace for in-flight jobs; second signal forces exit)", s)
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	}
	go func() {
		s := <-sig
		log.Printf("caught %s again, exiting immediately", s)
		os.Exit(1)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), *drainBudget)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("drain incomplete: %v (in-flight searches were cut to best-so-far)", err)
	}
	// Jobs are terminal now; give pollers and SSE readers a moment to
	// collect final statuses, then close the listeners.
	shCtx, shCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shCancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if debugSrv != nil {
		_ = debugSrv.Shutdown(shCtx)
	}
	st := srv.Stats()
	log.Printf("drained: %d done, %d failed, %d canceled (engine: %d compiles, %d cache hits)",
		st.Counters["srv.jobs.done"], st.Counters["srv.jobs.failed"],
		st.Counters["srv.jobs.canceled"], st.Engine.Compiles, st.Engine.Hits)
	if jr != nil {
		// Every job is terminal and journaled by now; sync and seal.
		if err := jr.Close(); err != nil {
			log.Printf("journal close: %v", err)
		}
	}
	return nil
}
