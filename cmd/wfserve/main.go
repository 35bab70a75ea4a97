// Command wfserve is the campaign server: it queues fault-injection
// campaigns submitted over HTTP+JSON, runs them on the deterministic
// faultsim scheduler, and serves identical requests from a
// content-addressed result cache — bit-identically and without re-running
// the campaign.
//
// Usage:
//
//	wfserve -addr :8077 -cache-dir /var/lib/wfserve
//
//	curl -s -X POST 'localhost:8077/campaigns?wait=1' -d '{
//	    "model": "vgg19", "engine": "winograd",
//	    "bers": [1e-10, 1e-9, 1e-8]}'
//
// With -dist the server becomes a fleet coordinator: wfworker nodes
// register against /workers, and cache-miss campaigns are sharded across
// them by unit range. While no worker is live the coordinator executes the
// missing ranges itself. Results are byte-identical either way.
//
// See DESIGN.md "Service layer" and "Distributed execution" for the API,
// cache-key schema and shard protocol.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	start := time.Now()
	addr := flag.String("addr", ":8077", "listen address")
	cacheDir := flag.String("cache-dir", "", "result cache persistence directory (empty = memory only)")
	cacheEntries := flag.Int("cache-entries", 256, "in-memory result cache capacity")
	queue := flag.Int("queue", 16, "bounded job queue depth")
	jobs := flag.Int("jobs", 1, "campaigns executed concurrently")
	workers := flag.Int("workers", 0, "per-campaign faultsim worker budget (0 = GOMAXPROCS)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight campaigns")
	distFlag := flag.Bool("dist", false, "coordinate a wfworker fleet: shard cache-miss campaigns across registered workers")
	lease := flag.Duration("lease", dist.DefaultLeaseTTL, "with -dist: worker lease TTL (silent workers lose their shards after this)")
	shardUnits := flag.Int("shard-units", 0, "with -dist: units per shard (0 = auto, ~2 shards per live worker)")
	journal := flag.String("journal", "", "with -dist: control-plane journal file; a restarted server resumes in-flight campaigns from it")
	traceDir := flag.String("trace-dir", "", "durable trace store directory: finished campaign traces survive restarts (empty = memory-only ring)")
	stragglerFactor := flag.Float64("straggler-factor", 0, "with -dist: flag workers slower than this multiple of the fleet median per-unit exec time (0 = default 3)")
	stragglerProbation := flag.Duration("straggler-probation", 0, "with -dist: how long a flagged straggler goes lease-less before one probe shard re-measures it (0 = default 10x lease)")
	keys := flag.String("keys", "", "API key table file: \"<api-key> <tenant> [weight=N] [quota=N]\" per line (empty + WFSERVE_KEYS env unset = open server)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	debugAddr := flag.String("debug-addr", "", "private listener for /debug/pprof and runtime /metrics (empty = disabled; bind loopback, never the public address)")
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfserve: %v\n", err)
		os.Exit(1)
	}

	// Tenancy: -keys names a table file; the WFSERVE_KEYS environment
	// variable may carry the same content inline (container secrets).
	var tenants *service.TenantTable
	if *keys != "" {
		t, err := service.LoadTenantTable(*keys)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wfserve: %v\n", err)
			os.Exit(1)
		}
		tenants = t
	} else if env := os.Getenv("WFSERVE_KEYS"); env != "" {
		t, err := service.ParseTenantTable(env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wfserve: WFSERVE_KEYS: %v\n", err)
			os.Exit(1)
		}
		tenants = t
	}

	cfg := service.Config{
		Jobs:         *jobs,
		QueueDepth:   *queue,
		Workers:      *workers,
		CacheEntries: *cacheEntries,
		CacheDir:     *cacheDir,
		TraceDir:     *traceDir,
		Tenants:      tenants,
		Logger:       logger,
	}
	var coord *dist.Coordinator
	if *distFlag {
		ccfg := dist.CoordinatorConfig{
			LeaseTTL:           *lease,
			ShardUnits:         *shardUnits,
			JournalPath:        *journal,
			StragglerFactor:    *stragglerFactor,
			StragglerProbation: *stragglerProbation,
			Logger:             logger,
		}
		if tenants != nil {
			ccfg.Auth = tenants.Valid
		}
		var err error
		coord, err = dist.NewCoordinator(ccfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wfserve: %v\n", err)
			os.Exit(1)
		}
		cfg.Distributor = coord
	}
	svc, err := service.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfserve: %v\n", err)
		os.Exit(1)
	}

	handler := http.Handler(svc.Handler())
	if coord != nil {
		mux := http.NewServeMux()
		mux.Handle("/workers", coord.Handler())
		mux.Handle("/workers/", coord.Handler())
		mux.Handle("/", svc.Handler())
		handler = mux
	}
	srv := &http.Server{Addr: *addr, Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logger.Info("wfserve: listening",
		"addr", *addr, "jobs", *jobs, "queue", *queue, "workers", *workers,
		"cache", *cacheEntries, "dir", *cacheDir, "dist", *distFlag,
		"journal", *journal, "tenants", tenants.Len())

	// The debug listener is deliberately a second server: pprof and runtime
	// internals never ride the public address.
	var dbg *http.Server
	if *debugAddr != "" {
		dbg = &http.Server{Addr: *debugAddr, Handler: obs.DebugHandler("wfserve", start, nil)}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("wfserve: debug listener failed", "addr", *debugAddr, "err", err)
			}
		}()
		logger.Info("wfserve: debug listener up", "addr", *debugAddr)
	}

	// Crash recovery: resubmit every campaign the journal says a previous
	// incarnation left unfinished. The content-addressed cache answers any
	// that actually completed (crash after caching); the rest re-enter the
	// queue as the trusted default tenant and resume from their journaled
	// shard merges: only the missing ranges run. The coordinator executes
	// them in-process while its worker table is empty, as it necessarily is
	// right after a restart, and the fleet takes over the rest once it
	// re-registers. This runs after the listener is up, because the fleet
	// can only re-register through it.
	if coord != nil {
		for _, rc := range coord.Recovered() {
			j, err := svc.Submit(rc.Req)
			if err != nil {
				// Unrunnable requests (validation) must not crash-loop the
				// journal; queue pressure just means recovery is best-effort
				// this boot — the journal entry survives for the next one.
				logger.Warn("wfserve: recovery: campaign not resubmitted",
					"campaign", service.ShortKey(rc.Key), "err", err)
				if !errors.Is(err, service.ErrQueueFull) && !errors.Is(err, service.ErrClosed) {
					coord.CampaignDone(rc.Key)
				}
				continue
			}
			if st := j.Status(); st.Cached {
				logger.Info("wfserve: recovery: campaign already cached; retiring journal entry",
					"campaign", service.ShortKey(rc.Key))
				coord.CampaignDone(rc.Key)
				continue
			}
			logger.Info("wfserve: resuming journaled campaign", "campaign", service.ShortKey(rc.Key))
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "wfserve: %v\n", err)
		os.Exit(1)
	case s := <-sig:
		logger.Info("wfserve: draining", "signal", s.String(), "budget", *drain)
	}

	// Flip the drain state first: new submissions and worker registrations
	// get 503s, /healthz answers 503 "draining" so load balancers stop
	// routing here, and the coordinator (drained by the service) stops
	// holding idle lease requests open. The listener stays open while
	// in-flight campaigns drain — fleet workers must keep leasing and
	// reporting shards (and ?wait=1 clients keep their connections) for
	// those campaigns to finish instead of stalling into lease expiry and
	// in-process re-execution. Only once the service is drained does the
	// listener shut down.
	svc.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	code := 0
	if err := svc.Close(ctx); err != nil {
		logger.Error("wfserve: drain expired, in-flight campaigns canceled", "err", err)
		code = 1
	}
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("wfserve: http shutdown", "err", err)
	}
	if dbg != nil {
		dbg.Shutdown(ctx)
	}
	if coord != nil {
		coord.Close()
	}
	if code != 0 {
		os.Exit(code)
	}
	logger.Info("wfserve: drained cleanly")
}
