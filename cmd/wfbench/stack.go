package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	winofault "repro"
	"repro/internal/dist"
	"repro/internal/service"
)

// stack is the in-process wfserve stack a run measures: the campaign service
// behind a loopback HTTP listener and, for dist workloads, a coordinator
// with two fleet workers running as goroutines.
type stack struct {
	url   string
	dir   string
	svc   *service.Service
	srv   *http.Server
	coord *dist.Coordinator

	stopWorkers context.CancelFunc
	workers     sync.WaitGroup
	serveErr    chan error
}

// threads is the compute threads a campaign gets: the service's per-job
// faultsim workers (GOMAXPROCS on the two-core reference host) and the
// fleet of dist workloads, one thread per worker.
const threads = 2

// startStack builds the stack the way wfserve does with its defaults (one
// job at a time, per-job worker budget GOMAXPROCS, on-disk result cache under
// dir) and returns once a client's health check passes and, for dist, every
// worker has registered.
func startStack(w workload, dir string) (*stack, *winofault.Client, error) {
	quiet := slog.New(slog.DiscardHandler)
	s := &stack{dir: dir, serveErr: make(chan error, 1)}
	cfg := service.Config{CacheDir: filepath.Join(dir, "cache"), Logger: quiet}
	if w.dist {
		coord, err := dist.NewCoordinator(dist.CoordinatorConfig{Logger: quiet})
		if err != nil {
			return nil, nil, err
		}
		s.coord = coord
		cfg.Distributor = coord
	}
	svc, err := service.New(cfg)
	if err != nil {
		s.close()
		return nil, nil, err
	}
	s.svc = svc
	handler := svc.Handler()
	if s.coord != nil {
		mux := http.NewServeMux()
		mux.Handle("/workers", s.coord.Handler())
		mux.Handle("/workers/", s.coord.Handler())
		mux.Handle("/", handler)
		handler = mux
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: handler}
	go func() { s.serveErr <- s.srv.Serve(ln) }()

	if s.coord != nil {
		ctx, cancel := context.WithCancel(context.Background())
		s.stopWorkers = cancel
		for k := 0; k < threads; k++ {
			s.workers.Add(1)
			go func() {
				defer s.workers.Done()
				// RunWorker returns only once ctx is canceled.
				_ = dist.RunWorker(ctx, dist.WorkerConfig{
					Server: s.url, Name: fmt.Sprintf("w%d", k), Workers: 1, Logger: quiet,
				})
			}()
		}
		if err := s.awaitWorkers(10 * time.Second); err != nil {
			s.close()
			return nil, nil, err
		}
	}
	cl, err := winofault.Dial(s.url)
	if err != nil {
		s.close()
		return nil, nil, err
	}
	return s, cl, nil
}

// awaitWorkers polls the coordinator until the whole fleet is live.
func (s *stack) awaitWorkers(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		live := 0
		for _, ws := range s.coord.Workers() {
			if ws.Live {
				live++
			}
		}
		if live >= threads {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("dist workers did not register within %v", limit)
}

// close drains the service, stops the listener and the fleet, and removes
// the stack's directory. It waits for every goroutine the stack started.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if s.svc != nil {
		errs = append(errs, s.svc.Close(ctx))
	}
	if s.srv != nil {
		errs = append(errs, s.srv.Shutdown(ctx))
		if err := <-s.serveErr; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if s.stopWorkers != nil {
		s.stopWorkers()
		s.workers.Wait()
	}
	if s.coord != nil {
		s.coord.Close()
	}
	errs = append(errs, os.RemoveAll(s.dir))
	return errors.Join(errs...)
}

// setupRuns is how many child processes a run times setting the stack up;
// setup_s is the median.
const setupRuns = 51

// A process started with setupWorkloadEnv set is a set-up child: it builds
// that workload's stack under the directory in setupDirEnv instead of
// running the benchmark.
const (
	setupWorkloadEnv = "WFBENCH_SETUP_WORKLOAD"
	setupDirEnv      = "WFBENCH_SETUP_DIR"
)

// measureSetup starts this executable setupRuns times as a set-up child and
// returns, in seconds, the time from just before each process starts until
// it reports its stack ready: listening, answering a client's health check
// and, for dist, with every worker registered. That is what a wfserve
// operator waits for after starting the daemon.
func measureSetup(ctx context.Context, w workload, dir string) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var setups []float64
	for k := 0; k < setupRuns; k++ {
		d, err := setupOnce(ctx, exe, w, filepath.Join(dir, fmt.Sprintf("%s-%d-setup-%d", w.name, os.Getpid(), k)))
		if err != nil {
			return nil, fmt.Errorf("set-up child %d: %w", k, err)
		}
		setups = append(setups, d.Seconds())
	}
	return setups, nil
}

// setupOnce times one set-up child, then closes its standard input so it
// tears the stack down, and waits for it to exit.
func setupOnce(ctx context.Context, exe string, w workload, dir string) (time.Duration, error) {
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), setupWorkloadEnv+"="+w.name, setupDirEnv+"="+dir)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return 0, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, readErr := bufio.NewReader(stdout).ReadString('\n')
	d := time.Since(t0)
	stdin.Close()
	if err := cmd.Wait(); err != nil {
		return 0, err
	}
	if readErr != nil || line != "ready\n" {
		return 0, fmt.Errorf("child printed %q (%v), want ready", line, readErr)
	}
	return d, nil
}

// setupChild is the body of a set-up child: it builds the stack, prints
// "ready", and once its standard input closes, tears the stack down.
func setupChild(name, dir string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	st, _, err := startStack(w, dir)
	if err != nil {
		return err
	}
	fmt.Println("ready")
	_, err = io.Copy(io.Discard, os.Stdin)
	return errors.Join(err, st.close())
}

// runSetupChild runs setupChild and exits if this process is a set-up
// child, and returns otherwise.
func runSetupChild() {
	name := os.Getenv(setupWorkloadEnv)
	if name == "" {
		return
	}
	if err := setupChild(name, os.Getenv(setupDirEnv)); err != nil {
		fmt.Fprintf(os.Stderr, "wfbench set-up child: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}
