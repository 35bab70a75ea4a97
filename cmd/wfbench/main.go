// Command wfbench is the end-to-end benchmark of the campaign platform. It
// runs the wfserve stack in its own process — the campaign service behind a
// loopback HTTP listener and, for the dist workload, a coordinator with two
// fleet workers — and drives it through the public winofault client, timing
// every campaign from submit until its result bytes arrive and checking
// those bytes against pinned digests.
//
// Usage (from the repository root; run.sh builds into .bench_build/):
//
//	bash cmd/wfbench/run.sh --workload direct-sweep --seed 1 --seconds 25 --trace 0 > base.txt
//	bash cmd/wfbench/run.sh --workload service-mix --trace 1 --out traces
//	bash cmd/wfbench/run.sh --workload dist-layers --repeat 10
//	bash cmd/wfbench/run.sh --compare base.txt head.txt
//	bash cmd/wfbench/run.sh --pin cmd/wfbench/digests.json
//
// A run prints its full report (host fingerprint, sample counts, errors) as
// one JSON line, then, as the last line, the result: correct, attempted,
// failed and the metrics with their units — end-to-end metrics untraced,
// per-layer metrics with --trace 1. See README.md for the metrics and
// workloads.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// specPath is the benchmark declaration, at the repository root, that holds
// the metric bounds -repeat and -compare judge against.
const specPath = "BENCHMARK.json"

// runLimit bounds a whole run, so a stuck campaign fails the run instead of
// hanging it.
const runLimit = 170 * time.Second

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	out      string
	work     string // directory for the service's result caches
}

func main() {
	runSetupChild()
	o := options{work: filepath.Join(".bench_build", "work")}
	flag.StringVar(&o.workload, "workload", "", "workload to run: direct-sweep, winograd-highber, service-mix or dist-layers")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: picks the run's campaigns from the pinned pool")
	flag.IntVar(&o.seconds, "seconds", 25, "seconds during which clients start new campaigns")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "trace"), "directory for <workload>.trace.json span files of traced runs")
	repeat := flag.Int("repeat", 0, "run the workload this many times, seeds seed..seed+N-1, and print each metric's spread against its bound")
	compare := flag.Bool("compare", false, "compare two reports (saved run outputs): wfbench -compare base.txt head.txt")
	pinTo := flag.String("pin", "", "recompute the result digest of every pool campaign and write them to this file")
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare needs two report files")
			break
		}
		err = compareReports(os.Stdout, specPath, flag.Arg(0), flag.Arg(1))
	case *pinTo != "":
		err = pin(context.Background(), *pinTo)
	case *repeat > 0:
		err = repeatRuns(os.Stdout, o, *repeat, specPath)
	default:
		err = measureMain(o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfbench: %v\n", err)
		os.Exit(1)
	}
}

// measureMain runs one measurement and prints its report and result lines.
// An incorrect result is printed and then fails the process.
func measureMain(o options) error {
	rep, err := measure(o)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	last, err := json.Marshal(rep.line())
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	if !rep.Correct {
		return fmt.Errorf("%d of %d campaigns failed: %v", rep.Failed, rep.Attempted, rep.Errors)
	}
	return nil
}

// metricOut is one metric as the result line prints it; the report adds the
// sample count.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// report is everything a run measured: the result with sample counts, and
// what the result came from.
type report struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Seconds  int      `json:"seconds"`
	Trace    int      `json:"trace"`
	Host     host     `json:"host"`
	Errors   []string `json:"errors,omitempty"`
	result
}

// line is the report's result without sample counts.
func (r report) line() result {
	out := r.result
	out.Metrics = make(map[string]metricOut, len(r.Metrics))
	for k, m := range r.Metrics {
		out.Metrics[k] = metricOut{Value: m.Value, Unit: m.Unit}
	}
	return out
}

// host is the fingerprint of the machine and build a report came from.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OSArch     string `json:"os_arch"`
	Revision   string `json:"revision"`
}

// sameMachine reports whether two fingerprints describe the same hardware
// and toolchain (revisions are expected to differ).
func (h host) sameMachine(o host) bool {
	return h.CPU == o.CPU && h.NProc == o.NProc && h.GOMAXPROCS == o.GOMAXPROCS && h.Go == o.Go && h.OSArch == o.OSArch
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel(cpuinfo string) string {
	for _, line := range strings.Split(cpuinfo, "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fingerprint describes this host and build.
func fingerprint() host {
	h := host{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Revision:   "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		h.CPU = cpuModel(string(b))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		h.Revision += dirty
	}
	return h
}

// measure runs one workload: untraced, it times setupRuns set-up children
// and then measures the end-to-end metrics for o.seconds on a stack of its
// own; traced, it runs half that fetching each miss's span timeline and half
// without, and then replays the run's first campaigns serially through the
// facade with the counting backend enabled.
func measure(o options) (report, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return report{}, err
	}
	if o.trace != 0 && o.trace != 1 {
		return report{}, fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds < 1 {
		return report{}, fmt.Errorf("-seconds must be at least 1, got %d", o.seconds)
	}
	digests, err := pinnedDigests()
	if err != nil {
		return report{}, err
	}
	if o.trace == 1 {
		installCounting()
		if err := os.Setenv("WF_BACKEND", countingName); err != nil {
			return report{}, err
		}
	}
	return measureWorkload(w, digests, o)
}

// measureWorkload is measure for a resolved workload and digest table. A
// traced run needs the counting backend installed and selected.
func measureWorkload(w workload, digests digestTable, o options) (report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()

	var setups []float64
	if o.trace == 0 {
		var err error
		if setups, err = measureSetup(ctx, w, o.work); err != nil {
			return report{}, fmt.Errorf("stack setup: %w", err)
		}
	}
	st, cl, err := startStack(w, filepath.Join(o.work, fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		return report{}, fmt.Errorf("stack setup: %w", err)
	}
	defer st.close()

	r := &runner{w: w, plan: newPlan(w, o.seed, digests), seed: o.seed, stack: st, client: cl, digests: digests}
	rep := report{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Host: fingerprint()}
	var vals map[string]value
	var defs []metricDef
	d := time.Duration(o.seconds) * time.Second
	start := make([]int, w.clients)
	if o.trace == 0 {
		memCtx, stopMem := context.WithCancel(ctx)
		memc := make(chan []float64, 1)
		go func() { memc <- sampleMem(memCtx) }()
		ph := r.run(ctx, start, d, false)
		stopMem()
		mem := <-memc
		rep.Attempted, rep.Errors = ph.attempted, ph.errs
		vals, defs = endToEndMetrics(w, ph, setups, mem), endToEnd
	} else {
		traced := r.run(ctx, start, d/2, true)
		untraced := r.run(ctx, traced.next, d/2, false)
		rep.Attempted = traced.attempted + untraced.attempted
		rep.Errors = append(traced.errs, untraced.errs...)
		counter.on.Store(true)
		reqs, models := r.plan.first(w.replay)
		reps, err := replay(ctx, w, reqs, models, digests, counter)
		counter.on.Store(false)
		rep.Attempted += len(reqs)
		if err != nil {
			rep.Errors = append(rep.Errors, err.Error())
		}
		vals, defs = layerMetrics(w, traced, untraced, reps), perLayer
		if err := writeSpans(filepath.Join(o.out, w.name+".trace.json"), w, o.seed, traced, reps); err != nil {
			return report{}, err
		}
	}
	rep.Failed = len(rep.Errors)
	rep.Correct = rep.Failed == 0
	rep.Metrics = make(map[string]metricOut, len(defs))
	for _, def := range defs {
		v := vals[def.name]
		rep.Metrics[def.name] = metricOut{Value: v.v, Unit: def.unit, N: v.n}
	}
	return rep, nil
}
