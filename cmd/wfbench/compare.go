package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// specMetric is one metric as BENCHMARK.json declares it.
type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json this program reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// metrics lists the declared metrics a report of the given trace mode holds.
func (s benchSpec) metrics(trace int) []specMetric {
	if trace == 1 {
		return s.PerLayer
	}
	return s.EndToEnd
}

// parseReport finds the report line in a run's saved output.
func parseReport(data []byte) (report, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r report
		if json.Unmarshal(sc.Bytes(), &r) == nil && r.Workload != "" {
			return r, nil
		}
	}
	return report{}, fmt.Errorf("no wfbench report found")
}

func readReport(path string) (report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return report{}, err
	}
	r, err := parseReport(data)
	if err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// worsening is how much worse head is than base, as a share of base, in the
// metric's own direction (negative means better).
func worsening(m specMetric, base, head float64) float64 {
	if base == 0 {
		return 0
	}
	d := (head - base) / base
	if m.Better == "higher" {
		return -d
	}
	return d
}

// compareReports prints each declared metric of two reports with its change
// and bound, flags the metrics that got worse by more than their bound, and
// warns when the reports come from different machines or toolchains.
func compareReports(w io.Writer, specPath, basePath, headPath string) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	base, err := readReport(basePath)
	if err != nil {
		return err
	}
	head, err := readReport(headPath)
	if err != nil {
		return err
	}
	if base.Workload != head.Workload || base.Trace != head.Trace {
		return fmt.Errorf("reports differ in workload or trace mode: %s/%d vs %s/%d", base.Workload, base.Trace, head.Workload, head.Trace)
	}
	fmt.Fprintf(w, "workload %s: base %s (seed %d) vs head %s (seed %d)\n",
		base.Workload, base.Host.Revision, base.Seed, head.Host.Revision, head.Seed)
	if !base.Host.sameMachine(head.Host) {
		fmt.Fprintf(w, "WARNING: different hosts, deltas mix machine and code: base %+v, head %+v\n", base.Host, head.Host)
	}
	fmt.Fprintf(w, "%-28s %14s %14s %9s %7s\n", "metric", "base", "head", "worse", "bound")
	regressed := 0
	for _, m := range spec.metrics(base.Trace) {
		b, okB := base.Metrics[m.Name]
		h, okH := head.Metrics[m.Name]
		if !okB || !okH {
			fmt.Fprintf(w, "%-28s missing from a report\n", m.Name)
			continue
		}
		worse := worsening(m, b.Value, h.Value)
		bound, flag := "-", ""
		if m.Bound != nil {
			bound = fmt.Sprintf("%.0f%%", *m.Bound*100)
			if worse > *m.Bound {
				flag = "  REGRESSION"
				regressed++
			}
		}
		fmt.Fprintf(w, "%-28s %14.6g %14.6g %+8.1f%% %7s%s\n", m.Name, b.Value, h.Value, worse*100, bound, flag)
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics worse than their bound", regressed)
	}
	return nil
}

// repeatRuns runs the workload n times as child processes with seeds
// o.seed..o.seed+n-1 and prints, per declared metric, the median, the
// quartiles, the interquartile and full spread as shares of the median, and
// the bound — the stability check the benchmark must pass. It ends with a
// report line of the medians, which -compare accepts.
func repeatRuns(w io.Writer, o options, n int, specPath string) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var reps []report
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe,
			"-workload", o.workload, "-seed", strconv.FormatUint(o.seed+uint64(i), 10),
			"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(o.trace),
			"-out", o.out)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i+1, o.seed+uint64(i), err)
		}
		r, err := parseReport(out)
		if err != nil {
			return fmt.Errorf("run %d: %w", i+1, err)
		}
		reps = append(reps, r)
	}
	agg := report{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Host: reps[0].Host, result: result{Correct: true, Metrics: map[string]metricOut{}},
	}
	fmt.Fprintf(w, "workload %s, %d runs, seeds %d..%d, host %+v\n", o.workload, n, o.seed, o.seed+uint64(n-1), agg.Host)
	fmt.Fprintf(w, "%-28s %12s %12s %12s %8s %8s %7s  %s\n", "metric", "median", "q1", "q3", "iqr", "range", "bound", "verdict")
	for _, r := range reps {
		agg.Attempted += r.Attempted
		agg.Failed += r.Failed
		agg.Correct = agg.Correct && r.Correct
		agg.Errors = append(agg.Errors, r.Errors...)
	}
	for _, m := range spec.metrics(o.trace) {
		var xs []float64
		for _, r := range reps {
			xs = append(xs, r.Metrics[m.Name].Value)
		}
		q1, q2, q3 := quartiles(xs)
		iqr, rng := ratio(q3-q1, q2), ratio(slices.Max(xs)-slices.Min(xs), q2)
		bound, verdict := "-", ""
		if m.Bound != nil {
			bound = fmt.Sprintf("%.0f%%", *m.Bound*100)
			switch {
			case iqr < *m.Bound/3:
				verdict = "steady"
			case iqr <= *m.Bound:
				verdict = "within bound"
			default:
				verdict = "TOO NOISY"
			}
		}
		fmt.Fprintf(w, "%-28s %12.6g %12.6g %12.6g %7.1f%% %7.1f%% %7s  %s\n", m.Name, q2, q1, q3, iqr*100, rng*100, bound, verdict)
		agg.Metrics[m.Name] = metricOut{Value: q2, Unit: m.Unit, N: n}
	}
	data, err := json.Marshal(agg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(data))
	if !agg.Correct {
		return fmt.Errorf("%d of %d campaigns failed", agg.Failed, agg.Attempted)
	}
	return nil
}
