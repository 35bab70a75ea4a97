package main

import (
	"context"
	"runtime/metrics"
	"slices"
	"time"

	"repro/internal/obs"
)

// metricDef declares one reported metric; BENCHMARK.json declares the same
// names, units and directions (a test keeps the two equal).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics an untraced run reports: what a user submitting
// campaigns sees.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"inferences_per_s", "1/s", "higher"},
	{"campaign_p50_s", "s", "lower"},
	{"mem_p50_mb", "MB", "lower"},
}

// perLayer are the metrics a traced run reports, one group per layer, after
// two that are not end-to-end metrics for want of steadiness: the
// miss-latency tail is only defined where a run has more than twenty misses,
// and the peak resident set size follows the garbage collector's timing.
var perLayer = []metricDef{
	{"campaign_tail_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"kernel.macs", "count", "lower"},
	{"kernel.conv_row.macs", "count", "lower"},
	{"kernel.hadamard.macs", "count", "lower"},
	{"kernel.busy_s", "s", "lower"},
	{"kernel.share", "ratio", "lower"},
	{"kernel.gmacs_per_s", "GMAC/s", "higher"},
	{"nn.recompute_frac", "ratio", "lower"},
	{"faultsim.units", "count", "lower"},
	{"faultsim.unit_ms_p50", "ms", "lower"},
	{"faultsim.unit_ms_tail", "ms", "lower"},
	{"faultsim.unit_ms_max", "ms", "lower"},
	{"faultsim.nonkernel_ms_p50", "ms", "lower"},
	{"faultsim.imbalance", "ratio", "lower"},
	{"faultsim.speedup", "ratio", "higher"},
	{"winofault.new_ms_p50", "ms", "lower"},
	{"winofault.new_share", "ratio", "lower"},
	{"service.submit_ms_p50", "ms", "lower"},
	{"service.queue_wait_ms_p50", "ms", "lower"},
	{"service.cache_write_ms_p50", "ms", "lower"},
	{"service.overhead_ms_p50", "ms", "lower"},
	{"service.hit_ms_p50", "ms", "lower"},
	{"dist.shards", "count", "lower"},
	{"dist.shard_exec_ms_p50", "ms", "lower"},
	{"dist.lease_wait_ms_p50", "ms", "lower"},
	{"dist.worker_idle_frac", "ratio", "lower"},
	{"dist.overhead_ms_p50", "ms", "lower"},
	{"trace.overhead", "ratio", "higher"},
}

// value is one measured metric with the number of samples behind it.
type value struct {
	v float64
	n int
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEndMetrics computes an untraced run's metrics from its samples.
func endToEndMetrics(w workload, ph phase, setups, mem []float64) map[string]value {
	p50, _, misses := missLatency(w, ph.samples)
	return map[string]value{
		"setup_s":          {median(setups), len(setups)},
		"inferences_per_s": {inferenceRate(w, ph), misses},
		"campaign_p50_s":   {p50, misses},
		"mem_p50_mb":       {median(mem), len(mem)},
	}
}

// memEvery is the interval at which a run samples its memory.
const memEvery = 50 * time.Millisecond

// heldMB is the memory the Go runtime holds from the operating system: all
// it has mapped, less the heap pages it has returned. Unlike the peak
// resident set size, whose value depends on where garbage collections fall,
// its median over a run repeats within a few percent.
func heldMB() float64 {
	ms := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(ms)
	return float64(ms[0].Value.Uint64()-ms[1].Value.Uint64()) / (1 << 20)
}

// sampleMem records heldMB every memEvery until ctx is done, then returns
// the samples.
func sampleMem(ctx context.Context) []float64 {
	var mem []float64
	t := time.NewTicker(memEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return mem
		case <-t.C:
			mem = append(mem, heldMB())
		}
	}
}

// missLatency summarizes the cache-miss latencies of samples. The workloads
// alternate models of different cost, and the median of such a two-mode
// sample jumps between the modes from run to run, so p50 is the geometric
// mean of the per-model medians. The tail applies the ten-beyond rule to the
// latencies pooled across models, each divided by its model's median, and
// scales the result back by p50; it is 0 for twenty or fewer misses.
func missLatency(w workload, samples []sample) (p50, tail float64, n int) {
	byModel := map[string][]float64{}
	for _, s := range samples {
		if !s.hit {
			byModel[s.model] = append(byModel[s.model], s.latency.Seconds())
			n++
		}
	}
	var p50s, rel []float64
	for _, m := range w.models {
		xs := byModel[m]
		if len(xs) == 0 {
			continue
		}
		med := median(xs)
		p50s = append(p50s, med)
		for _, x := range xs {
			rel = append(rel, x/med)
		}
	}
	p50 = geomean(p50s)
	return p50, p50 * tailOf(rel), n
}

// hitLatencies lists a phase's cache-hit latencies in milliseconds.
func hitLatencies(ph phase) []float64 {
	var hits []float64
	for _, s := range ph.samples {
		if s.hit {
			hits = append(hits, ms(s.latency))
		}
	}
	return hits
}

// inferenceRate is a phase's faulty image-inferences per wall second.
func inferenceRate(w workload, ph phase) float64 {
	n := 0
	for _, s := range ph.samples {
		if !s.hit {
			n += w.units(s.model) * samples
		}
	}
	return float64(n) / ph.wall.Seconds()
}

// span helpers over a fetched campaign trace.

func spansNamed(spans []obs.SpanSnapshot, name string) []obs.SpanSnapshot {
	var out []obs.SpanSnapshot
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func durMs(spans []obs.SpanSnapshot, name string) float64 {
	t := 0.0
	for _, s := range spansNamed(spans, name) {
		t += s.DurMs
	}
	return t
}

// layerMetrics computes a traced run's per-layer metrics: the miss-latency
// tail over both parts of the run, service and dist metrics from the span
// timelines of the traced misses, kernel, nn, faultsim and winofault metrics
// from the serial replay, and the tracing overhead from the traced and
// untraced inference rates.
func layerMetrics(w workload, traced, untraced phase, reps []replayed) map[string]value {
	out := map[string]value{}
	put := func(name string, v float64, n int) { out[name] = value{v, n} }

	_, tail, misses := missLatency(w, append(slices.Clone(traced.samples), untraced.samples...))
	put("campaign_tail_s", tail, misses)
	put("peak_rss_mb", peakRSSMB(), 1)

	// Service and dist layers, from the traced misses' spans.
	var submit, queue, write, overhead []float64
	var shardExec, leaseWait, distOver []float64
	distBusy, distPhase := 0.0, 0.0
	shards := 0
	phaseMs := map[string]float64{}
	for _, s := range traced.samples {
		if s.hit || s.trace == nil {
			continue
		}
		sp := s.trace.Spans
		submit = append(submit, durMs(sp, "validate")+durMs(sp, "cache-probe"))
		queue = append(queue, durMs(sp, "queue-wait"))
		write = append(write, durMs(sp, "cache-write"))
		phases := spansNamed(sp, "phase")
		overhead = append(overhead, ms(s.latency)-durMs(sp, "queue-wait")-durMs(sp, "phase"))
		phaseMs[s.id] = durMs(sp, "phase")
		for _, ph := range phases {
			if ph.Attrs["path"] != "dist" {
				continue
			}
			perWorker := map[string]float64{}
			for _, sh := range spansNamed(ph.Children, "shard") {
				exec, err := time.ParseDuration(sh.Attrs["exec"])
				if err != nil {
					continue
				}
				shards++
				shardExec = append(shardExec, ms(exec))
				leaseWait = append(leaseWait, sh.StartMs-ph.StartMs)
				perWorker[sh.Attrs["worker"]] += ms(exec)
				distBusy += ms(exec)
			}
			crit := 0.0
			for _, v := range perWorker {
				crit = max(crit, v)
			}
			distOver = append(distOver, ph.DurMs-crit)
			distPhase += ph.DurMs
		}
	}
	put("service.submit_ms_p50", median(submit), len(submit))
	put("service.queue_wait_ms_p50", median(queue), len(queue))
	put("service.cache_write_ms_p50", median(write), len(write))
	put("service.overhead_ms_p50", median(overhead), len(overhead))
	hits := hitLatencies(traced)
	put("service.hit_ms_p50", median(hits), len(hits))
	put("dist.shards", float64(shards), shards)
	put("dist.shard_exec_ms_p50", median(shardExec), len(shardExec))
	put("dist.lease_wait_ms_p50", median(leaseWait), len(leaseWait))
	idle := 0.0
	if distPhase > 0 {
		idle = 1 - distBusy/(threads*distPhase)
	}
	put("dist.worker_idle_frac", idle, len(distOver))
	put("dist.overhead_ms_p50", median(distOver), len(distOver))

	// Kernel, nn, faultsim and winofault layers, from the serial replay.
	// Speed-up and the share of system construction compare the replay with
	// the same campaigns' phases in the traced service run.
	var k kernelCounts
	var unitMs, nonKernel, recompute, newMs []float64
	var unitTotal, lptTotal, serialMs, spanMs, newMatched float64
	for _, rc := range reps {
		newMs = append(newMs, ms(rc.newDur))
		campaignMs := 0.0
		for _, ph := range rc.phases {
			var us []float64
			for _, u := range ph.units {
				k = k.add(u.kernel)
				us = append(us, ms(u.dur))
				nonKernel = append(nonKernel, ms(u.dur-u.kernel.busy))
				recompute = append(recompute, float64(u.kernel.macs())/float64(rc.scaledMul*samples))
			}
			unitMs = append(unitMs, us...)
			unitTotal += sum(us)
			lptTotal += lptMakespan(us, threads)
			campaignMs += ms(ph.dur)
		}
		if e2e := phaseMs[rc.id]; e2e > 0 {
			serialMs += campaignMs
			spanMs += e2e
			newMatched += ms(rc.newDur)
		}
	}
	put("kernel.macs", float64(k.macs()), len(unitMs))
	put("kernel.conv_row.macs", float64(k.convRowMACs), len(unitMs))
	put("kernel.hadamard.macs", float64(k.hadamardMACs), len(unitMs))
	put("kernel.busy_s", k.busy.Seconds(), len(unitMs))
	put("kernel.share", ratio(ms(k.busy), unitTotal), len(unitMs))
	put("kernel.gmacs_per_s", ratio(float64(k.macs()), k.busy.Seconds())/1e9, len(unitMs))
	put("nn.recompute_frac", median(recompute), len(recompute))
	put("faultsim.units", float64(len(unitMs)), len(unitMs))
	put("faultsim.unit_ms_p50", median(unitMs), len(unitMs))
	put("faultsim.unit_ms_tail", tailOf(unitMs), len(unitMs))
	put("faultsim.unit_ms_max", percentile(unitMs, 1), len(unitMs))
	put("faultsim.nonkernel_ms_p50", median(nonKernel), len(nonKernel))
	put("faultsim.imbalance", ratio(lptTotal, unitTotal/threads), len(unitMs))
	put("faultsim.speedup", ratio(serialMs, spanMs), len(reps))
	put("winofault.new_ms_p50", median(newMs), len(newMs))
	put("winofault.new_share", ratio(newMatched, newMatched+spanMs), len(newMs))
	put("trace.overhead", ratio(inferenceRate(w, traced), inferenceRate(w, untraced)), traced.attempted)
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
