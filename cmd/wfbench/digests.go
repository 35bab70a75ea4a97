package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
)

// digestTable maps workload → model → the result digest of the campaign
// with seed i+1, for every campaign in the workload's pool.
type digestTable map[string]map[string][]string

//go:embed digests.json
var pinnedJSON []byte

func pinnedDigests() (digestTable, error) {
	var t digestTable
	if err := json.Unmarshal(pinnedJSON, &t); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return t, nil
}

// get is the pinned digest of a pool entry, or "" when none is pinned.
func (t digestTable) get(workload, model string, seed uint64) string {
	list := t[workload][model]
	if seed < 1 || seed > uint64(len(list)) {
		return ""
	}
	return list[seed-1]
}

// distinct lists, in seed order, the pool seeds of a workload's model whose
// digest no other pool entry of the workload, of any model, shares. A
// campaign result holds only BERs and accuracies, so campaigns whose
// accuracies saturate (no fault sampled, or every prediction wrong) can
// produce the same bytes; the gate could not tell such campaigns apart, and
// a run that answered one with another's result would pass it.
func (t digestTable) distinct(workload, model string) []uint64 {
	count := map[string]int{}
	for _, list := range t[workload] {
		for _, d := range list {
			count[d]++
		}
	}
	var seeds []uint64
	for i, d := range t[workload][model] {
		if count[d] == 1 {
			seeds = append(seeds, uint64(i+1))
		}
	}
	return seeds
}

// pin computes the digest of every campaign in every workload's pool through
// the facade (the service's local execution path) and writes the table to
// path. Campaigns run one per CPU, each with one faultsim worker.
func pin(ctx context.Context, path string) error {
	type job struct {
		w     workload
		model string
		seed  uint64
	}
	t := digestTable{}
	var jobs []job
	for _, w := range workloads {
		t[w.name] = map[string][]string{}
		for _, m := range w.models {
			t[w.name][m] = make([]string, w.pool)
			for s := 1; s <= w.pool; s++ {
				jobs = append(jobs, job{w, m, uint64(s)})
			}
		}
	}
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
		next     = make(chan job)
	)
	for k := 0; k < runtime.GOMAXPROCS(0); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				req := j.w.request(j.model, j.seed)
				sys, err := newSystem(req, 1)
				var data []byte
				if err == nil {
					data, err = execute(ctx, sys, req, nil)
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("%s %s seed %d: %w", j.w.name, j.model, j.seed, err)
				}
				t[j.w.name][j.model][j.seed-1] = digest(data)
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	data, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
