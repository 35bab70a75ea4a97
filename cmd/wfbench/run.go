package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"

	winofault "repro"
	"repro/internal/obs"
)

// sample is one completed campaign request as its client saw it.
type sample struct {
	model   string
	hit     bool
	latency time.Duration
	id      string
	// trace is the campaign's span timeline, fetched after a traced miss.
	trace *obs.TraceSnapshot
}

// phase is the outcome of running the clients for a while.
type phase struct {
	samples   []sample
	wall      time.Duration
	attempted int
	errs      []string
	next      []int // each client's next campaign index
}

// digest is the short content hash the correctness gate compares.
func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// runner drives one run's clients against a started stack.
type runner struct {
	w       workload
	plan    plan
	seed    uint64
	stack   *stack
	client  *winofault.Client
	digests digestTable
}

// issued is a client's own earlier miss, kept for later hits.
type issued struct {
	req    winofault.CampaignRequest
	model  string
	result []byte
}

// run starts every client at its campaign index from[c] and lets each one
// start new misses until d has passed. With traced set, each miss's span
// timeline is fetched from the service after the client has its result.
func (r *runner) run(ctx context.Context, from []int, d time.Duration, traced bool) phase {
	var (
		mu sync.Mutex
		ph = phase{next: make([]int, r.w.clients)}
		wg sync.WaitGroup
	)
	record := func(s sample, err error) {
		mu.Lock()
		defer mu.Unlock()
		ph.attempted++
		if err != nil {
			ph.errs = append(ph.errs, err.Error())
			return
		}
		ph.samples = append(ph.samples, s)
	}
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < r.w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := from[c]
			pick := rand.New(rand.NewPCG(r.seed, uint64(1000+c)))
			var mine []issued
			for ; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
				req, model, ok := r.plan.campaign(c, i)
				if !ok {
					break
				}
				s, res, err := r.submit(ctx, req, model, nil, traced)
				record(s, err)
				if err != nil {
					continue
				}
				mine = append(mine, issued{req: req, model: model, result: res})
				if r.w.hits {
					again := mine[pick.IntN(len(mine))]
					s, _, err = r.submit(ctx, again.req, again.model, again.result, false)
					record(s, err)
				}
			}
			mu.Lock()
			ph.next[c] = i
			mu.Unlock()
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
	return ph
}

// submit runs one campaign request and checks its result bytes: a miss
// (want == nil) against the pinned digest of its pool entry, a hit byte for
// byte against the miss it repeats.
func (r *runner) submit(ctx context.Context, req winofault.CampaignRequest, model string, want []byte, traced bool) (sample, []byte, error) {
	hit := want != nil
	t0 := time.Now()
	_, st, err := r.client.Sweep(ctx, req)
	lat := time.Since(t0)
	s := sample{model: model, hit: hit, latency: lat}
	name := fmt.Sprintf("%s seed %d", model, req.Seed)
	if err != nil {
		return s, nil, fmt.Errorf("%s: %w", name, err)
	}
	s.id = st.ID
	if st.Cached != hit {
		return s, nil, fmt.Errorf("%s: cached=%v, want %v", name, st.Cached, hit)
	}
	if hit {
		if string(st.Result) != string(want) {
			return s, nil, fmt.Errorf("%s: cache hit differs from its miss", name)
		}
	} else if got, pinned := digest(st.Result), r.digests.get(r.w.name, model, req.Seed); got != pinned {
		return s, nil, fmt.Errorf("%s: result digest %s, pinned %s", name, got, pinned)
	}
	if traced {
		tr, err := r.fetchTrace(ctx, st.ID)
		if err != nil {
			return s, nil, fmt.Errorf("%s: trace: %w", name, err)
		}
		s.trace = tr
	}
	return s, st.Result, nil
}

// fetchTrace reads a campaign's span timeline from the service's trace
// endpoint.
func (r *runner) fetchTrace(ctx context.Context, id string) (*obs.TraceSnapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.stack.url+"/campaigns/"+id+"/trace", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET trace: %s", resp.Status)
	}
	var tr obs.TraceSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		return nil, err
	}
	return &tr, nil
}
