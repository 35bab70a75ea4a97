package main

import (
	"fmt"
	"math/rand/v2"

	winofault "repro"
)

// workload is one traffic mix: which campaigns its clients submit, and over
// which execution path the service runs them. Every client runs a closed
// loop: it submits a new campaign (a cache miss), waits for the result and,
// where the workload has hits, re-submits one of its own earlier campaigns
// (a cache hit), until the run's time is up or the campaign pool is used up.
type workload struct {
	name    string
	clients int
	// dist runs misses through a coordinator with two one-thread workers
	// instead of the service's local path.
	dist   bool
	models []string // alternated per client, campaign by campaign
	engine string
	bers   []float64
	layers bool
	// hits makes each client follow every miss with a repeat of one of its
	// own earlier campaigns.
	hits bool
	// pool is the number of campaign seeds per model whose result digests are
	// pinned in digests.json; a run draws its campaigns from those of them
	// whose digest no other pool entry of the workload shares.
	pool int
	// replay is how many of the run's first campaigns the traced run replays
	// serially through the facade (sized to keep a traced run short).
	replay int
}

// rounds is the Monte-Carlo rounds of every campaign (the platform default).
const rounds = 2

// samples is the evaluation images per unit (the platform default).
const samples = 24

// layerCampaigns is the size of the layer-sensitivity batch of each model
// that layers campaigns run on: the all-faulty baseline plus one campaign
// per conv layer (System.LayerUnits per round; pinned by a test).
var layerCampaigns = map[string]int{"vgg19": 19}

var workloads = []workload{
	{
		// Kernel-bound: the direct engine spends most of each unit in the
		// fault-free conv kernels, so kernel work shows here.
		name: "direct-sweep", clients: 1, models: []string{"vgg19", "resnet50"},
		engine: "direct", bers: []float64{1e-11, 1e-10, 1e-9, 1e-8},
		pool: 48, replay: 4,
	},
	{
		// Replay-bound: at high BER, fault sampling and replay dominate and
		// unit times vary widely, so worker imbalance shows; kernels do not.
		name: "winograd-highber", clients: 1, models: []string{"vgg19", "resnet50"},
		engine: "winograd", bers: []float64{1e-8, 3e-8, 1e-7},
		pool: 24, replay: 2,
	},
	{
		// Service-bound: two clients share one job slot; cheap low-BER misses
		// make delta execution, per-campaign system construction, queueing and
		// cache reads beside cache writes a large share of each request.
		name: "service-mix", clients: 2, models: []string{"vgg19", "resnet50"},
		engine: "winograd", bers: []float64{3e-11, 3e-10, 1e-9},
		hits: true, pool: 48, replay: 4,
	},
	{
		// The only path through lease polling, sharding and shard merge:
		// Fig. 3 layer-sensitivity campaigns through the coordinator.
		name: "dist-layers", clients: 1, dist: true, models: []string{"vgg19"},
		engine: "winograd", bers: []float64{1e-10, 1e-9, 1e-8}, layers: true,
		pool: 24, replay: 1,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// request is the campaign of one pool entry.
func (w workload) request(model string, seed uint64) winofault.CampaignRequest {
	return winofault.CampaignRequest{
		Model:  model,
		Engine: w.engine,
		BERs:   w.bers,
		Layers: w.layers,
		Seed:   seed,
	}
}

// units is the number of (campaign, round) work units one campaign of model
// runs; each unit infers samples images.
func (w workload) units(model string) int {
	n := len(w.bers)
	if w.layers {
		n += layerCampaigns[model]
	}
	return n * rounds
}

// plan is the campaign sequence a run seed generates: for each model, a
// permutation of the campaign seeds the digest gate can tell apart.
type plan struct {
	w     workload
	seeds [][]uint64
}

func newPlan(w workload, seed uint64, digests digestTable) plan {
	p := plan{w: w, seeds: make([][]uint64, len(w.models))}
	for m, model := range w.models {
		pool := digests.distinct(w.name, model)
		rand.New(rand.NewPCG(seed, uint64(m))).Shuffle(len(pool), func(i, j int) {
			pool[i], pool[j] = pool[j], pool[i]
		})
		p.seeds[m] = pool
	}
	return p
}

// campaign is the i-th miss of client c. Client c submits model (i+c) mod M,
// so each client alternates models; with as many clients as models, every
// model is used by exactly one client per step and the seed index i·clients+c
// over M never repeats. ok is false once the model's pool is used up.
func (p plan) campaign(c, i int) (req winofault.CampaignRequest, model string, ok bool) {
	nm := len(p.w.models)
	m := (i + c) % nm
	k := (i*p.w.clients + c) / nm
	if k >= len(p.seeds[m]) {
		return req, "", false
	}
	model = p.w.models[m]
	return p.w.request(model, p.seeds[m][k]), model, true
}

// first lists the run's first n campaigns in the order clients start them.
func (p plan) first(n int) ([]winofault.CampaignRequest, []string) {
	var reqs []winofault.CampaignRequest
	var models []string
	for i := 0; len(reqs) < n; i++ {
		for c := 0; c < p.w.clients && len(reqs) < n; c++ {
			req, model, ok := p.campaign(c, i)
			if !ok {
				return reqs, models
			}
			reqs = append(reqs, req)
			models = append(models, model)
		}
	}
	return reqs, models
}
