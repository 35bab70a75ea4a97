package dist

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"

	winofault "repro"
	"repro/internal/service"
)

// BenchmarkDistLayersCampaign runs wfbench's dist-layers campaign — vgg19
// winograd at BERs 1e-10, 1e-9 and 1e-8 plus the layer-sensitivity phase —
// through a coordinator and two one-thread workers over loopback, one
// campaign per iteration, each with its own seed so no worker reuses a
// cached plan. B/op counts the whole process: coordinator and workers.
func BenchmarkDistLayersCampaign(b *testing.B) {
	c, err := NewCoordinator(CoordinatorConfig{Logger: quiet()})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, name := range []string{"a", "b"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			RunWorker(ctx, WorkerConfig{Server: ts.URL, Name: name, Workers: 1, Logger: quiet()})
		}()
	}
	defer func() {
		cancel()
		wg.Wait()
		ts.Close()
		c.Close()
	}()
	waitForWorkers(b, c, 2)
	b.ReportAllocs()
	seed := uint64(0)
	for b.Loop() {
		seed++
		req := winofault.CampaignRequest{Model: "vgg19", Engine: "winograd", BERs: []float64{1e-10, 1e-9, 1e-8}, Layers: true, Seed: seed}
		key, err := service.Key(req)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Run(context.Background(), key, req, func(int, int, int) {}); err != nil {
			b.Fatal(err)
		}
		c.CampaignDone(key)
	}
}
