package winofault

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// This file is the thin client side of the campaign service (cmd/wfserve,
// internal/service): the wire types shared by client and server, and an
// HTTP client obtained with Dial. The server imports these types, so the
// request/response schema lives in exactly one place.

// CampaignRequest is the wire form of one campaign submission. The zero
// value of every field means "the platform default" (same defaults as
// Config), so a request that spells a default explicitly is the same
// campaign — and hits the same cache entry — as one that omits it.
//
// Everything except Workers, DeltaExec, Backend and Priority contributes to
// the result; those four are scheduling/performance hints (results are
// bit-identical for any worker count, with delta execution on or off, and
// under every compute backend) and are therefore excluded from the service's
// cache key.
type CampaignRequest struct {
	// Model is one of "vgg19", "resnet50", "densenet169", "googlenet".
	Model string `json:"model,omitempty"`
	// Engine is "direct" (default) or "winograd".
	Engine string `json:"engine,omitempty"`
	// Precision is "int16" (default) or "int8".
	Precision string `json:"precision,omitempty"`
	// Semantics is "result" (default), "operand" or "neuron".
	Semantics string `json:"semantics,omitempty"`
	// WidthMult scales channel counts (default 0.125).
	WidthMult float64 `json:"widthMult,omitempty"`
	// InputSize is the input resolution (default 32).
	InputSize int `json:"inputSize,omitempty"`
	// Samples is the number of evaluation images (default 24).
	Samples int `json:"samples,omitempty"`
	// Rounds is the Monte-Carlo rounds per accuracy point (default 2).
	Rounds int `json:"rounds,omitempty"`
	// Seed drives all randomness (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// TileF4 switches winograd to F(4x4,3x3).
	TileF4 bool `json:"tileF4,omitempty"`
	// BERs is the bit-error-rate sweep, in order. Required.
	BERs []float64 `json:"bers"`
	// Layers additionally requests the per-layer sensitivity analysis at the
	// middle BER of the sweep (BERs[len/2], the wfsim -layers convention).
	Layers bool `json:"layers,omitempty"`
	// Protection optionally applies a fine-grained TMR plan before the
	// campaign: conv layer name -> protected [mul, add] fractions in [0,1].
	Protection map[string][2]float64 `json:"protection,omitempty"`
	// Scenario optionally locates the campaign's faults on the accelerator
	// PE array (stuck PE, SEU burst, voltage-stressed region). Requires
	// result semantics and strictly positive BERs. Absent scenarios leave
	// the cache key byte-identical to the pre-scenario schema.
	Scenario *Scenario `json:"scenario,omitempty"`
	// Workers caps the campaign's scheduler parallelism on the server
	// (bounded by the server's own per-job budget; 0 = server default).
	Workers int `json:"workers,omitempty"`
	// DeltaExec toggles the fault-cone delta-execution fast path on
	// whichever process runs the campaign (absent = enabled). Results are
	// bit-identical with it on or off, so like Workers it is a scheduling
	// hint excluded from the service's cache key — a request spelling
	// "deltaExec": false addresses the same cache entry as one omitting it.
	DeltaExec *bool `json:"deltaExec,omitempty"`
	// Backend names the compute backend that runs the fault-free hot paths
	// on the serving process: "blocked" or "scalar", the bit-exactness
	// reference ("" = the process default, blocked unless WF_BACKEND names
	// another). Backends are bit-identical by contract, so like Workers and
	// DeltaExec it is excluded from the cache key; unknown names are
	// rejected at submission time.
	Backend string `json:"backend,omitempty"`
	// Priority orders this campaign within the submitting tenant's queue
	// (0 = lowest and default, 9 = highest; out-of-range values clamp).
	// Priorities never cross tenant boundaries — fair-share weights decide
	// between tenants — and like Workers this is a scheduling hint excluded
	// from the cache key.
	Priority int `json:"priority,omitempty"`
}

// SystemConfig translates the wire request into the facade Config with the
// platform defaults applied (the same normalization New applies, which is
// idempotent), rejecting unknown enum spellings and every config New would
// reject (Config.validate). The service keys a request by this Config, so a
// request is keyed with exactly the values it runs with.
func (r CampaignRequest) SystemConfig() (Config, error) {
	cfg := Config{
		Model:     r.Model,
		WidthMult: r.WidthMult,
		InputSize: r.InputSize,
		Samples:   r.Samples,
		Rounds:    r.Rounds,
		Seed:      r.Seed,
		TileF4:    r.TileF4,
		Workers:   r.Workers,
		Scenario:  r.Scenario,
		DeltaExec: r.DeltaExec,
		Backend:   r.Backend,
	}
	switch r.Engine {
	case "", "direct":
	case "winograd":
		cfg.Engine = Winograd
	default:
		return cfg, fmt.Errorf("winofault: unknown engine %q (want direct or winograd)", r.Engine)
	}
	switch r.Precision {
	case "", "int16":
	case "int8":
		cfg.Precision = Int8
	default:
		return cfg, fmt.Errorf("winofault: unknown precision %q (want int16 or int8)", r.Precision)
	}
	switch r.Semantics {
	case "", "result":
	case "operand":
		cfg.Semantics = OperandFlip
	case "neuron":
		cfg.Semantics = NeuronFlip
	default:
		return cfg, fmt.Errorf("winofault: unknown semantics %q (want result, operand or neuron)", r.Semantics)
	}
	// Validate here so the service 400s a bad request at submit time instead
	// of keying a job that can only fail on the worker.
	if err := cfg.validate(); err != nil {
		return cfg, err
	}
	cfg.normalize()
	return cfg, nil
}

// CampaignResult is the wire form of a finished campaign: the sweep, plus
// the layer-sensitivity analysis when the request asked for it. The server
// caches and serves the marshaled bytes verbatim, so two identical requests
// receive byte-identical results.
type CampaignResult struct {
	Points []Point `json:"points"`
	// Baseline and Layers are present only for Layers requests.
	Baseline float64            `json:"baseline,omitempty"`
	Layers   []LayerSensitivity `json:"layers,omitempty"`
}

// Campaign states reported by CampaignStatus.State.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// CampaignStatus is the service's envelope for a submitted campaign.
type CampaignStatus struct {
	// ID is the campaign's content address (the canonical request hash);
	// identical requests share one ID.
	ID    string `json:"id"`
	State string `json:"state"`
	// Cached reports that the result was served from the content-addressed
	// cache without running the campaign.
	Cached bool `json:"cached"`
	// Done/Total track (campaign, round) work units of the running batch.
	Done  int    `json:"done"`
	Total int    `json:"total"`
	Error string `json:"error,omitempty"`
	// Result holds the raw CampaignResult bytes once State is "done".
	Result json.RawMessage `json:"result,omitempty"`
}

// Client is a thin HTTP client for a wfserve campaign server.
//
// Idempotent GETs (Status, Result) retry transparently on connection errors
// and 5xx responses with exponential backoff, honoring the caller's context
// — a coordinator mid-restart or a load balancer hiccup costs latency, not
// an error. Submissions never retry implicitly: POST /campaigns is safe to
// repeat (content addressing dedups it), but that is the caller's call.
type Client struct {
	base *url.URL
	hc   *http.Client
	// apiKey, when non-empty, authenticates every request against a
	// multi-tenant server (sent as an Authorization bearer token).
	apiKey string
	// retryAttempts bounds tries for idempotent GETs (default 4).
	retryAttempts int
	// retryBase is the first backoff delay; it doubles per attempt
	// (default 100ms, so at most ~700ms of waiting across 4 attempts).
	retryBase time.Duration
}

// DialOption configures a Client before Dial's health check runs.
type DialOption func(*Client)

// WithAPIKey authenticates the client as a tenant of a server running with
// a key table (wfserve -keys). Open servers ignore the header.
func WithAPIKey(key string) DialOption {
	return func(c *Client) { c.apiKey = key }
}

// Dial validates the server URL and checks the server is reachable via its
// health endpoint. An empty scheme defaults to http.
func Dial(rawURL string, opts ...DialOption) (*Client, error) {
	if !strings.Contains(rawURL, "://") {
		rawURL = "http://" + rawURL
	}
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("winofault: dial %q: %w", rawURL, err)
	}
	c := &Client{base: u, hc: &http.Client{}, retryAttempts: 4, retryBase: 100 * time.Millisecond}
	for _, opt := range opts {
		opt(c)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.endpoint("/healthz"), nil)
	if err != nil {
		return nil, err
	}
	c.authorize(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("winofault: dial %s: %w", u, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("winofault: dial %s: health check returned %s", u, resp.Status)
	}
	return c, nil
}

// authorize attaches the client's API key, if any.
func (c *Client) authorize(req *http.Request) {
	if c.apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.apiKey)
	}
}

// endpoint joins a "/path?query" suffix onto the base URL.
func (c *Client) endpoint(pathAndQuery string) string {
	u := *c.base
	path, query, _ := strings.Cut(pathAndQuery, "?")
	u.Path = strings.TrimSuffix(u.Path, "/") + path
	u.RawQuery = query
	return u.String()
}

func decodeStatus(resp *http.Response) (*CampaignStatus, error) {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 400 {
		return nil, fmt.Errorf("winofault: server returned %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var st CampaignStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("winofault: bad status payload: %w", err)
	}
	return &st, nil
}

func (c *Client) post(ctx context.Context, path string, req CampaignRequest) (*CampaignStatus, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.endpoint(path), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	c.authorize(hreq)
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	return decodeStatus(resp)
}

// getRetry performs an idempotent GET with bounded exponential-backoff
// retry on connection errors and 5xx responses. Client errors (4xx) return
// immediately — repeating them cannot help. The caller owns the response
// body on success.
func (c *Client) getRetry(ctx context.Context, pathAndQuery string) (*http.Response, error) {
	var lastErr error
	for attempt := 0; attempt < c.retryAttempts; attempt++ {
		if attempt > 0 {
			backoff := c.retryBase << (attempt - 1)
			t := time.NewTimer(backoff)
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, fmt.Errorf("winofault: %w (last attempt: %v)", ctx.Err(), lastErr)
			case <-t.C:
			}
		}
		hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.endpoint(pathAndQuery), nil)
		if err != nil {
			return nil, err
		}
		c.authorize(hreq)
		resp, err := c.hc.Do(hreq)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			lastErr = err
			continue
		}
		if resp.StatusCode >= 500 {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			lastErr = fmt.Errorf("winofault: server returned %s: %s", resp.Status, strings.TrimSpace(string(body)))
			continue
		}
		return resp, nil
	}
	return nil, fmt.Errorf("winofault: giving up after %d attempts: %w", c.retryAttempts, lastErr)
}

// Submit enqueues a campaign without waiting for it and returns its status
// (already "done" with the result attached on a cache hit).
func (c *Client) Submit(ctx context.Context, req CampaignRequest) (*CampaignStatus, error) {
	return c.post(ctx, "/campaigns", req)
}

// Status polls a submitted campaign by ID, retrying transient failures.
func (c *Client) Status(ctx context.Context, id string) (*CampaignStatus, error) {
	resp, err := c.getRetry(ctx, "/campaigns/"+url.PathEscape(id))
	if err != nil {
		return nil, err
	}
	return decodeStatus(resp)
}

// Result fetches a finished campaign's raw result bytes — exactly the
// content-addressed cache entry, so identical campaigns yield byte-identical
// payloads. Transient failures retry like Status.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	resp, err := c.getRetry(ctx, "/campaigns/"+url.PathEscape(id)+"/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("winofault: server returned %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// Sweep submits a campaign and blocks until the server finishes it (or ctx
// is canceled), returning the parsed result together with its status
// envelope. The status reports whether the result came from the server's
// content-addressed cache.
func (c *Client) Sweep(ctx context.Context, req CampaignRequest) (*CampaignResult, *CampaignStatus, error) {
	st, err := c.post(ctx, "/campaigns?wait=1", req)
	if err != nil {
		return nil, nil, err
	}
	if st.State != StateDone {
		return nil, st, fmt.Errorf("winofault: campaign %s ended %s: %s", st.ID, st.State, st.Error)
	}
	var res CampaignResult
	if err := json.Unmarshal(st.Result, &res); err != nil {
		return nil, st, fmt.Errorf("winofault: bad result payload: %w", err)
	}
	return &res, st, nil
}
