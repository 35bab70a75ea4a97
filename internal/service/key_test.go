package service

import (
	"encoding/json"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	winofault "repro"
)

func mustKey(t *testing.T, req winofault.CampaignRequest) string {
	t.Helper()
	key, err := Key(req)
	if err != nil {
		t.Fatalf("Key(%+v): %v", req, err)
	}
	return key
}

// TestKeyDefaultsAreCanonical: spelling a platform default explicitly must
// address the same campaign as omitting it.
func TestKeyDefaultsAreCanonical(t *testing.T) {
	implicit := winofault.CampaignRequest{BERs: []float64{1e-9}}
	explicit := winofault.CampaignRequest{
		Model:     "vgg19",
		Engine:    "direct",
		Precision: "int16",
		Semantics: "result",
		WidthMult: 0.125,
		InputSize: 32,
		Samples:   24,
		Rounds:    2,
		Seed:      1,
		BERs:      []float64{1e-9},
	}
	if a, b := mustKey(t, implicit), mustKey(t, explicit); a != b {
		t.Errorf("explicit defaults changed the key: %s vs %s", a, b)
	}
}

// TestKeyJSONFieldOrderInvariance: the same request serialized with
// different JSON member order must hash identically.
func TestKeyJSONFieldOrderInvariance(t *testing.T) {
	docs := []string{
		`{"model":"resnet50","engine":"winograd","bers":[1e-10,1e-9],"seed":7}`,
		`{"seed":7,"bers":[1e-10,1e-9],"engine":"winograd","model":"resnet50"}`,
	}
	var keys []string
	for _, doc := range docs {
		var req winofault.CampaignRequest
		if err := json.Unmarshal([]byte(doc), &req); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, mustKey(t, req))
	}
	if keys[0] != keys[1] {
		t.Errorf("JSON member order changed the key: %s vs %s", keys[0], keys[1])
	}
}

// TestKeyFloatFormattingInvariance: every textual spelling of the same
// float64 must canonicalize identically, and genuinely different values
// must not.
func TestKeyFloatFormattingInvariance(t *testing.T) {
	var a, b winofault.CampaignRequest
	if err := json.Unmarshal([]byte(`{"bers":[1e-9],"widthMult":0.125}`), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(`{"bers":[0.000000001],"widthMult":1.25e-1}`), &b); err != nil {
		t.Fatal(err)
	}
	if ka, kb := mustKey(t, a), mustKey(t, b); ka != kb {
		t.Errorf("same floats, different spelling, different keys: %s vs %s", ka, kb)
	}
	c := a
	c.BERs = []float64{2e-9}
	if mustKey(t, a) == mustKey(t, c) {
		t.Error("different BER produced the same key")
	}
}

// TestKeyProtectionOrderInvariance: protection is a map, so its iteration
// order must never leak into the key; its content must.
func TestKeyProtectionOrderInvariance(t *testing.T) {
	prot := map[string][2]float64{}
	for _, name := range []string{"conv1_1", "conv2_1", "conv3_1", "conv3_4", "conv4_2", "conv5_3"} {
		prot[name] = [2]float64{0.5, 0.25}
	}
	base := winofault.CampaignRequest{BERs: []float64{1e-9}, Protection: prot}
	want := mustKey(t, base)
	for i := 0; i < 20; i++ {
		clone := winofault.CampaignRequest{BERs: []float64{1e-9}, Protection: map[string][2]float64{}}
		for k, v := range prot {
			clone.Protection[k] = v
		}
		if got := mustKey(t, clone); got != want {
			t.Fatalf("iteration %d: map order leaked into the key: %s vs %s", i, got, want)
		}
	}
	changed := winofault.CampaignRequest{BERs: []float64{1e-9},
		Protection: map[string][2]float64{"conv1_1": {1, 0.25}}}
	if mustKey(t, changed) == want {
		t.Error("different protection produced the same key")
	}
	// A zero-fraction entry protects nothing: same campaign as no entry.
	noop := winofault.CampaignRequest{BERs: []float64{1e-9},
		Protection: map[string][2]float64{"conv1_1": {0, 0}}}
	if mustKey(t, noop) != mustKey(t, winofault.CampaignRequest{BERs: []float64{1e-9}}) {
		t.Error("zero-fraction protection entry changed the key")
	}
}

// TestKeyIgnoresWorkers: worker count is scheduling, not campaign identity
// (results are bit-identical for any value), so it must not shard the cache.
func TestKeyIgnoresWorkers(t *testing.T) {
	a := winofault.CampaignRequest{BERs: []float64{1e-9}, Workers: 1}
	b := winofault.CampaignRequest{BERs: []float64{1e-9}, Workers: 32}
	if ka, kb := mustKey(t, a), mustKey(t, b); ka != kb {
		t.Errorf("workers sharded the cache: %s vs %s", ka, kb)
	}
}

// TestKeyIgnoresDeltaExec: like Workers, delta execution is scheduling, not
// campaign identity — results are bit-identical with it on, off or defaulted
// (pinned by the delta equivalence fixtures), so none of the three spellings
// may shard the cache, and the wfcampaign/v1 schema stays unchanged.
func TestKeyIgnoresDeltaExec(t *testing.T) {
	off, on := false, true
	want := mustKey(t, winofault.CampaignRequest{BERs: []float64{1e-9}})
	for name, req := range map[string]winofault.CampaignRequest{
		"explicit off": {BERs: []float64{1e-9}, DeltaExec: &off},
		"explicit on":  {BERs: []float64{1e-9}, DeltaExec: &on},
	} {
		if got := mustKey(t, req); got != want {
			t.Errorf("%s sharded the cache: %s vs %s", name, got, want)
		}
	}
}

// TestKeyIgnoresBackend: the compute backend is scheduling, not campaign
// identity — every backend is bit-identical by contract (pinned by the
// cross-backend differential tests) — so no registered spelling may shard
// the cache, while unknown names are rejected at submit time.
func TestKeyIgnoresBackend(t *testing.T) {
	want := mustKey(t, winofault.CampaignRequest{BERs: []float64{1e-9}})
	for _, backend := range []string{"scalar", "blocked"} {
		req := winofault.CampaignRequest{BERs: []float64{1e-9}, Backend: backend}
		if got := mustKey(t, req); got != want {
			t.Errorf("backend %q sharded the cache: %s vs %s", backend, got, want)
		}
	}
	if _, err := Key(winofault.CampaignRequest{BERs: []float64{1e-9}, Backend: "simd-avx512"}); err == nil {
		t.Error("Key accepted an unregistered backend name")
	}
}

// resultAffectingVariants change one result-affecting field each from the
// all-defaults request.
var resultAffectingVariants = map[string]winofault.CampaignRequest{
	"model":     {Model: "googlenet", BERs: []float64{1e-9}},
	"engine":    {Engine: "winograd", BERs: []float64{1e-9}},
	"precision": {Precision: "int8", BERs: []float64{1e-9}},
	"semantics": {Semantics: "neuron", BERs: []float64{1e-9}},
	"widthMult": {WidthMult: 0.25, BERs: []float64{1e-9}},
	"inputSize": {InputSize: 16, BERs: []float64{1e-9}},
	"samples":   {Samples: 8, BERs: []float64{1e-9}},
	"rounds":    {Rounds: 5, BERs: []float64{1e-9}},
	"seed":      {Seed: 99, BERs: []float64{1e-9}},
	"tileF4":    {TileF4: true, BERs: []float64{1e-9}},
	"berOrder":  {BERs: []float64{1e-8, 1e-9}},
	"layers":    {Layers: true, BERs: []float64{1e-9}},
}

// TestKeyDistinguishesResultAffectingFields: every field that changes the
// campaign's outcome must change the key.
func TestKeyDistinguishesResultAffectingFields(t *testing.T) {
	base := winofault.CampaignRequest{BERs: []float64{1e-9}}
	want := mustKey(t, base)
	for field, req := range resultAffectingVariants {
		if mustKey(t, req) == want {
			t.Errorf("changing %s did not change the key", field)
		}
	}
}

// invalidRequests pins the validation surface: Key must reject every one.
var invalidRequests = map[string]winofault.CampaignRequest{
	"no bers":        {},
	"bad engine":     {Engine: "systolic", BERs: []float64{1e-9}},
	"bad precision":  {Precision: "fp32", BERs: []float64{1e-9}},
	"bad semantics":  {Semantics: "sdc", BERs: []float64{1e-9}},
	"reserved chars": {BERs: []float64{1e-9}, Protection: map[string][2]float64{"a|b": {1, 1}}},
	"nan ber":        {BERs: []float64{math.NaN()}},
	"inf ber":        {BERs: []float64{math.Inf(1)}},
	// Negative/nonsensical numerics must be 400s at submit time, never
	// keyed jobs that fail (or panic) on the worker: only the zero value
	// means "default".
	"negative samples":       {Samples: -1, BERs: []float64{1e-9}},
	"negative rounds":        {Rounds: -1, BERs: []float64{1e-9}},
	"negative inputSize":     {InputSize: -4, BERs: []float64{1e-9}},
	"negative widthMult":     {WidthMult: -0.5, BERs: []float64{1e-9}},
	"nan widthMult":          {WidthMult: math.NaN(), BERs: []float64{1e-9}},
	"inf widthMult":          {WidthMult: math.Inf(1), BERs: []float64{1e-9}},
	"nan protection":         {BERs: []float64{1e-9}, Protection: map[string][2]float64{"conv1_1": {math.NaN(), 0.5}}},
	"inf protection":         {BERs: []float64{1e-9}, Protection: map[string][2]float64{"conv1_1": {math.Inf(1), 0.5}}},
	"negative protection":    {BERs: []float64{1e-9}, Protection: map[string][2]float64{"conv1_1": {-0.1, 0.5}}},
	"above-unity protection": {BERs: []float64{1e-9}, Protection: map[string][2]float64{"conv1_1": {0.5, 1.5}}},
	// An unknown model can only fail on the worker, and the model spelling
	// is written into the canonical text verbatim.
	"unknown model":         {Model: "alexnet", BERs: []float64{1e-9}},
	"model with a key line": {Model: "vgg19\nengine=winograd", BERs: []float64{1e-9}},
}

// TestKeyRejectsInvalidRequests pins the validation surface.
func TestKeyRejectsInvalidRequests(t *testing.T) {
	for name, req := range invalidRequests {
		if _, err := Key(req); err == nil {
			t.Errorf("%s: Key accepted an invalid request", name)
		}
	}
}

// TestKeyUnchangedWithoutScenario pins the wfcampaign/v1 content addresses
// of scenario-less requests to their exact pre-scenario (PR 4) values: the
// scenario lines are appended only when the field is present, so every
// previously persisted cache entry keeps answering its request.
func TestKeyUnchangedWithoutScenario(t *testing.T) {
	for _, p := range pinnedKeys {
		if got := mustKey(t, p.req); got != p.key {
			t.Errorf("%s: key drifted from the pinned PR 4 value:\ngot  %s\nwant %s", p.name, got, p.key)
		}
	}
}

var pinnedKeys = []struct {
	name string
	req  winofault.CampaignRequest
	key  string
}{
	{"defaults", winofault.CampaignRequest{BERs: []float64{1e-9}},
		"dc864e4c985bfd6d4116e42dc50f1200b09ea3c76c21861a2b1765f2b0983a9e"},
	{"full", winofault.CampaignRequest{Model: "resnet50", Engine: "winograd", Precision: "int8",
		Semantics: "operand", WidthMult: 0.25, InputSize: 24, Samples: 12, Rounds: 3, Seed: 9,
		TileF4: true, BERs: []float64{1e-10, 3e-9}, Layers: true,
		Protection: map[string][2]float64{"conv1": {0.5, 0.25}}},
		"8747f1568f30fb20e26d76ba51dfc644e26018c02481cd5177265c4ee834a61f"},
}

// scenarioVariants each differ from a stuckpe scenario at PE (1, 2), bit 20,
// in one identity-bearing way.
var scenarioVariants = map[string]*winofault.Scenario{
	"kind":   {Kind: "burst"},
	"pe":     {Kind: "stuckpe", Row: 3, Col: 2, Bit: 20},
	"bit":    {Kind: "stuckpe", Row: 1, Col: 2, Bit: 21},
	"span":   {Kind: "burst", Span: 128},
	"region": {Kind: "voltregion", Row1: 3, Col1: 3, V: 0.75},
	"volt":   {Kind: "voltregion", Row1: 3, Col1: 3, V: 0.76},
}

// TestKeyScenario: scenarios are part of campaign identity — the kind and
// every kind-relevant parameter shard the cache, while default spellings
// and kind-irrelevant fields do not.
func TestKeyScenario(t *testing.T) {
	base := func(sc *winofault.Scenario) winofault.CampaignRequest {
		return winofault.CampaignRequest{BERs: []float64{1e-9}, Scenario: sc}
	}
	plain := mustKey(t, base(nil))
	stuck := mustKey(t, base(&winofault.Scenario{Kind: "stuckpe", Row: 1, Col: 2, Bit: 20}))
	if stuck == plain {
		t.Error("stuckpe scenario did not change the key")
	}
	seen := map[string]string{"": stuck}
	for name, sc := range scenarioVariants {
		k := mustKey(t, base(sc))
		for prev, pk := range seen {
			if k == pk {
				t.Errorf("scenario variant %q collides with %q", name, prev)
			}
		}
		seen[name] = k
	}
	// Defaults applied: an explicit default span is the same campaign.
	if a, b := mustKey(t, base(&winofault.Scenario{Kind: "burst"})),
		mustKey(t, base(&winofault.Scenario{Kind: "burst", Span: 64})); a != b {
		t.Error("explicit default burst span changed the key")
	}
	// Kind-irrelevant fields are dropped by normalization.
	if a, b := mustKey(t, base(&winofault.Scenario{Kind: "burst"})),
		mustKey(t, base(&winofault.Scenario{Kind: "burst", Row: 5, V: 0.8})); a != b {
		t.Error("kind-irrelevant scenario fields changed the key")
	}
	// Sampled coordinates are identity too (resolved from the keyed seed).
	if a, b := mustKey(t, base(&winofault.Scenario{Kind: "stuckpe", Row: -1, Col: -1, Bit: -1})),
		mustKey(t, base(&winofault.Scenario{Kind: "stuckpe"})); a == b {
		t.Error("sampled and pinned stuck coordinates share a key")
	}
	// ... but every negative spelling means the same "sampled" campaign, so
	// they must all canonicalize to -1 and share one key.
	if a, b := mustKey(t, base(&winofault.Scenario{Kind: "stuckpe", Row: -1, Col: -1, Bit: -1})),
		mustKey(t, base(&winofault.Scenario{Kind: "stuckpe", Row: -5, Col: -2, Bit: -9})); a != b {
		t.Error("negative sampled-coordinate spellings sharded the cache")
	}
}

// invalidScenarioRequests pins the scenario validation surface.
var invalidScenarioRequests = map[string]winofault.CampaignRequest{
	"unknown kind":  {BERs: []float64{1e-9}, Scenario: &winofault.Scenario{Kind: "meteor"}},
	"pe outside":    {BERs: []float64{1e-9}, Scenario: &winofault.Scenario{Kind: "stuckpe", Row: 16}},
	"bit outside":   {BERs: []float64{1e-9}, Scenario: &winofault.Scenario{Kind: "stuckpe", Bit: 32}},
	"bit vs int8":   {BERs: []float64{1e-9}, Precision: "int8", Scenario: &winofault.Scenario{Kind: "stuckpe", Bit: 20}},
	"negative span": {BERs: []float64{1e-9}, Scenario: &winofault.Scenario{Kind: "burst", Span: -2}},
	"bad region":    {BERs: []float64{1e-9}, Scenario: &winofault.Scenario{Kind: "voltregion", Row0: 3, Row1: 1, V: 0.8}},
	"zero volt":     {BERs: []float64{1e-9}, Scenario: &winofault.Scenario{Kind: "voltregion", Row1: 1, Col1: 1}},
	"semantics":     {BERs: []float64{1e-9}, Semantics: "operand", Scenario: &winofault.Scenario{Kind: "burst"}},
	"zero ber":      {BERs: []float64{0, 1e-9}, Scenario: &winofault.Scenario{Kind: "burst"}},
}

// TestKeyRejectsInvalidScenarios pins the scenario validation surface.
func TestKeyRejectsInvalidScenarios(t *testing.T) {
	for name, req := range invalidScenarioRequests {
		if _, err := Key(req); err == nil {
			t.Errorf("%s: Key accepted an invalid scenario request", name)
		}
	}
	// int16 keeps the full 32-bit product register addressable.
	ok := winofault.CampaignRequest{BERs: []float64{1e-9}, Scenario: &winofault.Scenario{Kind: "stuckpe", Bit: 31}}
	if _, err := Key(ok); err != nil {
		t.Errorf("bit 31 on int16 rejected: %v", err)
	}
}

// TestCanonicalIsVersioned: the canonical serialization carries its schema
// tag so persisted entries can never outlive a schema change silently.
func TestCanonicalIsVersioned(t *testing.T) {
	canon, err := Canonical(winofault.CampaignRequest{BERs: []float64{1e-9}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(canon, keySchema+"\n") {
		t.Errorf("canonical form does not start with schema tag %q:\n%s", keySchema, canon)
	}
}

// FuzzCanonical decodes its input as a JSON campaign request and checks the
// canonical form's contract: Canonical never panics; a request it accepts
// keeps its canonical text across a JSON round trip, as it does on its way
// to the server; and replacing the scenario by its normalized form keeps the
// text too, because canonicalizing is idempotent. Every request in this
// file's tables is a seed, so go test replays them.
func FuzzCanonical(f *testing.F) {
	var seeds []winofault.CampaignRequest
	for _, table := range []map[string]winofault.CampaignRequest{
		resultAffectingVariants, invalidRequests, invalidScenarioRequests,
	} {
		for _, name := range slices.Sorted(maps.Keys(table)) {
			seeds = append(seeds, table[name])
		}
	}
	for _, p := range pinnedKeys {
		seeds = append(seeds, p.req)
	}
	for _, name := range slices.Sorted(maps.Keys(scenarioVariants)) {
		seeds = append(seeds, winofault.CampaignRequest{BERs: []float64{1e-9}, Scenario: scenarioVariants[name]})
	}
	for _, req := range seeds {
		if data, err := json.Marshal(req); err == nil { // NaN and Inf have no JSON spelling
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req winofault.CampaignRequest
		if json.Unmarshal(data, &req) != nil {
			return
		}
		canon, err := Canonical(req)
		if err != nil {
			return
		}
		wire, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not marshal: %v", err)
		}
		var back winofault.CampaignRequest
		if err := json.Unmarshal(wire, &back); err != nil {
			t.Fatalf("accepted request does not round-trip: %v", err)
		}
		if got, err := Canonical(back); got != canon {
			t.Fatalf("JSON round trip changed the canonical text (err %v):\n%s\nwant\n%s", err, got, canon)
		}
		if req.Scenario == nil {
			return
		}
		cfg, err := req.SystemConfig()
		if err != nil {
			t.Fatal(err)
		}
		ns, err := req.Scenario.Normalized(cfg.Precision)
		if err != nil {
			t.Fatalf("accepted scenario does not normalize: %v", err)
		}
		req.Scenario = &ns
		if got, err := Canonical(req); got != canon {
			t.Fatalf("normalizing the scenario changed the canonical text (err %v):\n%s\nwant\n%s", err, got, canon)
		}
	})
}
