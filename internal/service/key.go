// Package service is the campaign service layer of the reproduction: a
// bounded job queue in front of the faultsim engine, a content-addressed
// result cache keyed by the canonical campaign request, and an HTTP+JSON
// surface (cmd/wfserve) with a thin client in the winofault facade.
//
// Determinism is what makes the cache sound: PR 1's scheduler guarantees
// bit-identical results for any worker count, so a campaign's identity is
// exactly the content of its request — never who ran it, when, or with how
// many workers. See DESIGN.md "Service layer".
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	winofault "repro"
)

// keySchema versions the canonical serialization; bump it whenever the
// canonical string changes meaning so stale persisted entries can never be
// served for a request they no longer describe.
const keySchema = "wfcampaign/v1"

// canonicalFloat renders a float64 in its shortest round-trip form, so every
// textual spelling of the same value ("1e-9", "0.000000001") canonicalizes
// identically. NaN and infinities are rejected before this is called.
func canonicalFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Canonical returns the canonical serialization of a campaign request: the
// platform defaults applied, enums validated, every float in shortest
// round-trip form, protection entries sorted by layer name, and the
// scheduling-only Workers, DeltaExec and Backend fields dropped (results are
// bit-identical for any worker count, with delta execution on or off, and
// under every compute backend). Two requests describe the same campaign if
// and only if their canonical strings are equal.
func Canonical(req winofault.CampaignRequest) (string, error) {
	cfg, err := req.SystemConfig()
	if err != nil {
		return "", err
	}
	if len(req.BERs) == 0 {
		return "", fmt.Errorf("service: request has no BERs")
	}
	for _, ber := range req.BERs {
		if math.IsNaN(ber) || math.IsInf(ber, 0) {
			return "", fmt.Errorf("service: BER %v is not finite", ber)
		}
	}
	// Hardware-located scenarios: validate and canonicalize up front. The
	// scenario lines are appended at the very end of the canonical string,
	// so requests without one keep byte-identical wfcampaign/v1 keys.
	var scenario *winofault.Scenario
	if req.Scenario != nil {
		for _, ber := range req.BERs {
			if ber <= 0 {
				return "", fmt.Errorf("service: scenario campaigns need positive BERs, got %v", ber)
			}
		}
		ns, err := req.Scenario.Normalized(cfg.Precision)
		if err != nil {
			return "", err
		}
		scenario = &ns
	}
	// A request spelling a default explicitly is the same campaign as one
	// omitting it: the numeric defaults come from cfg, which SystemConfig
	// normalized exactly as New does, and the enum spellings default here.
	if req.Engine == "" {
		req.Engine = "direct"
	}
	if req.Precision == "" {
		req.Precision = "int16"
	}
	if req.Semantics == "" {
		req.Semantics = "result"
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", keySchema)
	fmt.Fprintf(&b, "model=%s\n", cfg.Model)
	fmt.Fprintf(&b, "engine=%s\n", req.Engine)
	fmt.Fprintf(&b, "precision=%s\n", req.Precision)
	fmt.Fprintf(&b, "semantics=%s\n", req.Semantics)
	fmt.Fprintf(&b, "widthmult=%s\n", canonicalFloat(cfg.WidthMult))
	fmt.Fprintf(&b, "inputsize=%d\n", cfg.InputSize)
	fmt.Fprintf(&b, "samples=%d\n", cfg.Samples)
	fmt.Fprintf(&b, "rounds=%d\n", cfg.Rounds)
	fmt.Fprintf(&b, "seed=%d\n", cfg.Seed)
	fmt.Fprintf(&b, "tilef4=%t\n", cfg.TileF4)
	bers := make([]string, len(req.BERs))
	for i, ber := range req.BERs {
		bers[i] = canonicalFloat(ber)
	}
	// Sweep order is part of the result (points come back in request
	// order), so BERs keep their order in the key.
	fmt.Fprintf(&b, "bers=%s\n", strings.Join(bers, ","))
	fmt.Fprintf(&b, "layers=%t\n", req.Layers)
	names := make([]string, 0, len(req.Protection))
	for name, fr := range req.Protection {
		if fr == ([2]float64{}) {
			continue // no protection at all: same campaign as an absent entry
		}
		if strings.ContainsAny(name, "\n|:") {
			return "", fmt.Errorf("service: protection layer name %q contains reserved characters", name)
		}
		if math.IsNaN(fr[0]) || math.IsInf(fr[0], 0) || math.IsNaN(fr[1]) || math.IsInf(fr[1], 0) {
			return "", fmt.Errorf("service: protection fractions for %q are not finite", name)
		}
		if fr[0] < 0 || fr[0] > 1 || fr[1] < 0 || fr[1] > 1 {
			return "", fmt.Errorf("service: protection fractions for %q out of [0,1]: %v", name, fr)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	prot := make([]string, len(names))
	for i, name := range names {
		fr := req.Protection[name]
		prot[i] = fmt.Sprintf("%s:%s,%s", name, canonicalFloat(fr[0]), canonicalFloat(fr[1]))
	}
	fmt.Fprintf(&b, "protection=%s\n", strings.Join(prot, "|"))
	if scenario != nil {
		fmt.Fprintf(&b, "scenario=%s\n", scenario.Kind)
		switch scenario.Kind {
		case "stuckpe":
			fmt.Fprintf(&b, "scenario.pe=%d,%d\n", scenario.Row, scenario.Col)
			fmt.Fprintf(&b, "scenario.bit=%d\n", scenario.Bit)
		case "burst":
			fmt.Fprintf(&b, "scenario.span=%d\n", scenario.Span)
		case "voltregion":
			fmt.Fprintf(&b, "scenario.region=%d,%d,%d,%d\n",
				scenario.Row0, scenario.Col0, scenario.Row1, scenario.Col1)
			fmt.Fprintf(&b, "scenario.v=%s\n", canonicalFloat(scenario.V))
		}
	}
	return b.String(), nil
}

// Key returns the content address of a campaign request: the SHA-256 of its
// canonical serialization, in hex. Identical campaigns — regardless of field
// spelling, JSON key order, map iteration order or worker count — share one
// key; any result-affecting difference changes it.
func Key(req winofault.CampaignRequest) (string, error) {
	canon, err := Canonical(req)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(canon))
	return hex.EncodeToString(sum[:]), nil
}
