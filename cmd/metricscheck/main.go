// Command metricscheck validates a Prometheus text-exposition page read from
// stdin: HELP/TYPE ordering, label syntax and escaping round-trips, and
// histogram invariants (ascending le, cumulative buckets, +Inf == _count),
// and no negative count (counter samples, histogram _bucket and _count).
// CI pipes /metrics responses through it so a malformed page fails the build
// instead of silently breaking scrapes.
//
// Usage:
//
//	curl -s localhost:8077/metrics | metricscheck -require wfserve_build_info,wfserve_campaign_seconds
//
// -require names metric families (comma-separated) that must be present;
// for a histogram family the name matches its _bucket/_sum/_count samples.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/obs"
)

func main() {
	require := flag.String("require", "", "comma-separated metric family names that must appear")
	flag.Parse()

	exp, err := obs.ValidateExposition(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "metricscheck: %v\n", err)
		os.Exit(1)
	}
	missing := []string{}
	for _, name := range strings.Split(*require, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		// Histogram samples carry _bucket/_sum/_count suffixes, so presence
		// means "declared as a family" or "has a sample under the bare name".
		if exp.Types[name] == "" && len(exp.Find(name)) == 0 {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "metricscheck: required metric families missing: %s\n", strings.Join(missing, ", "))
		os.Exit(1)
	}
	fmt.Printf("metricscheck: ok (%d samples, %d typed families)\n", len(exp.Samples), len(exp.Types))
}
