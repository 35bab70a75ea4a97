package obs

import (
	"fmt"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzExposition: a page that the writers emit with an arbitrary label
// value — a tenant gauge line as the service writes it, and the tenant
// queue-wait histogram of Metrics beside a second tenant's — validates and
// reads every sample's value back exactly when the value is valid UTF-8, and
// fails validation when it is not, as the text format requires.
func FuzzExposition(f *testing.F) {
	f.Fuzz(func(t *testing.T, v string) {
		if len(v) > 4096 {
			return // far beyond any label; keeps each input cheap
		}
		m := NewMetrics()
		m.ObserveQueueWait(v, 0.25)
		m.ObserveQueueWait("other", 3)
		var b strings.Builder
		b.WriteString("# HELP fz_queue_depth Queued campaigns per tenant.\n# TYPE fz_queue_depth gauge\n")
		fmt.Fprintf(&b, "fz_queue_depth{tenant=\"%s\"} 2\n", EscapeLabel(v))
		m.Write(&b)
		page := b.String()
		exp, err := ValidateExposition(strings.NewReader(page))
		if !utf8.ValidString(v) {
			if err == nil {
				t.Fatalf("label value %q is not UTF-8, yet the page validated:\n%s", v, page)
			}
			return
		}
		if err != nil {
			t.Fatalf("label value %q: %v\n%s", v, err, page)
		}
		seen := false
		for _, s := range exp.Samples {
			got, ok := s.Labels["tenant"]
			if ok && got != v && got != "other" {
				t.Fatalf("label value %q read back as %q", v, got)
			}
			seen = seen || ok && got == v
		}
		if !seen {
			t.Fatalf("no sample carries label value %q:\n%s", v, page)
		}
	})
}
