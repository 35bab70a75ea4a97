package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// EscapeLabel escapes a label value per the Prometheus text exposition
// format: backslash, double quote and newline are escaped; every other byte
// — including non-ASCII — passes through verbatim. This intentionally
// differs from Go's %q, which also escapes non-printable and non-ASCII runes
// and so produces values Prometheus would read back differently. It works
// byte by byte: the three escaped bytes never occur inside a multi-byte
// UTF-8 sequence, and a value that is not valid UTF-8 keeps its bytes, so
// that ValidateExposition can reject it rather than read back U+FFFD.
func EscapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 4)
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// UnescapeLabel reverses EscapeLabel. It reports an error on a dangling or
// unknown escape so the validity parser can reject malformed exposition.
func UnescapeLabel(v string) (string, error) {
	if !strings.Contains(v, `\`) {
		return v, nil
	}
	var b strings.Builder
	b.Grow(len(v))
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		i++
		if i >= len(v) {
			return "", fmt.Errorf("dangling backslash in label value %q", v)
		}
		switch v[i] {
		case '\\':
			b.WriteByte('\\')
		case '"':
			b.WriteByte('"')
		case 'n':
			b.WriteByte('\n')
		default:
			return "", fmt.Errorf("unknown escape \\%c in label value %q", v[i], v)
		}
	}
	return b.String(), nil
}

// Sample is one parsed exposition sample line.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Exposition is the parsed form of a /metrics payload.
type Exposition struct {
	// Types maps metric family name to its declared TYPE.
	Types map[string]string
	// Samples holds every sample line in order.
	Samples []Sample
}

// Find returns the samples whose metric name matches exactly.
func (e *Exposition) Find(name string) []Sample {
	var out []Sample
	for _, s := range e.Samples {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// ValidateExposition strictly parses a Prometheus text-format payload and
// checks the structural invariants the scraper relies on:
//
//   - every non-comment line is `name{labels} value` with a parseable value;
//   - `# HELP` and `# TYPE` for a family precede its samples, at most once each;
//   - sample names belong to a declared family (histogram samples may use the
//     _bucket/_sum/_count suffixes of a histogram family);
//   - label values are valid UTF-8, as the text format requires, and
//     survive a round-trip through the escaper;
//   - histogram bucket counts are cumulative per label set, the +Inf bucket is
//     present, and it equals the family's _count;
//   - no count is negative: counter samples and histogram _bucket and _count
//     samples (a histogram's _sum and a gauge may be).
//
// It returns the parsed exposition so tests can make further assertions.
func ValidateExposition(r io.Reader) (*Exposition, error) {
	exp := &Exposition{Types: map[string]string{}}
	help := map[string]bool{}
	seenSample := map[string]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	ln := 0
	for sc.Scan() {
		ln++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, name, err := parseComment(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", ln, err)
			}
			if kind == "" { // plain comment
				continue
			}
			if seenSample[name] {
				return nil, fmt.Errorf("line %d: # %s %s after samples for the family", ln, kind, name)
			}
			switch kind {
			case "HELP":
				if help[name] {
					return nil, fmt.Errorf("line %d: duplicate # HELP %s", ln, name)
				}
				help[name] = true
			case "TYPE":
				if _, dup := exp.Types[name]; dup {
					return nil, fmt.Errorf("line %d: duplicate # TYPE %s", ln, name)
				}
				fields := strings.Fields(line)
				exp.Types[name] = fields[3]
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln, err)
		}
		fam := familyOf(s.Name, exp.Types)
		if _, ok := exp.Types[fam]; !ok {
			return nil, fmt.Errorf("line %d: sample %s has no preceding # TYPE", ln, s.Name)
		}
		if !help[fam] {
			return nil, fmt.Errorf("line %d: sample %s has no preceding # HELP", ln, s.Name)
		}
		if s.Value < 0 && countsUp(s.Name, fam, exp.Types[fam]) {
			return nil, fmt.Errorf("line %d: %s sample %s is negative (%v)", ln, exp.Types[fam], s.Name, s.Value)
		}
		seenSample[fam] = true
		exp.Samples = append(exp.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := checkHistograms(exp); err != nil {
		return nil, err
	}
	return exp, nil
}

// countsUp reports whether sample name of family fam (of type typ) is a
// count, which can never be negative: a counter's samples and a
// histogram's _bucket and _count samples.
func countsUp(name, fam, typ string) bool {
	switch typ {
	case "counter":
		return true
	case "histogram":
		return name == fam+"_bucket" || name == fam+"_count"
	}
	return false
}

// parseComment handles `# HELP name ...` / `# TYPE name kind` lines.
func parseComment(line string) (kind, name string, err error) {
	fields := strings.Fields(line)
	if len(fields) < 2 || (fields[1] != "HELP" && fields[1] != "TYPE") {
		return "", "", nil
	}
	if len(fields) < 3 {
		return "", "", fmt.Errorf("malformed %s comment: %q", fields[1], line)
	}
	if fields[1] == "TYPE" {
		if len(fields) != 4 {
			return "", "", fmt.Errorf("malformed TYPE comment: %q", line)
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return "", "", fmt.Errorf("unknown metric type %q", fields[3])
		}
	}
	return fields[1], fields[2], nil
}

// familyOf strips histogram sample suffixes when the base name is a declared
// histogram family.
func familyOf(name string, types map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name && types[base] == "histogram" {
			return base
		}
	}
	return name
}

// parseSample parses one `name{labels} value` line.
func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return s, fmt.Errorf("malformed sample line %q", line)
	}
	s.Name = line[:i]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest := line[i:]
	if rest[0] == '{' {
		end, err := parseLabels(rest, s.Labels)
		if err != nil {
			return s, err
		}
		rest = rest[end:]
	}
	rest = strings.TrimLeft(rest, " ")
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // optional timestamp
		return s, fmt.Errorf("malformed value in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad sample value %q: %w", fields[0], err)
	}
	s.Value = v
	return s, nil
}

// parseLabels parses `{k="v",...}` starting at rest[0] == '{' and returns the
// index one past the closing brace.
func parseLabels(rest string, into map[string]string) (int, error) {
	i := 1
	for {
		if i >= len(rest) {
			return 0, fmt.Errorf("unterminated label set in %q", rest)
		}
		if rest[i] == '}' {
			return i + 1, nil
		}
		eq := strings.IndexByte(rest[i:], '=')
		if eq < 0 {
			return 0, fmt.Errorf("malformed label set in %q", rest)
		}
		key := rest[i : i+eq]
		if !validLabelName(key) {
			return 0, fmt.Errorf("invalid label name %q", key)
		}
		i += eq + 1
		if i >= len(rest) || rest[i] != '"' {
			return 0, fmt.Errorf("unquoted label value in %q", rest)
		}
		i++
		start := i
		for i < len(rest) && rest[i] != '"' {
			if rest[i] == '\\' {
				i++
			}
			i++
		}
		if i >= len(rest) {
			return 0, fmt.Errorf("unterminated label value in %q", rest)
		}
		raw := rest[start:i]
		val, err := UnescapeLabel(raw)
		if err != nil {
			return 0, err
		}
		if !utf8.ValidString(val) {
			return 0, fmt.Errorf("label value %q is not valid UTF-8", raw)
		}
		if EscapeLabel(val) != raw {
			return 0, fmt.Errorf("label value %q does not round-trip the escaper", raw)
		}
		if _, dup := into[key]; dup {
			return 0, fmt.Errorf("duplicate label %q", key)
		}
		into[key] = val
		i++
		if i < len(rest) && rest[i] == ',' {
			i++
		}
	}
}

func validMetricName(s string) bool {
	for i, r := range s {
		ok := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return len(s) > 0
}

func validLabelName(s string) bool {
	for i, r := range s {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return len(s) > 0 && !strings.HasPrefix(s, "__")
}

// checkHistograms verifies cumulative buckets and +Inf == _count for every
// declared histogram family, per label set.
func checkHistograms(exp *Exposition) error {
	for fam, typ := range exp.Types {
		if typ != "histogram" {
			continue
		}
		type series struct {
			les    []float64
			counts []float64
			count  float64
			hasCnt bool
		}
		bySet := map[string]*series{}
		key := func(labels map[string]string) string {
			ks := make([]string, 0, len(labels))
			for k := range labels {
				if k != "le" {
					ks = append(ks, k)
				}
			}
			sort.Strings(ks)
			var b strings.Builder
			for _, k := range ks {
				fmt.Fprintf(&b, "%s=%q,", k, labels[k])
			}
			return b.String()
		}
		for _, s := range exp.Samples {
			ser := bySet[key(s.Labels)]
			if ser == nil {
				ser = &series{}
				bySet[key(s.Labels)] = ser
			}
			switch s.Name {
			case fam + "_bucket":
				raw, ok := s.Labels["le"]
				if !ok {
					return fmt.Errorf("%s_bucket sample missing le label", fam)
				}
				le := math.Inf(1)
				if raw != "+Inf" {
					v, err := strconv.ParseFloat(raw, 64)
					if err != nil {
						return fmt.Errorf("%s_bucket: bad le %q", fam, raw)
					}
					le = v
				}
				ser.les = append(ser.les, le)
				ser.counts = append(ser.counts, s.Value)
			case fam + "_count":
				ser.count = s.Value
				ser.hasCnt = true
			}
		}
		for set, ser := range bySet {
			if len(ser.les) == 0 {
				continue
			}
			for i := 1; i < len(ser.les); i++ {
				if ser.les[i] <= ser.les[i-1] {
					return fmt.Errorf("%s{%s}: bucket le values not ascending", fam, set)
				}
				if ser.counts[i] < ser.counts[i-1] {
					return fmt.Errorf("%s{%s}: bucket counts not cumulative", fam, set)
				}
			}
			if !math.IsInf(ser.les[len(ser.les)-1], 1) {
				return fmt.Errorf("%s{%s}: missing +Inf bucket", fam, set)
			}
			if !ser.hasCnt {
				return fmt.Errorf("%s{%s}: missing _count", fam, set)
			}
			if ser.counts[len(ser.counts)-1] != ser.count {
				return fmt.Errorf("%s{%s}: +Inf bucket %v != _count %v", fam, set, ser.counts[len(ser.counts)-1], ser.count)
			}
		}
	}
	return nil
}

// WriteBuildInfo emits <prefix>_build_info (constant 1 with version and
// goversion labels from the embedded build info) and <prefix>_uptime_seconds
// since start.
func WriteBuildInfo(w io.Writer, prefix string, start time.Time) {
	version := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
			version = bi.Main.Version
		} else {
			version = "devel"
			for _, s := range bi.Settings {
				if s.Key == "vcs.revision" && len(s.Value) >= 12 {
					version = s.Value[:12]
				}
			}
		}
	}
	fmt.Fprintf(w, "# HELP %s_build_info Build metadata; the metric value is always 1.\n", prefix)
	fmt.Fprintf(w, "# TYPE %s_build_info gauge\n", prefix)
	fmt.Fprintf(w, "%s_build_info{version=\"%s\",goversion=\"%s\"} 1\n", prefix, EscapeLabel(version), EscapeLabel(runtime.Version()))
	fmt.Fprintf(w, "# HELP %s_uptime_seconds Seconds since the process started.\n", prefix)
	fmt.Fprintf(w, "# TYPE %s_uptime_seconds gauge\n", prefix)
	fmt.Fprintf(w, "%s_uptime_seconds %s\n", prefix, formatSample(time.Since(start).Seconds()))
}

// WriteRuntimeMetrics emits a small set of Go runtime gauges under prefix.
func WriteRuntimeMetrics(w io.Writer, prefix string) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	g := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s_%s %s\n", prefix, name, help)
		fmt.Fprintf(w, "# TYPE %s_%s gauge\n", prefix, name)
		fmt.Fprintf(w, "%s_%s %s\n", prefix, name, formatSample(v))
	}
	g("go_goroutines", "Number of live goroutines.", float64(runtime.NumGoroutine()))
	g("go_heap_alloc_bytes", "Bytes of allocated heap objects.", float64(ms.HeapAlloc))
	g("go_heap_sys_bytes", "Bytes of heap obtained from the OS.", float64(ms.HeapSys))
	g("go_gc_runs", "Completed GC cycles.", float64(ms.NumGC))
}
