package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is a small Prometheus text-exposition parser — enough to
// lint /metrics output in CI without external dependencies, and to let
// cmd/loadgen read stage histograms at phase boundaries. It understands
// the 0.0.4 text format subset the Registry emits: # HELP / # TYPE
// comments, sample lines with optional labels, and histogram
// _bucket/_sum/_count triples.

// Sample is one parsed exposition line.
type Sample struct {
	// Name is the full sample name, including any _bucket/_sum/_count
	// suffix.
	Name   string
	Labels map[string]string
	Value  float64
}

// MetricFamily groups the samples of one declared family.
type MetricFamily struct {
	Name    string
	Help    string
	Type    string
	Samples []Sample
}

// Exposition is a parsed /metrics payload.
type Exposition struct {
	Families map[string]*MetricFamily
}

// ParseExposition parses and validates a Prometheus text exposition. It
// is strict: malformed lines, samples without a preceding # TYPE,
// duplicate series, and inconsistent histograms (non-cumulative buckets,
// missing +Inf, +Inf != _count) are errors.
func ParseExposition(data []byte) (*Exposition, error) {
	exp := &Exposition{Families: make(map[string]*MetricFamily)}
	seen := make(map[string]bool) // duplicate-series detection
	lines := strings.Split(string(data), "\n")
	for ln, line := range lines {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := exp.parseComment(line); err != nil {
				return nil, fmt.Errorf("line %d: %w", ln+1, err)
			}
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
		// Exact family name first, then with histogram suffixes stripped —
		// so a counter that happens to end in _count still resolves.
		fam := exp.Families[s.Name]
		if fam == nil || fam.Type == "" {
			fam = exp.Families[familyName(s.Name)]
		}
		if fam == nil || fam.Type == "" {
			return nil, fmt.Errorf("line %d: sample %s has no preceding # TYPE", ln+1, s.Name)
		}
		key := s.Name + "{" + canonicalLabelKey(s.Labels) + "}"
		if seen[key] {
			return nil, fmt.Errorf("line %d: duplicate series %s", ln+1, key)
		}
		seen[key] = true
		fam.Samples = append(fam.Samples, s)
	}
	for _, fam := range exp.Families {
		if fam.Type == "histogram" {
			if err := lintHistogram(fam); err != nil {
				return nil, fmt.Errorf("histogram %s: %w", fam.Name, err)
			}
		}
	}
	return exp, nil
}

func (e *Exposition) parseComment(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !metricNameRE.MatchString(fields[2]) {
			return fmt.Errorf("malformed HELP comment %q", line)
		}
		fam := e.family(fields[2])
		if len(fields) == 4 {
			fam.Help = fields[3]
		}
	case "TYPE":
		if len(fields) != 4 || !metricNameRE.MatchString(fields[2]) {
			return fmt.Errorf("malformed TYPE comment %q", line)
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", fields[3])
		}
		fam := e.family(fields[2])
		if fam.Type != "" {
			return fmt.Errorf("duplicate TYPE for %s", fields[2])
		}
		if len(fam.Samples) > 0 {
			return fmt.Errorf("TYPE for %s after its samples", fields[2])
		}
		fam.Type = fields[3]
	}
	return nil
}

func (e *Exposition) family(name string) *MetricFamily {
	fam, ok := e.Families[name]
	if !ok {
		fam = &MetricFamily{Name: name}
		e.Families[name] = fam
	}
	return fam
}

// familyName strips the histogram sample suffixes so _bucket/_sum/_count
// lines attach to their declared family.
func familyName(sample string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base := strings.TrimSuffix(sample, suffix); base != sample {
			return base
		}
	}
	return sample
}

// parseSampleLine parses `name{l1="v1",l2="v2"} value [timestamp]`.
func parseSampleLine(line string) (Sample, error) {
	s := Sample{}
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' {
		i++
	}
	s.Name = line[:i]
	if !metricNameRE.MatchString(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		end := findLabelEnd(rest)
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err := parseLabels(rest[1:end])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = rest[end+1:]
	}
	rest = strings.TrimSpace(rest)
	valueField := rest
	if sp := strings.IndexByte(rest, ' '); sp >= 0 {
		valueField = rest[:sp]
		ts := strings.TrimSpace(rest[sp+1:])
		if _, err := strconv.ParseInt(ts, 10, 64); err != nil {
			return s, fmt.Errorf("invalid timestamp %q", ts)
		}
	}
	v, err := parseValue(valueField)
	if err != nil {
		return s, err
	}
	s.Value = v
	return s, nil
}

// findLabelEnd locates the closing brace, honouring quoted values with
// escapes.
func findLabelEnd(rest string) int {
	inQuote := false
	for i := 1; i < len(rest); i++ {
		switch rest[i] {
		case '\\':
			if inQuote {
				i++
			}
		case '"':
			inQuote = !inQuote
		case '}':
			if !inQuote {
				return i
			}
		}
	}
	return -1
}

func parseLabels(body string) (map[string]string, error) {
	labels := make(map[string]string)
	i := 0
	for i < len(body) {
		eq := strings.IndexByte(body[i:], '=')
		if eq < 0 {
			return nil, fmt.Errorf("malformed label pair in %q", body)
		}
		name := strings.TrimSpace(body[i : i+eq])
		if !labelNameRE.MatchString(name) {
			return nil, fmt.Errorf("invalid label name %q", name)
		}
		i += eq + 1
		if i >= len(body) || body[i] != '"' {
			return nil, fmt.Errorf("unquoted label value for %q", name)
		}
		i++
		var val strings.Builder
		for i < len(body) && body[i] != '"' {
			if body[i] == '\\' && i+1 < len(body) {
				i++
				switch body[i] {
				case 'n':
					val.WriteByte('\n')
				case '\\', '"':
					val.WriteByte(body[i])
				default:
					return nil, fmt.Errorf("bad escape \\%c in label value", body[i])
				}
			} else {
				val.WriteByte(body[i])
			}
			i++
		}
		if i >= len(body) {
			return nil, fmt.Errorf("unterminated label value for %q", name)
		}
		i++ // closing quote
		if _, dup := labels[name]; dup {
			return nil, fmt.Errorf("duplicate label %q", name)
		}
		labels[name] = val.String()
		if i < len(body) {
			if body[i] != ',' {
				return nil, fmt.Errorf("expected ',' between labels in %q", body)
			}
			i++
		}
	}
	return labels, nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid sample value %q", s)
	}
	return v, nil
}

func canonicalLabelKey(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + labels[k]
	}
	return strings.Join(parts, ",")
}

// lintHistogram checks one histogram family: per label set (le
// excluded), buckets must be cumulative with ascending le bounds, end in
// +Inf, and agree with _count; _sum and _count must be present.
func lintHistogram(fam *MetricFamily) error {
	type hist struct {
		les   []float64
		cums  []float64
		sum   *float64
		count *float64
	}
	groups := make(map[string]*hist)
	group := func(labels map[string]string) *hist {
		filtered := make(map[string]string, len(labels))
		for k, v := range labels {
			if k != "le" {
				filtered[k] = v
			}
		}
		key := canonicalLabelKey(filtered)
		g, ok := groups[key]
		if !ok {
			g = &hist{}
			groups[key] = g
		}
		return g
	}
	for i := range fam.Samples {
		s := &fam.Samples[i]
		g := group(s.Labels)
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			leStr, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("bucket sample without le label")
			}
			le, err := parseValue(leStr)
			if err != nil {
				return fmt.Errorf("invalid le %q", leStr)
			}
			g.les = append(g.les, le)
			g.cums = append(g.cums, s.Value)
		case strings.HasSuffix(s.Name, "_sum"):
			v := s.Value
			g.sum = &v
		case strings.HasSuffix(s.Name, "_count"):
			v := s.Value
			g.count = &v
		default:
			return fmt.Errorf("unexpected sample %s in histogram family", s.Name)
		}
	}
	for key, g := range groups {
		if g.sum == nil || g.count == nil {
			return fmt.Errorf("series {%s}: missing _sum or _count", key)
		}
		if len(g.les) == 0 {
			return fmt.Errorf("series {%s}: no buckets", key)
		}
		for i := 1; i < len(g.les); i++ {
			if g.les[i] <= g.les[i-1] {
				return fmt.Errorf("series {%s}: le bounds not ascending", key)
			}
			if g.cums[i] < g.cums[i-1] {
				return fmt.Errorf("series {%s}: bucket counts not cumulative", key)
			}
		}
		last := len(g.les) - 1
		if !math.IsInf(g.les[last], 1) {
			return fmt.Errorf("series {%s}: missing +Inf bucket", key)
		}
		if g.cums[last] != *g.count {
			return fmt.Errorf("series {%s}: +Inf bucket %v != _count %v", key, g.cums[last], *g.count)
		}
	}
	return nil
}

// Value looks up one sample by full sample name and exact label set
// (order-insensitive). It returns false when absent.
func (e *Exposition) Value(name string, labels map[string]string) (float64, bool) {
	fam, ok := e.Families[name]
	if !ok || fam.Type == "" {
		fam, ok = e.Families[familyName(name)]
	}
	if !ok || fam == nil {
		return 0, false
	}
	want := canonicalLabelKey(labels)
	for _, s := range fam.Samples {
		if s.Name == name && canonicalLabelKey(s.Labels) == want {
			return s.Value, true
		}
	}
	return 0, false
}
