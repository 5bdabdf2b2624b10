package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// PromWriter emits Prometheus text exposition format 0.0.4 — the subset a
// scrape target needs (# HELP, # TYPE, counter/gauge samples with optional
// labels) — using only the standard library. Families are buffered and
// written in registration order; samples within a family keep their
// emission order so labeled series stay stable across scrapes.
type PromWriter struct {
	families []*promFamily
	byName   map[string]*promFamily
}

type promFamily struct {
	name, help, typ string
	samples         []promSample
}

type promSample struct {
	labels string // pre-rendered {k="v",...} or ""
	value  string
}

// NewPromWriter returns an empty writer.
func NewPromWriter() *PromWriter {
	return &PromWriter{byName: make(map[string]*promFamily)}
}

func (p *PromWriter) family(name, help, typ string) *promFamily {
	f := p.byName[name]
	if f == nil {
		f = &promFamily{name: name, help: help, typ: typ}
		p.byName[name] = f
		p.families = append(p.families, f)
	}
	return f
}

// promEscaper escapes a label value per the exposition format. A Replacer
// is safe for concurrent use and costs kilobytes to build, so it is built
// once, not per label of every scrape.
var promEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

// promEscape escapes a label value per the exposition format.
func promEscape(v string) string { return promEscaper.Replace(v) }

// renderLabels renders a label map deterministically (sorted by key).
func renderLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, k, promEscape(labels[k]))
	}
	b.WriteByte('}')
	return b.String()
}

// Counter adds a counter sample; labels may be nil.
func (p *PromWriter) Counter(name, help string, labels map[string]string, value uint64) {
	f := p.family(name, help, "counter")
	f.samples = append(f.samples, promSample{
		labels: renderLabels(labels),
		value:  strconv.FormatUint(value, 10),
	})
}

// Gauge adds a gauge sample; labels may be nil.
func (p *PromWriter) Gauge(name, help string, labels map[string]string, value float64) {
	f := p.family(name, help, "gauge")
	f.samples = append(f.samples, promSample{
		labels: renderLabels(labels),
		value:  strconv.FormatFloat(value, 'g', -1, 64),
	})
}

// GaugeInt adds a gauge sample with an integral value.
func (p *PromWriter) GaugeInt(name, help string, labels map[string]string, value int64) {
	f := p.family(name, help, "gauge")
	f.samples = append(f.samples, promSample{
		labels: renderLabels(labels),
		value:  strconv.FormatInt(value, 10),
	})
}

// WriteTo renders the exposition document.
func (p *PromWriter) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	for _, f := range p.families {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, s := range f.samples {
			fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, s.value)
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// ContentTypePromText is the scrape response Content-Type for format 0.0.4.
const ContentTypePromText = "text/plain; version=0.0.4; charset=utf-8"
