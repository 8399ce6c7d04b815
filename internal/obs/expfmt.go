package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4): "# HELP" and "# TYPE" comment lines
// followed by the samples. Histograms expose cumulative _bucket series
// with "le" labels plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error { return r.writeText(w, false) }

// WriteOpenMetrics renders the registry in the OpenMetrics 1.0 text
// format. It differs from WritePrometheus in the points Prometheus'
// scraper cares about: counters named *_total expose their family name
// without the suffix, histogram buckets carry exemplars ("# {...}"
// suffixes) linking tail buckets to trace/span IDs, and the exposition
// ends with "# EOF".
func (r *Registry) WriteOpenMetrics(w io.Writer) error { return r.writeText(w, true) }

// writeText is the one text renderer behind both exposition formats.
func (r *Registry) writeText(w io.Writer, openMetrics bool) error {
	var err error
	pr := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	r.each(func(m metric, help string) {
		name, sample := m.Name(), m.Name()
		if _, ok := m.(*Counter); ok && openMetrics {
			name = strings.TrimSuffix(name, "_total")
			sample = name + "_total"
		}
		if help != "" {
			pr("# HELP %s %s\n", name, escapeHelp(help))
		}
		switch m := m.(type) {
		case *Counter:
			pr("# TYPE %s counter\n%s %d\n", name, sample, m.Value())
		case *Gauge:
			pr("# TYPE %s gauge\n%s %d\n", name, name, m.Value())
		case *Histogram:
			pr("# TYPE %s histogram\n", name)
			cum := uint64(0)
			for i := range m.counts {
				cum += m.counts[i].Load()
				le, ex := "+Inf", ""
				if i < len(m.bounds) {
					le = formatFloat(m.bounds[i])
				}
				if openMetrics {
					ex = exemplarSuffix(m.Exemplar(i))
				}
				pr("%s_bucket{le=%q} %d%s\n", name, le, cum, ex)
			}
			pr("%s_sum %s\n%s_count %d\n", name, formatFloat(m.Sum()), name, m.Count())
		}
	})
	if openMetrics {
		pr("# EOF\n")
	}
	return err
}

// exemplarSuffix renders one bucket's exemplar in OpenMetrics syntax:
// ` # {trace_id="...",span_id="..."} value timestamp`, or "" when the
// bucket has none.
func exemplarSuffix(e *Exemplar) string {
	if e == nil {
		return ""
	}
	ts := float64(e.UnixNano) / 1e9
	return fmt.Sprintf(" # {trace_id=\"%d\",span_id=\"%d\"} %s %s",
		e.TraceID, e.SpanID, formatFloat(e.Value), strconv.FormatFloat(ts, 'f', 3, 64))
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Snapshot returns an expvar-style view of the registry: metric name to
// value. Counters and gauges map to numbers; histograms map to an object
// with per-bound counts, sum, and count.
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any)
	r.each(func(m metric, _ string) {
		switch m := m.(type) {
		case *Counter:
			out[m.Name()] = m.Value()
		case *Gauge:
			out[m.Name()] = m.Value()
		case *Histogram:
			buckets := make(map[string]uint64, len(m.bounds)+1)
			cum := uint64(0)
			for i, b := range m.bounds {
				cum += m.counts[i].Load()
				buckets[formatFloat(b)] = cum
			}
			cum += m.counts[len(m.bounds)].Load()
			buckets["+Inf"] = cum
			out[m.Name()] = map[string]any{
				"buckets": buckets,
				"sum":     m.Sum(),
				"count":   m.Count(),
			}
		}
	})
	return out
}
