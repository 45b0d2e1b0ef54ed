package httpwire

import (
	"fmt"
	"strings"

	"repro/internal/stats"
)

// Percentiles renders a histogram's headline quantiles in microseconds,
// the shape of every latency block in /stats.
func Percentiles(h stats.Histogram) map[string]any {
	return map[string]any{
		"count": h.Count(),
		"p50":   h.Quantile(0.50).Microseconds(),
		"p90":   h.Quantile(0.90).Microseconds(),
		"p99":   h.Quantile(0.99).Microseconds(),
		"p999":  h.Quantile(0.999).Microseconds(),
	}
}

// The writers below render Prometheus text exposition, version 0.0.4.

// bounds is the fixed bucket ladder (seconds) every exported latency
// histogram uses: two-per-decade from 10µs to 10s. The underlying
// log-linear histograms are finer (≤25% buckets), so re-bucketing onto
// this ladder loses at most one fine bucket per bound.
var bounds = []float64{
	10e-6, 50e-6, 100e-6, 500e-6,
	1e-3, 5e-3, 10e-3, 50e-3, 100e-3, 500e-3,
	1, 5, 10,
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Label renders a label value: quoted, with backslash, double quote and
// newline escaped, the only three escapes the exposition format defines.
func Label(v string) string {
	return `"` + labelEscaper.Replace(v) + `"`
}

// Header writes a metric family's HELP and TYPE lines; the caller writes
// its labelled samples.
func Header(b *strings.Builder, name, help, typ string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Counter writes an unlabelled counter.
func Counter(b *strings.Builder, name, help string, v uint64) {
	Header(b, name, help, "counter")
	fmt.Fprintf(b, "%s %d\n", name, v)
}

// Gauge writes an unlabelled gauge.
func Gauge(b *strings.Builder, name, help string, v float64) {
	Header(b, name, help, "gauge")
	fmt.Fprintf(b, "%s %g\n", name, v)
}

// Flag writes an unlabelled gauge that is 1 while on, 0 otherwise.
func Flag(b *strings.Builder, name, help string, on bool) {
	v := 0.0
	if on {
		v = 1
	}
	Gauge(b, name, help, v)
}

// Histogram writes one histogram: cumulative `le` buckets on the shared
// ladder, an approximate sum (samples priced at their fine bucket's upper
// edge, the same ≤25% convention as the /stats percentiles), and the
// exact count.
func Histogram(b *strings.Builder, name, help string, h stats.Histogram) {
	Header(b, name, help, "histogram")
	for _, le := range bounds {
		fmt.Fprintf(b, "%s_bucket{le=\"%g\"} %d\n", name, le, h.CumulativeLE(int64(le*1e9)))
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count())
	fmt.Fprintf(b, "%s_sum %g\n", name, h.ApproxSumNS()/1e9)
	fmt.Fprintf(b, "%s_count %d\n", name, h.Count())
}
