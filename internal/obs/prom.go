package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Prom writes the Prometheus text exposition format (version 0.0.4 —
// the format every Prometheus scraper accepts). It is deliberately a
// writer over an existing stats snapshot, not an instrumentation
// library: internal/serve builds its /metrics pages from the same
// Stats structs its JSON /stats endpoints serialize, so the two
// surfaces cannot report different numbers.
type Prom struct {
	w   io.Writer
	err error
}

// NewProm wraps w.
func NewProm(w io.Writer) *Prom { return &Prom{w: w} }

// Err reports the first write error (the handlers ignore it — a
// half-written scrape is the client's problem — but tests check it).
func (p *Prom) Err() error { return p.err }

func (p *Prom) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func (p *Prom) head(name, typ, help string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter writes one unlabeled counter.
func (p *Prom) Counter(name, help string, v float64) {
	p.head(name, "counter", help)
	p.printf("%s %s\n", name, formatValue(v))
}

// Gauge writes one unlabeled gauge.
func (p *Prom) Gauge(name, help string, v float64) {
	p.head(name, "gauge", help)
	p.printf("%s %s\n", name, formatValue(v))
}

// HistogramUS writes a histogram whose buckets are microsecond upper
// bounds with per-bucket (non-cumulative) counts; the overflow count
// covers samples above the last bound. Bounds are converted to
// seconds — the Prometheus base unit — and counts are accumulated into
// the cumulative form the format requires, with the implicit +Inf
// bucket equal to the total count.
func (p *Prom) HistogramUS(name, help string, boundsUS []int64, counts []int64, overflow, count, sumUS int64) {
	p.head(name, "histogram", help)
	var cum int64
	for i, b := range boundsUS {
		if i < len(counts) {
			cum += counts[i]
		}
		p.printf("%s_bucket{le=\"%s\"} %d\n", name, formatValue(float64(b)/1e6), cum)
	}
	cum += overflow
	p.printf("%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	p.printf("%s_sum %s\n", name, formatValue(float64(sumUS)/1e6))
	p.printf("%s_count %d\n", name, count)
}
