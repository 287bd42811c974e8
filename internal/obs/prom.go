package obs

// Prometheus text exposition (format version 0.0.4) rendered straight from
// Snapshots, with no client library: pqd's /metrics endpoint feeds any
// Prometheus-compatible scraper from the same probe sets every other
// surface (ASCII tables, JSON) already reads.
//
// Mapping:
//
//   - a Counter becomes `<ns>_<set>_<name>_total`, TYPE counter;
//   - a duration Hist becomes `<ns>_<set>_<name>_seconds`, TYPE histogram,
//     with the log2 octave bands as cumulative `le` buckets (seconds) plus
//     `_sum`/`_count`, and a `<...>_seconds_max` gauge for the exact max;
//   - a count Hist becomes `<ns>_<set>_<name>`, TYPE histogram, with raw
//     band values as `le` bounds.
//
// Set and probe names are sanitized to the metric-name charset
// ([a-zA-Z0-9_]); the dots of "skipqueue.server"/"frames.insert" become
// underscores.

import (
	"fmt"
	"io"
	"strings"
)

// WriteProm writes every enabled snapshot to w in Prometheus text
// exposition format under the given namespace prefix (e.g. "pqd").
// Disabled snapshots are skipped. The output is deterministic for a fixed
// input, which is what the golden-file tests pin down.
func WriteProm(w io.Writer, namespace string, snaps ...Snapshot) {
	for _, s := range snaps {
		if !s.Enabled {
			continue
		}
		base := namespace + "_" + promName(s.Name)
		for _, c := range s.Counters {
			m := base + "_" + promName(c.Name) + "_total"
			fmt.Fprintf(w, "# HELP %s Monotone counter %q of set %q.\n", m, c.Name, s.Name)
			fmt.Fprintf(w, "# TYPE %s counter\n", m)
			fmt.Fprintf(w, "%s %d\n", m, c.Value)
		}
		for _, h := range s.Hists {
			writePromHist(w, base, s.Name, h)
		}
	}
}

// writePromHist renders one histogram summary as a Prometheus histogram:
// octave bands become cumulative buckets. Duration histograms convert
// nanoseconds to seconds, the Prometheus base unit.
func writePromHist(w io.Writer, base, set string, h HistValue) {
	dur := h.Unit == UnitDuration
	m := base + "_" + promName(h.Name)
	if dur {
		m += "_seconds"
	}
	fmt.Fprintf(w, "# HELP %s Histogram %q of set %q (log2 bands).\n", m, h.Name, set)
	fmt.Fprintf(w, "# TYPE %s histogram\n", m)
	var cum uint64
	for _, o := range h.Octaves {
		cum += o.Count
		// The band [Lo, 2·Lo) is cumulative below its upper bound; the
		// first band [0,2) has upper bound 2.
		upper := 2 * float64(o.Lo)
		if o.Lo == 0 {
			upper = 2
		}
		if dur {
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m, promFloat(upper/1e9), cum)
		} else {
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m, promFloat(upper), cum)
		}
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", m, h.Count)
	sum := float64(h.Mean) * float64(h.Count)
	if dur {
		sum /= 1e9
	}
	fmt.Fprintf(w, "%s_sum %s\n", m, promFloat(sum))
	fmt.Fprintf(w, "%s_count %d\n", m, h.Count)
	mx := float64(h.Max)
	if dur {
		mx /= 1e9
	}
	fmt.Fprintf(w, "# TYPE %s_max gauge\n", m)
	fmt.Fprintf(w, "%s_max %s\n", m, promFloat(mx))
}

// WritePromRates writes per-second rate gauges for every counter of the
// window snapshot delta (see Snapshot.Delta), under `<ns>_<set>_<name>_rate`.
// seconds is the window length; non-positive windows write nothing. This is
// the admin surface's convenience view for humans curling /metrics —
// Prometheus itself rates the `_total` counters.
func WritePromRates(w io.Writer, namespace string, delta Snapshot, seconds float64) {
	if seconds <= 0 || !delta.Enabled {
		return
	}
	base := namespace + "_" + promName(delta.Name)
	for _, c := range delta.Counters {
		m := base + "_" + promName(c.Name) + "_rate"
		fmt.Fprintf(w, "# TYPE %s gauge\n", m)
		fmt.Fprintf(w, "%s %s\n", m, promFloat(float64(c.Value)/seconds))
	}
}

// promName maps an arbitrary probe/set name into the Prometheus metric
// name charset.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat formats a float the exposition-format way: plain decimal, no
// exponent for the magnitudes these metrics produce, trailing zeros
// trimmed.
func promFloat(v float64) string {
	s := fmt.Sprintf("%.9f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimSuffix(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}
