package metrics

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// WritePrometheus writes every registered metric in the Prometheus text
// exposition format (version 0.0.4): a # HELP and # TYPE line per
// family, then one line per series, with histograms expanded into
// cumulative _bucket series plus _sum and _count. Series of r's open
// children are summed in, exactly as in Samples.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.view().order {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			labels := renderLabels(s.labels)
			switch inst := s.inst.(type) {
			case *Counter:
				writeSample(bw, f.name, labels, inst.Value())
			case *Gauge:
				writeSample(bw, f.name, labels, inst.Value())
			case *Histogram:
				writeHistogram(bw, f.name, labels, inst)
			}
		}
	}
	return bw.Flush()
}

// writeSample emits one `name{labels} value` line.
func writeSample(w io.Writer, name, labels string, v int64) {
	if labels == "" {
		fmt.Fprintf(w, "%s %d\n", name, v)
		return
	}
	fmt.Fprintf(w, "%s{%s} %d\n", name, labels, v)
}

// writeHistogram emits the cumulative bucket, sum and count series of
// one histogram.
func writeHistogram(w io.Writer, name, labels string, h *Histogram) {
	var cum int64
	for i, bound := range h.bounds {
		cum += h.buckets[i].Load()
		writeSample(w, name+"_bucket", joinLabels(labels, `le="`+strconv.FormatInt(bound, 10)+`"`), cum)
	}
	cum += h.buckets[len(h.bounds)].Load()
	writeSample(w, name+"_bucket", joinLabels(labels, `le="+Inf"`), cum)
	writeSample(w, name+"_sum", labels, h.Sum())
	writeSample(w, name+"_count", labels, cum)
}

// joinLabels appends the le label to an already-rendered label set.
func joinLabels(labels, le string) string {
	if labels == "" {
		return le
	}
	return labels + "," + le
}

// Handler returns an http.Handler serving the registry in Prometheus
// text format — mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
