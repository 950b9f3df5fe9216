package metrics

import (
	"strings"
	"sync"
	"testing"
)

// sampleMap flattens Samples into name{labels} → value.
func sampleMap(r *Registry) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range r.Samples() {
		out[s.Name+"{"+s.Labels+"}"] = s.Value
	}
	return out
}

func TestChildSeriesSumIntoParent(t *testing.T) {
	p := NewRegistry()
	p.Counter("hops_total", "hops", "node", "0").Add(5)
	a, b := p.Child(), p.Child()
	a.Counter("hops_total", "hops", "node", "0").Add(2)
	b.Counter("hops_total", "hops", "node", "0").Add(3)
	b.Counter("hops_total", "hops", "node", "1").Add(7)
	a.Gauge("depth", "queue depth", "node", "0").Set(4)
	b.Gauge("depth", "queue depth", "node", "0").Set(1)
	ha := a.Histogram("hop_ns", "hop", []int64{10, 100}, "node", "0")
	hb := b.Histogram("hop_ns", "hop", []int64{10, 100}, "node", "0")
	ha.Observe(5)
	hb.Observe(50)
	hb.Observe(500)

	got := sampleMap(p)
	want := map[string]int64{
		`hops_total{node="0"}`:   10,
		`hops_total{node="1"}`:   7,
		`depth{node="0"}`:        5,
		`hop_ns_count{node="0"}`: 3,
		`hop_ns_sum{node="0"}`:   555,
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("Samples %s = %d, want %d", k, got[k], w)
		}
	}
	// A child reads back only its own series.
	if v := sampleMap(a)[`hops_total{node="0"}`]; v != 2 {
		t.Errorf("child a hops_total = %d, want 2", v)
	}

	var sb strings.Builder
	if err := p.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, line := range []string{"# TYPE hops_total counter", "# HELP hops_total hops", "# TYPE hop_ns histogram"} {
		if n := strings.Count(text, line+"\n"); n != 1 {
			t.Errorf("%q appears %d times, want once per family:\n%s", line, n, text)
		}
	}
	vals := parseExposition(t, text)
	for k, w := range map[string]int64{
		`hops_total{node="0"}`:              10,
		`hop_ns_bucket{node="0",le="10"}`:   1,
		`hop_ns_bucket{node="0",le="100"}`:  2,
		`hop_ns_bucket{node="0",le="+Inf"}`: 3,
		`hop_ns_count{node="0"}`:            3,
	} {
		if vals[k] != w {
			t.Errorf("exposition %s = %d, want %d", k, vals[k], w)
		}
	}
}

func TestChildCloseFoldsCountersAndDropsGauges(t *testing.T) {
	p := NewRegistry()
	c := p.Child()
	c.Counter("frames_total", "frames", "node", "0").Add(4)
	c.Counter("failures_total", "failures", "node", "0") // stays zero
	c.Histogram("wait_ns", "wait", []int64{10}, "node", "0").Observe(20)
	c.Gauge("depth", "queue depth", "node", "0").Set(3)

	before := sampleMap(p)
	c.Close()
	after := sampleMap(p)
	for k, v := range before {
		if strings.HasPrefix(k, "depth") {
			continue
		}
		if after[k] != v {
			t.Errorf("%s = %d after the fold, %d before", k, after[k], v)
		}
	}
	if _, ok := after[`failures_total{node="0"}`]; !ok {
		t.Error("zero-valued counter vanished in the fold; readers that require the family would break")
	}
	if _, ok := after[`depth{node="0"}`]; ok {
		t.Error("gauge of a closed child still exposed")
	}
	c.Close() // idempotent: a second fold would double the counts
	if got := sampleMap(p)[`frames_total{node="0"}`]; got != 4 {
		t.Errorf("frames_total = %d after a second Close, want 4", got)
	}

	// A later child with the same series keeps the total climbing.
	d := p.Child()
	d.Counter("frames_total", "frames", "node", "0").Add(1)
	if got := sampleMap(p)[`frames_total{node="0"}`]; got != 5 {
		t.Errorf("frames_total = %d with a new child, want 5", got)
	}
}

func TestChildHistogramBoundsMustMatch(t *testing.T) {
	p := NewRegistry()
	p.Histogram("h_ns", "", []int64{10, 100})
	c := p.Child()
	c.Histogram("h_ns", "", []int64{10, 1000})
	defer func() {
		if recover() == nil {
			t.Error("folding a histogram with different bounds: want panic")
		}
	}()
	c.Close()
}

// TestChildCloseConcurrentWithSamples runs folds against expositions: under
// -race it proves the lock order, and every reading of the parent must stay
// monotonic — a fold is seen wholly in the child or wholly in the parent.
func TestChildCloseConcurrentWithSamples(t *testing.T) {
	p := NewRegistry()
	const children = 50
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := sampleMap(p)[`n_total{node="0"}`]
			if v < last {
				t.Errorf("n_total went backwards: %d → %d", last, v)
				return
			}
			last = v
		}
	}()
	for i := 0; i < children; i++ {
		c := p.Child()
		c.Counter("n_total", "", "node", "0").Add(2)
		c.Gauge("g", "", "node", "0").Set(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Close()
		}()
	}
	close(stop)
	wg.Wait()
	if got := sampleMap(p)[`n_total{node="0"}`]; got != 2*children {
		t.Errorf("n_total = %d after every fold, want %d", got, 2*children)
	}
}
