package ring

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"cyclojoin/internal/metrics"
)

// scrape renders the default registry in Prometheus text format and
// parses it back into name{labels} → value, failing the test on any
// malformed line — this is the same page cmd/roundabout serves at
// /metrics.
func scrape(t *testing.T) map[string]int64 {
	t.Helper()
	var b strings.Builder
	if err := metrics.Default().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64)
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment line %q", line)
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseInt(line[i+1:], 10, 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		key := line[:i]
		if _, dup := out[key]; dup {
			t.Fatalf("duplicate series %q in exposition", key)
		}
		out[key] = v
	}
	return out
}

// TestMetricsIncreaseAcrossRevolution runs a TCP-linked ring twice and
// checks that the /metrics exposition parses and that the hot-path
// counters are monotonically nondecreasing, with frame, byte and retire
// counters strictly increasing across each revolution.
func TestMetricsIncreaseAcrossRevolution(t *testing.T) {
	const nodes = 3
	r, _ := newRecorderRing(t, nodes, Config{BufferBytes: 1 << 16}, TCPLinks())
	frags := buildFrags(t, nodes, 300)

	before := scrape(t)
	for rev := 0; rev < 2; rev++ {
		if err := r.Run(perNode(frags)); err != nil {
			t.Fatal(err)
		}
		after := scrape(t)
		// Counters never move backwards.
		for key, v := range before {
			if strings.Contains(key, "_depth") {
				continue // gauges may legitimately fall back to zero
			}
			if after[key] < v {
				t.Errorf("revolution %d: %s went backwards: %d → %d", rev, key, v, after[key])
			}
		}
		// One revolution moves every fragment over every TCP link and
		// retires it somewhere: frames, bytes and retires must grow.
		strictly := []string{
			`tcplink_frames_total{dir="tx"}`,
			`tcplink_frames_total{dir="rx"}`,
			`tcplink_bytes_total{dir="tx"}`,
			`tcplink_completions_total`,
		}
		for i := 0; i < nodes; i++ {
			n := strconv.Itoa(i)
			strictly = append(strictly,
				`ring_bytes_in_total{node="`+n+`"}`,
				`ring_bytes_out_total{node="`+n+`"}`,
				`ring_fragments_processed_total{node="`+n+`"}`,
				`ring_fragments_retired_total{node="`+n+`"}`,
			)
		}
		for _, key := range strictly {
			if after[key] <= before[key] {
				t.Errorf("revolution %d: %s did not increase: %d → %d", rev, key, before[key], after[key])
			}
		}
		before = after
	}
}

// TestRingsDoNotShareCounters runs ring B while ring A, with the same node
// ids, sits idle in the same process: A's stats and health readings must
// not move. Every node instrument lives in its ring's own registry scope,
// so nothing keyed only by node id is shared between rings.
func TestRingsDoNotShareCounters(t *testing.T) {
	const nodes = 3
	a, _ := newRecorderRing(t, nodes, Config{}, nil)
	b, _ := newRecorderRing(t, nodes, Config{}, nil)
	statsBefore := a.Stats()
	healthBefore := a.HealthSnapshot(nil)

	frags := buildFrags(t, nodes, 300)
	for rev := 0; rev < 3; rev++ {
		if err := b.Run(perNode(frags)); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.Stats()[0].Processed; got == 0 {
		t.Fatal("ring B processed nothing; the test exercises nothing")
	}

	if got := a.Stats(); !reflect.DeepEqual(got, statsBefore) {
		t.Errorf("ring A stats moved while only ring B ran:\n got %+v\nwant %+v", got, statsBefore)
	}
	healthAfter := a.HealthSnapshot(nil)
	for i := range healthAfter {
		got, want := healthAfter[i], healthBefore[i]
		if !reflect.DeepEqual(got.HopCounts, want.HopCounts) {
			t.Errorf("ring A node %d HopCounts moved: %v → %v", i, want.HopCounts, got.HopCounts)
		}
		if got.Materializes != want.Materializes || got.QueueDepth != want.QueueDepth {
			t.Errorf("ring A node %d materializes/queue depth moved: %d/%d → %d/%d",
				i, want.Materializes, want.QueueDepth, got.Materializes, got.QueueDepth)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ring A node %d health moved:\n got %+v\nwant %+v", i, got, want)
		}
	}
}
