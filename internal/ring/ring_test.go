package ring

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cyclojoin/internal/relation"
	"cyclojoin/internal/testutil"
	"cyclojoin/internal/workload"
)

// recorder is a Processor that records which fragments it saw.
type recorder struct {
	mu    sync.Mutex
	seen  map[int]int // fragment index → times processed
	delay time.Duration
}

func newRecorder() *recorder { return &recorder{seen: map[int]int{}} }

func (r *recorder) Process(frag *relation.Fragment) error {
	if r.delay > 0 {
		time.Sleep(r.delay)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seen[frag.Index]++
	return nil
}

func (r *recorder) counts() map[int]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	cp := make(map[int]int, len(r.seen))
	for k, v := range r.seen {
		cp[k] = v
	}
	return cp
}

// buildFrags partitions a fresh relation into one fragment per node.
func buildFrags(t *testing.T, nodes, tuples int) []*relation.Fragment {
	t.Helper()
	rel := workload.Sequential("R", tuples, 4)
	frags, err := relation.Partition(rel, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return frags
}

func perNode(frags []*relation.Fragment) [][]*relation.Fragment {
	out := make([][]*relation.Fragment, len(frags))
	for i, f := range frags {
		out[i] = []*relation.Fragment{f}
	}
	return out
}

func newRecorderRing(t *testing.T, nodes int, cfg Config, links LinkFactory) (*Ring, []*recorder) {
	t.Helper()
	cfg.Nodes = nodes
	recs := make([]*recorder, nodes)
	procs := make([]Processor, nodes)
	for i := range recs {
		recs[i] = newRecorder()
		procs[i] = recs[i]
	}
	r, err := New(cfg, links, procs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = r.Close()
	})
	return r, recs
}

// TestOneRevolutionExactlyOnce is the core Data Roundabout invariant: after
// one Run, every node has processed every fragment exactly once (§IV-B:
// "After one revolution of R, all hosts have seen the full relation").
func TestOneRevolutionExactlyOnce(t *testing.T) {
	for _, nodes := range []int{1, 2, 3, 6} {
		t.Run(fmt.Sprintf("%dnodes", nodes), func(t *testing.T) {
			testutil.CheckNoLeaks(t)
			r, recs := newRecorderRing(t, nodes, Config{}, nil)
			frags := buildFrags(t, nodes, 600)
			if err := r.Run(perNode(frags)); err != nil {
				t.Fatal(err)
			}
			for n, rec := range recs {
				got := rec.counts()
				if len(got) != nodes {
					t.Errorf("node %d saw %d distinct fragments, want %d", n, len(got), nodes)
				}
				for idx, times := range got {
					if times != 1 {
						t.Errorf("node %d processed fragment %d %d times", n, idx, times)
					}
				}
			}
		})
	}
}

func TestMultipleFragmentsPerNode(t *testing.T) {
	const nodes, chunks = 3, 4
	r, recs := newRecorderRing(t, nodes, Config{BufferSlots: 2}, nil)
	rel := workload.Sequential("R", 240, 4)
	frags, err := relation.Partition(rel, nodes*chunks)
	if err != nil {
		t.Fatal(err)
	}
	assign := make([][]*relation.Fragment, nodes)
	for i, f := range frags {
		assign[i%nodes] = append(assign[i%nodes], f)
	}
	if err := r.Run(assign); err != nil {
		t.Fatal(err)
	}
	for n, rec := range recs {
		got := rec.counts()
		if len(got) != nodes*chunks {
			t.Errorf("node %d saw %d fragments, want %d", n, len(got), nodes*chunks)
		}
	}
}

// TestRunTwice: a ring is reusable across joins (ternary joins, setup
// reuse).
func TestRunTwice(t *testing.T) {
	testutil.CheckNoLeaks(t)
	r, recs := newRecorderRing(t, 3, Config{}, nil)
	frags := buildFrags(t, 3, 300)
	if err := r.Run(perNode(frags)); err != nil {
		t.Fatal(err)
	}
	if err := r.Run(perNode(frags)); err != nil {
		t.Fatal(err)
	}
	for n, rec := range recs {
		for idx, times := range rec.counts() {
			if times != 2 {
				t.Errorf("node %d fragment %d processed %d times, want 2", n, idx, times)
			}
		}
	}
}

func TestTCPLinksRing(t *testing.T) {
	testutil.CheckNoLeaks(t)
	r, recs := newRecorderRing(t, 3, Config{}, TCPLinks())
	frags := buildFrags(t, 3, 300)
	if err := r.Run(perNode(frags)); err != nil {
		t.Fatal(err)
	}
	for n, rec := range recs {
		if len(rec.counts()) != 3 {
			t.Errorf("node %d saw %d fragments", n, len(rec.counts()))
		}
	}
}

// TestSlowNodeBackpressure: one slow node must not lose or duplicate
// fragments; the ring buffers absorb the imbalance (§V-D).
func TestSlowNodeBackpressure(t *testing.T) {
	const nodes = 4
	recs := make([]*recorder, nodes)
	procs := make([]Processor, nodes)
	for i := range recs {
		recs[i] = newRecorder()
		if i == 1 {
			recs[i].delay = 3 * time.Millisecond
		}
		procs[i] = recs[i]
	}
	r, err := New(Config{Nodes: nodes, BufferSlots: 2}, nil, procs)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = r.Close()
	}()
	rel := workload.Sequential("R", 400, 4)
	frags, err := relation.Partition(rel, nodes*3)
	if err != nil {
		t.Fatal(err)
	}
	assign := make([][]*relation.Fragment, nodes)
	for i, f := range frags {
		assign[i%nodes] = append(assign[i%nodes], f)
	}
	if err := r.Run(assign); err != nil {
		t.Fatal(err)
	}
	for n, rec := range recs {
		got := rec.counts()
		if len(got) != len(frags) {
			t.Errorf("node %d saw %d fragments, want %d", n, len(got), len(frags))
		}
		for idx, times := range got {
			if times != 1 {
				t.Errorf("node %d fragment %d seen %d times", n, idx, times)
			}
		}
	}
}

func TestProcessorErrorAbortsRun(t *testing.T) {
	boom := errors.New("boom")
	procs := []Processor{
		ProcessorFunc(func(f *relation.Fragment) error { return nil }),
		ProcessorFunc(func(f *relation.Fragment) error { return boom }),
	}
	r, err := New(Config{Nodes: 2}, nil, procs)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = r.Close()
	}()
	frags := buildFrags(t, 2, 100)
	err = r.Run(perNode(frags))
	if err == nil {
		t.Fatal("Run with failing processor: want error")
	}
	if !errors.Is(err, boom) {
		t.Errorf("error chain lost: %v", err)
	}
}

func TestOversizedFragmentFailsCleanly(t *testing.T) {
	procs := []Processor{
		ProcessorFunc(func(f *relation.Fragment) error { return nil }),
		ProcessorFunc(func(f *relation.Fragment) error { return nil }),
	}
	r, err := New(Config{Nodes: 2, BufferBytes: 64}, nil, procs)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = r.Close()
	}()
	frags := buildFrags(t, 2, 1000) // far larger than 64-byte buffers
	if err := r.Run(perNode(frags)); err == nil {
		t.Fatal("oversized fragment: want error")
	}
}

func TestStatsAccounting(t *testing.T) {
	r, _ := newRecorderRing(t, 3, Config{}, nil)
	frags := buildFrags(t, 3, 300)
	if err := r.Run(perNode(frags)); err != nil {
		t.Fatal(err)
	}
	stats := r.Stats()
	if len(stats) != 3 {
		t.Fatalf("stats for %d nodes", len(stats))
	}
	totalRetired := 0
	for i, st := range stats {
		if st.Processed != 3 {
			t.Errorf("node %d processed %d, want 3", i, st.Processed)
		}
		if st.BytesIn == 0 || st.BytesOut == 0 {
			t.Errorf("node %d has no traffic: in=%d out=%d", i, st.BytesIn, st.BytesOut)
		}
		if st.RegisteredBytes == 0 {
			t.Errorf("node %d registered no memory", i)
		}
		totalRetired += st.Retired
	}
	if totalRetired != 3 {
		t.Errorf("total retired = %d, want 3", totalRetired)
	}
}

func TestReplaceNode(t *testing.T) {
	const nodes = 3
	r, recs := newRecorderRing(t, nodes, Config{}, nil)
	frags := buildFrags(t, nodes, 300)
	if err := r.Run(perNode(frags)); err != nil {
		t.Fatal(err)
	}
	// Node 1 "fails"; a fresh machine takes over its position.
	replacement := newRecorder()
	if err := r.ReplaceNode(1, replacement); err != nil {
		t.Fatal(err)
	}
	if err := r.Run(perNode(frags)); err != nil {
		t.Fatal(err)
	}
	if got := replacement.counts(); len(got) != nodes {
		t.Errorf("replacement saw %d fragments, want %d", len(got), nodes)
	}
	// The untouched nodes saw both runs.
	for _, n := range []int{0, 2} {
		for idx, times := range recs[n].counts() {
			if times != 2 {
				t.Errorf("node %d fragment %d seen %d times, want 2", n, idx, times)
			}
		}
	}
	// Stats count per ring position: the replaced position keeps
	// accumulating across the replacement.
	if got := r.Stats()[1].Processed; got != 2*nodes {
		t.Errorf("position 1 processed %d across both runs, want %d", got, 2*nodes)
	}
}

func TestReplaceNodeSingleNodeRing(t *testing.T) {
	r, _ := newRecorderRing(t, 1, Config{}, nil)
	frags := buildFrags(t, 1, 50)
	if err := r.Run(perNode(frags)); err != nil {
		t.Fatal(err)
	}
	replacement := newRecorder()
	if err := r.ReplaceNode(0, replacement); err != nil {
		t.Fatal(err)
	}
	if err := r.Run(perNode(frags)); err != nil {
		t.Fatal(err)
	}
	if len(replacement.counts()) != 1 {
		t.Error("replacement did not process")
	}
}

func TestReplaceNodeOutOfRange(t *testing.T) {
	r, _ := newRecorderRing(t, 2, Config{}, nil)
	if err := r.ReplaceNode(5, newRecorder()); err == nil {
		t.Error("want error for out-of-range node")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 0}, nil, nil); err == nil {
		t.Error("zero nodes: want error")
	}
	if _, err := New(Config{Nodes: 2}, nil, []Processor{newRecorder()}); err == nil {
		t.Error("processor count mismatch: want error")
	}
}

func TestRunValidation(t *testing.T) {
	r, _ := newRecorderRing(t, 2, Config{}, nil)
	if err := r.Run(make([][]*relation.Fragment, 3)); err == nil {
		t.Error("wrong perNode length: want error")
	}
	bad := &relation.Fragment{} // nil Rel
	if err := r.Run([][]*relation.Fragment{{bad}, nil}); err == nil {
		t.Error("invalid fragment: want error")
	}
}

func TestCloseIdempotent(t *testing.T) {
	r, _ := newRecorderRing(t, 2, Config{}, nil)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStallWatchdog: a hung join entity turns into a diagnostic error
// instead of a wedged Run.
func TestStallWatchdog(t *testing.T) {
	hang := make(chan struct{})
	defer close(hang)
	procs := []Processor{
		ProcessorFunc(func(f *relation.Fragment) error { return nil }),
		ProcessorFunc(func(f *relation.Fragment) error { <-hang; return nil }),
	}
	r, err := New(Config{Nodes: 2, StallTimeout: 200 * time.Millisecond}, nil, procs)
	if err != nil {
		t.Fatal(err)
	}
	frags := buildFrags(t, 2, 100)
	err = r.Run(perNode(frags))
	if err == nil {
		t.Fatal("Run with hung processor: want stall error")
	}
	if !strings.Contains(err.Error(), "stalled") {
		t.Errorf("error = %v, want stall diagnostic", err)
	}
	if !strings.Contains(err.Error(), "node 0 processed") {
		t.Errorf("error lacks per-node progress: %v", err)
	}
}

// TestStallWatchdogQuietWhenHealthy: the watchdog must not fire on a
// healthy but slow run.
func TestStallWatchdogQuietWhenHealthy(t *testing.T) {
	recs := make([]*recorder, 3)
	procs := make([]Processor, 3)
	for i := range recs {
		recs[i] = newRecorder()
		recs[i].delay = 10 * time.Millisecond
		procs[i] = recs[i]
	}
	r, err := New(Config{Nodes: 3, StallTimeout: 2 * time.Second}, nil, procs)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = r.Close()
	}()
	frags := buildFrags(t, 3, 90)
	if err := r.Run(perNode(frags)); err != nil {
		t.Fatalf("healthy slow run tripped the watchdog: %v", err)
	}
}
