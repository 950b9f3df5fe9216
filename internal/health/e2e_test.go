package health_test

import (
	"sync"
	"testing"
	"time"

	"cyclojoin/internal/core"
	"cyclojoin/internal/health"
	"cyclojoin/internal/join"
	"cyclojoin/internal/join/hashjoin"
	"cyclojoin/internal/rdma/chaoslink"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/ring"
	"cyclojoin/internal/trace"
	"cyclojoin/internal/workload"
)

// slowAlg wraps a real algorithm and makes ONE node's join phase slow —
// the paper's dizzy node: overloaded compute, not a slow wire. The wrapper
// keys off Options.TraceNode, the host's ring position.
type slowAlg struct {
	inner join.Algorithm
	node  int
	delay time.Duration
}

func (a slowAlg) Name() string                   { return a.inner.Name() }
func (a slowAlg) Supports(p join.Predicate) bool { return a.inner.Supports(p) }

func (a slowAlg) SetupStationary(s *relation.Relation, p join.Predicate, opts join.Options) (join.Stationary, error) {
	st, err := a.inner.SetupStationary(s, p, opts)
	if err != nil || opts.TraceNode != a.node {
		return st, err
	}
	return slowStationary{Stationary: st, delay: a.delay}, nil
}

func (a slowAlg) SetupRotating(r *relation.Relation, p join.Predicate, opts join.Options) (*relation.Relation, error) {
	return a.inner.SetupRotating(r, p, opts)
}

type slowStationary struct {
	join.Stationary
	delay time.Duration
}

func (s slowStationary) Join(r *relation.Relation, c join.Collector) error {
	time.Sleep(s.delay)
	return s.Stationary.Join(r, c)
}

// spinRing runs one join plus extra revolutions on a live 3-node mem ring.
func spinRing(t *testing.T, c *core.Cluster, rotations int) {
	t.Helper()
	r := workload.Sequential("R", 600, 4)
	s := workload.Sequential("S", 600, 4)
	if _, err := c.JoinRelations(r, s, false); err != nil {
		t.Fatalf("join: %v", err)
	}
	for i := 0; i < rotations; i++ {
		if _, err := c.Rotate(); err != nil {
			t.Fatalf("rotation %d: %v", i+1, err)
		}
	}
}

// TestSamplerRaceUnderLiveRevolutions ticks the sampler at full speed over
// a spinning ring while concurrent readers hammer the published snapshot —
// the -race run proves the lock-free publication and the hot-path counter
// loads are clean.
func TestSamplerRaceUnderLiveRevolutions(t *testing.T) {
	c, err := core.NewCluster(core.Config{
		Nodes:     3,
		Algorithm: hashjoin.Join{},
		Predicate: join.Equi{},
		Links:     ring.MemLinks(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = c.Close()
	}()

	s := health.NewSampler(c.Ring(), health.Options{Interval: time.Millisecond})
	s.Start()
	defer s.Stop()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // poll the lock-free pointer
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if snap := s.Current(); snap != nil {
				for _, ns := range snap.Nodes {
					_ = ns.BusyShare + ns.StallShare
				}
			}
		}
	}()
	go func() { // drain a subscription
		defer wg.Done()
		ch, cancel := s.Subscribe()
		defer cancel()
		for {
			select {
			case <-stop:
				return
			case snap, ok := <-ch:
				if !ok {
					return
				}
				_ = snap.Verdict.Kind.String()
			}
		}
	}()

	spinRing(t, c, 10)
	close(stop)
	wg.Wait()

	// Stop publishes a final sample after the loop exits, so a snapshot
	// exists however few ticks fired during the short spin.
	s.Stop()
	snap := s.Current()
	if snap == nil {
		t.Fatal("no snapshot published")
	}
	var processed int64
	for _, ns := range snap.Nodes {
		processed += ns.Processed
	}
	if len(snap.Nodes) != 3 {
		t.Errorf("len(Nodes) = %d, want 3", len(snap.Nodes))
	}
}

// TestE2EStragglerNamesTheSlowNode is the live/offline cross-check: node 2
// is the slow node (slow compute via slowAlg, plus a chaoslink-paced
// egress), the live sampler's verdict must name it within one sampling
// window, and the offline cyclotrace analyzer over the same run's flight
// recording must agree.
func TestE2EStragglerNamesTheSlowNode(t *testing.T) {
	rec := trace.Flight()
	rec.Reset()
	rec.Enable(trace.DefaultShardCap)
	defer rec.Reset()

	const slowNode = 2
	link := chaoslink.Link{From: slowNode, To: 0}
	plan := &chaoslink.Plan{PerLink: map[chaoslink.Link]*chaoslink.Scenario{
		link: {Seed: 1, Pace: time.Millisecond},
	}}
	c, err := core.NewCluster(core.Config{
		Nodes:     3,
		Algorithm: slowAlg{inner: hashjoin.Join{}, node: slowNode, delay: 2 * time.Millisecond},
		Predicate: join.Equi{},
		Links:     ring.LinkFactory(plan.Wrap(ring.MemLinks())),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = c.Close()
	}()

	s := health.NewSampler(c.Ring(), health.Options{Interval: time.Hour})
	s.SampleOnce() // baseline; the next sample is the first real window

	spinRing(t, c, 20)

	snap := s.SampleOnce()
	for _, ns := range snap.Nodes {
		t.Logf("node %d: busy=%.3f wait=%.3f join=%.3f stage=%.3f stall=%.3f processed=%d",
			ns.Node, ns.BusyShare, ns.WaitShare, ns.JoinShare, ns.StageShare, ns.StallShare, ns.Processed)
	}
	t.Logf("slowest=%d starved=%d score=%.2f window=%v", snap.Slowest, snap.Starved, snap.Score, snap.Window)
	if snap.Verdict.Kind != health.Straggler {
		t.Fatalf("verdict = %v (%s), want straggler", snap.Verdict.Kind, snap.Verdict.Reason)
	}
	if snap.Verdict.Node != slowNode {
		t.Errorf("live straggler = node %d, want node %d (the slow node)", snap.Verdict.Node, slowNode)
	}

	// Offline oracle: the flight recording of the same run, through the
	// same attribution model cyclotrace uses, must blame the same node.
	a := trace.Analyze(rec.Snapshot())
	if a.SlowestNode != slowNode {
		t.Errorf("offline SlowestNode = %d, want %d", a.SlowestNode, slowNode)
	}
	if a.SlowestNode != snap.Verdict.Node {
		t.Errorf("live (%d) and offline (%d) attribution disagree", snap.Verdict.Node, a.SlowestNode)
	}
}

// TestE2EDegradedNamesTheFailedLink drops one frame on link 1→2 of a live
// ring with recovery on. The window holding the failure must read Degraded
// on that link, from the failure the ring itself attributed (chaoslink
// only injects it), and the next window, with the link recovered and
// quiet, must not.
func TestE2EDegradedNamesTheFailedLink(t *testing.T) {
	link := chaoslink.Link{From: 1, To: 2}
	plan := &chaoslink.Plan{PerLink: map[chaoslink.Link]*chaoslink.Scenario{
		link: {Seed: 1, FailFrame: 1},
	}}
	c, err := core.NewCluster(core.Config{
		Nodes:     3,
		Algorithm: hashjoin.Join{},
		Predicate: join.Equi{},
		Links:     ring.LinkFactory(plan.Wrap(ring.MemLinks())),
		Ring:      ring.Config{Recovery: ring.Recovery{MaxRetries: 4, Backoff: time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = c.Close()
	}()

	s := health.NewSampler(c.Ring(), health.Options{Interval: time.Hour})
	s.SampleOnce() // baseline
	spinRing(t, c, 0)
	snap := s.SampleOnce()
	if snap.Verdict.Kind != health.Degraded {
		t.Fatalf("verdict = %v (%s), want degraded", snap.Verdict.Kind, snap.Verdict.Reason)
	}
	if snap.Verdict.Link != "1→2" {
		t.Errorf("degraded link = %q, want 1→2", snap.Verdict.Link)
	}
	if len(snap.Faults) != 1 || snap.Faults[0].Link != "1→2" || snap.Faults[0].Failures < 1 {
		t.Errorf("faults = %+v, want failures on 1→2 only", snap.Faults)
	}

	spinRing(t, c, 0)
	if snap := s.SampleOnce(); snap.Verdict.Kind == health.Degraded {
		t.Errorf("verdict still degraded after a clean revolution: %s", snap.Verdict.Reason)
	}
}
