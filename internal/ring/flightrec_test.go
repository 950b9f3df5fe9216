package ring

import (
	"testing"
	"time"

	"cyclojoin/internal/relation"
	"cyclojoin/internal/trace"
)

// runTracedRing drives a full ring run with a private flight recorder and
// returns the recording. The processors sleep a little so the join spans
// dominate the per-iteration bookkeeping overhead, as a real join does.
func runTracedRing(t *testing.T, nodes int, oneSided bool) *trace.Recorder {
	t.Helper()
	rec := trace.NewRecorder(trace.DefaultShardCap)
	cfg := Config{Flight: rec, OneSidedWrites: oneSided}
	r, recs := newRecorderRing(t, nodes, cfg, MemLinks())
	for _, rc := range recs {
		rc.delay = time.Millisecond
	}
	frags := buildFrags(t, nodes, 1000)
	if err := r.Run(perNode(frags)); err != nil {
		t.Fatal(err)
	}
	return rec
}

// awaitSpanCount polls until the recorder holds at least want spans of
// phase p: send spans close on the reaper goroutine, which is off the
// retirement critical path and may lag Run's return.
func awaitSpanCount(rec *trace.Recorder, p trace.Phase, want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		got := 0
		for _, sp := range rec.Snapshot() {
			if sp.Phase == p {
				got++
			}
		}
		if got >= want || time.Now().After(deadline) {
			return got
		}
		time.Sleep(time.Millisecond)
	}
}

// checkFlightRecording asserts the span population a full revolution of
// every fragment must produce: every join-entity phase accounted for, each
// fragment joined once per node, every fragment's retirement marked, and
// the pipeline phases tiling each node's wall clock.
func checkFlightRecording(t *testing.T, rec *trace.Recorder, nodes int) {
	t.Helper()
	// Let the reapers close the trailing send spans before snapshotting.
	awaitSpanCount(rec, trace.PhaseSend, nodes*(nodes-1))
	spans := rec.Snapshot()
	if rec.Dropped() != 0 {
		t.Fatalf("recorder dropped %d spans on a small run", rec.Dropped())
	}
	counts := make(map[trace.Phase]int)
	for _, sp := range spans {
		counts[sp.Phase]++
		if sp.Phase != trace.PhaseRetire && sp.Dur < 1 {
			t.Fatalf("span %+v never ended", sp)
		}
	}
	// Every fragment is processed once per node: nodes fragments × nodes
	// hops of join+stage, and one ended wait per dequeue.
	wantJoins := nodes * nodes
	if counts[trace.PhaseJoin] != wantJoins {
		t.Errorf("join spans = %d, want %d", counts[trace.PhaseJoin], wantJoins)
	}
	// Each (fragment, node) is joined exactly once: one PhaseJoin span per
	// pair, never a repeat on a node.
	type visit struct{ frag, node int32 }
	joined := make(map[visit]bool, wantJoins)
	for _, sp := range spans {
		if sp.Phase != trace.PhaseJoin {
			continue
		}
		k := visit{sp.Frag, sp.Node}
		if joined[k] {
			t.Fatalf("fragment %d joined twice at node %d", sp.Frag, sp.Node)
		}
		joined[k] = true
	}
	if counts[trace.PhaseStage] != wantJoins {
		t.Errorf("stage spans = %d, want %d", counts[trace.PhaseStage], wantJoins)
	}
	if counts[trace.PhaseWait] != wantJoins {
		t.Errorf("ended wait spans = %d, want %d", counts[trace.PhaseWait], wantJoins)
	}
	// Each fragment arrives off the wire at every node except its origin.
	wantRecv := nodes * (nodes - 1)
	if counts[trace.PhaseReceive] != wantRecv {
		t.Errorf("receive spans = %d, want %d", counts[trace.PhaseReceive], wantRecv)
	}
	if counts[trace.PhaseRetire] != nodes {
		t.Errorf("retire points = %d, want %d", counts[trace.PhaseRetire], nodes)
	}
	// Sends: each fragment is posted nodes-1 times. A completion can in
	// principle still be unreaped despite the wait above, so allow up to
	// one open span per node.
	if got := counts[trace.PhaseSend]; got < wantRecv-nodes || got > wantRecv {
		t.Errorf("send spans = %d, want %d (±%d reaper slack)", got, wantRecv, nodes)
	}

	// The wait/join/stage spans must tile each node's join-entity track:
	// that is the property that makes cyclotrace's per-phase breakdown
	// reconcile with wall time.
	a := trace.Analyze(spans)
	if len(a.Nodes) != nodes {
		t.Fatalf("analysis covers %d nodes, want %d", len(a.Nodes), nodes)
	}
	for _, nb := range a.Nodes {
		if nb.Coverage < 0.95 || nb.Coverage > 1.01 {
			t.Errorf("node %d: join-entity coverage %.3f outside [0.95, 1.01] (wall %v, phases %v)",
				nb.Node, nb.Coverage, nb.Wall, nb.Phases)
		}
	}
	if len(a.Revolutions) != nodes {
		t.Errorf("analysis found %d completed revolutions, want %d", len(a.Revolutions), nodes)
	}
}

func TestFlightRecorderRingSendRecv(t *testing.T) {
	const nodes = 4
	rec := runTracedRing(t, nodes, false)
	checkFlightRecording(t, rec, nodes)
}

func TestFlightRecorderRingWrites(t *testing.T) {
	const nodes = 4
	rec := runTracedRing(t, nodes, true)
	checkFlightRecording(t, rec, nodes)
}

// TestFlightRecorderDisabledByDefault: a ring built without Config.Flight
// and without enabling the global recorder must leave no spans behind.
func TestFlightRecorderDisabledByDefault(t *testing.T) {
	if trace.Flight().Enabled() {
		t.Skip("global flight recorder enabled by another test")
	}
	before := len(trace.Flight().Snapshot())
	r, _ := newRecorderRing(t, 3, Config{}, MemLinks())
	frags := buildFrags(t, 3, 300)
	if err := r.Run(perNode(frags)); err != nil {
		t.Fatal(err)
	}
	if after := len(trace.Flight().Snapshot()); after != before {
		t.Fatalf("untraced run recorded %d spans", after-before)
	}
}

// TestTraceEvents runs a recorded revolution with trivially fast
// processors and checks the per-fragment event algebra: each fragment is
// joined once per node, at hops 0..nodes-1 in ring order starting at its
// origin, received at every node but its origin, and retired exactly once
// after its last join.
func TestTraceEvents(t *testing.T) {
	const nodes = 3
	rec := trace.NewRecorder(trace.DefaultShardCap)
	procs := make([]Processor, nodes)
	for i := range procs {
		procs[i] = ProcessorFunc(func(f *relation.Fragment) error { return nil })
	}
	r, err := New(Config{Nodes: nodes, Flight: rec}, nil, procs)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = r.Close()
	}()
	frags := buildFrags(t, nodes, 300)
	if err := r.Run(perNode(frags)); err != nil {
		t.Fatal(err)
	}
	awaitSpanCount(rec, trace.PhaseSend, nodes*(nodes-1))

	counts := make(map[trace.Phase]int)
	type visit struct{ frag, hop int32 }
	joins := make(map[visit]trace.Span)
	retired := make(map[int32]trace.Span)
	for _, sp := range rec.Snapshot() {
		counts[sp.Phase]++
		switch sp.Phase {
		case trace.PhaseJoin:
			k := visit{sp.Frag, sp.Hop}
			if _, dup := joins[k]; dup {
				t.Fatalf("fragment %d joined twice at hop %d", sp.Frag, sp.Hop)
			}
			joins[k] = sp
		case trace.PhaseReceive:
			if sp.Node == sp.Frag {
				t.Errorf("fragment %d received back at its origin", sp.Frag)
			}
		case trace.PhaseRetire:
			if _, dup := retired[sp.Frag]; dup {
				t.Fatalf("fragment %d retired twice", sp.Frag)
			}
			retired[sp.Frag] = sp
		}
	}
	if got, want := counts[trace.PhaseJoin], nodes*nodes; got != want {
		t.Errorf("join spans = %d, want %d", got, want)
	}
	if got, want := counts[trace.PhaseReceive], nodes*(nodes-1); got != want {
		t.Errorf("receive spans = %d, want %d", got, want)
	}
	if got, want := counts[trace.PhaseSend], nodes*(nodes-1); got < want-nodes || got > want {
		t.Errorf("send spans = %d, want %d (±%d reaper slack)", got, want, nodes)
	}
	for f := int32(0); f < nodes; f++ {
		var prev trace.Span
		for h := int32(0); h < nodes; h++ {
			sp, ok := joins[visit{f, h}]
			if !ok {
				t.Fatalf("fragment %d never joined at hop %d", f, h)
			}
			if want := (f + h) % nodes; sp.Node != want {
				t.Errorf("fragment %d hop %d joined at node %d, want %d", f, h, sp.Node, want)
			}
			if h > 0 && sp.Start < prev.End() {
				t.Errorf("fragment %d: hop %d join starts before hop %d ends", f, h, h-1)
			}
			prev = sp
		}
		ret, ok := retired[f]
		if !ok {
			t.Fatalf("fragment %d never retired", f)
		}
		if ret.Hop != nodes || ret.Start < prev.End() {
			t.Errorf("fragment %d retirement %+v, want hop %d after its last join", f, ret, nodes)
		}
	}
}
