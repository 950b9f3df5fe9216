package ring

import (
	"fmt"
	"sync"
	"testing"

	"cyclojoin/internal/metrics"
	"cyclojoin/internal/rdma"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/workload"
)

// The tests in this file target the zero-copy buffer lifecycle: join
// entities read fragments straight out of registered receive memory, and
// the receive credit goes back to the transport only after the frame has
// been staged onward (or retired). The hazards are use-after-release (a
// view read after its buffer was reposted and overwritten), credit leaks
// (a pinned buffer never released), and credit duplication across node
// replacement. Run with -race.

// fragChecksum folds a fragment's full tuple contents — not just its
// index — so any read of a reposted (and since overwritten) buffer shows
// up as a checksum mismatch rather than a silently wrong join.
func fragChecksum(frag *relation.Fragment) uint64 {
	h := uint64(1469598103934665603)
	for _, k := range frag.Rel.Keys() {
		h = (h ^ k) * 1099511628211
	}
	for _, b := range frag.Rel.PayloadColumn() {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

// checksummer records the content checksum of every fragment it sees.
type checksummer struct {
	mu   sync.Mutex
	sums map[int][]uint64 // fragment index → checksums in arrival order
}

func newChecksummer() *checksummer { return &checksummer{sums: map[int][]uint64{}} }

func (c *checksummer) Process(frag *relation.Fragment) error {
	sum := fragChecksum(frag)
	c.mu.Lock()
	c.sums[frag.Index] = append(c.sums[frag.Index], sum)
	c.mu.Unlock()
	return nil
}

// TestViewContentsStableUnderPipelining floods a ring with more fragments
// than it has buffer slots, in both transport modes, and verifies every
// node observed byte-identical tuple contents for every fragment on every
// revolution. A premature credit release would let the upstream neighbor
// overwrite a frame while a join entity still reads through its view.
func TestViewContentsStableUnderPipelining(t *testing.T) {
	for _, writes := range []bool{false, true} {
		t.Run(fmt.Sprintf("writes=%v", writes), func(t *testing.T) {
			const nodes = 4
			const rounds = 3
			rel := workload.Sequential("R", 640, 16)
			frags, err := relation.Partition(rel, nodes*4)
			if err != nil {
				t.Fatal(err)
			}
			want := make(map[int]uint64, len(frags))
			for _, f := range frags {
				want[f.Index] = fragChecksum(f)
			}
			assign := make([][]*relation.Fragment, nodes)
			for i, f := range frags {
				assign[i%nodes] = append(assign[i%nodes], f)
			}

			procs := make([]Processor, nodes)
			sums := make([]*checksummer, nodes)
			for i := range procs {
				sums[i] = newChecksummer()
				procs[i] = sums[i]
			}
			r, err := New(Config{Nodes: nodes, BufferSlots: 2, OneSidedWrites: writes}, nil, procs)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = r.Close() }()

			for round := 0; round < rounds; round++ {
				if err := r.Run(assign); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
			for n, cs := range sums {
				for idx, got := range cs.sums {
					if len(got) != rounds {
						t.Errorf("node %d fragment %d: %d observations, want %d", n, idx, len(got), rounds)
					}
					for rev, sum := range got {
						if sum != want[idx] {
							t.Errorf("node %d fragment %d revolution %d: checksum %#x, want %#x (view read after buffer release?)",
								n, idx, rev, sum, want[idx])
						}
					}
				}
			}
		})
	}
}

// TestBackpressureSingleSlotSendRecv is the send/recv twin of
// TestWriteModeBackpressure: one buffer slot everywhere, one slow node,
// more fragments than the ring has slack. The delayed credit return must
// not introduce a circular wait (credit waiting on send progress waiting
// on downstream credit).
func TestBackpressureSingleSlotSendRecv(t *testing.T) {
	const nodes = 4
	recs := make([]*recorder, nodes)
	procs := make([]Processor, nodes)
	for i := range recs {
		recs[i] = newRecorder()
		if i == 2 {
			recs[i].delay = 2e6 // 2ms
		}
		procs[i] = recs[i]
	}
	r, err := New(Config{Nodes: nodes, BufferSlots: 1}, nil, procs)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
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
		for idx, times := range rec.counts() {
			if times != 1 {
				t.Errorf("node %d fragment %d seen %d times", n, idx, times)
			}
		}
		if len(rec.counts()) != len(frags) {
			t.Errorf("node %d saw %d fragments, want %d", n, len(rec.counts()), len(frags))
		}
	}
}

// pinnedCount inspects a node's receive-credit accounting.
func pinnedCount(n *node) int {
	n.recvMu.Lock()
	defer n.recvMu.Unlock()
	return len(n.pinned)
}

// TestCreditsFullyReturnedAfterRun: when a Run completes, every receive
// buffer's credit must be back with the transport — a leaked pin would
// shrink the ring's slack on every revolution until it wedged.
func TestCreditsFullyReturnedAfterRun(t *testing.T) {
	for _, writes := range []bool{false, true} {
		t.Run(fmt.Sprintf("writes=%v", writes), func(t *testing.T) {
			r, _ := newRecorderRing(t, 3, Config{OneSidedWrites: writes, BufferSlots: 2}, nil)
			frags := buildFrags(t, 3, 600)
			for round := 0; round < 3; round++ {
				if err := r.Run(perNode(frags)); err != nil {
					t.Fatal(err)
				}
				for _, n := range r.nodes {
					if got := pinnedCount(n); got != 0 {
						t.Fatalf("round %d: node %d still pins %d receive buffers after Run", round, n.id, got)
					}
				}
			}
		})
	}
}

// TestReplaceNodeUnderLoad replaces a node between heavily pipelined runs
// in both transport modes: the fresh links must re-establish exactly one
// credit per free receive buffer (no duplicates for buffers that were
// pinned at handover, none lost).
func TestReplaceNodeUnderLoad(t *testing.T) {
	for _, writes := range []bool{false, true} {
		t.Run(fmt.Sprintf("writes=%v", writes), func(t *testing.T) {
			const nodes = 3
			r, _ := newRecorderRing(t, nodes, Config{OneSidedWrites: writes, BufferSlots: 2}, nil)
			rel := workload.Sequential("R", 300, 4)
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
			for i := 0; i < nodes; i++ {
				replacement := newRecorder()
				if err := r.ReplaceNode(i, replacement); err != nil {
					t.Fatalf("replace node %d: %v", i, err)
				}
				if err := r.Run(assign); err != nil {
					t.Fatalf("run after replacing node %d: %v", i, err)
				}
				if got := len(replacement.counts()); got != len(frags) {
					t.Errorf("replacement at %d saw %d fragments, want %d", i, got, len(frags))
				}
			}
		})
	}
}

// TestForwardPathZeroAlloc drives the real per-hop pipeline primitives —
// view bind, pin, stage-forward, credit release — over registered buffers
// and asserts the steady-state forward path performs zero heap
// allocations per fragment on the little-endian fast path.
func TestForwardPathZeroAlloc(t *testing.T) {
	if !relation.NativeLittleEndian() {
		t.Skip("portable-endian build: key column binds through the scratch path")
	}
	n := newNode(0, Config{Nodes: 2}, metrics.NewRegistry(), nil, nil, make(chan error, 4))
	recv, err := n.dev.RegisterPool(1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	send, err := n.dev.RegisterPool(1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	rbuf, sbuf := recv[0], send[0]
	n.recvBufs = recv
	n.views[rbuf] = new(relation.View)
	reposted := 0
	n.repost = func(b *rdma.Buffer) error { reposted++; return nil }

	frags := buildFrags(t, 1, 4096)
	sz, err := relation.Encode(frags[0], rbuf.Data())
	if err != nil {
		t.Fatal(err)
	}
	if err := rbuf.SetLen(sz); err != nil {
		t.Fatal(err)
	}

	var failure error
	allocs := testing.AllocsPerRun(200, func() {
		v := n.views[rbuf]
		if err := v.Bind(rbuf.Bytes(), "rotating"); err != nil {
			failure = err
			return
		}
		frag := v.Frag()
		n.recvMu.Lock()
		n.pinned[rbuf] = true
		n.recvMu.Unlock()
		frag.Hops++
		if _, ok := n.stageForward(v, frag, sbuf); !ok {
			failure = fmt.Errorf("stageForward failed")
			return
		}
		//cyclolint:viewsafe the repost-failure error wraps no view bytes; the view is dead once the credit is released
		n.releaseRecv(rbuf)
	})
	if failure != nil {
		t.Fatal(failure)
	}
	if reposted == 0 {
		t.Fatal("receive credit never returned")
	}
	if allocs != 0 {
		t.Fatalf("steady-state forward path allocates %.1f times per fragment, want 0", allocs)
	}
	got, err := relation.Decode(sbuf.Bytes(), "rotating")
	if err != nil {
		t.Fatalf("staged frame does not decode: %v", err)
	}
	if !got.Rel.Equal(frags[0].Rel) {
		t.Fatal("staged frame content differs from source fragment")
	}
}
