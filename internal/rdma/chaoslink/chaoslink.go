// Package chaoslink is a fault-injecting rdma.QueuePair wrapper: it sits
// between the ring and any real transport (tcplink, memlink) and delivers
// the failure scenarios internal/simnet only models — frame drops, extra
// latency, reordering of write-mode doorbells, link partitions, slow-node
// pacing, corrupted doorbell immediates — deterministically, from a seeded
// schedule.
//
// The fault model follows RDMA reliable-connection semantics: a reliable
// transport that loses a frame does not deliver it late or out of order —
// after exhausting hardware retries the work request completes with an
// error and the queue pair transitions to an unusable error state. A
// chaoslink "drop" therefore never silently loses data: the frame is not
// delivered, the sender observes an error completion for exactly that work
// request (the buffer — and the staged frame inside it — returns to the
// sender with the completion), and every later post is refused. That is
// the contract the ring's retry/resume machinery (ring.Recovery) is built
// against: the sender's retained frame is re-routed over a re-dialed link,
// so a revolution resumes at the last completed hop instead of starting
// over.
//
// Faults are injected on the sending side of a link only; the receiving
// side observes them the way a real peer would (a torn connection, a
// poisoned doorbell, silence). Every injected fault is counted in
// internal/metrics and recorded as a flight-recorder span on the link's
// chaos track, so cyclotrace can lay the injected outage and the ring's
// recovery side by side on one timeline.
package chaoslink

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"cyclojoin/internal/metrics"
	"cyclojoin/internal/rdma"
	"cyclojoin/internal/trace"
)

// ErrInjected marks failures manufactured by a chaoslink schedule, so
// tests can tell an injected fault from a genuine transport error.
var ErrInjected = errors.New("chaoslink: injected link failure")

// ErrPartitioned is returned by a Plan's factory for re-dials into a
// partitioned link — the peer is unreachable, as a dead machine would be.
var ErrPartitioned = errors.New("chaoslink: link partitioned")

var (
	mDrops    = metrics.Default().Counter("chaoslink_faults_total", "injected link faults", "kind", "drop")
	mCorrupts = metrics.Default().Counter("chaoslink_faults_total", "injected link faults", "kind", "corrupt_imm")
	mDelays   = metrics.Default().Counter("chaoslink_faults_total", "injected link faults", "kind", "delay")
	mRefusals = metrics.Default().Counter("chaoslink_faults_total", "injected link faults", "kind", "refuse_dial")
	mRejects  = metrics.Default().Counter("chaoslink_rejected_posts_total", "posts refused because the link was already failed")
	mHoldNs   = metrics.Default().Histogram("chaoslink_hold_ns", "injected per-frame delay", metrics.ExponentialBounds(1<<10, 4, 12))
)

// Link names one directed ring link, sender → receiver.
type Link struct {
	From, To int
}

// String renders the link for error messages and trace labels.
func (l Link) String() string { return fmt.Sprintf("%d→%d", l.From, l.To) }

// Scenario is the deterministic fault schedule for one link instance
// (one dial). The zero value injects nothing.
type Scenario struct {
	// Seed drives every probabilistic choice (DropProb, Jitter). Two
	// links with equal scenarios and seeds inject identical schedules.
	Seed uint64
	// FailFrame is the 1-based ordinal of the outbound frame on which
	// the link fails. The frame is not delivered; the sender observes an
	// error completion carrying the frame's buffer and the link becomes
	// unusable (reliable-connection error-state semantics). 0 disables.
	FailFrame int
	// DropProb additionally fails each frame with this probability.
	DropProb float64
	// CorruptImm changes the FailFrame fault: instead of dropping the
	// frame, its write-with-immediate doorbell is poisoned (the
	// immediate is overwritten with an impossible length). The receiver
	// gets a corrupt doorbell; the sender still observes an error
	// completion for the work request. Meaningful only for write-mode
	// traffic.
	CorruptImm bool
	// Delay holds every frame back for this long before it reaches the
	// wire.
	Delay time.Duration
	// Jitter adds a seeded random hold in [0, Jitter) per frame.
	Jitter time.Duration
	// Pace enforces a minimum spacing between consecutive frame
	// releases — a slow node's egress.
	Pace time.Duration
	// Reorder lets delayed frames overtake each other (release ordered
	// by due time rather than post order). Safe only for write-mode
	// doorbells, where each frame lands in its own exposed buffer; the
	// wrapper ignores it for two-sided sends, whose in-order delivery
	// the receive-buffer matching depends on.
	Reorder bool
	// RefuseRedials makes a Plan refuse every re-dial of this link with
	// ErrPartitioned — a partition rather than a transient fault.
	RefuseRedials bool
}

// active reports whether the scenario injects anything at all.
func (s Scenario) active() bool {
	return s.FailFrame > 0 || s.DropProb > 0 || s.Delay > 0 || s.Jitter > 0 || s.Pace > 0
}

// delayed reports whether frames travel through the hold queue.
func (s Scenario) delayed() bool { return s.Delay > 0 || s.Jitter > 0 || s.Pace > 0 }

// prng is splitmix64: tiny, seedable, and stable across Go releases, so a
// recorded failing seed reproduces the same schedule forever.
type prng uint64

func (p *prng) next() uint64 {
	*p += 0x9e3779b97f4a7c15
	z := uint64(*p)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform float64 in [0,1).
func (p *prng) float() float64 { return float64(p.next()>>11) / (1 << 53) }

// heldWR is one frame parked in the hold queue.
type heldWR struct {
	due  time.Time
	post func() error
	op   rdma.Op
	buf  *rdma.Buffer
	pend trace.Pending
}

// qp wraps the sending side of a queue pair with a fault schedule.
type qp struct {
	inner rdma.QueuePair
	// winner is inner's write interface; nil when inner is two-sided
	// only (then the wrapper is too).
	winner rdma.WriteQueuePair
	link   Link
	sc     Scenario
	shard  *trace.Shard
	// mLink* tally the link's injected faults across every dial, as
	// Prometheus series labeled by kind and link.
	mLinkDrop, mLinkCorr, mLinkDelay *metrics.Counter

	cq chan rdma.Completion
	// holdQ feeds the delayer goroutine; nil when the scenario has no
	// delay faults, in which case posts forward inline.
	holdQ chan heldWR

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	mu      sync.Mutex
	rng     prng
	ordinal int
	failed  bool
	// lastRelease tracks pacing: a frame may not be released earlier
	// than lastRelease+Pace.
	lastRelease time.Time
	// poisoned marks buffers whose success completion must be converted
	// into an injected failure (corrupt-imm frames the inner transport
	// happily delivered).
	poisoned map[*rdma.Buffer]bool
}

// writeQP adds the one-sided verbs when the inner transport has them.
type writeQP struct{ *qp }

var (
	_ rdma.QueuePair      = (*qp)(nil)
	_ rdma.BatchQueuePair = (*qp)(nil)
	_ rdma.WriteQueuePair = (*writeQP)(nil)
	_ rdma.BatchQueuePair = (*writeQP)(nil)
)

// Wrap puts a fault schedule in front of inner's sending side. The
// returned queue pair implements rdma.WriteQueuePair whenever inner does.
// The wrapper owns inner and closes it on Close.
func Wrap(inner rdma.QueuePair, link Link, sc Scenario) rdma.QueuePair {
	q := &qp{
		inner:      inner,
		link:       link,
		sc:         sc,
		rng:        prng(sc.Seed),
		cq:         make(chan rdma.Completion, rdma.CQDepth+16),
		done:       make(chan struct{}),
		shard:      trace.Flight().Shard(trace.NodeTransport, "chaos/"+link.String()),
		mLinkDrop:  metrics.Default().Counter("chaoslink_link_faults_total", "injected faults per directed link", "kind", "drop", "link", link.String()),
		mLinkCorr:  metrics.Default().Counter("chaoslink_link_faults_total", "injected faults per directed link", "kind", "corrupt_imm", "link", link.String()),
		mLinkDelay: metrics.Default().Counter("chaoslink_link_faults_total", "injected faults per directed link", "kind", "delay", "link", link.String()),
	}
	q.winner, _ = inner.(rdma.WriteQueuePair)
	q.wg.Add(1)
	go func() {
		defer q.wg.Done()
		q.pump()
	}()
	if sc.delayed() {
		q.holdQ = make(chan heldWR, rdma.CQDepth)
		q.wg.Add(1)
		go func() {
			defer q.wg.Done()
			q.delayer()
		}()
	}
	if q.winner != nil {
		return &writeQP{q}
	}
	return q
}

// pump forwards inner completions to the wrapper CQ, converting the
// completions of poisoned work requests into injected failures.
//
// The pump must never abandon completions still queued in the inner CQ —
// the ring's retained-frame accounting depends on every success completion
// reaching the reaper's drain pass, even when the wrapper is being closed
// because the peer reported the fault first. The loop therefore runs until
// the inner CQ closes, which the flush contract guarantees: Close tears
// down the inner link before waiting for the pump, and a torn-down link
// flushes every posted work request back through its CQ and closes it. The
// forward cannot block indefinitely either: the wrapper CQ has more slack
// than the inner CQ can hold, and the consumer drains it to close.
func (q *qp) pump() {
	for c := range q.inner.Completions() {
		if c.Err == nil && c.Buf != nil {
			q.mu.Lock()
			if q.poisoned[c.Buf] {
				delete(q.poisoned, c.Buf)
				c.Err = fmt.Errorf("chaoslink %s: corrupted doorbell immediate: %w", q.link, ErrInjected)
			}
			q.mu.Unlock()
		}
		q.cq <- c
	}
}

// delayer releases held frames at their due times. Without Reorder the
// queue is FIFO (due times are monotonic anyway unless Jitter is set);
// with Reorder the earliest-due frame goes first, so jittered doorbells
// overtake each other.
func (q *qp) delayer() {
	var held []heldWR
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for {
		var fire <-chan time.Time
		if len(held) > 0 {
			d := time.Until(held[q.nextHeld(held)].due)
			if d <= 0 {
				q.release(&held)
				continue
			}
			timer.Reset(d)
			fire = timer.C
		}
		select {
		case <-q.done:
			// Frames still held at shutdown never reach the wire, but the
			// wrapper accepted their posts, so the flush contract is its
			// to keep: every buffer returns through the CQ as flushed.
			// Drain holdQ first — a post may have parked there without
			// reaching this loop yet.
			for drained := false; !drained; {
				select {
				case h := <-q.holdQ:
					held = append(held, h)
				default:
					drained = true
				}
			}
			for _, h := range held {
				q.shard.End(h.pend)
				q.cq <- rdma.Completion{Op: h.op, Buf: h.buf, Err: rdma.ErrFlushed}
			}
			return
		case h := <-q.holdQ:
			held = append(held, h)
		case <-fire:
			q.release(&held)
			continue
		}
		if fire != nil && !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}
}

// nextHeld picks the index of the frame to release next.
func (q *qp) nextHeld(held []heldWR) int {
	if !q.sc.Reorder {
		return 0
	}
	best := 0
	for i, h := range held {
		if h.due.Before(held[best].due) {
			best = i
		}
	}
	return best
}

// release forwards the next due frame to the inner transport.
func (q *qp) release(held *[]heldWR) {
	i := q.nextHeld(*held)
	h := (*held)[i]
	*held = append((*held)[:i], (*held)[i+1:]...)
	q.shard.End(h.pend)
	if err := h.post(); err != nil {
		// The inner link refused the delayed post (closed underneath);
		// surface it as this work request's completion so the buffer is
		// handed back.
		select {
		case q.cq <- rdma.Completion{Op: h.op, Buf: h.buf, Err: err}:
		case <-q.done:
		}
	}
}

// submit runs one outbound work request through the fault schedule.
// isImm distinguishes write-with-immediate (the only frame kind
// CorruptImm applies to); forward posts the unmodified request and
// corrupt posts it with a poisoned immediate.
func (q *qp) submit(op rdma.Op, buf *rdma.Buffer, isImm bool, forward, corrupt func() error) error {
	q.mu.Lock()
	if q.failed {
		q.mu.Unlock()
		mRejects.Inc()
		return fmt.Errorf("chaoslink %s: %w", q.link, ErrInjected)
	}
	q.ordinal++
	o := q.ordinal
	fail := o == q.sc.FailFrame || (q.sc.DropProb > 0 && q.rng.float() < q.sc.DropProb)
	poison := fail && isImm && q.sc.CorruptImm && corrupt != nil
	var hold time.Duration
	if !fail && q.sc.delayed() {
		hold = q.sc.Delay
		if q.sc.Jitter > 0 {
			hold += time.Duration(q.rng.float() * float64(q.sc.Jitter))
		}
		due := time.Now().Add(hold)
		if q.sc.Pace > 0 {
			if paced := q.lastRelease.Add(q.sc.Pace); due.Before(paced) {
				due = paced
			}
		}
		q.lastRelease = due
		hold = time.Until(due)
	}
	if fail {
		q.failed = true
		if poison {
			if q.poisoned == nil {
				q.poisoned = make(map[*rdma.Buffer]bool, 1)
			}
			q.poisoned[buf] = true
		}
	}
	q.mu.Unlock()

	switch {
	case poison:
		// Deliver the frame with a poisoned doorbell: the receiver sees
		// an impossible length, the sender an error completion (via the
		// pump) for a frame it must re-route.
		mCorrupts.Inc()
		q.mLinkCorr.Inc()
		q.shard.Point(trace.PhaseFault, -1, -1, int64(o))
		return corrupt()
	case fail:
		// RC error-state drop: the frame never reaches the wire, the
		// work request completes with an error that returns the buffer,
		// and the inner link is torn down so the peer notices too.
		mDrops.Inc()
		q.mLinkDrop.Inc()
		q.shard.Point(trace.PhaseFault, -1, -1, int64(o))
		err := fmt.Errorf("chaoslink %s: dropped frame %d: %w", q.link, o, ErrInjected)
		select {
		case q.cq <- rdma.Completion{Op: op, Buf: buf, Err: err}:
		case <-q.done:
		}
		_ = q.inner.Close()
		return nil
	case q.holdQ != nil:
		// Refuse the post once the wrapper is closing — the bare select
		// below would otherwise pick the (buffered) hold queue at random
		// even with done already closed.
		select {
		case <-q.done:
			return rdma.ErrClosed
		default:
		}
		mDelays.Inc()
		q.mLinkDelay.Inc()
		mHoldNs.Observe(hold.Nanoseconds())
		pend := q.shard.Begin(trace.PhaseFault)
		pend.Arg = hold.Nanoseconds()
		select {
		case q.holdQ <- heldWR{due: time.Now().Add(hold), post: forward, op: op, buf: buf, pend: pend}:
			return nil
		case <-q.done:
			return rdma.ErrClosed
		}
	default:
		return forward()
	}
}

// PostSend implements rdma.QueuePair.
func (q *qp) PostSend(b *rdma.Buffer) error {
	return q.submit(rdma.OpSend, b, false, func() error { return q.inner.PostSend(b) }, nil)
}

// PostRecv implements rdma.QueuePair. Receives are posted straight
// through: faults are injected on the sending side only.
func (q *qp) PostRecv(b *rdma.Buffer) error { return q.inner.PostRecv(b) }

// PostSendBatch implements rdma.BatchQueuePair by unrolling the batch
// through the per-frame fault schedule: a batched doorbell must not let
// frames slip past the ordinal/drop bookkeeping, so under chaos a batch
// deliberately degrades to per-frame submits (correctness tier, not perf
// tier). Prefix-atomic like the native implementations: frames before the
// first refused post were submitted and will complete; later ones were not.
func (q *qp) PostSendBatch(bufs []*rdma.Buffer) error {
	for i, b := range bufs {
		if err := q.PostSend(b); err != nil {
			return fmt.Errorf("chaoslink %s: batch send %d/%d: %w", q.link, i, len(bufs), err)
		}
	}
	return nil
}

// PostRecvBatch implements rdma.BatchQueuePair: receives carry no faults,
// so the batch goes straight through to the inner transport's batch verb.
func (q *qp) PostRecvBatch(bufs []*rdma.Buffer) error {
	return rdma.PostRecvBatch(q.inner, bufs)
}

// PollCQ implements rdma.BatchQueuePair: a non-blocking drain of the
// wrapper CQ (which the pump feeds from the inner CQ, fault conversions
// applied). A closed CQ reads as empty.
func (q *qp) PollCQ(dst []rdma.Completion) int {
	n := 0
	for n < len(dst) {
		select {
		case c, ok := <-q.cq:
			if !ok {
				return n
			}
			dst[n] = c
			n++
		default:
			return n
		}
	}
	return n
}

// BufferedWire implements rdma.BufferedTransport by forwarding to the
// inner transport: fault injection adds no wire buffering of its own.
func (q *qp) BufferedWire() bool { return rdma.Buffered(q.inner) }

// Completions implements rdma.QueuePair.
func (q *qp) Completions() <-chan rdma.Completion { return q.cq }

// Close implements rdma.QueuePair.
func (q *qp) Close() error {
	q.closeOnce.Do(func() {
		close(q.done)
		_ = q.inner.Close()
		q.wg.Wait()
		// A post may have slipped into the hold queue between the
		// delayer's final drain and its exit; flush any straggler so its
		// buffer still returns through the CQ.
		if q.holdQ != nil {
			for drained := false; !drained; {
				select {
				case h := <-q.holdQ:
					q.shard.End(h.pend)
					q.cq <- rdma.Completion{Op: h.op, Buf: h.buf, Err: rdma.ErrFlushed}
				default:
					drained = true
				}
			}
		}
		close(q.cq)
	})
	return nil
}

// Expose implements rdma.WriteQueuePair.
func (w *writeQP) Expose(b *rdma.Buffer) (rdma.RemoteKey, error) { return w.winner.Expose(b) }

// PostWrite implements rdma.WriteQueuePair.
func (w *writeQP) PostWrite(key rdma.RemoteKey, offset int, src *rdma.Buffer) error {
	return w.submit(rdma.OpWrite, src, false,
		func() error { return w.winner.PostWrite(key, offset, src) }, nil)
}

// PostWriteImm implements rdma.WriteQueuePair.
func (w *writeQP) PostWriteImm(key rdma.RemoteKey, offset int, src *rdma.Buffer, imm uint32) error {
	return w.submit(rdma.OpWrite, src, true,
		func() error { return w.winner.PostWriteImm(key, offset, src, imm) },
		// A poisoned doorbell announces ~4 GiB in a buffer that cannot
		// hold it; the receiver must reject it without trusting a byte.
		func() error { return w.winner.PostWriteImm(key, offset, src, ^uint32(0)) })
}
