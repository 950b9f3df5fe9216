package ring

import (
	"fmt"
	"sort"
	"time"

	"cyclojoin/internal/metrics"
	"cyclojoin/internal/rdma"
	"cyclojoin/internal/trace"
)

// Link-failure recovery: the ring's answer to a faulty network (§II-C "any
// failing node can easily be replaced" extends to failing links). The unit
// of failure is one directed link; the unit of recovery is a revolution in
// flight.
//
// The machinery reuses the node-replacement quiesce primitives. When a
// transport error surfaces on link from→to, Run (the only goroutine that
// reads errc) stops the sender-side transmitter and the receiver-side
// receiver, snapshots the sender's retained frames — every staged frame
// whose send work request never completed successfully — re-dials the link
// through the same factory with exponential backoff, restarts both
// endpoints, and re-routes the retained frames over the new link. Because
// every frame carries its hop count, a re-routed frame resumes its
// revolution at the last completed hop; nothing is reprocessed and nothing
// is lost.
//
// Exactly-once depends on two disciplines, both enforced in node.go:
//
//   - a transmitter tracks each frame from the moment it is dequeued until
//     its work request completes successfully, so a fault in between
//     leaves the frame retained (transports guarantee every posted work
//     request comes back through the completion queue, rdma.ErrFlushed at
//     worst);
//   - on failure or stop, reapers and receivers drain their completion
//     queue to channel close before the recovery snapshot is taken, so a
//     frame that did complete is never re-sent and a frame that did arrive
//     is never dropped.
//
// When a link keeps failing without a fragment retiring in between,
// bounded retry (Recovery.MaxRetries) gives up and Run returns a
// PartialError reporting how much of the revolution completed — graceful
// degradation instead of a wedged cluster.

var (
	mLinkRecoveries = metrics.Default().Counter("ring_link_recoveries_total", "links re-established by revolution-level recovery")
	mRedials        = metrics.Default().Counter("ring_link_redials_total", "re-dial attempts during link recovery")
	mRerouted       = metrics.Default().Counter("ring_frames_rerouted_total", "retained frames re-routed over a recovered link")
	mPartials       = metrics.Default().Counter("ring_partial_results_total", "runs ended with a partial result after bounded retries")
)

// Recovery configures revolution-level link retry. The zero value disables
// recovery: any transport error aborts the run, as before.
type Recovery struct {
	// MaxRetries bounds consecutive recovery attempts per link without
	// forward progress (a fragment retiring anywhere resets the count).
	// Re-dial failures consume attempts too. 0 disables recovery.
	MaxRetries int
	// Backoff is the delay before the first re-dial, doubled per
	// consecutive attempt. Zero means DefaultRecoveryBackoff.
	Backoff time.Duration
}

// DefaultRecoveryBackoff is the initial re-dial delay when
// Recovery.Backoff is zero.
const DefaultRecoveryBackoff = 2 * time.Millisecond

// recvSettleTimeout bounds how long recovery waits for the receiving
// endpoint of a failed buffered-wire link to observe the sender-side
// teardown (recvDead). The wait normally resolves in microseconds — the
// sender's closed socket turns into an EOF right behind the last
// in-flight frame — so the bound only matters if the wire never
// delivers one.
const recvSettleTimeout = 250 * time.Millisecond

// backoff returns the effective initial re-dial delay.
func (rc Recovery) backoff() time.Duration {
	if rc.Backoff <= 0 {
		return DefaultRecoveryBackoff
	}
	return rc.Backoff
}

// ErrClosed is returned by Run when the ring is closed mid-revolution.
var ErrClosed = fmt.Errorf("ring: closed")

// LinkError describes a failed ring link. It is the error Run wraps when
// recovery is disabled or exhausted, so callers can tell a network fault
// from a processing fault.
type LinkError struct {
	// From and To are the ring positions of the link's sender and
	// receiver.
	From, To int
	// Err is the underlying transport error.
	Err error
}

// Error implements error.
func (e *LinkError) Error() string {
	return fmt.Sprintf("ring: link %d→%d failed: %v", e.From, e.To, e.Err)
}

// Unwrap exposes the transport error.
func (e *LinkError) Unwrap() error { return e.Err }

// PartialError is Run's graceful-degradation result: recovery was
// configured but a link kept failing, and the run ends with only part of
// the injected fragments having completed their revolution.
type PartialError struct {
	// Retired is how many fragments completed a full revolution.
	Retired int
	// Total is how many fragments the run injected.
	Total int
	// Last is the failure that exhausted the retry budget.
	Last error
}

// Error implements error.
func (e *PartialError) Error() string {
	return fmt.Sprintf("ring: partial result: %d/%d fragments retired before giving up: %v", e.Retired, e.Total, e.Last)
}

// Unwrap exposes the final link failure.
func (e *PartialError) Unwrap() error { return e.Last }

// linkFailure is the internal errc payload for transport faults: the
// LinkError plus the queue pair that observed it, so Run can discard the
// echoes a single fault produces (both endpoints report, and so may both
// the transmitter's post path and its reaper) once the link has been
// replaced.
type linkFailure struct {
	le *LinkError
	// qp is the endpoint the failure was observed on; sender says which
	// end.
	qp     rdma.QueuePair
	sender bool
}

// Error implements error.
func (f *linkFailure) Error() string { return f.le.Error() }

// Unwrap exposes the LinkError (and transitively the transport error).
func (f *linkFailure) Unwrap() error { return f.le }

// failLink reports a transport failure on one of the node's links, typed
// so Run can attempt recovery. A nil stop skips the deliberate-teardown
// suppression (callers outside the start/stop machinery).
func (n *node) failLink(stop chan struct{}, sender bool, qp rdma.QueuePair, err error) {
	if stop != nil {
		select {
		case <-stop:
			return
		default:
		}
	}
	var from, to int
	if sender {
		from, to = n.id, (n.id+1)%n.cfg.Nodes
	} else {
		from, to = (n.id-1+n.cfg.Nodes)%n.cfg.Nodes, n.id
	}
	n.report(&linkFailure{le: &LinkError{From: from, To: to, Err: err}, qp: qp, sender: sender})
}

// recoverable reports whether Run should attempt link recovery. A
// single-node ring recovers nothing: its only link is a self-loop whose
// quiesce would deadlock against the node's own pipeline.
func (r *Ring) recoverable() bool {
	return r.cfg.Recovery.MaxRetries > 0 && r.cfg.Nodes > 1
}

// stale reports whether f describes an endpoint the ring no longer uses —
// the echo of an already-recovered failure.
func (r *Ring) stale(f *linkFailure) bool {
	if f.sender {
		return r.nodes[f.le.From].out != f.qp
	}
	return r.nodes[f.le.To].in != f.qp
}

// linkRetry tracks one link's consecutive recovery attempts.
type linkRetry struct {
	attempts int
	lastDone int
}

// sleep pauses for d, abandoned early if the ring closes. Reports whether
// the full pause elapsed.
func (r *Ring) sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-r.quit:
		return false
	}
}

// recoverLink replaces the failed link from→to and re-routes the sender's
// retained frames over it. st carries the link's consecutive-attempt
// count, already incremented for this failure; re-dial failures increment
// it further against the same MaxRetries budget.
func (r *Ring) recoverLink(from, to int, st *linkRetry) error {
	pd := r.frelink.Begin(trace.PhaseRelink)
	fromN, toN := r.nodes[from], r.nodes[to]

	// Quiesce both endpoints. stopSend closes the sender's queue pair,
	// which flushes every posted work request back through the reaper's
	// drain pass; sendWG.Wait inside stopSend therefore guarantees the
	// retained-frame snapshot below is complete and final. stopRecv
	// symmetrically drains delivered-but-unprocessed frames into the
	// pipeline before the old endpoint is discarded.
	fromN.stopSend()
	// On a buffered wire (tcplink), frames the sender already counted
	// delivered can still be in the kernel socket buffers. stopSend just
	// closed the sending endpoint, so an EOF is on its way to the receiver
	// right behind them; closing the receiving endpoint before its read
	// loop has consumed them would discard frames exactly-once accounting
	// says were delivered. Wait (bounded) for the receive loop to observe
	// the teardown — every in-flight frame is delivered first, then
	// recvDead closes. Synchronous transports (memlink) skip the wait: a
	// send completion there means the frame is already in the peer's CQ.
	if rdma.Buffered(toN.in) {
		select {
		case <-toN.recvDead:
		case <-time.After(recvSettleTimeout):
		case <-r.quit:
			r.frelink.End(pd)
			return ErrClosed
		}
	}
	toN.stopRecv()
	retained := fromN.takeRetained()

	var src, dst rdma.QueuePair
	for {
		backoff := r.cfg.Recovery.backoff()
		if shift := st.attempts - 1; shift > 0 {
			if shift > 16 {
				shift = 16
			}
			backoff <<= shift
		}
		if !r.sleep(backoff) {
			r.frelink.End(pd)
			return ErrClosed
		}
		mRedials.Inc()
		s, d, err := r.links(from, to)
		if err == nil {
			src, dst = s, d
			break
		}
		st.attempts++
		if st.attempts > r.cfg.Recovery.MaxRetries {
			pd.Arg = int64(st.attempts)
			r.frelink.End(pd)
			return &LinkError{From: from, To: to,
				Err: fmt.Errorf("re-dial failed after %d attempts: %w", st.attempts-1, err)}
		}
	}

	// Bring the receiver up before the sender so the new link starts with
	// receive buffers posted (write mode: credits advertised) — the same
	// order New wires a fresh ring in.
	if err := toN.beginRecv(dst); err != nil {
		r.frelink.End(pd)
		return err
	}
	if err := fromN.beginSend(src); err != nil {
		r.frelink.End(pd)
		return err
	}
	for _, ob := range retained {
		mRerouted.Inc()
		if !fromN.requeue(ob) {
			r.frelink.End(pd)
			return &LinkError{From: from, To: to,
				Err: fmt.Errorf("re-routing %d retained frames stalled", len(retained))}
		}
	}
	mLinkRecoveries.Inc()
	pd.Arg = int64(st.attempts)
	pd.Aux = int64(len(retained))
	r.frelink.End(pd)
	return nil
}

// ---- transmitter-side frame retention (node methods) ----

// trackInflight records a dequeued outbound frame as undelivered. The
// entry lives until the frame's work request completes successfully; a
// link failure in between leaves it for takeRetained.
//
//cyclolint:hotpath
func (n *node) trackInflight(buf *rdma.Buffer, ob outbound) {
	n.inflightMu.Lock()
	n.inflightSend[buf] = ob
	n.inflightMu.Unlock()
}

// untrackInflight clears a frame whose delivery the transport confirmed.
//
//cyclolint:hotpath
func (n *node) untrackInflight(buf *rdma.Buffer) {
	n.inflightMu.Lock()
	delete(n.inflightSend, buf)
	n.inflightMu.Unlock()
}

// takeRetained removes and returns every undelivered outbound frame, in
// deterministic (fragment index, hops) order. Call only with the
// transmitter stopped: stopSend's wait ensures no tracker is mid-update
// and every completion has been drained.
func (n *node) takeRetained() []outbound {
	n.inflightMu.Lock()
	bufs := make([]*rdma.Buffer, 0, len(n.inflightSend))
	out := make([]outbound, 0, len(n.inflightSend))
	for buf, ob := range n.inflightSend {
		bufs = append(bufs, buf)
		out = append(out, ob)
	}
	for _, b := range bufs {
		delete(n.inflightSend, b)
	}
	n.inflightMu.Unlock()
	// Close the send spans the failed posts left open, so the trace shows
	// the aborted send attempts instead of leaking pendings.
	for _, b := range bufs {
		n.endSendSpan(b)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].index != out[j].index {
			return out[i].index < out[j].index
		}
		return out[i].hops < out[j].hops
	})
	return out
}

// requeue hands a retained frame back to the (restarted) transmitter via
// requeueQ, which the transmitter drains before sendQ. The push is
// bounded: requeueQ's capacity covers every buffer the send pool can
// produce, so a full queue means the new link already failed again —
// better to give up and let the caller escalate than wedge the control
// goroutine.
func (n *node) requeue(ob outbound) bool {
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n.requeueQ.TryPush(ob) {
			n.txWake.Signal()
			return true
		}
		select {
		case <-n.quit:
			return false
		default:
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
}
