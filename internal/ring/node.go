package ring

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"cyclojoin/internal/metrics"
	"cyclojoin/internal/rdma"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/ringq"
	"cyclojoin/internal/trace"
)

// durationBounds covers 1 µs … ~4 s in powers of four — the span between
// a memlink hop and a badly stalled join entity.
var durationBounds = metrics.ExponentialBounds(1<<10, 4, 12)

// stageBounds covers 64 ns … ~1 s in powers of four — the span of the
// per-fragment staging work (a 4-byte header patch plus one memmove on the
// fast path, a full encode on the first hop).
var stageBounds = metrics.ExponentialBounds(1<<6, 4, 12)

// spinPops bounds how long a pipeline entity re-polls its queues (yielding
// between attempts) before arming its Waiter and parking. The hand-off
// between entities on a loaded ring is far shorter than a park/unpark
// round trip, so a short spin keeps the hot path free of scheduler
// activity; an idle entity still parks after ~spinPops yields.
const spinPops = 64

// reapBatch is how many completions a reaper moves out of a completion
// queue per wakeup: one blocking receive, then a bulk PollCQ drain. One
// wakeup then amortizes across up to reapBatch frames.
const reapBatch = 64

// txBatch is how many staged frames the transmitter coalesces into a
// single batched post — one doorbell (one writev on tcplink, one queue
// round trip on memlink) for everything that accumulated in sendQ while
// the previous post was in flight.
const txBatch = 16

// timerSample decimates the sub-microsecond hot-path timers (view bind,
// forward staging): reading the clock twice around a ~100 ns operation
// costs more than the operation, so only every timerSample-th one is
// timed. Power of two; the histograms keep their shape, at 1/16 the
// clock traffic.
const timerSample = 16

// nodeMetrics are one ring position's instruments, labeled by node id in
// the ring's own registry scope. They are the node's only counters:
// NodeStats, HealthSnapshot and /metrics all read them. Lookup is
// idempotent, so a replaced node keeps accumulating into its position's
// series.
type nodeMetrics struct {
	bytesIn   *metrics.Counter
	bytesOut  *metrics.Counter
	processed *metrics.Counter
	retired   *metrics.Counter
	procDepth *metrics.Gauge
	// waitNs and processNs are the paper's sync and join time per
	// fragment; their sums are NodeStats.WaitTime and ProcessTime.
	waitNs    *metrics.Histogram
	processNs *metrics.Histogram
	// stageNs accumulates post-Process staging time (forward copy, encode,
	// retirement bookkeeping); with processNs it is the node's busy time in
	// the attribution model's sense.
	stageNs *metrics.Counter
	// stallNs accumulates send-side backpressure: waiting for a free send
	// buffer, and in write mode for a remote credit. A node whose
	// downstream neighbor lags shows it here first.
	stallNs    *metrics.Counter
	registered *metrics.Gauge
	// linkFailures counts the recoverable failures Run attributed to this
	// node's outbound link.
	linkFailures *metrics.Counter

	// Zero-copy hot-path accounting: every received frame should be a
	// view bind (no decode allocation), and every non-first hop a frame
	// copy (no re-encode). views+forwards vs encodes is the allocation
	// win made visible.
	views        *metrics.Counter
	forwards     *metrics.Counter
	encodes      *metrics.Counter
	materializes *metrics.Counter
	bindNs       *metrics.Histogram
	forwardNs    *metrics.Histogram
	encodeNs     *metrics.Histogram

	// hopNs is the fragment's full residence on this node's join entity
	// (Process start to staged), the distribution internal/health windows
	// into live p50/p99 per node.
	hopNs *metrics.Histogram
}

func newNodeMetrics(r *metrics.Registry, id int) nodeMetrics {
	node := strconv.Itoa(id)
	return nodeMetrics{
		bytesIn:      r.Counter("ring_bytes_in_total", "encoded wire bytes received per ring node", "node", node),
		bytesOut:     r.Counter("ring_bytes_out_total", "encoded wire bytes transmitted per ring node", "node", node),
		processed:    r.Counter("ring_fragments_processed_total", "fragments handled by the join entity", "node", node),
		retired:      r.Counter("ring_fragments_retired_total", "fragments that completed their revolution here", "node", node),
		procDepth:    r.Gauge("ring_procq_depth", "fragments queued for the join entity", "node", node),
		waitNs:       r.Histogram("ring_wait_ns", "join-entity starvation (sync) time per fragment", durationBounds, "node", node),
		processNs:    r.Histogram("ring_process_ns", "join-entity processing time per fragment", durationBounds, "node", node),
		stageNs:      r.Counter("ring_stage_ns_total", "post-process staging time of the join entity", "node", node),
		stallNs:      r.Counter("ring_stall_ns_total", "send-side backpressure: waits for a free send buffer or a remote credit", "node", node),
		registered:   r.Gauge("ring_registered_bytes", "registered (pinned) buffer bytes per ring node", "node", node),
		linkFailures: r.Counter("ring_link_failures_total", "transport failures of the link from this node, as attributed by ring recovery", "node", node),
		views:        r.Counter("ring_views_total", "received frames bound as allocation-free views of registered memory", "node", node),
		forwards:     r.Counter("ring_forwards_total", "fragments forwarded by wire-frame copy and hops patch, no decode or re-encode", "node", node),
		encodes:      r.Counter("ring_encodes_total", "fragments fully serialized into a send buffer (first hop of locally injected fragments)", "node", node),
		materializes: r.Counter("ring_materializes_total", "fragments copied out of registered memory because no send buffer was free (congestion fallback)", "node", node),
		bindNs:       r.Histogram("ring_view_bind_ns", "time to bind a received frame as a view", stageBounds, "node", node),
		forwardNs:    r.Histogram("ring_forward_ns", "time to stage a forwarded frame (copy + hops patch)", stageBounds, "node", node),
		encodeNs:     r.Histogram("ring_encode_ns", "time to fully encode a fragment into a send buffer", stageBounds, "node", node),
		hopNs:        r.Histogram("ring_hop_ns", "fragment residence on the join entity, Process start to staged", durationBounds, "node", node),
	}
}

// inflight carries one fragment from the receiver to the join entity
// together with the registered receive buffer whose bytes it aliases. The
// buffer's receive credit is withheld until the join entity is done with
// the frame — immediately after Process the frame is staged into a send
// buffer (or, if none is free, copied out of registered memory), the view
// retired, and the credit returned. A view is therefore never invalidated
// while the join entity can still read it, and a node that falls behind
// stops crediting its upstream neighbor exactly as before; crucially, the
// credit never waits on downstream transmit progress, which would close a
// circular wait around the ring.
type inflight struct {
	// frag is what the join entity sees. For a wire arrival it aliases
	// view's storage; for a locally injected fragment it owns its data.
	frag *relation.Fragment
	// view is non-nil for wire arrivals: the frame decoded in place.
	view *relation.View
	// buf is the registered receive buffer holding the frame; nil for
	// locally injected fragments.
	buf *rdma.Buffer
}

// outbound is one fully staged send buffer queued for the transmitter:
// wire bytes placed, length set. Staging happens entirely in the join
// loop, never in the transmitter — the transmitter's waits (send credits,
// posted completions) depend on downstream progress, and a buffer
// acquisition there could close a resource cycle around the ring (or
// starve behind an already-staged buffer in its own queue).
type outbound struct {
	// index and hops snapshot the fragment metadata for stats/tracing —
	// the originating view may be rebound by the time the send posts.
	index, hops int
	staged      *rdma.Buffer
	sz          int
}

// node is one Data Roundabout host: receiver + join entity + transmitter
// over a statically registered buffer pool.
//
// The inter-entity queues are lock-free rings (internal/ringq), not
// channels: the uncontended hand-off is two atomics with no shared cache
// line, and blocking is pushed off the hot path into per-edge Waiters.
// Each SPSC edge has exactly one producer and one consumer goroutine;
// entity restarts (node replacement, link recovery) are sequenced by the
// stop/WaitGroup machinery, so each generation is a valid single
// producer.
type node struct {
	id  int
	cfg Config
	// proc is the join entity.
	proc Processor
	dev  *rdma.Device

	in, out rdma.QueuePair

	// procQ feeds the join entity wire arrivals; its capacity is the
	// ring-buffer depth (rounded up), so a slow node absorbs that much
	// slack before stalling upstream. Producer: receiver. Consumer: join
	// loop.
	procQ *ringq.SPSC[inflight]
	// injectQ feeds the join entity locally injected fragments. It is a
	// separate edge because Run's injector goroutine is concurrent with
	// the receiver, and each SPSC edge admits one producer.
	injectQ *ringq.SPSC[inflight]
	// sendQ feeds the transmitter. It holds every staged buffer the pool
	// can produce: an outbound exists only while it owns one of the
	// slots+2 send buffers, so at this capacity the join loop's push can
	// never block. That non-blocking push is load-bearing for liveness in
	// write mode, where the transmitter holds its dequeued frame
	// through an explicit credit wait: a full sendQ would block the
	// join loop before it processes (and re-credits) the next pinned
	// receive buffer, and with every node in that state the ring is a
	// circular credit wait — a store-and-forward deadlock.
	sendQ *ringq.SPSC[outbound]
	// requeueQ carries retained frames re-routed by link recovery to the
	// restarted transmitter, which drains it before sendQ. A separate
	// edge because the producer is Run's control goroutine, not the join
	// loop.
	requeueQ *ringq.SPSC[outbound]
	// freeSend holds the registered send buffers not currently in flight.
	// MPMC: the transmitter's reaper fills it on the hot path, the join
	// loop's failure paths return credits too, and recovery's drain pass
	// is a third producer.
	freeSend *ringq.MPMC[*rdma.Buffer]
	// sendPool is the send pool size — the invariant value of
	// freeSend.Len() when the pipeline is idle (the rings round their
	// capacity up, so Cap no longer states it).
	sendPool int

	// joinWake parks the join loop when procQ and injectQ are empty;
	// txWake parks the transmitter when sendQ and requeueQ are empty;
	// poolWake parks the join loop's blocking free-buffer wait.
	// procSpace/injectSpace/sendSpace park the respective producers when
	// an edge is full.
	joinWake    *ringq.Waiter
	txWake      *ringq.Waiter
	poolWake    *ringq.Waiter
	procSpace   *ringq.Waiter
	injectSpace *ringq.Waiter
	sendSpace   *ringq.Waiter

	// creditBuf batches receive-credit returns: the join loop defers each
	// released buffer here and flushes them with one batched post — one
	// doorbell per drain instead of one per frame. Join loop only; see
	// releaseRecvDeferred and flushCredits. creditLen is the fill level.
	creditBuf []*rdma.Buffer
	creditLen int

	// recvBufs is the registered receive pool. Each buffer is either
	// posted on the inbound queue pair, pinned under a frame the pipeline
	// still needs, or parked awaiting the next receiver start.
	recvBufs []*rdma.Buffer
	// views holds one reusable decode view per receive buffer: a buffer
	// carries at most one frame at a time, so its view is rebound in
	// place on every arrival — no per-fragment allocation. The map is
	// populated in start() before any entity goroutine launches and is
	// read-only afterwards.
	//
	//cyclolint:sharesafe filled before the entity goroutines start, read-only afterwards
	views map[*rdma.Buffer]*relation.View

	// recvMu guards the receive-credit lifecycle: which buffers are
	// pinned by in-flight frames and how a released buffer returns to the
	// transport. The receiver start/stop path (node replacement) swaps
	// repost out underneath running pipeline goroutines.
	recvMu sync.Mutex
	// pinned marks receive buffers whose frames are still referenced by
	// the pipeline; startRecv must not post them.
	pinned map[*rdma.Buffer]bool
	// repost returns a released buffer's credit to the transport: PostRecv
	// in send/recv mode, an upstream credit message in write mode. Nil
	// while the receiver is stopped; released buffers are then parked
	// (unpinned) for the next start.
	repost func(*rdma.Buffer) error
	// repostBatch returns several credits with a single batched post; nil
	// when the transport mode offers no batch path (flushCredits then
	// falls back to repost per buffer).
	repostBatch func([]*rdma.Buffer) error
	// repostQP is the endpoint repost targets, kept so a repost failure
	// can be attributed to the right link instance for recovery.
	repostQP rdma.QueuePair

	// inflightMu guards inflightSend: the staged frames handed to the
	// transmitter whose delivery the transport has not yet confirmed.
	// Link recovery re-routes exactly these (takeRetained, recovery.go).
	inflightMu   sync.Mutex
	inflightSend map[*rdma.Buffer]outbound

	retired chan<- retirement
	errc    chan<- error

	quit     chan struct{}
	quitOnce sync.Once
	procWG   sync.WaitGroup

	// Receiver and transmitter machinery restart independently during
	// node replacement, so each has its own stop channel and wait group.
	recvStop chan struct{}
	recvWG   sync.WaitGroup
	// recvDead is closed (per receiver generation) when the receive loop
	// observes a terminal transport event — an error completion or the
	// completion queue closing underneath it. Link recovery waits on it
	// before closing a buffered-wire endpoint (recovery.go): the sender's
	// teardown guarantees an eventual EOF, and every frame the wire still
	// held is consumed and delivered before that EOF surfaces here.
	recvDead chan struct{}
	sendStop chan struct{}
	sendWG   sync.WaitGroup

	// bindTick/stageTick drive the timerSample decimation. Single-writer:
	// bindTick belongs to the receiver goroutine, stageTick to the join
	// loop. A node runs either the read-mode or the write-mode receive
	// pump, never both, so the two launch sites shareguard sees are
	// mutually exclusive.
	//
	//cyclolint:sharesafe single writer: the one receive pump this node runs (read- or write-mode)
	bindTick, stageTick uint

	m nodeMetrics

	// Flight-recorder shards, one per entity track (receiver, join entity,
	// transmitter). Inert no-op shards when recording is disabled.
	frecv, fjoin, fsend *trace.Shard
	// sendPend holds the open PhaseSend span for each posted send buffer;
	// the reaper closes it when the completion arrives, so the span covers
	// post→completion rather than just the post call.
	pendMu   sync.Mutex
	sendPend map[*rdma.Buffer]trace.Pending
}

func newNode(id int, cfg Config, reg *metrics.Registry, proc Processor, retired chan<- retirement, errc chan<- error) *node {
	slots := cfg.slots()
	fl := cfg.flightRecorder()
	return &node{
		id:           id,
		cfg:          cfg,
		proc:         proc,
		dev:          rdma.OpenDevice(fmt.Sprintf("rnic-%d", id)),
		procQ:        ringq.NewSPSC[inflight](slots),
		injectQ:      ringq.NewSPSC[inflight](slots),
		sendQ:        ringq.NewSPSC[outbound](slots + 2),
		requeueQ:     ringq.NewSPSC[outbound](slots + 2),
		freeSend:     ringq.NewMPMC[*rdma.Buffer](slots + 2),
		joinWake:     ringq.NewWaiter(),
		txWake:       ringq.NewWaiter(),
		poolWake:     ringq.NewWaiter(),
		procSpace:    ringq.NewWaiter(),
		injectSpace:  ringq.NewWaiter(),
		sendSpace:    ringq.NewWaiter(),
		creditBuf:    make([]*rdma.Buffer, slots),
		views:        make(map[*rdma.Buffer]*relation.View, slots),
		pinned:       make(map[*rdma.Buffer]bool, slots),
		retired:      retired,
		errc:         errc,
		quit:         make(chan struct{}),
		m:            newNodeMetrics(reg, id),
		frecv:        fl.Shard(id, "recv"),
		fjoin:        fl.Shard(id, "join"),
		fsend:        fl.Shard(id, "send"),
		sendPend:     make(map[*rdma.Buffer]trace.Pending),
		inflightSend: make(map[*rdma.Buffer]outbound, slots+2),
	}
}

// labelEntity tags the calling goroutine with pprof labels (cyclo_node,
// cyclo_entity) so an on-demand CPU profile — internal/health captures one
// when it flags a straggler — attributes samples to a ring position and
// pipeline entity. Cold path: once per entity-goroutine start.
func (n *node) labelEntity(entity string) {
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("cyclo_node", strconv.Itoa(n.id), "cyclo_entity", entity)))
}

// start registers the buffer pools (once, up front — §III-C) and launches
// the three entities.
func (n *node) start() error {
	if len(n.recvBufs) == 0 {
		recv, err := n.dev.RegisterPool(n.cfg.slots(), n.cfg.bufBytes())
		if err != nil {
			return fmt.Errorf("ring: node %d: register receive pool: %w", n.id, err)
		}
		n.recvBufs = recv
		for _, b := range recv {
			n.views[b] = new(relation.View)
		}
		// The send pool covers every pipeline stage that can hold a
		// staged buffer concurrently: the join loop staging one fragment,
		// the send queue, and the transmitter's fragment in flight.
		// Staging moved into the join loop (so the receive credit is
		// freed before any transmit-side wait); without the extra two
		// buffers a minimal slots=1 ring would lose the pipeline slack
		// the pre-zero-copy design got from queuing heap fragments, and
		// could wedge under full backpressure.
		send, err := n.dev.RegisterPool(n.cfg.slots()+2, n.cfg.bufBytes())
		if err != nil {
			return fmt.Errorf("ring: node %d: register send pool: %w", n.id, err)
		}
		n.sendPool = len(send)
		for _, b := range send {
			n.freeSend.TryPush(b)
		}
		n.m.registered.Set(n.dev.Stats().BytesPinned)
	}
	// The three entities below share custody of the pooled views planted
	// in n.views: each send of a view down the pipeline carries the
	// buffer credit with it, which is the ring's sanctioned handoff.
	n.procWG.Add(1)
	go func() {
		defer n.procWG.Done()
		n.labelEntity("join")
		//cyclolint:viewsafe pooled views travel the pipeline with their buffer credit
		n.procLoop()
	}()
	//cyclolint:viewsafe pooled views travel the pipeline with their buffer credit
	if err := n.beginRecv(n.in); err != nil {
		return err
	}
	//cyclolint:viewsafe pooled views travel the pipeline with their buffer credit
	return n.beginSend(n.out)
}

// beginRecv starts the receiver in the configured transport mode.
func (n *node) beginRecv(qp rdma.QueuePair) error {
	if n.cfg.OneSidedWrites {
		return n.startRecvWrites(qp)
	}
	return n.startRecv(qp)
}

// beginSend starts the transmitter in the configured transport mode.
func (n *node) beginSend(qp rdma.QueuePair) error {
	if n.cfg.OneSidedWrites {
		return n.startSendWrites(qp)
	}
	n.startSend(qp)
	return nil
}

// ---- receiver ----

func (n *node) startRecv(qp rdma.QueuePair) error {
	n.in = qp
	n.recvStop = make(chan struct{})
	// Install the repost path and collect the postable buffers under one
	// lock: buffers pinned by frames still in the pipeline (a replacement
	// can restart the receiver while the join entity holds views) must
	// not be posted — their release will repost them through the new qp.
	n.recvMu.Lock()
	n.repost = qp.PostRecv
	n.repostBatch = func(bufs []*rdma.Buffer) error { return rdma.PostRecvBatch(qp, bufs) }
	n.repostQP = qp
	post := make([]*rdma.Buffer, 0, len(n.recvBufs))
	for _, b := range n.recvBufs {
		if !n.pinned[b] {
			post = append(post, b)
		}
	}
	n.recvMu.Unlock()
	if err := rdma.PostRecvBatch(qp, post); err != nil {
		return fmt.Errorf("ring: node %d: post receive: %w", n.id, err)
	}
	stop := n.recvStop
	dead := make(chan struct{})
	n.recvDead = dead
	n.recvWG.Add(1)
	go func() {
		defer n.recvWG.Done()
		n.labelEntity("recv")
		n.recvLoop(qp, stop, dead)
	}()
	return nil
}

// stopRecv quiesces the receiver and closes the inbound queue pair. The
// receive buffer pool is retained for a later startRecv; buffers released
// while stopped are parked until then.
func (n *node) stopRecv() {
	if n.recvStop == nil {
		return
	}
	n.recvMu.Lock()
	n.repost = nil
	n.repostBatch = nil
	n.recvMu.Unlock()
	close(n.recvStop)
	if n.in != nil {
		_ = n.in.Close()
	}
	n.recvWG.Wait()
	n.recvStop = nil
}

// releaseRecv returns a receive buffer's credit to the transport once the
// pipeline is done with the frame it holds. With the receiver stopped
// (node replacement in progress) the buffer is parked unpinned; the next
// startRecv posts it.
// releaseRecv returns buf's receive credit to the transport.
//
//cyclolint:hotpath
func (n *node) releaseRecv(buf *rdma.Buffer) {
	if buf == nil {
		return // locally injected fragment, no wire buffer
	}
	n.recvMu.Lock()
	delete(n.pinned, buf)
	repost := n.repost
	qp := n.repostQP
	n.recvMu.Unlock()
	if repost == nil {
		return
	}
	if err := repost(buf); err != nil {
		// A receiver restart between the load above and this call closes
		// the old endpoint; the buffer is already unpinned, so the new
		// receiver posts it. Anything else is a real transport fault.
		if errors.Is(err, rdma.ErrClosed) {
			return
		}
		//cyclolint:coldpath transport fault: recovery or abort follows
		n.failLink(nil, false, qp, fmt.Errorf("ring: node %d: repost receive: %w", n.id, err))
	}
}

// releaseRecvDeferred queues buf's credit for the next batched flush
// instead of reposting immediately — one doorbell per drain instead of
// one per frame. Join loop only. The eager-release liveness rule still
// holds: every point where the join loop can block calls flushCredits
// first, so a deferred credit never waits on downstream progress.
//
//cyclolint:hotpath
func (n *node) releaseRecvDeferred(buf *rdma.Buffer) {
	if buf == nil {
		return // locally injected fragment, no wire buffer
	}
	n.creditBuf[n.creditLen] = buf
	n.creditLen++
	if n.creditLen == len(n.creditBuf) {
		n.flushCredits()
	}
}

// flushCredits returns every deferred receive credit with one batched
// post. It MUST run before the join loop blocks on anything — input, a
// free send buffer, sendQ space, or the retired channel — so a parked
// join entity never sits on credits its upstream neighbor is starving
// for. With the receiver stopped the buffers are parked unpinned, exactly
// like releaseRecv.
//
//cyclolint:hotpath
func (n *node) flushCredits() {
	if n.creditLen == 0 {
		return
	}
	bufs := n.creditBuf[:n.creditLen]
	n.recvMu.Lock()
	for _, b := range bufs {
		delete(n.pinned, b)
	}
	repostBatch := n.repostBatch
	repost := n.repost
	qp := n.repostQP
	n.recvMu.Unlock()
	var err error
	switch {
	case repostBatch != nil:
		err = repostBatch(bufs)
	case repost != nil:
		for _, b := range bufs {
			if err = repost(b); err != nil {
				break
			}
		}
	}
	for i := range bufs {
		bufs[i] = nil
	}
	n.creditLen = 0
	if err != nil && !errors.Is(err, rdma.ErrClosed) {
		//cyclolint:coldpath transport fault: recovery or abort follows
		n.failLink(nil, false, qp, fmt.Errorf("ring: node %d: repost receive: %w", n.id, err))
	}
}

func (n *node) recvLoop(qp rdma.QueuePair, stop chan struct{}, dead chan struct{}) {
	var batch [reapBatch]rdma.Completion
	for {
		var c rdma.Completion
		var ok bool
		// Fast path: on a busy ring the next completion is usually already
		// queued — take it with one non-blocking receive instead of arming
		// the multi-way select (which locks every channel involved).
		select {
		case c, ok = <-qp.Completions():
		default:
			select {
			case <-stop:
				n.drainRecv(qp)
				return
			case <-n.quit:
				n.drainRecv(qp)
				return
			case c, ok = <-qp.Completions():
			}
		}
		if !ok {
			close(dead)
			return
		}
		// Bulk reap: one blocking receive, then drain whatever else the
		// transport already completed — one receiver wakeup per burst.
		batch[0] = c
		m := 1 + rdma.PollCQ(qp, batch[1:])
		for i := 0; i < m; i++ {
			c := batch[i]
			if c.Err != nil {
				n.failLink(stop, false, qp, fmt.Errorf("ring: node %d: receive: %w", n.id, c.Err))
				// Signal the terminal event BEFORE the drain: drainRecv
				// blocks until recovery closes the endpoint, and recovery
				// may be waiting on this signal to know the wire is dry.
				close(dead)
				n.deliverTail(batch[i+1 : m])
				n.drainRecv(qp)
				return
			}
			if c.Op != rdma.OpRecv {
				continue
			}
			n.deliver(c.Buf, c.Buf.Bytes())
		}
	}
}

// deliverTail applies drainRecv's delivery rule to completions already
// moved out of the completion queue when an error entry cut a reaped
// batch short: frames that landed before the fault must still reach the
// pipeline.
func (n *node) deliverTail(tail []rdma.Completion) {
	for _, c := range tail {
		if c.Err != nil || c.Op != rdma.OpRecv {
			continue
		}
		n.deliver(c.Buf, c.Buf.Bytes())
	}
}

// drainRecv consumes the inbound completion queue to channel close,
// delivering every frame the transport already placed. Frames that
// arrived before a fault (or a deliberate endpoint stop) must reach the
// pipeline — dropping them here would lose them for good, since the
// upstream sender has already been told they were delivered. The queue
// pair is closed by the same stop/recovery path that lands here, so the
// loop is bounded.
func (n *node) drainRecv(qp rdma.QueuePair) {
	for c := range qp.Completions() {
		if c.Err != nil || c.Op != rdma.OpRecv {
			// Flushed (undelivered) buffers are parked by the transport
			// handing them back; the next receiver start reposts them.
			continue
		}
		n.deliver(c.Buf, c.Buf.Bytes())
	}
}

// deliver binds a received frame in place as a view and hands it to the
// join entity. The receive credit stays withheld until the pipeline
// releases the buffer — after the frame is staged into a send buffer, or
// at retirement — so a full procQ still translates into ring backpressure,
// now without a decode-materialize cycle on the way in. Returns false when
// the node is quitting or the frame is fatally malformed.
//
// A receiver stop (node replacement, link recovery) deliberately does NOT
// abandon the handoff: the frame was delivered and acknowledged at the
// transport level, so it must survive the receiver restart — the join
// entity keeps running throughout and drains procQ.
//
//cyclolint:hotpath
func (n *node) deliver(buf *rdma.Buffer, frame []byte) bool {
	rspan := n.frecv.Begin(trace.PhaseReceive)
	v := n.views[buf]
	n.bindTick++
	var bindStart time.Time
	if n.bindTick&(timerSample-1) == 0 {
		bindStart = time.Now()
	}
	if err := v.Bind(frame, "rotating"); err != nil {
		//cyclolint:coldpath malformed frame: the node is about to stop
		n.report(fmt.Errorf("ring: node %d: decode: %w", n.id, err))
		// The receive still happened; record its span before bailing so
		// the trace shows the malformed delivery instead of a gap.
		n.frecv.End(rspan)
		return false
	}
	if !bindStart.IsZero() {
		n.m.bindNs.Observe(time.Since(bindStart).Nanoseconds())
	}
	n.m.views.Inc()
	frag := v.Frag()
	rspan.Frag, rspan.Hop, rspan.Arg = int32(frag.Index), int32(frag.Hops), int64(len(frame))
	n.recvMu.Lock()
	n.pinned[buf] = true
	n.recvMu.Unlock()
	n.m.bytesIn.Add(int64(len(frame)))
	// The view rides the queue bound to live receive memory, and that is
	// the point: the buffer credit travels with it (buf stays pinned), and
	// the join loop releases the credit only after staging or Materialize.
	//cyclolint:viewsafe credit travels with the view; procLoop releases it after staging or Materialize
	if n.pushInput(n.procQ, n.procSpace, inflight{frag: frag, view: v, buf: buf}) { //cyclolint:role recvLoop and recvLoopWrites are alternative transports; exactly one receive entity runs per node
		n.frecv.End(rspan)
		return true
	}
	// Quitting with the frame undelivered: unpin so a later receiver
	// start reposts the buffer instead of leaking the credit.
	n.recvMu.Lock()
	delete(n.pinned, buf)
	n.recvMu.Unlock()
	n.frecv.End(rspan)
	return false
}

// pushInput enqueues one fragment for the join entity, parking on space
// when the edge is full — that park is the ring's backpressure point.
// Returns false only when the node quits first.
//
//cyclolint:hotpath
func (n *node) pushInput(q *ringq.SPSC[inflight], space *ringq.Waiter, inf inflight) bool {
	if q.TryPush(inf) {
		n.m.procDepth.Inc()
		n.joinWake.Signal()
		return true
	}
	for {
		for i := 0; i < spinPops; i++ {
			runtime.Gosched()
			if q.TryPush(inf) {
				n.m.procDepth.Inc()
				n.joinWake.Signal()
				return true
			}
		}
		space.Prepare()
		if q.TryPush(inf) {
			n.m.procDepth.Inc()
			n.joinWake.Signal()
			return true
		}
		select {
		case <-space.C():
		case <-n.quit:
			return false
		}
	}
}

// ---- join entity ----

// popInput takes the join entity's next fragment, wire arrivals before
// local injections.
//
//cyclolint:hotpath
func (n *node) popInput() (inflight, bool) {
	if inf, ok := n.procQ.TryPop(); ok {
		n.procSpace.Signal()
		return inf, true
	}
	if inf, ok := n.injectQ.TryPop(); ok {
		n.injectSpace.Signal()
		return inf, true
	}
	return inflight{}, false
}

// nextInput blocks for the join entity's next fragment. Deferred credits
// are flushed before any spin or park: idle time must never withhold a
// credit from the upstream neighbor.
func (n *node) nextInput() (inflight, bool) {
	if inf, ok := n.popInput(); ok {
		return inf, true
	}
	n.flushCredits()
	for {
		for i := 0; i < spinPops; i++ {
			runtime.Gosched()
			if inf, ok := n.popInput(); ok {
				return inf, true
			}
		}
		n.joinWake.Prepare()
		if inf, ok := n.popInput(); ok {
			return inf, true
		}
		select {
		case <-n.joinWake.C():
		case <-n.quit:
			return inflight{}, false
		}
	}
}

func (n *node) procLoop() {
	defer n.flushCredits()
	// The wait/join/stage spans tile this loop back to back, so the
	// join-entity track has no unaccounted gaps: cyclotrace reconciles
	// their sum against the track's wall clock. Each hop's stage span
	// ends where the next wait span begins.
	wpd := n.fjoin.Begin(trace.PhaseWait)
	for {
		waitStart := time.Now()
		inf, ok := n.nextInput()
		if !ok {
			// Close the wait span on shutdown: the terminal wait interval
			// is part of the join-entity track, not a gap.
			n.fjoin.End(wpd)
			return
		}
		n.m.procDepth.Dec()
		// One clock read serves as both the end of the wait and the start
		// of Process: the bookkeeping between them is a handful of stores.
		procStart := time.Now()
		waited := procStart.Sub(waitStart)

		frag := inf.frag
		wpd.Frag, wpd.Hop = int32(frag.Index), int32(frag.Hops)
		n.fjoin.End(wpd)
		jpd := n.fjoin.Begin(trace.PhaseJoin)
		jpd.Frag, jpd.Hop, jpd.Arg = int32(frag.Index), int32(frag.Hops), int64(frag.Rel.Len())
		err := n.proc.Process(frag)
		procEnd := time.Now()
		procTime := procEnd.Sub(procStart)
		n.fjoin.End(jpd)
		spd := n.fjoin.Begin(trace.PhaseStage)
		spd.Frag, spd.Hop = int32(frag.Index), int32(frag.Hops)

		// The wait before a fragment that did arrive is "sync" time in
		// the paper's sense: the join entity starving on the transport.
		n.m.waitNs.Observe(waited.Nanoseconds())
		n.m.processNs.Observe(procTime.Nanoseconds())
		n.m.processed.Inc()

		if err != nil {
			n.report(fmt.Errorf("ring: node %d: process fragment %d: %w", n.id, frag.Index, err))
			n.fjoin.End(spd)
			return
		}

		frag.Hops++
		if frag.Hops >= n.cfg.Nodes {
			// Retirement: only the metadata travels on. The frame's bytes
			// live in registered receive memory whose credit goes straight
			// back to the transport; a consumer that needed the tuples
			// would inf.view.Materialize() before the release — today none
			// does, Run just counts revolutions.
			ret := retirement{index: frag.Index, hops: frag.Hops}
			n.m.retired.Inc()
			n.fjoin.Point(trace.PhaseRetire, int32(ret.index), int32(ret.hops), 0)
			n.releaseRecvDeferred(inf.buf)
			n.flushIfLast()
			// Close the hop's span and timings before publishing the
			// retirement: Run returns on the last one, and a recording
			// read then must hold the whole revolution. A send blocked on
			// Run's drain counts as waiting.
			n.fjoin.End(spd)
			wpd = n.fjoin.Begin(trace.PhaseWait)
			n.finishHop(procStart, procEnd)
			select {
			case n.retired <- ret:
			default:
				// Run's drain is briefly behind: flush deferred credits
				// before blocking on it.
				n.flushCredits()
				select {
				case n.retired <- ret:
				case <-n.quit:
					n.fjoin.End(wpd)
					return
				}
			}
			continue
		}

		// Forwarding. Liveness rule: the receive credit goes back BEFORE
		// this loop blocks on anything send-side. Around the ring, "my
		// credit returns when my send progresses, my send progresses when
		// my neighbor credits me" is a circular wait; eager release after
		// Process breaks it (deferred credits count as released: every
		// blocking point below flushes them first). On the hot path a
		// free send buffer is ready and the frame is staged by one copy
		// plus a 4-byte hops patch — then released. Only when every send
		// buffer is busy does the fragment get copied out of registered
		// memory (releasing the credit) and pay a full encode once a
		// buffer frees up.
		var ob outbound
		if inf.view != nil {
			if buf, ok := n.freeSend.TryPop(); ok {
				// Snapshot the metadata before the release: the credit
				// return lets upstream overwrite the receive buffer, and
				// with it the view this fragment aliases.
				index, hops := frag.Index, frag.Hops
				sz, ok := n.stageForward(inf.view, frag, buf)
				if !ok {
					// The node is stopping, but the pool must stay whole:
					// ReplaceNode restarts entities against these buffers,
					// and a dropped credit would shrink the send pool.
					n.freeSend.TryPush(buf)
					n.fjoin.End(spd)
					return
				}
				n.releaseRecvDeferred(inf.buf)
				ob = outbound{index: index, hops: hops, staged: buf, sz: sz}
			} else {
				heap := inf.view.Materialize()
				n.m.materializes.Inc()
				n.releaseRecvDeferred(inf.buf)
				var ok bool
				if ob, ok = n.encodeOutbound(heap); !ok {
					n.fjoin.End(spd)
					return
				}
			}
		} else {
			var ok bool
			if ob, ok = n.encodeOutbound(inf.frag); !ok {
				n.fjoin.End(spd)
				return
			}
		}
		spd.Arg = int64(ob.sz)
		n.flushIfLast()
		if !n.pushOutbound(ob) {
			n.fjoin.End(spd)
			return
		}
		n.fjoin.End(spd)
		wpd = n.fjoin.Begin(trace.PhaseWait)
		n.finishHop(procStart, procEnd)
	}
}

// flushIfLast flushes deferred credits when no input is queued, so the
// fragment just processed may be the node's last of the run. Its
// retirement, here or downstream, then happens after every credit the
// node deferred is back, and Run, which returns on the last retirement,
// returns with credits quiescent. A node with input queued processes
// another fragment of the run later and flushes there; when input is
// empty the join loop was about to flush in nextInput anyway, so this
// moves the doorbell earlier rather than adding one.
//
//cyclolint:hotpath
func (n *node) flushIfLast() {
	if n.procQ.Len() == 0 && n.injectQ.Len() == 0 {
		n.flushCredits()
	}
}

// finishHop closes a fragment's hop accounting with a single clock read:
// the interval since procEnd is staging time, the interval since procStart
// is the fragment's full residence on the join entity (the live hop
// histogram internal/health windows into p50/p99). Fragment-scoped — one
// extra time.Now per hop, in line with the loop's other clock reads.
//
//cyclolint:hotpath
func (n *node) finishHop(procStart, procEnd time.Time) {
	end := time.Now()
	n.m.stageNs.Add(end.Sub(procEnd).Nanoseconds())
	n.m.hopNs.Observe(end.Sub(procStart).Nanoseconds())
}

// popFreeSend blocks for a free send buffer; quit aborts. The wait
// depends on downstream progress, so deferred credits are flushed before
// any spin or park.
func (n *node) popFreeSend() (*rdma.Buffer, bool) {
	if buf, ok := n.freeSend.TryPop(); ok {
		return buf, true
	}
	n.flushCredits()
	// Send-pool exhaustion is downstream backpressure: account the whole
	// slow-path wait as stall time. The fast path above pays no clock read.
	stallStart := time.Now()
	for {
		for i := 0; i < spinPops; i++ {
			runtime.Gosched()
			if buf, ok := n.freeSend.TryPop(); ok {
				n.m.stallNs.Add(time.Since(stallStart).Nanoseconds())
				return buf, true
			}
		}
		n.poolWake.Prepare()
		if buf, ok := n.freeSend.TryPop(); ok {
			n.m.stallNs.Add(time.Since(stallStart).Nanoseconds())
			return buf, true
		}
		select {
		case <-n.poolWake.C():
		case <-n.quit:
			return nil, false
		}
	}
}

// pushOutbound hands a staged frame to the transmitter. sendQ is sized
// for every buffer the pool can produce, so the fast path never fails;
// the park path is a safety net and flushes credits before blocking.
//
//cyclolint:hotpath
func (n *node) pushOutbound(ob outbound) bool {
	if n.sendQ.TryPush(ob) {
		n.txWake.Signal()
		return true
	}
	n.flushCredits()
	for {
		for i := 0; i < spinPops; i++ {
			runtime.Gosched()
			if n.sendQ.TryPush(ob) {
				n.txWake.Signal()
				return true
			}
		}
		n.sendSpace.Prepare()
		if n.sendQ.TryPush(ob) {
			n.txWake.Signal()
			return true
		}
		select {
		case <-n.sendSpace.C():
		case <-n.quit:
			return false
		}
	}
}

// encodeOutbound waits for a free send buffer and fully serializes a
// heap-owned fragment (locally injected, or materialized under
// congestion) into it. Called only after any receive credit the fragment
// depended on has been released (or deferred — popFreeSend flushes).
func (n *node) encodeOutbound(frag *relation.Fragment) (outbound, bool) {
	buf, ok := n.popFreeSend()
	if !ok {
		return outbound{}, false
	}
	sz, ok := n.stageEncode(frag, buf)
	if !ok {
		// Return the credit even though the node is stopping: the send
		// pool is registered once and must survive node replacement.
		n.freeSend.TryPush(buf)
		return outbound{}, false
	}
	return outbound{index: frag.Index, hops: frag.Hops, staged: buf, sz: sz}, true
}

// inject hands a locally stored fragment to the join entity, as if it had
// just arrived. It reports false if the node is shutting down.
func (n *node) inject(frag *relation.Fragment) bool {
	return n.pushInput(n.injectQ, n.injectSpace, inflight{frag: frag}) //cyclolint:role Run's inline tryInject precedes the loader goroutine hand-off; the two producers never overlap
}

// tryInject is inject's non-blocking fast path: push or report a full edge,
// never park. Run uses it to inject inline before paying for a goroutine.
func (n *node) tryInject(frag *relation.Fragment) bool {
	if !n.injectQ.TryPush(inflight{frag: frag}) {
		return false
	}
	n.m.procDepth.Inc()
	n.joinWake.Signal()
	return true
}

// ---- transmitter ----

func (n *node) startSend(qp rdma.QueuePair) {
	n.out = qp
	n.sendStop = make(chan struct{})
	stop := n.sendStop
	n.sendWG.Add(2)
	go func() {
		defer n.sendWG.Done()
		n.labelEntity("send")
		n.sendLoop(qp, stop)
	}()
	go func() {
		defer n.sendWG.Done()
		n.labelEntity("send")
		n.sendReaper(qp, stop)
	}()
}

// stopSend quiesces the transmitter and closes the outbound queue pair.
func (n *node) stopSend() {
	if n.sendStop == nil {
		return
	}
	close(n.sendStop)
	if n.out != nil {
		_ = n.out.Close()
	}
	n.sendWG.Wait()
	n.sendStop = nil
}

// stageForward copies a bound frame into the registered send buffer and
// patches the 4-byte hops field in place — the entire per-hop cost of
// forwarding a fragment that arrived off the wire. No decode, no
// re-encode, no allocation.
//
//cyclolint:hotpath
func (n *node) stageForward(v *relation.View, frag *relation.Fragment, buf *rdma.Buffer) (int, bool) {
	frame := v.Frame()
	if len(frame) > buf.Cap() {
		//cyclolint:coldpath misconfiguration fault: the node is about to stop
		n.report(fmt.Errorf("ring: node %d: fragment %d frame is %d B, buffers are %d B; raise Config.BufferBytes",
			n.id, frag.Index, len(frame), buf.Cap()))
		return 0, false
	}
	n.stageTick++
	var stageStart time.Time
	if n.stageTick&(timerSample-1) == 0 {
		stageStart = time.Now()
	}
	dst := buf.Data()[:len(frame)]
	copy(dst, frame)
	if err := relation.SetFrameHops(dst, frag.Hops); err != nil {
		//cyclolint:coldpath corrupt frame fault: the node is about to stop
		n.report(fmt.Errorf("ring: node %d: patch forwarded frame: %w", n.id, err))
		return 0, false
	}
	if err := buf.SetLen(len(frame)); err != nil {
		n.report(err)
		return 0, false
	}
	if !stageStart.IsZero() {
		n.m.forwardNs.Observe(time.Since(stageStart).Nanoseconds())
	}
	n.m.forwards.Inc()
	return len(frame), true
}

// stageEncode fully serializes a heap-owned fragment (locally injected, or
// materialized under congestion) into the registered send buffer.
func (n *node) stageEncode(frag *relation.Fragment, buf *rdma.Buffer) (int, bool) {
	need := relation.EncodedSize(frag)
	if need > buf.Cap() {
		n.report(fmt.Errorf("ring: node %d: fragment %d needs %d B, buffers are %d B; raise Config.BufferBytes",
			n.id, frag.Index, need, buf.Cap()))
		return 0, false
	}
	encodeStart := time.Now()
	sz, err := relation.Encode(frag, buf.Data())
	if err != nil {
		n.report(fmt.Errorf("ring: node %d: encode: %w", n.id, err))
		return 0, false
	}
	if err := buf.SetLen(sz); err != nil {
		n.report(err)
		return 0, false
	}
	n.m.encodeNs.Observe(time.Since(encodeStart).Nanoseconds())
	n.m.encodes.Inc()
	return sz, true
}

// popOutbound takes the transmitter's next frame, re-routed retained
// frames (requeueQ, link recovery) before freshly staged ones.
//
//cyclolint:hotpath
func (n *node) popOutbound() (outbound, bool) {
	if ob, ok := n.requeueQ.TryPop(); ok { //cyclolint:role sendLoop and sendLoopWrites are alternative transports; exactly one transmit entity runs per node
		return ob, true
	}
	if ob, ok := n.sendQ.TryPop(); ok { //cyclolint:role sendLoop and sendLoopWrites are alternative transports; exactly one transmit entity runs per node
		n.sendSpace.Signal()
		return ob, true
	}
	return outbound{}, false
}

// nextOutbound blocks for the transmitter's next frame; stop and quit
// abort.
func (n *node) nextOutbound(stop chan struct{}) (outbound, bool) {
	if ob, ok := n.popOutbound(); ok {
		return ob, true
	}
	for {
		for i := 0; i < spinPops; i++ {
			runtime.Gosched()
			if ob, ok := n.popOutbound(); ok {
				return ob, true
			}
		}
		n.txWake.Prepare()
		if ob, ok := n.popOutbound(); ok {
			return ob, true
		}
		select {
		case <-n.txWake.C():
		case <-stop:
			return outbound{}, false
		case <-n.quit:
			return outbound{}, false
		}
	}
}

func (n *node) sendLoop(qp rdma.QueuePair, stop chan struct{}) {
	// The batch arrays live for the loop's lifetime: the doorbell batch
	// costs no per-frame allocation.
	var batch [txBatch]outbound
	var bufs [txBatch]*rdma.Buffer
	for {
		ob, ok := n.nextOutbound(stop)
		if !ok {
			return
		}
		// Coalesce everything already staged behind it — one batched post
		// (a single doorbell at the transport) for the whole burst.
		batch[0] = ob
		m := 1
		for m < txBatch {
			ob, ok := n.popOutbound()
			if !ok {
				break
			}
			batch[m] = ob
			m++
		}
		total := 0
		for i := 0; i < m; i++ {
			ob := batch[i]
			// Track the frame as undelivered from the moment it leaves
			// the queue: whatever fails from here on — the post below, or
			// the completion later — leaves the entry for recovery to
			// re-route (batched posts are prefix-atomic, so an unposted
			// suffix simply stays tracked with no completion to come).
			n.trackInflight(ob.staged, ob)
			// The send span runs from post to completion (closed by the
			// reaper), covering the transport's whole handling of the
			// frame.
			spd := n.fsend.Begin(trace.PhaseSend)
			spd.Frag, spd.Hop, spd.Arg = int32(ob.index), int32(ob.hops), int64(ob.sz)
			if spd.Active() {
				n.pendMu.Lock()
				n.sendPend[ob.staged] = spd
				n.pendMu.Unlock()
			}
			bufs[i] = ob.staged
			total += ob.sz
		}
		if err := rdma.PostSendBatch(qp, bufs[:m]); err != nil {
			n.failLink(stop, true, qp, fmt.Errorf("ring: node %d: post send: %w", n.id, err))
			return
		}
		n.m.bytesOut.Add(int64(total))
	}
}

// sendReaper returns completed send buffers to the free pool and confirms
// frame deliveries (untracking them from the recovery retention map). It
// reaps in bulk: one blocking receive per burst, then a PollCQ drain.
//
//cyclolint:hotpath
func (n *node) sendReaper(qp rdma.QueuePair, stop chan struct{}) {
	var batch [reapBatch]rdma.Completion
	var lastBurst time.Time // autotuner baseline; zero until the first burst
	for {
		var c rdma.Completion
		var ok bool
		// Fast path mirrors recvLoop: skip the select when a completion is
		// already waiting.
		select {
		case c, ok = <-qp.Completions():
		default:
			select {
			case <-stop:
				n.drainSendCQ(qp)
				return
			case <-n.quit:
				n.drainSendCQ(qp)
				return
			case c, ok = <-qp.Completions():
			}
		}
		if !ok {
			return
		}
		batch[0] = c
		m := 1 + rdma.PollCQ(qp, batch[1:])
		burstBytes := 0
		for i := 0; i < m; i++ {
			c := batch[i]
			if c.Err != nil {
				//cyclolint:coldpath transport fault: recovery or abort follows
				n.failLink(stop, true, qp, fmt.Errorf("ring: node %d: send: %w", n.id, c.Err))
				n.reapSendTail(batch[i+1 : m])
				n.drainSendCQ(qp)
				return
			}
			if c.Op != rdma.OpSend {
				continue
			}
			burstBytes += c.Buf.Len()
			n.endSendSpan(c.Buf)
			n.untrackInflight(c.Buf)
			n.freeSend.TryPush(c.Buf)
			n.poolWake.Signal()
		}
		lastBurst = n.observeBurst(lastBurst, burstBytes)
	}
}

// observeBurst feeds one completion burst to the chunk-size autotuner:
// burst bytes over the time since the previous burst, i.e. the achieved
// through-the-transmitter rate. Returns the new baseline; a no-op (and
// free of clock reads) when no tuner is configured.
//
//cyclolint:hotpath
func (n *node) observeBurst(last time.Time, bytes int) time.Time {
	tuner := n.cfg.Autotune
	if tuner == nil {
		return last
	}
	now := time.Now()
	if !last.IsZero() && bytes > 0 {
		tuner.Observe(bytes, now.Sub(last))
	}
	return now
}

// reapSendTail applies drainSendCQ's confirmation rules to completions
// already moved out of the completion queue when an error entry cut a
// reaped batch short: successes behind the failure are confirmed
// deliveries that must not be re-sent.
func (n *node) reapSendTail(tail []rdma.Completion) {
	for _, c := range tail {
		if c.Err != nil {
			n.endSendSpan(c.Buf)
			continue
		}
		switch c.Op {
		case rdma.OpSend, rdma.OpWrite:
			n.endSendSpan(c.Buf)
			n.untrackInflight(c.Buf)
			n.freeSend.TryPush(c.Buf)
			n.poolWake.Signal()
		}
	}
}

// drainSendCQ consumes the outbound completion queue to channel close.
// This is what makes the recovery snapshot exact: success completions
// queued behind a failure (or still unread when a stop lands) are
// confirmed deliveries whose frames must NOT be re-sent, and error/flush
// completions leave their frames tracked for re-routing. The queue pair
// is closed by the same stop/recovery path that lands here, so the loop
// is bounded; freeSend's push never fails (its capacity covers the pool).
func (n *node) drainSendCQ(qp rdma.QueuePair) {
	for c := range qp.Completions() {
		if c.Err != nil {
			n.endSendSpan(c.Buf)
			continue
		}
		switch c.Op {
		case rdma.OpSend, rdma.OpWrite:
			n.endSendSpan(c.Buf)
			n.untrackInflight(c.Buf)
			n.freeSend.TryPush(c.Buf)
			n.poolWake.Signal()
		}
	}
}

// endSendSpan closes the PhaseSend span opened when buf was posted.
//
//cyclolint:hotpath
func (n *node) endSendSpan(buf *rdma.Buffer) {
	if !n.fsend.Enabled() {
		return
	}
	n.pendMu.Lock()
	spd, ok := n.sendPend[buf]
	if ok {
		delete(n.sendPend, buf)
	}
	n.pendMu.Unlock()
	if ok {
		n.fsend.End(spd)
	}
}

// ---- lifecycle ----

func (n *node) stop() {
	n.quitOnce.Do(func() { close(n.quit) })
	n.stopRecv()
	n.stopSend()
	// A join entity stuck inside Processor.Process cannot be interrupted;
	// bound the wait and abandon it rather than wedging shutdown.
	if !waitTimeout(&n.procWG, 2*time.Second) {
		n.report(fmt.Errorf("ring: node %d: join entity did not stop; abandoned", n.id))
	}
}

// waitTimeout waits on wg up to d. The timer is stopped on the happy path
// instead of lingering until it fires (time.After would strand it for the
// full duration). The watcher goroutine itself cannot be cancelled —
// sync.WaitGroup has no cancellable wait — but it holds no timer and exits
// the moment the group finishes, so an abandoned join entity leaks exactly
// one parked goroutine and nothing else.
func waitTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}

func (n *node) report(err error) {
	select {
	case <-n.quit:
		return
	default:
	}
	select {
	case n.errc <- err:
	default:
		// Another error is already pending; the first one wins.
	}
}

func (n *node) snapshot() NodeStats {
	return NodeStats{
		Processed:       int(n.m.processed.Value()),
		Retired:         int(n.m.retired.Value()),
		BytesIn:         n.m.bytesIn.Value(),
		BytesOut:        n.m.bytesOut.Value(),
		ProcessTime:     time.Duration(n.m.processNs.Sum()),
		WaitTime:        time.Duration(n.m.waitNs.Sum()),
		StageTime:       time.Duration(n.m.stageNs.Value()),
		StallTime:       time.Duration(n.m.stallNs.Value()),
		RegisteredBytes: n.m.registered.Value(),
	}
}
