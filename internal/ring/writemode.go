package ring

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"cyclojoin/internal/metrics"
	"cyclojoin/internal/rdma"
	"cyclojoin/internal/trace"
)

// mDoorbellRejects counts write-with-immediate doorbells rejected because
// the immediate announced a length the exposed buffer cannot hold — a
// corrupt doorbell, the write-mode analogue of a framing error.
var mDoorbellRejects = metrics.Default().Counter("ring_doorbell_rejects_total", "write doorbells rejected for an impossible announced length")

// One-sided transport mode: instead of send/recv, the transmitter places
// each fragment directly into a registered buffer the downstream neighbor
// has exposed, using RDMA write-with-immediate (the immediate carries the
// encoded length, serving as the doorbell). Flow control is explicit
// credits: the receiver advertises one credit per exposed buffer on the
// reverse direction of the same queue pair, and re-credits a buffer once
// the pipeline no longer references the frame inside it — after the frame
// has been staged for forwarding or its fragment retired. Until then the
// join entity reads tuples directly out of the exposed buffer.
//
// This is the "RDMA as distributed shared memory" wiring of a Data
// Roundabout; functionally it must be indistinguishable from the send/recv
// mode, and the ring test suite runs both.

// creditMagic guards credit messages on the reverse channel.
const creditMagic = 0x43524454 // "CRDT"

// creditBytes is the wire size of one credit message.
const creditBytes = 8

// encodeCredit writes a credit for key into an 8-byte buffer.
func encodeCredit(buf *rdma.Buffer, key rdma.RemoteKey) error {
	binary.BigEndian.PutUint32(buf.Data()[0:4], creditMagic)
	binary.BigEndian.PutUint32(buf.Data()[4:8], uint32(key))
	return buf.SetLen(creditBytes)
}

// decodeCredit parses a credit message.
func decodeCredit(b []byte) (rdma.RemoteKey, error) {
	if len(b) != creditBytes || binary.BigEndian.Uint32(b[0:4]) != creditMagic {
		return 0, fmt.Errorf("ring: malformed credit message (%d B)", len(b))
	}
	return rdma.RemoteKey(binary.BigEndian.Uint32(b[4:8])), nil
}

// startRecvWrites is the write-mode receiver: expose the receive pool,
// advertise credits upstream, and consume write-with-immediate doorbells.
func (n *node) startRecvWrites(qp rdma.QueuePair) error {
	wqp, ok := qp.(rdma.WriteQueuePair)
	if !ok {
		return fmt.Errorf("ring: node %d: transport %T does not support one-sided writes", n.id, qp)
	}
	n.in = qp
	n.recvStop = make(chan struct{})
	stop := n.recvStop

	// Small registered buffers to send credit messages from.
	creditPool, err := n.dev.RegisterPool(n.cfg.slots(), creditBytes)
	if err != nil {
		return fmt.Errorf("ring: node %d: register credit pool: %w", n.id, err)
	}
	freeCredits := make(chan *rdma.Buffer, n.cfg.slots())
	for _, b := range creditPool {
		freeCredits <- b
	}

	keyOf := make(map[*rdma.Buffer]rdma.RemoteKey, len(n.recvBufs))
	sendCredit := func(key rdma.RemoteKey) error {
		var cb *rdma.Buffer
		select {
		case cb = <-freeCredits:
		case <-stop:
			return nil
		case <-n.quit:
			return nil
		}
		if err := encodeCredit(cb, key); err != nil {
			return err
		}
		return wqp.PostSend(cb)
	}
	// sendCreditBatch is the write-mode batch repost: one batched post
	// carries every credit the join loop deferred — one doorbell per
	// drain instead of one per frame. Called only from the join loop
	// (flushCredits), so the scratch slice is single-threaded. A stop or
	// quit mid-acquisition abandons the batch like sendCredit does: the
	// restart handshake re-credits every exposed buffer from scratch.
	creditScratch := make([]*rdma.Buffer, 0, n.cfg.slots())
	sendCreditBatch := func(bufs []*rdma.Buffer) error {
		creditScratch = creditScratch[:0]
		for range bufs {
			var cb *rdma.Buffer
			select {
			case cb = <-freeCredits:
			case <-stop:
				for _, cb := range creditScratch {
					freeCredits <- cb
				}
				return nil
			case <-n.quit:
				for _, cb := range creditScratch {
					freeCredits <- cb
				}
				return nil
			}
			creditScratch = append(creditScratch, cb)
		}
		for i, b := range bufs {
			if err := encodeCredit(creditScratch[i], keyOf[b]); err != nil {
				return err
			}
		}
		return rdma.PostSendBatch(wqp, creditScratch)
	}
	// Expose every buffer — pinned ones too, since a frame still held by
	// the pipeline will return its credit through this (re)started
	// receiver — but advertise initial credits only for buffers not
	// currently occupied by an in-flight frame.
	var creditNow []rdma.RemoteKey
	n.recvMu.Lock()
	for _, b := range n.recvBufs {
		key, err := wqp.Expose(b)
		if err != nil {
			n.recvMu.Unlock()
			return fmt.Errorf("ring: node %d: expose receive buffer: %w", n.id, err)
		}
		keyOf[b] = key
		if !n.pinned[b] {
			creditNow = append(creditNow, key)
		}
	}
	// In write mode a receive credit returns upstream as a credit message
	// for the released buffer's exposed key.
	n.repost = func(b *rdma.Buffer) error { return sendCredit(keyOf[b]) }
	n.repostBatch = sendCreditBatch
	n.recvMu.Unlock()
	for _, key := range creditNow {
		if err := sendCredit(key); err != nil {
			return fmt.Errorf("ring: node %d: initial credit: %w", n.id, err)
		}
	}

	dead := make(chan struct{})
	n.recvDead = dead
	n.recvWG.Add(1)
	go func() {
		defer n.recvWG.Done()
		n.labelEntity("recv")
		n.recvLoopWrites(wqp, stop, freeCredits, dead)
	}()
	return nil
}

func (n *node) recvLoopWrites(qp rdma.WriteQueuePair, stop chan struct{}, freeCredits chan *rdma.Buffer, dead chan struct{}) {
	var batch [reapBatch]rdma.Completion
	for {
		var c rdma.Completion
		var ok bool
		// Fast path: take an already-queued completion with one
		// non-blocking receive instead of arming the multi-way select.
		select {
		case c, ok = <-qp.Completions():
		default:
			select {
			case <-stop:
				n.drainRecvWrites(qp)
				return
			case <-n.quit:
				n.drainRecvWrites(qp)
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
				if c.Op == rdma.OpSend && errors.Is(c.Err, rdma.ErrClosed) {
					// A credit message raced an upstream link teardown (node
					// replacement closes the neighbor's endpoint while late
					// credits are still in flight). Losing it is harmless —
					// the replacement handshake re-credits every exposed
					// buffer from scratch.
					continue
				}
				n.failLink(stop, false, qp, fmt.Errorf("ring: node %d: write-mode receive: %w", n.id, c.Err))
				// Signal the terminal event BEFORE the drain: drainRecvWrites
				// blocks until recovery closes the endpoint, and recovery may
				// be waiting on this signal to know the wire is dry.
				close(dead)
				n.doorbellTail(batch[i+1 : m])
				n.drainRecvWrites(qp)
				return
			}
			switch c.Op {
			case rdma.OpSend:
				// A credit message went out; its buffer is free again.
				select {
				case freeCredits <- c.Buf:
				case <-n.quit:
					return
				}
			case rdma.OpWrite:
				// Doorbell: a fragment landed in c.Buf; Imm carries the
				// encoded length. The frame is bound in place and the buffer
				// stays un-credited until the pipeline releases it.
				if !n.deliverDoorbell(qp, stop, c) {
					close(dead)
					n.doorbellTail(batch[i+1 : m])
					n.drainRecvWrites(qp)
					return
				}
			}
		}
	}
}

// doorbellTail applies drainRecvWrites's rules to completions already
// moved out of the completion queue when a fault cut a reaped batch
// short: doorbells that landed before the fault still reach the
// pipeline, corrupt ones release their credit, and credit-send
// completions are dropped (the restarted receiver re-advertises from
// scratch).
func (n *node) doorbellTail(tail []rdma.Completion) {
	for _, c := range tail {
		if c.Err != nil || c.Op != rdma.OpWrite {
			continue
		}
		length := int(c.Imm)
		if length > c.Buf.Cap() {
			mDoorbellRejects.Inc()
			n.releaseRecv(c.Buf)
			continue
		}
		n.deliver(c.Buf, c.Buf.Data()[:length])
	}
}

// deliverDoorbell validates one write-with-immediate doorbell and hands
// its frame to the pipeline. A corrupt doorbell (announced length the
// exposed buffer cannot hold) fails the link — but the exposed buffer
// itself is intact and unreferenced, so its credit goes back upstream
// first: the receive pool must stay whole across the failure, whether the
// ring recovers the link or an operator keeps running degraded.
func (n *node) deliverDoorbell(qp rdma.WriteQueuePair, stop chan struct{}, c rdma.Completion) bool {
	length := int(c.Imm)
	if length > c.Buf.Cap() {
		mDoorbellRejects.Inc()
		n.releaseRecv(c.Buf)
		n.failLink(stop, false, qp, fmt.Errorf("ring: node %d: write doorbell claims %d B in a %d B buffer", n.id, length, c.Buf.Cap()))
		return false
	}
	n.deliver(c.Buf, c.Buf.Data()[:length])
	return true
}

// drainRecvWrites consumes the inbound completion queue to channel close,
// delivering doorbells that landed before the fault or stop — their
// writers have confirmed completions and will not re-send. Corrupt
// doorbells release their buffer credit and are skipped (the failure is
// already on its way to Run); credit-send completions need no handling,
// since the restarted receiver re-advertises from scratch.
func (n *node) drainRecvWrites(qp rdma.WriteQueuePair) {
	for c := range qp.Completions() {
		if c.Err != nil || c.Op != rdma.OpWrite {
			continue
		}
		length := int(c.Imm)
		if length > c.Buf.Cap() {
			mDoorbellRejects.Inc()
			n.releaseRecv(c.Buf)
			continue
		}
		n.deliver(c.Buf, c.Buf.Data()[:length])
	}
}

// startSendWrites is the write-mode transmitter: collect credits from the
// downstream neighbor and write fragments straight into its buffers.
func (n *node) startSendWrites(qp rdma.QueuePair) error {
	wqp, ok := qp.(rdma.WriteQueuePair)
	if !ok {
		return fmt.Errorf("ring: node %d: transport %T does not support one-sided writes", n.id, qp)
	}
	n.out = qp
	n.sendStop = make(chan struct{})
	stop := n.sendStop

	// Buffers to receive credit messages into.
	creditPool, err := n.dev.RegisterPool(n.cfg.slots(), creditBytes)
	if err != nil {
		return fmt.Errorf("ring: node %d: register credit receive pool: %w", n.id, err)
	}
	for _, b := range creditPool {
		if err := wqp.PostRecv(b); err != nil {
			return fmt.Errorf("ring: node %d: post credit receive: %w", n.id, err)
		}
	}
	credits := make(chan rdma.RemoteKey, n.cfg.slots())

	n.sendWG.Add(2)
	go func() {
		defer n.sendWG.Done()
		n.labelEntity("send")
		n.sendLoopWrites(wqp, stop, credits)
	}()
	go func() {
		defer n.sendWG.Done()
		n.labelEntity("send")
		n.sendReaperWrites(wqp, stop, credits)
	}()
	return nil
}

func (n *node) sendLoopWrites(qp rdma.WriteQueuePair, stop chan struct{}, credits chan rdma.RemoteKey) {
	for {
		ob, ok := n.nextOutbound(stop)
		if !ok {
			return
		}
		buf, sz := ob.staged, ob.sz
		// Track the frame as undelivered from the moment it leaves the
		// queue — including through the credit wait below, so a stop or
		// fault mid-wait leaves the frame retained for re-routing.
		n.trackInflight(buf, ob)
		// Wait for a free slot in the neighbor's exposed pool. The frame
		// already left this node's receive memory (staged in the join
		// loop), so waiting here never withholds the upstream credit. A
		// credit-stall span records only the slow path, so an uncongested
		// ring pays nothing.
		var key rdma.RemoteKey
		select {
		case key = <-credits:
		default:
			cs := n.fsend.Begin(trace.PhaseCreditStall)
			cs.Frag, cs.Hop, cs.Arg = int32(ob.index), int32(ob.hops), int64(sz)
			stallStart := time.Now()
			select {
			case <-stop:
				// End the stall span on shutdown so the trace keeps the
				// stalled interval instead of silently truncating it.
				n.fsend.End(cs)
				return
			case <-n.quit:
				n.fsend.End(cs)
				return
			case key = <-credits:
			}
			n.m.stallNs.Add(time.Since(stallStart).Nanoseconds())
			n.fsend.End(cs)
		}
		spd := n.fsend.Begin(trace.PhaseSend)
		spd.Frag, spd.Hop, spd.Arg = int32(ob.index), int32(ob.hops), int64(sz)
		if spd.Active() {
			n.pendMu.Lock()
			n.sendPend[buf] = spd
			n.pendMu.Unlock()
		}
		if err := qp.PostWriteImm(key, 0, buf, uint32(sz)); err != nil {
			n.failLink(stop, true, qp, fmt.Errorf("ring: node %d: post write: %w", n.id, err))
			return
		}
		n.m.bytesOut.Add(int64(sz))
	}
}

// sendReaperWrites recycles completed write buffers (confirming their
// frames as delivered) and collects credits. It reaps in bulk — one
// blocking receive per burst, then a PollCQ drain — and reposts every
// consumed credit receive buffer of the burst with a single batched
// post.
//
//cyclolint:hotpath
func (n *node) sendReaperWrites(qp rdma.WriteQueuePair, stop chan struct{}, credits chan rdma.RemoteKey) {
	var batch [reapBatch]rdma.Completion
	var creditBufs [reapBatch]*rdma.Buffer
	var lastBurst time.Time // autotuner baseline; zero until the first burst
	for {
		var c rdma.Completion
		var ok bool
		// Fast path mirrors recvLoopWrites: skip the select when a
		// completion is already waiting.
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
		nCredits := 0
		burstBytes := 0
		for i := 0; i < m; i++ {
			c := batch[i]
			if c.Err != nil {
				//cyclolint:coldpath transport fault: recovery or abort follows
				n.failLink(stop, true, qp, fmt.Errorf("ring: node %d: write-mode send: %w", n.id, c.Err))
				n.reapSendTail(batch[i+1 : m])
				n.drainSendCQ(qp)
				return
			}
			switch c.Op {
			case rdma.OpWrite:
				burstBytes += c.Buf.Len()
				n.endSendSpan(c.Buf)
				n.untrackInflight(c.Buf)
				n.freeSend.TryPush(c.Buf)
				n.poolWake.Signal()
			case rdma.OpRecv:
				key, err := decodeCredit(c.Buf.Bytes())
				if err != nil {
					//cyclolint:coldpath corrupt credit fault: recovery or abort follows
					n.failLink(stop, true, qp, fmt.Errorf("ring: node %d: %w", n.id, err))
					n.reapSendTail(batch[i+1 : m])
					n.drainSendCQ(qp)
					return
				}
				select {
				case credits <- key:
				case <-n.quit:
					n.drainSendCQ(qp)
					return
				}
				creditBufs[nCredits] = c.Buf
				nCredits++
			}
		}
		if nCredits > 0 {
			// One batched repost covers every credit consumed this burst.
			if err := rdma.PostRecvBatch(qp, creditBufs[:nCredits]); err != nil {
				//cyclolint:coldpath transport fault: recovery or abort follows
				n.failLink(stop, true, qp, fmt.Errorf("ring: node %d: repost credit receive: %w", n.id, err))
				n.drainSendCQ(qp)
				return
			}
		}
		lastBurst = n.observeBurst(lastBurst, burstBytes)
	}
}
