package ring

// The health snapshot is the ring's side of the live telemetry contract
// (DESIGN.md §12): internal/health samples it on a ticker and diffs
// successive snapshots into windowed rates. Everything here reads the
// ring's own registry instruments, the counters the hot path already
// maintains — plain atomic loads, no locks, no allocation beyond the
// caller-reusable dst slices — so sampling a spinning ring costs the hot
// path nothing, and another ring in the process cannot move the readings.

// NodeHealth is one node's cumulative hot-path accounting. All fields are
// monotonically non-decreasing except QueueDepth and ChunkBytes (point-in-
// time readings); samplers difference two snapshots to get a window.
type NodeHealth struct {
	Node int
	// Fragment and byte flow.
	Processed, Retired int64
	BytesIn, BytesOut  int64
	// Join-entity time split (ns): wait is starvation, join is
	// Processor.Process, stage is post-process staging; stall is
	// send-side backpressure (free-buffer or remote-credit waits).
	WaitNs, JoinNs, StageNs, StallNs int64
	// Materializes counts congestion fallbacks (no free send buffer).
	Materializes int64
	// LinkFailures counts the failures Run attributed to this node's
	// outbound link (node → node+1) and recovered from.
	LinkFailures int64
	// QueueDepth is the join entity's input backlog right now.
	QueueDepth int64
	// ChunkBytes is the autotuner's current chunk size, 0 without one.
	ChunkBytes int64
	// HopBounds/HopCounts snapshot the node's hop-latency histogram
	// (fragment residence on the join entity): HopBounds are inclusive
	// upper bounds shared with the metrics registry (read-only),
	// HopCounts has len(HopBounds)+1 entries, the last being +Inf.
	HopBounds []int64
	HopCounts []int64
}

// HealthSnapshot assembles one NodeHealth per node, appending to dst
// (pass a previous call's slice, truncated to 0 via dst[:0], to avoid
// reallocation). Safe to call concurrently with running revolutions.
func (r *Ring) HealthSnapshot(dst []NodeHealth) []NodeHealth {
	var chunk int64
	if r.cfg.Autotune != nil {
		chunk = int64(r.cfg.Autotune.ChunkBytes())
	}
	for _, n := range r.nodes {
		nh := NodeHealth{
			Node:         n.id,
			Processed:    n.m.processed.Value(),
			Retired:      n.m.retired.Value(),
			BytesIn:      n.m.bytesIn.Value(),
			BytesOut:     n.m.bytesOut.Value(),
			WaitNs:       n.m.waitNs.Sum(),
			JoinNs:       n.m.processNs.Sum(),
			StageNs:      n.m.stageNs.Value(),
			StallNs:      n.m.stallNs.Value(),
			Materializes: n.m.materializes.Value(),
			LinkFailures: n.m.linkFailures.Value(),
			QueueDepth:   n.m.procDepth.Value(),
			ChunkBytes:   chunk,
			HopBounds:    n.m.hopNs.Bounds(),
		}
		nh.HopCounts = n.m.hopNs.Buckets(make([]int64, 0, len(nh.HopBounds)+1))
		dst = append(dst, nh)
	}
	return dst
}
