package main

import (
	"errors"
	"fmt"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"cyclojoin/internal/join"
	"cyclojoin/internal/metrics"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/ring"
)

// The ledger measures every layer from outside the program: decorators
// around the local join algorithm, deltas of Ring.Stats and of the
// process-wide metrics registry, and runtime/metrics. Nothing inside the
// program is instrumented for the benchmark.

// errLedger marks a program counter the ledger reads by name but cannot
// find: a benchmark error, never a zero.
var errLedger = errors.New("ledger: program counter not found")

// algTimes accumulates what a timedAlgorithm observed.
type algTimes struct {
	setupStationaryNs atomic.Int64
	setupRotatingNs   atomic.Int64
	joinNs            atomic.Int64
	joinTuples        atomic.Int64
	joinCalls         atomic.Int64
}

type algSnapshot struct {
	setupStationaryNs, setupRotatingNs, joinNs, joinTuples, joinCalls int64
}

func (t *algTimes) snapshot() algSnapshot {
	return algSnapshot{
		setupStationaryNs: t.setupStationaryNs.Load(),
		setupRotatingNs:   t.setupRotatingNs.Load(),
		joinNs:            t.joinNs.Load(),
		joinTuples:        t.joinTuples.Load(),
		joinCalls:         t.joinCalls.Load(),
	}
}

func (a algSnapshot) sub(b algSnapshot) algSnapshot {
	return algSnapshot{
		setupStationaryNs: a.setupStationaryNs - b.setupStationaryNs,
		setupRotatingNs:   a.setupRotatingNs - b.setupRotatingNs,
		joinNs:            a.joinNs - b.joinNs,
		joinTuples:        a.joinTuples - b.joinTuples,
		joinCalls:         a.joinCalls - b.joinCalls,
	}
}

// timedAlgorithm times and counts a join.Algorithm's setup and join calls
// while on is set; with on clear it only forwards.
type timedAlgorithm struct {
	join.Algorithm
	on    *atomic.Bool
	times *algTimes
}

func newTimedAlgorithm(alg join.Algorithm) timedAlgorithm {
	return timedAlgorithm{Algorithm: alg, on: new(atomic.Bool), times: new(algTimes)}
}

// since adds the time since start to c while the decorator is on.
func (a timedAlgorithm) since(c *atomic.Int64, start time.Time) {
	if a.on.Load() {
		c.Add(time.Since(start).Nanoseconds())
	}
}

// SetupStationary implements join.Algorithm.
func (a timedAlgorithm) SetupStationary(s *relation.Relation, p join.Predicate, opts join.Options) (join.Stationary, error) {
	start := time.Now()
	st, err := a.Algorithm.SetupStationary(s, p, opts)
	a.since(&a.times.setupStationaryNs, start)
	if err != nil {
		return nil, err
	}
	return timedStationary{Stationary: st, alg: a}, nil
}

// SetupRotating implements join.Algorithm.
func (a timedAlgorithm) SetupRotating(r *relation.Relation, p join.Predicate, opts join.Options) (*relation.Relation, error) {
	start := time.Now()
	out, err := a.Algorithm.SetupRotating(r, p, opts)
	a.since(&a.times.setupRotatingNs, start)
	return out, err
}

// timedStationary times the join phase of one prepared fragment.
type timedStationary struct {
	join.Stationary
	alg timedAlgorithm
}

// Join implements join.Stationary.
func (s timedStationary) Join(r *relation.Relation, c join.Collector) error {
	start := time.Now()
	err := s.Stationary.Join(r, c)
	if s.alg.on.Load() {
		s.alg.times.joinNs.Add(time.Since(start).Nanoseconds())
		s.alg.times.joinTuples.Add(int64(r.Len()))
		s.alg.times.joinCalls.Add(1)
	}
	return err
}

// probe is one outside reading of the process: registry samples, ring
// counters when the benchmark owns the ring, and process resources.
type probe struct {
	samples []metrics.Sample
	nodes   []ring.NodeStats
	alg     algSnapshot
	cpu     time.Duration
	alloc   uint64
	gcs     uint64
}

var runtimeSamples = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func takeProbe(r *ring.Ring, t *algTimes) probe {
	p := probe{samples: metrics.Default().Samples(), cpu: processCPU()}
	if r != nil {
		p.nodes = r.Stats()
	}
	if t != nil {
		p.alg = t.snapshot()
	}
	rs := make([]rtmetrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		rs[i].Name = name
	}
	rtmetrics.Read(rs)
	p.alloc, p.gcs = rs[0].Value.Uint64(), rs[1].Value.Uint64()
	return p
}

// counter sums the registry series named name whose rendered labels
// contain match. A name the registry does not hold is an error, never a
// zero: a renamed program counter must break the ledger loudly.
func (p probe) counter(name, match string) (int64, error) {
	var sum int64
	found := false
	for _, s := range p.samples {
		if s.Name == name && strings.Contains(s.Labels, match) {
			sum += s.Value
			found = true
		}
	}
	if !found {
		return 0, fmt.Errorf("%w: %s{%s}", errLedger, name, match)
	}
	return sum, nil
}

// counterDelta is counter(after) − counter(before).
func counterDelta(before, after probe, name, match string) (float64, error) {
	a, err := after.counter(name, match)
	if err != nil {
		return 0, err
	}
	b, err := before.counter(name, match)
	if err != nil {
		// Series appear when a ring first registers them.
		b = 0
	}
	return float64(a - b), nil
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// layerSample is one traced operation's per-layer readings.
type layerSample map[string]float64

// registryLayers derives the per-layer metrics every workload reads from
// the metrics registry. rTuples is the number of rotating tuples the op
// shipped around the ring.
func registryLayers(m layerSample, before, after probe, rTuples int64) error {
	type read struct {
		name, match string
		v           *float64
	}
	var hops, bytesOut, hopNs, hopCount, views, mats, mem, tcpFrames, tcpBytes float64
	for _, r := range []read{
		{"ring_fragments_processed_total", "", &hops},
		{"ring_bytes_out_total", "", &bytesOut},
		{"ring_hop_ns_sum", "", &hopNs},
		{"ring_hop_ns_count", "", &hopCount},
		{"ring_views_total", "", &views},
		{"ring_materializes_total", "", &mats},
		{"memlink_transfers_total", "", &mem},
		{"tcplink_frames_total", `dir="tx"`, &tcpFrames},
		{"tcplink_bytes_total", `dir="tx"`, &tcpBytes},
	} {
		v, err := counterDelta(before, after, r.name, r.match)
		if err != nil {
			return err
		}
		*r.v = v
	}
	m["ring.hops"] = hops
	m["ring.bytes_per_rtuple"] = bytesOut / float64(rTuples)
	m["ring.hop_us"] = ratio(hopNs, hopCount) / 1e3
	m["ring.view_share"] = ratio(views, views+mats)
	m["memlink.transfers_per_op"] = mem
	m["tcplink.frames_per_op"] = tcpFrames
	m["tcplink.bytes_per_op"] = tcpBytes
	return nil
}

// ringLayers derives the per-layer metrics that need Ring.Stats, for the
// workloads whose ring the benchmark owns.
func ringLayers(m layerSample, before, after probe, joinTime time.Duration) {
	var busy, stage, stall time.Duration
	var registered int64
	for i, n := range after.nodes {
		b := before.nodes[i]
		busy += n.ProcessTime - b.ProcessTime + n.StageTime - b.StageTime
		stage += n.StageTime - b.StageTime
		stall += n.StallTime - b.StallTime
		registered += n.RegisteredBytes
	}
	nodes := float64(len(after.nodes))
	m["ring.stage_ms"] = ms(stage)
	m["ring.stall_ms"] = ms(stall)
	// Not NodeStats.WaitTime: a node starts waiting for its first
	// fragment when the previous run ends, so the caller's set-up and
	// think time would land in the next revolution's wait.
	m["ring.wait_share"] = 1 - busy.Seconds()/(nodes*joinTime.Seconds())
	m["ring.registered_mb"] = float64(registered) / (1 << 20)
}

// algorithmLayers derives the decorator's per-layer metrics under the
// algorithm's module prefix and zeroes the other algorithm's.
func algorithmLayers(m layerSample, name string, d algSnapshot, nodes int, joinTime time.Duration) {
	hash := name == "hash"
	perTuple := ratio(float64(d.joinNs), float64(d.joinTuples))
	put := func(cond bool, key string, v float64) {
		if !cond {
			v = 0
		}
		m[key] = v
	}
	put(hash, "hashjoin.build_ms", ms(time.Duration(d.setupStationaryNs)))
	put(hash, "hashjoin.reorg_ms", ms(time.Duration(d.setupRotatingNs)))
	put(hash, "hashjoin.probe_ns_per_tuple", perTuple)
	put(hash, "hashjoin.join_calls", float64(d.joinCalls))
	put(!hash, "sortmerge.sort_ms", ms(time.Duration(d.setupStationaryNs)))
	put(!hash, "sortmerge.reorg_ms", ms(time.Duration(d.setupRotatingNs)))
	put(!hash, "sortmerge.merge_ns_per_tuple", perTuple)
	m["join.busy_share"] = float64(d.joinNs) / (float64(nodes) * float64(joinTime.Nanoseconds()))
}

// runtimeLayers derives the process metrics of one traced op.
func runtimeLayers(m layerSample, before, after probe, wall time.Duration, procs int) {
	m["runtime.cpu_util"] = (after.cpu - before.cpu).Seconds() / (wall.Seconds() * float64(procs))
	m["runtime.alloc_mb_per_op"] = float64(after.alloc-before.alloc) / (1 << 20)
	m["runtime.gc_per_op"] = float64(after.gcs - before.gcs)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tail is the highest percentile of xs with at least ten samples beyond
// it, with that percentile. Below 21 samples no percentile above the
// median has ten beyond it, and the maximum stands in.
func tail(xs []float64) (value, percentile float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	i := n - 11
	if i < n/2 {
		return s[n-1], 100
	}
	return s[i], 100 * float64(i+1) / float64(n)
}
