// Package hashjoin implements the hash join that the paper ports from
// MonetDB (§IV-C.1), laid out so that every ring hop probes cache-resident
// data.
//
// The algorithm runs in the two phases cyclo-join expects:
//
//   - setup: order the stationary fragment S_i by the top tb bits of the
//     join key's hash, with 2^tb ≥ 2|S_i|, and keep one offset per bucket.
//     The key and payload columns in bucket order plus the offsets are the
//     whole hash table: a bucket is a contiguous run, with no chains.
//   - join: hash each tuple of the rotating fragment R_j once, read its
//     bucket's bounds and scan the bucket's keys. Payloads are read only
//     for matches.
//
// SetupRotating scatters a rotating fragment once, before its first hop,
// on the top clusterBits bits of the same hash. Those bits are a prefix of
// every table's bucket bits, whatever the size of S_i, so each R cluster
// probes one contiguous 1/256 window of the table, and the window stays in
// cache while the cluster is probed. This is the paper's §IV-D trade: ship
// reorganized data to save CPU on every hop.
//
// The join phase splits R across Options.Parallelism goroutines, as the
// paper runs it on the four cores of its Xeons.
package hashjoin

import (
	"fmt"
	"math/bits"
	"strconv"
	"sync"

	"cyclojoin/internal/join"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/trace"
)

// clusterBits is the width of the hash prefix SetupRotating clusters R on
// and the build's first scatter orders S on.
const clusterBits = 8

// clusters is the number of hash-prefix clusters.
const clusters = 1 << clusterBits

// minPerWorker is the number of tuples per goroutine below which the
// setup passes run on fewer goroutines.
const minPerWorker = 8192

// Join implements join.Algorithm with a hash join over a bucket-ordered
// table. The zero value is ready to use.
type Join struct{}

var _ join.Algorithm = Join{}

// Name implements join.Algorithm.
func (Join) Name() string { return "hash" }

// Supports implements join.Algorithm: hash joins inherently support only
// equality predicates (§IV-C).
func (Join) Supports(p join.Predicate) bool {
	_, ok := p.(join.Equi)
	return ok
}

// SetupStationary implements join.Algorithm: build s's bucket-ordered
// table.
func (j Join) SetupStationary(s *relation.Relation, p join.Predicate, opts join.Options) (join.Stationary, error) {
	if !j.Supports(p) {
		return nil, fmt.Errorf("%w: hash join cannot evaluate %s", join.ErrUnsupportedPredicate, p)
	}
	fl := opts.FlightRecorder()
	bs := fl.Shard(opts.TraceNode, "join/build")
	bpd := bs.Begin(trace.PhaseBuild)
	bpd.Arg = int64(s.Len())
	st := build(s, opts.Workers())
	st.opts = opts
	// One probe track per worker: Join runs the probe phase concurrently
	// and shards are single-producer.
	st.probeShards = make([]*trace.Shard, opts.Workers())
	for w := range st.probeShards {
		st.probeShards[w] = fl.Shard(opts.TraceNode, "join/probe/"+strconv.Itoa(w))
	}
	bs.End(bpd)
	return st, nil
}

// SetupRotating implements join.Algorithm: order the rotating fragment by
// hash cluster, so that the join phase probes the table one window at a
// time. The order is purely an optimization — the probe is
// order-independent. Fragments too small to leave the cache are returned
// unchanged.
func (Join) SetupRotating(r *relation.Relation, p join.Predicate, opts join.Options) (*relation.Relation, error) {
	if _, ok := p.(join.Equi); !ok {
		return nil, fmt.Errorf("%w: hash join cannot evaluate %s", join.ErrUnsupportedPredicate, p)
	}
	if RadixBits(r.Bytes(), opts) == 0 {
		return r, nil
	}
	keys, pay, _ := clusterCopy(r.Keys(), r.PayloadColumn(), r.Schema().PayloadWidth, opts.Workers())
	return relation.Wrap(r.Schema(), keys, pay)
}

// RadixBits is the radix fan-out of [22]'s sizing rule: enough partitions
// that one partition plus its hash table (≈ 2× the partition's data
// volume) fits in a quarter of the L2 cache. Zero means the data already
// fits, which is when SetupRotating leaves a fragment unclustered.
func RadixBits(dataBytes int, opts join.Options) int {
	target := opts.L2Bytes() / 4
	if target <= 0 {
		target = 1
	}
	need := (2*dataBytes + target - 1) / target
	if need <= 1 {
		return 0
	}
	b := bits.Len(uint(need - 1)) // ceil(log2(need))
	const maxBits = 14
	if b > maxBits {
		b = maxBits
	}
	return b
}

// stationary is the prepared stationary fragment: its tuples in bucket
// order plus the bucket offsets. Every field is written by
// SetupStationary and read-only once Join's probe workers start; the
// setup-then-join contract is the happens-before edge.
type stationary struct {
	// shift selects a key's bucket: HashKey(key) >> shift.
	shift uint
	// off holds 2^tb+1 offsets: bucket b is keys[off[b]:off[b+1]].
	off  []int32
	keys []uint64
	pay  []byte
	payW int
	opts join.Options
	// probeShards records per-worker probe spans (index = worker).
	probeShards []*trace.Shard
}

var _ join.Stationary = (*stationary)(nil)

// bucketBits is tb for a share of n tuples: the least tb ≥ clusterBits
// with 2^tb ≥ 2n.
func bucketBits(n int) int {
	return max(clusterBits, bits.Len(uint(max(2*n-1, 0))))
}

// build orders s's tuples by bucket. A first scatter orders them by hash
// cluster; each cluster is then counting-sorted on its remaining bucket
// bits, with its own window of off as the histogram, so that pass stays in
// cache. Clusters are sorted by disjoint sets of workers.
func build(s *relation.Relation, workers int) *stationary {
	w := s.Schema().PayloadWidth
	tb := bucketBits(s.Len())
	keys, pay, bounds := clusterCopy(s.Keys(), s.PayloadColumn(), w, workers)
	st := &stationary{shift: uint(64 - tb), off: make([]int32, 1<<tb+1), keys: keys, pay: pay, payW: w}
	sortRange := func(lo, hi int) {
		largest := 0
		for c := lo; c < hi; c++ {
			largest = max(largest, bounds[c+1]-bounds[c])
		}
		scratchKeys, scratchPay := make([]uint64, largest), make([]byte, largest*w)
		for c := lo; c < hi; c++ {
			st.sortCluster(c, bounds[c], bounds[c+1], tb, scratchKeys, scratchPay)
		}
	}
	n := len(keys)
	workers = max(min(workers, n/minPerWorker), 1)
	// Worker i sorts clusters [cuts[i], cuts[i+1]): those that start
	// before its share of the tuples ends. The last worker also takes
	// trailing empty clusters, whose offsets must be filled too.
	cuts := make([]int, workers+1)
	for i := 1; i < workers; i++ {
		c := cuts[i-1]
		for c < clusters && bounds[c] < n*i/workers {
			c++
		}
		cuts[i] = c
	}
	cuts[workers] = clusters
	each(workers, func(i int) { sortRange(cuts[i], cuts[i+1]) })
	return st
}

// sortCluster orders cluster c, tuples [s, e), by bucket and fills its
// buckets' offsets. It writes off[b+1] for the cluster's buckets b only,
// so clusters sort independently; off[lo] is the previous cluster's end.
func (st *stationary) sortCluster(c, s, e, tb int, scratchKeys []uint64, scratchPay []byte) {
	w := st.payW
	lo, hi := c<<(tb-clusterBits), (c+1)<<(tb-clusterBits)
	// cursor[b] is off[b+1]: it starts at bucket b's first slot and ends
	// at its last slot plus one, which is off[b+1]'s meaning.
	cursor := st.off[1:]
	if hi-lo == 1 {
		// The cluster is a single bucket, already in place.
		cursor[lo] = int32(e)
		return
	}
	count(st.keys[s:e], st.shift, cursor)
	sum := int32(s)
	for b := lo; b < hi; b++ {
		cursor[b], sum = sum, sum+cursor[b]
	}
	sk, sp := scratchKeys[:e-s], scratchPay[:(e-s)*w]
	copy(sk, st.keys[s:e])
	copy(sp, st.pay[s*w:e*w])
	scatter(sk, sp, st.keys, st.pay, w, st.shift, cursor)
}

// clusterCopy copies keys and their payload blocks of width w into new
// columns ordered by hash cluster, and returns the columns and the cluster
// bounds: cluster c is [bounds[c], bounds[c+1]). Within a cluster tuples
// keep their input order. Workers count and then scatter contiguous input
// ranges, each with its own histogram, so the result is the same for any
// worker count.
func clusterCopy(keys []uint64, pay []byte, w, workers int) ([]uint64, []byte, [clusters + 1]int) {
	n := len(keys)
	workers = max(min(workers, n/minPerWorker), 1)
	hist := make([][clusters]int32, workers)
	shift := uint(64 - clusterBits)
	each(workers, func(i int) {
		lo, hi := n*i/workers, n*(i+1)/workers
		count(keys[lo:hi], shift, hist[i][:])
	})
	// Exclusive prefix sums: hist[i][c] becomes where worker i writes its
	// first tuple of cluster c.
	var bounds [clusters + 1]int
	sum := int32(0)
	for c := 0; c < clusters; c++ {
		bounds[c] = int(sum)
		for i := range hist {
			hist[i][c], sum = sum, sum+hist[i][c]
		}
	}
	bounds[clusters] = n
	outKeys, outPay := make([]uint64, n), make([]byte, len(pay))
	each(workers, func(i int) {
		lo, hi := n*i/workers, n*(i+1)/workers
		scatter(keys[lo:hi], pay[lo*w:hi*w], outKeys, outPay, w, shift, hist[i][:])
	})
	return outKeys, outPay, bounds
}

// each runs f(0), …, f(workers-1), concurrently when workers > 1.
func each(workers int, f func(i int)) {
	if workers == 1 {
		f(0)
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f(i)
		}(i)
	}
	wg.Wait()
}

// count adds one to cnt[HashKey(k)>>shift] for every key.
//
//cyclolint:hotpath
func count(keys []uint64, shift uint, cnt []int32) {
	for _, k := range keys {
		cnt[relation.HashKey(k)>>shift]++
	}
}

// scatter moves each key to slot off[HashKey(key)>>shift] of dstKeys,
// which then advances, and its payload block of width w to the same slot
// of dstPay. The paper's 12-byte tuple moves its payload as a fixed-size
// block instead of one copy call per tuple.
//
//cyclolint:hotpath
func scatter(keys []uint64, pay []byte, dstKeys []uint64, dstPay []byte, w int, shift uint, off []int32) {
	switch w {
	case 0:
		for _, k := range keys {
			b := relation.HashKey(k) >> shift
			dstKeys[off[b]] = k
			off[b]++
		}
	case 4:
		for i, k := range keys {
			b := relation.HashKey(k) >> shift
			j := off[b]
			off[b] = j + 1
			dstKeys[j] = k
			*(*[4]byte)(dstPay[4*j:]) = *(*[4]byte)(pay[4*i:])
		}
	default:
		for i, k := range keys {
			b := relation.HashKey(k) >> shift
			j := int(off[b])
			off[b]++
			dstKeys[j] = k
			copy(dstPay[j*w:(j+1)*w], pay[i*w:(i+1)*w])
		}
	}
}

// Bytes implements join.Stationary: the ordered columns plus the offsets.
func (st *stationary) Bytes() int {
	return len(st.keys)*8 + len(st.pay) + len(st.off)*4
}

// Join implements join.Stationary: probe every tuple of r against its
// bucket, splitting r across Options.Parallelism workers. Contiguous
// ranges of a clustered r keep each worker's probes inside a few table
// windows.
func (st *stationary) Join(r *relation.Relation, c join.Collector) error {
	n := r.Len()
	if n == 0 {
		return nil
	}
	workers := min(st.opts.Workers(), n)
	rc := join.Runs(c)
	if workers == 1 {
		// Called once per hop: no closure for each to allocate.
		st.joinRange(r, 0, n, 0, rc)
		return nil
	}
	each(workers, func(w int) {
		st.joinRange(r, n*w/workers, n*(w+1)/workers, w, rc)
	})
	return nil
}

func (st *stationary) joinRange(r *relation.Relation, lo, hi, worker int, rc join.RunCollector) {
	ps := st.probeShards[worker]
	pd := ps.Begin(trace.PhaseProbe)
	pd.Arg = int64(hi - lo)
	st.probe(r, lo, hi, rc)
	ps.End(pd)
}

// probe emits the matches of r's tuples [lo, hi). A bucket may mix keys
// that share its hash bits, so each run of equal keys goes out as one
// EmitRun.
//
//cyclolint:hotpath
func (st *stationary) probe(r *relation.Relation, lo, hi int, rc join.RunCollector) {
	keys, pay, off, w, shift := st.keys, st.pay, st.off, st.payW, st.shift
	for i, k := range r.Keys()[lo:hi] {
		b := relation.HashKey(k) >> shift
		end := int(off[b+1])
		for j := int(off[b]); j < end; j++ {
			if keys[j] != k {
				continue
			}
			e := j + 1
			for e < end && keys[e] == k {
				e++
			}
			rc.EmitRun(k, r.Payload(lo+i), keys[j:e], pay[j*w:e*w])
			// keys[e], if in the bucket, is another key: skip it too.
			j = e
		}
	}
}
