package join

import (
	"sync"
	"sync/atomic"

	"cyclojoin/internal/relation"
)

// Collector receives join matches. Implementations must be safe for
// concurrent use: the multi-threaded join phases emit from several
// goroutines at once (§IV-C: "uses all four cores ... to run the join phase
// in parallel").
type Collector interface {
	// Emit records one match between an R tuple (rKey, rPay) and an S
	// tuple (sKey, sPay). The payload slices are only valid during the
	// call; implementations that retain them must copy.
	Emit(rKey, sKey uint64, rPay, sPay []byte)
}

// RunCollector is the optional batch path of a Collector: a join phase
// that finds all of one R tuple's matches as a contiguous stretch of the
// stationary fragment (the sort-merge window) hands them over in one call
// instead of one Emit per match.
type RunCollector interface {
	Collector
	// EmitRun records the matches of one R tuple (rKey, rPay) with the S
	// tuples sKeys[i], whose payloads are the consecutive equal-width
	// blocks of sPay. It is equivalent to calling Emit once per S tuple in
	// order. The slices are only valid during the call.
	EmitRun(rKey uint64, rPay []byte, sKeys []uint64, sPay []byte)
}

// Runs returns c's run path: c itself when it implements RunCollector,
// otherwise an adapter that loops Emit. Join phases resolve it once per
// call, so the per-tuple path never type-switches.
func Runs(c Collector) RunCollector {
	if rc, ok := c.(RunCollector); ok {
		return rc
	}
	return emitLoop{c}
}

// emitLoop adapts an Emit-only collector to RunCollector.
type emitLoop struct{ Collector }

// EmitRun implements RunCollector.
func (e emitLoop) EmitRun(rKey uint64, rPay []byte, sKeys []uint64, sPay []byte) {
	w := runWidth(sKeys, sPay)
	for i, sKey := range sKeys {
		e.Emit(rKey, sKey, rPay, blockAt(sPay, i, w))
	}
}

// runWidth is the payload width of a run's S tuples.
func runWidth(sKeys []uint64, sPay []byte) int {
	if len(sKeys) == 0 {
		return 0
	}
	return len(sPay) / len(sKeys)
}

// blockAt returns payload block i of width w; nil when w is 0, as
// relation.Payload does.
func blockAt(pay []byte, i, w int) []byte {
	if w == 0 {
		return nil
	}
	return pay[i*w : (i+1)*w : (i+1)*w]
}

// Counter counts matches. The zero value is ready to use.
type Counter struct {
	n atomic.Int64
}

var _ RunCollector = (*Counter)(nil)

// Emit implements Collector.
func (c *Counter) Emit(rKey, sKey uint64, rPay, sPay []byte) { c.n.Add(1) }

// EmitRun implements RunCollector: one atomic add per run.
func (c *Counter) EmitRun(rKey uint64, rPay []byte, sKeys []uint64, sPay []byte) {
	c.n.Add(int64(len(sKeys)))
}

// Count returns the number of matches emitted so far.
func (c *Counter) Count() int64 { return c.n.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n.Store(0) }

// Discard drops all matches; useful for benchmarking the pure join cost.
type Discard struct{}

var _ RunCollector = Discard{}

// Emit implements Collector.
func (Discard) Emit(rKey, sKey uint64, rPay, sPay []byte) {}

// EmitRun implements RunCollector.
func (Discard) EmitRun(rKey uint64, rPay []byte, sKeys []uint64, sPay []byte) {}

// Materializer builds the join result as a relation. The output schema is
//
//	key      = rKey
//	payload  = rPay ‖ sKey (8 bytes little-endian) ‖ sPay
//
// so the result of one cyclo-join run can feed a subsequent run, keyed on
// the R side (the ternary-join composition of §IV-A). Use Rekeyed to key the
// output on the S side instead.
type Materializer struct {
	mu  sync.Mutex
	out *relation.Relation
	// rekey selects sKey as the output key when true.
	rekey bool
}

var _ RunCollector = (*Materializer)(nil)

// NewMaterializer builds a collector producing tuples keyed on rKey.
// rPayWidth and sPayWidth are the payload widths of the two inputs.
func NewMaterializer(name string, rPayWidth, sPayWidth int) *Materializer {
	return &Materializer{
		out: relation.New(relation.Schema{
			Name:         name,
			PayloadWidth: rPayWidth + relation.KeyWidth + sPayWidth,
		}, 0),
	}
}

// NewRekeyedMaterializer builds a collector producing tuples keyed on sKey,
// with payload rKey ‖ rPay ‖ sPay.
func NewRekeyedMaterializer(name string, rPayWidth, sPayWidth int) *Materializer {
	m := NewMaterializer(name, rPayWidth, sPayWidth)
	m.rekey = true
	return m
}

// Emit implements Collector.
func (m *Materializer) Emit(rKey, sKey uint64, rPay, sPay []byte) {
	key, pay := m.row(make([]byte, 0, len(rPay)+relation.KeyWidth+len(sPay)), rKey, sKey, rPay, sPay)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.append(key, pay)
}

// EmitRun implements RunCollector: the run's rows go in under one lock.
func (m *Materializer) EmitRun(rKey uint64, rPay []byte, sKeys []uint64, sPay []byte) {
	w := runWidth(sKeys, sPay)
	buf := make([]byte, 0, len(rPay)+relation.KeyWidth+w)
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, sKey := range sKeys {
		var key uint64
		key, buf = m.row(buf[:0], rKey, sKey, rPay, blockAt(sPay, i, w))
		m.append(key, buf)
	}
}

// row appends the output payload of one match to dst and returns the
// output key with it.
func (m *Materializer) row(dst []byte, rKey, sKey uint64, rPay, sPay []byte) (uint64, []byte) {
	if m.rekey {
		dst = appendKeyLE(dst, rKey)
		dst = append(dst, rPay...)
		return sKey, append(dst, sPay...)
	}
	dst = append(dst, rPay...)
	dst = appendKeyLE(dst, sKey)
	return rKey, append(dst, sPay...)
}

// append adds one output tuple; m.mu must be held.
func (m *Materializer) append(key uint64, pay []byte) {
	if err := m.out.Append(key, pay); err != nil {
		// Width is fixed by construction; a mismatch is a programming
		// error in this package, not a runtime condition.
		panic(err)
	}
}

func appendKeyLE(dst []byte, k uint64) []byte {
	for i := 0; i < 8; i++ {
		dst = append(dst, byte(k>>(8*i)))
	}
	return dst
}

// Result returns the materialized output relation.
func (m *Materializer) Result() *relation.Relation {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.out
}

// PairSet records matches as (rKey, sKey) multiset counts — the
// order-insensitive representation the tests use to compare algorithms
// against the nested-loops oracle.
type PairSet struct {
	mu    sync.Mutex
	pairs map[[2]uint64]int
}

var _ RunCollector = (*PairSet)(nil)

// NewPairSet returns an empty pair multiset collector.
func NewPairSet() *PairSet {
	return &PairSet{pairs: make(map[[2]uint64]int)}
}

// Emit implements Collector.
func (p *PairSet) Emit(rKey, sKey uint64, rPay, sPay []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pairs[[2]uint64{rKey, sKey}]++
}

// EmitRun implements RunCollector.
func (p *PairSet) EmitRun(rKey uint64, rPay []byte, sKeys []uint64, sPay []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, sKey := range sKeys {
		p.pairs[[2]uint64{rKey, sKey}]++
	}
}

// Pairs returns a copy of the pair multiset.
func (p *PairSet) Pairs() map[[2]uint64]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	cp := make(map[[2]uint64]int, len(p.pairs))
	for k, v := range p.pairs {
		cp[k] = v
	}
	return cp
}

// Equal reports whether two pair multisets are identical.
func (p *PairSet) Equal(o *PairSet) bool {
	a, b := p.Pairs(), o.Pairs()
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// Tee fans one match stream out to several collectors.
type Tee []Collector

var _ RunCollector = Tee(nil)

// Emit implements Collector.
func (t Tee) Emit(rKey, sKey uint64, rPay, sPay []byte) {
	for _, c := range t {
		c.Emit(rKey, sKey, rPay, sPay)
	}
}

// EmitRun implements RunCollector: each member takes the run through its
// own run path, or through the Emit-loop adapter.
func (t Tee) EmitRun(rKey uint64, rPay []byte, sKeys []uint64, sPay []byte) {
	for _, c := range t {
		Runs(c).EmitRun(rKey, rPay, sKeys, sPay)
	}
}
