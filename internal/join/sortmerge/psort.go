package sortmerge

import (
	"math/bits"
	"sync"

	"cyclojoin/internal/relation"
)

// The setup-phase sort is a radix sort on the key column that carries each
// tuple's payload block along. The paper names its sort as the place to
// improve (§IV-C.2: "our implementation bears some potential for
// improvement, such as the use of a SIMD-optimized sorting algorithm
// [6]"); a radix sort is the portable analogue.
//
// One scatter on the top eight bits that vary across the keys goes from
// the input straight into the output. Aligning that digit to the varying
// bits rather than to a byte boundary gives up to 256 buckets even when
// the keys span few bytes, so the buckets stay small. Each bucket is then
// LSD-sorted byte by byte below the top digit, skipping bytes that are
// constant in the bucket and ping-ponging with one scratch sized to the
// largest bucket, so memory stays at the output copy plus one bucket.
// Buckets of at most insertionMax tuples take an insertion sort instead.
// Every step is stable, so tuples with equal keys keep their input order.

// insertionMax is the bucket size up to which insertion sort replaces the
// counting passes.
const insertionMax = 32

// minParallel is the input size below which ParallelSortedCopy sorts on
// the calling goroutine: smaller buckets do not pay for a goroutine.
const minParallel = 8192

// SortedCopy returns a copy of r stably sorted by join key. If r is
// already sorted, it is returned unchanged (no copy).
func SortedCopy(r *relation.Relation) *relation.Relation {
	return ParallelSortedCopy(r, 1)
}

// ParallelSortedCopy is SortedCopy with the bucket sorts split across
// `workers` goroutines. The buckets of the top-digit scatter are disjoint
// key ranges laid out in order, so each worker sorts a contiguous range of
// them in place and no merge follows. The result is identical to
// SortedCopy's for any worker count.
func ParallelSortedCopy(r *relation.Relation, workers int) *relation.Relation {
	if IsSorted(r) {
		return r
	}
	keys, pay := r.Keys(), r.PayloadColumn()
	n, w := len(keys), r.Schema().PayloadWidth

	var varying uint64
	for _, k := range keys {
		varying |= k ^ keys[0]
	}
	shift := uint(max(bits.Len64(varying)-8, 0))
	var bounds [257]int
	count(keys, shift, (*[256]int)(bounds[1:]))
	for b := 1; b <= 256; b++ {
		bounds[b] += bounds[b-1]
	}
	outKeys, outPay := make([]uint64, n), make([]byte, len(pay))
	off := [256]int(bounds[:256])
	scatter(keys, pay, outKeys, outPay, w, shift, &off)

	// Keys in one bucket agree on every bit from shift up, so only the
	// bytes that hold lower bits can still be out of order.
	digits := int(shift+7) / 8
	sortRange := func(lo, hi int) {
		x := newRadix(&bounds, lo, hi, w)
		for b := lo; b < hi; b++ {
			s, e := bounds[b], bounds[b+1]
			if e-s > 1 {
				x.sortBucket(outKeys[s:e], outPay[s*w:e*w], digits)
			}
		}
	}
	if workers <= 1 || n < minParallel {
		sortRange(0, 256)
	} else {
		var wg sync.WaitGroup
		lo := 0
		for i := 1; i <= workers; i++ {
			// Worker i takes every bucket that starts before its share
			// of the tuples ends.
			target, hi := n*i/workers, lo
			for hi < 256 && bounds[hi] < target {
				hi++
			}
			if hi > lo {
				wg.Add(1)
				go func(lo, hi int) {
					defer wg.Done()
					sortRange(lo, hi)
				}(lo, hi)
			}
			lo = hi
		}
		wg.Wait()
	}

	out, err := relation.Wrap(r.Schema(), outKeys, outPay)
	if err != nil {
		// The columns are sized from r's; unreachable.
		panic(err)
	}
	return out
}

// IsSorted reports whether r's keys are non-decreasing.
func IsSorted(r *relation.Relation) bool {
	keys := r.Keys()
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			return false
		}
	}
	return true
}

// count adds up, per value, the byte at shift of every key.
//
//cyclolint:hotpath
func count(keys []uint64, shift uint, counts *[256]int) {
	for _, k := range keys {
		counts[byte(k>>shift)]++
	}
}

// scatter is one stable counting-sort pass on the byte at shift: tuple i
// of src goes to slot off[digit] of dst, which then advances. Payload
// blocks of width w move with their keys.
//
//cyclolint:hotpath
func scatter(srcKeys []uint64, srcPay []byte, dstKeys []uint64, dstPay []byte, w int, shift uint, off *[256]int) {
	switch w {
	case 0:
		for _, k := range srcKeys {
			b := byte(k >> shift)
			dstKeys[off[b]] = k
			off[b]++
		}
		return
	case 4:
		// The paper's 12-byte tuple: a fixed-size block move instead of
		// a memmove call per tuple.
		for i, k := range srcKeys {
			b := byte(k >> shift)
			j := off[b]
			off[b] = j + 1
			dstKeys[j] = k
			*(*[4]byte)(dstPay[4*j:]) = *(*[4]byte)(srcPay[4*i:])
		}
		return
	}
	for i, k := range srcKeys {
		b := byte(k >> shift)
		j := off[b]
		off[b] = j + 1
		dstKeys[j] = k
		copy(dstPay[j*w:(j+1)*w], srcPay[i*w:(i+1)*w])
	}
}

// radix is one worker's scratch for the bucket sorts: room for the
// largest bucket it sorts, plus the payload width.
type radix struct {
	keys []uint64
	pay  []byte
	w    int
}

// newRadix sizes the scratch for buckets [lo, hi) of bounds.
func newRadix(bounds *[257]int, lo, hi, w int) *radix {
	largest := 1
	for b := lo; b < hi; b++ {
		largest = max(largest, bounds[b+1]-bounds[b])
	}
	return &radix{keys: make([]uint64, largest), pay: make([]byte, largest*w), w: w}
}

// sortBucket stably sorts one bucket in place on its low `digits` bytes;
// the higher bits are equal across the bucket.
func (x *radix) sortBucket(keys []uint64, pay []byte, digits int) {
	n, w := len(keys), x.w
	if n <= insertionMax {
		x.insertion(keys, pay)
		return
	}
	src, srcPay := keys, pay
	dst, dstPay := x.keys[:n], x.pay[:n*w]
	for d := 0; d < digits; d++ {
		shift := uint(8 * d)
		var off [256]int
		count(src, shift, &off)
		if off[byte(src[0]>>shift)] == n {
			continue // constant byte: already in order
		}
		for b, sum := 0, 0; b < 256; b++ {
			off[b], sum = sum, sum+off[b]
		}
		scatter(src, srcPay, dst, dstPay, w, shift, &off)
		src, dst = dst, src
		srcPay, dstPay = dstPay, srcPay
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
		copy(pay, srcPay)
	}
}

// insertion stably sorts a small bucket in place, shifting each
// out-of-order tuple's key and payload block down to its slot.
//
//cyclolint:hotpath
func (x *radix) insertion(keys []uint64, pay []byte) {
	w := x.w
	tmp := x.pay[:w]
	for i := 1; i < len(keys); i++ {
		k := keys[i]
		j := i
		for j > 0 && keys[j-1] > k {
			j--
		}
		if j == i {
			continue
		}
		copy(keys[j+1:i+1], keys[j:i])
		keys[j] = k
		copy(tmp, pay[i*w:(i+1)*w])
		copy(pay[(j+1)*w:(i+1)*w], pay[j*w:i*w])
		copy(pay[j*w:(j+1)*w], tmp)
	}
}
