package sortmerge

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"cyclojoin/internal/join/jointest"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/workload"
)

func TestParallelSortedCopyEqualsSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{0, 1, 100, 4095, 4096, 8192, 50_000} {
		for _, workers := range []int{1, 2, 4, 7} {
			r := jointest.RandomRelation(rng, "R", n, 1000, 4)
			seq := SortedCopy(r)
			par := ParallelSortedCopy(r, workers)
			// The key sequence and the (key, payload) multiset must
			// match exactly; TestSortedCopyMatchesStableOracle pins the
			// payload order among equal keys too.
			if par.Len() != seq.Len() {
				t.Fatalf("n=%d workers=%d: length %d vs %d", n, workers, par.Len(), seq.Len())
			}
			for i := 0; i < par.Len(); i++ {
				if par.Key(i) != seq.Key(i) {
					t.Fatalf("n=%d workers=%d: key order differs at %d", n, workers, i)
				}
			}
			if !sameTupleMultiset(par, seq) {
				t.Errorf("n=%d workers=%d: tuple multiset differs", n, workers)
			}
		}
	}
}

// sameTupleMultiset compares two relations as multisets of (key, payload)
// tuples.
func sameTupleMultiset(a, b *relation.Relation) bool {
	count := func(r *relation.Relation) map[string]int {
		m := make(map[string]int, r.Len())
		buf := make([]byte, 0, 8+r.Schema().PayloadWidth)
		for i := 0; i < r.Len(); i++ {
			buf = buf[:0]
			k := r.Key(i)
			for s := 0; s < 64; s += 8 {
				buf = append(buf, byte(k>>s))
			}
			buf = append(buf, r.Payload(i)...)
			m[string(buf)]++
		}
		return m
	}
	ma, mb := count(a), count(b)
	if len(ma) != len(mb) {
		return false
	}
	for k, v := range ma {
		if mb[k] != v {
			return false
		}
	}
	return true
}

func TestParallelSortedCopyDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	r := jointest.RandomRelation(rng, "R", 20_000, 100, 4)
	snapshot := r.Clone()
	_ = ParallelSortedCopy(r, 4)
	if !r.Equal(snapshot) {
		t.Error("input mutated")
	}
}

func TestParallelSortedCopyAlreadySorted(t *testing.T) {
	r := workload.Sequential("R", 20_000, 4)
	if ParallelSortedCopy(r, 4) != r {
		t.Error("already-sorted input should be returned unchanged")
	}
}

// TestParallelSortProperty: sortedness plus multiset preservation, with
// payloads still attached to their keys.
func TestParallelSortProperty(t *testing.T) {
	f := func(keys []uint64, workersRaw uint8) bool {
		workers := int(workersRaw%6) + 1
		rel := relation.New(relation.Schema{Name: "R", PayloadWidth: 2}, len(keys))
		for _, k := range keys {
			k %= 500
			if err := rel.Append(k, []byte{byte(k), byte(k >> 4)}); err != nil {
				return false
			}
		}
		sorted := ParallelSortedCopy(rel, workers)
		if !IsSorted(sorted) || sorted.Len() != rel.Len() {
			return false
		}
		// Payloads must still match their keys.
		for i := 0; i < sorted.Len(); i++ {
			k := sorted.Key(i)
			pay := sorted.Payload(i)
			if pay[0] != byte(k) || pay[1] != byte(k>>4) {
				return false
			}
		}
		got := workload.Multiplicities(sorted)
		want := workload.Multiplicities(rel)
		if len(got) != len(want) {
			return false
		}
		for k, c := range want {
			if got[k] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// stableOracle sorts r's tuples by key with slices.SortStableFunc, so
// equal keys keep their input order: the radix sort's exact contract.
func stableOracle(r *relation.Relation) *relation.Relation {
	idx := make([]int, r.Len())
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(r.Key(a), r.Key(b)) })
	out := relation.New(r.Schema(), r.Len())
	for _, i := range idx {
		if err := out.AppendFrom(r, i); err != nil {
			panic(err)
		}
	}
	return out
}

// checkSort runs SortedCopy and ParallelSortedCopy on r and compares both
// tuple for tuple with the stable oracle. It also checks that the input
// is never mutated and that an already-sorted input comes back as the
// same relation, uncopied.
func checkSort(t *testing.T, r *relation.Relation, workers int) {
	t.Helper()
	want := stableOracle(r)
	snapshot := r.Clone()
	for _, got := range []*relation.Relation{SortedCopy(r), ParallelSortedCopy(r, workers)} {
		if !got.Equal(want) {
			t.Fatalf("sorted output differs from the stable oracle (n=%d width=%d workers=%d)",
				r.Len(), r.Schema().PayloadWidth, workers)
		}
		if sorted := r.Equal(want); sorted != (got == r) {
			t.Fatalf("already sorted = %v, but returned the input itself = %v", sorted, got == r)
		}
	}
	if !r.Equal(snapshot) {
		t.Fatal("input mutated")
	}
	if SortedCopy(want) != want {
		t.Fatal("sorted input should be returned unchanged")
	}
}

// keyDists are the key distributions the sort is checked on.
var keyDists = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []uint64
}{
	{"all-equal", func(rng *rand.Rand, n int) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = 0xdead_beef_0042
		}
		return keys
	}},
	{"high-bit", func(rng *rand.Rand, n int) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = 1<<63 | rng.Uint64()>>1
		}
		return keys
	}},
	{"full-range", func(rng *rand.Rand, n int) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64()
		}
		return keys
	}},
	{"giant-msd-bucket", func(rng *rand.Rand, n int) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = 0x42<<56 | rng.Uint64()>>8
			if rng.Intn(100) == 0 {
				keys[i] = rng.Uint64()
			}
		}
		return keys
	}},
	{"zipf", func(rng *rand.Rand, n int) []uint64 {
		z := rand.NewZipf(rng, 1.2, 1, 1<<40)
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = z.Uint64()
		}
		return keys
	}},
}

// withPayload wraps keys as a relation with random payload blocks of
// width w, so stability and payload movement are both observable.
func withPayload(rng *rand.Rand, keys []uint64, w int) *relation.Relation {
	pay := make([]byte, len(keys)*w)
	rng.Read(pay)
	r, err := relation.Wrap(relation.Schema{Name: "R", PayloadWidth: w}, keys, pay)
	if err != nil {
		panic(err)
	}
	return r
}

func TestSortedCopyMatchesStableOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, dist := range keyDists {
		for _, n := range []int{0, 1, 2, 31, 32, 33, 4097, 3*minParallel + 7} {
			for _, w := range []int{0, 4, 13} {
				t.Run(fmt.Sprintf("%s/n=%d/w=%d", dist.name, n, w), func(t *testing.T) {
					checkSort(t, withPayload(rng, dist.gen(rng, n), w), 3)
				})
			}
		}
	}
}

// TestBucketsEmptyAndSkewed: most top-digit buckets empty, one holding
// nearly all tuples, the rest a few each; every split of the buckets
// across workers must reproduce the stable oracle.
func TestBucketsEmptyAndSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	keys := make([]uint64, 4*minParallel)
	for i := range keys {
		switch i % 50 {
		case 0:
			keys[i] = uint64(rng.Intn(3)) << 56
		case 1:
			keys[i] = 0xff<<56 | uint64(rng.Intn(1000))
		default:
			keys[i] = 0x80<<56 | uint64(rng.Intn(1<<20))
		}
	}
	r := withPayload(rng, keys, 4)
	for _, workers := range []int{1, 2, 3, 8, 300} {
		checkSort(t, r, workers)
	}
}

// TestSortBucketSizes drives one bucket sort directly around the
// insertion-sort cutoff, including buckets that the scatter leaves empty
// or with one tuple.
func TestSortBucketSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for n := 0; n <= insertionMax+2; n++ {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = 7<<56 | uint64(rng.Intn(40))<<20 | uint64(rng.Intn(3))
		}
		r := withPayload(rng, keys, 5)
		want := stableOracle(r)
		got := r.Clone()
		newRadix(&[257]int{1: n}, 0, 1, 5).sortBucket(got.Keys(), got.PayloadColumn(), 7)
		if !got.Equal(want) {
			t.Errorf("bucket of %d tuples: differs from the stable oracle", n)
		}
	}
}

func FuzzSortedCopy(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte("0123456789abcdefghijklmnopqrstuvwxyz"), uint8(4))
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 1<<63), 1), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, wRaw uint8) {
		w := int(wRaw % 16)
		n := len(data) / (relation.KeyWidth + w)
		keys := make([]uint64, n)
		pay := make([]byte, 0, n*w)
		for i := range keys {
			tuple := data[i*(relation.KeyWidth+w):]
			keys[i] = binary.LittleEndian.Uint64(tuple)
			pay = append(pay, tuple[relation.KeyWidth:relation.KeyWidth+w]...)
		}
		r, err := relation.Wrap(relation.Schema{Name: "R", PayloadWidth: w}, keys, pay)
		if err != nil {
			t.Fatal(err)
		}
		checkSort(t, r, 2)
	})
}
