package hashjoin

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"cyclojoin/internal/join"
	"cyclojoin/internal/join/jointest"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/workload"
)

func TestSupports(t *testing.T) {
	var j Join
	if !j.Supports(join.Equi{}) {
		t.Error("must support equi")
	}
	if j.Supports(join.Band{Width: 1}) {
		t.Error("must not support band")
	}
	if j.Supports(join.Theta{Fn: func(a, b uint64) bool { return true }}) {
		t.Error("must not support theta")
	}
}

func TestSetupRejectsUnsupportedPredicate(t *testing.T) {
	var j Join
	r := workload.Sequential("R", 4, 0)
	if _, err := j.SetupStationary(r, join.Band{Width: 1}, join.Options{}); err == nil {
		t.Error("SetupStationary(band): want error")
	}
	if _, err := j.SetupRotating(r, join.Band{Width: 1}, join.Options{}); err == nil {
		t.Error("SetupRotating(band): want error")
	}
}

func TestMatchesOracleSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tests := []struct {
		name       string
		rN, sN     int
		domain     int
		pay        int
		par        int
		l2Override int
	}{
		{"tiny", 10, 10, 5, 4, 1, 0},
		{"duplicates heavy", 200, 300, 10, 4, 1, 0},
		{"wide domain", 500, 400, 100000, 4, 1, 0},
		{"no payload", 100, 100, 50, 0, 1, 0},
		{"parallel", 1000, 800, 64, 4, 4, 0},
		{"forced multi-partition", 2000, 2000, 256, 4, 2, 1 << 10},
		{"empty R", 0, 50, 10, 4, 1, 0},
		{"empty S", 50, 0, 10, 4, 1, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := jointest.RandomRelation(rng, "R", tt.rN, tt.domain, tt.pay)
			s := jointest.RandomRelation(rng, "S", tt.sN, tt.domain, tt.pay)
			opts := join.Options{Parallelism: tt.par, L2CacheBytes: tt.l2Override}
			jointest.CheckAgainstOracle(t, Join{}, r, s, join.Equi{}, opts)
		})
	}
}

// TestMatchesOracleProperty drives the radix join with quick-generated keys.
func TestMatchesOracleProperty(t *testing.T) {
	f := func(rKeys, sKeys []uint64) bool {
		// Shrink the domain so matches actually occur.
		for i := range rKeys {
			rKeys[i] %= 64
		}
		for i := range sKeys {
			sKeys[i] %= 64
		}
		r := relation.FromKeys(relation.Schema{Name: "R"}, rKeys)
		s := relation.FromKeys(relation.Schema{Name: "S"}, sKeys)
		want := join.NewPairSet()
		jointest.Oracle(r, s, join.Equi{}, want)
		st, err := Join{}.SetupStationary(s, join.Equi{}, join.Options{L2CacheBytes: 512})
		if err != nil {
			return false
		}
		got := join.NewPairSet()
		if err := st.Join(r, got); err != nil {
			return false
		}
		return got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSetupRotatingPreservesMultiset(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := jointest.RandomRelation(rng, "R", 1000, 32, 4)
	rot, err := Join{}.SetupRotating(r, join.Equi{}, join.Options{L2CacheBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if rot.Len() != r.Len() {
		t.Fatalf("rotated len %d != %d", rot.Len(), r.Len())
	}
	if got, want := workload.Multiplicities(rot), workload.Multiplicities(r); len(got) != len(want) {
		t.Fatal("distinct key count changed")
	} else {
		for k, c := range want {
			if got[k] != c {
				t.Errorf("key %d multiplicity %d, want %d", k, got[k], c)
			}
		}
	}
}

// TestSetupRotatingClusters verifies the clustered layout: the hash
// prefix that selects a table window never decreases along the shipped R.
func TestSetupRotatingClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	r := jointest.RandomRelation(rng, "R", 20_000, 1<<20, 4)
	opts := join.Options{L2CacheBytes: 1 << 10, Parallelism: 3}
	if RadixBits(r.Bytes(), opts) == 0 {
		t.Fatal("test needs a fragment above the clustering threshold")
	}
	rot, err := Join{}.SetupRotating(r, join.Equi{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	prev := uint64(0)
	for i := 0; i < rot.Len(); i++ {
		c := relation.HashKey(rot.Key(i)) >> (64 - clusterBits)
		if c < prev {
			t.Fatalf("tuple %d: cluster %d after cluster %d: layout not clustered", i, c, prev)
		}
		prev = c
	}
}

// TestSmallFragmentShippedAsIs: a fragment below the clustering threshold
// is returned as the same relation, not a copy.
func TestSmallFragmentShippedAsIs(t *testing.T) {
	r := workload.Sequential("R", 1000, 4)
	opts := join.Options{}
	if RadixBits(r.Bytes(), opts) != 0 {
		t.Fatal("test needs a fragment below the clustering threshold")
	}
	rot, err := Join{}.SetupRotating(r, join.Equi{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rot != r {
		t.Error("small fragment was copied")
	}
}

func TestRadixBits(t *testing.T) {
	tests := []struct {
		bytes, l2 int
		want      int
	}{
		{0, 1 << 20, 0},
		{100, 1 << 20, 0},     // fits in a quarter of L2
		{1 << 20, 1 << 20, 3}, // 2*1MB over 256KB target → 8 parts
		{64 << 20, join.DefaultL2Bytes, 7},
		{1 << 40, 1 << 20, 14}, // clamped
	}
	for _, tt := range tests {
		opts := join.Options{L2CacheBytes: tt.l2}
		if got := RadixBits(tt.bytes, opts); got != tt.want {
			t.Errorf("RadixBits(%d, l2=%d) = %d, want %d", tt.bytes, tt.l2, got, tt.want)
		}
	}
}

// TestTableInvariants checks the built table for several share sizes:
// the offsets are monotone and end at n, every key sits in its own
// bucket, and the columns hold the share's tuples.
func TestTableInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 255, 256, 20_000, 40_000} {
		s := jointest.RandomRelation(rng, "S", n, 1<<20, 4)
		st := setup(t, s, join.Options{Parallelism: 2})
		if got, want := len(st.off), 1<<bucketBits(n)+1; got != want {
			t.Fatalf("n=%d: %d offsets, want %d", n, got, want)
		}
		if (1<<bucketBits(n)) < 2*n || bucketBits(n) < clusterBits {
			t.Fatalf("n=%d: %d bucket bits are too few", n, bucketBits(n))
		}
		if st.off[0] != 0 || int(st.off[len(st.off)-1]) != n {
			t.Fatalf("n=%d: offsets span [%d, %d]", n, st.off[0], st.off[len(st.off)-1])
		}
		for b := 0; b+1 < len(st.off); b++ {
			if st.off[b] > st.off[b+1] {
				t.Fatalf("n=%d: off[%d]=%d > off[%d]=%d", n, b, st.off[b], b+1, st.off[b+1])
			}
			for j := st.off[b]; j < st.off[b+1]; j++ {
				if got := relation.HashKey(st.keys[j]) >> st.shift; got != uint64(b) {
					t.Fatalf("n=%d: key %d in bucket %d, hashes to %d", n, st.keys[j], b, got)
				}
			}
		}
		want, got := map[string]int{}, map[string]int{}
		for i := 0; i < n; i++ {
			want[fmt.Sprint(s.Key(i), s.Payload(i))]++
			got[fmt.Sprint(st.keys[i], st.pay[4*i:4*i+4])]++
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: table does not hold the share's tuples", n)
		}
	}
}

func TestStationaryBytesPositive(t *testing.T) {
	s := workload.Sequential("S", 100, 4)
	st, err := Join{}.SetupStationary(s, join.Equi{}, join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes() < s.Bytes() {
		t.Errorf("Bytes() = %d, want ≥ data volume %d", st.Bytes(), s.Bytes())
	}
}

func TestParallelProbeEqualsSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	r := jointest.RandomRelation(rng, "R", 3000, 100, 4)
	s := jointest.RandomRelation(rng, "S", 3000, 100, 4)
	run := func(par int) *join.PairSet {
		st, err := Join{}.SetupStationary(s, join.Equi{}, join.Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		ps := join.NewPairSet()
		if err := st.Join(r, ps); err != nil {
			t.Fatal(err)
		}
		return ps
	}
	serial, parallel := run(1), run(8)
	if !serial.Equal(parallel) {
		t.Error("parallel probe output differs from serial")
	}
}

func TestSelfJoinCount(t *testing.T) {
	// Self-join of a relation with unique keys has exactly n matches.
	s := workload.Sequential("S", 5000, 4)
	st, err := Join{}.SetupStationary(s, join.Equi{}, join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var c join.Counter
	if err := st.Join(s, &c); err != nil {
		t.Fatal(err)
	}
	if c.Count() != 5000 {
		t.Errorf("self-join count = %d, want 5000", c.Count())
	}
}

// setup builds s's table.
func setup(t *testing.T, s *relation.Relation, opts join.Options) *stationary {
	t.Helper()
	st, err := Join{}.SetupStationary(s, join.Equi{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st.(*stationary)
}

// TestCollidingKeysInOneBucket: two keys that share a bucket interleave in
// it, so equal keys are not contiguous; every match must still go out
// exactly once.
func TestCollidingKeysInOneBucket(t *testing.T) {
	const k1 = 7
	k2 := uint64(k1 + 1)
	for relation.HashKey(k2)>>(64-clusterBits) != relation.HashKey(k1)>>(64-clusterBits) {
		k2++
	}
	sKeys := []uint64{k1, k2, k1, k2, k1, k2, k2}
	s := relation.FromKeys(relation.Schema{Name: "S", PayloadWidth: 4}, sKeys)
	st := setup(t, s, join.Options{})
	b := relation.HashKey(k1) >> st.shift
	if bucket := st.keys[st.off[b]:st.off[b+1]]; len(bucket) != len(sKeys) || bucket[0] == bucket[1] {
		t.Fatalf("bucket %v: test needs the keys interleaved in one bucket", bucket)
	}
	r := relation.FromKeys(relation.Schema{Name: "R", PayloadWidth: 4}, []uint64{k1, k2, k1, k2 + 1})
	jointest.CheckAgainstOracle(t, Join{}, r, s, join.Equi{}, join.Options{})
	var c join.Counter
	if err := st.Join(r, &c); err != nil {
		t.Fatal(err)
	}
	if c.Count() != 2*3+4 {
		t.Errorf("count = %d, want 10", c.Count())
	}
}

// TestHashPartitionedShare joins against an S share cut by
// relation.PartitionByHash, whose keys agree on the low bits of the hash
// the table buckets on.
func TestHashPartitionedShare(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := jointest.RandomRelation(rng, "S", 40_000, 30_000, 4)
	r := jointest.RandomRelation(rng, "R", 20_000, 30_000, 4)
	shares, err := relation.PartitionByHash(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	jointest.CheckAgainstOracle(t, Join{}, r, shares[1].Rel, join.Equi{}, join.Options{L2CacheBytes: 64 << 10})
}

// TestParallelClusterEqualsSequential: the setup passes split across
// goroutines produce byte-identical tables and clustered fragments.
func TestParallelClusterEqualsSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, n := range []int{0, 100, 8192, 16384, 60_000} {
		for _, w := range []int{0, 4, 13} {
			r := jointest.RandomRelation(rng, "R", n, 10_000, w)
			if w == 13 {
				// One key: every cluster but one is empty.
				r = jointest.RandomRelation(rng, "R", n, 1, w)
			}
			opts := join.Options{Parallelism: 1, L2CacheBytes: 1 << 10}
			seq := setup(t, r, opts)
			seqRot, err := Join{}.SetupRotating(r, join.Equi{}, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{2, 4} {
				opts.Parallelism = par
				got := setup(t, r, opts)
				if !reflect.DeepEqual(got.off, seq.off) || !reflect.DeepEqual(got.keys, seq.keys) ||
					!bytes.Equal(got.pay, seq.pay) {
					t.Fatalf("n=%d w=%d: table at parallelism %d differs from the sequential one", n, w, par)
				}
				rot, err := Join{}.SetupRotating(r, join.Equi{}, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !rot.Equal(seqRot) {
					t.Fatalf("n=%d w=%d: clustered R at parallelism %d differs from the sequential one", n, w, par)
				}
			}
		}
	}
}

// TestParallelClusterJoinCorrect: the full join pipeline on top of the
// parallel setup passes still matches the oracle.
func TestParallelClusterJoinCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	r := jointest.RandomRelation(rng, "R", 30_000, 2_000, 4)
	s := jointest.RandomRelation(rng, "S", 30_000, 2_000, 4)
	jointest.CheckAgainstOracle(t, Join{}, r, s, join.Equi{},
		join.Options{Parallelism: 4, L2CacheBytes: 64 << 10})
}
