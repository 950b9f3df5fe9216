package sortmerge

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cyclojoin/internal/join"
	"cyclojoin/internal/join/jointest"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/workload"
)

func TestSupports(t *testing.T) {
	var j Join
	if !j.Supports(join.Equi{}) || !j.Supports(join.Band{Width: 3}) {
		t.Error("must support equi and band")
	}
	if j.Supports(join.Theta{Fn: func(a, b uint64) bool { return true }}) {
		t.Error("must not support theta")
	}
}

func TestSetupRejectsTheta(t *testing.T) {
	r := workload.Sequential("R", 4, 0)
	theta := join.Theta{Fn: func(a, b uint64) bool { return true }}
	if _, err := (Join{}).SetupStationary(r, theta, join.Options{}); err == nil {
		t.Error("SetupStationary(theta): want error")
	}
	if _, err := (Join{}).SetupRotating(r, theta, join.Options{}); err == nil {
		t.Error("SetupRotating(theta): want error")
	}
}

func TestEquiMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tests := []struct {
		name   string
		rN, sN int
		domain int
		par    int
	}{
		{"tiny", 10, 10, 5, 1},
		{"duplicates", 300, 200, 8, 1},
		{"sparse", 400, 500, 100000, 1},
		{"parallel", 1500, 1200, 64, 4},
		{"empty R", 0, 10, 5, 1},
		{"empty S", 10, 0, 5, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := jointest.RandomRelation(rng, "R", tt.rN, tt.domain, 4)
			s := jointest.RandomRelation(rng, "S", tt.sN, tt.domain, 4)
			jointest.CheckAgainstOracle(t, Join{}, r, s, join.Equi{}, join.Options{Parallelism: tt.par})
		})
	}
}

func TestBandMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, width := range []uint64{0, 1, 3, 10, 1000} {
		r := jointest.RandomRelation(rng, "R", 300, 200, 4)
		s := jointest.RandomRelation(rng, "S", 250, 200, 4)
		jointest.CheckAgainstOracle(t, Join{}, r, s, join.Band{Width: width}, join.Options{Parallelism: 2})
	}
}

// TestBandNearKeyDomainEdges exercises the saturating arithmetic at 0 and
// MaxUint64.
func TestBandNearKeyDomainEdges(t *testing.T) {
	maxK := ^uint64(0)
	rKeys := []uint64{0, 1, 2, maxK - 1, maxK}
	sKeys := []uint64{0, 3, maxK - 2, maxK}
	r := relation.FromKeys(relation.Schema{Name: "R"}, rKeys)
	s := relation.FromKeys(relation.Schema{Name: "S"}, sKeys)
	jointest.CheckAgainstOracle(t, Join{}, r, s, join.Band{Width: 2}, join.Options{})
}

func TestEquiProperty(t *testing.T) {
	f := func(rKeys, sKeys []uint64) bool {
		for i := range rKeys {
			rKeys[i] %= 50
		}
		for i := range sKeys {
			sKeys[i] %= 50
		}
		r := relation.FromKeys(relation.Schema{Name: "R"}, rKeys)
		s := relation.FromKeys(relation.Schema{Name: "S"}, sKeys)
		want := join.NewPairSet()
		jointest.Oracle(r, s, join.Equi{}, want)
		st, err := Join{}.SetupStationary(s, join.Equi{}, join.Options{})
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

func TestBandProperty(t *testing.T) {
	f := func(rKeys, sKeys []uint64, wRaw uint8) bool {
		for i := range rKeys {
			rKeys[i] %= 100
		}
		for i := range sKeys {
			sKeys[i] %= 100
		}
		p := join.Band{Width: uint64(wRaw % 10)}
		r := relation.FromKeys(relation.Schema{Name: "R"}, rKeys)
		s := relation.FromKeys(relation.Schema{Name: "S"}, sKeys)
		want := join.NewPairSet()
		jointest.Oracle(r, s, p, want)
		st, err := Join{}.SetupStationary(s, p, join.Options{})
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

func TestSortedCopySortsAndPreservesPayloads(t *testing.T) {
	rel := relation.New(relation.Schema{Name: "R", PayloadWidth: 1}, 0)
	for _, k := range []uint64{5, 1, 3, 1, 9} {
		if err := rel.Append(k, []byte{byte(k * 10)}); err != nil {
			t.Fatal(err)
		}
	}
	sorted := SortedCopy(rel)
	if !IsSorted(sorted) {
		t.Fatal("not sorted")
	}
	if rel.Key(0) != 5 {
		t.Error("SortedCopy mutated its input")
	}
	// Payload must travel with its key.
	for i := 0; i < sorted.Len(); i++ {
		if sorted.Payload(i)[0] != byte(sorted.Key(i)*10) {
			t.Fatalf("tuple %d: payload %d does not match key %d", i, sorted.Payload(i)[0], sorted.Key(i))
		}
	}
}

func TestSortedCopyNoCopyWhenSorted(t *testing.T) {
	rel := workload.Sequential("R", 10, 0)
	if SortedCopy(rel) != rel {
		t.Error("already-sorted relation should be returned unchanged")
	}
}

func TestSetupRotatingSorts(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	r := jointest.RandomRelation(rng, "R", 500, 1000, 4)
	rot, err := Join{}.SetupRotating(r, join.Equi{}, join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !IsSorted(rot) {
		t.Error("SetupRotating did not sort")
	}
	got, want := workload.Multiplicities(rot), workload.Multiplicities(r)
	for k, c := range want {
		if got[k] != c {
			t.Errorf("key %d multiplicity changed: %d → %d", k, c, got[k])
		}
	}
}

// TestJoinToleratesUnsortedRotating checks the robustness path: a caller
// that skips SetupRotating still gets correct results.
func TestJoinToleratesUnsortedRotating(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	r := jointest.RandomRelation(rng, "R", 200, 40, 4)
	s := jointest.RandomRelation(rng, "S", 200, 40, 4)
	want := join.NewPairSet()
	jointest.Oracle(r, s, join.Equi{}, want)
	st, err := Join{}.SetupStationary(s, join.Equi{}, join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := join.NewPairSet()
	if err := st.Join(r, got); err != nil { // r not sorted
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("unsorted rotating fragment joined incorrectly")
	}
}

func TestParallelMergeEqualsSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	r := jointest.RandomRelation(rng, "R", 2000, 64, 4)
	s := jointest.RandomRelation(rng, "S", 2000, 64, 4)
	run := func(par int, emitOnly bool) *join.PairSet {
		st, err := Join{}.SetupStationary(s, join.Band{Width: 2}, join.Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		ps := join.NewPairSet()
		var c join.Collector = ps
		if emitOnly {
			c = jointest.EmitOnly{Collector: ps}
		}
		if err := st.Join(SortedCopy(r), c); err != nil {
			t.Fatal(err)
		}
		return ps
	}
	if !run(1, false).Equal(run(8, false)) {
		t.Error("parallel merge differs from serial")
	}
	if !run(1, false).Equal(run(8, true)) {
		t.Error("parallel merge into an Emit-only collector differs from serial")
	}
}

func TestStationaryBytes(t *testing.T) {
	s := workload.Sequential("S", 100, 4)
	st, err := Join{}.SetupStationary(s, join.Equi{}, join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes() != s.Bytes() {
		t.Errorf("Bytes() = %d, want %d", st.Bytes(), s.Bytes())
	}
}
