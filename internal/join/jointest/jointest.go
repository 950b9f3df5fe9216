// Package jointest provides shared test fixtures for the join algorithm
// packages: a brute-force oracle independent of any production algorithm,
// random relation generators, and an equivalence checker that compares an
// algorithm's output against the oracle as a (rKey, sKey) pair multiset.
package jointest

import (
	"math/rand"
	"testing"

	"cyclojoin/internal/join"
	"cyclojoin/internal/relation"
)

// Oracle emits every matching pair of r × s to c, R tuple by R tuple and,
// for each, S tuples in index order. Equi-joins look the S tuples up in a
// map from key to S tuples; every other predicate takes a plain double
// loop. It shares no code with the production algorithms.
func Oracle(r, s *relation.Relation, p join.Predicate, c join.Collector) {
	if _, ok := p.(join.Equi); ok {
		equiOracle(r, s, c)
		return
	}
	for i := 0; i < r.Len(); i++ {
		for j := 0; j < s.Len(); j++ {
			if p.Matches(r.Key(i), s.Key(j)) {
				c.Emit(r.Key(i), s.Key(j), r.Payload(i), s.Payload(j))
			}
		}
	}
}

// equiOracle is Oracle for join.Equi in time linear in the inputs and the
// output, so equi-join tests can use inputs of tens of thousands of tuples
// under the race detector.
func equiOracle(r, s *relation.Relation, c join.Collector) {
	byKey := make(map[uint64][]int)
	for j := 0; j < s.Len(); j++ {
		byKey[s.Key(j)] = append(byKey[s.Key(j)], j)
	}
	for i := 0; i < r.Len(); i++ {
		for _, j := range byKey[r.Key(i)] {
			c.Emit(r.Key(i), s.Key(j), r.Payload(i), s.Payload(j))
		}
	}
}

// RandomRelation builds a relation of n tuples with keys drawn from
// [0, domain) and payloadWidth bytes of random payload.
func RandomRelation(rng *rand.Rand, name string, n, domain, payloadWidth int) *relation.Relation {
	rel := relation.New(relation.Schema{Name: name, PayloadWidth: payloadWidth}, n)
	pay := make([]byte, payloadWidth)
	for i := 0; i < n; i++ {
		for j := range pay {
			pay[j] = byte(rng.Intn(256))
		}
		if err := rel.Append(uint64(rng.Intn(domain)), pay); err != nil {
			panic(err)
		}
	}
	return rel
}

// EmitOnly hides a collector's run path (join.RunCollector), so a join
// phase that batches matches has to fall back to one Emit per match.
type EmitOnly struct{ join.Collector }

// CheckAgainstOracle runs alg end-to-end (SetupRotating + SetupStationary +
// Join) on (r, s, p) and fails the test if the pair multiset differs from
// the oracle's. The join phase runs twice on the prepared fragment: once
// into a run collector and once into an Emit-only one.
func CheckAgainstOracle(t *testing.T, alg join.Algorithm, r, s *relation.Relation, p join.Predicate, opts join.Options) {
	t.Helper()
	want := join.NewPairSet()
	Oracle(r, s, p, want)

	st, err := alg.SetupStationary(s, p, opts)
	if err != nil {
		t.Fatalf("%s: SetupStationary: %v", alg.Name(), err)
	}
	rot, err := alg.SetupRotating(r, p, opts)
	if err != nil {
		t.Fatalf("%s: SetupRotating: %v", alg.Name(), err)
	}
	for _, emitOnly := range []bool{false, true} {
		got := join.NewPairSet()
		var c join.Collector = got
		if emitOnly {
			c = EmitOnly{got}
		}
		if err := st.Join(rot, c); err != nil {
			t.Fatalf("%s: Join: %v", alg.Name(), err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: join output differs from oracle (emit-only collector: %v): got %d distinct pairs, want %d (r=%d s=%d pred=%s)",
				alg.Name(), emitOnly, len(got.Pairs()), len(want.Pairs()), r.Len(), s.Len(), p)
		}
	}
}
