package main

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"sort"

	"cyclojoin/internal/relation"
)

// payloadWidth gives every generated tuple the paper's 12-byte layout: an
// 8-byte key (relation.KeyWidth) plus 4 bytes of payload.
const payloadWidth = 4

// keyGen draws workload inputs from the benchmark's own generator, so the
// inputs depend on the seed alone and never on code under test.
type keyGen struct {
	rng *rand.Rand
}

// newKeyGen derives an independent stream per relation from the seed.
func newKeyGen(seed uint64, stream uint64) *keyGen {
	return &keyGen{rng: rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))}
}

// uniform draws n keys uniformly from [0, domain).
func (g *keyGen) uniform(n, domain int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = g.rng.Uint64N(uint64(domain))
	}
	return keys
}

// permutation returns the keys 0..n-1 in random order.
func (g *keyGen) permutation(n int) []uint64 {
	keys := make([]uint64, n)
	for i, p := range g.rng.Perm(n) {
		keys[i] = uint64(p)
	}
	return keys
}

// zipf draws n keys from [0, domain) with rank popularity ∝ 1/rank^s;
// hot ranks map to scattered key values through a random permutation.
func (g *keyGen) zipf(n, domain int, s float64) []uint64 {
	cdf := make([]float64, domain)
	total := 0.0
	for r := range cdf {
		total += math.Pow(float64(r+1), -s)
		cdf[r] = total
	}
	perm := g.permutation(domain)
	keys := make([]uint64, n)
	for i := range keys {
		u := g.rng.Float64() * total
		r := sort.SearchFloat64s(cdf, u)
		if r >= domain {
			r = domain - 1
		}
		keys[i] = perm[r]
	}
	return keys
}

// relationOf wraps keys as a relation whose payload is the tuple's
// position, so every tuple is distinct.
func relationOf(name string, keys []uint64) *relation.Relation {
	pay := make([]byte, len(keys)*payloadWidth)
	for i := range keys {
		binary.LittleEndian.PutUint32(pay[i*payloadWidth:], uint32(i))
	}
	rel, err := relation.Wrap(relation.Schema{Name: name, PayloadWidth: payloadWidth}, keys, pay)
	if err != nil {
		// The payload is sized from the keys above; unreachable.
		panic(err)
	}
	return rel
}
