package relation

import (
	"fmt"
	"sort"
)

// Fragment is one piece of a partitioned relation together with the ring
// metadata cyclo-join needs: which fragment it is (Index), how many
// fragments the relation was split into (Of), and how many ring hops the
// fragment has completed (Hops).
//
// In the paper's notation, the stationary relation S is partitioned into
// fragments S_i (one per host) and the rotating relation R into fragments
// R_j that travel around the Data Roundabout.
type Fragment struct {
	// Rel holds the fragment's tuples.
	Rel *Relation
	// Index is the fragment number within its relation, 0 ≤ Index < Of.
	Index int
	// Of is the total number of fragments of the relation.
	Of int
	// Hops counts completed ring hops. A fragment retires after Of hops,
	// i.e. after one full revolution in a ring of Of hosts.
	Hops int
	// Epoch distinguishes revolutions when a fragment is kept circulating
	// across several joins (setup-reuse mode).
	Epoch int
}

// Validate reports whether the fragment metadata is consistent.
func (f *Fragment) Validate() error {
	switch {
	case f.Rel == nil:
		return fmt.Errorf("relation: fragment %d/%d has nil relation", f.Index, f.Of)
	case f.Of <= 0:
		return fmt.Errorf("relation: fragment %d has non-positive fragment count %d", f.Index, f.Of)
	case f.Index < 0 || f.Index >= f.Of:
		return fmt.Errorf("relation: fragment index %d out of range [0,%d)", f.Index, f.Of)
	case f.Hops < 0:
		return fmt.Errorf("relation: fragment %d/%d has negative hop count %d", f.Index, f.Of, f.Hops)
	}
	return nil
}

// String implements fmt.Stringer.
func (f *Fragment) String() string {
	return fmt.Sprintf("fragment %d/%d of %s (hop %d)", f.Index, f.Of, f.Rel.schema.Name, f.Hops)
}

// Partition splits r into n fragments of near-equal tuple counts in input
// order (range partitioning by position, the "we do not care how the data is
// distributed" layout of §IV-A). The fragments alias r's storage.
func Partition(r *Relation, n int) ([]*Fragment, error) {
	if n <= 0 {
		return nil, fmt.Errorf("relation: partition %q into %d fragments", r.schema.Name, n)
	}
	frags := make([]*Fragment, n)
	total := r.Len()
	for i := 0; i < n; i++ {
		lo := total * i / n
		hi := total * (i + 1) / n
		view, err := r.Slice(lo, hi)
		if err != nil {
			return nil, fmt.Errorf("relation: partition %q: %w", r.schema.Name, err)
		}
		frags[i] = &Fragment{Rel: view, Index: i, Of: n}
	}
	return frags, nil
}

// PartitionByBytes splits r into fragments whose encoded wire size is at
// most chunkBytes each (except when a single tuple already exceeds it),
// in input order. It is the bridge from a chunk-size recommendation —
// typically ring.Autotuner's — to a fragment plan: the count is derived
// from the relation's tuple width so that each frame lands near the
// requested transfer-unit size of the paper's Fig 5 sweep.
func PartitionByBytes(r *Relation, chunkBytes int) ([]*Fragment, error) {
	if chunkBytes <= 0 {
		return nil, fmt.Errorf("relation: partition %q by %d bytes", r.schema.Name, chunkBytes)
	}
	perFrag := (chunkBytes - headerSize - tupleCountSize) / r.schema.TupleWidth()
	if perFrag < 1 {
		perFrag = 1
	}
	n := (r.Len() + perFrag - 1) / perFrag
	if n < 1 {
		n = 1
	}
	return Partition(r, n)
}

// PartitionByHash splits r into n fragments by a multiplicative hash of the
// join key. Unlike Partition, co-partitioning both join inputs this way
// would make the join embarrassingly local; cyclo-join deliberately does NOT
// rely on it (ad-hoc queries, §II-C), but the generator is useful as a
// baseline and for tests.
func PartitionByHash(r *Relation, n int) ([]*Fragment, error) {
	if n <= 0 {
		return nil, fmt.Errorf("relation: hash-partition %q into %d fragments", r.schema.Name, n)
	}
	parts := make([]*Relation, n)
	for i := range parts {
		parts[i] = New(r.schema, r.Len()/n+1)
	}
	for i := 0; i < r.Len(); i++ {
		h := HashKey(r.Key(i)) % uint64(n)
		if err := parts[h].AppendFrom(r, i); err != nil {
			return nil, err
		}
	}
	frags := make([]*Fragment, n)
	for i, p := range parts {
		frags[i] = &Fragment{Rel: p, Index: i, Of: n}
	}
	return frags, nil
}

// HashKey is the multiplicative (Fibonacci) hash used for all key hashing in
// the system: the hash join's clusters and buckets (its top bits) and
// hash-based fragment placement (its low bits) all derive from it.
func HashKey(k uint64) uint64 {
	// 2^64 / golden ratio, the standard Fibonacci hashing multiplier.
	const m = 0x9e3779b97f4a7c15
	h := k * m
	// Mix high bits down so that masking low bits (fragment placement)
	// still sees avalanche from the whole key.
	return h ^ (h >> 29)
}

// Concat materializes the union of fragments into a single fresh relation,
// in fragment-index order. All fragments must share payload width.
func Concat(schema Schema, frags []*Fragment) (*Relation, error) {
	sorted := make([]*Fragment, len(frags))
	copy(sorted, frags)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Index < sorted[j].Index })
	total := 0
	for _, f := range sorted {
		if f.Rel.schema.PayloadWidth != schema.PayloadWidth {
			return nil, fmt.Errorf("%w: concat fragment %d width %d into schema width %d",
				ErrSchemaMismatch, f.Index, f.Rel.schema.PayloadWidth, schema.PayloadWidth)
		}
		total += f.Rel.Len()
	}
	out := New(schema, total)
	for _, f := range sorted {
		out.keys = append(out.keys, f.Rel.keys...)
		out.pay = append(out.pay, f.Rel.pay...)
	}
	return out, nil
}
