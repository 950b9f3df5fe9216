package main

// The oracle computes every expected result from key multiplicities, with
// no call into the code under test. Keys are drawn from [0, domain), so a
// dense count array stands in for a hash map.

// multiplicities counts each key of keys in [0, domain).
func multiplicities(keys []uint64, domain int) []int64 {
	c := make([]int64, domain)
	for _, k := range keys {
		c[k]++
	}
	return c
}

// equiCount is |R ⋈ S| under rKey = sKey.
func equiCount(r []uint64, s []int64) int64 {
	var n int64
	for _, k := range r {
		n += s[k]
	}
	return n
}

// bandCount is |R ⋈ S| under |rKey − sKey| ≤ width.
func bandCount(r []uint64, s []int64, width int) int64 {
	prefix := make([]int64, len(s)+1)
	for k, c := range s {
		prefix[k+1] = prefix[k] + c
	}
	var n int64
	for _, k := range r {
		lo, hi := int(k)-width, int(k)+width
		if lo < 0 {
			lo = 0
		}
		if hi > len(s)-1 {
			hi = len(s) - 1
		}
		n += prefix[hi+1] - prefix[lo]
	}
	return n
}

// chainCount is the size of an equi-join chain over one shared key
// column: Σ_k Π_t count_t(k).
func chainCount(counts ...[]int64) int64 {
	var n int64
	for k := range counts[0] {
		p := int64(1)
		for _, c := range counts {
			p *= c[k]
		}
		n += p
	}
	return n
}

// orderedPrefix lists, in ascending order, the first limit output keys of
// an equi-join of a and b restricted to keys below keyBound.
func orderedPrefix(a, b []int64, keyBound, limit int) []uint64 {
	out := make([]uint64, 0, limit)
	for k := 0; k < keyBound && len(out) < limit; k++ {
		for m := a[k] * b[k]; m > 0 && len(out) < limit; m-- {
			out = append(out, uint64(k))
		}
	}
	return out
}
