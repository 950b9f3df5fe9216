// Package planner implements the cost model for cyclo-join that the paper
// names as ongoing work (§VII: "a complete cost model for cyclo-join").
//
// Given the two input cardinalities, the ring size and the hardware
// calibration, the planner predicts setup, join and sync time for each
// (algorithm, rotation side) combination and picks the cheapest plan. The
// model encodes the paper's qualitative findings quantitatively:
//
//   - hash setup is cheap but its probe phase is slower than a merge;
//   - sort setup is expensive but amortizes over large rings (§V-E
//     expects sort-merge to overtake hash "in configurations of ≈30
//     nodes upward, i.e. data volumes ≳100 GB") — see Crossover;
//   - the join phase cannot run faster than the slowest link can deliver
//     the rotating relation (§V-F);
//   - rotating the smaller relation reduces wire time (§IV-B).
package planner

import (
	"fmt"
	"math"
	"time"

	"cyclojoin/internal/costmodel"
)

// AlgorithmKind names a local join algorithm in plans.
type AlgorithmKind string

// Plannable algorithms.
const (
	Hash      AlgorithmKind = "hash"
	SortMerge AlgorithmKind = "sortmerge"
)

// Workload describes one cyclo-join to plan.
type Workload struct {
	// RTuples and STuples are the input cardinalities (R is the rotating
	// candidate by default; the planner may swap).
	RTuples, STuples int
	// TupleBytes is the serialized tuple width; zero means the
	// calibration's width.
	TupleBytes int
	// Nodes is the ring size.
	Nodes int
	// Threads is per-host join parallelism; zero means all cores.
	Threads int
}

func (w Workload) validate() error {
	switch {
	case w.RTuples < 0 || w.STuples < 0:
		return fmt.Errorf("planner: negative cardinality (%d, %d)", w.RTuples, w.STuples)
	case w.Nodes < 1:
		return fmt.Errorf("planner: %d nodes", w.Nodes)
	default:
		return nil
	}
}

// Plan is one costed execution strategy.
type Plan struct {
	// Algorithm is the chosen local join.
	Algorithm AlgorithmKind
	// RotateR reports whether R is the rotating relation (false = the
	// planner swapped the sides).
	RotateR bool
	// Setup, Join and Sync are the predicted phase durations.
	Setup, Join, Sync time.Duration
}

// Total is the predicted wall clock.
func (p Plan) Total() time.Duration { return p.Setup + p.Join + p.Sync }

// String implements fmt.Stringer.
func (p Plan) String() string {
	side := "R"
	if !p.RotateR {
		side = "S"
	}
	return fmt.Sprintf("%s(rotate %s): setup %.1fs join %.1fs sync %.1fs",
		p.Algorithm, side, p.Setup.Seconds(), p.Join.Seconds(), p.Sync.Seconds())
}

// Candidates costs every (algorithm, rotation side) combination.
func Candidates(cal costmodel.Calibration, w Workload) ([]Plan, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	threads := w.Threads
	if threads <= 0 {
		threads = cal.Cores
	}
	width := w.TupleBytes
	if width <= 0 {
		width = cal.TupleBytes
	}
	plans := make([]Plan, 0, 4)
	for _, alg := range []AlgorithmKind{Hash, SortMerge} {
		for _, rotateR := range []bool{true, false} {
			rot, stat := w.RTuples, w.STuples
			if !rotateR {
				rot, stat = stat, rot
			}
			plans = append(plans, cost(cal, alg, rotateR, rot, stat, w.Nodes, threads, width))
		}
	}
	return plans, nil
}

// Choose returns the cheapest plan.
func Choose(cal costmodel.Calibration, w Workload) (Plan, error) {
	plans, err := Candidates(cal, w)
	if err != nil {
		return Plan{}, err
	}
	best := plans[0]
	for _, p := range plans[1:] {
		if p.Total() < best.Total() {
			best = p
		}
	}
	return best, nil
}

// cost predicts one strategy's phases. rot/stat are the rotating and
// stationary cardinalities.
func cost(cal costmodel.Calibration, alg AlgorithmKind, rotateR bool, rot, stat, nodes, threads, width int) Plan {
	statPerHost := ceilDiv(stat, nodes)
	rotPerHost := ceilDiv(rot, nodes)

	var setup time.Duration
	var computeSecs float64
	switch alg {
	case Hash:
		// Setup: build hash tables over the local stationary fragment;
		// clustering the local rotating fragments happens
		// concurrently and is cheaper, so the stationary build sets the
		// wall clock.
		setup = cal.HashSetupTime(statPerHost)
		computeSecs = float64(rot) * cal.HashProbePerTupleCore.Seconds() / float64(threads)
	case SortMerge:
		// Setup: sort R_i and S_i concurrently; the larger fragment
		// sets the wall clock.
		frag := statPerHost
		if rotPerHost > frag {
			frag = rotPerHost
		}
		setup = cal.SortSetupTime(frag)
		computeSecs = float64(rot) * cal.MergePerTupleCore.Seconds() / float64(threads)
	}

	// One revolution pushes the rotating relation across every link once
	// (§V-F); the join phase cannot beat the wire.
	var syncSecs float64
	if nodes > 1 {
		wireSecs := float64(rot*width) / cal.EffectiveBandwidth()
		if wireSecs > computeSecs {
			syncSecs = wireSecs - computeSecs
		}
	}
	return Plan{
		Algorithm: alg,
		RotateR:   rotateR,
		Setup:     setup,
		Join:      seconds(computeSecs),
		Sync:      seconds(syncSecs),
	}
}

// Crossover returns the smallest ring size at which sort-merge beats the
// hash join for a workload that adds perNodeTuples of each relation per
// node (the Fig 8/11 scale-up shape). §V-E expects ≈30 nodes for the
// paper's qsort-based implementation.
func Crossover(cal costmodel.Calibration, perNodeTuples, maxNodes int) (int, error) {
	if perNodeTuples < 1 || maxNodes < 1 {
		return 0, fmt.Errorf("planner: crossover with %d tuples/node, %d max nodes", perNodeTuples, maxNodes)
	}
	for nodes := 1; nodes <= maxNodes; nodes++ {
		w := Workload{RTuples: perNodeTuples * nodes, STuples: perNodeTuples * nodes, Nodes: nodes}
		plans, err := Candidates(cal, w)
		if err != nil {
			return 0, err
		}
		var hash, sm Plan
		for _, p := range plans {
			if p.RotateR {
				switch p.Algorithm {
				case Hash:
					hash = p
				case SortMerge:
					sm = p
				}
			}
		}
		if sm.Total() < hash.Total() {
			return nodes, nil
		}
	}
	return 0, fmt.Errorf("planner: no crossover up to %d nodes", maxNodes)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func seconds(s float64) time.Duration {
	if math.IsInf(s, 1) {
		return math.MaxInt64
	}
	return time.Duration(s * float64(time.Second))
}
