// Package core implements cyclo-join (§IV): the distributed join strategy
// that keeps one relation stationary — partitioned as S_i across the Data
// Roundabout hosts — while the other relation's fragments R_j rotate around
// the ring. Every host joins each fragment flowing by against its local S_i
// with an ordinary single-host join algorithm; after one revolution the
// union of the per-host results is the complete join R ⋈ S, available as a
// distributed table.
//
// The two paper phases map onto two calls:
//
//   - Station runs the setup phase: in parallel on every host, build the
//     access structure over S_i (hash tables / sorted runs) and reorganize
//     the local rotating fragments (hash-clustering / sorting). Because
//     the reorganized fragments travel the ring, this work is invested
//     once and amortized over every hop (§IV-D).
//   - Rotate runs the join phase: one full revolution of the rotating
//     fragments. It can be called repeatedly against the same stationed
//     state — that is the setup-reuse trade at the heart of §V-E.
//
// Join combines both for the common case.
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"cyclojoin/internal/join"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/ring"
)

// Config describes a cyclo-join cluster.
type Config struct {
	// Nodes is the number of ring hosts.
	Nodes int
	// Algorithm is the local join algorithm (hash, sort-merge, nested).
	Algorithm join.Algorithm
	// Predicate is the join condition; the algorithm must support it.
	Predicate join.Predicate
	// Opts tunes the local algorithm (parallelism, cache target).
	Opts join.Options
	// Ring tunes the transport (buffer slots and sizes). Ring.Nodes is
	// overridden by Nodes.
	Ring ring.Config
	// Links selects the transport; nil means in-process links.
	Links ring.LinkFactory
	// Collectors builds the per-host result collector for each Rotate
	// call; nil means one join.Counter per host.
	Collectors func(node int) join.Collector
	// SkipRotatingSetup disables the reorganization of rotating fragments
	// (for the setup-reuse ablation); the join output is unchanged, only
	// the locality of the join phase suffers.
	SkipRotatingSetup bool
}

func (c Config) validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("cyclojoin: %d nodes", c.Nodes)
	case c.Algorithm == nil:
		return errors.New("cyclojoin: nil algorithm")
	case c.Predicate == nil:
		return errors.New("cyclojoin: nil predicate")
	case !c.Algorithm.Supports(c.Predicate):
		return fmt.Errorf("cyclojoin: algorithm %q does not support predicate %s: %w",
			c.Algorithm.Name(), c.Predicate, join.ErrUnsupportedPredicate)
	}
	return nil
}

// hostState is the mutable per-node state the ring processor reads.
type hostState struct {
	mu         sync.Mutex
	stationary join.Stationary
	collector  join.Collector
}

func (h *hostState) current() (join.Stationary, join.Collector) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stationary, h.collector
}

// Cluster is a running cyclo-join deployment: a Data Roundabout ring whose
// join entities probe incoming fragments against stationed local state.
type Cluster struct {
	cfg   Config
	ring  *ring.Ring
	hosts []*hostState

	mu       sync.Mutex
	rotating [][]*relation.Fragment // reorganized fragments, by home node
	setupDur time.Duration
	closed   bool
}

// Ring exposes the cluster's transport ring as a live-telemetry source:
// internal/health samples its HealthSnapshot on a ticker. Callers must
// not Close or Run the ring directly — the cluster owns its lifecycle.
func (c *Cluster) Ring() *ring.Ring { return c.ring }

// joinOpts derives host i's join options: label the host's algorithm spans
// with its ring position, and default the algorithm's flight recorder to the
// ring's so one recorder sees the whole cross-layer picture.
func (c *Cluster) joinOpts(i int) join.Options {
	opts := c.cfg.Opts
	opts.TraceNode = i
	if opts.Flight == nil {
		opts.Flight = c.cfg.Ring.Flight
	}
	return opts
}

// NewCluster builds the ring. No data is stationed yet.
func NewCluster(cfg Config) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, hosts: make([]*hostState, cfg.Nodes)}
	procs := make([]ring.Processor, cfg.Nodes)
	for i := range procs {
		h := &hostState{}
		c.hosts[i] = h
		procs[i] = ring.ProcessorFunc(func(frag *relation.Fragment) error {
			st, col := h.current()
			if st == nil {
				return errors.New("cyclojoin: fragment arrived before Station")
			}
			return st.Join(frag.Rel, col)
		})
	}
	rcfg := cfg.Ring
	rcfg.Nodes = cfg.Nodes
	r, err := ring.New(rcfg, cfg.Links, procs)
	if err != nil {
		return nil, fmt.Errorf("cyclojoin: build ring: %w", err)
	}
	c.ring = r
	return c, nil
}

// Station runs the setup phase. sFrags[i] is the stationary piece S_i held
// by host i; rFrags[i] are the rotating fragments initially homed at host
// i. Hosts run their setup concurrently, as the cluster's machines would.
func (c *Cluster) Station(sFrags []*relation.Fragment, rFrags [][]*relation.Fragment) error {
	if len(sFrags) != c.cfg.Nodes || len(rFrags) != c.cfg.Nodes {
		return fmt.Errorf("cyclojoin: Station with %d stationary and %d rotating slots for %d nodes",
			len(sFrags), len(rFrags), c.cfg.Nodes)
	}
	start := time.Now()
	rotated := make([][]*relation.Fragment, c.cfg.Nodes)
	errs := make([]error, c.cfg.Nodes)
	var wg sync.WaitGroup
	for i := 0; i < c.cfg.Nodes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := c.joinOpts(i)
			st, err := c.cfg.Algorithm.SetupStationary(sFrags[i].Rel, c.cfg.Predicate, opts)
			if err != nil {
				errs[i] = fmt.Errorf("cyclojoin: host %d: setup stationary: %w", i, err)
				return
			}
			c.hosts[i].mu.Lock()
			c.hosts[i].stationary = st
			c.hosts[i].mu.Unlock()

			rotated[i] = make([]*relation.Fragment, len(rFrags[i]))
			for j, f := range rFrags[i] {
				rel := f.Rel
				if !c.cfg.SkipRotatingSetup {
					rel, err = c.cfg.Algorithm.SetupRotating(f.Rel, c.cfg.Predicate, opts)
					if err != nil {
						errs[i] = fmt.Errorf("cyclojoin: host %d: setup rotating fragment %d: %w", i, f.Index, err)
						return
					}
				}
				rotated[i][j] = &relation.Fragment{Rel: rel, Index: f.Index, Of: f.Of}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	c.mu.Lock()
	c.rotating = rotated
	c.setupDur = time.Since(start)
	c.mu.Unlock()
	return nil
}

// Result reports one Rotate's outcome.
type Result struct {
	// SetupTime is the wall-clock duration of the most recent Station.
	SetupTime time.Duration
	// JoinTime is the wall-clock duration of the revolution.
	JoinTime time.Duration
	// Collectors holds each host's result collector — together they are
	// the distributed join result.
	Collectors []join.Collector
	// Nodes snapshots the ring counters (sync time, traffic) after the
	// run.
	Nodes []ring.NodeStats
	// Partial is non-nil when the revolution ended early: link recovery
	// was enabled but a link kept failing past its retry budget, and the
	// ring degraded gracefully. The collectors then hold every match
	// produced by the fragments (and hops) that did complete.
	Partial *ring.PartialError
}

// Matches sums the match counts if the collectors are join.Counters
// (the default). It returns -1 when a custom collector type is in use.
func (r *Result) Matches() int64 {
	var total int64
	for _, c := range r.Collectors {
		counter, ok := c.(*join.Counter)
		if !ok {
			return -1
		}
		total += counter.Count()
	}
	return total
}

// Rotate runs one full revolution of the stationed rotating fragments and
// returns the per-host results. It may be called repeatedly; each call
// reuses the setup-phase investment.
func (c *Cluster) Rotate() (*Result, error) {
	c.mu.Lock()
	rotating := c.rotating
	setup := c.setupDur
	c.mu.Unlock()
	if rotating == nil {
		return nil, errors.New("cyclojoin: Rotate before Station")
	}
	collectors := make([]join.Collector, c.cfg.Nodes)
	for i := range collectors {
		if c.cfg.Collectors != nil {
			collectors[i] = c.cfg.Collectors(i)
		} else {
			collectors[i] = &join.Counter{}
		}
		c.hosts[i].mu.Lock()
		c.hosts[i].collector = collectors[i]
		c.hosts[i].mu.Unlock()
	}
	start := time.Now()
	if err := c.ring.Run(rotating); err != nil {
		var pe *ring.PartialError
		if !errors.As(err, &pe) {
			return nil, fmt.Errorf("cyclojoin: rotate: %w", err)
		}
		// Bounded-retry exhaustion: the ring gave up on a link but kept
		// every completed hop's work. Surface the partial result WITH the
		// error — callers decide whether an incomplete join is usable.
		return &Result{
			SetupTime:  setup,
			JoinTime:   time.Since(start),
			Collectors: collectors,
			Nodes:      c.ring.Stats(),
			Partial:    pe,
		}, fmt.Errorf("cyclojoin: rotate: %w", err)
	}
	return &Result{
		SetupTime:  setup,
		JoinTime:   time.Since(start),
		Collectors: collectors,
		Nodes:      c.ring.Stats(),
	}, nil
}

// Join is Station followed by one Rotate.
func (c *Cluster) Join(sFrags []*relation.Fragment, rFrags [][]*relation.Fragment) (*Result, error) {
	if err := c.Station(sFrags, rFrags); err != nil {
		return nil, err
	}
	return c.Rotate()
}

// JoinRelations partitions both relations evenly across the hosts (the
// paper's starting condition: data pre-distributed, S reasonably even) and
// runs Station + Rotate. S is stationary, R rotates. If rotateSmaller is
// set and R is larger than S, the roles are swapped, following the §IV-B
// guidance to rotate the smaller input; note that swapping exchanges the
// rKey/sKey sides seen by collectors.
func (c *Cluster) JoinRelations(r, s *relation.Relation, rotateSmaller bool) (*Result, error) {
	if rotateSmaller && r.Bytes() > s.Bytes() {
		r, s = s, r
	}
	sFrags, err := relation.Partition(s, c.cfg.Nodes)
	if err != nil {
		return nil, fmt.Errorf("cyclojoin: partition stationary: %w", err)
	}
	rParts, err := relation.Partition(r, c.cfg.Nodes)
	if err != nil {
		return nil, fmt.Errorf("cyclojoin: partition rotating: %w", err)
	}
	rFrags := make([][]*relation.Fragment, c.cfg.Nodes)
	for i, f := range rParts {
		rFrags[i] = []*relation.Fragment{f}
	}
	return c.Join(sFrags, rFrags)
}

// ReplaceHost swaps the host at position i for a fresh one (idle ring
// only). The new host has no stationed state until the next Station.
func (c *Cluster) ReplaceHost(i int) error {
	if i < 0 || i >= c.cfg.Nodes {
		return fmt.Errorf("cyclojoin: replace host %d of %d", i, c.cfg.Nodes)
	}
	h := &hostState{}
	c.hosts[i] = h
	proc := ring.ProcessorFunc(func(frag *relation.Fragment) error {
		st, col := h.current()
		if st == nil {
			return errors.New("cyclojoin: fragment arrived before Station")
		}
		return st.Join(frag.Rel, col)
	})
	if err := c.ring.ReplaceNode(i, proc); err != nil {
		return fmt.Errorf("cyclojoin: replace host %d: %w", i, err)
	}
	// Stationed state died with the host; require a fresh Station.
	c.mu.Lock()
	c.rotating = nil
	c.mu.Unlock()
	return nil
}

// Close shuts the ring down.
func (c *Cluster) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.ring.Close()
}
