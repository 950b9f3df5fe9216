package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"cyclojoin/internal/core"
	"cyclojoin/internal/join"
	"cyclojoin/internal/join/hashjoin"
	"cyclojoin/internal/join/sortmerge"
	"cyclojoin/internal/planner"
	"cyclojoin/internal/query"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/ring"
)

// nodes is the ring size of every workload: the paper's and the
// ROADMAP's reference size.
const nodes = 4

// stallTimeout aborts a revolution in which no fragment retires for this
// long, so a wedged ring fails one op instead of hanging the run.
const stallTimeout = 5 * time.Second

// clusterBuilds is how many times set-up builds the workload's cluster to
// time NewCluster; the last build serves the run.
const clusterBuilds = 9

// errWrong marks an op whose output disagrees with the oracle.
var errWrong = errors.New("wrong result")

// outcome is one operation's result as the runner sees it.
type outcome struct {
	// wall is the op's wall time, probes excluded.
	wall time.Duration
	// tuples counts the op's input tuples.
	tuples int64
	// setup and joinPhase are Result.SetupTime and Result.JoinTime, zero
	// where the entry point does not report them.
	setup, joinPhase time.Duration
	// layers is the traced op's ledger, nil untraced.
	layers layerSample
}

// bench is one workload instance: generated inputs, oracle, and the
// program state the ops run against.
type bench interface {
	// start prepares op i; the returned func runs it and checks its
	// result against the oracle. It may run on another goroutine.
	start(i int, traced bool) func() (outcome, error)
	// reset rebuilds program state after a failed op.
	reset() error
	// cycle is the number of distinct ops the workload rotates through.
	cycle() int
	// setupSeconds is the run's set-up metric given the ops' SetupTimes.
	setupSeconds(opSetups []float64) float64
	// runLayers adds the per-layer metrics measured once per run, after
	// the timed ops.
	runLayers(m layerSample) error
	close()
}

// workloadDef names a workload and builds its instance.
type workloadDef struct {
	name  string
	build func(seed uint64, smoke, traced bool) (bench, error)
}

var workloads = []workloadDef{
	{"hash-equi-1m", func(seed uint64, smoke, traced bool) (bench, error) {
		n := scale(smoke, 1_000_000, 20_000)
		return newRelationsBench(seed, n, n, n, hashjoin.Join{}, join.Equi{}, traced)
	}},
	{"sortmerge-band-1m", func(seed uint64, smoke, traced bool) (bench, error) {
		n := scale(smoke, 1_000_000, 20_000)
		return newRelationsBench(seed, n, n, n, sortmerge.Join{}, join.Band{Width: 2}, traced)
	}},
	{"ring-tcp-64k", func(seed uint64, smoke, traced bool) (bench, error) {
		return newFragmentsBench(seed, scale(smoke, 1_000_000, 20_000), scale(smoke, 10_000, 1_000), 64<<10, false, traced)
	}},
	{"sql-mix", func(seed uint64, smoke, traced bool) (bench, error) {
		return newSQLBench(seed, scale(smoke, 400_000, 8_000), scale(smoke, 100_000, 2_000), scale(smoke, 25_000, 500))
	}},
}

// excluded are shapes known to fail, kept runnable by name (they are not
// in BENCHMARK.json) so a fix can reproduce them and then promote them to
// workloads. NOTES.md describes each.
var excluded = []workloadDef{
	// TCP with one-sided writes wedges once a node holds about 23 or more
	// fragments of at most 128 KB.
	{"ring-tcp-onesided-128k", func(seed uint64, smoke, traced bool) (bench, error) {
		return newFragmentsBench(seed, scale(smoke, 1_000_000, 20_000), scale(smoke, 10_000, 1_000), 128<<10, true, traced)
	}},
	// TCP with send/recv wedges too once a node holds about 115 or more
	// 64 KB fragments (2M tuples complete, 2.5M do not).
	{"ring-tcp-64k-3m", func(seed uint64, smoke, traced bool) (bench, error) {
		return newFragmentsBench(seed, scale(smoke, 3_000_000, 20_000), scale(smoke, 10_000, 1_000), 64<<10, false, traced)
	}},
	// Each SQL join step ships a node's whole share as one fragment; the
	// 3-way chain's intermediate passes the 4 MiB buffer at 1M orders.
	{"sql-mix-1m", func(seed uint64, smoke, traced bool) (bench, error) {
		return newSQLBench(seed, scale(smoke, 1_000_000, 8_000), scale(smoke, 100_000, 2_000), scale(smoke, 25_000, 500))
	}},
}

func scale(smoke bool, full, tiny int) int {
	if smoke {
		return tiny
	}
	return full
}

// buildClusters times NewCluster clusterBuilds times and keeps the last
// cluster.
func buildClusters(cfg core.Config) (*core.Cluster, float64, error) {
	var times []float64
	var c *core.Cluster
	for i := 0; i < clusterBuilds; i++ {
		if c != nil {
			if err := c.Close(); err != nil {
				return nil, 0, err
			}
			// Free the closed ring's buffers, so set-up garbage does not
			// set the run's peak RSS.
			runtime.GC()
		}
		start := time.Now()
		var err error
		c, err = core.NewCluster(cfg)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, ms(time.Since(start)))
	}
	return c, median(times), nil
}

// coreBench drives a cluster the benchmark owns through core.Cluster.
type coreBench struct {
	cfg     core.Config
	cluster *core.Cluster
	alg     timedAlgorithm
	buildMs float64
	// run performs one JoinRelations or Join on c.
	run              func(c *core.Cluster) (*core.Result, error)
	want             int64
	rTuples, sTuples int64
}

func newCoreBench(alg join.Algorithm, pred join.Predicate, rcfg ring.Config, links ring.LinkFactory, traced bool) (*coreBench, error) {
	b := &coreBench{alg: newTimedAlgorithm(alg)}
	b.cfg = core.Config{
		Nodes:     nodes,
		Algorithm: alg,
		Predicate: pred,
		Opts:      join.Options{Parallelism: 1},
		Ring:      rcfg,
		Links:     links,
	}
	if traced {
		b.cfg.Algorithm = b.alg
	}
	var err error
	b.cluster, b.buildMs, err = buildClusters(b.cfg)
	return b, err
}

// newRelationsBench joins R and S, each uniform over [0, domain), with
// Cluster.JoinRelations on in-process links.
func newRelationsBench(seed uint64, rN, sN, domain int, alg join.Algorithm, pred join.Predicate, traced bool) (bench, error) {
	rKeys := newKeyGen(seed, 1).uniform(rN, domain)
	sKeys := newKeyGen(seed, 2).uniform(sN, domain)
	sCount := multiplicities(sKeys, domain)
	var want int64
	switch p := pred.(type) {
	case join.Equi:
		want = equiCount(rKeys, sCount)
	case join.Band:
		want = bandCount(rKeys, sCount, int(p.Width))
	default:
		return nil, fmt.Errorf("no oracle for predicate %s", pred)
	}
	r, s := relationOf("R", rKeys), relationOf("S", sKeys)
	b, err := newCoreBench(alg, pred, ring.Config{StallTimeout: stallTimeout}, ring.MemLinks(), traced)
	if err != nil {
		return nil, err
	}
	b.want, b.rTuples, b.sTuples = want, int64(rN), int64(sN)
	b.run = func(c *core.Cluster) (*core.Result, error) { return c.JoinRelations(r, s, false) }
	return b, nil
}

// newFragmentsBench joins R, pre-cut into chunk-byte fragments, against
// a small S with Cluster.Join over TCP loopback links, by send/recv or
// by one-sided writes.
func newFragmentsBench(seed uint64, rN, sN, chunk int, oneSided, traced bool) (bench, error) {
	domain := rN
	rKeys := newKeyGen(seed, 1).uniform(rN, domain)
	sKeys := newKeyGen(seed, 2).uniform(sN, domain)
	want := equiCount(rKeys, multiplicities(sKeys, domain))
	rFrags, err := relation.PartitionByBytes(relationOf("R", rKeys), chunk)
	if err != nil {
		return nil, err
	}
	sFrags, err := relation.Partition(relationOf("S", sKeys), nodes)
	if err != nil {
		return nil, err
	}
	b, err := newCoreBench(hashjoin.Join{}, join.Equi{}, ring.Config{StallTimeout: stallTimeout, OneSidedWrites: oneSided}, ring.TCPLinks(), traced)
	if err != nil {
		return nil, err
	}
	b.want, b.rTuples, b.sTuples = want, int64(rN), int64(sN)
	b.run = func(c *core.Cluster) (*core.Result, error) {
		// Fresh fragment headers per op: the ring rewrites hop counts.
		home := make([][]*relation.Fragment, nodes)
		for i, f := range rFrags {
			n := i * nodes / len(rFrags)
			home[n] = append(home[n], &relation.Fragment{Rel: f.Rel, Index: f.Index, Of: f.Of})
		}
		return c.Join(sFrags, home)
	}
	return b, nil
}

func (b *coreBench) start(i int, traced bool) func() (outcome, error) {
	c := b.cluster
	return func() (outcome, error) {
		var before probe
		if traced {
			b.alg.on.Store(true)
			defer b.alg.on.Store(false)
			before = takeProbe(c.Ring(), b.alg.times)
		}
		opStart := time.Now()
		res, err := b.run(c)
		wall := time.Since(opStart)
		if err != nil {
			return outcome{}, err
		}
		if got := res.Matches(); got != b.want {
			return outcome{}, fmt.Errorf("%w: %d matches, oracle says %d", errWrong, got, b.want)
		}
		out := outcome{wall: wall, tuples: b.rTuples + b.sTuples, setup: res.SetupTime, joinPhase: res.JoinTime}
		if traced {
			after := takeProbe(c.Ring(), b.alg.times)
			m := layerSample{}
			if err := registryLayers(m, before, after, b.rTuples); err != nil {
				return outcome{}, err
			}
			ringLayers(m, before, after, res.JoinTime)
			algorithmLayers(m, b.cfg.Algorithm.Name(), after.alg.sub(before.alg), nodes, res.JoinTime)
			runtimeLayers(m, before, after, wall, procs())
			m["join.matches_per_tuple"] = float64(b.want) / float64(b.rTuples)
			m["core.station_ms"] = ms(res.SetupTime)
			m["core.join_phase_ms"] = ms(res.JoinTime)
			m["core.orchestration_ms"] = ms(wall - res.SetupTime - res.JoinTime)
			out.layers = m
		}
		return out, nil
	}
}

func (b *coreBench) reset() error {
	// Close may wait on a wedged node; the stall watchdog has already
	// abandoned its goroutines, so a slow Close only delays the rebuild.
	_ = b.cluster.Close()
	c, err := core.NewCluster(b.cfg)
	if err != nil {
		return err
	}
	b.cluster = c
	return nil
}

func (b *coreBench) cycle() int { return 1 }

// setupSeconds is what one join costs before its revolution starts:
// building the ring plus stationing the inputs (Result.SetupTime, the
// paper's setup phase).
func (b *coreBench) setupSeconds(opSetups []float64) float64 {
	return b.buildMs/1e3 + median(opSetups)
}

func (b *coreBench) runLayers(m layerSample) error {
	m["core.cluster_build_ms"] = b.buildMs
	zero(m, "query.parse_us", "query.explain_ms", "query.q2_count_ms", "query.q3_chain_ms",
		"query.q2_materialize_ms", "planner.est_err")
	return nil
}

func (b *coreBench) close() { _ = b.cluster.Close() }

// sqlQuery is one statement of the sql-mix rotation with its oracle.
type sqlQuery struct {
	name   string
	sql    string
	tuples int64 // base-table rows read
	// rTuples counts tuples rotated around the ring over all join steps.
	rTuples int64
	check   func(*query.Result) error
}

// sqlBench drives query.Engine over a warehouse catalog: orders (zipf
// 0.5 over customer ids), customers (one row per id) and loyalty (a
// quarter-subset of the ids).
type sqlBench struct {
	engine  *query.Engine
	queries []sqlQuery
	buildMs float64
	estErr  float64
}

func newSQLBench(seed uint64, ordersN, customersN, loyaltyN int) (bench, error) {
	domain := customersN
	orders := newKeyGen(seed, 1).zipf(ordersN, domain, 0.5)
	customers := newKeyGen(seed, 2).permutation(customersN)
	loyalty := newKeyGen(seed, 3).permutation(customersN)[:loyaltyN]
	cO, cC, cL := multiplicities(orders, domain), multiplicities(customers, domain), multiplicities(loyalty, domain)
	oRel, cRel, lRel := relationOf("orders", orders), relationOf("customers", customers), relationOf("loyalty", loyalty)

	cat := query.NewCatalog()
	for _, t := range []struct {
		name, key string
		rel       *relation.Relation
	}{{"orders", "cust", oRel}, {"customers", "id", cRel}, {"loyalty", "id", lRel}} {
		if err := cat.Register(t.name, t.key, t.rel); err != nil {
			return nil, err
		}
	}
	opts := join.Options{Parallelism: 1}
	engine, err := query.NewEngine(cat, nodes, opts)
	if err != nil {
		return nil, err
	}

	const limit = 1000
	q2 := chainCount(cO, cC)
	q3 := chainCount(cO, cC, cL)
	prefix := orderedPrefix(cO, cC, domain/2, limit)
	b := &sqlBench{engine: engine}
	b.queries = []sqlQuery{
		{
			name:    "q2_count",
			sql:     "SELECT COUNT(*) FROM orders JOIN customers ON orders.cust = customers.id",
			tuples:  int64(ordersN + customersN),
			rTuples: int64(ordersN),
			check:   countIs(q2),
		},
		{
			name: "q3_chain",
			sql: "SELECT COUNT(*) FROM orders JOIN customers ON orders.cust = customers.id " +
				"JOIN loyalty ON customers.id = loyalty.id",
			tuples:  int64(ordersN + customersN + loyaltyN),
			rTuples: int64(ordersN) + q2,
			check:   countIs(q3),
		},
		{
			name: "q2_materialize",
			sql: fmt.Sprintf("SELECT * FROM orders JOIN customers ON orders.cust = customers.id "+
				"WHERE customers.id < %d ORDER BY orders.cust LIMIT %d", domain/2, limit),
			tuples:  int64(ordersN + customersN),
			rTuples: int64(ordersN),
			check: func(res *query.Result) error {
				if res.Rows == nil || res.Rows.Len() != len(prefix) || res.Count != int64(len(prefix)) {
					return fmt.Errorf("%w: count %d, oracle says %d rows", errWrong, res.Count, len(prefix))
				}
				for i, k := range prefix {
					if got := res.Rows.Key(i); got != k {
						return fmt.Errorf("%w: row %d has key %d, oracle says %d", errWrong, i, got, k)
					}
				}
				return nil
			},
		},
	}

	// The engine builds one ring per join step with this configuration.
	c, buildMs, err := buildClusters(core.Config{Nodes: nodes, Algorithm: hashjoin.Join{}, Predicate: join.Equi{}, Opts: opts})
	if err != nil {
		return nil, err
	}
	if err := c.Close(); err != nil {
		return nil, err
	}
	b.buildMs = buildMs
	// EXPLAIN's sampling rate (16) against the oracle's exact size.
	est := planner.EstimateJoinSize(oRel, cRel, 16)
	b.estErr = math.Abs(est-float64(q2)) / float64(q2)
	return b, nil
}

func countIs(want int64) func(*query.Result) error {
	return func(res *query.Result) error {
		if res.Count != want {
			return fmt.Errorf("%w: count %d, oracle says %d", errWrong, res.Count, want)
		}
		return nil
	}
}

func (b *sqlBench) start(i int, traced bool) func() (outcome, error) {
	q := b.queries[i%len(b.queries)]
	return func() (outcome, error) {
		var before probe
		if traced {
			before = takeProbe(nil, nil)
		}
		opStart := time.Now()
		res, err := b.engine.Execute(q.sql)
		wall := time.Since(opStart)
		if err != nil {
			return outcome{}, fmt.Errorf("%s: %w", q.name, err)
		}
		if err := q.check(res); err != nil {
			return outcome{}, fmt.Errorf("%s: %w", q.name, err)
		}
		out := outcome{wall: wall, tuples: q.tuples}
		if traced {
			after := takeProbe(nil, nil)
			m := layerSample{"query." + q.name + "_ms": ms(wall)}
			if err := registryLayers(m, before, after, q.rTuples); err != nil {
				return outcome{}, err
			}
			runtimeLayers(m, before, after, wall, procs())
			m["join.matches_per_tuple"] = float64(res.Count) / float64(q.rTuples)
			out.layers = m
		}
		return out, nil
	}
}

// reset has nothing to rebuild: the engine builds a fresh ring per join
// step.
func (b *sqlBench) reset() error { return nil }

// frontEndReps is how often runLayers parses and explains each query.
const frontEndReps = 5

func (b *sqlBench) runLayers(m layerSample) error {
	// The front end is timed apart from the ops, so EXPLAIN's sampling
	// garbage does not land in the next op's collection.
	var parse, explain []float64
	for _, q := range b.queries {
		for i := 0; i < frontEndReps; i++ {
			start := time.Now()
			if _, err := query.Parse(q.sql); err != nil {
				return err
			}
			parse = append(parse, float64(time.Since(start).Nanoseconds())/1e3)
			start = time.Now()
			if _, err := b.engine.Explain(q.sql); err != nil {
				return err
			}
			explain = append(explain, ms(time.Since(start)))
		}
	}
	m["query.parse_us"] = median(parse)
	m["query.explain_ms"] = median(explain)
	m["core.cluster_build_ms"] = b.buildMs
	m["planner.est_err"] = b.estErr
	// The engine's rings and algorithms are internal to Execute: Ring.Stats
	// and the algorithm decorators cannot reach them.
	zero(m, "hashjoin.build_ms", "hashjoin.reorg_ms", "hashjoin.probe_ns_per_tuple", "hashjoin.join_calls",
		"sortmerge.sort_ms", "sortmerge.reorg_ms", "sortmerge.merge_ns_per_tuple", "join.busy_share",
		"ring.stage_ms", "ring.stall_ms", "ring.wait_share", "ring.registered_mb",
		"core.station_ms", "core.join_phase_ms", "core.orchestration_ms")
	return nil
}

func (b *sqlBench) close() {}

func (b *sqlBench) cycle() int { return len(b.queries) }

// setupSeconds is the NewCluster time every join step pays: Execute
// reports no Result.SetupTime.
func (b *sqlBench) setupSeconds([]float64) float64 { return b.buildMs / 1e3 }

func zero(m layerSample, names ...string) {
	for _, n := range names {
		m[n] = 0
	}
}
