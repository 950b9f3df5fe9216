// Command roundabout runs a real cyclo-join on a local Data Roundabout
// ring: it generates two relations, distributes them across the ring
// hosts, and executes the distributed join for real (actual hash tables,
// actual fragments circulating through the transport).
//
// Usage:
//
//	roundabout -nodes 4 -tuples 2000000 -algo hash
//	roundabout -nodes 3 -algo sortmerge -band 5 -transport tcp
//	roundabout -nodes 6 -zipf 0.9 -algo hash
//	roundabout -transport tcp -metrics 127.0.0.1:9090
//
// With -transport tcp the ring links are real TCP sockets on the loopback
// interface; the default is the in-process zero-copy transport. With
// -metrics ADDR the process serves its runtime counters (frames, bytes,
// queue depths, retires — see internal/metrics) in Prometheus text format
// at http://ADDR/metrics, plus the standard pprof profiles under
// http://ADDR/debug/pprof/, for the duration of the run. With -flightrec
// FILE the cross-layer flight recorder captures spans from every layer
// (transport work requests, ring pipeline, join phases) and writes a
// Perfetto trace-event JSON file that loads in ui.perfetto.dev and feeds
// the cyclotrace analyzer. With -trace the same recorder counts the ring
// pipeline's receive, join, send and retire spans and prints a one-line
// summary after the join.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"cyclojoin"
	"cyclojoin/internal/health"
	"cyclojoin/internal/metrics"
	"cyclojoin/internal/trace"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		nodes     = flag.Int("nodes", 4, "ring size")
		tuples    = flag.Int("tuples", 1_000_000, "tuples per relation")
		domain    = flag.Int("domain", 0, "key domain (0 = tuple count)")
		zipf      = flag.Float64("zipf", 0, "zipf skew factor (0 = uniform)")
		algo      = flag.String("algo", "hash", "join algorithm: hash | sortmerge | nested")
		band      = flag.Uint64("band", 0, "band width (>0 selects a band join; sortmerge/nested only)")
		threads   = flag.Int("threads", 4, "join threads per host")
		transport = flag.String("transport", "memory", "transport: memory | tcp")
		slots     = flag.Int("slots", 4, "ring buffer elements per host")
		seed      = flag.Int64("seed", 1, "workload seed")
		oneSided  = flag.Bool("write", false, "use one-sided RDMA writes instead of send/recv")
		traced    = flag.Bool("trace", false, "print a ring span summary (received, processed, sent, retired) after the join")
		metricsAt = flag.String("metrics", "", "serve Prometheus metrics at http://ADDR/metrics while running (e.g. 127.0.0.1:9090); empty disables")
		flightrec = flag.String("flightrec", "", "record cross-layer spans and write a Perfetto trace-event JSON FILE (view at ui.perfetto.dev or with cyclotrace)")
		rotations = flag.Int("rotations", 1, "full revolutions to run (reusing the setup phase); >1 keeps the ring spinning for live observation with cyclotop")
		healthInt = flag.Duration("healthint", 250*time.Millisecond, "live health sampling interval (with -metrics; see /health/live)")
	)
	flag.Parse()

	// The recorder must be armed before the cluster exists: nodes, links and
	// join algorithms take their shards at construction time.
	if *traced || *flightrec != "" {
		trace.Flight().Enable(trace.DefaultShardCap)
	}

	var mux *http.ServeMux
	if *metricsAt != "" {
		ln, err := net.Listen("tcp", *metricsAt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "roundabout: metrics listener:", err)
			return 1
		}
		mux = http.NewServeMux()
		mux.Handle("/metrics", metrics.Default().Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		srv := &http.Server{Handler: mux}
		go func() {
			_ = srv.Serve(ln)
		}()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		}()
		fmt.Printf("metrics: http://%s/metrics (pprof at /debug/pprof/, live health at /health/live)\n", ln.Addr())
	}

	var alg cyclojoin.Algorithm
	switch *algo {
	case "hash":
		alg = cyclojoin.HashJoin()
	case "sortmerge":
		alg = cyclojoin.SortMergeJoin()
	case "nested":
		alg = cyclojoin.NestedLoopsJoin()
	default:
		fmt.Fprintf(os.Stderr, "roundabout: unknown algorithm %q\n", *algo)
		return 2
	}
	var pred cyclojoin.Predicate = cyclojoin.EquiJoin()
	if *band > 0 {
		pred = cyclojoin.BandJoin(*band)
	}
	var links cyclojoin.LinkFactory
	switch *transport {
	case "memory":
		links = cyclojoin.InProcessLinks()
	case "tcp":
		links = cyclojoin.TCPLoopbackLinks()
	default:
		fmt.Fprintf(os.Stderr, "roundabout: unknown transport %q\n", *transport)
		return 2
	}

	rcfg := cyclojoin.RingConfig{BufferSlots: *slots, OneSidedWrites: *oneSided}
	cluster, err := cyclojoin.NewCluster(cyclojoin.Config{
		Nodes:     *nodes,
		Algorithm: alg,
		Predicate: pred,
		Opts:      cyclojoin.JoinOptions{Parallelism: *threads},
		Ring:      rcfg,
		Links:     links,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "roundabout:", err)
		return 1
	}
	defer func() {
		_ = cluster.Close()
	}()

	// The live health sampler rides the metrics mux: SSE/JSON snapshots at
	// /health/live (cyclotop's feed), health_* gauges on /metrics.
	if mux != nil {
		sampler := health.NewSampler(cluster.Ring(), health.Options{Interval: *healthInt})
		sampler.Start()
		defer sampler.Stop()
		mux.Handle("/health/live", sampler.Handler())
	}

	fmt.Printf("generating 2 × %d tuples (zipf=%.2f) ...\n", *tuples, *zipf)
	r, err := cyclojoin.Generate(cyclojoin.WorkloadSpec{
		Name: "R", Tuples: *tuples, KeyDomain: *domain, Zipf: *zipf, Seed: *seed, PayloadWidth: 4,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "roundabout:", err)
		return 1
	}
	s, err := cyclojoin.Generate(cyclojoin.WorkloadSpec{
		Name: "S", Tuples: *tuples, KeyDomain: *domain, Zipf: *zipf, Seed: *seed + 1, PayloadWidth: 4,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "roundabout:", err)
		return 1
	}

	mode := "send/recv"
	if *oneSided {
		mode = "one-sided writes"
	}
	fmt.Printf("cyclo-join: %s join of R ⋈ S (%s) on %d hosts over %s links (%s)\n",
		*algo, pred, *nodes, *transport, mode)
	res, err := cluster.JoinRelations(r, s, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "roundabout:", err)
		return 1
	}
	// Extra rotations reuse the stationed setup (§V's repeatable
	// revolutions) and keep fragments circulating, so live observers
	// (cyclotop, /health/live) have a spinning ring to watch.
	for i := 1; i < *rotations; i++ {
		if res, err = cluster.Rotate(); err != nil {
			fmt.Fprintf(os.Stderr, "roundabout: rotation %d: %v\n", i+1, err)
			return 1
		}
	}
	if *rotations > 1 {
		fmt.Printf("rotations: %d\n", *rotations)
	}
	fmt.Printf("matches: %d\n", res.Matches())
	fmt.Printf("setup phase: %v   join phase: %v\n", res.SetupTime, res.JoinTime)
	for i, ns := range res.Nodes {
		fmt.Printf("  host %d: processed %2d fragments, in %8d B, out %8d B, compute %v, wait %v\n",
			i, ns.Processed, ns.BytesIn, ns.BytesOut, ns.ProcessTime.Round(1e5), ns.WaitTime.Round(1e5))
	}
	if *traced {
		spans := settledSpans(trace.Flight())
		count := make(map[trace.Phase]int)
		for _, sp := range spans {
			count[sp.Phase]++
		}
		fmt.Printf("trace: %d spans (%d received, %d processed, %d sent, %d retired)\n",
			len(spans), count[trace.PhaseReceive], count[trace.PhaseJoin],
			count[trace.PhaseSend], count[trace.PhaseRetire])
	}
	if *flightrec != "" {
		if err := writeFlightRecording(*flightrec); err != nil {
			fmt.Fprintln(os.Stderr, "roundabout:", err)
			return 1
		}
	}
	return 0
}

// settledSpans snapshots rec once the recording has gone quiet. The send
// reapers close post-to-completion spans off the retirement critical path,
// so the join can finish a beat before the last send spans land.
func settledSpans(rec *trace.Recorder) []trace.Span {
	spans := rec.Snapshot()
	for i := 0; i < 40; i++ {
		time.Sleep(5 * time.Millisecond)
		next := rec.Snapshot()
		if len(next) == len(spans) {
			break
		}
		spans = next
	}
	return spans
}

// writeFlightRecording drains the process flight recorder into a Perfetto
// trace-event JSON file.
func writeFlightRecording(path string) error {
	rec := trace.Flight()
	settledSpans(rec)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("flight recording: %w", err)
	}
	if err := rec.WritePerfetto(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("flight recording: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("flight recording: %w", err)
	}
	fmt.Printf("flight recording: %d spans -> %s (open in ui.perfetto.dev, or: cyclotrace %s)\n",
		len(rec.Snapshot()), path, path)
	if d := rec.Dropped(); d > 0 {
		fmt.Printf("flight recording: %d spans dropped (ring buffers full; raise shard capacity)\n", d)
	}
	return nil
}
