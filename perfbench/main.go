// Command perfbench is the repository's end-to-end cyclo-join benchmark.
//
// It drives the live ring through its public entry points
// (core.Cluster.JoinRelations, core.Cluster.Join, query.Engine.Execute)
// in a closed loop with one operation outstanding, checks every result
// against an oracle of its own, and prints one JSON record as the last
// line of standard output. BENCHMARK.json at the repository root names
// the workloads and metrics; NOTES.md in this directory defines them.
//
// Build and run from the repository root with
//
//	bash perfbench/run.sh --workload hash-equi-1m --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics from untraced ops; --trace 1
// alternates traced and untraced blocks of ops and reports the per-layer
// ledger. --workload all runs every workload; --smoke shrinks the inputs
// and runs one round of ops per workload.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// opDeadline bounds one op; a later finish counts it failed.
const opDeadline = 30 * time.Second

// units is the unit of every metric the benchmark can report. It must
// agree with BENCHMARK.json, which is checked at start.
var units = map[string]string{
	"op_ms_p50":    "ms",
	"op_ms_tail":   "ms",
	"tuples_per_s": "1/s",
	"setup_s":      "s",
	"peak_rss_mb":  "MiB",

	"hashjoin.build_ms":            "ms",
	"hashjoin.reorg_ms":            "ms",
	"hashjoin.probe_ns_per_tuple":  "ns",
	"hashjoin.join_calls":          "count",
	"sortmerge.sort_ms":            "ms",
	"sortmerge.reorg_ms":           "ms",
	"sortmerge.merge_ns_per_tuple": "ns",
	"join.matches_per_tuple":       "ratio",
	"join.busy_share":              "ratio",
	"ring.hops":                    "count",
	"ring.stage_ms":                "ms",
	"ring.stall_ms":                "ms",
	"ring.hop_us":                  "us",
	"ring.wait_share":              "ratio",
	"ring.bytes_per_rtuple":        "B",
	"ring.view_share":              "ratio",
	"ring.registered_mb":           "MiB",
	"memlink.transfers_per_op":     "count",
	"tcplink.frames_per_op":        "count",
	"tcplink.bytes_per_op":         "B",
	"transport.failures":           "count",
	"core.cluster_build_ms":        "ms",
	"core.station_ms":              "ms",
	"core.join_phase_ms":           "ms",
	"core.orchestration_ms":        "ms",
	"query.parse_us":               "us",
	"query.explain_ms":             "ms",
	"query.q2_count_ms":            "ms",
	"query.q3_chain_ms":            "ms",
	"query.q2_materialize_ms":      "ms",
	"planner.est_err":              "ratio",
	"runtime.cpu_util":             "ratio",
	"runtime.alloc_mb_per_op":      "MiB",
	"runtime.gc_per_op":            "count",
	"trace.overhead":               "ratio",
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		if u, ok := units[m.Name]; !ok || u != m.Unit {
			return nil, fmt.Errorf("%s: metric %s in %q, benchmark reports it in %q", path, m.Name, m.Unit, u)
		}
	}
	for _, w := range sp.Workloads {
		if find(workloads, w.Name) == nil {
			return nil, fmt.Errorf("%s: workload %s is not implemented", path, w.Name)
		}
	}
	return &sp, nil
}

func find(defs []workloadDef, name string) *workloadDef {
	for i := range defs {
		if defs[i].name == name {
			return &defs[i]
		}
	}
	return nil
}

type options struct {
	seed    uint64
	seconds float64
	trace   bool
	smoke   bool
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload name from BENCHMARK.json, or all")
	seed := fl.Uint64("seed", 1, "input seed")
	seconds := fl.Float64("seconds", 25, "measured wall time per workload")
	traced := fl.Int("trace", 0, "1 reports the per-layer ledger, 0 the end-to-end metrics")
	smoke := fl.Bool("smoke", false, "tiny inputs, one round of ops per workload")
	specPath := fl.String("spec", "BENCHMARK.json", "benchmark definition")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", *traced)
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	var defs []*workloadDef
	for _, w := range sp.Workloads {
		if *name == "all" || *name == w.Name {
			defs = append(defs, find(workloads, w.Name))
		}
	}
	if d := find(excluded, *name); d != nil {
		defs = append(defs, d)
	}
	if len(defs) == 0 {
		return fmt.Errorf("--workload %q: not in %s", *name, *specPath)
	}
	fp, err := json.Marshal(fingerprint(filepath.Dir(*specPath)))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "fingerprint %s\n", fp)
	o := options{seed: *seed, seconds: *seconds, trace: *traced == 1, smoke: *smoke}
	for _, d := range defs {
		rec, err := measure(d, o, sp, out)
		if err != nil {
			return fmt.Errorf("%s: %w", d.name, err)
		}
		line, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", line)
	}
	return nil
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type record struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// tally counts attempted ops by how they ended.
type tally struct {
	attempted, wrong, errs, late int
	firstErr                     error
}

func (t *tally) failed() int { return t.wrong + t.errs + t.late }

func (t *tally) add(err error) {
	t.attempted++
	switch {
	case err == nil:
		return
	case errors.Is(err, errWrong):
		t.wrong++
	case errors.Is(err, errDeadline):
		t.late++
	default:
		t.errs++
	}
	if t.firstErr == nil {
		t.firstErr = err
	}
}

var errDeadline = errors.New("op deadline exceeded")

// runOp runs f with the op deadline.
func runOp(f func() (outcome, error)) (outcome, error) {
	type result struct {
		o   outcome
		err error
	}
	done := make(chan result, 1)
	go func() {
		o, err := f()
		done <- result{o, err}
	}()
	timer := time.NewTimer(opDeadline)
	defer timer.Stop()
	select {
	case r := <-done:
		return r.o, r.err
	case <-timer.C:
		// The op's goroutine is abandoned; reset tears its state down.
		return outcome{}, errDeadline
	}
}

// measure runs one workload and returns its record.
func measure(w *workloadDef, o options, sp *spec, out io.Writer) (*record, error) {
	setupStart := time.Now()
	b, err := w.build(o.seed, o.smoke, o.trace)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer b.close()
	cycle := b.cycle()
	var t tally
	// attempt runs op i. A failed op reports ok false, with the time it
	// took to fail as its wall time; err is a benchmark error.
	attempt := func(i int, traced bool) (oc outcome, ok bool, err error) {
		start := time.Now()
		oc, opErr := runOp(b.start(i, traced))
		failedAfter := time.Since(start)
		if errors.Is(opErr, errLedger) {
			return oc, false, opErr
		}
		t.add(opErr)
		if opErr == nil {
			return oc, true, nil
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s op %d failed: %v\n", w.name, i, opErr)
		if err := b.reset(); err != nil {
			return oc, false, fmt.Errorf("rebuild after failed op: %w", err)
		}
		return outcome{wall: failedAfter}, false, nil
	}
	// Warm-up: one untimed round lets lazy set-up and caches settle.
	if !o.smoke {
		for i := 0; i < cycle; i++ {
			if _, _, err := attempt(i, false); err != nil {
				return nil, err
			}
		}
	}
	setupWall := time.Since(setupStart)

	regBefore := takeProbe(nil, nil)
	minOps := cycle
	if o.trace {
		minOps = 2 * cycle // one untraced and one traced block
	}
	var walls, tracedWalls, plainWalls, setups []float64
	var layers []layerSample
	var tuples int64
	measureStart := time.Now()
	for i := 0; ; i++ {
		if i >= minOps && (o.smoke || time.Since(measureStart).Seconds() >= o.seconds) {
			break
		}
		traced := o.trace && (i/cycle)%2 == 1
		oc, ok, err := attempt(i, traced)
		if err != nil {
			return nil, err
		}
		walls = append(walls, ms(oc.wall))
		if !ok {
			continue
		}
		tuples += oc.tuples
		setups = append(setups, oc.setup.Seconds())
		if traced {
			tracedWalls = append(tracedWalls, ms(oc.wall))
			layers = append(layers, oc.layers)
		} else {
			plainWalls = append(plainWalls, ms(oc.wall))
		}
	}
	regAfter := takeProbe(nil, nil)

	got := layerSample{}
	var totalMs float64
	for _, x := range walls {
		totalMs += x
	}
	p50 := median(walls)
	tailV, tailP := tail(walls)
	got["op_ms_p50"] = p50
	got["op_ms_tail"] = tailV
	got["tuples_per_s"] = float64(tuples) / (totalMs / 1e3)
	got["setup_s"] = b.setupSeconds(setups)
	got["peak_rss_mb"] = peakRSSMiB()
	if o.trace {
		perLayer := map[string][]float64{}
		for _, l := range layers {
			for k, v := range l {
				perLayer[k] = append(perLayer[k], v)
			}
		}
		for k, xs := range perLayer {
			got[k] = median(xs)
		}
		if err := b.runLayers(got); err != nil {
			return nil, err
		}
		var failures float64
		for _, name := range []string{"ring_link_failures_total", "tcplink_post_rejects_total", "ring_stall_aborts_total"} {
			d, err := counterDelta(regBefore, regAfter, name, "")
			if err != nil {
				return nil, err
			}
			failures += d
		}
		got["transport.failures"] = failures
		got["trace.overhead"] = median(tracedWalls)/median(plainWalls) - 1
	}

	fmt.Fprintf(out, "workload %s seed %d trace %v: %d ops attempted, %d failed (%d wrong, %d errors, %d past deadline), fail_ratio %.4g; set-up %.3f s\n",
		w.name, o.seed, o.trace, t.attempted, t.failed(), t.wrong, t.errs, t.late, float64(t.failed())/float64(t.attempted), setupWall.Seconds())
	fmt.Fprintf(out, "  op_ms_tail is p%.1f over %d timed ops\n", tailP, len(walls))
	if t.firstErr != nil {
		fmt.Fprintf(out, "  first failure: %v\n", t.firstErr)
	}
	want := sp.EndToEnd
	if o.trace {
		want = sp.PerLayer
	}
	rec := &record{Correct: t.failed() == 0, Attempted: t.attempted, Failed: t.failed(), Metrics: map[string]value{}}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		rec.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	names := make([]string, 0, len(got))
	for k := range got {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-30s %14.6g %s\n", k, got[k], units[k])
	}
	return rec, nil
}

// procs is the scheduler's parallelism, the denominator of CPU use.
func procs() int { return runtime.GOMAXPROCS(0) }

// fingerprint identifies the machine and the source the record came from.
func fingerprint(root string) map[string]any {
	fp := map[string]any{
		"cpu":           cpuModel(),
		"vcpus":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        "unknown",
		"dirty":         "unknown",
		"source_sha256": sourceDigest(root),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				fp["commit"] = s.Value
			case "vcs.modified":
				fp["dirty"] = s.Value
			}
		}
	}
	return fp
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root, so a
// record taken outside a git checkout still names the code it measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(raw))
		h.Write(raw)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
