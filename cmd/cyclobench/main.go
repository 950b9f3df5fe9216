// Command cyclobench regenerates the paper's evaluation tables and figures
// (§V) from the calibrated cost model and the discrete-event ring
// simulator.
//
// Usage:
//
//	cyclobench                  # run every experiment
//	cyclobench -run fig7        # one experiment (fig3 fig5 fig7..fig12 table1)
//	cyclobench -list            # list experiment ids
//	cyclobench -chaos -seed 7   # seeded fault-injection suite on live rings
//	cyclobench -metrics         # append the runtime-metrics table per experiment
//	cyclobench -trace           # append the flight-recorder phase-share table
//
// The printed "paper:" notes state what the original evaluation reported,
// so shapes can be compared at a glance; EXPERIMENTS.md records the full
// paper-vs-reproduction comparison.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"cyclojoin/internal/costmodel"
	"cyclojoin/internal/experiments"
	"cyclojoin/internal/metrics"
	"cyclojoin/internal/stats"
	"cyclojoin/internal/trace"
)

func main() {
	os.Exit(run())
}

func run() int {
	runID := flag.String("run", "", "experiment id to run (default: all)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	showMetrics := flag.Bool("metrics", false, "print the process runtime-metrics table after each experiment")
	showTrace := flag.Bool("trace", false, "enable the flight recorder and print its per-phase share table after each experiment")
	chaos := flag.Bool("chaos", false, "run the seeded fault-injection scenarios against live rings instead of experiments")
	seed := flag.Uint64("seed", 1, "schedule seed for -chaos (0 derives one from the clock)")
	withHealth := flag.Bool("health", false, "with -chaos: run the live health sampler over each scenario and add its worst verdict to the table; a failed link must read degraded on that link, a delay-only scenario must not")
	flag.Parse()

	if *showTrace {
		trace.Flight().Enable(trace.DefaultShardCap)
	}

	if *chaos {
		return runChaos(os.Stdout, *seed, *withHealth)
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return 0
	}

	cal := costmodel.Default()
	selected := experiments.All()
	if *runID != "" {
		e, err := experiments.ByID(*runID)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		selected = []experiments.Experiment{e}
	}
	for i, e := range selected {
		tbl, err := e.Run(cal)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cyclobench: %s: %v\n", e.ID, err)
			return 1
		}
		if err := tbl.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "cyclobench: render %s: %v\n", e.ID, err)
			return 1
		}
		if *showMetrics {
			fmt.Println()
			if err := renderMetrics(os.Stdout, e.ID); err != nil {
				fmt.Fprintf(os.Stderr, "cyclobench: render metrics: %v\n", err)
				return 1
			}
		}
		if *showTrace {
			fmt.Println()
			if err := renderTrace(os.Stdout, e.ID); err != nil {
				fmt.Fprintf(os.Stderr, "cyclobench: render trace: %v\n", err)
				return 1
			}
		}
		if i < len(selected)-1 {
			fmt.Println()
		}
	}
	return 0
}

// renderMetrics prints the process-wide runtime metrics (cumulative
// across the experiments run so far) as a fixed-width table. Simulated
// experiments never touch the instrumented transport, so an all-zero
// registry is reported as such rather than as an empty table.
func renderMetrics(w io.Writer, after string) error {
	tbl := stats.NewTable("Runtime metrics (after "+after+")", "metric", "labels", "kind", "value")
	for _, s := range metrics.Default().Samples() {
		if s.Value == 0 {
			continue
		}
		tbl.AddRow(s.Name, s.Labels, s.Kind.String(), strconv.FormatInt(s.Value, 10))
	}
	if tbl.Rows() == 0 {
		tbl.SetNote("(no nonzero runtime metrics; simulated experiments do not exercise the live transport)")
	}
	return tbl.Render(w)
}

// renderTrace prints the flight recorder's per-phase time share
// (cumulative across the experiments run so far). Experiments that run on
// the cost model or the discrete-event simulator record no spans; only
// live-ring experiments feed the recorder — the note says so rather than
// printing an empty table. For the full per-node breakdown, run
// roundabout -flightrec and analyze with cyclotrace.
func renderTrace(w io.Writer, after string) error {
	tbl := stats.NewTable("Flight recorder phase shares (after "+after+")",
		"phase", "spans", "total", "share")
	a := trace.Analyze(trace.Flight().Snapshot())
	var total time.Duration
	shares := make(map[trace.Phase]time.Duration)
	counts := make(map[trace.Phase]int)
	for _, sp := range trace.Flight().Snapshot() {
		shares[sp.Phase] += time.Duration(sp.Dur)
		counts[sp.Phase]++
		total += time.Duration(sp.Dur)
	}
	// Instant events (autotune recentres, drop faults) carry no duration;
	// with only those recorded there is no time to share out.
	share := func(d time.Duration) string {
		if total == 0 {
			return "-"
		}
		return stats.Pct(float64(d) / float64(total))
	}
	for _, p := range trace.PipelinePhases {
		if counts[p] == 0 {
			continue
		}
		tbl.AddRow(p.String(), strconv.Itoa(counts[p]), shares[p].String(), share(shares[p]))
	}
	for _, st := range a.Aux {
		tbl.AddRow(st.Phase.String(), strconv.Itoa(st.Count), st.Total.String(), share(st.Total))
	}
	if tbl.Rows() == 0 {
		tbl.SetNote("(no spans recorded; simulated experiments do not exercise the live ring —\n" +
			" see roundabout -flightrec and cyclotrace for a live recording)")
	}
	return tbl.Render(w)
}
