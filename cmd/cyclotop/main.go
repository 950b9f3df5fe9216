// Command cyclotop is `top` for a spinning ring: it follows a roundabout
// process's /health/live SSE feed and renders a refreshing per-node table
// — phase shares, windowed hop latency percentiles, autotuner chunk size,
// credit stalls, per-link failure counts — plus the sampler's verdict line
// (healthy / straggler / credit-stall / degraded).
//
// Usage:
//
//	roundabout -rotations 200 -metrics 127.0.0.1:9090 &
//	cyclotop http://127.0.0.1:9090/health/live
//	cyclotop -once -json URL     # one snapshot as JSON (CI: validates the
//	                             # SSE payload decodes end to end)
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"cyclojoin/internal/health"
	"cyclojoin/internal/stats"
)

const defaultURL = "http://127.0.0.1:9090/health/live"

func main() {
	os.Exit(run())
}

func run() int {
	once := flag.Bool("once", false, "render the first snapshot and exit")
	asJSON := flag.Bool("json", false, "print snapshots as JSON instead of the table")
	wait := flag.Duration("wait", 5*time.Second, "keep retrying the initial connection for this long")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cyclotop [-once] [-json] [URL]\n\nURL is a /health/live endpoint (default %s).\n", defaultURL)
		flag.PrintDefaults()
	}
	flag.Parse()
	url := defaultURL
	if flag.NArg() > 1 {
		flag.Usage()
		return 2
	}
	if flag.NArg() == 1 {
		url = flag.Arg(0)
	}

	resp, err := connect(url, *wait)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cyclotop:", err)
		return 1
	}
	defer func() {
		_ = resp.Body.Close()
	}()

	// The feed is Server-Sent Events: one "data: {json}" line per
	// sampling tick, blank-line separated.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.HasPrefix(line, []byte("data: ")) {
			continue
		}
		var snap health.Snapshot
		if err := json.Unmarshal(bytes.TrimPrefix(line, []byte("data: ")), &snap); err != nil {
			fmt.Fprintln(os.Stderr, "cyclotop: bad snapshot:", err)
			return 1
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(&snap); err != nil {
				fmt.Fprintln(os.Stderr, "cyclotop:", err)
				return 1
			}
		} else {
			if !*once {
				// ANSI clear + home: refresh in place like top.
				fmt.Print("\x1b[2J\x1b[H")
			}
			if err := render(os.Stdout, &snap); err != nil {
				fmt.Fprintln(os.Stderr, "cyclotop:", err)
				return 1
			}
		}
		if *once {
			return 0
		}
	}
	if err := sc.Err(); err != nil && err != io.EOF {
		fmt.Fprintln(os.Stderr, "cyclotop: stream:", err)
		return 1
	}
	// The feed ended: the observed process finished its run.
	return 0
}

// connect retries the SSE dial until the deadline — cyclotop usually
// races the roundabout process it is pointed at.
func connect(url string, wait time.Duration) (*http.Response, error) {
	deadline := time.Now().Add(wait)
	for {
		resp, err := http.Get(url)
		if err == nil && resp.StatusCode == http.StatusOK {
			return resp, nil
		}
		if err == nil {
			_ = resp.Body.Close()
			err = fmt.Errorf("GET %s: %s", url, resp.Status)
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func render(w io.Writer, snap *health.Snapshot) error {
	fmt.Fprintf(w, "cyclotop — sample %d @ %s, window %s\n\n",
		snap.Seq, snap.Time.Format("15:04:05.000"), snap.Window.Round(time.Millisecond))

	tbl := stats.NewTable("Ring health (windowed)",
		"node", "busy", "wait", "stall", "hop p50", "hop p99", "frags/s", "queue", "chunk")
	for _, ns := range snap.Nodes {
		tbl.AddRow(
			strconv.Itoa(ns.Node),
			stats.Pct(ns.BusyShare),
			stats.Pct(ns.WaitShare),
			stats.Pct(ns.StallShare),
			fmtDur(time.Duration(ns.HopP50Ns)),
			fmtDur(time.Duration(ns.HopP99Ns)),
			fmt.Sprintf("%.0f", ns.FragsPerSec),
			strconv.FormatInt(ns.QueueDepth, 10),
			fmtBytes(ns.ChunkBytes),
		)
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	if len(snap.Faults) > 0 {
		parts := make([]string, 0, len(snap.Faults))
		for _, lf := range snap.Faults {
			parts = append(parts, fmt.Sprintf("%s: %d", lf.Link, lf.Failures))
		}
		fmt.Fprintf(w, "link failures: %s\n", strings.Join(parts, "  "))
	}
	v := snap.Verdict
	switch v.Kind {
	case health.Healthy:
		fmt.Fprintf(w, "verdict: %s — %s\n", v.Kind, v.Reason)
	case health.Straggler:
		fmt.Fprintf(w, "verdict: %s node %d (score %.1f) — %s\n", v.Kind, v.Node, v.Score, v.Reason)
	case health.CreditStall:
		fmt.Fprintf(w, "verdict: %s on link %s — %s\n", v.Kind, v.Link, v.Reason)
	case health.Degraded:
		fmt.Fprintf(w, "verdict: %s (link %s) — %s\n", v.Kind, v.Link, v.Reason)
	}
	if snap.Slowest >= 0 {
		fmt.Fprintf(w, "attribution: slowest node %d, most starved node %d, straggler score %.2f\n",
			snap.Slowest, snap.Starved, snap.Score)
	}
	return nil
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.Round(time.Nanosecond).String()
	}
}

func fmtBytes(n int64) string {
	switch {
	case n <= 0:
		return "-"
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return strconv.FormatInt(n, 10) + "B"
	}
}
