package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestSmoke runs every workload at smoke size, untraced and traced, and
// checks that each record passes the oracle and carries exactly the
// metrics BENCHMARK.json names, each with its unit.
func TestSmoke(t *testing.T) {
	const specPath = "../BENCHMARK.json"
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []string{"0", "1"} {
		var out bytes.Buffer
		if err := run([]string{"--workload", "all", "--smoke", "--trace", traced, "--spec", specPath}, &out); err != nil {
			t.Fatalf("--trace %s: %v\n%s", traced, err, out.String())
		}
		want := sp.EndToEnd
		if traced == "1" {
			want = sp.PerLayer
		}
		var records []record
		sc := bufio.NewScanner(&out)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "{") {
				var rec record
				if err := json.Unmarshal([]byte(line), &rec); err != nil {
					t.Fatalf("record %q: %v", line, err)
				}
				records = append(records, rec)
			}
		}
		if len(records) != len(sp.Workloads) {
			t.Fatalf("--trace %s: %d records for %d workloads", traced, len(records), len(sp.Workloads))
		}
		for i, rec := range records {
			w := sp.Workloads[i].Name
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s --trace %s: correct=%v attempted=%d failed=%d", w, traced, rec.Correct, rec.Attempted, rec.Failed)
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s --trace %s: %d metrics, want %d", w, traced, len(rec.Metrics), len(want))
			}
			for _, m := range want {
				if v, ok := rec.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("%s --trace %s: metric %s = %+v, want unit %s", w, traced, m.Name, v, m.Unit)
				}
			}
		}
	}
}

// TestOracle checks the multiplicity oracles against nested loops.
func TestOracle(t *testing.T) {
	const domain = 40
	g := newKeyGen(7, 1)
	r, s, l := g.uniform(300, domain), g.uniform(200, domain), g.uniform(50, domain)
	cR, cS, cL := multiplicities(r, domain), multiplicities(s, domain), multiplicities(l, domain)
	var equi, band, chain int64
	var prefix []uint64
	for _, rk := range r {
		for _, sk := range s {
			if rk == sk {
				equi++
				for _, lk := range l {
					if lk == rk {
						chain++
					}
				}
			}
			if d := int(rk) - int(sk); d >= -2 && d <= 2 {
				band++
			}
		}
	}
	for k := 0; k < domain/2; k++ {
		for m := cR[k] * cS[k]; m > 0; m-- {
			prefix = append(prefix, uint64(k))
		}
	}
	if got := equiCount(r, cS); got != equi {
		t.Errorf("equiCount = %d, nested loops say %d", got, equi)
	}
	if got := chainCount(cR, cS); got != equi {
		t.Errorf("chainCount(R, S) = %d, nested loops say %d", got, equi)
	}
	if got := bandCount(r, cS, 2); got != band {
		t.Errorf("bandCount = %d, nested loops say %d", got, band)
	}
	if got := chainCount(cR, cS, cL); got != chain {
		t.Errorf("chainCount(R, S, L) = %d, nested loops say %d", got, chain)
	}
	if got := orderedPrefix(cR, cS, domain/2, 25); !reflect.DeepEqual(got, prefix[:25]) {
		t.Errorf("orderedPrefix = %v, want %v", got, prefix[:25])
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if v, p := tail(xs); v != 90 || p != 90 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90", v, p)
	}
	if v, p := tail(xs[:15]); v != 100 || p != 100 {
		t.Errorf("tail of 15 samples = %v at p%v, want the maximum", v, p)
	}
}
