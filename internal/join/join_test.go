package join

import (
	"encoding/binary"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func TestEquiMatches(t *testing.T) {
	p := Equi{}
	if !p.Matches(5, 5) || p.Matches(5, 6) {
		t.Error("Equi predicate wrong")
	}
}

func TestBandMatches(t *testing.T) {
	tests := []struct {
		width  uint64
		r, s   uint64
		expect bool
	}{
		{0, 5, 5, true},
		{0, 5, 6, false},
		{2, 5, 7, true},
		{2, 7, 5, true},
		{2, 5, 8, false},
		{2, 8, 5, false},
		{10, 0, 10, true},
		{10, 0, 11, false},
		{1, ^uint64(0), ^uint64(0) - 1, true},
	}
	for _, tt := range tests {
		p := Band{Width: tt.width}
		if got := p.Matches(tt.r, tt.s); got != tt.expect {
			t.Errorf("Band(%d).Matches(%d, %d) = %v, want %v", tt.width, tt.r, tt.s, got, tt.expect)
		}
	}
}

// TestBandSymmetric: band joins are symmetric in their arguments.
func TestBandSymmetric(t *testing.T) {
	f := func(w, r, s uint64) bool {
		p := Band{Width: w % 1000}
		return p.Matches(r, s) == p.Matches(s, r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBandZeroIsEqui: Band{0} must be exactly Equi.
func TestBandZeroIsEqui(t *testing.T) {
	f := func(r, s uint64) bool {
		return Band{}.Matches(r, s) == Equi{}.Matches(r, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestThetaMatches(t *testing.T) {
	lt := Theta{Name: "less", Fn: func(r, s uint64) bool { return r < s }}
	if !lt.Matches(1, 2) || lt.Matches(2, 1) {
		t.Error("Theta predicate wrong")
	}
	if lt.String() != "theta(less)" {
		t.Errorf("String() = %q", lt.String())
	}
	if (Theta{Fn: lt.Fn}).String() != "theta" {
		t.Error("unnamed theta String() wrong")
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.Workers() != 1 {
		t.Errorf("Workers() = %d, want 1", o.Workers())
	}
	if o.L2Bytes() != DefaultL2Bytes {
		t.Errorf("L2Bytes() = %d, want %d", o.L2Bytes(), DefaultL2Bytes)
	}
	o = Options{Parallelism: 4, L2CacheBytes: 1 << 10}
	if o.Workers() != 4 || o.L2Bytes() != 1<<10 {
		t.Error("explicit options not honored")
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Emit(1, 1, nil, nil)
			}
		}()
	}
	wg.Wait()
	if c.Count() != workers*per {
		t.Errorf("Count = %d, want %d", c.Count(), workers*per)
	}
	c.Reset()
	if c.Count() != 0 {
		t.Error("Reset did not zero")
	}
}

func TestMaterializerLayout(t *testing.T) {
	m := NewMaterializer("out", 2, 3)
	m.Emit(7, 9, []byte{1, 2}, []byte{3, 4, 5})
	out := m.Result()
	if out.Len() != 1 {
		t.Fatalf("Len = %d", out.Len())
	}
	if out.Key(0) != 7 {
		t.Errorf("key = %d, want rKey 7", out.Key(0))
	}
	pay := out.Payload(0)
	if len(pay) != 2+8+3 {
		t.Fatalf("payload width = %d", len(pay))
	}
	if pay[0] != 1 || pay[1] != 2 {
		t.Error("rPay not first")
	}
	if got := binary.LittleEndian.Uint64(pay[2:10]); got != 9 {
		t.Errorf("embedded sKey = %d, want 9", got)
	}
	if pay[10] != 3 || pay[12] != 5 {
		t.Error("sPay not last")
	}
}

func TestRekeyedMaterializer(t *testing.T) {
	m := NewRekeyedMaterializer("out", 1, 1)
	m.Emit(7, 9, []byte{0xaa}, []byte{0xbb})
	out := m.Result()
	if out.Key(0) != 9 {
		t.Errorf("key = %d, want sKey 9", out.Key(0))
	}
	pay := out.Payload(0)
	if got := binary.LittleEndian.Uint64(pay[:8]); got != 7 {
		t.Errorf("embedded rKey = %d, want 7", got)
	}
	if pay[8] != 0xaa || pay[9] != 0xbb {
		t.Error("payload order wrong")
	}
}

func TestMaterializerCopiesPayload(t *testing.T) {
	m := NewMaterializer("out", 1, 0)
	buf := []byte{42}
	m.Emit(1, 1, buf, nil)
	buf[0] = 0 // caller reuses its buffer
	if got := m.Result().Payload(0)[0]; got != 42 {
		t.Errorf("payload[0] = %d, want 42: materializer aliased caller's buffer", got)
	}
}

func TestPairSetEqual(t *testing.T) {
	a, b := NewPairSet(), NewPairSet()
	a.Emit(1, 2, nil, nil)
	a.Emit(1, 2, nil, nil)
	b.Emit(1, 2, nil, nil)
	if a.Equal(b) {
		t.Error("multiset counts differ but Equal returned true")
	}
	b.Emit(1, 2, nil, nil)
	if !a.Equal(b) {
		t.Error("identical multisets not Equal")
	}
	b.Emit(3, 4, nil, nil)
	if a.Equal(b) {
		t.Error("extra pair not detected")
	}
}

func TestTee(t *testing.T) {
	var a, b Counter
	tee := Tee{&a, &b}
	tee.Emit(1, 1, nil, nil)
	if a.Count() != 1 || b.Count() != 1 {
		t.Error("Tee did not fan out")
	}
}

func TestDiscard(t *testing.T) {
	Discard{}.Emit(1, 2, []byte{1}, []byte{2}) // must not panic
}

// emitOnly hides a collector's run path.
type emitOnly struct{ Collector }

// TestEmitRunEqualsEmitLoop: for every collector, delivering runs through
// EmitRun leaves the same result as one Emit per match.
func TestEmitRunEqualsEmitLoop(t *testing.T) {
	const rW, sW = 2, 3
	type run struct {
		rKey  uint64
		rPay  []byte
		sKeys []uint64
		sPay  []byte
	}
	runs := []run{
		{5, []byte{1, 2}, []uint64{3, 4, 4, 7}, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}},
		{6, []byte{3, 4}, nil, nil},
		{9, []byte{5, 6}, []uint64{9}, []byte{13, 14, 15}},
	}
	relationOf := func(m *Materializer) any {
		r := m.Result()
		return [2]any{append([]uint64(nil), r.Keys()...), append([]byte(nil), r.PayloadColumn()...)}
	}
	cases := []struct {
		name   string
		new    func() Collector
		result func(Collector) any
	}{
		{"Counter", func() Collector { return &Counter{} }, func(c Collector) any { return c.(*Counter).Count() }},
		{"Discard", func() Collector { return Discard{} }, func(Collector) any { return nil }},
		{"Materializer", func() Collector { return NewMaterializer("out", rW, sW) },
			func(c Collector) any { return relationOf(c.(*Materializer)) }},
		{"RekeyedMaterializer", func() Collector { return NewRekeyedMaterializer("out", rW, sW) },
			func(c Collector) any { return relationOf(c.(*Materializer)) }},
		{"PairSet", func() Collector { return NewPairSet() }, func(c Collector) any { return c.(*PairSet).Pairs() }},
		{"Tee", func() Collector {
			return Tee{&Counter{}, emitOnly{NewPairSet()}, NewMaterializer("out", rW, sW)}
		}, func(c Collector) any {
			tee := c.(Tee)
			return [3]any{tee[0].(*Counter).Count(), tee[1].(emitOnly).Collector.(*PairSet).Pairs(), relationOf(tee[2].(*Materializer))}
		}},
		{"emit-only adapter", func() Collector { return emitOnly{NewMaterializer("out", rW, sW)} },
			func(c Collector) any { return relationOf(c.(emitOnly).Collector.(*Materializer)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			batched, looped := tc.new(), tc.new()
			rc := Runs(batched)
			for _, r := range runs {
				rc.EmitRun(r.rKey, r.rPay, r.sKeys, r.sPay)
				for i, sKey := range r.sKeys {
					looped.Emit(r.rKey, sKey, r.rPay, r.sPay[i*sW:(i+1)*sW])
				}
			}
			if got, want := tc.result(batched), tc.result(looped); !reflect.DeepEqual(got, want) {
				t.Errorf("EmitRun result %v, Emit loop result %v", got, want)
			}
		})
	}
}

func TestRunsResolvesRunPath(t *testing.T) {
	c := &Counter{}
	if Runs(c) != RunCollector(c) {
		t.Error("Runs should return a run collector itself")
	}
	if _, ok := Runs(emitOnly{c}).(emitLoop); !ok {
		t.Error("Runs should adapt an Emit-only collector")
	}
}

// TestCounterEmitRunConcurrent races EmitRun against Emit on one Counter;
// run it under -race.
func TestCounterEmitRunConcurrent(t *testing.T) {
	var c Counter
	const workers, per = 8, 1000
	run := []uint64{1, 2, 3}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if w%2 == 0 {
					c.EmitRun(1, nil, run, nil)
				} else {
					c.Emit(1, 1, nil, nil)
				}
			}
		}(w)
	}
	wg.Wait()
	if want := int64(workers / 2 * per * (len(run) + 1)); c.Count() != want {
		t.Errorf("Count = %d, want %d", c.Count(), want)
	}
}
