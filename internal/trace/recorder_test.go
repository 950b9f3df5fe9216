package trace

import (
	"fmt"
	"sync"
	"testing"
)

// TestRecorderSpanPairingConcurrent proves the sharded design never loses
// span pairing under parallel producers: every producer hammers its own
// shard, and afterwards every retained span is a completed pair (Dur >= 1)
// with the producer's own correlation key, retained counts are exact, and
// overflow shows up in Dropped rather than as corruption. Run with -race.
func TestRecorderSpanPairingConcurrent(t *testing.T) {
	const (
		producers = 8
		perProd   = 1000
		shardCap  = 512
	)
	rec := NewRecorder(shardCap)
	shards := make([]*Shard, producers)
	for i := range shards {
		shards[i] = rec.Shard(i, fmt.Sprintf("prod/%d", i))
	}
	var wg sync.WaitGroup
	for i, s := range shards {
		wg.Add(1)
		go func(i int, s *Shard) {
			defer wg.Done()
			for k := 0; k < perProd; k++ {
				pd := s.Begin(PhaseJoin)
				pd.Frag = int32(i)
				pd.Hop = int32(k)
				pd.Arg = int64(k)
				s.End(pd)
			}
		}(i, s)
	}
	wg.Wait()

	spans := rec.Snapshot()
	if got, want := len(spans), producers*shardCap; got != want {
		t.Fatalf("retained %d spans, want %d", got, want)
	}
	if got, want := rec.Dropped(), int64(producers*(perProd-shardCap)); got != want {
		t.Fatalf("dropped %d spans, want %d", got, want)
	}
	perTrack := make(map[int32]int)
	lastStart := make(map[int32]int64)
	lastHop := make(map[int32]int32)
	for _, sp := range spans {
		if sp.Dur < 1 {
			t.Fatalf("span %+v has no duration: begin/end pairing lost", sp)
		}
		if sp.Phase != PhaseJoin {
			t.Fatalf("span %+v has wrong phase", sp)
		}
		if int32(sp.Node) != sp.Frag {
			t.Fatalf("span %+v: correlation key crossed shards (node %d, frag %d)", sp, sp.Node, sp.Frag)
		}
		if prev, ok := lastStart[sp.Track]; ok && sp.Start < prev {
			t.Fatalf("track %d spans out of order: %d after %d", sp.Track, sp.Start, prev)
		}
		if prev, ok := lastHop[sp.Track]; ok && sp.Hop != prev+1 {
			t.Fatalf("track %d lost spans inside the retained window: hop %d after %d", sp.Track, sp.Hop, prev)
		}
		lastStart[sp.Track] = sp.Start
		lastHop[sp.Track] = sp.Hop
		perTrack[sp.Track]++
	}
	for tr, n := range perTrack {
		if n != shardCap {
			t.Fatalf("track %d retained %d spans, want %d", tr, n, shardCap)
		}
	}
}

// TestRecorderDisabledIsInert: before Enable, shards are the shared no-op
// shard and record nothing; shards created after Enable are live.
func TestRecorderDisabledIsInert(t *testing.T) {
	rec := &Recorder{}
	s := rec.Shard(0, "early")
	pd := s.Begin(PhaseJoin)
	if pd.Active() {
		t.Fatal("pending from a disabled recorder is active")
	}
	s.End(pd)
	s.Point(PhaseRetire, 0, 0, 0)
	if n := len(rec.Snapshot()); n != 0 {
		t.Fatalf("disabled recorder retained %d spans", n)
	}
	rec.Enable(16)
	// The pre-Enable shard stays inert by contract...
	s.Point(PhaseRetire, 0, 0, 0)
	if n := len(rec.Snapshot()); n != 0 {
		t.Fatalf("inert shard recorded %d spans after Enable", n)
	}
	// ...but new shards record.
	live := rec.Shard(0, "late")
	if !live.Enabled() {
		t.Fatal("post-Enable shard not enabled")
	}
	pd = live.Begin(PhaseJoin)
	if !pd.Active() {
		t.Fatal("pending from an enabled recorder is inactive")
	}
	live.End(pd)
	if n := len(rec.Snapshot()); n != 1 {
		t.Fatalf("retained %d spans, want 1", n)
	}
}

// TestRecorderOverwriteOldest: a full shard drops its oldest spans, keeps
// the newest, and counts the loss.
func TestRecorderOverwriteOldest(t *testing.T) {
	rec := NewRecorder(4)
	s := rec.Shard(2, "x")
	for k := 0; k < 10; k++ {
		s.Point(PhaseRetire, int32(k), 0, 0)
	}
	spans := rec.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	for i, sp := range spans {
		if want := int32(6 + i); sp.Frag != want {
			t.Fatalf("span %d is frag %d, want %d (oldest-drop violated)", i, sp.Frag, want)
		}
	}
	if d := s.Dropped(); d != 6 {
		t.Fatalf("dropped %d, want 6", d)
	}
	rec.Reset()
	if n := len(rec.Snapshot()); n != 0 {
		t.Fatalf("reset left %d spans", n)
	}
	if d := rec.Dropped(); d != 0 {
		t.Fatalf("reset left dropped=%d", d)
	}
}

// TestSpanHotPathZeroAlloc is the allocation guard the tier-1 gate runs:
// recording a begin/end pair or an instant with tracing ENABLED must not
// allocate (the benchmark BenchmarkSpanBeginEnd enforces the same bound).
func TestSpanHotPathZeroAlloc(t *testing.T) {
	rec := NewRecorder(1024)
	s := rec.Shard(0, "hot")
	if allocs := testing.AllocsPerRun(1000, func() {
		pd := s.Begin(PhaseJoin)
		pd.Frag, pd.Hop, pd.Arg = 7, 3, 4096
		s.End(pd)
	}); allocs != 0 {
		t.Fatalf("enabled begin/end allocates %.1f times per span, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		s.Point(PhaseRetire, 7, 4, 0)
	}); allocs != 0 {
		t.Fatalf("enabled point allocates %.1f times per event, want 0", allocs)
	}
	off := Flight().Shard(0, "off") // global recorder: disabled unless a test enabled it
	if allocs := testing.AllocsPerRun(1000, func() {
		pd := off.Begin(PhaseJoin)
		off.End(pd)
	}); allocs != 0 {
		t.Fatalf("disabled begin/end allocates %.1f times per span, want 0", allocs)
	}
}

// BenchmarkSpanBeginEnd measures the enabled hot path and fails if it
// ever allocates — the flight-recorder analogue of BenchmarkForwardStage.
func BenchmarkSpanBeginEnd(b *testing.B) {
	rec := NewRecorder(4096)
	s := rec.Shard(0, "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pd := s.Begin(PhaseJoin)
		pd.Frag, pd.Hop, pd.Arg = 1, 2, 3
		s.End(pd)
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(1000, func() {
		pd := s.Begin(PhaseJoin)
		s.End(pd)
	}); allocs != 0 {
		b.Fatalf("span hot path allocates %.1f times per event, want 0", allocs)
	}
}

// BenchmarkSpanDisabled measures the disabled cost: one atomic load.
func BenchmarkSpanDisabled(b *testing.B) {
	rec := &Recorder{}
	s := rec.Shard(0, "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pd := s.Begin(PhaseJoin)
		s.End(pd)
	}
}

// BenchmarkPoint measures the instant-event path.
func BenchmarkPoint(b *testing.B) {
	rec := NewRecorder(4096)
	s := rec.Shard(0, "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Point(PhaseRetire, 1, 2, 3)
	}
}

// TestKindStrings: every span kind (Phase) renders its wire name, the
// names are distinct — the Perfetto parser maps them back — and an
// unknown phase still renders.
func TestKindStrings(t *testing.T) {
	tests := []struct {
		p    Phase
		want string
	}{
		{PhaseReceive, "receive"},
		{PhaseWait, "wait"},
		{PhaseJoin, "join"},
		{PhaseStage, "stage"},
		{PhaseSend, "send"},
		{PhaseRetire, "retire"},
		{PhaseCreditStall, "credit-stall"},
		{PhaseRelink, "relink"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.want {
			t.Errorf("Phase(%d).String() = %q, want %q", tt.p, got, tt.want)
		}
	}
	seen := make(map[string]Phase)
	for p := PhaseReceive; p <= PhaseAutotune; p++ {
		s := p.String()
		if s == "" || s == Phase(0).String() {
			t.Errorf("Phase(%d) has no name", p)
		}
		if q, dup := seen[s]; dup {
			t.Errorf("phases %d and %d share the name %q", q, p, s)
		}
		seen[s] = p
	}
	if Phase(200).String() == "" {
		t.Error("unknown phase must still render")
	}
}

// TestBufferRecordAndQuery: spans recorded on several shards come back
// from Snapshot merged in start order with their node, track and
// magnitudes intact; the snapshot is a copy; Tracks names every shard;
// Reset empties the shards but keeps them registered.
func TestBufferRecordAndQuery(t *testing.T) {
	rec := NewRecorder(16)
	a := rec.Shard(1, "join")
	b := rec.Shard(2, "send")
	pd := a.Begin(PhaseJoin)
	pd.Frag, pd.Hop, pd.Arg = 7, 0, 100
	a.End(pd)
	pd = b.Begin(PhaseSend)
	pd.Frag, pd.Hop, pd.Arg = 7, 1, 42
	b.End(pd)
	a.Point(PhaseRetire, 7, 3, 0)

	if a.Len() != 2 || b.Len() != 1 {
		t.Fatalf("shard Len = %d/%d, want 2/1", a.Len(), b.Len())
	}
	spans := rec.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("Snapshot = %+v, want 3 spans", spans)
	}
	byPhase := make(map[Phase]Span)
	for i, sp := range spans {
		if i > 0 && sp.Start < spans[i-1].Start {
			t.Fatalf("Snapshot not in start order: %+v", spans)
		}
		byPhase[sp.Phase] = sp
	}
	join, send, retire := byPhase[PhaseJoin], byPhase[PhaseSend], byPhase[PhaseRetire]
	if join.Node != 1 || join.Frag != 7 || join.Arg != 100 || join.Dur < 1 {
		t.Errorf("join span = %+v", join)
	}
	if send.Node != 2 || send.Arg != 42 || send.Hop != 1 || send.Dur < 1 || send.Track == join.Track {
		t.Errorf("send span = %+v", send)
	}
	if retire.Node != 1 || retire.Hop != 3 || retire.Dur != 0 || retire.Track != join.Track {
		t.Errorf("retire point = %+v", retire)
	}
	tracks := rec.Tracks()
	if len(tracks) != 2 || tracks[0].Entity != "join" || tracks[1].Node != 2 {
		t.Errorf("Tracks = %+v", tracks)
	}
	// The returned slice is a copy.
	for i := range spans {
		spans[i].Node = 99
	}
	for _, sp := range rec.Snapshot() {
		if sp.Node == 99 {
			t.Fatal("Snapshot exposed internal storage")
		}
	}
	rec.Reset()
	if n := len(rec.Snapshot()); n != 0 || a.Len() != 0 {
		t.Fatalf("Reset left %d spans", n)
	}
	a.Point(PhaseRetire, 8, 3, 0)
	if a.Len() != 1 || len(rec.Tracks()) != 2 {
		t.Error("Reset unregistered a shard")
	}
}

// TestBufferConcurrent: Snapshot, Dropped and Shard registration run
// safely alongside live producers, and once the producers stop the
// recording is exact. Run with -race.
func TestBufferConcurrent(t *testing.T) {
	const workers, per = 8, 500
	rec := NewRecorder(per)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := len(rec.Snapshot()); n > workers*per {
				t.Errorf("snapshot of %d spans exceeds what was recorded", n)
			}
			if d := rec.Dropped(); d != 0 {
				t.Errorf("dropped %d spans with room to spare", d)
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := rec.Shard(w, fmt.Sprintf("w/%d", w))
			for i := 0; i < per; i++ {
				s.Point(PhaseRetire, int32(w), int32(i), 0)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	if n := len(rec.Snapshot()); n != workers*per {
		t.Errorf("retained %d spans, want %d", n, workers*per)
	}
	if n := len(rec.Tracks()); n != workers {
		t.Errorf("registered %d tracks, want %d", n, workers)
	}
}

// TestNopDiscards: the shared inert shard handed out before any recorder
// wiring exists records nothing and never panics.
func TestNopDiscards(t *testing.T) {
	s := NopShard()
	if s.Enabled() {
		t.Fatal("NopShard reports enabled")
	}
	pd := s.Begin(PhaseJoin)
	if pd.Active() {
		t.Fatal("NopShard handed out an active pending")
	}
	pd.Frag, pd.Arg = 3, 10
	s.End(pd)
	s.Point(PhaseRetire, 3, 1, 0)
	if s.Len() != 0 || s.Dropped() != 0 {
		t.Fatalf("NopShard retained %d spans, dropped %d", s.Len(), s.Dropped())
	}
	if (&Recorder{}).Shard(0, "early") != s {
		t.Error("a disabled recorder does not hand out the shared inert shard")
	}
}

// TestBufferBounded: each shard is bounded on its own. Overflowing one
// shard evicts only that shard's oldest spans; the recorder's Dropped is
// the sum over shards, and interval spans count like instants.
func TestBufferBounded(t *testing.T) {
	rec := NewRecorder(4)
	full := rec.Shard(0, "full")
	quiet := rec.Shard(1, "quiet")
	quiet.Point(PhaseRetire, 100, 0, 0)
	for i := 0; i < 10; i++ {
		if i%2 == 0 {
			full.Point(PhaseRetire, int32(i), 0, 0)
			continue
		}
		pd := full.Begin(PhaseJoin)
		pd.Frag = int32(i)
		full.End(pd)
	}
	other := rec.Shard(2, "other")
	for i := 0; i < 6; i++ {
		other.Point(PhaseRetire, int32(200+i), 0, 0)
	}
	if full.Len() != 4 || quiet.Len() != 1 || other.Len() != 4 {
		t.Fatalf("Len = %d/%d/%d, want 4/1/4", full.Len(), quiet.Len(), other.Len())
	}
	if full.Dropped() != 6 || quiet.Dropped() != 0 || other.Dropped() != 2 {
		t.Fatalf("Dropped = %d/%d/%d, want 6/0/2", full.Dropped(), quiet.Dropped(), other.Dropped())
	}
	if d := rec.Dropped(); d != 8 {
		t.Fatalf("recorder Dropped = %d, want 8", d)
	}
	var kept []int32
	for _, sp := range rec.Snapshot() {
		switch sp.Node {
		case 0:
			kept = append(kept, sp.Frag)
		case 1:
			if sp.Frag != 100 {
				t.Fatalf("quiet shard lost its span: %+v", sp)
			}
		}
	}
	for i, f := range kept {
		if want := int32(6 + i); f != want {
			t.Fatalf("full shard kept frags %v, want 6..9 (oldest-drop order violated)", kept)
		}
	}
}

// TestBufferZeroValueCap: a zero-value Recorder enabled with a
// non-positive cap is usable, anchors its epoch, and gives each shard
// DefaultShardCap spans.
func TestBufferZeroValueCap(t *testing.T) {
	var rec Recorder
	rec.Enable(0)
	if rec.Epoch().IsZero() {
		t.Fatal("Enable left the epoch unset")
	}
	s := rec.Shard(0, "x")
	for i := 0; i < DefaultShardCap+10; i++ {
		s.Point(PhaseRetire, int32(i), 0, 0)
	}
	if s.Len() != DefaultShardCap {
		t.Fatalf("Len = %d, want %d", s.Len(), DefaultShardCap)
	}
	if s.Dropped() != 10 {
		t.Fatalf("Dropped = %d, want 10", s.Dropped())
	}
	spans := rec.Snapshot()
	if first := spans[0]; first.Frag != 10 || first.Start <= 0 {
		t.Fatalf("oldest retained span = %+v, want frag 10 with a positive start", first)
	}
	// A second Enable is a no-op: the cap stays.
	rec.Enable(4)
	y := rec.Shard(0, "y")
	for i := 0; i < 8; i++ {
		y.Point(PhaseRetire, 0, 0, 0)
	}
	if y.Len() != 8 {
		t.Fatalf("re-Enable changed the shard cap: Len = %d, want 8", y.Len())
	}
}
