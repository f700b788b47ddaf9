package clock

import (
	"sync"
	"testing"

	"repro/internal/xrand"
)

// refJitter is the per-synchronizer draw loop the tape replaces.
func refJitter(seed int64, jitterPs float64, n int) []int64 {
	r := xrand.New(seed)
	out := make([]int64, n)
	for i := range out {
		out[i] = int64((r.NormFloat64() - r.NormFloat64()) * jitterPs / 2)
	}
	return out
}

// readJitter reads n draws through a synchronizer on tape t.
func readJitter(t *jitterTape, jitterPs float64, n int) []int64 {
	s := newSynchronizerOn(SyncConfig{JitterPs: jitterPs}, t)
	out := make([]int64, n)
	for i := range out {
		out[i] = s.jitter()
	}
	return out
}

// published returns the tape's published length and whether it is sealed.
func published(t *jitterTape) (int64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n, t.sealed
}

func sameDraws(t *testing.T, got, want []int64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("draw %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestJitterTapeMatchesDraws(t *testing.T) {
	const seed, jitter = 424, 110.0
	n := 3*tapeBlock + 17
	want := refJitter(seed, jitter, n)
	tp := newJitterTape(seed, jitter, tapeCap)
	sameDraws(t, readJitter(tp, jitter, n), want)
	if got, _ := published(tp); got != 4*tapeBlock {
		t.Fatalf("published %d entries, want %d (four blocks)", got, 4*tapeBlock)
	}
	// A second reader of the now warm tape sees the same draws.
	sameDraws(t, readJitter(tp, jitter, n), want)
}

func TestJitterTapePastCapacity(t *testing.T) {
	const seed, jitter = 425, 110.0
	for _, capacity := range []int{1, 100, tapeBlock + 3} {
		n := 3*capacity + 50
		want := refJitter(seed, jitter, n)
		tp := newJitterTape(seed, jitter, capacity)
		sameDraws(t, readJitter(tp, jitter, n), want)
		if end, sealed := published(tp); !sealed || end != int64(capacity) {
			t.Fatalf("capacity %d: sealed=%v at %d", capacity, sealed, end)
		}
		// A reader arriving after the seal takes the same hand-off.
		sameDraws(t, readJitter(tp, jitter, n), want)
	}
}

func TestJitterTapeUnrepresentable(t *testing.T) {
	// At 20 ns of jitter about one draw in fifty leaves int16's range,
	// so the tape seals early and the hand-off carries the rest.
	const seed, jitter = 426, 20_000.0
	n := 2000
	want := refJitter(seed, jitter, n)
	tp := newJitterTape(seed, jitter, tapeCap)
	sameDraws(t, readJitter(tp, jitter, n), want)
	end, sealed := published(tp)
	if !sealed || end == 0 || end >= int64(n) {
		t.Fatalf("sealed=%v at %d; want a seal inside the first %d draws", sealed, end, n)
	}
	if v := want[end]; v == int64(int16(v)) {
		t.Fatalf("tape sealed at %d on representable value %d", end, v)
	}
	sameDraws(t, readJitter(tp, jitter, n), want)
}

func TestJitterTapeConcurrentReaders(t *testing.T) {
	const seed, jitter = 427, 110.0
	n := 4*tapeBlock + 1
	want := refJitter(seed, jitter, n)
	tp := newJitterTape(seed, jitter, 3*tapeBlock)
	var wg sync.WaitGroup
	got := make([][]int64, 2)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = readJitter(tp, jitter, n)
		}()
	}
	wg.Wait()
	for g := range got {
		sameDraws(t, got[g], want)
	}
}

func TestTapeForSharesAndBounds(t *testing.T) {
	a := NewSynchronizer(DefaultSyncConfig(), 428)
	b := NewSynchronizer(DefaultSyncConfig(), 428)
	if a.tape != b.tape {
		t.Fatal("synchronizers with one seed and jitter do not share a tape")
	}
	other := DefaultSyncConfig()
	other.JitterPs = 55
	if c := NewSynchronizer(other, 428); c.tape == a.tape {
		t.Fatal("different JitterPs shares a tape")
	}
	for seed := int64(0); seed < 2*maxTapes; seed++ {
		NewSynchronizer(DefaultSyncConfig(), 500+seed)
	}
	tapes.mu.Lock()
	n := len(tapes.list)
	tapes.mu.Unlock()
	if n != maxTapes {
		t.Fatalf("process retains %d tapes, want %d", n, maxTapes)
	}
	off := DefaultSyncConfig()
	off.Disabled = true
	if s := NewSynchronizer(off, 428); s.tape != nil {
		t.Fatal("disabled synchronizer took a tape")
	}
}

// BenchmarkSynchronizerCross measures one domain crossing between two
// unrelated 775 MHz / 1 GHz clocks. A fresh synchronizer replays each
// 64 Ki crossings, as the lanes of a sweep do, so past the first pass
// the jitter comes from a warm tape.
func BenchmarkSynchronizerCross(b *testing.B) {
	prod := New(775)
	cons := NewWithPhase(1000, 333)
	tt := int64(0)
	edges := make([]int64, 1<<16)
	for i := range edges {
		tt = prod.NextEdge(tt)
		edges[i] = tt
	}
	b.ResetTimer()
	var sy *Synchronizer
	for i := 0; i < b.N; i++ {
		j := i & (len(edges) - 1)
		if j == 0 {
			sy = NewSynchronizer(DefaultSyncConfig(), 1)
		}
		sy.Cross(edges[j], prod, cons)
	}
}
