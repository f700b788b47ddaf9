package sim

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/isa"
)

// sliceQueue is the unsorted-slice issue queue the ring replaced, kept
// as the oracle: append on issue, sweep out entries <= t, scan for the
// minimum.
type sliceQueue []int64

func (q sliceQueue) prune(t int64) sliceQueue {
	n := 0
	for _, e := range q {
		if e > t {
			q[n] = e
			n++
		}
	}
	return q[:n]
}

// admit is the slice-based iqAdmit.
func (q sliceQueue) admit(capQ int, t int64, ctrl bool) (sliceQueue, int64) {
	if ctrl {
		q = q.prune(t)
	}
	if len(q) >= capQ {
		q = q.prune(t)
		for len(q) >= capQ {
			earliest := q[0]
			for _, e := range q {
				if e < earliest {
					earliest = e
				}
			}
			if earliest > t {
				t = earliest
			}
			q = q.prune(t)
		}
	}
	return q, t
}

type nopCtrl struct{}

func (nopCtrl) OnInterval(*Machine, int64, IntervalStats) {}

func (q *issueQueue) contents() []int64 {
	out := make([]int64, q.n)
	for i := range out {
		out[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	return out
}

// TestIssueQueueMatchesSlice drives the ring and the slice oracle through
// the same randomized admit/issue sequence, with and without per-dispatch
// pruning, and requires the same admission times, lengths and multisets.
func TestIssueQueueMatchesSlice(t *testing.T) {
	for _, capQ := range []int{15, 20, 64} {
		for _, ctrl := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(capQ)))
			m := &Machine{}
			m.iq[0] = newIssueQueue(capQ)
			if ctrl {
				m.ctrl = nopCtrl{}
			}
			ring := &m.iq[0]
			full := 0
			var ref sliceQueue
			now := int64(0)
			for step := 0; step < 20_000; step++ {
				// Dispatch times mostly advance but may step back, as a
				// delayed admission leaves the next dispatch earlier.
				now += rng.Int63n(300) - 60
				var want int64
				ref, want = ref.admit(capQ, now, ctrl)
				got := m.iqAdmit(0, now)
				if got != want {
					t.Fatalf("cap %d ctrl %v step %d: admitted at %d, want %d", capQ, ctrl, step, got, want)
				}
				// Residency spreads so that occupancy hovers near capacity.
				issue := got + rng.Int63n(int64(capQ)*200)
				if rng.Intn(8) == 0 {
					issue = got + rng.Int63n(20) // ties and near-ties
				}
				ref = append(ref, issue)
				ring.insert(issue)
				have := ring.contents()
				sorted := slices.Clone(ref)
				slices.Sort(sorted)
				if len(have) == capQ {
					full++
				}
				if !slices.Equal(have, sorted) {
					t.Fatalf("cap %d ctrl %v step %d: ring %v, slice %v", capQ, ctrl, step, have, sorted)
				}
				if ring.front() != sorted[0] {
					t.Fatalf("cap %d ctrl %v step %d: front %d, min %d", capQ, ctrl, step, ring.front(), sorted[0])
				}
			}
			if full < 1000 {
				t.Fatalf("cap %d ctrl %v: queue full on only %d steps; the sequence does not exercise admission", capQ, ctrl, full)
			}
		}
	}
}

// TestColdWarmTapeIdentical runs the same machine twice on a seed no
// other test uses: the first run draws the jitter tape as it goes, the
// second reads it warm. The results must be byte-identical.
func TestColdWarmTapeIdentical(t *testing.T) {
	run := func() []byte {
		cfg := DefaultConfig()
		cfg.Seed = 0x7a9e
		b, err := json.Marshal(feed(New(cfg), isa.MemBound, 40_000))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cold, warm := run(), run()
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cold-tape result %s\nwarm-tape result %s", cold, warm)
	}
}
