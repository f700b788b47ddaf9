package clock

import (
	"math"
	"sync"

	"repro/internal/xrand"
)

// Jitter tapes. A synchronizer's jitter sequence depends only on its
// seed and JitterPs: crossing k draws the k-th pair of normals from
// xrand.New(seed). Every machine of a sweep shares both, so the draws
// are made once per process into a shared tape and each synchronizer
// reads the tape at its own position instead of running the generator.
const (
	// tapeCap bounds a tape's length (int16 entries, 4 MiB). A
	// synchronizer that crosses more often continues on a private copy
	// of the generator.
	tapeCap = 1 << 21
	// tapeBlock is how many entries one extension draws.
	tapeBlock = 1 << 13
	// maxTapes is how many tapes the process retains; the least
	// recently requested one is dropped first. A dropped tape lives on
	// in the synchronizers that hold it.
	maxTapes = 4
)

// jitterTape is the shared, lazily drawn jitter sequence of one
// (seed, JitterPs) pair. Entry k is exactly the jitter the k-th crossing
// would have drawn:
//
//	int64((n[2k] - n[2k+1]) * JitterPs / 2)
//
// where n is the NormFloat64 sequence of xrand.New(seed). The published
// prefix is immutable: a synchronizer caches the length extend returned
// and locks again only when it passes that prefix, which on a warm tape
// is once. The tape ends at its capacity or at the first entry that
// does not fit int16; the entry at the end is kept as tail, and rest is
// the generator state right after drawing it, from which every later
// entry follows exactly.
type jitterTape struct {
	seed     int64
	jitterPs float64
	vals     []int16 // capacity entries, allocated with the tape

	mu     sync.Mutex
	n      int64      // published prefix length
	rng    xrand.Rand // state after drawing the published prefix
	sealed bool
	tail   int64
	rest   xrand.Rand
}

func newJitterTape(seed int64, jitterPs float64, capacity int) *jitterTape {
	return &jitterTape{seed: seed, jitterPs: jitterPs, vals: make([]int16, capacity), rng: *xrand.New(seed)}
}

// draw returns the next jitter value of the tape's generator.
func (t *jitterTape) draw() int64 { return drawJitter(&t.rng, t.jitterPs) }

// drawJitter draws one jitter value: the shift of the consumer edge
// relative to the producer's, the difference of two independent normal
// draws scaled by jitterPs/2.
func drawJitter(r *xrand.Rand, jitterPs float64) int64 {
	return int64((r.NormFloat64() - r.NormFloat64()) * jitterPs / 2)
}

// extend makes entry k available if the tape reaches it and returns the
// published length. A result <= k means the tape is sealed before k.
func (t *jitterTape) extend(k int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.n
	for n <= k && !t.sealed {
		end := min(n+tapeBlock, int64(len(t.vals)))
		for ; n < end; n++ {
			v := t.draw()
			if v != int64(int16(v)) {
				t.seal(v)
				break
			}
			t.vals[n] = int16(v)
		}
		if n == int64(len(t.vals)) && !t.sealed {
			t.seal(t.draw())
		}
		t.n = n
	}
	return n
}

// seal ends the tape with tail as the entry at its end.
func (t *jitterTape) seal(tail int64) {
	t.sealed = true
	t.tail = tail
	t.rest = t.rng
}

// handOff returns the entry at the sealed tape's end and copies the
// generator state that follows it into rng.
func (t *jitterTape) handOff(rng *xrand.Rand) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	*rng = t.rest
	return t.tail
}

var tapes struct {
	mu   sync.Mutex
	list []*jitterTape // least recently requested first
}

// tapeFor returns the process's tape for (seed, jitterPs), creating it
// (and retiring the least recently requested one past maxTapes) when
// absent.
func tapeFor(seed int64, jitterPs float64) *jitterTape {
	tapes.mu.Lock()
	defer tapes.mu.Unlock()
	list := tapes.list
	for i, t := range list {
		if t.seed == seed && math.Float64bits(t.jitterPs) == math.Float64bits(jitterPs) {
			copy(list[i:], list[i+1:])
			list[len(list)-1] = t
			return t
		}
	}
	if len(list) == maxTapes {
		list = list[:copy(list, list[1:])]
	}
	t := newJitterTape(seed, jitterPs, tapeCap)
	tapes.list = append(list, t)
	return t
}
