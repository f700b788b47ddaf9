package isa

// PackedStream is a captured dynamic stream in packed struct-of-arrays
// form: the decoded fields of every instruction live in parallel arrays
// (branch outcomes bit-packed), so replay touches ~13 bytes per
// instruction instead of the ~40 an []Instr copy costs. The density
// matters twice: a retained stream cache holds more streams in
// the same budget, and a lockstep replay driving several machines from
// one pass keeps the stream itself resident in cache while the
// per-machine state streams through.
//
// A PackedStream is immutable after capture and safe for concurrent
// replay. Replay is item-for-item identical to the generating walk:
// consumers cannot tell the sources apart, so simulation results — and
// therefore cache keys and report bytes — do not depend on which
// source fed them.
type PackedStream struct {
	class []Class
	pc    []uint32
	addr  []uint32
	src1  []uint16
	src2  []uint16
	// taken is bit-packed, one bit per instruction.
	taken []uint64
	// freqs holds the Freqs slices of the rare instructions that carry
	// one (injected Reconfig instructions, which never appear in program
	// walks but could appear in a re-captured edited stream), keyed by
	// instruction index. Nil when no instruction carries frequencies.
	freqs map[int64][]uint16

	// markers[i] fires before the instruction at index markerPos[i];
	// positions are nondecreasing.
	markers   []Marker
	markerPos []int64
}

// RecordPacked walks the program under the input and captures the
// complete stream in packed form.
func RecordPacked(p *Program, in Input) *PackedStream { return RecordPackedSized(p, in, 0) }

// RecordPackedSized is RecordPacked with a capacity hint for the
// expected number of instructions (a known window length). An exact
// hint makes the capture a single allocation per array.
func RecordPackedSized(p *Program, in Input, hint int64) *PackedStream {
	s := &PackedStream{}
	if hint > 0 {
		s.class = make([]Class, 0, hint)
		s.pc = make([]uint32, 0, hint)
		s.addr = make([]uint32, 0, hint)
		s.src1 = make([]uint16, 0, hint)
		s.src2 = make([]uint16, 0, hint)
		s.taken = make([]uint64, 0, hint/64+1)
		s.markers = make([]Marker, 0, hint/8+16)
		s.markerPos = make([]int64, 0, hint/8+16)
	}
	p.Walk(in, (*packedRecorder)(s))
	return s
}

// Instructions returns the number of captured instructions.
func (s *PackedStream) Instructions() int64 { return int64(len(s.class)) }

// load reconstructs instruction i into the scratch instruction.
func (s *PackedStream) load(i int64, ins *Instr) {
	ins.Class = s.class[i]
	ins.PC = s.pc[i]
	ins.Src1 = s.src1[i]
	ins.Src2 = s.src2[i]
	ins.Addr = s.addr[i]
	ins.Taken = s.taken[i>>6]&(1<<(uint(i)&63)) != 0
	ins.Freqs = nil
	if s.freqs != nil {
		ins.Freqs = s.freqs[i]
	}
}

// Feed implements Feeder by replay. The *Instr passed to the consumer
// is a reconstruction scratch reused between calls and must not be
// modified or retained — the same contract a generating walk's scratch
// instruction has. A CountingConsumer wrapper is unwrapped so the
// per-instruction path makes one direct budget check and one interface
// call, not two; the unwrapped replay is item-for-item identical.
func (s *PackedStream) Feed(c Consumer) {
	inner := c
	var cc *CountingConsumer
	if w, ok := c.(*CountingConsumer); ok {
		cc, inner = w, w.Inner
	}
	var scratch Instr
	mi := 0
	nextMarker := int64(-1)
	if len(s.markerPos) > 0 {
		nextMarker = s.markerPos[0]
	}
	n := s.Instructions()
	for i := int64(0); i < n; i++ {
		for nextMarker == i {
			if !inner.Marker(s.markers[mi]) {
				return
			}
			mi++
			nextMarker = -1
			if mi < len(s.markerPos) {
				nextMarker = s.markerPos[mi]
			}
		}
		s.load(i, &scratch)
		if cc != nil {
			if cc.Seen >= cc.Budget {
				return
			}
			cc.Seen++
			if !inner.Instr(&scratch) {
				return
			}
			if cc.Seen >= cc.Budget {
				return
			}
			continue
		}
		if !inner.Instr(&scratch) {
			return
		}
	}
	for mi < len(s.markers) {
		if !inner.Marker(s.markers[mi]) {
			return
		}
		mi++
	}
}

// StreamLane couples one consumer with its instruction budget for a
// lockstep replay. Budget <= 0 means unlimited. Seen reports how many
// instructions the lane received (like CountingConsumer.Seen).
type StreamLane struct {
	Consumer Consumer
	Budget   int64
	Seen     int64
}

// FeedLockstep replays the stream once while driving every lane from
// the same pass: each item is reconstructed once and handed to each
// still-active lane in lane order. Per lane, the delivered sequence —
// including budget exhaustion and early stops — is exactly what
// Feed(&CountingConsumer{Inner: lane.Consumer, Budget: lane.Budget})
// would deliver, so N machines stepped in lockstep compute precisely
// what N sequential replays would. The shared *Instr scratch must not
// be modified or retained by any lane (the standard consumer contract).
// The replay stops as soon as every lane has stopped. Steady-state
// delivery performs no allocations.
func (s *PackedStream) FeedLockstep(lanes []StreamLane) {
	if len(lanes) == 0 {
		return
	}
	// active holds the indices of lanes still consuming, in lane order;
	// compaction on stop keeps the hot loop's width equal to the number
	// of live lanes.
	active := make([]int, 0, len(lanes))
	for i := range lanes {
		lanes[i].Seen = 0
		if lanes[i].Budget <= 0 {
			lanes[i].Budget = 1<<63 - 1
		}
		if lanes[i].Consumer != nil {
			active = append(active, i)
		}
	}
	var scratch Instr
	mi := 0
	nextMarker := int64(-1)
	if len(s.markerPos) > 0 {
		nextMarker = s.markerPos[0]
	}
	n := s.Instructions()
	for i := int64(0); i < n && len(active) > 0; i++ {
		for nextMarker == i {
			for k := 0; k < len(active); {
				if !lanes[active[k]].Consumer.Marker(s.markers[mi]) {
					active = append(active[:k], active[k+1:]...)
					continue
				}
				k++
			}
			mi++
			nextMarker = -1
			if mi < len(s.markerPos) {
				nextMarker = s.markerPos[mi]
			}
			if len(active) == 0 {
				return
			}
		}
		s.load(i, &scratch)
		for k := 0; k < len(active); {
			l := &lanes[active[k]]
			if l.Seen >= l.Budget {
				active = append(active[:k], active[k+1:]...)
				continue
			}
			l.Seen++
			if !l.Consumer.Instr(&scratch) || l.Seen >= l.Budget {
				active = append(active[:k], active[k+1:]...)
				continue
			}
			k++
		}
	}
	for mi < len(s.markers) && len(active) > 0 {
		for k := 0; k < len(active); {
			if !lanes[active[k]].Consumer.Marker(s.markers[mi]) {
				active = append(active[:k], active[k+1:]...)
				continue
			}
			k++
		}
		mi++
	}
}

// packedRecorder adapts PackedStream to Consumer for capture.
type packedRecorder PackedStream

func (r *packedRecorder) Instr(ins *Instr) bool {
	i := int64(len(r.class))
	r.class = append(r.class, ins.Class)
	r.pc = append(r.pc, ins.PC)
	r.addr = append(r.addr, ins.Addr)
	r.src1 = append(r.src1, ins.Src1)
	r.src2 = append(r.src2, ins.Src2)
	if int(i>>6) >= len(r.taken) {
		r.taken = append(r.taken, 0)
	}
	if ins.Taken {
		r.taken[i>>6] |= 1 << (uint(i) & 63)
	}
	if ins.Freqs != nil {
		if r.freqs == nil {
			r.freqs = make(map[int64][]uint16)
		}
		r.freqs[i] = ins.Freqs
	}
	return true
}

func (r *packedRecorder) Marker(m Marker) bool {
	r.markerPos = append(r.markerPos, int64(len(r.class)))
	r.markers = append(r.markers, m)
	return true
}
