package sim

import (
	"fmt"
	"reflect"

	"repro/internal/arch"
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/dvfs"
	"repro/internal/isa"
	"repro/internal/power"
	"repro/internal/xrand"
)

// Times records the pipeline timestamps of one instruction, in
// picoseconds. Tracers receive these to build dependence DAGs.
type Times struct {
	Fetch    int64
	Dispatch int64
	Ready    int64
	Issue    int64
	Complete int64
	Commit   int64
	// Dom is the execution domain of the instruction (a topology domain
	// index).
	Dom arch.Domain
	// MemLevel is 0 (L1 hit), 1 (L2 hit) or 2 (main memory) for loads.
	MemLevel uint8
	// Mispredict marks a mispredicted branch (fetch redirects after it).
	Mispredict bool
}

// Tracer observes every simulated instruction with its resolved timing.
type Tracer interface {
	Trace(seq int64, ins *isa.Instr, t *Times)
}

// MarkerSink observes structure markers as the machine consumes them; the
// current simulation time (last fetch time) is provided.
type MarkerSink interface {
	MachineMarker(m isa.Marker, now int64)
}

// Controller is a hardware control policy invoked at fixed instruction
// intervals (the on-line attack/decay algorithm plugs in here).
type Controller interface {
	OnInterval(m *Machine, now int64, s IntervalStats)
}

// IntervalStats summarizes domain activity since the previous controller
// callback. The per-domain slices are indexed by scalable topology
// domain and are valid only for the duration of the callback (the
// machine reuses them between intervals).
type IntervalStats struct {
	// Instructions in the interval.
	Instructions int64
	// Issued counts instructions issued per scalable domain.
	Issued []int64
	// QueueSum accumulates issue-queue occupancy samples (one per
	// dispatched instruction) per execution domain.
	QueueSum []int64
	// BusyPs accumulates per-domain functional-unit service time: the
	// on-chip latency of each instruction executed in the domain
	// (excluding external memory time). Utilization = BusyPs /
	// (units * ElapsedPs).
	BusyPs []int64
	// ElapsedPs is wall-clock simulation time covered by the interval.
	ElapsedPs int64
}

// ctrlCounter is one domain's packed per-instruction controller
// bookkeeping.
type ctrlCounter struct {
	issued   int64
	queueSum int64
	busyPs   int64
}

// Execution clusters: the three issue-queue-backed execution resources.
// Clusters are structural (queues, functional units); the topology only
// decides which clock domain each cluster runs in.
const (
	clInt = iota
	clFP
	clLS
	numClusters
)

// Machine is one simulated MCD processor executing one dynamic stream.
// Its domain structure — clock count, resource routing, per-domain DVFS
// envelopes — comes from the configuration's arch.Topology. It
// implements isa.Consumer; feed it a program walk, then call Finalize.
type Machine struct {
	cfg   Config
	topo  *arch.Topology
	clk   []*clock.Schedule // one per topology domain
	sync  *clock.Synchronizer
	bp    *bpred.Predictor
	il1   *cache.Cache
	dl1   *cache.Cache
	l2    *cache.Cache
	book  *power.Book
	trace Tracer
	msink MarkerSink

	// Resource→domain routing, resolved once from the topology.
	numScalable int
	fetchDom    arch.Domain // owns fetch, L1I, branch predictor
	dispDom     arch.Domain // owns rename/ROB/commit
	l2Dom       arch.Domain // owns the L2 interface
	clDom       [numClusters]arch.Domain

	ctrl         Controller
	ctrlInterval int64
	ctrlLastSeq  int64
	ctrlLastTime int64
	// ctrlCnt is the per-instruction accumulation state, packed per
	// domain so the hot loop touches one cache line; ctrlStats is the
	// view materialized for each OnInterval callback.
	ctrlCnt   []ctrlCounter
	ctrlStats IntervalStats

	// Completion-time ring for register dependencies.
	complRing [depRingSize]int64
	domRing   [depRingSize]uint8

	// ROB commit-time ring; robIdx is seq mod len(rob) maintained as a
	// rolling counter so the hot loop never divides.
	rob    []int64
	robIdx int

	// Issue queues: outstanding issue times per execution cluster.
	iq [numClusters]issueQueue

	// Functional units: next-free time per unit.
	intALU []int64
	intMul []int64
	fpALU  []int64
	fpMul  []int64
	lsPort []int64

	// Fetch state.
	fetchEdge  int64
	fetchCount int
	fetchLine  uint32

	// Dispatch state.
	dispEdge  int64
	dispCount int

	// Commit state.
	commitEdge  int64
	commitCount int

	seq        int64 // dynamic instruction count
	lastCommit int64

	// Statistics.
	Mispredicts int64
	times       Times // scratch
}

// New builds a machine with every domain at cfg.BaseMHz, structured by
// the configuration's topology.
func New(cfg Config) *Machine {
	topo := cfg.Topo()
	m := &Machine{
		cfg:  cfg,
		topo: topo,
		sync: clock.NewSynchronizer(cfg.Sync, cfg.Seed),
		bp:   bpred.New(bpred.DefaultConfig()),
		il1:  cache.New(cache.L1Config()),
		dl1:  cache.New(cache.L1Config()),
		l2:   cache.New(cache.L2Config()),
		book: power.NewBook(power.ModelFor(topo)),
		rob:  make([]int64, cfg.ROBSize),
	}
	m.numScalable = topo.NumScalable()
	m.fetchDom = topo.DomainOf(arch.ResFetch)
	m.dispDom = topo.DomainOf(arch.ResDispatch)
	m.l2Dom = topo.DomainOf(arch.ResL2)
	m.clDom = [numClusters]arch.Domain{
		clInt: topo.DomainOf(arch.ResIntExec),
		clFP:  topo.DomainOf(arch.ResFPExec),
		clLS:  topo.DomainOf(arch.ResLoadStore),
	}
	// Each domain's PLL has an unrelated phase; seed them deterministically.
	// The external domain keeps phase zero. A globally synchronous
	// configuration (Sync.Disabled) aligns all phases.
	phaseRng := xrand.New(cfg.Seed ^ 0x5deece66d)
	period := int64(1e6) / int64(cfg.BaseMHz)
	m.clk = make([]*clock.Schedule, topo.NumDomains())
	for d := range m.clk {
		phase := int64(0)
		if !cfg.Sync.Disabled && d < m.numScalable {
			phase = phaseRng.Int63n(period)
		}
		m.clk[d] = clock.NewScaled(topo.Spec(arch.Domain(d)).Scale(), cfg.BaseMHz, phase)
	}
	m.iq = [numClusters]issueQueue{
		clInt: newIssueQueue(cfg.IQInt),
		clFP:  newIssueQueue(cfg.IQFP),
		clLS:  newIssueQueue(cfg.IQLS),
	}
	m.intALU = make([]int64, cfg.IntALUs)
	m.intMul = make([]int64, cfg.IntMuls)
	m.fpALU = make([]int64, cfg.FPALUs)
	m.fpMul = make([]int64, cfg.FPMuls)
	m.lsPort = make([]int64, cfg.LSPorts)
	return m
}

// Clock returns the schedule of one domain (controllers use this).
func (m *Machine) Clock(d arch.Domain) *clock.Schedule { return m.clk[d] }

// Topology returns the machine's clock-domain topology.
func (m *Machine) Topology() *arch.Topology { return m.topo }

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Book returns the machine's energy book.
func (m *Machine) Book() *power.Book { return m.book }

// Bpred returns the branch predictor (for statistics).
func (m *Machine) Bpred() *bpred.Predictor { return m.bp }

// Caches returns the L1I, L1D and L2 caches (for statistics).
func (m *Machine) Caches() (il1, dl1, l2 *cache.Cache) { return m.il1, m.dl1, m.l2 }

// Sync returns the synchronizer (for statistics).
func (m *Machine) Sync() *clock.Synchronizer { return m.sync }

// Seq returns the number of instructions consumed so far.
func (m *Machine) Seq() int64 { return m.seq }

// Now returns the current simulation time (the last commit time).
func (m *Machine) Now() int64 { return m.lastCommit }

// SetTracer installs a per-instruction timing observer. Passing nil —
// including a non-nil interface holding a nil pointer — detaches the
// tracer and restores the no-dispatch fast path: the per-instruction
// loop skips the interface call entirely when no sink is attached, so a
// detached machine must never be left holding a typed nil that would
// defeat the nil check (and then panic inside the callee).
func (m *Machine) SetTracer(t Tracer) {
	if isNilSink(t) {
		m.trace = nil
		return
	}
	m.trace = t
}

// SetMarkerSink installs a structure-marker observer. nil (typed or
// untyped) detaches it; see SetTracer.
func (m *Machine) SetMarkerSink(s MarkerSink) {
	if isNilSink(s) {
		m.msink = nil
		return
	}
	m.msink = s
}

// isNilSink reports whether an observer interface is nil or wraps a nil
// pointer/map/func. Setters are cold, so reflection here is free.
func isNilSink(v any) bool {
	if v == nil {
		return true
	}
	rv := reflect.ValueOf(v)
	switch rv.Kind() {
	case reflect.Pointer, reflect.Map, reflect.Func, reflect.Chan, reflect.Slice, reflect.Interface:
		return rv.IsNil()
	}
	return false
}

// SetController installs a hardware control policy called every
// intervalInstrs instructions.
func (m *Machine) SetController(c Controller, intervalInstrs int64) {
	m.ctrl = c
	m.ctrlInterval = intervalInstrs
	if m.ctrlCnt == nil {
		m.ctrlCnt = make([]ctrlCounter, m.numScalable)
		m.ctrlStats = IntervalStats{
			Issued:   make([]int64, m.numScalable),
			QueueSum: make([]int64, m.numScalable),
			BusyPs:   make([]int64, m.numScalable),
		}
	}
}

// SetDomainTarget requests a DVFS ramp of domain d toward mhz beginning
// at time now. External memory cannot be scaled.
func (m *Machine) SetDomainTarget(d arch.Domain, now int64, mhz int) {
	if int(d) >= m.numScalable {
		return
	}
	m.clk[d].SetTarget(now, mhz)
}

// SetAllImmediate pins every scalable domain to mhz instantly (baseline
// and global DVS modeling).
func (m *Machine) SetAllImmediate(now int64, mhz int) {
	for d := 0; d < m.numScalable; d++ {
		m.clk[d].SetImmediate(now, mhz)
	}
}

// Marker implements isa.Consumer.
func (m *Machine) Marker(mk isa.Marker) bool {
	if m.msink != nil {
		m.msink.MachineMarker(mk, m.fetchEdge)
	}
	return true
}

// execCluster returns the execution cluster of a class.
func execCluster(c isa.Class) int {
	switch c {
	case isa.FPALU, isa.FPMul:
		return clFP
	case isa.Load, isa.Store:
		return clLS
	default:
		return clInt
	}
}

// Instr implements isa.Consumer: it simulates one instruction.
func (m *Machine) Instr(ins *isa.Instr) bool {
	cfg := &m.cfg
	fclk := m.clk[m.fetchDom]
	dclk0 := m.clk[m.dispDom]
	t := &m.times
	*t = Times{}

	// --- Fetch ---
	if m.fetchEdge == 0 {
		m.fetchEdge = fclk.NextEdge(0)
	}
	if m.fetchCount >= cfg.DecodeWidth {
		m.fetchEdge = fclk.NextEdge(m.fetchEdge)
		m.fetchCount = 0
	}
	if line := ins.PC >> 6; line != m.fetchLine {
		m.fetchLine = line
		if !m.il1.Access(ins.PC) {
			m.fetchEdge = m.missPath(m.fetchEdge, m.fetchDom)
		}
	}
	t.Fetch = m.fetchEdge
	m.fetchCount++
	m.book.Charge(power.FetchOp, fclk.VoltsAt(t.Fetch))

	// --- Dispatch (rename, ROB and IQ allocation) ---
	disp := fclk.Advance(t.Fetch, int64(cfg.FrontDepth))
	// Fetch→dispatch handoff crosses domains when the topology splits
	// the front end (identity under the default topology).
	disp = m.sync.Cross(disp, fclk, dclk0)
	// ROB capacity: wait for the instruction ROBSize back to commit.
	if m.seq >= int64(cfg.ROBSize) {
		if old := m.rob[m.robIdx]; old > disp {
			disp = old
		}
	}
	// Dispatch width.
	if disp > m.dispEdge {
		m.dispEdge = dclk0.NextEdge(disp - 1)
		m.dispCount = 0
	} else if m.dispCount >= cfg.DecodeWidth {
		m.dispEdge = dclk0.NextEdge(m.dispEdge)
		m.dispCount = 0
		disp = m.dispEdge
	}
	if m.dispEdge > disp {
		disp = m.dispEdge
	}
	m.dispCount++

	cl := execCluster(ins.Class)
	dom := m.clDom[cl]
	// Issue-queue capacity in the execution cluster.
	disp = m.iqAdmit(cl, disp)
	t.Dispatch = disp
	t.Dom = dom
	m.book.Charge(power.RenameOp, dclk0.VoltsAt(disp))

	// --- Ready: operand availability ---
	ready := m.sync.Cross(disp, dclk0, m.clk[dom])
	for _, src := range [2]uint16{ins.Src1, ins.Src2} {
		if src == 0 || int64(src) > m.seq {
			continue
		}
		idx := (m.seq - int64(src)) & (depRingSize - 1)
		prodT := m.complRing[idx]
		prodD := arch.Domain(m.domRing[idx])
		av := m.sync.Cross(prodT, m.clk[prodD], m.clk[dom])
		if av > ready {
			ready = av
		}
	}
	t.Ready = ready

	// --- Issue and execute ---
	var complete int64
	dclk := m.clk[dom]
	switch ins.Class {
	case isa.IntALU:
		issue := m.fuIssue(cl, m.intALU, dclk, ready, 1)
		complete = dclk.Advance(issue, int64(cfg.IntALULat))
		t.Issue = issue
		m.book.Charge(power.IntOp, dclk.VoltsAt(issue))
	case isa.IntMul:
		issue := m.fuIssue(cl, m.intMul, dclk, ready, int64(cfg.IntMulLat))
		complete = dclk.Advance(issue, int64(cfg.IntMulLat))
		t.Issue = issue
		m.book.Charge(power.IntMulOp, dclk.VoltsAt(issue))
	case isa.FPALU:
		issue := m.fuIssue(cl, m.fpALU, dclk, ready, 1)
		complete = dclk.Advance(issue, int64(cfg.FPALULat))
		t.Issue = issue
		m.book.Charge(power.FPOp, dclk.VoltsAt(issue))
	case isa.FPMul:
		issue := m.fuIssue(cl, m.fpMul, dclk, ready, int64(cfg.FPMulLat))
		complete = dclk.Advance(issue, int64(cfg.FPMulLat))
		t.Issue = issue
		m.book.Charge(power.FPMulOp, dclk.VoltsAt(issue))
	case isa.Load:
		issue := m.fuIssue(cl, m.lsPort, dclk, ready, 1)
		t.Issue = issue
		m.book.Charge(power.LSQOp, dclk.VoltsAt(issue))
		m.book.Charge(power.DCacheOp, dclk.VoltsAt(issue))
		if m.dl1.Access(ins.Addr) {
			complete = dclk.Advance(issue, int64(cfg.L1Lat))
		} else {
			// The request leaves the load/store unit and probes the L2
			// interface; under the default topology both live in the
			// memory domain and every crossing below is the identity.
			l2clk := m.clk[m.l2Dom]
			afterL1 := dclk.Advance(issue, int64(cfg.L1Lat))
			probe := l2clk.Advance(m.sync.Cross(afterL1, dclk, l2clk), int64(cfg.L2Lat))
			if m.l2.Access(ins.Addr) {
				t.MemLevel = 1
				m.book.Charge(power.L2Op, l2clk.VoltsAt(issue))
				complete = m.sync.Cross(probe, l2clk, dclk)
			} else {
				t.MemLevel = 2
				m.book.Charge(power.L2Op, l2clk.VoltsAt(issue))
				m.book.Charge(power.MemOp, dvfs.VMax)
				after := probe + cfg.MemLatPs
				complete = dclk.NextEdge(m.sync.Cross(after, l2clk, dclk))
			}
		}
	case isa.Store:
		issue := m.fuIssue(cl, m.lsPort, dclk, ready, 1)
		t.Issue = issue
		m.book.Charge(power.LSQOp, dclk.VoltsAt(issue))
		m.book.Charge(power.DCacheOp, dclk.VoltsAt(issue))
		// Stores retire from the store queue off the critical path; the
		// cache fill happens in the background.
		m.dl1.Access(ins.Addr)
		complete = dclk.Advance(issue, 1)
	case isa.Branch:
		issue := m.fuIssue(cl, m.intALU, dclk, ready, 1)
		complete = dclk.Advance(issue, int64(cfg.IntALULat))
		t.Issue = issue
		m.book.Charge(power.IntOp, dclk.VoltsAt(issue))
		if m.bp.Lookup(ins.PC, ins.Taken) {
			m.Mispredicts++
			t.Mispredict = true
			redirect := m.sync.Cross(complete, dclk, fclk)
			m.fetchEdge = fclk.Advance(redirect, int64(cfg.MispredictPenalty))
			m.fetchCount = 0
		}
	case isa.Track, isa.Reconfig:
		// Injected instrumentation: an integer-side operation whose
		// latency is the measured worst-case overhead for its kind.
		lat := int64(instrCost(ins))
		if lat < 1 {
			lat = 1
		}
		issue := m.fuIssue(cl, m.intALU, dclk, ready, 1)
		complete = dclk.Advance(issue, lat)
		t.Issue = issue
		m.book.Charge(power.OverheadOp, dclk.VoltsAt(issue))
		if ins.Class == isa.Reconfig {
			m.applyReconfig(ins, issue)
		}
	}
	t.Complete = complete

	// --- Commit (in order) ---
	cm := m.sync.Cross(complete, dclk, dclk0)
	edge := dclk0.NextEdge(cm - 1)
	if edge < m.commitEdge {
		edge = m.commitEdge
	}
	if edge == m.commitEdge {
		if m.commitCount >= cfg.RetireWidth {
			edge = dclk0.NextEdge(edge)
			m.commitCount = 0
		}
	} else {
		m.commitCount = 0
	}
	m.commitEdge = edge
	m.commitCount++
	t.Commit = edge
	m.lastCommit = edge
	m.book.Charge(power.CommitOp, dclk0.VoltsAt(edge))

	// Record results for dependents and the ROB.
	idx := m.seq & (depRingSize - 1)
	m.complRing[idx] = complete
	m.domRing[idx] = uint8(dom)
	m.rob[m.robIdx] = edge
	if m.robIdx++; m.robIdx == len(m.rob) {
		m.robIdx = 0
	}

	if m.trace != nil {
		m.trace.Trace(m.seq, ins, t)
	}

	// Controller interval bookkeeping.
	if m.ctrl != nil {
		c := &m.ctrlCnt[dom]
		c.issued++
		c.queueSum += int64(m.iq[cl].n)
		st := m.serviceTime(ins, t)
		if t.MemLevel >= 1 && m.l2Dom != dom {
			// The L2 portion of a load's service time is work done in
			// the (separately clocked) L2 domain; credit it there so the
			// controller has a utilization signal for L2-only domains.
			// Under the default topology both indices coincide and this
			// branch never runs.
			st -= int64(cfg.L2Lat) * m.clk[dom].PeriodAt(t.Issue)
			m.ctrlCnt[m.l2Dom].busyPs += int64(cfg.L2Lat) * m.clk[m.l2Dom].PeriodAt(t.Issue)
		}
		c.busyPs += st
		if m.seq-m.ctrlLastSeq >= m.ctrlInterval {
			s := m.ctrlStats
			for d := range m.ctrlCnt {
				s.Issued[d] = m.ctrlCnt[d].issued
				s.QueueSum[d] = m.ctrlCnt[d].queueSum
				s.BusyPs[d] = m.ctrlCnt[d].busyPs
				m.ctrlCnt[d] = ctrlCounter{}
			}
			s.Instructions = m.seq - m.ctrlLastSeq
			s.ElapsedPs = m.lastCommit - m.ctrlLastTime
			m.ctrl.OnInterval(m, m.lastCommit, s)
			m.ctrlLastSeq = m.seq
			m.ctrlLastTime = m.lastCommit
		}
	}

	m.seq++
	return true
}

// serviceTime returns the on-chip service time of an instruction in its
// execution domain: execution latency excluding main-memory time. The
// hardware controller's utilization counters are built from this.
func (m *Machine) serviceTime(ins *isa.Instr, t *Times) int64 {
	period := m.clk[t.Dom].PeriodAt(t.Issue)
	var cycles int64
	switch ins.Class {
	case isa.IntALU, isa.Branch, isa.Track, isa.Reconfig:
		cycles = int64(m.cfg.IntALULat)
	case isa.IntMul:
		cycles = int64(m.cfg.IntMulLat)
	case isa.FPALU:
		cycles = int64(m.cfg.FPALULat)
	case isa.FPMul:
		cycles = int64(m.cfg.FPMulLat)
	case isa.Load:
		cycles = int64(m.cfg.L1Lat)
		if t.MemLevel >= 1 {
			cycles += int64(m.cfg.L2Lat)
		}
	case isa.Store:
		cycles = 1
	}
	return cycles * period
}

// instrCost returns the per-instrumentation-instruction cycle cost
// carried in the instruction's Freqs[0] slot for Track instructions and
// Freqs-independent fixed costs for Reconfig. The edit package sets these.
func instrCost(ins *isa.Instr) int {
	if ins.Class == isa.Track {
		return int(ins.Src1) // edit package stores the cost here
	}
	return int(ins.Src2)
}

// applyReconfig writes the MCD reconfiguration register: each scalable
// domain begins ramping toward its target frequency (quantized to its
// own ladder). The write itself incurs no idle time (paper Section 2).
func (m *Machine) applyReconfig(ins *isa.Instr, now int64) {
	n := m.numScalable
	if len(ins.Freqs) < n {
		n = len(ins.Freqs)
	}
	for d := 0; d < n; d++ {
		mhz := int(ins.Freqs[d])
		if mhz == 0 {
			continue
		}
		m.clk[d].SetTarget(now, mhz)
	}
}

// iqAdmit delays t until the execution cluster's issue queue has a free
// entry; the caller records the entry's issue time via fuIssue.
//
// Entries that have issued by t are pruned only when the queue looks
// full, because admission cannot change while occupancy is below
// capacity. When a controller is attached they are pruned on every
// instruction instead: the controller samples queue occupancy after
// each dispatch, and stale entries would skew it. The queue is kept
// sorted, so a prune pops from the front and the earliest entry is the
// front.
func (m *Machine) iqAdmit(cl int, t int64) int64 {
	q := &m.iq[cl]
	if m.ctrl != nil || q.full() {
		q.prune(t)
	}
	for q.full() {
		// Wait until the earliest outstanding entry issues; after the
		// prune every entry is later than t.
		t = q.front()
		q.prune(t)
	}
	return t
}

// issueQueue holds one cluster's outstanding issue times in ascending
// order, in a power-of-two ring sized for the queue's capacity.
// Admission keeps at most that many entries, so the ring never wraps
// onto itself and never grows.
type issueQueue struct {
	buf      []int64
	head     int
	n        int
	capacity int
}

func newIssueQueue(capacity int) issueQueue {
	if capacity < 1 {
		panic(fmt.Sprintf("sim: issue queue capacity %d, want at least 1", capacity))
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	return issueQueue{buf: make([]int64, size), capacity: capacity}
}

// full reports whether the queue holds its capacity of entries.
func (q *issueQueue) full() bool { return q.n >= q.capacity }

// front returns the earliest outstanding issue time; the queue must be
// non-empty.
func (q *issueQueue) front() int64 { return q.buf[q.head] }

// prune removes the entries with issue time <= t.
func (q *issueQueue) prune(t int64) {
	mask := len(q.buf) - 1
	for q.n > 0 && q.buf[q.head] <= t {
		q.head = (q.head + 1) & mask
		q.n--
	}
}

// insert adds an issue time, shifting later entries back one slot.
// Issue times arrive nearly in order, so the shift is usually empty.
func (q *issueQueue) insert(t int64) {
	mask := len(q.buf) - 1
	i := q.head + q.n
	for ; i > q.head; i-- {
		prev := q.buf[(i-1)&mask]
		if prev <= t {
			break
		}
		q.buf[i&mask] = prev
	}
	q.buf[i&mask] = t
	q.n++
}

// fuIssue selects the earliest-available unit, aligns issue to the
// execution domain clock, reserves the unit for occ cycles and records
// the issue-queue departure in the cluster's queue.
func (m *Machine) fuIssue(cl int, units []int64, dclk *clock.Schedule, ready int64, occ int64) int64 {
	best := 0
	for i := 1; i < len(units); i++ {
		if units[i] < units[best] {
			best = i
		}
	}
	start := ready
	if units[best] > start {
		start = units[best]
	}
	issue := dclk.NextEdge(start - 1)
	units[best] = dclk.Advance(issue, occ)
	// Record IQ residency: the entry leaves the queue at issue.
	m.iq[cl].insert(issue)
	return issue
}

// missPath models an instruction-fetch miss: the request crosses to the
// domain owning the L2 interface, probes the L2 (and main memory on an
// L2 miss), and the line returns to the requesting domain.
func (m *Machine) missPath(from int64, req arch.Domain) int64 {
	l2clk := m.clk[m.l2Dom]
	t := m.sync.Cross(from, m.clk[req], l2clk)
	t = l2clk.NextEdge(t - 1)
	m.book.Charge(power.L2Op, l2clk.VoltsAt(t))
	if m.l2.Access(m.fetchLine << 6) {
		t = l2clk.Advance(t, int64(m.cfg.L2Lat))
	} else {
		m.book.Charge(power.MemOp, dvfs.VMax)
		t = l2clk.Advance(t, int64(m.cfg.L2Lat)) + m.cfg.MemLatPs
	}
	back := m.sync.Cross(t, l2clk, m.clk[req])
	return m.clk[req].NextEdge(back)
}
