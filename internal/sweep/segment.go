package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/colseg"
	"repro/internal/obs"
	"repro/internal/store"
)

// Columnar result segments. Alongside the canonical one-JSON-file-per-
// job cache, completed jobs are appended to compact struct-of-arrays
// segment files under <cacheDir>/segments/ (a name that can never
// collide with the cache's two-hex fan-out directories, so prune's
// scanner and the JSON layout are untouched). A segment stores every
// outcome field as its own typed, checksummed column plus a key column
// that doubles as the row index, so a merge or report streams thousands
// of outcomes from a few file reads instead of re-opening and
// re-decoding one JSON document per job. The JSON entries remain the
// byte-identity oracle: segments are a derived, reconstructible layer,
// and every read path falls back to the JSON cache when a segment is
// missing or damaged.

// segmentSchema versions the segment encoding; segments with any other
// schema are treated as damage (quarantined and counted), exactly like
// a stale JSON entry.
const segmentSchema = 1

// SegmentSubdir is where a cache directory's segment files live.
const SegmentSubdir = "segments"

// segPrefix/segSuffix frame segment file names: seg-<contenthash>.seg.
const (
	segPrefix = "seg-"
	segSuffix = ".seg"
)

// segRows is one decoded segment resident in memory, kept columnar: a
// point lookup indexes the parallel arrays, materializing one Outcome.
type segRows struct {
	keys []string

	bench, policy, scheme []string
	delta, aggr           []float64
	mhz                   []int64

	instructions, timePs []int64
	energyPJ             []float64
	domainPJ, avgMHz     [][]float64
	syncCrossings        []int64
	syncPenalties        []int64
	mispredicts          []int64
	mispredictRate       []float64
	il1MissRate          []float64
	dl1MissRate          []float64
	l2MissRate           []float64

	dynReconfig, dynInstr, overheadCycles []int64
	overheadPct                           []float64

	globalMHz, staticReconfig, staticInstr []int64
}

func (r *segRows) job(i int) Job {
	return Job{
		Bench:          r.bench[i],
		Policy:         r.policy[i],
		Scheme:         r.scheme[i],
		Delta:          r.delta[i],
		Aggressiveness: r.aggr[i],
		MHz:            int(r.mhz[i]),
	}
}

func (r *segRows) outcome(i int) *Outcome {
	out := &Outcome{
		GlobalMHz:      int(r.globalMHz[i]),
		StaticReconfig: int(r.staticReconfig[i]),
		StaticInstr:    int(r.staticInstr[i]),
	}
	out.Res.Instructions = r.instructions[i]
	out.Res.TimePs = r.timePs[i]
	out.Res.EnergyPJ = r.energyPJ[i]
	out.Res.DomainPJ = r.domainPJ[i]
	out.Res.AvgMHz = r.avgMHz[i]
	out.Res.SyncCrossings = r.syncCrossings[i]
	out.Res.SyncPenalties = r.syncPenalties[i]
	out.Res.Mispredicts = r.mispredicts[i]
	out.Res.MispredictRate = r.mispredictRate[i]
	out.Res.IL1MissRate = r.il1MissRate[i]
	out.Res.DL1MissRate = r.dl1MissRate[i]
	out.Res.L2MissRate = r.l2MissRate[i]
	out.Stats.DynReconfig = r.dynReconfig[i]
	out.Stats.DynInstr = r.dynInstr[i]
	out.Stats.OverheadCycles = r.overheadCycles[i]
	out.Stats.OverheadPct = r.overheadPct[i]
	return out
}

func (r *segRows) merged(i int) Merged {
	return Merged{Key: r.keys[i], Job: r.job(i), Outcome: r.outcome(i)}
}

// EncodeSegment renders rows as one deterministic segment file: rows
// are sorted by key first, so the bytes depend only on the row set —
// never on completion order — and a segment re-encoded from the same
// rows on another node is byte-identical.
func EncodeSegment(rows []Merged) ([]byte, error) {
	sorted := append([]Merged(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })

	n := len(sorted)
	rawKeys := make([]byte, 0, 32*n)
	put := struct {
		bench, policy, scheme []string
		delta, aggr           []float64
		mhz                   []int64
	}{}
	var (
		instructions, timePs, syncCrossings, syncPenalties, mispredicts []int64
		energyPJ, mispredictRate, il1, dl1, l2                          []float64
		domainPJ, avgMHz                                                [][]float64
		dynReconfig, dynInstr, overheadCycles                           []int64
		overheadPct                                                     []float64
		globalMHz, staticReconfig, staticInstr                          []int64
	)
	for _, m := range sorted {
		if !store.ValidKey(m.Key) {
			return nil, fmt.Errorf("sweep: segment: %.16q is not a content-addressed key", m.Key)
		}
		if m.Outcome == nil {
			return nil, fmt.Errorf("sweep: segment: row %.12s has no outcome", m.Key)
		}
		rawKeys, _ = hex.AppendDecode(rawKeys, []byte(m.Key)) // a valid key decodes
		put.bench = append(put.bench, m.Job.Bench)
		put.policy = append(put.policy, m.Job.Policy)
		put.scheme = append(put.scheme, m.Job.Scheme)
		put.delta = append(put.delta, m.Job.Delta)
		put.aggr = append(put.aggr, m.Job.Aggressiveness)
		put.mhz = append(put.mhz, int64(m.Job.MHz))
		o := m.Outcome
		instructions = append(instructions, o.Res.Instructions)
		timePs = append(timePs, o.Res.TimePs)
		energyPJ = append(energyPJ, o.Res.EnergyPJ)
		domainPJ = append(domainPJ, o.Res.DomainPJ)
		avgMHz = append(avgMHz, o.Res.AvgMHz)
		syncCrossings = append(syncCrossings, o.Res.SyncCrossings)
		syncPenalties = append(syncPenalties, o.Res.SyncPenalties)
		mispredicts = append(mispredicts, o.Res.Mispredicts)
		mispredictRate = append(mispredictRate, o.Res.MispredictRate)
		il1 = append(il1, o.Res.IL1MissRate)
		dl1 = append(dl1, o.Res.DL1MissRate)
		l2 = append(l2, o.Res.L2MissRate)
		dynReconfig = append(dynReconfig, o.Stats.DynReconfig)
		dynInstr = append(dynInstr, o.Stats.DynInstr)
		overheadCycles = append(overheadCycles, o.Stats.OverheadCycles)
		overheadPct = append(overheadPct, o.Stats.OverheadPct)
		globalMHz = append(globalMHz, int64(o.GlobalMHz))
		staticReconfig = append(staticReconfig, int64(o.StaticReconfig))
		staticInstr = append(staticInstr, int64(o.StaticInstr))
	}

	w := colseg.NewWriter(segmentSchema, n)
	w.Column("job.bench", colseg.PutStrings(put.bench))
	w.Column("job.policy", colseg.PutStrings(put.policy))
	w.Column("job.scheme", colseg.PutStrings(put.scheme))
	w.Column("job.delta", colseg.PutFloat64s(put.delta))
	w.Column("job.aggr", colseg.PutFloat64s(put.aggr))
	w.Column("job.mhz", colseg.PutInt64s(put.mhz))
	w.Column("res.instructions", colseg.PutInt64s(instructions))
	w.Column("res.time_ps", colseg.PutInt64s(timePs))
	w.Column("res.energy_pj", colseg.PutFloat64s(energyPJ))
	w.Column("res.domain_pj", colseg.PutFloatLists(domainPJ))
	w.Column("res.avg_mhz", colseg.PutFloatLists(avgMHz))
	w.Column("res.sync_crossings", colseg.PutInt64s(syncCrossings))
	w.Column("res.sync_penalties", colseg.PutInt64s(syncPenalties))
	w.Column("res.mispredicts", colseg.PutInt64s(mispredicts))
	w.Column("res.mispredict_rate", colseg.PutFloat64s(mispredictRate))
	w.Column("res.il1_miss_rate", colseg.PutFloat64s(il1))
	w.Column("res.dl1_miss_rate", colseg.PutFloat64s(dl1))
	w.Column("res.l2_miss_rate", colseg.PutFloat64s(l2))
	w.Column("stats.dyn_reconfig", colseg.PutInt64s(dynReconfig))
	w.Column("stats.dyn_instr", colseg.PutInt64s(dynInstr))
	w.Column("stats.overhead_cycles", colseg.PutInt64s(overheadCycles))
	w.Column("stats.overhead_pct", colseg.PutFloat64s(overheadPct))
	w.Column("out.global_mhz", colseg.PutInt64s(globalMHz))
	w.Column("out.static_reconfig", colseg.PutInt64s(staticReconfig))
	w.Column("out.static_instr", colseg.PutInt64s(staticInstr))
	// The key column is the segment's footer index: written last, read
	// first, it maps key → row for O(1) point lookups into every other
	// column.
	w.Column("keys", rawKeys)
	return w.Bytes(), nil
}

// decodeSegment parses and validates one segment file into its resident
// columnar form.
func decodeSegment(b []byte) (*segRows, error) {
	s, err := colseg.Decode(b)
	if err != nil {
		return nil, err
	}
	if s.Schema != segmentSchema {
		return nil, fmt.Errorf("%w: schema %d, want %d", colseg.ErrCorrupt, s.Schema, segmentSchema)
	}
	n := s.Rows
	col := func(name string) []byte {
		p, ok := s.Column(name)
		if !ok {
			err = joinErr(err, fmt.Errorf("%w: missing column %q", colseg.ErrCorrupt, name))
		}
		return p
	}
	i64 := func(name string) []int64 {
		v, derr := colseg.Int64s(col(name), n)
		err = joinErr(err, derr)
		return v
	}
	f64 := func(name string) []float64 {
		v, derr := colseg.Float64s(col(name), n)
		err = joinErr(err, derr)
		return v
	}
	str := func(name string) []string {
		v, derr := colseg.Strings(col(name), n)
		err = joinErr(err, derr)
		return v
	}
	flist := func(name string) [][]float64 {
		v, derr := colseg.FloatLists(col(name), n)
		err = joinErr(err, derr)
		return v
	}

	r := &segRows{}
	kb := col("keys")
	if len(kb) != 32*n {
		return nil, fmt.Errorf("%w: key column has %d bytes for %d rows", colseg.ErrCorrupt, len(kb), n)
	}
	r.keys = make([]string, n)
	for i := range r.keys {
		r.keys[i] = hex.EncodeToString(kb[32*i : 32*i+32])
	}
	r.bench = str("job.bench")
	r.policy = str("job.policy")
	r.scheme = str("job.scheme")
	r.delta = f64("job.delta")
	r.aggr = f64("job.aggr")
	r.mhz = i64("job.mhz")
	r.instructions = i64("res.instructions")
	r.timePs = i64("res.time_ps")
	r.energyPJ = f64("res.energy_pj")
	r.domainPJ = flist("res.domain_pj")
	r.avgMHz = flist("res.avg_mhz")
	r.syncCrossings = i64("res.sync_crossings")
	r.syncPenalties = i64("res.sync_penalties")
	r.mispredicts = i64("res.mispredicts")
	r.mispredictRate = f64("res.mispredict_rate")
	r.il1MissRate = f64("res.il1_miss_rate")
	r.dl1MissRate = f64("res.dl1_miss_rate")
	r.l2MissRate = f64("res.l2_miss_rate")
	r.dynReconfig = i64("stats.dyn_reconfig")
	r.dynInstr = i64("stats.dyn_instr")
	r.overheadCycles = i64("stats.overhead_cycles")
	r.overheadPct = f64("stats.overhead_pct")
	r.globalMHz = i64("out.global_mhz")
	r.staticReconfig = i64("out.static_reconfig")
	r.staticInstr = i64("out.static_instr")
	if err != nil {
		return nil, err
	}
	return r, nil
}

func joinErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// DecodeSegmentRows parses one segment file into merged rows (key, job,
// outcome) — the fleet coordinator's ingest path, which re-encodes the
// rows through Cache.Put and its own store so synced bytes stay
// byte-identical to the uploader's.
func DecodeSegmentRows(b []byte) ([]Merged, error) {
	r, err := decodeSegment(b)
	if err != nil {
		return nil, err
	}
	out := make([]Merged, len(r.keys))
	for i := range out {
		out[i] = r.merged(i)
	}
	return out, nil
}

// SegmentStore is the columnar layer over one cache directory: segment
// files under <dir>/segments plus an in-memory key → row index over
// every loaded segment. Damaged segments (truncated, checksum-failed,
// stale schema) are quarantined and counted, never served — reads fall
// back to the JSON cache. All methods are safe for concurrent use.
type SegmentStore struct {
	dir string // the segments directory itself

	// Log receives corrupt-segment warnings (one per damaged file); nil
	// logs to obs.Default (stderr). Set before first use.
	Log *obs.Logger

	mu      sync.Mutex
	scanned bool
	loaded  map[string]*segRows // by file name
	bad     map[string]bool     // quarantined file names
	index   map[string]rowRef
	corrupt int64
}

type rowRef struct {
	rows *segRows
	i    int
}

// SegmentStoreFor returns the segment store conventionally co-located
// with a result cache directory (its segments/ subdirectory).
func SegmentStoreFor(cacheDir string) *SegmentStore {
	return &SegmentStore{
		dir:    filepath.Join(cacheDir, SegmentSubdir),
		loaded: make(map[string]*segRows),
		bad:    make(map[string]bool),
		index:  make(map[string]rowRef),
	}
}

// segFileName reports whether name looks like a segment file.
func segFileName(name string) bool {
	return strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix)
}

// noteCorrupt records one damaged segment file: its rows count as
// corrupt entries (header row count when readable, one otherwise), and
// each offending path is warned about once — same discipline as the
// JSON cache, a damaged shared directory must never be silent.
func (s *SegmentStore) noteCorrupt(name string, b []byte) {
	rows := 1
	if n, ok := colseg.PeekRows(b); ok && n > 0 {
		rows = n
	}
	s.corrupt += int64(rows)
	s.bad[name] = true
	path := filepath.Join(s.dir, name)
	log := s.Log
	if log == nil {
		log = obs.Default
	}
	log.WarnOnce(path, "corrupt result segment, quarantined; reads fall back to the JSON cache",
		"store", "segments", "path", path, "rows", rows)
}

// refreshLocked scans the segments directory and loads files not seen
// yet. Callers hold s.mu.
func (s *SegmentStore) refreshLocked() {
	s.scanned = true
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return // no segments yet (or unreadable: the JSON cache answers)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && segFileName(e.Name()) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // deterministic index precedence
	for _, name := range names {
		if _, ok := s.loaded[name]; ok || s.bad[name] {
			continue
		}
		b, err := os.ReadFile(filepath.Join(s.dir, name))
		if err != nil {
			s.noteCorrupt(name, nil)
			continue
		}
		rows, err := decodeSegment(b)
		if err != nil {
			s.noteCorrupt(name, b)
			continue
		}
		s.addLocked(name, rows)
	}
}

func (s *SegmentStore) addLocked(name string, rows *segRows) {
	s.loaded[name] = rows
	for i, k := range rows.keys {
		if _, dup := s.index[k]; !dup {
			s.index[k] = rowRef{rows: rows, i: i}
		}
	}
}

// Refresh picks up segment files other processes added since the last
// scan. Reads scan lazily on first use; long-lived processes call this
// before merging to see a shared directory's latest segments.
func (s *SegmentStore) Refresh() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refreshLocked()
}

func (s *SegmentStore) lookup(key string) (rowRef, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.scanned {
		s.refreshLocked()
	}
	ref, ok := s.index[key]
	return ref, ok
}

// Get returns the outcome stored under key, materialized from its
// segment row.
func (s *SegmentStore) Get(key string) (*Outcome, bool) {
	ref, ok := s.lookup(key)
	if !ok {
		return nil, false
	}
	return ref.rows.outcome(ref.i), true
}

// Has reports whether key has a segment row, without materializing it.
func (s *SegmentStore) Has(key string) bool {
	_, ok := s.lookup(key)
	return ok
}

// Rows reports how many distinct keys the store currently indexes.
func (s *SegmentStore) Rows() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.scanned {
		s.refreshLocked()
	}
	return len(s.index)
}

// CorruptRows reports the cumulative damaged-row count; the engine
// folds deltas into Summary.CorruptEntries.
func (s *SegmentStore) CorruptRows() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.corrupt
}

// Append seals rows the store does not index yet into one new segment
// file, named by its content hash and written atomically so concurrent
// shards sharing the directory never observe a half-written segment.
// Rows already indexed are skipped (they are identical by content
// addressing); duplicate keys within rows keep the first.
func (s *SegmentStore) Append(rows []Merged) error {
	s.mu.Lock()
	if !s.scanned {
		s.refreshLocked()
	}
	fresh := make([]Merged, 0, len(rows))
	seen := make(map[string]bool, len(rows))
	for _, m := range rows {
		if seen[m.Key] {
			continue
		}
		seen[m.Key] = true
		if _, dup := s.index[m.Key]; !dup {
			fresh = append(fresh, m)
		}
	}
	s.mu.Unlock()
	if len(fresh) == 0 {
		return nil
	}

	b, err := EncodeSegment(fresh)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(b)
	name := segPrefix + hex.EncodeToString(sum[:8]) + segSuffix
	if err := writeSegment(s.dir, name, b); err != nil {
		return fmt.Errorf("sweep: segment: %w", err)
	}

	decoded, err := decodeSegment(b)
	if err != nil {
		return err // cannot happen: we just encoded it
	}
	s.mu.Lock()
	if _, ok := s.loaded[name]; !ok {
		s.addLocked(name, decoded)
	}
	s.mu.Unlock()
	return nil
}

// writeSegment atomically writes one encoded segment file under dir.
func writeSegment(dir, name string, b []byte) error {
	return store.WriteFile(filepath.Join(dir, name), func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
}

// SegmentStat describes one on-disk segment file for prune's dry run.
type SegmentStat struct {
	// Rel is the cache-relative path (segments/seg-<hash>.seg).
	Rel string
	// Rows and Live count total and still-reachable rows; a corrupt
	// segment reports Live 0.
	Rows int
	Live int
	// Bytes is the file size; Reclaimable estimates what compaction
	// frees (the dead rows' proportional share, the whole file when
	// nothing in it is live).
	Bytes       int64
	Reclaimable int64
	// Corrupt marks files that fail validation; compaction removes them
	// (their live rows, if any, are unrecoverable from this layer — the
	// JSON cache is the canonical copy).
	Corrupt bool
}

// SegmentStats scans a cache directory's segment files and reports, per
// segment, how many rows are still reachable (key ∈ results) and how
// many bytes compaction would reclaim.
func SegmentStats(cacheDir string, results map[string]bool) ([]SegmentStat, error) {
	dir := filepath.Join(cacheDir, SegmentSubdir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("sweep: segment scan: %w", err)
	}
	var out []SegmentStat
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !segFileName(name) {
			continue
		}
		st := SegmentStat{Rel: filepath.Join(SegmentSubdir, name)}
		info, ierr := e.Info()
		if ierr == nil {
			st.Bytes = info.Size()
		}
		b, rerr := os.ReadFile(filepath.Join(dir, name))
		rows, derr := decodeSegment(b)
		if rerr != nil || derr != nil {
			st.Corrupt = true
			if n, ok := colseg.PeekRows(b); ok {
				st.Rows = n
			}
			st.Reclaimable = st.Bytes
			out = append(out, st)
			continue
		}
		st.Rows = len(rows.keys)
		for _, k := range rows.keys {
			if results[k] {
				st.Live++
			}
		}
		switch {
		case st.Live == 0:
			st.Reclaimable = st.Bytes
		case st.Live < st.Rows:
			st.Reclaimable = st.Bytes * int64(st.Rows-st.Live) / int64(st.Rows)
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rel < out[j].Rel })
	return out, nil
}

// CompactSegments rewrites a cache directory's segment layer down to
// its reachable rows: fully-live segments are kept as they are; corrupt
// segments and segments carrying dead rows are removed, with their live
// rows (deduplicated against the kept segments) rewritten into one
// fresh segment. It returns the number of files removed and the net
// bytes freed.
func CompactSegments(cacheDir string, results map[string]bool) (removed int, freed int64, err error) {
	stats, err := SegmentStats(cacheDir, results)
	if err != nil {
		return 0, 0, err
	}
	dir := filepath.Join(cacheDir, SegmentSubdir)

	kept := make(map[string]bool)
	for _, st := range stats {
		if !st.Corrupt && st.Live == st.Rows && st.Rows > 0 {
			for _, k := range segmentKeys(dir, st) {
				kept[k] = true
			}
		}
	}
	var live []Merged
	var doomed []SegmentStat
	for _, st := range stats {
		if !st.Corrupt && st.Live == st.Rows && st.Rows > 0 {
			continue
		}
		doomed = append(doomed, st)
		if st.Corrupt || st.Live == 0 {
			continue
		}
		b, rerr := os.ReadFile(filepath.Join(cacheDir, st.Rel))
		if rerr != nil {
			continue
		}
		rows, derr := decodeSegment(b)
		if derr != nil {
			continue
		}
		for i, k := range rows.keys {
			if results[k] && !kept[k] {
				kept[k] = true
				live = append(live, rows.merged(i))
			}
		}
	}
	if len(live) > 0 {
		b, eerr := EncodeSegment(live)
		if eerr != nil {
			return 0, 0, eerr
		}
		sum := sha256.Sum256(b)
		name := segPrefix + hex.EncodeToString(sum[:8]) + segSuffix
		if werr := writeSegment(dir, name, b); werr != nil {
			return 0, 0, fmt.Errorf("sweep: segment compact: %w", werr)
		}
		freed -= int64(len(b))
	}
	for _, st := range doomed {
		if rerr := os.Remove(filepath.Join(cacheDir, st.Rel)); rerr != nil {
			if os.IsNotExist(rerr) {
				continue
			}
			return removed, freed, fmt.Errorf("sweep: segment compact: %w", rerr)
		}
		removed++
		freed += st.Bytes
	}
	return removed, freed, nil
}

// segmentKeys lists one valid segment's keys (empty on any error; used
// only for compaction dedup, where a misread just means a row is
// rewritten redundantly).
func segmentKeys(dir string, st SegmentStat) []string {
	b, err := os.ReadFile(filepath.Join(dir, filepath.Base(st.Rel)))
	if err != nil {
		return nil
	}
	rows, err := decodeSegment(b)
	if err != nil {
		return nil
	}
	return rows.keys
}
