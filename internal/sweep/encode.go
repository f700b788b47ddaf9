package sweep

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/jsonscan"
	"repro/internal/sim"
)

// Hand-rolled Merged encoder. encoding/json's reflective MarshalIndent
// is the dominant cost of a large merge once segments make outcome
// lookups cheap, so the streaming paths encode rows directly. The output
// is byte-for-byte what the stdlib produces — the same float shortest
// form with the exponent cleanup, the same HTML-escaped strings, the
// same omitempty decisions — which the differential test in
// encode_test.go checks against json.Marshal/MarshalIndent exhaustively.

// mergedEncoder accumulates one encoded row. prefix is the per-line
// prefix of the indented form (WriteJSON rows sit one element deep in the
// output array, so it passes " "); the indent unit is one space, matching
// MergeBytes' MarshalIndent(v, prefix, " "). With indent=false it emits
// the compact form json.Marshal produces (WriteNDJSON lines).
type mergedEncoder struct {
	buf    []byte
	prefix string
	indent bool
}

// nl starts a member line at the given object depth.
func (e *mergedEncoder) nl(depth int) {
	if !e.indent {
		return
	}
	e.buf = append(e.buf, '\n')
	e.buf = append(e.buf, e.prefix...)
	for i := 0; i < depth; i++ {
		e.buf = append(e.buf, ' ')
	}
}

// member opens the next object member: separator, line break, quoted
// name, colon. Member names are fixed ASCII literals, so they skip the
// escaping walk values go through.
func (e *mergedEncoder) member(depth int, first *bool, name string) {
	if !*first {
		e.buf = append(e.buf, ',')
	}
	*first = false
	e.nl(depth)
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, name...)
	e.buf = append(e.buf, '"', ':')
	if e.indent {
		e.buf = append(e.buf, ' ')
	}
}

func (e *mergedEncoder) int(v int64) {
	e.buf = strconv.AppendInt(e.buf, v, 10)
}

// float matches encoding/json's floatEncoder: shortest form, 'f' format
// in [1e-6, 1e21), 'e' outside with the two-digit exponent's leading
// zero stripped. NaN and infinities are unrepresentable, as in stdlib.
func (e *mergedEncoder) float(v float64) error {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return fmt.Errorf("sweep: merge: unsupported float value %v", v)
	}
	abs := math.Abs(v)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.buf = strconv.AppendFloat(e.buf, v, format, -1, 64)
	if format == 'e' {
		if n := len(e.buf); n >= 4 && e.buf[n-4] == 'e' && e.buf[n-3] == '-' && e.buf[n-2] == '0' {
			e.buf[n-2] = e.buf[n-1]
			e.buf = e.buf[:n-1]
		}
	}
	return nil
}

const hexDigits = "0123456789abcdef"

// str matches encoding/json's HTML-escaping string encoder: quotes and
// backslashes get shorthand escapes along with \b, \f, \n, \r and \t;
// other control characters, '<', '>' and '&' become \u00xx; invalid
// UTF-8 bytes become the \ufffd escape; U+2028/U+2029 are escaped for
// JS embedding.
func (e *mergedEncoder) str(s string) {
	e.buf = append(e.buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			e.buf = append(e.buf, s[start:i]...)
			switch c {
			case '\\', '"':
				e.buf = append(e.buf, '\\', c)
			case '\b':
				e.buf = append(e.buf, '\\', 'b')
			case '\f':
				e.buf = append(e.buf, '\\', 'f')
			case '\n':
				e.buf = append(e.buf, '\\', 'n')
			case '\r':
				e.buf = append(e.buf, '\\', 'r')
			case '\t':
				e.buf = append(e.buf, '\\', 't')
			default:
				e.buf = append(e.buf, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			e.buf = append(e.buf, s[start:i]...)
			e.buf = append(e.buf, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			e.buf = append(e.buf, s[start:i]...)
			e.buf = append(e.buf, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	e.buf = append(e.buf, s[start:]...)
	e.buf = append(e.buf, '"')
}

// floats encodes a []float64 whose elements sit at the given depth:
// nil is null, empty is [], anything else one element per line.
func (e *mergedEncoder) floats(v []float64, depth int) error {
	if v == nil {
		e.buf = append(e.buf, "null"...)
		return nil
	}
	if len(v) == 0 {
		e.buf = append(e.buf, '[', ']')
		return nil
	}
	e.buf = append(e.buf, '[')
	for i, f := range v {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.nl(depth)
		if err := e.float(f); err != nil {
			return err
		}
	}
	e.nl(depth - 1)
	e.buf = append(e.buf, ']')
	return nil
}

func (e *mergedEncoder) job(j Job) error {
	e.buf = append(e.buf, '{')
	first := true
	e.member(2, &first, "bench")
	e.str(j.Bench)
	e.member(2, &first, "policy")
	e.str(j.Policy)
	if j.Scheme != "" {
		e.member(2, &first, "scheme")
		e.str(j.Scheme)
	}
	if j.Delta != 0 {
		e.member(2, &first, "delta")
		if err := e.float(j.Delta); err != nil {
			return err
		}
	}
	if j.Aggressiveness != 0 {
		e.member(2, &first, "aggressiveness")
		if err := e.float(j.Aggressiveness); err != nil {
			return err
		}
	}
	if j.MHz != 0 {
		e.member(2, &first, "mhz")
		e.int(int64(j.MHz))
	}
	e.nl(1)
	e.buf = append(e.buf, '}')
	return nil
}

// jobMembers is Job's member table for the direct decoder
// (internal/jsonscan). Each type this encoder writes has its table
// beside its encoding method, listed in the same order, so that a new
// field touches one place.
var jobMembers = jsonscan.Table[Job]{
	"bench":          func(s *jsonscan.Scanner, j *Job) { s.String(&j.Bench) },
	"policy":         func(s *jsonscan.Scanner, j *Job) { s.String(&j.Policy) },
	"scheme":         func(s *jsonscan.Scanner, j *Job) { s.String(&j.Scheme) },
	"delta":          func(s *jsonscan.Scanner, j *Job) { s.Float(&j.Delta) },
	"aggressiveness": func(s *jsonscan.Scanner, j *Job) { s.Float(&j.Aggressiveness) },
	"mhz":            func(s *jsonscan.Scanner, j *Job) { s.Int(&j.MHz) },
}

func (e *mergedEncoder) result(r sim.Result) error {
	e.buf = append(e.buf, '{')
	first := true
	e.member(3, &first, "Instructions")
	e.int(r.Instructions)
	e.member(3, &first, "TimePs")
	e.int(r.TimePs)
	e.member(3, &first, "EnergyPJ")
	if err := e.float(r.EnergyPJ); err != nil {
		return err
	}
	e.member(3, &first, "DomainPJ")
	if err := e.floats(r.DomainPJ, 4); err != nil {
		return err
	}
	e.member(3, &first, "AvgMHz")
	if err := e.floats(r.AvgMHz, 4); err != nil {
		return err
	}
	e.member(3, &first, "SyncCrossings")
	e.int(r.SyncCrossings)
	e.member(3, &first, "SyncPenalties")
	e.int(r.SyncPenalties)
	e.member(3, &first, "Mispredicts")
	e.int(r.Mispredicts)
	e.member(3, &first, "MispredictRate")
	if err := e.float(r.MispredictRate); err != nil {
		return err
	}
	e.member(3, &first, "IL1MissRate")
	if err := e.float(r.IL1MissRate); err != nil {
		return err
	}
	e.member(3, &first, "DL1MissRate")
	if err := e.float(r.DL1MissRate); err != nil {
		return err
	}
	e.member(3, &first, "L2MissRate")
	if err := e.float(r.L2MissRate); err != nil {
		return err
	}
	e.nl(2)
	e.buf = append(e.buf, '}')
	return nil
}

// resultMembers is sim.Result's member table for the direct decoder.
var resultMembers = jsonscan.Table[sim.Result]{
	"Instructions":   func(s *jsonscan.Scanner, r *sim.Result) { s.Int64(&r.Instructions) },
	"TimePs":         func(s *jsonscan.Scanner, r *sim.Result) { s.Int64(&r.TimePs) },
	"EnergyPJ":       func(s *jsonscan.Scanner, r *sim.Result) { s.Float(&r.EnergyPJ) },
	"DomainPJ":       func(s *jsonscan.Scanner, r *sim.Result) { s.Floats(&r.DomainPJ) },
	"AvgMHz":         func(s *jsonscan.Scanner, r *sim.Result) { s.Floats(&r.AvgMHz) },
	"SyncCrossings":  func(s *jsonscan.Scanner, r *sim.Result) { s.Int64(&r.SyncCrossings) },
	"SyncPenalties":  func(s *jsonscan.Scanner, r *sim.Result) { s.Int64(&r.SyncPenalties) },
	"Mispredicts":    func(s *jsonscan.Scanner, r *sim.Result) { s.Int64(&r.Mispredicts) },
	"MispredictRate": func(s *jsonscan.Scanner, r *sim.Result) { s.Float(&r.MispredictRate) },
	"IL1MissRate":    func(s *jsonscan.Scanner, r *sim.Result) { s.Float(&r.IL1MissRate) },
	"DL1MissRate":    func(s *jsonscan.Scanner, r *sim.Result) { s.Float(&r.DL1MissRate) },
	"L2MissRate":     func(s *jsonscan.Scanner, r *sim.Result) { s.Float(&r.L2MissRate) },
}

func (e *mergedEncoder) stats(s core.EditStats) error {
	e.buf = append(e.buf, '{')
	first := true
	e.member(3, &first, "DynReconfig")
	e.int(s.DynReconfig)
	e.member(3, &first, "DynInstr")
	e.int(s.DynInstr)
	e.member(3, &first, "OverheadCycles")
	e.int(s.OverheadCycles)
	e.member(3, &first, "OverheadPct")
	if err := e.float(s.OverheadPct); err != nil {
		return err
	}
	e.nl(2)
	e.buf = append(e.buf, '}')
	return nil
}

// statsMembers is core.EditStats's member table for the direct decoder.
var statsMembers = jsonscan.Table[core.EditStats]{
	"DynReconfig":    func(s *jsonscan.Scanner, st *core.EditStats) { s.Int64(&st.DynReconfig) },
	"DynInstr":       func(s *jsonscan.Scanner, st *core.EditStats) { s.Int64(&st.DynInstr) },
	"OverheadCycles": func(s *jsonscan.Scanner, st *core.EditStats) { s.Int64(&st.OverheadCycles) },
	"OverheadPct":    func(s *jsonscan.Scanner, st *core.EditStats) { s.Float(&st.OverheadPct) },
}

func (e *mergedEncoder) outcome(o *Outcome) error {
	if o == nil {
		e.buf = append(e.buf, "null"...)
		return nil
	}
	e.buf = append(e.buf, '{')
	first := true
	e.member(2, &first, "result")
	if err := e.result(o.Res); err != nil {
		return err
	}
	e.member(2, &first, "edit_stats")
	if err := e.stats(o.Stats); err != nil {
		return err
	}
	if o.GlobalMHz != 0 {
		e.member(2, &first, "global_mhz")
		e.int(int64(o.GlobalMHz))
	}
	if o.StaticReconfig != 0 {
		e.member(2, &first, "static_reconfig")
		e.int(int64(o.StaticReconfig))
	}
	if o.StaticInstr != 0 {
		e.member(2, &first, "static_instr")
		e.int(int64(o.StaticInstr))
	}
	e.nl(1)
	e.buf = append(e.buf, '}')
	return nil
}

// outcomeMembers is Outcome's member table for the direct decoder.
var outcomeMembers = jsonscan.Table[Outcome]{
	"result":          func(s *jsonscan.Scanner, o *Outcome) { jsonscan.Object(s, &o.Res, resultMembers) },
	"edit_stats":      func(s *jsonscan.Scanner, o *Outcome) { jsonscan.Object(s, &o.Stats, statsMembers) },
	"global_mhz":      func(s *jsonscan.Scanner, o *Outcome) { s.Int(&o.GlobalMHz) },
	"static_reconfig": func(s *jsonscan.Scanner, o *Outcome) { s.Int(&o.StaticReconfig) },
	"static_instr":    func(s *jsonscan.Scanner, o *Outcome) { s.Int(&o.StaticInstr) },
}

// appendMerged appends one encoded Merged row to dst and returns the
// extended slice. With indent=true the row matches
// json.MarshalIndent(m, prefix, " "); with indent=false it matches
// json.Marshal(m) and prefix is ignored.
func appendMerged(dst []byte, m Merged, prefix string, indent bool) ([]byte, error) {
	e := mergedEncoder{buf: dst, prefix: prefix, indent: indent}
	e.buf = append(e.buf, '{')
	first := true
	e.member(1, &first, "key")
	e.str(m.Key)
	e.member(1, &first, "job")
	if err := e.job(m.Job); err != nil {
		return dst, err
	}
	e.member(1, &first, "outcome")
	if err := e.outcome(m.Outcome); err != nil {
		return dst, err
	}
	e.nl(0)
	e.buf = append(e.buf, '}')
	return e.buf, nil
}

// The compact form for frames outside this package: the serving
// protocol's stream event (wire.Event) embeds a job, an outcome and
// strings, and encodes them with this encoder rather than reflection,
// and its client decodes them with the tables above.

// AppendJobJSON appends json.Marshal(j)'s bytes to dst.
func AppendJobJSON(dst []byte, j Job) ([]byte, error) {
	e := mergedEncoder{buf: dst}
	err := e.job(j)
	return e.buf, err
}

// AppendOutcomeJSON appends json.Marshal(o)'s bytes to dst; a nil o is
// null.
func AppendOutcomeJSON(dst []byte, o *Outcome) ([]byte, error) {
	e := mergedEncoder{buf: dst}
	err := e.outcome(o)
	return e.buf, err
}

// DecodeJobJSON decodes a job at s into j, as json.Unmarshal would with
// unknown members refused and member names matched exactly.
func DecodeJobJSON(s *jsonscan.Scanner, j *Job) { jsonscan.Object(s, j, jobMembers) }

// DecodeOutcomeJSON decodes an outcome, or null, at s into *o, as
// json.Unmarshal would with unknown members refused and member names
// matched exactly.
func DecodeOutcomeJSON(s *jsonscan.Scanner, o **Outcome) { jsonscan.Pointer(s, o, outcomeMembers) }

// AppendJSONString appends json.Marshal(s)'s bytes to dst.
func AppendJSONString(dst []byte, s string) []byte {
	e := mergedEncoder{buf: dst}
	e.str(s)
	return e.buf
}
