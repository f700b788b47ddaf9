// Package colseg is a small, dependency-free container format for
// columnar (struct-of-arrays) segment files. A segment holds a fixed
// number of rows as a set of named column blocks, each independently
// CRC-checksummed, between a header that declares the schema and row
// count and a trailing end marker that makes truncation detectable.
// The encoding is fully deterministic — the same schema, row count and
// column payloads always produce the same bytes — so segments can be
// content-addressed and re-encoded byte-identically on another node.
//
// The package also provides the typed payload codecs the sweep layer's
// columns use (in the spirit of isa.PackedStream's parallel arrays):
// zigzag-varint int64 columns, raw-bit float64 columns,
// dictionary-encoded string columns, and nil-preserving float-list
// columns. Payload helpers are independent of the container: a column
// block is just named bytes.
//
// Layout (all integers little-endian):
//
//	magic    [8]byte  "mcdseg01"
//	schema   uint32
//	rows     uint32
//	columns  uint32
//	column*  { nameLen uint16, name []byte,
//	           payloadLen uint32, crc32 uint32 (IEEE, of payload),
//	           payload []byte }
//	filecrc  uint32   (IEEE, of everything before it)
//	end      [8]byte  "mcdseg.e"
//
// Per-column checksums give block-level damage attribution; the file
// checksum closes the gaps between them (header fields, column names
// and lengths), so any single corrupted byte is detected.
package colseg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
)

var (
	magic    = [8]byte{'m', 'c', 'd', 's', 'e', 'g', '0', '1'}
	endMagic = [8]byte{'m', 'c', 'd', 's', 'e', 'g', '.', 'e'}
)

// headerSize is the fixed prefix before the first column block, and
// trailerSize the file checksum plus end marker after the last.
const (
	headerSize  = 8 + 4 + 4 + 4
	trailerSize = 4 + 8
)

// maxColumnBytes bounds one column payload; a decode that claims more
// is corrupt, not large.
const maxColumnBytes = 1 << 30

// ErrCorrupt tags every decode failure — truncated file, bad magic,
// checksum mismatch, or a malformed payload — so callers can treat
// damage uniformly (errors.Is(err, ErrCorrupt)).
var ErrCorrupt = errors.New("colseg: corrupt segment")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Writer assembles one segment. Columns are emitted in the order added;
// adding the same name twice panics (programming error).
type Writer struct {
	schema uint32
	rows   int
	names  []string
	blocks map[string][]byte
}

// NewWriter starts a segment with the given schema tag and row count.
func NewWriter(schema uint32, rows int) *Writer {
	return &Writer{schema: schema, rows: rows, blocks: make(map[string][]byte)}
}

// Column appends one named block. The payload is owned by the writer
// from here on.
func (w *Writer) Column(name string, payload []byte) {
	if _, dup := w.blocks[name]; dup {
		panic("colseg: duplicate column " + name)
	}
	if len(name) == 0 || len(name) > math.MaxUint16 {
		panic("colseg: bad column name")
	}
	w.names = append(w.names, name)
	w.blocks[name] = payload
}

// Bytes renders the segment file.
func (w *Writer) Bytes() []byte {
	size := headerSize + trailerSize
	for _, n := range w.names {
		size += 2 + len(n) + 4 + 4 + len(w.blocks[n])
	}
	out := make([]byte, 0, size)
	out = append(out, magic[:]...)
	out = binary.LittleEndian.AppendUint32(out, w.schema)
	out = binary.LittleEndian.AppendUint32(out, uint32(w.rows))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(w.names)))
	for _, n := range w.names {
		p := w.blocks[n]
		out = binary.LittleEndian.AppendUint16(out, uint16(len(n)))
		out = append(out, n...)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(p)))
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(p))
		out = append(out, p...)
	}
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	out = append(out, endMagic[:]...)
	return out
}

// Segment is one decoded segment: its schema, row count, and validated
// column payloads.
type Segment struct {
	Schema uint32
	Rows   int

	cols map[string][]byte
}

// Column returns a named column's payload.
func (s *Segment) Column(name string) ([]byte, bool) {
	p, ok := s.cols[name]
	return p, ok
}

// Names returns the decoded column names, sorted.
func (s *Segment) Names() []string {
	out := make([]string, 0, len(s.cols))
	for n := range s.cols {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// PeekRows reads the declared row count out of a possibly damaged
// segment's header. ok=false means even the header is unreadable, so
// the caller cannot attribute a row count to the damage.
func PeekRows(b []byte) (rows int, ok bool) {
	if len(b) < headerSize || [8]byte(b[:8]) != magic {
		return 0, false
	}
	return int(binary.LittleEndian.Uint32(b[12:16])), true
}

// Decode parses and fully validates a segment file: magic, end marker,
// every block's length and checksum. Any damage — including truncation
// after a valid prefix — reports ErrCorrupt.
func Decode(b []byte) (*Segment, error) {
	if len(b) < headerSize+trailerSize {
		return nil, corruptf("%d bytes is shorter than any segment", len(b))
	}
	if [8]byte(b[:8]) != magic {
		return nil, corruptf("bad magic %q", b[:8])
	}
	if [8]byte(b[len(b)-8:]) != endMagic {
		return nil, corruptf("missing end marker (truncated or trailing garbage)")
	}
	if crc32.ChecksumIEEE(b[:len(b)-trailerSize]) != binary.LittleEndian.Uint32(b[len(b)-trailerSize:]) {
		return nil, corruptf("file checksum mismatch")
	}
	s := &Segment{
		Schema: binary.LittleEndian.Uint32(b[8:12]),
		Rows:   int(binary.LittleEndian.Uint32(b[12:16])),
		cols:   make(map[string][]byte),
	}
	ncols := int(binary.LittleEndian.Uint32(b[16:20]))
	at := headerSize
	for c := 0; c < ncols; c++ {
		if len(b)-at < 2 {
			return nil, corruptf("truncated in column %d header", c)
		}
		nameLen := int(binary.LittleEndian.Uint16(b[at:]))
		at += 2
		if len(b)-at < nameLen+8 {
			return nil, corruptf("truncated in column %d header", c)
		}
		name := string(b[at : at+nameLen])
		at += nameLen
		payLen := int(binary.LittleEndian.Uint32(b[at:]))
		sum := binary.LittleEndian.Uint32(b[at+4:])
		at += 8
		if payLen > maxColumnBytes || len(b)-at < payLen {
			return nil, corruptf("truncated in column %q payload", name)
		}
		payload := b[at : at+payLen]
		at += payLen
		if crc32.ChecksumIEEE(payload) != sum {
			return nil, corruptf("column %q checksum mismatch", name)
		}
		if _, dup := s.cols[name]; dup {
			return nil, corruptf("duplicate column %q", name)
		}
		s.cols[name] = payload
	}
	if len(b)-at != trailerSize {
		return nil, corruptf("%d bytes between last column and trailer", len(b)-at-trailerSize)
	}
	return s, nil
}

// --- typed payload codecs ---

// PutInt64s encodes an int64 column as zigzag varints.
func PutInt64s(vals []int64) []byte {
	out := make([]byte, 0, len(vals))
	for _, v := range vals {
		out = binary.AppendUvarint(out, zigzag(v))
	}
	return out
}

// Int64s decodes an int64 column of exactly rows values.
func Int64s(p []byte, rows int) ([]int64, error) {
	out := make([]int64, rows)
	at := 0
	for i := 0; i < rows; i++ {
		u, n := binary.Uvarint(p[at:])
		if n <= 0 {
			return nil, corruptf("int64 column: short read at row %d", i)
		}
		at += n
		out[i] = unzigzag(u)
	}
	if at != len(p) {
		return nil, corruptf("int64 column: %d trailing bytes", len(p)-at)
	}
	return out, nil
}

// PutFloat64s encodes a float64 column as raw IEEE-754 bits, 8 bytes a
// value, preserving every representable value exactly (NaN payloads and
// signed zeros included).
func PutFloat64s(vals []float64) []byte {
	out := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// Float64s decodes a float64 column of exactly rows values.
func Float64s(p []byte, rows int) ([]float64, error) {
	if len(p) != 8*rows {
		return nil, corruptf("float64 column: %d bytes for %d rows", len(p), rows)
	}
	out := make([]float64, rows)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return out, nil
}

// PutStrings dictionary-encodes a string column: the distinct values in
// first-appearance order, then one varint index per row. Result-store
// string columns (benchmark and policy names) have few distinct values
// over many rows, so this is both compact and cheap to decode.
func PutStrings(vals []string) []byte {
	index := make(map[string]uint64)
	var dict []string
	for _, v := range vals {
		if _, ok := index[v]; !ok {
			index[v] = uint64(len(dict))
			dict = append(dict, v)
		}
	}
	out := binary.AppendUvarint(nil, uint64(len(dict)))
	for _, d := range dict {
		out = binary.AppendUvarint(out, uint64(len(d)))
		out = append(out, d...)
	}
	for _, v := range vals {
		out = binary.AppendUvarint(out, index[v])
	}
	return out
}

// Strings decodes a string column of exactly rows values.
func Strings(p []byte, rows int) ([]string, error) {
	dn, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, corruptf("string column: short dictionary header")
	}
	at := n
	if dn > uint64(len(p)) {
		return nil, corruptf("string column: dictionary of %d entries in %d bytes", dn, len(p))
	}
	dict := make([]string, dn)
	for i := range dict {
		sl, n := binary.Uvarint(p[at:])
		if n <= 0 {
			return nil, corruptf("string column: short dictionary entry %d", i)
		}
		at += n
		if sl > uint64(len(p)-at) {
			return nil, corruptf("string column: dictionary entry %d overruns", i)
		}
		dict[i] = string(p[at : at+int(sl)])
		at += int(sl)
	}
	out := make([]string, rows)
	for i := 0; i < rows; i++ {
		ix, n := binary.Uvarint(p[at:])
		if n <= 0 {
			return nil, corruptf("string column: short index at row %d", i)
		}
		at += n
		if ix >= dn {
			return nil, corruptf("string column: index %d out of dictionary at row %d", ix, i)
		}
		out[i] = dict[ix]
	}
	if at != len(p) {
		return nil, corruptf("string column: %d trailing bytes", len(p)-at)
	}
	return out, nil
}

// PutFloatLists encodes a column of float64 slices, preserving the
// nil/non-nil distinction (a nil slice marshals to JSON null, an empty
// one to []; the oracle byte-identity argument needs the difference to
// survive the round trip). Per row: varint 0 for nil, length+1
// otherwise; then the flat values.
func PutFloatLists(vals [][]float64) []byte {
	var out []byte
	for _, v := range vals {
		if v == nil {
			out = binary.AppendUvarint(out, 0)
			continue
		}
		out = binary.AppendUvarint(out, uint64(len(v))+1)
	}
	for _, v := range vals {
		for _, f := range v {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(f))
		}
	}
	return out
}

// FloatLists decodes a float-list column of exactly rows values.
func FloatLists(p []byte, rows int) ([][]float64, error) {
	lens := make([]int, rows) // -1 for nil
	at := 0
	total := 0
	for i := 0; i < rows; i++ {
		u, n := binary.Uvarint(p[at:])
		if n <= 0 {
			return nil, corruptf("float-list column: short length at row %d", i)
		}
		at += n
		if u == 0 {
			lens[i] = -1
			continue
		}
		// Bound each length by the bytes left, so a forged length
		// cannot overflow the total below.
		if u-1 > uint64(len(p)-at)/8 {
			return nil, corruptf("float-list column: row %d claims %d values in %d bytes", i, u-1, len(p)-at)
		}
		lens[i] = int(u - 1)
		total += lens[i]
	}
	if len(p)-at != 8*total {
		return nil, corruptf("float-list column: %d value bytes for %d values", len(p)-at, total)
	}
	out := make([][]float64, rows)
	flat := make([]float64, total)
	for i := range flat {
		flat[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[at+8*i:]))
	}
	next := 0
	for i, l := range lens {
		if l < 0 {
			continue
		}
		out[i] = flat[next : next+l : next+l]
		next += l
	}
	return out, nil
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
