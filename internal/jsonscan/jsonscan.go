// Package jsonscan decodes JSON objects of fixed shape in one pass over
// the bytes, with no reflection. It is the decode-side twin of the sweep
// package's direct encoder: each type lists its members in a Table,
// next to the code that encodes it, and a decode walks the tables while
// it scans.
//
// A decode accepts exactly what encoding/json's Decoder with
// DisallowUnknownFields accepts into the same Go value, and leaves the
// value as that decoder would: numbers follow the JSON grammar, integer
// members refuse a fraction or an exponent, null leaves a scalar or an
// object as it is and sets a slice or a pointer to nil, [] is an empty
// non-nil slice, and a repeated member is decoded again into the same
// place, so the last one wins and a repeated object merges. The one
// difference is that member names match exactly, case included: a name
// in another case is an unknown member, where encoding/json folds it.
//
// Every error stands for a malformed frame; the first one ends the
// decode, and the value is then unspecified.
package jsonscan

import (
	"encoding/json"
	"fmt"
	"strconv"
	"unicode/utf8"
)

// A Scanner reads one JSON text. Its zero value is not usable; make one
// with NewScanner.
type Scanner struct {
	data []byte
	pos  int
	err  error
}

// NewScanner returns a Scanner positioned at the start of data.
func NewScanner(data []byte) *Scanner {
	return &Scanner{data: data}
}

// A Table maps each member name of an object shape to how the member's
// value decodes into the object.
type Table[T any] map[string]func(s *Scanner, v *T)

// DecodeMember decodes the value of the member called name into v and
// reports whether t has a member of that exact name.
func (t Table[T]) DecodeMember(s *Scanner, v *T, name []byte) bool {
	decode, ok := t[string(name)]
	if ok {
		decode(s, v)
	}
	return ok
}

// Decode decodes data, one object or null followed by nothing but JSON
// whitespace, into v through t.
func Decode[T any](data []byte, v *T, t Table[T]) error {
	s := NewScanner(data)
	Object(s, v, t)
	return s.End()
}

// Object decodes an object into v through t; null leaves v as it is.
func Object[T any](s *Scanner, v *T, t Table[T]) {
	s.Object(func(name []byte) bool { return t.DecodeMember(s, v, name) })
}

// Pointer decodes an object through t into *p, allocating it when *p is
// nil; null sets *p to nil.
func Pointer[T any](s *Scanner, p **T, t Table[T]) {
	if s.null() {
		*p = nil
		return
	}
	if *p == nil {
		*p = new(T)
	}
	Object(s, *p, t)
}

// End finishes the text: only JSON whitespace may follow the value. It
// returns the decode's first error.
func (s *Scanner) End() error {
	if s.err == nil {
		s.ws()
		if n := len(s.data) - s.pos; n > 0 {
			s.fail("%d bytes of trailing data after the value", n)
		}
	}
	return s.err
}

// Object decodes an object, calling member for each member with its
// unescaped name while the scanner sits on the member's value. member
// decodes the value and reports whether it knows the name; a name it
// does not know ends the decode with an error. null is an object with
// no members.
func (s *Scanner) Object(member func(name []byte) bool) {
	if s.null() {
		return
	}
	if !s.expect('{', "an object") {
		return
	}
	if s.peek() == '}' {
		s.pos++
		return
	}
	for {
		name := s.name()
		if s.err != nil || !s.expect(':', "':' after a member name") {
			return
		}
		if !member(name) {
			s.fail("unknown field %q", name)
			return
		}
		if s.err != nil {
			return
		}
		switch s.peek() {
		case ',':
			s.pos++
		case '}':
			s.pos++
			return
		default:
			s.fail("expected ',' or '}' after a member at offset %d", s.pos)
			return
		}
	}
}

// Int decodes an integer into *dst; null leaves it as it is.
func (s *Scanner) Int(dst *int) {
	if n, ok := s.integer(); ok && int64(int(n)) == n {
		*dst = int(n)
	} else if ok {
		s.fail("number %d overflows int", n)
	}
}

// Int64 decodes an integer into *dst; null leaves it as it is.
func (s *Scanner) Int64(dst *int64) {
	if n, ok := s.integer(); ok {
		*dst = n
	}
}

// Float decodes a number into *dst, as strconv.ParseFloat reads it; a
// number out of float64's range is an error. null leaves *dst as it is.
func (s *Scanner) Float(dst *float64) {
	if s.null() {
		return
	}
	tok, _ := s.number()
	if s.err != nil {
		return
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		s.fail("number %s: %v", tok, err)
		return
	}
	*dst = f
}

// Floats decodes an array of numbers into *dst, reusing its backing
// array as encoding/json does; null sets *dst to nil, and a null
// element leaves that element as it is.
func (s *Scanner) Floats(dst *[]float64) {
	if s.null() {
		*dst = nil
		return
	}
	if !s.expect('[', "an array") {
		return
	}
	if s.peek() == ']' {
		s.pos++
		*dst = []float64{}
		return
	}
	v := *dst
	for i := 0; ; i++ {
		// Like reflect.Value.Grow, keep every element up to the old
		// capacity: a repeated member whose element is null reads the
		// earlier member's value there. Growth starts at 8, so that
		// one allocation holds a result's per-domain figures.
		if i == cap(v) {
			grown := make([]float64, i, max(2*i, 8))
			copy(grown, v[:i])
			v = grown
		}
		if i == len(v) {
			v = v[:i+1]
		}
		s.Float(&v[i])
		if s.err != nil {
			return
		}
		switch s.peek() {
		case ',':
			s.pos++
		case ']':
			s.pos++
			*dst = v[:i+1]
			return
		default:
			s.fail("expected ',' or ']' after an element at offset %d", s.pos)
			return
		}
	}
}

// String decodes a string into *dst; null leaves it as it is.
func (s *Scanner) String(dst *string) {
	if s.null() {
		return
	}
	tok, plain := s.str()
	switch {
	case s.err != nil:
	case plain:
		*dst = string(tok[1 : len(tok)-1])
	default:
		s.unquote(tok, dst)
	}
}

// Bool decodes true or false into *dst; null leaves it as it is.
func (s *Scanner) Bool(dst *bool) {
	switch s.peek() {
	case 'n':
		s.null()
		return
	case 't':
		if s.literal("true") {
			*dst = true
			return
		}
	case 'f':
		if s.literal("false") {
			*dst = false
			return
		}
	}
	if s.err == nil {
		s.fail("expected true or false at offset %d", s.pos)
	}
}

func (s *Scanner) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf("json: "+format, args...)
	}
}

// ws skips JSON whitespace.
func (s *Scanner) ws() {
	i := s.pos
	for i < len(s.data) && (s.data[i] == ' ' || s.data[i] == '\t' || s.data[i] == '\n' || s.data[i] == '\r') {
		i++
	}
	s.pos = i
}

// peek skips whitespace and returns the next byte, or 0 at the end of
// the text (a NUL byte is never valid JSON either).
func (s *Scanner) peek() byte {
	s.ws()
	if s.pos < len(s.data) {
		return s.data[s.pos]
	}
	return 0
}

// expect consumes the byte c, or fails naming what was wanted.
func (s *Scanner) expect(c byte, what string) bool {
	if s.peek() != c {
		s.fail("expected %s at offset %d", what, s.pos)
		return false
	}
	s.pos++
	return true
}

// literal consumes lit if the text continues with it. The byte after it
// is checked by whatever the caller expects next.
func (s *Scanner) literal(lit string) bool {
	if end := s.pos + len(lit); end <= len(s.data) && string(s.data[s.pos:end]) == lit {
		s.pos = end
		return true
	}
	return false
}

// null consumes a null value and reports whether the value is null. A
// malformed literal starting with n fails and also reports true, so the
// caller decodes nothing more.
func (s *Scanner) null() bool {
	if s.peek() != 'n' {
		return false
	}
	if !s.literal("null") {
		s.fail("invalid literal at offset %d", s.pos)
	}
	return true
}

// integer decodes a number with no fraction or exponent, as
// strconv.ParseInt reads it; ok is false for null and on error.
func (s *Scanner) integer() (n int64, ok bool) {
	if s.null() {
		return 0, false
	}
	tok, isInt := s.number()
	if s.err != nil {
		return 0, false
	}
	if !isInt {
		s.fail("number %s is not an integer", tok)
		return 0, false
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		s.fail("number %s: %v", tok, err)
		return 0, false
	}
	return n, true
}

// number scans a number by the JSON grammar and reports whether it has
// neither a fraction nor an exponent.
func (s *Scanner) number() (tok []byte, isInt bool) {
	s.ws()
	start := s.pos
	if s.pos < len(s.data) && s.data[s.pos] == '-' {
		s.pos++
	}
	switch {
	case s.pos < len(s.data) && s.data[s.pos] == '0':
		s.pos++
	case s.digits() == 0:
		s.fail("expected a number at offset %d", start)
		return nil, false
	}
	isInt = true
	if s.pos < len(s.data) && s.data[s.pos] == '.' {
		s.pos++
		if s.digits() == 0 {
			s.fail("expected a digit after the decimal point at offset %d", s.pos)
			return nil, false
		}
		isInt = false
	}
	if s.pos < len(s.data) && (s.data[s.pos] == 'e' || s.data[s.pos] == 'E') {
		s.pos++
		if s.pos < len(s.data) && (s.data[s.pos] == '+' || s.data[s.pos] == '-') {
			s.pos++
		}
		if s.digits() == 0 {
			s.fail("expected a digit in the exponent at offset %d", s.pos)
			return nil, false
		}
		isInt = false
	}
	return s.data[start:s.pos], isInt
}

// digits consumes a run of decimal digits and returns its length.
func (s *Scanner) digits() int {
	i := s.pos
	for i < len(s.data) && s.data[i]-'0' < 10 {
		i++
	}
	n := i - s.pos
	s.pos = i
	return n
}

// str scans a string and returns it with its quotes. plain reports that
// it holds only ASCII and no escape, so that the bytes between the
// quotes are its value.
func (s *Scanner) str() (tok []byte, plain bool) {
	if s.peek() != '"' {
		s.fail("expected a string at offset %d", s.pos)
		return nil, false
	}
	start := s.pos
	i := start + 1
	for i < len(s.data) && plainByte[s.data[i]] {
		i++
	}
	plain = true
	for ; i < len(s.data); i++ {
		switch c := s.data[i]; {
		case c == '"':
			s.pos = i + 1
			return s.data[start:s.pos], plain
		case c == '\\':
			plain = false
			i++
		case c < 0x20:
			s.fail("control character in a string at offset %d", i)
			return nil, false
		case c >= utf8.RuneSelf:
			plain = false
		}
	}
	s.fail("unterminated string at offset %d", start)
	return nil, false
}

// plainByte marks the bytes that stand for themselves in a string:
// printable ASCII other than the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unquote decodes a string token with escapes or non-ASCII bytes
// through encoding/json, so that escapes, surrogates and invalid UTF-8
// have one implementation.
func (s *Scanner) unquote(tok []byte, dst *string) {
	if err := json.Unmarshal(tok, dst); err != nil {
		s.fail("string at offset %d: %v", s.pos-len(tok), err)
	}
}

// name scans a member name and returns it unescaped.
func (s *Scanner) name() []byte {
	tok, plain := s.str()
	switch {
	case s.err != nil:
		return nil
	case plain:
		return tok[1 : len(tok)-1]
	}
	var name string
	s.unquote(tok, &name)
	return []byte(name)
}
