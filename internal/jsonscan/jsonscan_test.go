package jsonscan

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

type inner struct {
	N int     `json:"n"`
	F float64 `json:"f"`
}

type shape struct {
	I  int       `json:"i"`
	I6 int64     `json:"i6"`
	F  float64   `json:"f"`
	FS []float64 `json:"fs"`
	S  string    `json:"s"`
	B  bool      `json:"b"`
	O  inner     `json:"o"`
	P  *inner    `json:"p"`
}

var innerMembers = Table[inner]{
	"n": func(s *Scanner, v *inner) { s.Int(&v.N) },
	"f": func(s *Scanner, v *inner) { s.Float(&v.F) },
}

var shapeMembers = Table[shape]{
	"i":  func(s *Scanner, v *shape) { s.Int(&v.I) },
	"i6": func(s *Scanner, v *shape) { s.Int64(&v.I6) },
	"f":  func(s *Scanner, v *shape) { s.Float(&v.F) },
	"fs": func(s *Scanner, v *shape) { s.Floats(&v.FS) },
	"s":  func(s *Scanner, v *shape) { s.String(&v.S) },
	"b":  func(s *Scanner, v *shape) { s.Bool(&v.B) },
	"o":  func(s *Scanner, v *shape) { Object(s, &v.O, innerMembers) },
	"p":  func(s *Scanner, v *shape) { Pointer(s, &v.P, innerMembers) },
}

// TestDecodeMatchesEncodingJSON holds Decode to a strict encoding/json
// Decoder, and to its whole-input rule, on the cases where a direct
// decoder is easiest to get wrong.
func TestDecodeMatchesEncodingJSON(t *testing.T) {
	for _, in := range []string{
		`{"i":1,"i6":-9223372036854775808,"f":-0,"fs":[1.5,2e3,-0.25E-2],"s":"x","b":true,"o":{"n":2},"p":{"f":3}}`,
		// Numbers: the JSON grammar, integers without a fraction or an
		// exponent, floats within range.
		`{"i":1.0}`, `{"i":1e2}`, `{"i":-0}`, `{"i":01}`, `{"i":-}`, `{"i":+1}`, `{"i":.5}`,
		`{"i6":9223372036854775808}`, `{"f":1e400}`, `{"f":-1e400}`, `{"f":1e-400}`, `{"f":1.}`,
		`{"f":1e}`, `{"f":1e+}`, `{"f":0x10}`, `{"f":Infinity}`, `{"f":"1"}`,
		// null leaves scalars and objects, and clears slices and pointers.
		`{"i":3,"i":null,"o":{"n":1},"o":null,"s":"a","s":null,"b":true,"b":null}`,
		`{"fs":[1],"fs":null,"p":{"n":1},"p":null}`,
		`{"fs":[]}`, `{"fs":[null]}`, `{"fs":[1,]}`, `{"fs":[,1]}`, `{"fs":[1 2]}`,
		// A repeated member decodes again in place: the last wins, an
		// object merges, and a slice keeps elements past its new length.
		`{"o":{"n":1},"o":{"f":2},"p":{"n":1},"p":{"f":2}}`,
		`{"fs":[1,2,3],"fs":[4],"fs":[5,null,null,null]}`,
		`{"fs":[1,2,3,4,5,6,7,8,9],"fs":[1],"fs":[null,null,null,null,null,null,null,null,null,null]}`,
		// Strings: escapes, surrogates, invalid UTF-8, control bytes.
		`{"s":"\u00e9\ud834\udd1e\"\\\/\b\f\n\r\t"}`, `{"s":"\ud800"}`, "{\"s\":\"\xff\xfe\"}",
		`{"s":"\x"}`, `{"s":"\u12"}`, "{\"s\":\"a\x01\"}", `{"s":"abc`, `{"s":1}`,
		// Member names: escaped names match, unknown names do not.
		`{"\u0069":5}`, `{"x":1}`, `{"i":1,}`, `{,}`, `{"i" 1}`, `{"i":1 "f":2}`,
		// Literals and the whole input.
		`{"b":false}`, `{"b":tru}`, `{"b":nul}`, `{"b":1}`, `{"b":true}x`,
		`null`, ` null `, `nullx`, `[]`, `"x"`, `1`, ``, ` `, `{}`, `{} {}`, "{}\n", `{}}`,
	} {
		var got, want shape
		err := Decode([]byte(in), &got, shapeMembers)
		dec := json.NewDecoder(bytes.NewReader([]byte(in)))
		dec.DisallowUnknownFields()
		werr := dec.Decode(&want)
		if werr == nil && len(bytes.TrimLeft([]byte(in)[dec.InputOffset():], " \t\r\n")) > 0 {
			werr = errors.New("trailing data")
		}
		switch {
		case (err == nil) != (werr == nil):
			t.Errorf("%s: jsonscan error %v, encoding/json error %v", in, err, werr)
		case err == nil && !reflect.DeepEqual(got, want):
			t.Errorf("%s:\njsonscan:      %+v\nencoding/json: %+v", in, got, want)
		}
	}
}

// TestDecodeExactCase checks the one deliberate difference from
// encoding/json: a member name in another case is unknown.
func TestDecodeExactCase(t *testing.T) {
	for _, in := range []string{`{"I":1}`, `{"o":{"N":1}}`, `{"FS":[]}`} {
		var v shape
		if err := Decode([]byte(in), &v, shapeMembers); err == nil {
			t.Errorf("%s: accepted", in)
		}
	}
}
