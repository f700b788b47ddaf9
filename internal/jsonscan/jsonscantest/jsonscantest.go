// Package jsonscantest holds test helpers for differential tests of the
// jsonscan decoders against encoding/json.
package jsonscantest

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
)

// WrongCase reports whether data holds an object member whose name is
// one of the JSON member names of v's type, or of a type nested in it,
// in another case. encoding/json folds such a name onto the member, and
// jsonscan refuses it: it is the one input the two decode differently.
// It reads data as far as it is valid JSON.
func WrongCase(data []byte, v any) bool {
	names := map[string]bool{}
	addNames(reflect.TypeOf(v), names, map[reflect.Type]bool{})
	dec := json.NewDecoder(bytes.NewReader(data))
	var inObject []bool // per open container: is it an object?
	key := false        // the next token in this object is a member name
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		if name, ok := tok.(string); ok && key {
			if !names[name] {
				for n := range names {
					if strings.EqualFold(name, n) {
						return true
					}
				}
			}
			key = false
			continue
		}
		switch tok {
		case json.Delim('{'), json.Delim('['):
			inObject = append(inObject, tok == json.Delim('{'))
			key = tok == json.Delim('{')
			continue
		case json.Delim('}'), json.Delim(']'):
			inObject = inObject[:len(inObject)-1]
		}
		// A value ended; in an object, a member name comes next.
		key = len(inObject) > 0 && inObject[len(inObject)-1]
	}
}

// addNames adds the JSON member names of t's struct fields, and of the
// structs they hold, to names.
func addNames(t reflect.Type, names map[string]bool, seen map[reflect.Type]bool) {
	for t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice {
		t = t.Elem()
	}
	if t.Kind() != reflect.Struct || seen[t] {
		return
	}
	seen[t] = true
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "-" {
			continue
		}
		if name == "" && !f.Anonymous {
			name = f.Name
		}
		if name != "" {
			names[name] = true
		}
		addNames(f.Type, names, seen)
	}
}
