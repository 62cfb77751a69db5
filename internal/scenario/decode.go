package scenario

import (
	"bytes"
	"encoding/json"
	"strconv"
	"unicode/utf8"
)

// DecodeApp decodes one application spec (a POST /apps body) as the
// strict reflective decode does — encoding/json's Decoder with unknown
// fields disallowed, reading the first JSON value — and returns the same
// value or the same error for every input.
//
// A body in the canonical form json.Marshal writes for an AppSpec is
// decoded in one forward pass instead: exact field names, each at most
// once per object; strings without backslash escapes or control bytes,
// in valid UTF-8; JSON-grammar numbers, maxPaths an integer literal;
// no null; nothing but whitespace after the object. The first byte that
// leaves that form hands the whole body to the reflective decode, so
// the pass never has to reproduce an error.
func DecodeApp(data []byte) (AppSpec, error) {
	if spec, ok := decodeCanonical(data); ok {
		return spec, nil
	}
	var spec AppSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return AppSpec{}, err
	}
	return spec, nil
}

// decodeCanonical is DecodeApp's one-pass path; ok is false when data
// leaves the canonical form, whatever the reflective decode makes of it.
func decodeCanonical(data []byte) (spec AppSpec, ok bool) {
	w := wire{data: data}
	var seen uint8
	ok = w.object(func(key []byte) bool {
		switch string(key) {
		case "name":
			return first(&seen, 1) && w.str(&spec.Name)
		case "cts":
			return first(&seen, 2) && list(&w, &spec.CTs, w.ct)
		case "tts":
			return first(&seen, 4) && list(&w, &spec.TTs, w.tt)
		case "qos":
			return first(&seen, 8) && w.qos(&spec.QoS)
		}
		return false
	})
	if !ok {
		return AppSpec{}, false
	}
	w.space()
	return spec, w.pos == len(w.data)
}

// wire is a cursor over a canonical body.
type wire struct {
	data []byte
	pos  int
}

// ct, tt and qos read one object of their spec.
func (w *wire) ct(ct *CTSpec) bool {
	var seen uint8
	return w.object(func(key []byte) bool {
		switch string(key) {
		case "name":
			return first(&seen, 1) && w.str(&ct.Name)
		case "req":
			return first(&seen, 2) && w.req(&ct.Req)
		case "host":
			return first(&seen, 4) && w.str(&ct.Host)
		}
		return false
	})
}

// req reads a requirement map; {} is an empty map, not nil, as in the
// reflective decode, and a kind named twice keeps its last amount.
func (w *wire) req(dst *map[string]float64) bool {
	*dst = map[string]float64{}
	return w.object(func(kind []byte) bool {
		v, ok := w.float()
		(*dst)[string(kind)] = v
		return ok
	})
}

func (w *wire) tt(tt *TTSpec) bool {
	var seen uint8
	return w.object(func(key []byte) bool {
		switch string(key) {
		case "name":
			return first(&seen, 1) && w.str(&tt.Name)
		case "from":
			return first(&seen, 2) && w.str(&tt.From)
		case "to":
			return first(&seen, 4) && w.str(&tt.To)
		case "bits":
			return first(&seen, 8) && w.num(&tt.Bits)
		}
		return false
	})
}

func (w *wire) qos(q *QoSSpec) bool {
	var seen uint8
	return w.object(func(key []byte) bool {
		switch string(key) {
		case "class":
			return first(&seen, 1) && w.str(&q.Class)
		case "priority":
			return first(&seen, 2) && w.num(&q.Priority)
		case "availability":
			return first(&seen, 4) && w.num(&q.Availability)
		case "minRate":
			return first(&seen, 8) && w.num(&q.MinRate)
		case "minRateAvailability":
			return first(&seen, 16) && w.num(&q.MinRateAvailability)
		case "maxPaths":
			return first(&seen, 32) && w.integer(&q.MaxPaths)
		}
		return false
	})
}

// first marks bit in *seen and reports whether it was clear: a field an
// object names twice leaves the canonical form.
func first(seen *uint8, bit uint8) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

// object reads {"key": value, ...}; field is called with the cursor
// after each key's colon and must consume the value.
func (w *wire) object(field func(key []byte) bool) bool {
	if !w.expect('{') {
		return false
	}
	if w.space(); w.pos < len(w.data) && w.data[w.pos] == '}' {
		w.pos++
		return true
	}
	for {
		key, ok := w.key()
		if !ok || !w.expect(':') || !field(key) {
			return false
		}
		if !w.expect(',') {
			return w.expect('}')
		}
	}
}

// list reads [value, ...] into a fresh *dst (an empty list is an empty
// slice, not nil, as in the reflective decode); elem reads one element.
func list[T any](w *wire, dst *[]T, elem func(*T) bool) bool {
	*dst = make([]T, 0, 4)
	if !w.expect('[') {
		return false
	}
	if w.space(); w.pos < len(w.data) && w.data[w.pos] == ']' {
		w.pos++
		return true
	}
	for {
		var zero T
		*dst = append(*dst, zero)
		if !elem(&(*dst)[len(*dst)-1]) {
			return false
		}
		if !w.expect(',') {
			return w.expect(']')
		}
	}
}

// space skips JSON whitespace.
func (w *wire) space() {
	for w.pos < len(w.data) {
		switch w.data[w.pos] {
		case ' ', '\t', '\n', '\r':
			w.pos++
		default:
			return
		}
	}
}

// expect consumes c after optional whitespace.
func (w *wire) expect(c byte) bool {
	w.space()
	if w.pos < len(w.data) && w.data[w.pos] == c {
		w.pos++
		return true
	}
	return false
}

// key reads a string's bytes in place. A backslash escape, a control
// byte or invalid UTF-8 (which encoding/json replaces with U+FFFD)
// leaves the canonical form.
func (w *wire) key() ([]byte, bool) {
	if !w.expect('"') {
		return nil, false
	}
	start, ascii := w.pos, true
	for ; w.pos < len(w.data); w.pos++ {
		switch c := w.data[w.pos]; {
		case c == '"':
			s := w.data[start:w.pos]
			w.pos++
			return s, ascii || utf8.Valid(s)
		case c == '\\' || c < ' ':
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// str reads a string into *dst, copied out of the body.
func (w *wire) str(dst *string) bool {
	s, ok := w.key()
	*dst = string(s)
	return ok
}

// num reads a number into *dst.
func (w *wire) num(dst *float64) bool {
	v, ok := w.float()
	*dst = v
	return ok
}

// float reads a number as encoding/json decodes one into a float64.
func (w *wire) float() (float64, bool) {
	lit, ok := w.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	return v, err == nil
}

// integer reads a number into *dst as encoding/json decodes one into an
// int: a fraction, an exponent or an overflow leaves the canonical form.
func (w *wire) integer(dst *int) bool {
	lit, ok := w.number()
	n, err := strconv.ParseInt(string(lit), 10, 64)
	*dst = int(n)
	return ok && err == nil && int64(*dst) == n
}

// number reads one literal of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its bytes.
func (w *wire) number() ([]byte, bool) {
	w.space()
	start := w.pos
	if w.pos < len(w.data) && w.data[w.pos] == '-' {
		w.pos++
	}
	switch {
	case w.pos < len(w.data) && w.data[w.pos] == '0':
		w.pos++
	case w.digits() == 0:
		return nil, false
	}
	if w.pos < len(w.data) && w.data[w.pos] == '.' {
		w.pos++
		if w.digits() == 0 {
			return nil, false
		}
	}
	if w.pos < len(w.data) && (w.data[w.pos] == 'e' || w.data[w.pos] == 'E') {
		w.pos++
		if w.pos < len(w.data) && (w.data[w.pos] == '+' || w.data[w.pos] == '-') {
			w.pos++
		}
		if w.digits() == 0 {
			return nil, false
		}
	}
	return w.data[start:w.pos], true
}

// digits skips a run of decimal digits and returns its length.
func (w *wire) digits() int {
	start := w.pos
	for w.pos < len(w.data) && '0' <= w.data[w.pos] && w.data[w.pos] <= '9' {
		w.pos++
	}
	return w.pos - start
}
