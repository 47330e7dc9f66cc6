package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// bodyHint bounds what a request reserves from a count it has not yet
// verified: a declared Content-Length sizes the body buffer, and the
// commas of a float array size its slice, each only up to 1 MiB. Past
// that the buffers grow with the bytes and numbers that actually
// arrive, so a forged header or a body of bare commas cannot make the
// server reserve memory up front.
const bodyHint = 1 << 20

// readBody reads a request body, capped at limit bytes, into a buffer
// owned by the request.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	var hint int64
	if r.ContentLength > 0 {
		hint = min(r.ContentLength, bodyHint)
	}
	// MinRead bytes of slack let ReadFrom see EOF without regrowing a
	// buffer that an honest Content-Length filled exactly.
	buf := bytes.NewBuffer(make([]byte, 0, hint+bytes.MinRead))
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return buf.Bytes(), err
}

// errNullElement refuses a null inside a float array. encoding/json
// would read it as 0, and JSON.stringify writes NaN and ±Inf as null, so
// a client's non-finite input would become a wrong answer or a silently
// changed matrix.
var errNullElement = errors.New("null is not a number (JSON encoders write NaN and ±Inf as null)")

// decodeSolve decodes a /v1/solve body. The server and the router both
// call it, so a body one accepts the other accepts too.
func decodeSolve(body []byte) (SolveRequest, error) {
	var req SolveRequest
	err := decodeFloatBody(body, "b", &req, &req.B)
	return req, err
}

// decodeFloatBody decodes body into v as
// json.NewDecoder(bytes.NewReader(body)).Decode(v) would, bytes after
// the top-level value ignored, but without reflection over the bulk of
// the body: the member whose key matches field (exactly or under
// bytes.EqualFold, encoding/json's rule) is v's float array *floats, and
// its numbers are checked against the JSON grammar and parsed with
// strconv.ParseFloat, the conversion encoding/json makes. Every other
// member is copied verbatim into a side object that json.Unmarshal
// decodes into v, so key folding, string escapes, type errors, nulls and
// duplicate keys (the last wins) keep encoding/json's rules. No other
// field of v may have a name that folds to field. The one difference
// from encoding/json is that a null element is refused with
// errNullElement. Nothing decoded aliases body.
func decodeFloatBody(body []byte, field string, v any, floats *[]float64) error {
	d := scanner{buf: body}
	d.skipSpace()
	if !d.eat('{') {
		// A top-level non-object (null, an array, nothing at all) has no
		// member to scan: encoding/json decides it alone.
		return json.NewDecoder(bytes.NewReader(body)).Decode(v)
	}
	side := []byte{'{'}
	d.skipSpace()
	if d.eat('}') {
		return nil
	}
	for {
		d.skipSpace()
		raw, err := d.str()
		if err != nil {
			return err
		}
		key := raw[1 : len(raw)-1]
		if bytes.IndexByte(key, '\\') >= 0 {
			var s string
			if err := json.Unmarshal(raw, &s); err != nil {
				return err
			}
			key = []byte(s)
		}
		d.skipSpace()
		if !d.eat(':') {
			return d.syntax("after object key")
		}
		d.skipSpace()
		if bytes.EqualFold(key, []byte(field)) {
			f, err := d.floats(field)
			if err != nil {
				return err
			}
			*floats = f
		} else {
			val, err := d.value()
			if err != nil {
				return err
			}
			if len(side) > 1 {
				side = append(side, ',')
			}
			side = append(append(append(side, raw...), ':'), val...)
		}
		d.skipSpace()
		if d.eat('}') {
			break
		}
		if !d.eat(',') {
			return d.syntax("after object member")
		}
	}
	return json.Unmarshal(append(side, '}'), v)
}

// scanner walks a JSON body by byte offset.
type scanner struct {
	buf []byte
	pos int
}

func (d *scanner) skipSpace() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// eat consumes c if it is the next byte.
func (d *scanner) eat(c byte) bool {
	if d.pos < len(d.buf) && d.buf[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// eatNull consumes the literal null if it comes next.
func (d *scanner) eatNull() bool {
	if bytes.HasPrefix(d.buf[d.pos:], []byte("null")) {
		d.pos += 4
		return true
	}
	return false
}

// syntax reports malformed JSON at the scanner's offset.
func (d *scanner) syntax(where string) error {
	if d.pos >= len(d.buf) {
		return errors.New("serve: unexpected end of JSON input")
	}
	return fmt.Errorf("serve: invalid character %q %s at offset %d", d.buf[d.pos], where, d.pos)
}

// str consumes a string and returns it quoted. It only finds the closing
// quote; whoever decodes the string checks its escapes and characters.
func (d *scanner) str() ([]byte, error) {
	start := d.pos
	if !d.eat('"') {
		return nil, d.syntax("looking for the beginning of a string")
	}
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case '\\':
			d.pos += 2
		case '"':
			d.pos++
			return d.buf[start:d.pos], nil
		default:
			d.pos++
		}
	}
	d.pos = len(d.buf)
	return nil, d.syntax("in a string")
}

// value consumes one member value and returns its bytes. Like str it
// only finds where the value ends, by bracket depth outside strings:
// json.Unmarshal checks the bytes when it decodes the side object, and
// a value that is not valid JSON cannot make that object valid.
func (d *scanner) value() ([]byte, error) {
	start := d.pos
	if d.pos >= len(d.buf) {
		return nil, d.syntax("looking for the beginning of a value")
	}
	switch d.buf[d.pos] {
	case '"':
		return d.str()
	case '{', '[':
		for depth := 0; d.pos < len(d.buf); {
			switch d.buf[d.pos] {
			case '"':
				if _, err := d.str(); err != nil {
					return nil, err
				}
				continue
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					d.pos++
					return d.buf[start:d.pos], nil
				}
			}
			d.pos++
		}
		return nil, d.syntax("in a value")
	}
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r', ',', '}', ']':
			if d.pos == start {
				return nil, d.syntax("looking for the beginning of a value")
			}
			return d.buf[start:d.pos], nil
		}
		d.pos++
	}
	return d.buf[start:d.pos], nil
}

// floats parses the float array member's value: null, which decodes to
// a nil slice, or an array of JSON numbers, which decodes to a fresh
// non-nil slice.
func (d *scanner) floats(field string) ([]float64, error) {
	if d.eatNull() {
		return nil, nil
	}
	if !d.eat('[') {
		return nil, fmt.Errorf("serve: %s is not an array of numbers", field)
	}
	// Size the slice from the commas before the first ']', which is exact
	// for a valid array, but trust the count only up to bodyHint.
	n := 1
	if end := bytes.IndexByte(d.buf[d.pos:], ']'); end >= 0 {
		n += bytes.Count(d.buf[d.pos:d.pos+end], []byte{','})
	}
	out := make([]float64, 0, min(n, bodyHint/8))
	d.skipSpace()
	if d.eat(']') {
		return out, nil
	}
	for i := 0; ; i++ {
		d.skipSpace()
		start := d.pos
		if d.eatNull() {
			return nil, fmt.Errorf("serve: %s[%d]: %w", field, i, errNullElement)
		}
		if !d.number() {
			return nil, fmt.Errorf("serve: %s[%d] is not a JSON number", field, i)
		}
		f, err := strconv.ParseFloat(string(d.buf[start:d.pos]), 64)
		if err != nil {
			return nil, fmt.Errorf("serve: %s[%d]: %w", field, i, err)
		}
		out = append(out, f)
		d.skipSpace()
		if d.eat(']') {
			return out, nil
		}
		if !d.eat(',') {
			return nil, d.syntax("after array element")
		}
	}
}

// number consumes one number of the JSON grammar (RFC 8259 §6):
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. strconv.ParseFloat
// alone would also take forms JSON does not have, such as +1, .5, 1.,
// 01, 0x1p0 and Infinity.
func (d *scanner) number() bool {
	b, i := d.buf, d.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if j := digits(b, i); j > i {
			i = j
		} else {
			return false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j := digits(b, i); j > i {
			i = j
		} else {
			return false
		}
	}
	d.pos = i
	return true
}

// digits returns the offset of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
