package ingest

import (
	"math"
	"strconv"
	"sync"
	"unicode/utf8"
)

// jsonw appends one response body as indented JSON, byte for byte what
// json.MarshalIndent(v, "", "  ") writes for the value v the same calls
// describe, with no reflection and no map of values. The caller writes
// an object's members in the order encoding/json would: sorted by key
// for a map, in field order for a struct (diag.Finding).
type jsonw struct {
	buf   []byte
	depth int
	empty bool   // the innermost open container has no member yet
	bad   bool   // a NaN or an infinity was written, which JSON cannot hold
	tmp   []byte // text built before it is escaped in (a pattern's description)
}

// bodies holds body writers done with, so that a response reuses the
// buffers an earlier one grew.
var bodies = sync.Pool{New: func() any { return new(jsonw) }}

// newJSON returns an empty body writer; writeJSON returns it to bodies.
func newJSON() *jsonw { return bodies.Get().(*jsonw) }

// release empties j and returns it to bodies.
func (j *jsonw) release() {
	*j = jsonw{buf: j.buf[:0], tmp: j.tmp[:0]}
	bodies.Put(j)
}

func (j *jsonw) beginObject() { j.begin('{') }
func (j *jsonw) endObject()   { j.end('}') }
func (j *jsonw) beginArray()  { j.begin('[') }
func (j *jsonw) endArray()    { j.end(']') }

func (j *jsonw) begin(c byte) {
	j.buf = append(j.buf, c)
	j.depth++
	j.empty = true
}

// end closes a container; an empty one closes on its opening line, as
// "{}" or "[]".
func (j *jsonw) end(c byte) {
	j.depth--
	if !j.empty {
		j.newline()
	}
	j.buf = append(j.buf, c)
	j.empty = false
}

func (j *jsonw) newline() {
	j.buf = append(j.buf, '\n')
	for range j.depth {
		j.buf = append(j.buf, "  "...)
	}
}

// elem starts an array element: the comma after the one before, then a
// new indented line.
func (j *jsonw) elem() {
	if !j.empty {
		j.buf = append(j.buf, ',')
	}
	j.empty = false
	j.newline()
}

// key starts an object member.
func (j *jsonw) key(k string) {
	j.elem()
	j.buf = appendJSONString(j.buf, k)
	j.buf = append(j.buf, ": "...)
}

func (j *jsonw) int(v int64)                  { j.buf = strconv.AppendInt(j.buf, v, 10) }
func (j *jsonw) string(s string)              { j.buf = appendJSONString(j.buf, s) }
func (j *jsonw) intKey(k string, v int64)     { j.key(k); j.int(v) }
func (j *jsonw) stringKey(k, v string)        { j.key(k); j.string(v) }
func (j *jsonw) floatKey(k string, v float64) { j.key(k); j.float(v) }

// stringsKey writes a string set; an empty one is null, as encoding/json
// writes a nil slice.
func (j *jsonw) stringsKey(k string, ss []string) {
	j.key(k)
	if len(ss) == 0 {
		j.buf = append(j.buf, "null"...)
		return
	}
	j.beginArray()
	for _, s := range ss {
		j.elem()
		j.string(s)
	}
	j.endArray()
}

func (j *jsonw) float(v float64) {
	j.bad = j.bad || !finite(v)
	j.buf = appendJSONFloat(j.buf, v)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// appendJSONFloat appends v as encoding/json writes a float64: the
// shortest representation that round-trips, in exponent form below 1e-6
// and from 1e21 up, with the exponent's leading zero dropped ("1e-07"
// becomes "1e-7"). A NaN or an infinity, which encoding/json refuses, is
// appended as strconv writes it; the caller checks finite.
func appendJSONFloat(buf []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, v, format, -1, 64)
	if format == 'e' {
		if n := len(buf); n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
	}
	return buf
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s quoted as encoding/json writes a string
// with HTML escaping on (its default): '"' and '\' and the control bytes
// escaped, '<', '>' and '&' as \u003c, \u003e and \u0026, every
// invalid UTF-8 byte as \ufffd, and U+2028 and U+2029 as \u2028 and
// \u2029.
func appendJSONString[S ~string | ~[]byte](buf []byte, s S) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch c {
			case '"', '\\':
				buf = append(buf, '\\', c)
			case '\b':
				buf = append(buf, `\b`...)
			case '\f':
				buf = append(buf, `\f`...)
			case '\n':
				buf = append(buf, `\n`...)
			case '\r':
				buf = append(buf, `\r`...)
			case '\t':
				buf = append(buf, `\t`...)
			default:
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		if r == utf8.RuneError && size == 1 {
			buf = append(buf, s[start:i]...)
			buf = append(buf, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}
