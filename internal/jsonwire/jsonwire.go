// Package jsonwire is the non-reflective JSON codec under the artifact
// file format: a Writer that appends values laid out exactly as
// encoding/json's Marshal (compact) or MarshalIndent(v, "", "  ") lays
// them out, and a single-pass Reader that accepts what encoding/json's
// Unmarshal accepts into a struct, less one thing.
//
// The Writer reproduces encoding/json's bytes: ES6-style float
// formatting ('f' unless the exponent is below -6 or at least 21, with
// "e-07" shortened to "e-7"), HTML-safe string escaping (<, >, & and
// U+2028/U+2029 escaped, control characters as \b \f \n \r \t or \u00XX,
// invalid UTF-8 as \ufffd), and empty containers as {} and [] even when
// indenting. Callers supply the field order, omitempty and null-vs-[]
// decisions themselves.
//
// The Reader validates the JSON grammar as it goes (numbers included,
// before strconv sees them), matches object keys exactly and then
// case-insensitively like encoding/json, skips unknown members after
// validating them, treats null as "leave the zero value", rejects floats
// and out-of-range values in integer fields, and enforces encoding/json's
// nesting limit. It is stricter in one respect: a member that appears
// twice in one object (after case folding) is an error, where
// encoding/json lets the last one win. Decoded strings and slices never
// alias the input; only IntsScratch's slice aliases the reader's own
// scratch. Errors are sticky: after the first, every read
// returns a zero value and Finish reports that error.
package jsonwire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// Writer appends JSON values to a buffer. Objects and arrays are written
// with Open, then Key (object members) or Next (array elements) before
// each value, then Close.
type Writer struct {
	buf    []byte
	indent bool
	depth  int
	// empty is true while the innermost open container has no members.
	empty bool
	err   error
}

// NewWriter returns a writer appending to buf: indented like
// json.MarshalIndent(v, "", "  ") when indent is set, compact like
// json.Marshal otherwise.
func NewWriter(buf []byte, indent bool) *Writer {
	return &Writer{buf: buf, indent: indent}
}

// Bytes returns the written bytes.
func (w *Writer) Bytes() []byte { return w.buf }

// Err returns the first value the writer could not encode.
func (w *Writer) Err() error { return w.err }

// Fail records err as the writer's error unless one is already set.
func (w *Writer) Fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Open starts an object ('{') or an array ('[').
func (w *Writer) Open(bracket byte) {
	w.buf = append(w.buf, bracket)
	w.depth++
	w.empty = true
}

// Close ends the innermost object ('}') or array (']').
func (w *Writer) Close(bracket byte) {
	w.depth--
	if !w.empty {
		w.buf = append(w.buf, w.separator()[1:]...)
	}
	w.buf = append(w.buf, bracket)
	w.empty = false
}

// Next starts the next array element.
func (w *Writer) Next() {
	sep := w.separator()
	if w.empty {
		sep = sep[1:]
	}
	w.buf = append(w.buf, sep...)
	w.empty = false
}

// Key starts the next object member.
func (w *Writer) Key(k string) {
	w.Next()
	w.buf = appendString(w.buf, k)
	if w.indent {
		w.buf = append(w.buf, ':', ' ')
	} else {
		w.buf = append(w.buf, ':')
	}
}

// separators is a comma, a newline and indentation for 32 levels.
const separators = ",\n                                                                "

// separator returns what precedes a member at the current depth after
// another member: a comma, then when indenting a newline and two spaces
// per level. Without its comma it is what precedes the first member and
// a closing bracket.
func (w *Writer) separator() string {
	switch n := 2 + 2*w.depth; {
	case !w.indent:
		return ","
	case n <= len(separators):
		return separators[:n]
	default:
		return ",\n" + strings.Repeat("  ", w.depth)
	}
}

// Null writes null.
func (w *Writer) Null() { w.buf = append(w.buf, "null"...) }

// Bool writes true or false.
func (w *Writer) Bool(v bool) { w.buf = strconv.AppendBool(w.buf, v) }

// Int writes a signed integer.
func (w *Writer) Int(v int64) { w.buf = strconv.AppendInt(w.buf, v, 10) }

// Uint writes an unsigned integer.
func (w *Writer) Uint(v uint64) { w.buf = strconv.AppendUint(w.buf, v, 10) }

// String writes a quoted, escaped string.
func (w *Writer) String(s string) { w.buf = appendString(w.buf, s) }

// Float writes a finite float64 the way encoding/json does. NaN and the
// infinities have no JSON form: they fail the writer.
func (w *Writer) Float(f float64) {
	if w.finite(f) {
		w.buf = appendFloat(w.buf, f)
	}
}

func (w *Writer) finite(f float64) bool {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		w.Fail(fmt.Errorf("jsonwire: unsupported value: %v", f))
		return false
	}
	return true
}

// appendFloat formats f as encoding/json does: 'f' format unless the
// exponent is below -6 or at least 21, with "e-07" shortened to "e-7".
func appendFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// Floats writes a float array; a nil slice is null.
func (w *Writer) Floats(xs []float64) {
	for _, x := range xs {
		if !w.finite(x) {
			return
		}
	}
	writeArray(w, xs, appendFloat)
}

// Ints writes an integer array; a nil slice is null.
func (w *Writer) Ints(xs []int64) { writeArray(w, xs, appendInt) }

// appendInt appends x in decimal. Stream bins are mostly single digits,
// mostly 0: those are one byte, the same byte strconv.AppendInt writes.
func appendInt(dst []byte, x int64) []byte {
	if 0 <= x && x <= 9 {
		return append(dst, byte('0'+x))
	}
	return strconv.AppendInt(dst, x, 10)
}

// Strings writes a string array; a nil slice is null.
func (w *Writer) Strings(xs []string) { writeArray(w, xs, appendString) }

// writeArray writes xs with appendElem, appending to a local slice and
// reusing one separator: the elements of stream arrays are most of an
// artifact's bytes.
func writeArray[T any](w *Writer, xs []T, appendElem func([]byte, T) []byte) {
	if xs == nil {
		w.Null()
		return
	}
	w.Open('[')
	if len(xs) > 0 {
		sep := w.separator()
		w.reserve(len(xs) * (len(sep) + 4))
		buf := append(w.buf, sep[1:]...)
		for i, x := range xs {
			if i > 0 {
				buf = append(buf, sep...)
			}
			buf = appendElem(buf, x)
		}
		w.buf, w.empty = buf, false
	}
	w.Close(']')
}

// reserve makes room for about n more bytes. A buffer that must grow at
// least doubles, so an encoding of hundreds of kilobytes is copied a few
// times rather than the dozens append's gentler growth of large slices
// would take.
func (w *Writer) reserve(n int) {
	if cap(w.buf)-len(w.buf) < n {
		w.buf = append(make([]byte, 0, 2*cap(w.buf)+n), w.buf...)
	}
}

const hexDigits = "0123456789abcdef"

// appendString is encoding/json's HTML-escaping string encoder.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i++
			start = i
			continue
		}
		if c == 0x2028 || c == 0x2029 { // LINE and PARAGRAPH SEPARATOR
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Reader decodes JSON from a byte slice in one pass.
type Reader struct {
	data  []byte
	pos   int
	depth int
	err   error
	// Scratch arrays reused across Floats/IntsScratch calls: Floats
	// allocates each decoded slice once at its exact length, and
	// IntsScratch hands out its scratch.
	floats []float64
	ints   []int64
}

// NewReader returns a reader over data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first error.
func (r *Reader) Err() error { return r.err }

// Fail records err as the reader's error unless one is already set.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) failf(format string, args ...any) {
	r.Fail(fmt.Errorf("jsonwire: offset %d: "+format, append([]any{r.pos}, args...)...))
}

// Finish checks that only whitespace follows the decoded value and
// returns the first error.
func (r *Reader) Finish() error {
	if r.err == nil {
		r.ws()
		if r.pos < len(r.data) {
			r.failf("invalid character %q after top-level value", r.data[r.pos])
		}
	}
	return r.err
}

func (r *Reader) ws() {
	d, i := r.data, r.pos
	for i < len(d) {
		switch d[i] {
		case ' ':
			// Indentation comes in runs of spaces: take them eight at a time.
			for i+8 <= len(d) && string(d[i:i+8]) == "        " {
				i += 8
			}
			for i < len(d) && d[i] == ' ' {
				i++
			}
		case '\n', '\t', '\r':
			i++
		default:
			r.pos = i
			return
		}
	}
	r.pos = i
}

// peek skips whitespace and returns the next byte. ok is false once the
// reader has failed, and at the end of input, which fails it.
func (r *Reader) peek() (c byte, ok bool) {
	if r.err != nil {
		return 0, false
	}
	r.ws()
	if r.pos >= len(r.data) {
		r.failf("unexpected end of input")
		return 0, false
	}
	return r.data[r.pos], true
}

// expect consumes the byte c after optional whitespace.
func (r *Reader) expect(c byte, context string) bool {
	got, ok := r.peek()
	if !ok {
		return false
	}
	if got != c {
		r.failf("invalid character %q %s", got, context)
		return false
	}
	r.pos++
	return true
}

func (r *Reader) literal(lit string) {
	if end := r.pos + len(lit); end > len(r.data) || string(r.data[r.pos:end]) != lit {
		r.failf("invalid literal, want %s", lit)
		return
	}
	r.pos += len(lit)
}

// Null consumes a null and reports whether there was one.
func (r *Reader) Null() bool {
	if c, ok := r.peek(); !ok || c != 'n' {
		return false
	}
	r.literal("null")
	return r.err == nil
}

// open enters a container opened by bracket. A null is consumed and
// yields false, as does any other value, which is a type error.
func (r *Reader) open(bracket byte, what string) bool {
	c, ok := r.peek()
	switch {
	case !ok:
	case c == bracket:
		r.pos++
		r.depth++
		if r.depth > maxDepth {
			r.failf("exceeded max depth %d", maxDepth)
			return false
		}
		return true
	case c == 'n':
		r.literal("null")
	default:
		r.typeError(c, what)
	}
	return false
}

// typeError fails the reader on a value that cannot decode into what,
// or on a byte that starts no value at all.
func (r *Reader) typeError(c byte, what string) {
	var kind string
	switch {
	case c == '{':
		kind = "object"
	case c == '[':
		kind = "array"
	case c == '"':
		kind = "string"
	case c == 't' || c == 'f':
		kind = "bool"
	case c == '-' || '0' <= c && c <= '9':
		kind = "number"
	default:
		r.failf("invalid character %q looking for beginning of value", c)
		return
	}
	r.failf("cannot decode %s into %s", kind, what)
}

// more advances past the separator after a container member and reports
// whether another member follows; first marks the position right after
// the opening bracket.
func (r *Reader) more(first bool, closing byte) bool {
	c, ok := r.peek()
	switch {
	case !ok:
		return false
	case c == closing:
		r.pos++
		r.depth--
		return false
	case first:
		return true
	case c == ',':
		r.pos++
		return true
	}
	r.failf("invalid character %q, want ',' or %q", c, closing)
	return false
}

// key reads an object member's name and the colon after it, returning
// the quoted name and whether it is plain (see scanString).
func (r *Reader) key() (quoted []byte, plain bool) {
	if c, ok := r.peek(); ok && c != '"' {
		r.failf("invalid character %q, want object key", c)
	}
	if r.err != nil {
		return nil, false
	}
	quoted, plain = r.scanString()
	if !r.expect(':', "after object key") {
		return nil, false
	}
	return quoted, plain
}

// Object decodes an object member by member. For a member whose key
// matches one of fields (exactly, or else case-insensitively) fn is
// called with that field name, positioned at the value, and must consume
// it; other members are validated and skipped. A field seen twice is an
// error. null is a no-op; any other non-object is an error.
func (r *Reader) Object(fields []string, fn func(field string)) {
	if len(fields) > 64 {
		panic("jsonwire: more than 64 fields")
	}
	if !r.open('{', "object") {
		return
	}
	var seen uint64
	for first := true; r.more(first, '}'); first = false {
		quoted, plain := r.key()
		if r.err != nil {
			return
		}
		i := r.matchField(fields, quoted, plain)
		if i < 0 {
			r.Skip()
			continue
		}
		if seen&(1<<i) != 0 {
			r.failf("duplicate field %q", fields[i])
			return
		}
		seen |= 1 << i
		fn(fields[i])
	}
}

// matchField returns the index of the field a quoted key names, or -1.
// Like encoding/json it prefers an exact match, then a case-insensitive
// one.
func (r *Reader) matchField(fields []string, quoted []byte, plain bool) int {
	if plain {
		for i, f := range fields {
			if string(quoted[1:len(quoted)-1]) == f {
				return i
			}
		}
	}
	if len(fields) == 0 {
		return -1
	}
	key := r.unquote(quoted, plain)
	for i, f := range fields {
		if strings.EqualFold(key, f) {
			return i
		}
	}
	return -1
}

// Map decodes an object with arbitrary keys, calling fn with each
// unescaped key positioned at its value, which fn must consume. null is
// a no-op.
func (r *Reader) Map(fn func(key string)) {
	if !r.open('{', "map") {
		return
	}
	for first := true; r.more(first, '}'); first = false {
		quoted, plain := r.key()
		if r.err != nil {
			return
		}
		fn(r.unquote(quoted, plain))
	}
}

// Array calls fn for each element of an array, positioned at the
// element, which fn must consume. null is a no-op.
func (r *Reader) Array(fn func()) {
	if !r.open('[', "array") {
		return
	}
	for first := true; r.more(first, ']'); first = false {
		fn()
	}
}

// Floats decodes a float array: nil for null, non-nil for [].
func (r *Reader) Floats() []float64 {
	if r.Null() {
		return nil
	}
	r.floats = r.floats[:0]
	r.Array(func() { r.floats = append(r.floats, r.Float()) })
	if r.err != nil {
		return nil
	}
	return append(make([]float64, 0, len(r.floats)), r.floats...)
}

// IntsScratch decodes an int64 array into the reader's scratch and
// returns it without copying: nil for null and on error, possibly nil
// for []. The slice is the caller's to read and modify until the next
// IntsScratch call on r, which reuses it; a caller that keeps the values
// past that copies them.
//
// Stream bins make up most of an artifact: thousands of small
// non-negative integers, one per indented line. A tight loop takes each
// element that is such a plain integer of at most 18 digits, after a
// comma and a whitespace run it matches in one compare against the
// previous run. Anything else (a sign, a fraction, an exponent, null, a
// 19th digit, a leading zero before a digit, whitespace other than
// spaces and newlines or before a comma, a missing element, the closing
// bracket) goes from that element's separator to the per-element path,
// more and Int64, so the inputs accepted, the values decoded, the depth
// accounting and the error messages are theirs.
func (r *Reader) IntsScratch() []int64 {
	if r.Null() {
		return nil
	}
	out := r.ints[:0]
	if r.open('[', "array") {
		d, i := r.data, r.pos
		var run []byte // the whitespace before the previous element
		for first := true; ; first = false {
			j := i
			if !first && j < len(d) && d[j] == ',' {
				j++
			}
			if first || j > i {
				w := j
				if hasRun(d[j:], run) {
					j += len(run)
				}
				for j < len(d) && (d[j] == ' ' || d[j] == '\n') {
					j++
				}
				run = d[w:j]
				var v int64
				e := j
				for e < len(d) && '0' <= d[e] && d[e] <= '9' {
					v = v*10 + int64(d[e]-'0')
					e++
				}
				if n := e - j; n > 0 && n <= 18 && (n == 1 || d[j] != '0') &&
					(e == len(d) || d[e] != '.' && d[e] != 'e' && d[e] != 'E') {
					out = append(out, v)
					i = e
					continue
				}
			}
			// The per-element path, from the separator on.
			r.pos = i
			if !r.more(first, ']') {
				break
			}
			out = append(out, r.Int64())
			if r.err != nil {
				break
			}
			i = r.pos
		}
	}
	r.ints = out
	if r.err != nil {
		return nil
	}
	return out
}

// hasRun reports whether b starts with run. An indentation run of 8 to
// 16 bytes, the bins' depth in an artifact, takes two word compares.
func hasRun(b, run []byte) bool {
	n := len(run)
	switch {
	case n > len(b):
		return false
	case 8 <= n && n <= 16:
		return binary.LittleEndian.Uint64(b) == binary.LittleEndian.Uint64(run) &&
			binary.LittleEndian.Uint64(b[n-8:]) == binary.LittleEndian.Uint64(run[n-8:])
	}
	return string(b[:n]) == string(run)
}

// Skip validates and discards one value.
func (r *Reader) Skip() {
	c, ok := r.peek()
	switch {
	case !ok:
	case c == '{':
		r.Object(nil, nil)
	case c == '[':
		r.Array(r.Skip)
	case c == '"':
		r.scanString()
	case c == 't':
		r.literal("true")
	case c == 'f':
		r.literal("false")
	case c == 'n':
		r.literal("null")
	default:
		r.number()
	}
}

// scanString validates the string at r.pos and returns its quoted
// bytes; plain reports that it has no escapes and is valid UTF-8, so the
// bytes between the quotes are its value.
func (r *Reader) scanString() (quoted []byte, plain bool) {
	d, start := r.data, r.pos
	escaped, ascii := false, true
	for i := start + 1; ; {
		if i >= len(d) {
			r.pos = i
			r.failf("unexpected end of input in string")
			return nil, false
		}
		switch c := d[i]; {
		case c == '"':
			r.pos = i + 1
			quoted = d[start:r.pos]
			return quoted, !escaped && (ascii || utf8.Valid(quoted))
		case c == '\\':
			escaped = true
			n := 2
			if i+1 < len(d) && d[i+1] == 'u' {
				n = 6
			}
			if i+n > len(d) || !validEscape(d[i+1:i+n]) {
				r.pos = i
				r.failf("invalid escape in string")
				return nil, false
			}
			i += n
		case c < 0x20:
			r.pos = i
			r.failf("invalid control character %q in string", c)
			return nil, false
		default:
			if c >= utf8.RuneSelf {
				ascii = false
			}
			i++
		}
	}
}

// validEscape reports whether esc (the bytes after a backslash: one
// byte, or u and four hex digits) is a JSON escape.
func validEscape(esc []byte) bool {
	if esc[0] != 'u' {
		return len(esc) == 1 && strings.IndexByte(`"\/bfnrt`, esc[0]) >= 0
	}
	for _, c := range esc[1:] {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
			return false
		}
	}
	return true
}

// unquote returns the value of a string scanString validated. Escapes
// and invalid UTF-8 go through encoding/json, which owns the surrogate
// and U+FFFD rules; the result never aliases the input.
func (r *Reader) unquote(quoted []byte, plain bool) string {
	if plain {
		return string(quoted[1 : len(quoted)-1])
	}
	var s string
	if err := json.Unmarshal(quoted, &s); err != nil {
		r.Fail(fmt.Errorf("jsonwire: string %s: %w", quoted, err))
	}
	return s
}

// String decodes a string; null decodes as "".
func (r *Reader) String() string {
	c, ok := r.peek()
	switch {
	case !ok:
		return ""
	case c == 'n':
		r.literal("null")
		return ""
	case c != '"':
		r.typeError(c, "string")
		return ""
	}
	quoted, plain := r.scanString()
	if r.err != nil {
		return ""
	}
	return r.unquote(quoted, plain)
}

// Bool decodes true or false; null decodes as false.
func (r *Reader) Bool() bool {
	c, ok := r.peek()
	switch {
	case !ok:
	case c == 't':
		r.literal("true")
		return r.err == nil
	case c == 'f':
		r.literal("false")
	case c == 'n':
		r.literal("null")
	default:
		r.typeError(c, "bool")
	}
	return false
}

// number scans a number per the JSON grammar and returns its bytes and
// whether it is an integer (no fraction or exponent).
func (r *Reader) number() (num []byte, integral bool) {
	d, i := r.data, r.pos
	digitsFrom := func(i int) int {
		for i < len(d) && '0' <= d[i] && d[i] <= '9' {
			i++
		}
		return i
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digitsFrom(i + 1)
	default:
		r.pos = i
		r.failf("invalid character in numeric literal")
		return nil, false
	}
	integral = true
	if i < len(d) && d[i] == '.' {
		integral = false
		if j := digitsFrom(i + 1); j > i+1 {
			i = j
		} else {
			r.pos = i + 1
			r.failf("invalid character after decimal point in numeric literal")
			return nil, false
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		integral = false
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if j := digitsFrom(i); j > i {
			i = j
		} else {
			r.pos = i
			r.failf("invalid character in numeric literal exponent")
			return nil, false
		}
	}
	num, r.pos = d[r.pos:i], i
	return num, integral
}

// numberFor reads the number a typed read expects. A null yields ok
// false and no error; a non-number is a type error.
func (r *Reader) numberFor(what string) (num []byte, integral, ok bool) {
	c, ok := r.peek()
	switch {
	case !ok:
	case c == '-' || '0' <= c && c <= '9':
		num, integral = r.number()
		return num, integral, r.err == nil
	case c == 'n':
		r.literal("null")
	default:
		r.typeError(c, what)
	}
	return nil, false, false
}

// digits returns the value of a decimal digit string of at most 18
// digits, which cannot overflow.
func digits(b []byte) uint64 {
	var v uint64
	for _, c := range b {
		v = v*10 + uint64(c-'0')
	}
	return v
}

// Int64 decodes an integer; null decodes as 0. A fraction, an exponent
// or a value outside int64 is an error.
func (r *Reader) Int64() int64 {
	num, integral, ok := r.numberFor("int64")
	switch {
	case !ok:
		return 0
	case !integral:
	case len(num) <= 18 && num[0] == '-':
		return -int64(digits(num[1:]))
	case len(num) <= 18:
		return int64(digits(num))
	default:
		if v, err := strconv.ParseInt(string(num), 10, 64); err == nil {
			return v
		}
	}
	r.failf("cannot decode number %s into int64", num)
	return 0
}

// Int decodes an integer into the platform int; see Int64.
func (r *Reader) Int() int {
	v := r.Int64()
	if v < math.MinInt || v > math.MaxInt {
		r.failf("number %d overflows int", v)
		return 0
	}
	return int(v)
}

// Uint64 decodes a non-negative integer; null decodes as 0. A sign, a
// fraction, an exponent or a value above MaxUint64 is an error.
func (r *Reader) Uint64() uint64 {
	num, integral, ok := r.numberFor("uint64")
	switch {
	case !ok:
		return 0
	case !integral || num[0] == '-':
	case len(num) <= 18:
		return digits(num)
	default:
		if v, err := strconv.ParseUint(string(num), 10, 64); err == nil {
			return v
		}
	}
	r.failf("cannot decode number %s into uint64", num)
	return 0
}

// Float decodes a float64; null decodes as 0. A value beyond the float64
// range is an error.
func (r *Reader) Float() float64 {
	num, integral, ok := r.numberFor("float64")
	switch {
	case !ok:
		return 0
	// Integers below 10^15 convert exactly; -0 keeps its sign.
	case integral && len(num) <= 15 && num[0] == '-':
		return -float64(digits(num[1:]))
	case integral && len(num) <= 15:
		return float64(digits(num))
	}
	v, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		r.failf("cannot decode number %s into float64", num)
		return 0
	}
	return v
}
