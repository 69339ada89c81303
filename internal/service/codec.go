package service

// The hand-written JSON codec for the four messages on the per-task path:
// SubmitRequest, SubmitResponse, AwaitRequest and AwaitResponse. It is the
// only encoder and decoder these types have — the server's handlers and
// the client call appendJSON/parseJSON on pooled buffers, and
// MarshalJSON/UnmarshalJSON hand every encoding/json caller to the same
// code — and it speaks the schema the struct tags in wire.go declare,
// nothing else.
//
// Emitted bytes are what json.Marshal produced for these types: field
// order, omitempty, null for a nil slice, HTML-safe string escaping.
//
// The accepted language is encoding/json's: RFC 8259 with any whitespace
// and key order, unknown keys skipped whatever their value, a repeated
// scalar key's last value winning, null leaving a field at its zero value,
// \uXXXX escapes with surrogate pairs, invalid UTF-8 coerced to U+FFFD,
// integers rejected when they carry a fraction, an exponent, a sign on an
// unsigned field or do not fit, nesting capped at 10000. It differs in
// three places, all stricter or plainer than the standard library:
//
//   - keys match case-sensitively; "Tasks" is an unknown key;
//   - anything but whitespace after the top-level value is an error
//     (json.Decoder left it unread);
//   - a repeated "tasks" or "params" key replaces the earlier array
//     (encoding/json decoded the later elements over the earlier ones,
//     field by field).
//
// The decoder reads the compact form appendJSON emits — the bytes every
// server and client here sends — on a fast path beside the grammar: a Param,
// a TaskStatus or an element of an id array in exactly the encoder's layout
// is matched key by key with one literal compare each, its integers
// accumulated as their digits are scanned, its strings read as plain ASCII up
// to the closing quote. Anything else — whitespace, another key order, a
// repeated key or one the layout lacks, an escape, a control or non-ASCII
// byte, a leading zero, a 20th digit, a fraction, an exponent, a value wider
// than its field — leaves the cursor on the value's first byte for the
// grammar, so the fast path only ever accepts what the grammar would decode
// to the same value. A task's object that opens with its params key takes
// the brace and the key in one compare, the rest through the grammar.

import (
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// wireEncoder and wireDecoder are the codec's two entry points, which the
// four per-task messages have and the cold ones do not.
type (
	wireEncoder interface{ appendJSON(dst []byte) []byte }
	wireDecoder interface{ parseJSON(src []byte) error }
)

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// --- encoding ----------------------------------------------------------------

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string literal with encoding/json's
// default (HTML-safe) escaping.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
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
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendUints appends ids as a JSON array, null when the slice is nil.
func appendUints(dst []byte, ids []uint64) []byte {
	if ids == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, id := range ids {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, id, 10)
	}
	return append(dst, ']')
}

func (p Param) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"addr":`...)
	dst = strconv.AppendUint(dst, p.Addr, 10)
	if p.Size != 0 {
		dst = append(dst, `,"size":`...)
		dst = strconv.AppendUint(dst, uint64(p.Size), 10)
	}
	dst = append(dst, `,"mode":`...)
	dst = appendString(dst, p.Mode)
	return append(dst, '}')
}

func (ts TaskSpec) appendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	if ts.Name != "" {
		dst = append(dst, `"name":`...)
		dst = appendString(dst, ts.Name)
		dst = append(dst, ',')
	}
	dst = append(dst, `"params":`...)
	if ts.Params == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, p := range ts.Params {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = p.appendJSON(dst)
		}
		dst = append(dst, ']')
	}
	if ts.ExecUS != 0 {
		dst = append(dst, `,"exec_us":`...)
		dst = strconv.AppendInt(dst, ts.ExecUS, 10)
	}
	if ts.TimeoutMS != 0 {
		dst = append(dst, `,"timeout_ms":`...)
		dst = strconv.AppendInt(dst, ts.TimeoutMS, 10)
	}
	if ts.MaxRetries != 0 {
		dst = append(dst, `,"max_retries":`...)
		dst = strconv.AppendInt(dst, int64(ts.MaxRetries), 10)
	}
	return append(dst, '}')
}

func (r SubmitRequest) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"tasks":`...)
	if r.Tasks == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range r.Tasks {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = r.Tasks[i].appendJSON(dst)
		}
		dst = append(dst, ']')
	}
	if r.IdempotencyKey != "" {
		dst = append(dst, `,"idempotency_key":`...)
		dst = appendString(dst, r.IdempotencyKey)
	}
	return append(dst, '}')
}

func (r SubmitResponse) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"ids":`...)
	dst = appendUints(dst, r.IDs)
	if r.Deduped {
		dst = append(dst, `,"deduped":true`...)
	}
	return append(dst, '}')
}

func (r AwaitRequest) appendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	if len(r.IDs) > 0 {
		dst = append(dst, `"ids":`...)
		dst = appendUints(dst, r.IDs)
	}
	if r.TimeoutMS != 0 {
		if len(r.IDs) > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `"timeout_ms":`...)
		dst = strconv.AppendInt(dst, r.TimeoutMS, 10)
	}
	return append(dst, '}')
}

func (r AwaitResponse) appendJSON(dst []byte) []byte {
	if r.Done {
		dst = append(dst, `{"done":true,"tasks":`...)
	} else {
		dst = append(dst, `{"done":false,"tasks":`...)
	}
	if r.Tasks == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range r.Tasks {
			st := &r.Tasks[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"id":`...)
			dst = strconv.AppendUint(dst, st.ID, 10)
			dst = append(dst, `,"state":`...)
			dst = appendString(dst, st.State)
			if st.Error != "" {
				dst = append(dst, `,"error":`...)
				dst = appendString(dst, st.Error)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// The encoding/json entry points. The size hints are a typical message's,
// so json.Marshal costs one buffer rather than a doubling series of them.

func (r SubmitRequest) MarshalJSON() ([]byte, error) {
	return r.appendJSON(make([]byte, 0, 64+128*len(r.Tasks))), nil
}
func (r SubmitResponse) MarshalJSON() ([]byte, error) {
	return r.appendJSON(make([]byte, 0, 32+8*len(r.IDs))), nil
}
func (r AwaitRequest) MarshalJSON() ([]byte, error) {
	return r.appendJSON(make([]byte, 0, 32+8*len(r.IDs))), nil
}
func (r AwaitResponse) MarshalJSON() ([]byte, error) {
	return r.appendJSON(make([]byte, 0, 32+32*len(r.Tasks))), nil
}

func (r *SubmitRequest) UnmarshalJSON(b []byte) error  { return r.parseJSON(b) }
func (r *SubmitResponse) UnmarshalJSON(b []byte) error { return r.parseJSON(b) }
func (r *AwaitRequest) UnmarshalJSON(b []byte) error   { return r.parseJSON(b) }
func (r *AwaitResponse) UnmarshalJSON(b []byte) error  { return r.parseJSON(b) }

// --- decoding ----------------------------------------------------------------

func (r *SubmitRequest) parseJSON(src []byte) error {
	var d decoder
	return d.decodeSubmit(src, r)
}

func (r *SubmitResponse) parseJSON(src []byte) error {
	d := decoder{src: src}
	return d.document(d.submitResponse(r))
}

func (r *AwaitRequest) parseJSON(src []byte) error {
	d := decoder{src: src}
	return d.document(d.awaitRequest(r))
}

func (r *AwaitResponse) parseJSON(src []byte) error {
	d := decoder{src: src}
	return d.document(d.awaitResponse(r))
}

// decoder is a cursor over one JSON document. Decoded strings are copies
// (or interned constants), never views of src, so src may be a pooled
// buffer; decoded slices reuse the capacity their destination already has.
type decoder struct {
	src   []byte
	pos   int
	depth int
	// params is the slab every TaskSpec.Params of one SubmitRequest is
	// carved from. A decoder that lives across requests (the server's
	// pooled scratch) reuses it; the params of the previous request die
	// with the next decodeSubmit call.
	params []Param
}

// decodeSubmit is SubmitRequest.parseJSON on a decoder the caller keeps,
// reusing r.Tasks' capacity and the decoder's params slab.
func (d *decoder) decodeSubmit(src []byte, r *SubmitRequest) error {
	d.src, d.pos, d.depth = src, 0, 0
	err := d.document(d.submitRequest(r))
	d.src = nil
	return err
}

// syntaxError is any reason a document is rejected: malformed JSON or a
// value of the wrong type for its field.
type syntaxError struct {
	off int
	msg string
}

func (e *syntaxError) Error() string { return "offset " + strconv.Itoa(e.off) + ": " + e.msg }

func (d *decoder) fail(msg string) error { return &syntaxError{off: d.pos, msg: msg} }

// peek skips whitespace and returns the byte at the cursor, 0 at the end
// of input (a NUL is not valid anywhere peek is used, so 0 never matches).
func (d *decoder) peek() byte {
	if d.pos < len(d.src) && d.src[d.pos] > ' ' {
		return d.src[d.pos] // no whitespace to skip: the compact encoding
	}
	return d.peekSlow()
}

func (d *decoder) peekSlow() byte {
	for d.pos < len(d.src) {
		switch c := d.src[d.pos]; c {
		case ' ', '\t', '\r', '\n':
			d.pos++
		default:
			return c
		}
	}
	return 0
}

// document finishes a top-level value: only whitespace may follow it.
func (d *decoder) document(err error) error {
	if err != nil {
		return err
	}
	if d.peek(); d.pos < len(d.src) {
		return d.fail("invalid character after top-level value")
	}
	return nil
}

func (d *decoder) literal(lit string) error {
	if len(d.src)-d.pos < len(lit) || string(d.src[d.pos:d.pos+len(lit)]) != lit {
		return d.fail("invalid literal, want " + lit)
	}
	d.pos += len(lit)
	return nil
}

// open consumes the opening bracket of an object or array, or the null
// that may stand in its place.
func (d *decoder) open(bracket byte) (null bool, err error) {
	switch d.peek() {
	case bracket:
		d.pos++
		if d.depth++; d.depth > maxDepth {
			return false, d.fail("exceeded max depth")
		}
		return false, nil
	case 'n':
		return true, d.literal("null")
	}
	return false, d.fail("want " + string(bracket) + " or null")
}

// key consumes up to and including the colon of the next member of the
// object being decoded and returns the member's name, or reports done at
// the closing brace. first is true for the first call after open.
func (d *decoder) key(first bool) (name []byte, done bool, err error) {
	c := d.peek()
	if c == '}' {
		d.pos++
		d.depth--
		return nil, true, nil
	}
	if !first {
		if c != ',' {
			return nil, false, d.fail("want , or } after object member")
		}
		d.pos++
		c = d.peek()
	}
	if c != '"' {
		return nil, false, d.fail("want object key")
	}
	name, plain, err := d.scanString()
	if err != nil {
		return nil, false, err
	}
	if !plain {
		name = unquote(name)
	}
	if d.peek() != ':' {
		return nil, false, d.fail("want : after object key")
	}
	d.pos++
	return name, false, nil
}

// elem moves to the next element of the array being decoded, or reports
// done at the closing bracket. Every value parser rejects a ']', so a
// trailing comma fails there.
func (d *decoder) elem(first bool) (done bool, err error) {
	c := d.peek()
	if c == ']' {
		d.pos++
		d.depth--
		return true, nil
	}
	if first {
		return false, nil
	}
	if c != ',' {
		return false, d.fail("want , or ] after array element")
	}
	d.pos++
	return false, nil
}

// object decodes the object at the cursor, or the null that may stand in
// its place, calling member for each key with the cursor on its value.
func (d *decoder) object(member func(key []byte) error) error {
	null, err := d.open('{')
	if err != nil || null {
		return err
	}
	return d.members(true, member)
}

// members decodes the rest of an object whose brace open has consumed;
// first is true while none of its members has been read.
func (d *decoder) members(first bool, member func(key []byte) error) error {
	for ; ; first = false {
		key, done, err := d.key(first)
		if err != nil || done {
			return err
		}
		if err := member(key); err != nil {
			return err
		}
	}
}

// elems decodes the rest of an array whose bracket open has consumed,
// calling element with the cursor on each one.
func (d *decoder) elems(element func() error) error {
	for first := true; ; first = false {
		done, err := d.elem(first)
		if err != nil || done {
			return err
		}
		if err := element(); err != nil {
			return err
		}
	}
}

// scanString consumes the string literal at the cursor, validating it,
// and returns the bytes between the quotes. plain reports that they are
// printable ASCII without escapes, i.e. already the string's value.
func (d *decoder) scanString() (raw []byte, plain bool, err error) {
	src, start := d.src, d.pos+1
	plain = true
	for i := start; i < len(src); i++ {
		for i < len(src) && plainChar[src[i]] {
			i++
		}
		if i == len(src) {
			break
		}
		switch c := src[i]; {
		case c == '"':
			d.pos = i + 1
			return src[start:i], plain, nil
		case c == '\\':
			plain = false
			i++
			if i >= len(src) {
				break
			}
			switch src[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if getu4(src[i-1:]) < 0 {
					d.pos = i
					return nil, false, d.fail("invalid \\u escape")
				}
				i += 4
			default:
				d.pos = i
				return nil, false, d.fail("invalid escape in string")
			}
		case c < ' ':
			d.pos = i
			return nil, false, d.fail("control character in string")
		default: // not ASCII: unquote checks it is UTF-8
			plain = false
		}
	}
	d.pos = len(src)
	return nil, false, d.fail("unterminated string")
}

// plainChar marks the bytes that stand for themselves inside a string
// literal: printable ASCII but the quote and the backslash.
var plainChar = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// getu4 decodes the \uXXXX at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// unquote returns the value of a string literal scanString has validated:
// escapes resolved, surrogate pairs joined, lone surrogates and invalid
// UTF-8 replaced by U+FFFD, exactly as encoding/json does.
func unquote(s []byte) []byte {
	b := make([]byte, 0, len(s)+2*utf8.UTFMax)
	for r := 0; r < len(s); {
		switch c := s[r]; {
		case c == '\\':
			r++
			switch s[r] {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := getu4(s[r-1:])
				r += 4
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, getu4(s[r+1:])); dec != unicode.ReplacementChar {
						r += 6
						rr = dec
					} else {
						rr = unicode.ReplacementChar
					}
				}
				b = utf8.AppendRune(b, rr)
			default: // " \ /
				b = append(b, s[r])
			}
			r++
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			r += size
			b = utf8.AppendRune(b, rr)
		}
	}
	return b
}

// text decodes a string value and returns its bytes — a view of src when
// the literal is plain, so the caller copies or interns them — or null.
func (d *decoder) text() (b []byte, null bool, err error) {
	switch d.peek() {
	case '"':
		b, plain, err := d.scanString()
		if err == nil && !plain {
			b = unquote(b)
		}
		return b, false, err
	case 'n':
		return nil, true, d.literal("null")
	}
	return nil, false, d.fail("want string")
}

// str decodes a string value into dst; null leaves dst alone.
func (d *decoder) str(dst *string) error {
	b, null, err := d.text()
	if err == nil && !null {
		*dst = string(b)
	}
	return err
}

// interned is str for a field with a few expected values: intern returns
// the constant for those, so decoding them does not allocate.
func (d *decoder) interned(dst *string, intern func([]byte) string) error {
	b, null, err := d.text()
	if err == nil && !null {
		*dst = intern(b)
	}
	return err
}

// number consumes the JSON number at the cursor and returns its digits:
// the literal without its sign. integer is false when it has a fraction
// or an exponent.
func (d *decoder) number() (digits []byte, neg, integer bool, err error) {
	src, i := d.src, d.pos
	if i < len(src) && src[i] == '-' {
		neg = true
		i++
	}
	start := i
	switch {
	case i < len(src) && src[i] == '0':
		i++
	case i < len(src) && '1' <= src[i] && src[i] <= '9':
		for i < len(src) && '0' <= src[i] && src[i] <= '9' {
			i++
		}
	default:
		return nil, false, false, d.fail("want number")
	}
	end := i
	integer = true
	if i < len(src) && src[i] == '.' {
		integer = false
		i++
		if i >= len(src) || src[i] < '0' || src[i] > '9' {
			d.pos = i
			return nil, false, false, d.fail("want digit after decimal point")
		}
		for i < len(src) && '0' <= src[i] && src[i] <= '9' {
			i++
		}
	}
	if i < len(src) && (src[i] == 'e' || src[i] == 'E') {
		integer = false
		i++
		if i < len(src) && (src[i] == '+' || src[i] == '-') {
			i++
		}
		if i >= len(src) || src[i] < '0' || src[i] > '9' {
			d.pos = i
			return nil, false, false, d.fail("want digit in exponent")
		}
		for i < len(src) && '0' <= src[i] && src[i] <= '9' {
			i++
		}
	}
	d.pos = i
	return src[start:end], neg, integer, nil
}

// magnitude decodes an integer no larger than max, the only numbers the
// schema has; null reports as such and a value of 0.
func (d *decoder) magnitude(max uint64, signed bool) (v uint64, neg, null bool, err error) {
	if d.peek() == 'n' {
		return 0, false, true, d.literal("null")
	}
	at := d.pos
	digits, neg, integer, err := d.number()
	if err != nil {
		return 0, false, false, err
	}
	if neg && signed {
		max++ // two's complement: one more below zero than above
	}
	// 19 digits cannot overflow a uint64; a 20th can, once.
	ok := integer && (signed || !neg) && len(digits) <= 20
	for _, c := range digits {
		next := v*10 + uint64(c-'0')
		if len(digits) == 20 && (v > (1<<64-1)/10 || next < v) {
			ok = false
		}
		v = next
	}
	if !ok || v > max {
		d.pos = at
		return 0, false, false, d.fail("number is not an integer the field can hold")
	}
	return v, neg, false, nil
}

// uint decodes an unsigned integer of the given width into dst; null
// leaves dst alone.
func (d *decoder) uint(dst *uint64, bits uint) error {
	v, _, null, err := d.magnitude(1<<bits-1, false)
	if err == nil && !null {
		*dst = v
	}
	return err
}

// int decodes a signed integer of the given width into dst; null leaves
// dst alone.
func (d *decoder) int(dst *int64, bits uint) error {
	v, neg, null, err := d.magnitude(1<<(bits-1)-1, true)
	if err != nil || null {
		return err
	}
	if *dst = int64(v); neg {
		*dst = -int64(v)
	}
	return nil
}

// boolean decodes true or false into dst; null leaves dst alone.
func (d *decoder) boolean(dst *bool) error {
	switch d.peek() {
	case 't':
		*dst = true
		return d.literal("true")
	case 'f':
		*dst = false
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	return d.fail("want true or false")
}

// skip consumes and validates one value of any type: an unknown key's.
func (d *decoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(func([]byte) error { return d.skip() })
	case c == '[':
		if _, err := d.open('['); err != nil {
			return err
		}
		return d.elems(d.skip)
	case c == '"':
		_, _, err := d.scanString()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || ('0' <= c && c <= '9'):
		_, _, _, err := d.number()
		return err
	}
	return d.fail("want a value")
}

// countElems counts the elements of the array whose opening bracket was
// just consumed, without consuming them. It is the capacity for the slice
// that will hold them, and only as right as the input is well-formed.
func (d *decoder) countElems() int {
	n, depth, seen := 0, 0, false
	for i := d.pos; i < len(d.src); i++ {
		switch d.src[i] {
		case ' ', '\t', '\r', '\n':
		case '"':
			for i++; i < len(d.src) && d.src[i] != '"'; i++ {
				if d.src[i] == '\\' {
					i++
				}
			}
			seen = true
		case '{', '[':
			depth++
			seen = true
		case '}':
			depth--
		case ']':
			if depth == 0 {
				if seen {
					n++
				}
				return n
			}
			depth--
		case ',':
			if depth == 0 {
				n++
			}
		default:
			seen = true
		}
	}
	return n
}

// uints decodes an array of unsigned integers into dst, reusing its
// capacity. presize allocates a destination without capacity at the exact
// length in one step — for the slices a response hands to its caller.
func (d *decoder) uints(dst *[]uint64, presize bool) error {
	null, err := d.open('[')
	if null {
		*dst = nil
	}
	if err != nil || null {
		return err
	}
	out := (*dst)[:0]
	if presize && cap(out) == 0 {
		out = make([]uint64, 0, d.countElems())
	} else if out == nil {
		out = []uint64{}
	}
	err = d.elems(func() error {
		if v, ok := d.compactID(); ok {
			out = append(out, v)
			return nil
		}
		out = append(out, 0)
		return d.uint(&out[len(out)-1], 64)
	})
	*dst = out
	return err
}

// --- the compact form --------------------------------------------------------

// at reports whether src holds lit at index i.
func at(src []byte, i int, lit string) bool {
	return len(src)-i >= len(lit) && string(src[i:i+len(lit)]) == lit
}

// compactUint reads the integer at src[i:] when it is 1 to 19 digits
// without a leading zero, which always fits a uint64, and returns it and the
// index past its digits. A sign, a leading zero or a 20th digit is not ok;
// the caller rejects a fraction or an exponent by the byte it expects next.
func compactUint(src []byte, i int) (v uint64, end int, ok bool) {
	start := i
	for ; i < len(src) && '0' <= src[i] && src[i] <= '9'; i++ {
		if i-start == 19 {
			return 0, i, false
		}
		v = v*10 + uint64(src[i]-'0')
	}
	return v, i, i > start && (src[start] != '0' || i == start+1)
}

// compactText reads the string whose opening quote is just before src[i:]
// when it is plain ASCII, and returns its bytes and the index past its
// closing quote. An escape, a control or non-ASCII byte, or the end of input
// is not ok.
func compactText(src []byte, i int) (b []byte, end int, ok bool) {
	start := i
	for i < len(src) && plainChar[src[i]] {
		i++
	}
	if i == len(src) || src[i] != '"' {
		return nil, i, false
	}
	return src[start:i], i + 1, true
}

// closes reports whether src holds the closing brace of a compact object at i.
func closes(src []byte, i int) bool { return i < len(src) && src[i] == '}' }

// compactParam decodes the Param at the cursor when it is laid out as
// Param.appendJSON emits it, {"addr":N[,"size":N],"mode":"..."}, and reports
// whether it was; when not, neither the cursor nor p has moved. A param's
// braces sit at depth 5 (request, tasks, task, params, param), far inside
// maxDepth, and close again, so the depth count is left alone.
func (d *decoder) compactParam(p *Param) bool {
	src := d.src
	if !at(src, d.pos, `{"addr":`) {
		return false
	}
	addr, i, ok := compactUint(src, d.pos+len(`{"addr":`))
	var size uint64
	if ok && at(src, i, `,"size":`) {
		size, i, ok = compactUint(src, i+len(`,"size":`))
	}
	if !ok || size > 1<<32-1 || !at(src, i, `,"mode":"`) {
		return false
	}
	mode, i, ok := compactText(src, i+len(`,"mode":"`))
	if !ok || !closes(src, i) {
		return false
	}
	p.Addr, p.Size, p.Mode = addr, uint32(size), internMode(mode)
	d.pos = i + 1
	return true
}

// compactStatus is compactParam for a TaskStatus without an error,
// {"id":N,"state":"..."}, at depth 3 (response, tasks, status).
func (d *decoder) compactStatus(st *TaskStatus) bool {
	src := d.src
	if !at(src, d.pos, `{"id":`) {
		return false
	}
	id, i, ok := compactUint(src, d.pos+len(`{"id":`))
	if !ok || !at(src, i, `,"state":"`) {
		return false
	}
	state, i, ok := compactText(src, i+len(`,"state":"`))
	if !ok || !closes(src, i) {
		return false
	}
	st.ID, st.State = id, internState(state)
	d.pos = i + 1
	return true
}

// compactID reads the element of an id array at the cursor when it is an
// integer compactUint takes directly followed by the comma or bracket after
// it; when not, the cursor has not moved.
func (d *decoder) compactID() (uint64, bool) {
	v, end, ok := compactUint(d.src, d.pos)
	if !ok || end == len(d.src) || d.src[end] != ',' && d.src[end] != ']' {
		return 0, false
	}
	d.pos = end
	return v, true
}

func internMode(b []byte) string {
	switch string(b) {
	case "in":
		return "in"
	case "out":
		return "out"
	case "inout":
		return "inout"
	}
	return string(b)
}

func internState(b []byte) string {
	switch string(b) {
	case StateOK:
		return StateOK
	case StateFailed:
		return StateFailed
	case StateSkipped:
		return StateSkipped
	case StatePending:
		return StatePending
	}
	return string(b)
}

func (d *decoder) param(p *Param) error {
	return d.object(func(key []byte) error {
		switch string(key) {
		case "addr":
			return d.uint(&p.Addr, 64)
		case "size":
			v := uint64(p.Size)
			err := d.uint(&v, 32)
			p.Size = uint32(v)
			return err
		case "mode":
			return d.interned(&p.Mode, internMode)
		}
		return d.skip()
	})
}

func (d *decoder) taskSpec(t *TaskSpec) error {
	member := func(key []byte) error {
		switch string(key) {
		case "name":
			return d.str(&t.Name)
		case "params":
			return d.taskParams(t)
		case "exec_us":
			return d.int(&t.ExecUS, 64)
		case "timeout_ms":
			return d.int(&t.TimeoutMS, 64)
		case "max_retries":
			v := int64(t.MaxRetries)
			err := d.int(&v, strconv.IntSize)
			t.MaxRetries = int(v)
			return err
		}
		return d.skip()
	}
	// The compact form of a nameless task opens with its params: the brace
	// and the key are one compare, and whatever follows the array is read
	// by the grammar.
	if at(d.src, d.pos, `{"params":`) {
		if _, err := d.open('{'); err != nil {
			return err
		}
		d.pos += len(`"params":`)
		if err := d.taskParams(t); err != nil {
			return err
		}
		return d.members(false, member)
	}
	return d.object(member)
}

// taskParams decodes one task's params onto the end of the request's slab.
// The slab may move as it grows, so t.Params is only good for its length
// until tasks re-slices every task's params at the end.
func (d *decoder) taskParams(t *TaskSpec) error {
	// t is the task being decoded, so any params it already has — a
	// repeated key — are the slab's tail: drop them.
	d.params = d.params[:len(d.params)-len(t.Params)]
	null, err := d.open('[')
	if null {
		t.Params = nil
	}
	if err != nil || null {
		return err
	}
	start := len(d.params)
	err = d.elems(func() error {
		d.params = append(d.params, Param{})
		if p := &d.params[len(d.params)-1]; !d.compactParam(p) {
			return d.param(p)
		}
		return nil
	})
	if t.Params = d.params[start:]; len(t.Params) == 0 {
		t.Params = []Param{} // an empty array is not null
	}
	return err
}

func (d *decoder) tasks(dst *[]TaskSpec) error {
	// A repeated "tasks" key replaces the earlier array, params included.
	clear(*dst)
	d.params = d.params[:0]
	null, err := d.open('[')
	if null {
		*dst = nil
	}
	if err != nil || null {
		return err
	}
	// *dst is kept current as it grows, so whoever resets it after a
	// failed decode sees every element that was written.
	if *dst = (*dst)[:0]; *dst == nil {
		*dst = []TaskSpec{}
	}
	err = d.elems(func() error {
		*dst = append(*dst, TaskSpec{})
		return d.taskSpec(&(*dst)[len(*dst)-1])
	})
	off := 0
	for i := range *dst {
		t := &(*dst)[i]
		if n := len(t.Params); n > 0 {
			t.Params = d.params[off : off+n : off+n]
			off += n
		}
	}
	return err
}

func (d *decoder) submitRequest(r *SubmitRequest) error {
	return d.object(func(key []byte) error {
		switch string(key) {
		case "tasks":
			return d.tasks(&r.Tasks)
		case "idempotency_key":
			return d.str(&r.IdempotencyKey)
		}
		return d.skip()
	})
}

func (d *decoder) submitResponse(r *SubmitResponse) error {
	return d.object(func(key []byte) error {
		switch string(key) {
		case "ids":
			return d.uints(&r.IDs, true)
		case "deduped":
			return d.boolean(&r.Deduped)
		}
		return d.skip()
	})
}

func (d *decoder) awaitRequest(r *AwaitRequest) error {
	return d.object(func(key []byte) error {
		switch string(key) {
		case "ids":
			return d.uints(&r.IDs, false)
		case "timeout_ms":
			return d.int(&r.TimeoutMS, 64)
		}
		return d.skip()
	})
}

func (d *decoder) taskStatus(st *TaskStatus) error {
	return d.object(func(key []byte) error {
		switch string(key) {
		case "id":
			return d.uint(&st.ID, 64)
		case "state":
			return d.interned(&st.State, internState)
		case "error":
			return d.str(&st.Error)
		}
		return d.skip()
	})
}

func (d *decoder) awaitResponse(r *AwaitResponse) error {
	return d.object(func(key []byte) error {
		switch string(key) {
		case "done":
			return d.boolean(&r.Done)
		case "tasks":
			return d.statuses(&r.Tasks)
		}
		return d.skip()
	})
}

// statuses decodes the tasks of an AwaitResponse: the slice Session.Await
// returns, so without capacity to reuse it is one exact-size allocation.
func (d *decoder) statuses(dst *[]TaskStatus) error {
	null, err := d.open('[')
	if null {
		*dst = nil
	}
	if err != nil || null {
		return err
	}
	out := (*dst)[:0]
	if cap(out) == 0 {
		out = make([]TaskStatus, 0, d.countElems())
	}
	err = d.elems(func() error {
		out = append(out, TaskStatus{})
		if st := &out[len(out)-1]; !d.compactStatus(st) {
			return d.taskStatus(st)
		}
		return nil
	})
	*dst = out
	return err
}
