package service

// The JSON codec for the four messages on the per-task path: SubmitRequest,
// SubmitResponse, AwaitRequest and AwaitResponse. The server's handlers and
// the client call appendJSON/parseJSON on pooled buffers, and
// MarshalJSON/UnmarshalJSON hand every encoding/json caller to the same
// code. It speaks the schema the struct tags in wire.go declare.
//
// Emitted bytes are what json.Marshal produced for these types: field
// order, omitempty, null for a nil slice, HTML-safe string escaping.
//
// The accepted language is encoding/json's, and encoding/json defines it.
// parseJSON reads the compact form appendJSON emits — the bytes every
// server and client here sends — whole, in one forward pass: every key the
// encoder writes, in its order, matched with one literal compare; integers
// of up to 19 digits without a leading zero, accumulated as they are
// scanned; plain-ASCII strings; null for a nil slice; whitespace only after
// the document. On any other byte it stops, and json.Unmarshal decodes the
// whole document afresh into the message's method-less twin. A compact
// document decodes to what json.Unmarshal makes of it, so which of the two
// reads a document changes its cost, never its value or its verdict.

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// wireEncoder and wireDecoder are the codec's two entry points, which the
// four per-task messages have and the cold ones do not.
type (
	wireEncoder interface{ appendJSON(dst []byte) []byte }
	wireDecoder interface{ parseJSON(src []byte) error }
)

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

// Method-less twins of the four messages: the same fields and tags, so
// encoding/json decodes them by reflection and never calls parseJSON. A
// document not in the compact form is decoded into one.
type (
	shadowSubmitRequest  SubmitRequest
	shadowSubmitResponse SubmitResponse
	shadowAwaitRequest   AwaitRequest
	shadowAwaitResponse  AwaitResponse
)

func (r *SubmitRequest) parseJSON(src []byte) error {
	var d decoder
	return d.decodeSubmit(src, r)
}

// decoder holds the slab every TaskSpec.Params of one SubmitRequest is
// carved from. A decoder that lives across requests (the server's pooled
// scratch) reuses it; the params of the previous request die with the next
// decodeSubmit call.
type decoder struct{ params []Param }

// decodeSubmit is SubmitRequest.parseJSON on a decoder the caller keeps,
// reusing r.Tasks' capacity and the decoder's params slab.
func (d *decoder) decodeSubmit(src []byte, r *SubmitRequest) error {
	c := cursor{src: src}
	c.want(`{"tasks":`)
	r.Tasks = d.tasks(&c, r.Tasks)
	r.IdempotencyKey = ""
	if c.lit(`,"idempotency_key":"`) {
		r.IdempotencyKey = string(c.text())
	}
	c.want("}")
	if c.whole() {
		return nil
	}
	var twin shadowSubmitRequest
	err := json.Unmarshal(src, &twin)
	*r = SubmitRequest(twin)
	return err
}

func (r *SubmitResponse) parseJSON(src []byte) error {
	c := cursor{src: src}
	c.want(`{"ids":`)
	r.IDs = c.ids(r.IDs)
	r.Deduped = c.lit(`,"deduped":true`)
	c.want("}")
	if c.whole() {
		return nil
	}
	var twin shadowSubmitResponse
	err := json.Unmarshal(src, &twin)
	*r = SubmitResponse(twin)
	return err
}

func (r *AwaitRequest) parseJSON(src []byte) error {
	c := cursor{src: src}
	c.want("{")
	r.IDs, r.TimeoutMS = r.IDs[:0], 0
	timeout := `"timeout_ms":`
	if c.lit(`"ids":`) {
		r.IDs = c.ids(r.IDs)
		timeout = `,"timeout_ms":`
	}
	if c.lit(timeout) {
		r.TimeoutMS = c.int(math.MaxInt64)
	}
	c.want("}")
	if c.whole() {
		return nil
	}
	var twin shadowAwaitRequest
	err := json.Unmarshal(src, &twin)
	*r = AwaitRequest(twin)
	return err
}

func (r *AwaitResponse) parseJSON(src []byte) error {
	c := cursor{src: src}
	if r.Done = c.lit(`{"done":true,"tasks":`); !r.Done {
		c.want(`{"done":false,"tasks":`)
	}
	out := sized(r.Tasks, &c, len(`{"id":0,"state":""},`))
	if c.array(func() {
		c.want(`{"id":`)
		st := TaskStatus{ID: c.uint(math.MaxUint64)}
		c.want(`,"state":"`)
		st.State = internState(c.text())
		if c.lit(`,"error":"`) {
			st.Error = string(c.text())
		}
		c.want("}")
		out = append(out, st)
	}) {
		out = nil
	}
	r.Tasks = out
	c.want("}")
	if c.whole() {
		return nil
	}
	var twin shadowAwaitResponse
	err := json.Unmarshal(src, &twin)
	*r = AwaitResponse(twin)
	return err
}

// tasks reads a request's task array, reusing dst's capacity, with every
// task's params carved from the decoder's slab.
func (d *decoder) tasks(c *cursor, dst []TaskSpec) []TaskSpec {
	d.params = d.params[:0]
	out := sized(dst, c, len(`{"params":null},`))
	if c.array(func() {
		out = append(out, TaskSpec{})
		d.task(c, &out[len(out)-1])
	}) {
		return nil
	}
	// The slab may have moved as it grew: each task's params are re-sliced
	// off its final place, capacity-clipped, so that appending to one
	// cannot reach its neighbour's.
	off := 0
	for i := range out {
		if n := len(out[i].Params); n > 0 {
			out[i].Params = d.params[off : off+n : off+n]
			off += n
		}
	}
	return out
}

// task reads one TaskSpec onto the end of the slab; t.Params is good only
// for its length until tasks re-slices it.
func (d *decoder) task(c *cursor, t *TaskSpec) {
	if !c.lit(`{"params":`) {
		c.want(`{"name":"`)
		t.Name = string(c.text())
		c.want(`,"params":`)
	}
	start := len(d.params)
	if !c.array(func() { d.params = append(d.params, c.param()) }) {
		if t.Params = d.params[start:]; len(t.Params) == 0 {
			t.Params = []Param{} // an empty array is not null
		}
	}
	if c.lit("}") {
		return
	}
	if c.lit(`,"exec_us":`) {
		t.ExecUS = c.int(math.MaxInt64)
	}
	if c.lit(`,"timeout_ms":`) {
		t.TimeoutMS = c.int(math.MaxInt64)
	}
	if c.lit(`,"max_retries":`) {
		t.MaxRetries = int(c.int(math.MaxInt))
	}
	c.want("}")
}

func (c *cursor) param() Param {
	c.want(`{"addr":`)
	p := Param{Addr: c.uint(math.MaxUint64)}
	if c.lit(`,"size":`) {
		p.Size = uint32(c.uint(math.MaxUint32))
	}
	c.want(`,"mode":"`)
	p.Mode = internMode(c.text())
	c.want("}")
	return p
}

// ids reads an id array, reusing dst's capacity.
func (c *cursor) ids(dst []uint64) []uint64 {
	out := sized(dst, c, len(`0,`))
	if c.array(func() { out = append(out, c.uint(math.MaxUint64)) }) {
		return nil
	}
	return out
}

// --- the compact form --------------------------------------------------------

// cursor reads one document in the compact form appendJSON emits. A miss is
// sticky: after the first read that fails, every read fails and returns a
// zero value, so a reader runs straight through and asks whole once.
type cursor struct {
	src []byte
	pos int
	bad bool
}

// lit consumes s when the input continues with it.
func (c *cursor) lit(s string) bool {
	src, i := c.src, c.pos
	// The first byte alone settles most misses, and all of a one-byte s.
	if c.bad || len(src)-i < len(s) || src[i] != s[0] || len(s) > 1 && string(src[i+1:i+len(s)]) != s[1:] {
		return false
	}
	c.pos = i + len(s)
	return true
}

// want is lit for what the layout requires.
func (c *cursor) want(s string) {
	if !c.lit(s) {
		c.bad = true
	}
}

// whole reports whether the cursor has read the whole document: nothing
// missed, and only whitespace after it (writeWire ends with a newline).
func (c *cursor) whole() bool {
	for ; !c.bad && c.pos < len(c.src); c.pos++ {
		if b := c.src[c.pos]; b != ' ' && b != '\t' && b != '\r' && b != '\n' {
			return false
		}
	}
	return !c.bad
}

// uint reads an integer no larger than max: 1 to 19 digits, which always
// fit a uint64, without a leading zero. A 20th digit, a fraction or an
// exponent misses at the token the layout has next, which is never a digit.
func (c *cursor) uint(max uint64) uint64 {
	src, start, i := c.src, c.pos, c.pos
	var v uint64
	for end := min(len(src), i+19); i < end && src[i]-'0' <= 9; i++ {
		v = v*10 + uint64(src[i]-'0')
	}
	if c.bad || i == start || v > max || src[start] == '0' && i > start+1 {
		c.bad = true
		return 0
	}
	c.pos = i
	return v
}

// int reads an integer from -max-1 to max.
func (c *cursor) int(max int64) int64 {
	if c.lit("-") {
		return -int64(c.uint(uint64(max) + 1))
	}
	return int64(c.uint(uint64(max)))
}

// text reads a string, whose opening quote ends the literal before it, up to
// its closing quote, when it is plain ASCII: no escape, control or non-ASCII
// byte. The bytes are a view of src, which the caller copies or interns.
func (c *cursor) text() []byte {
	src, start, i := c.src, c.pos, c.pos
	for i < len(src) && plainChar[src[i]] {
		i++
	}
	if c.bad || i == len(src) || src[i] != '"' {
		c.bad = true
		return nil
	}
	c.pos = i + 1
	return src[start:i]
}

// plainChar marks the bytes that stand for themselves inside a string
// literal: printable ASCII but the quote and the backslash.
var plainChar = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// array reads an array, calling elem with the cursor on each element, and
// reports whether it was the null that stands for a nil slice.
func (c *cursor) array(elem func()) (null bool) {
	if c.lit("null") {
		return true
	}
	c.want("[")
	if c.lit("]") {
		return false
	}
	elem()
	for c.lit(",") {
		elem()
	}
	c.want("]")
	return false
}

// sized returns dst emptied for the array at the cursor. A dst without
// capacity — a response's slice, handed to its caller — gets the array's
// length in one allocation: count's, which is exact for the compact form,
// but never more elements of at least least bytes than the rest of src holds.
func sized[E any](dst []E, c *cursor, least int) []E {
	if cap(dst) > 0 {
		return dst[:0]
	}
	return make([]E, 0, min(c.count(), (len(c.src)-c.pos)/least))
}

// count returns the number of elements of the array at the cursor: one more
// than the commas outside its strings and inner brackets. A compact string
// has no escape, so the next quote closes it.
func (c *cursor) count() int {
	src := c.src
	if c.pos+1 >= len(src) || src[c.pos] != '[' || src[c.pos+1] == ']' {
		return 0
	}
	n, depth := 1, 0
	for i := c.pos + 1; i < len(src); i++ {
		switch src[i] {
		case '"':
			j := bytes.IndexByte(src[i+1:], '"')
			if j < 0 {
				return n
			}
			i += j + 1
		case '{', '[':
			depth++
		case '}':
			depth--
		case ']':
			if depth == 0 {
				return n
			}
			depth--
		case ',':
			if depth == 0 {
				n++
			}
		}
	}
	return n
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
