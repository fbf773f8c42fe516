// The one function that turns a /run-shaped body into a Request:
// readRun reads the body once into a pooled buffer, DecodeRequest
// decodes it once. Every handler that accepts a Request — a Server's
// /run and the Router's — goes through them, so the source the router
// picks a replica by is the source that replica keys its cache by.
//
// DecodeRequest is a single pass over the envelope every client
// actually sends: an object of the nine lower-case Request keys,
// each at most once, holding strings (with the \" \\ \/ \b \f \n \r \t
// and non-surrogate \uXXXX escapes), true/false, non-negative integers
// and an array of number literals. encoding/json stays the definition
// of the format: a body with anything else in it — another key or key
// case, a repeated key, null, a surrogate escape, invalid UTF-8, a
// number in a string, an integer out of range, any syntax error — is
// decoded whole by json.Decoder instead, so the accepted set, the
// decoded value and the error text are encoding/json's
// (FuzzDecodeRequest holds the two to that).
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strings"
	"sync"
	"unicode/utf8"
)

// bodyPool recycles request-body buffers across requests. Nothing
// decoded from a buffer aliases it (DecodeRequest copies every string
// out), so a buffer goes back as soon as its last reader is done.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody is the largest buffer releaseBody keeps: one oversized
// request must not pin its megabytes in the pool.
const maxPooledBody = 64 << 10

func releaseBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
}

// readRun reads r's body — at most limit bytes, into a pooled buffer
// sized up front from Content-Length — decodes it and gives the buffer
// back. On failure it writes the reply (413 for an oversized body, 400
// for an unreadable or malformed one) and returns ok false.
func readRun(w http.ResponseWriter, r *http.Request, limit int64) (req Request, ok bool) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer releaseBody(buf) // the Request owns its strings
	if n := r.ContentLength; n > 0 {
		// The header is only a claim: believe it as far as a pooled buffer
		// goes, and let a larger body grow the buffer as it arrives.
		// ReadFrom wants MinRead spare bytes for the read that returns EOF.
		buf.Grow(int(min(n, maxPooledBody-bytes.MinRead)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	if err == nil {
		req, err = DecodeRequest(buf.Bytes())
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: err.Error()})
		} else {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		}
		return Request{}, false
	}
	return req, true
}

// DecodeRequest decodes one POST /run body exactly as
// json.NewDecoder(bytes.NewReader(body)).Decode(&req) does — same
// accepted bodies (bytes after the object are ignored), same Request,
// same error — in one pass when the body is in the common form (see
// the file comment). The Request shares no memory with body.
func DecodeRequest(body []byte) (Request, error) {
	if req, ok := decodeFast(body); ok {
		return req, nil
	}
	var req Request
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, err
}

// decodeFast is DecodeRequest's single pass. ok is false for any body
// outside its grammar, valid or not; it never reports an error itself.
func decodeFast(b []byte) (req Request, ok bool) {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return req, false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return req, true
	}
	var seen uint // one bit per key decoded so far
	for {
		// "key" — raw bytes only: an escaped key never matches.
		if i == len(b) || b[i] != '"' {
			return req, false
		}
		end := bytes.IndexByte(b[i+1:], '"')
		if end < 0 {
			return req, false
		}
		key := b[i+1 : i+1+end]
		i = skipSpace(b, i+end+2)
		if i == len(b) || b[i] != ':' {
			return req, false
		}
		i = skipSpace(b, i+1)

		var bit uint
		switch string(key) {
		case "source":
			bit = 1 << 0
			req.Source, i, ok = decodeString(b, i)
		case "fn":
			bit = 1 << 1
			req.Fn, i, ok = decodeString(b, i)
		case "parallel":
			bit = 1 << 2
			req.Parallel, i, ok = decodeBool(b, i)
		case "auto":
			bit = 1 << 3
			req.Auto, i, ok = decodeBool(b, i)
		case "profile":
			bit = 1 << 4
			req.Profile, i, ok = decodeBool(b, i)
		case "pes":
			bit = 1 << 5
			req.PEs, i, ok = decodeInt(b, i)
		case "timeout_ms":
			bit = 1 << 6
			var v uint64
			v, i, ok = decodeUint(b, i, math.MaxInt64)
			req.TimeoutMS = int64(v)
		case "seed":
			bit = 1 << 7
			req.Seed, i, ok = decodeUint(b, i, math.MaxUint64)
		case "args":
			bit = 1 << 8
			req.Args, i, ok = decodeNumbers(b, i)
		default:
			return req, false
		}
		if !ok || seen&bit != 0 {
			return req, false
		}
		seen |= bit

		i = skipSpace(b, i)
		if i == len(b) {
			return req, false
		}
		switch b[i] {
		case '}':
			return req, true
		case ',':
			i = skipSpace(b, i+1)
		default:
			return req, false
		}
	}
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// plainByte marks the bytes a JSON string carries as themselves: ASCII
// from space up, except the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// decodeString decodes the string literal opening at b[i] and returns
// the index past its closing quote. It walks the literal twice: once
// to validate it and measure the decoded text, once — only when there
// are escapes to resolve — to write that text into a string of exactly
// that size.
func decodeString(b []byte, i int) (s string, next int, ok bool) {
	if i == len(b) || b[i] != '"' {
		return "", 0, false
	}
	start := i + 1
	shrink := 0 // bytes the escapes take beyond the text they stand for
	j := start
scan:
	for {
		for j < len(b) && plainByte[b[j]] {
			j++
		}
		if j == len(b) {
			return "", 0, false
		}
		switch c := b[j]; {
		case c == '"':
			break scan
		case c == '\\':
			r, size := unescape(b[j:])
			if size == 0 {
				return "", 0, false
			}
			shrink += size - utf8.RuneLen(r)
			j += size
		case c < 0x20:
			return "", 0, false
		default:
			// encoding/json turns each byte of invalid UTF-8 into U+FFFD.
			r, size := utf8.DecodeRune(b[j:])
			if r == utf8.RuneError && size == 1 {
				return "", 0, false
			}
			j += size
		}
	}
	lit := b[start:j]
	if shrink == 0 {
		return string(lit), j + 1, true
	}
	var sb strings.Builder
	sb.Grow(len(lit) - shrink)
	for {
		k := bytes.IndexByte(lit, '\\')
		if k < 0 {
			sb.Write(lit)
			return sb.String(), j + 1, true
		}
		sb.Write(lit[:k])
		r, size := unescape(lit[k:])
		sb.WriteRune(r)
		lit = lit[k+size:]
	}
}

// unescape reads the escape sequence at the head of b (b[0] is the
// backslash) and returns the character it stands for and its length in
// b; size 0 means not an escape this decoder resolves — malformed, cut
// short, or half of a surrogate pair.
func unescape(b []byte) (r rune, size int) {
	if len(b) < 2 {
		return 0, 0
	}
	switch b[1] {
	case '"', '\\', '/':
		return rune(b[1]), 2
	case 'n':
		return '\n', 2
	case 't':
		return '\t', 2
	case 'r':
		return '\r', 2
	case 'b':
		return '\b', 2
	case 'f':
		return '\f', 2
	case 'u':
		if len(b) < 6 {
			return 0, 0
		}
		for _, c := range b[2:6] {
			var d byte
			switch {
			case '0' <= c && c <= '9':
				d = c - '0'
			case 'a' <= c && c <= 'f':
				d = c - 'a' + 10
			case 'A' <= c && c <= 'F':
				d = c - 'A' + 10
			default:
				return 0, 0
			}
			r = r<<4 | rune(d)
		}
		if 0xD800 <= r && r < 0xE000 {
			return 0, 0
		}
		return r, 6
	}
	return 0, 0
}

func decodeBool(b []byte, i int) (v bool, next int, ok bool) {
	switch {
	case len(b)-i >= 4 && string(b[i:i+4]) == "true":
		return true, i + 4, true
	case len(b)-i >= 5 && string(b[i:i+5]) == "false":
		return false, i + 5, true
	}
	return false, 0, false
}

// decodeUint decodes a JSON integer without sign, fraction or exponent
// that is at most max. (A fraction or exponent after the digits fails
// the caller's check for what may follow a value.)
func decodeUint(b []byte, i int, max uint64) (v uint64, next int, ok bool) {
	start := i
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if v > (max-d)/10 {
			return 0, 0, false
		}
		v = v*10 + d
	}
	if i == start || (b[start] == '0' && i > start+1) {
		return 0, 0, false
	}
	return v, i, true
}

func decodeInt(b []byte, i int) (v int, next int, ok bool) {
	u, next, ok := decodeUint(b, i, math.MaxInt)
	return int(u), next, ok
}

// decodeNumbers decodes an array of JSON number literals. All the
// Numbers share one copy of the array's text.
func decodeNumbers(b []byte, i int) (nums []json.Number, next int, ok bool) {
	if i == len(b) || b[i] != '[' {
		return nil, 0, false
	}
	end := bytes.IndexByte(b[i:], ']')
	if end < 0 {
		return nil, 0, false
	}
	arr, next := b[i+1:i+end], i+end+1
	k := skipSpace(arr, 0)
	if k == len(arr) {
		return []json.Number{}, next, true // "[]" is an empty slice, not a nil one
	}
	text := string(arr)
	nums = make([]json.Number, 0, strings.Count(text, ",")+1)
	for {
		n := numberLen(arr[k:])
		if n == 0 {
			return nil, 0, false
		}
		nums = append(nums, json.Number(text[k:k+n]))
		k = skipSpace(arr, k+n)
		if k == len(arr) {
			return nums, next, true
		}
		if arr[k] != ',' {
			return nil, 0, false
		}
		k = skipSpace(arr, k+1)
	}
}

// numberLen returns the length of the JSON number literal at the head
// of s, 0 when there is none: the run of bytes a number can contain,
// if encoding/json calls that run a number.
func numberLen(s []byte) int {
	n := 0
	for n < len(s) && (('0' <= s[n] && s[n] <= '9') || s[n] == '-' || s[n] == '+' || s[n] == '.' || s[n] == 'e' || s[n] == 'E') {
		n++
	}
	if !json.Valid(s[:n]) {
		return 0
	}
	return n
}
