package service

import (
	"bytes"
	"encoding/json"
	"unicode/utf16"
	"unicode/utf8"
)

// decodeAnalyze decodes a POST /v1/analyze body into req with the value
// and error decodeJSON would give. The shape every client sends — one
// object holding at most one each of "files", "defines", "options" and
// "wait", the first two string→string objects — is read in one pass, with
// "options" handed to encoding/json as a raw span. Any other body,
// malformed ones included, goes to decodeJSON whole, so its values and
// error texts stay encoding/json's.
//
// Every decoded string is a copy: warm lineages keep sources across
// requests, and a string aliasing the body would pin all of it.
func decodeAnalyze(body []byte, req *analyzeRequest) error {
	d := bodyDecoder{b: body}
	if d.request(req) {
		return nil
	}
	*req = analyzeRequest{}
	return decodeJSON(bytes.NewReader(body), req)
}

// bodyDecoder reads JSON from b at i. Each method reports false, with i
// anywhere, on input it does not read; the caller then falls back.
type bodyDecoder struct {
	b   []byte
	i   int
	buf []byte // scratch for unescaping
}

// request reads the whole body as one request object.
func (d *bodyDecoder) request(req *analyzeRequest) bool {
	if !d.consume('{') {
		return false
	}
	if !d.consume('}') {
		var seen uint8 // one bit per key
		for {
			if !d.member(req, &seen) {
				return false
			}
			if d.consume('}') {
				break
			}
			if !d.consume(',') {
				return false
			}
		}
	}
	d.space()
	return d.i == len(d.b)
}

// member reads one key of the request object and its value. A key seen
// before is refused: encoding/json merges repeated objects.
func (d *bodyDecoder) member(req *analyzeRequest, seen *uint8) bool {
	key, ok := d.string()
	if !ok || !d.consume(':') {
		return false
	}
	var bit uint8
	switch key {
	case "files":
		bit = 1
		req.Files, ok = d.stringMap()
	case "defines":
		bit = 2
		req.Defines, ok = d.stringMap()
	case "options":
		bit = 4
		var span []byte
		span, ok = d.object()
		ok = ok && json.Unmarshal(span, &req.Options) == nil
	case "wait":
		bit = 8
		var v bool
		v, ok = d.boolean()
		req.Wait = &v
	default:
		return false
	}
	if !ok || *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

// space skips JSON whitespace.
func (d *bodyDecoder) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, if c is next.
func (d *bodyDecoder) consume(c byte) bool {
	d.space()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// stringMap reads an object of strings; like encoding/json, an empty
// object gives an empty map and a repeated key keeps its last value.
func (d *bodyDecoder) stringMap() (map[string]string, bool) {
	if !d.consume('{') {
		return nil, false
	}
	m := map[string]string{}
	if d.consume('}') {
		return m, true
	}
	for {
		k, ok := d.string()
		if !ok || !d.consume(':') {
			return nil, false
		}
		v, ok := d.string()
		if !ok {
			return nil, false
		}
		m[k] = v
		if d.consume('}') {
			return m, true
		}
		if !d.consume(',') {
			return nil, false
		}
	}
}

// plainByte marks the bytes a string holds as they are: not a quote, a
// backslash or a control byte.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < len(t); c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// string reads a string. It refuses invalid UTF-8 and lone surrogates,
// which encoding/json replaces with U+FFFD.
func (d *bodyDecoder) string() (string, bool) {
	if !d.consume('"') {
		return "", false
	}
	b, start := d.b, d.i
	i, run := start, start // run: the first byte not yet copied to d.buf
	escaped, high := false, byte(0)
	for {
		for i < len(b) && plainByte[b[i]] {
			high |= b[i]
			i++
		}
		if i == len(b) || b[i] != '\\' {
			break
		}
		if !escaped {
			escaped, d.buf = true, d.buf[:0]
		}
		d.buf = append(d.buf, b[run:i]...)
		var n int
		if d.buf, n = unescape(d.buf, b[i:]); n == 0 {
			return "", false
		}
		i += n
		run = i
	}
	if i == len(b) || b[i] != '"' {
		return "", false
	}
	raw := b[start:i]
	d.i = i + 1
	if high >= utf8.RuneSelf && !utf8.Valid(raw) {
		return "", false
	}
	if !escaped {
		return string(raw), true
	}
	d.buf = append(d.buf, b[run:i]...)
	return string(d.buf), true
}

// unescape appends the character the escape at the start of s stands for
// to dst, and returns how many bytes of s it read: 0 for an escape
// encoding/json would refuse or turn into U+FFFD.
func unescape(dst, s []byte) ([]byte, int) {
	if len(s) < 2 {
		return dst, 0
	}
	switch c := s[1]; c {
	case '"', '\\', '/':
		return append(dst, c), 2
	case 'b':
		return append(dst, '\b'), 2
	case 'f':
		return append(dst, '\f'), 2
	case 'n':
		return append(dst, '\n'), 2
	case 'r':
		return append(dst, '\r'), 2
	case 't':
		return append(dst, '\t'), 2
	case 'u':
		r, ok := hex4(s[2:])
		if !ok {
			return dst, 0
		}
		if !utf16.IsSurrogate(r) {
			return utf8.AppendRune(dst, r), 6
		}
		// Only a high surrogate escape followed by a low one.
		if len(s) < 8 || s[6] != '\\' || s[7] != 'u' {
			return dst, 0
		}
		low, ok := hex4(s[8:])
		if !ok {
			return dst, 0
		}
		if r = utf16.DecodeRune(r, low); r == utf8.RuneError {
			return dst, 0
		}
		return utf8.AppendRune(dst, r), 12
	}
	return dst, 0
}

// hex4 reads the four hex digits of a \u escape from the start of b.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// object returns the span of the object that starts at the next
// non-space byte. It only balances brackets outside strings; the caller
// validates the span.
func (d *bodyDecoder) object() ([]byte, bool) {
	d.space()
	if d.i >= len(d.b) || d.b[d.i] != '{' {
		return nil, false
	}
	start, depth := d.i, 0
	for ; d.i < len(d.b); d.i++ {
		switch d.b[d.i] {
		case '"':
			for d.i++; d.i < len(d.b) && d.b[d.i] != '"'; d.i++ {
				if d.b[d.i] == '\\' {
					d.i++
				}
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				d.i++
				return d.b[start:d.i], true
			}
		}
	}
	return nil, false
}

// boolean reads true or false.
func (d *bodyDecoder) boolean() (bool, bool) {
	d.space()
	rest := d.b[d.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		d.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		d.i += 5
		return false, true
	}
	return false, false
}
